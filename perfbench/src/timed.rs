//! The untraced runs that give the end-to-end metrics.
//!
//! Host time on a shared machine swings with last-level-cache and memory
//! contention from neighbours, so no timing here is one process-long
//! stopwatch. Each unit of work (a simulated cell for `single`/`mix4`, a
//! whole re-answering pass for `warm`) is timed separately and the units
//! are repeated in interleaved rounds; `wall_s` combines the per-unit
//! samples with a statistic a single contended window cannot move.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use tlp_harness::cache::{CellOutcome, DiskCache, RunKey};
use tlp_harness::report::{ExperimentResult, Row};
use tlp_harness::scheme_result;
use tlp_sim::SimReport;

use crate::plan::{self, grid, CellSpec, Ctx, GridReports, Kind, Picks, Plan, SCHEMES};
use crate::stats::{self, median, min, quartiles, Metrics};

/// Everything one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why cells failed (first few), for the log.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Noise evidence printed before the result line.
    pub evidence: Vec<(String, String)>,
}

/// Cell-level correctness bookkeeping: every answer for a key must be
/// field-identical to the first report seen for it.
#[derive(Default)]
pub struct Checker {
    pub reference: HashMap<RunKey, SimReport>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Labels of cells that failed at least once; their timings are
    /// dropped.
    pub failed_labels: std::collections::HashSet<String>,
}

impl Checker {
    /// Records one answer (or a panic) for `key`; returns whether it
    /// matched the cell's reference report.
    pub fn check(&mut self, key: RunKey, label: &str, answer: Result<SimReport, String>) -> bool {
        self.attempted += 1;
        let problem = match answer {
            Err(msg) => Some(format!("panicked: {msg}")),
            Ok(report) => match self.reference.get(&key) {
                None => {
                    self.reference.insert(key, report);
                    None
                }
                Some(first) if *first == report => None,
                Some(_) => Some("report differs from the cell's first run".to_owned()),
            },
        };
        match problem {
            None => true,
            Some(p) => {
                self.failed_labels.insert(label.to_owned());
                self.fail(format!("{label}: {p}"));
                false
            }
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Best-effort text of a panic payload.
pub fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}

/// Submits `specs` to the harness as one batch. A panicking cell
/// re-panics out of the batch; [`collect`] then re-runs whatever the batch
/// left unanswered, one cell at a time, and records the failure.
pub fn submit(ctx: &Ctx, specs: &[CellSpec]) {
    let h = ctx.session.harness();
    let _ = catch_unwind(AssertUnwindSafe(|| h.run_cells(ctx.cells(specs))));
}

/// Collects every cell of `specs` from the harness, checking each answer.
/// Returns the reports in `specs` order (`None` where a cell failed).
pub fn collect(ctx: &Ctx, specs: &[CellSpec], check: &mut Checker) -> Vec<Option<SimReport>> {
    let h = ctx.session.harness();
    specs
        .iter()
        .map(|&s| {
            let cell = ctx.cell(s);
            let answer = catch_unwind(AssertUnwindSafe(|| h.run_cell(&cell)))
                .map_err(|p| panic_text(p.as_ref()));
            let ok = answer.as_ref().ok().cloned();
            check
                .check(cell.key(), cell.label(), answer)
                .then_some(ok)
                .flatten()
        })
        .collect()
}

/// [`submit`] then [`collect`].
pub fn run_grid(ctx: &Ctx, specs: &[CellSpec], check: &mut Checker) -> Vec<Option<SimReport>> {
    submit(ctx, specs);
    collect(ctx, specs, check)
}

/// The session's simulate time per cell label (cells it simulated).
fn simulated_times(ctx: &Ctx) -> HashMap<String, f64> {
    ctx.session
        .harness()
        .cell_timings()
        .into_iter()
        .filter(|t| t.outcome == CellOutcome::Simulated)
        .map(|t| (t.label, t.total_ns as f64 * 1e-9))
        .collect()
}

/// Renders the grid's answers as the tables a user reads: one scheme
/// sweep per scheme over the single-core picks, and the mix table.
pub fn render(kind: Kind, picks: &Picks, specs: &[CellSpec], reports: &[SimReport]) -> usize {
    let mut bytes = 0;
    let grid = GridReports { specs, reports };
    let at = |want| grid.find(want);
    if kind.has_single() {
        for (s, name) in SCHEMES.iter().enumerate() {
            let rows: Vec<(String, SimReport)> = (0..picks.singles.len())
                .map(|w| {
                    (
                        picks.singles[w].to_owned(),
                        at(CellSpec::Single { w, s }).clone(),
                    )
                })
                .collect();
            bytes += scheme_result(name, plan::L1PF, &rows).render().len();
        }
    }
    if kind.has_mix() {
        let mut table = ExperimentResult::new("mix4", "4-core mix", "IPC / DRAM transactions");
        for (s, name) in SCHEMES.iter().enumerate() {
            let r = at(CellSpec::Mix { s });
            let mut values: Vec<(String, f64)> = r
                .cores
                .iter()
                .map(|c| (c.workload.clone(), c.core.ipc()))
                .collect();
            values.push(("DRAM".to_owned(), r.dram_transactions() as f64));
            table.rows.push(Row::new(*name, values));
        }
        bytes += table.render().len();
    }
    bytes
}

/// The set-up a user pays per process before the first result: session
/// construction (the whole workload catalog), cache and trace-store open,
/// scheme resolution and, for the cold workloads, capturing and persisting
/// every trace the grid replays. Done `plan.setups` times into fresh
/// directories (so every capture is real); returns the last context and
/// the per-setup times.
pub fn set_up(kind: Kind, plan: &Plan, picks: &Picks, dirs: &[PathBuf]) -> (Ctx, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for dir in dirs {
        drop(last.take());
        let t = Instant::now();
        let ctx = plan::resolve(plan::open_session(plan.rc, dir), picks);
        if kind != Kind::Warm {
            for w in ctx.workloads(kind) {
                let _ = ctx.session.harness().trace_for(&w);
            }
        }
        times.push(t.elapsed().as_secs_f64());
        last = Some(ctx);
    }
    (last.expect("at least one set-up"), times)
}

/// Gives the session a fresh result cache over `dir`: an empty memory
/// tier in front of that disk tier.
pub fn fresh_cache(ctx: Ctx, dir: &Path) -> Ctx {
    let disk = DiskCache::open(dir).expect("open result-cache dir");
    Ctx {
        session: ctx.session.with_disk_cache(disk),
        ..ctx
    }
}

/// Runs one untraced benchmark run of `kind`.
pub fn run(kind: Kind, plan: &Plan, seed: u64, work: &Path) -> Outcome {
    let picks = Picks::from_seed(seed);
    let specs = grid(kind, &picks);
    let mut check = Checker::default();
    let mut evidence = Vec::new();
    let mut reference: Vec<SimReport> = Vec::new();
    let primed = work.join("primed");
    if kind == Kind::Warm {
        // Untimed: simulate both grids once into the cache and trace dir
        // every timed pass then reads.
        let ctx = plan::resolve(plan::open_session(plan.rc, &primed), &picks);
        reference = run_grid(&ctx, &specs, &mut check)
            .into_iter()
            .flatten()
            .collect();
        drop(ctx);
        // Priming simulates both grids, the 4-core mix included; without
        // a reset `peak_rss_mb` would report that peak, not the timed
        // passes'.
        evidence.push((
            "priming_peak_rss_mb".to_owned(),
            stats::num(stats::peak_rss_mb()),
        ));
        evidence.push((
            "peak_rss_reset".to_owned(),
            stats::reset_peak_rss().to_string(),
        ));
    }
    let dirs: Vec<PathBuf> = (0..plan.setups)
        .map(|i| {
            if kind == Kind::Warm {
                primed.clone()
            } else {
                work.join(format!("setup{i}"))
            }
        })
        .collect();
    let (mut ctx, setup) = set_up(kind, plan, &picks, &dirs);

    let (wall, samples) = if kind == Kind::Warm {
        // Each pass answers, collects and renders both grids through a
        // fresh result cache, so the disk tier answers every cell.
        let mut passes = Vec::new();
        for _ in 0..plan.warm_passes {
            let (next, secs, ok) = warm_pass(ctx, &picks, &specs, &primed, &mut check);
            ctx = next;
            if ok {
                passes.push(secs);
            }
        }
        let (q1, q2, q3) = quartiles(&passes);
        evidence.push((
            "wall_statistic".to_owned(),
            stats::string("passes x median pass time"),
        ));
        evidence.push(("pass_s_quartiles".to_owned(), stats::list(&[q1, q2, q3])));
        (median(&passes) * plan.warm_passes as f64, vec![passes])
    } else {
        // Each round simulates the whole grid again through a fresh, empty
        // result cache (traces stay in the session's tier, as after set-up
        // in a cold process). Rounds interleave, so a contended window
        // slows one sample of many cells rather than every sample of one.
        let mut per_cell: HashMap<String, Vec<f64>> = HashMap::new();
        let mut round_sums = Vec::new();
        for r in 0..plan.rounds(kind) {
            ctx = fresh_cache(ctx, &work.join(format!("round{r}")));
            let reports = run_grid(&ctx, &specs, &mut check);
            if r == 0 {
                reference = reports.into_iter().flatten().collect();
            }
            let times = simulated_times(&ctx);
            round_sums.push(times.values().sum::<f64>());
            for (label, secs) in times {
                per_cell.entry(label).or_default().push(secs);
            }
        }
        // Failed cells never count as timings; every other cell has one
        // sample per round.
        for label in &check.failed_labels {
            per_cell.remove(label);
        }
        let samples: Vec<Vec<f64>> = per_cell.into_values().collect();
        let spread: Vec<f64> = samples
            .iter()
            .map(|s| {
                let (q1, q2, q3) = quartiles(s);
                (q3 - q1) / q2
            })
            .collect();
        evidence.push((
            "wall_statistic".to_owned(),
            stats::string("sum over cells of the per-cell minimum over rounds"),
        ));
        evidence.push(("round_cell_sums_s".to_owned(), stats::list(&round_sums)));
        evidence.push((
            "cell_iqr_over_median_p50".to_owned(),
            stats::num(median(&spread)),
        ));
        evidence.push((
            "cell_iqr_over_median_max".to_owned(),
            stats::num(spread.iter().copied().fold(0.0, f64::max)),
        ));
        (samples.iter().map(|s| min(s)).sum(), samples)
    };
    finish(
        kind, plan, &picks, &specs, check, setup, wall, samples, reference, evidence,
    )
}

/// One timed `warm` pass: a fresh result cache (empty memory tier) over
/// the primed directory answers, collects and renders both grids. Returns
/// the context, the pass time and whether every answer came from disk
/// unchanged.
pub fn warm_pass(
    ctx: Ctx,
    picks: &Picks,
    specs: &[CellSpec],
    primed: &Path,
    check: &mut Checker,
) -> (Ctx, f64, bool) {
    let failed_before = check.failed;
    let t = Instant::now();
    let ctx = fresh_cache(ctx, &primed.join("cache"));
    let all: Vec<SimReport> = run_grid(&ctx, specs, check).into_iter().flatten().collect();
    if all.len() == specs.len() {
        std::hint::black_box(render(Kind::Warm, picks, specs, &all));
    }
    let secs = t.elapsed().as_secs_f64();
    let h = ctx.session.harness();
    let (engine, traces) = (h.engine_stats(), h.trace_stats());
    if engine.simulated != 0 || traces.captures != 0 {
        check.fail(format!(
            "warm pass simulated {} cells and captured {} traces; it must do neither",
            engine.simulated, traces.captures
        ));
    }
    (ctx, secs, check.failed == failed_before)
}

#[allow(clippy::too_many_arguments)]
fn finish(
    kind: Kind,
    plan: &Plan,
    picks: &Picks,
    specs: &[CellSpec],
    check: Checker,
    setup: Vec<f64>,
    wall: f64,
    unit_samples: Vec<Vec<f64>>,
    reference: Vec<SimReport>,
    mut evidence: Vec<(String, String)>,
) -> Outcome {
    let ratios = if reference.len() == specs.len() {
        GridReports {
            specs,
            reports: &reference,
        }
        .ratios(kind, picks)
    } else {
        (f64::NAN, f64::NAN, f64::NAN)
    };
    let mut m = Metrics::default();
    m.put("wall_s", wall, "s");
    m.put("setup_s", median(&setup), "s");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    m.put("tlp_speedup_ratio", ratios.0, "x");
    m.put("tlp_dram_ratio", ratios.1, "x");
    m.put("hermes_dram_ratio", ratios.2, "x");
    m.put(
        "ok_frac",
        1.0 - stats::ratio(check.failed as f64, check.attempted as f64),
        "fraction",
    );
    let (s1, s2, s3) = quartiles(&setup);
    evidence.push(("nproc".to_owned(), plan::nproc().to_string()));
    evidence.push(("threads".to_owned(), plan.rc.threads.to_string()));
    evidence.push((
        "engine".to_owned(),
        stats::string(&format!("{:?}", plan.rc.engine)),
    ));
    evidence.push(("wall_units".to_owned(), unit_samples.len().to_string()));
    evidence.push((
        "wall_samples".to_owned(),
        unit_samples.iter().map(Vec::len).sum::<usize>().to_string(),
    ));
    evidence.push(("setup_samples".to_owned(), setup.len().to_string()));
    evidence.push(("setup_s_quartiles".to_owned(), stats::list(&[s1, s2, s3])));
    let names = |ns: &[&str]| {
        let quoted: Vec<String> = ns.iter().map(|n| stats::string(n)).collect();
        format!("[{}]", quoted.join(", "))
    };
    evidence.push(("picks".to_owned(), names(&picks.singles)));
    evidence.push(("mix".to_owned(), names(&picks.mix)));
    Outcome {
        attempted: check.attempted,
        failed: check.failed,
        failures: check.failures,
        metrics: m,
        evidence,
    }
}
