//! The traced run: per-layer numbers from spans the benchmark records
//! around calls into the workspace's public API.
//!
//! Spans stay in memory and are written out when the run ends. Hook and
//! trace calls happen millions of times per cell, so each cell gets one
//! aggregated child span per seam (exact call count, summed time) under
//! its `sim.run` span instead of one record per call. A span's self time
//! is its duration minus its children's.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tlp_harness::cache::DiskCache;
use tlp_harness::EngineStats;
use tlp_plugin::BuildCtx;
use tlp_sim::engine::{CoreSetup, System};
use tlp_sim::hooks::{
    DemandAccess, FilterTag, L1FilterCtx, L1PrefetchFilter, L1Prefetcher, L2Access,
    L2PrefetchCandidate, L2PrefetchFilter, L2Prefetcher, LoadCtx, OffChipPredictor, OffChipTag,
    PrefetchCandidate,
};
use tlp_sim::types::{Cycle, Level};
use tlp_sim::{EngineMode, SimReport, SystemConfig};
use tlp_trace::emit::Workload;
use tlp_trace::simpoint::{simpoints_of, BbvConfig};
use tlp_trace::{TraceRecord, TraceSource, VecTrace};
use tlp_tracestore::{
    capture_desc, TraceKey, TraceStore, CAPTURE_SIMPOINT_K, CAPTURE_SIMPOINT_SEED,
};

use crate::plan::{
    self, grid, CellSpec, Ctx, Kind, Picks, Plan, BASE, ISO_GBPS, MIX_GBPS, SCHEMES, TLP,
};
use crate::stats::{self, median, ratio, Metrics};
use crate::timed::{self, panic_text, Checker};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub ns: u64,
    pub calls: u64,
}

/// The span list of one thread.
#[derive(Debug, Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        ns: u64,
        calls: u64,
    ) -> usize {
        self.0.push(Span {
            name: name.into(),
            parent,
            ns,
            calls,
        });
        self.0.len() - 1
    }

    /// Runs `f` under a top-level span called `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.push(name, None, elapsed_ns(t), 1);
        r
    }

    /// Appends another thread's spans, re-basing parent links.
    fn extend(&mut self, other: Spans) {
        let base = self.0.len();
        self.0.extend(other.0.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name totals: (duration ns, self ns, calls).
    fn totals(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.0.len()];
        for s in &self.0 {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns;
            }
        }
        let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.0.iter().enumerate() {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += s.ns;
            e.1 += s.ns.saturating_sub(child_ns[i]);
            e.2 += s.calls;
        }
        out
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"parent\": {}, \"ns\": {}, \"calls\": {}}}",
                    stats::string(&s.name),
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.ns,
                    s.calls
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Exact call count and summed time of one seam in one cell.
#[derive(Debug, Default)]
pub struct Acc {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// A hook or trace source wrapped to count and time every call. It keeps
/// plain counters and publishes them once, when the simulated system
/// drops it.
struct Timed<B> {
    inner: B,
    calls: u64,
    ns: u64,
    acc: Arc<Acc>,
}

impl<B> Timed<B> {
    fn new(inner: B, acc: Arc<Acc>) -> Self {
        Timed {
            inner,
            calls: 0,
            ns: 0,
            acc,
        }
    }

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce(&mut B) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.ns += elapsed_ns(t);
        self.calls += 1;
        r
    }
}

impl<B> Drop for Timed<B> {
    fn drop(&mut self) {
        self.acc.calls.fetch_add(self.calls, Ordering::Relaxed);
        self.acc.ns.fetch_add(self.ns, Ordering::Relaxed);
    }
}

impl TraceSource for Timed<Box<dyn TraceSource>> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.time(|t| t.next_record())
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl OffChipPredictor for Timed<Box<dyn OffChipPredictor>> {
    fn predict_load(&mut self, ctx: &LoadCtx) -> OffChipTag {
        self.time(|p| p.predict_load(ctx))
    }
    fn train_load(&mut self, ctx: &LoadCtx, tag: &OffChipTag, served_from: Level) {
        self.time(|p| p.train_load(ctx, tag, served_from));
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl L1Prefetcher for Timed<Box<dyn L1Prefetcher>> {
    fn on_access(&mut self, access: &DemandAccess, out: &mut Vec<PrefetchCandidate>) {
        self.time(|p| p.on_access(access, out));
    }
    fn on_fill(&mut self, vaddr: u64, cycle: Cycle) {
        self.time(|p| p.on_fill(vaddr, cycle));
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl L1PrefetchFilter for Timed<Box<dyn L1PrefetchFilter>> {
    fn filter(&mut self, ctx: &L1FilterCtx) -> (bool, FilterTag) {
        self.time(|f| f.filter(ctx))
    }
    fn train(&mut self, ctx: &L1FilterCtx, tag: &FilterTag, served_from: Level) {
        self.time(|f| f.train(ctx, tag, served_from));
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl L2Prefetcher for Timed<Box<dyn L2Prefetcher>> {
    fn on_access(&mut self, access: &L2Access, out: &mut Vec<L2PrefetchCandidate>) {
        self.time(|p| p.on_access(access, out));
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl L2PrefetchFilter for Timed<Box<dyn L2PrefetchFilter>> {
    fn filter(&mut self, trigger: &L2Access, candidate: &L2PrefetchCandidate) -> bool {
        self.time(|f| f.filter(trigger, candidate))
    }
    fn on_useful(&mut self, paddr: u64) {
        self.time(|f| f.on_useful(paddr));
    }
    fn on_useless(&mut self, paddr: u64) {
        self.time(|f| f.on_useless(paddr));
    }
    fn on_demand_miss(&mut self, paddr: u64) {
        self.time(|f| f.on_demand_miss(paddr));
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Per-seam accumulators of one cell, keyed by layer name.
#[derive(Default)]
struct Seams(BTreeMap<&'static str, Arc<Acc>>);

impl Seams {
    fn acc(&mut self, layer: &'static str) -> Arc<Acc> {
        Arc::clone(self.0.entry(layer).or_default())
    }

    /// Wraps every non-null hook of `setup` (null hooks stay in the
    /// engine's own time).
    ///
    /// # Panics
    ///
    /// Panics on a predictor or filter none of [`crate::plan::SCHEMES`]
    /// builds.
    fn wrap(&mut self, s: CoreSetup) -> CoreSetup {
        let offchip = match s.offchip.name() {
            "none" => s.offchip,
            "flp" => Box::new(Timed::new(s.offchip, self.acc("core.flp"))),
            "hermes" => Box::new(Timed::new(s.offchip, self.acc("baselines.hermes"))),
            n => panic!("no benchmarked scheme builds off-chip predictor {n}"),
        };
        let l1_filter = match s.l1_filter.name() {
            "none" => s.l1_filter,
            "slp" => Box::new(Timed::new(s.l1_filter, self.acc("core.slp"))),
            n => panic!("no benchmarked scheme builds L1 filter {n}"),
        };
        let l2_filter = match s.l2_filter.name() {
            "none" => s.l2_filter,
            "ppf" => Box::new(Timed::new(s.l2_filter, self.acc("baselines.ppf"))),
            n => panic!("no benchmarked scheme builds L2 filter {n}"),
        };
        let l1_prefetcher: Box<dyn L1Prefetcher> = match s.l1_prefetcher.name() {
            "none" => s.l1_prefetcher,
            _ => Box::new(Timed::new(s.l1_prefetcher, self.acc("prefetch.l1"))),
        };
        let l2_prefetcher: Box<dyn L2Prefetcher> = match s.l2_prefetcher.name() {
            "none" => s.l2_prefetcher,
            _ => Box::new(Timed::new(s.l2_prefetcher, self.acc("prefetch.l2"))),
        };
        CoreSetup {
            trace: s.trace,
            l1_prefetcher,
            l2_prefetcher,
            offchip,
            l1_filter,
            l2_filter,
        }
    }
}

/// One traced re-simulation.
struct Resim {
    spec: CellSpec,
    report: Result<SimReport, String>,
    ticks: u64,
    cycles: u64,
}

/// The records each workload's cells replay, by workload name.
type Records = BTreeMap<String, Arc<Vec<TraceRecord>>>;

fn system_config(spec: CellSpec) -> SystemConfig {
    match spec {
        CellSpec::Single { .. } => SystemConfig::cascade_lake(1),
        CellSpec::Mix { .. } => SystemConfig::cascade_lake_with_bandwidth(4, MIX_GBPS),
        CellSpec::Iso { .. } => SystemConfig::cascade_lake_with_bandwidth(1, ISO_GBPS),
    }
}

/// Re-simulates `spec` the way the harness assembles it, under engine
/// `mode`, with every hook and the trace source wrapped; records a
/// `sim.run` span with one child per seam.
fn resimulate(
    ctx: &Ctx,
    plan: &Plan,
    recs: &Records,
    spec: CellSpec,
    mode: EngineMode,
    spans: &mut Spans,
) -> Resim {
    let scheme = &ctx.schemes[spec.scheme()];
    let cores: Vec<&Arc<dyn Workload>> = match spec {
        CellSpec::Single { w, .. } => vec![&ctx.singles[w]],
        CellSpec::Mix { .. } => ctx.mix.iter().collect(),
        CellSpec::Iso { w, .. } => vec![&ctx.mix[w]],
    };
    let mut seams = Seams::default();
    let mut ticks = 0;
    let mut cycles = 0;
    let t = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| {
        let setups = cores
            .iter()
            .map(|w| {
                let name = w.name().to_owned();
                let trace: Box<dyn TraceSource> = Box::new(VecTrace::looping_shared(
                    name.clone(),
                    Arc::clone(&recs[&name]),
                ));
                let trace = Box::new(Timed::new(trace, seams.acc("trace")));
                let setup = scheme
                    .build_setup(trace, Some(&ctx.pf), &mut BuildCtx::new())
                    .expect("resolved scheme builds");
                seams.wrap(setup)
            })
            .collect();
        let mut sys = System::new(system_config(spec), setups).with_engine_mode(mode);
        let t = Instant::now();
        let report = sys.run(plan.rc.warmup, plan.rc.instructions);
        let run_ns = elapsed_ns(t);
        ticks = sys.ticks_executed();
        cycles = sys.cycle();
        (report, run_ns)
    }));
    let (report, run_ns) = match report {
        Ok((r, ns)) => (Ok(r), ns),
        Err(p) => (Err(panic_text(p.as_ref())), elapsed_ns(t)),
    };
    let run = spans.push("sim.run", None, run_ns, 1);
    for (layer, acc) in &seams.0 {
        spans.push(
            *layer,
            Some(run),
            acc.ns.load(Ordering::Relaxed),
            acc.calls.load(Ordering::Relaxed),
        );
    }
    Resim {
        spec,
        report,
        ticks,
        cycles,
    }
}

/// Re-simulates every cell under engine `mode` on `threads` workers.
/// Returns the results in `specs` order, each worker's spans, and the
/// summed busy time of the workers (the thread time this parallel section
/// adds to the window).
fn resimulate_all(
    ctx: &Ctx,
    plan: &Plan,
    recs: &Records,
    specs: &[CellSpec],
    mode: EngineMode,
) -> (Vec<Resim>, Spans, u64) {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    let mut spans = Spans::default();
    let mut thread_ns = 0;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..plan.rc.threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let t = Instant::now();
                    let mut mine = Spans::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&spec) = specs.get(i) else { break };
                        let r = resimulate(ctx, plan, recs, spec, mode, &mut mine);
                        results
                            .lock()
                            .expect("no worker panics while holding the lock")
                            .push((i, r));
                    }
                    (mine, elapsed_ns(t))
                })
            })
            .collect();
        for w in workers {
            let (mine, ns) = w.join().expect("resimulation worker catches its panics");
            spans.extend(mine);
            thread_ns += ns;
        }
    });
    let mut results = results.into_inner().expect("workers joined");
    results.sort_by_key(|(i, _)| *i);
    (
        results.into_iter().map(|(_, r)| r).collect(),
        spans,
        thread_ns,
    )
}

/// Nearest-rank percentile `p` (0-100] of nanosecond samples, in
/// microseconds; 0 when there are none.
fn percentile_us(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() as f64 * p / 100.0).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] / 1e3
}

/// Runs the traced run of `kind` and returns the per-layer metrics plus
/// the correctness bookkeeping.
pub fn run(kind: Kind, plan: &Plan, seed: u64, work: &Path, out_dir: &Path) -> timed::Outcome {
    let picks = Picks::from_seed(seed);
    let specs = grid(kind, &picks);
    let mut check = Checker::default();
    let mut spans = Spans::default();
    let mut m = Metrics::default();
    let rc = plan.rc;

    // The warm workload reads a primed cache; priming and the untraced
    // comparison passes happen before the traced window opens.
    let primed = work.join("primed");
    let passes_each = (plan.warm_passes / 5).max(1);
    let mut untraced_pass = Vec::new();
    if kind == Kind::Warm {
        let ctx = plan::resolve(plan::open_session(rc, &primed), &picks);
        timed::run_grid(&ctx, &specs, &mut check);
        let mut ctx = plan::resolve(plan::open_session(rc, &primed), &picks);
        for _ in 0..passes_each {
            let (next, secs, _) = timed::warm_pass(ctx, &picks, &specs, &primed, &mut check);
            ctx = next;
            untraced_pass.push(secs);
        }
    }

    let t0 = Instant::now();
    let dir = if kind == Kind::Warm {
        primed.clone()
    } else {
        work.join("traced")
    };
    let session = spans.time("trace.catalog_build", || tlp_harness::Session::new(rc));
    let session = spans.time("tracestore.open", || {
        session
            .with_cache_dir(dir.join("cache"))
            .expect("create result-cache dir")
            .with_trace_dir(dir.join("traces"))
            .expect("create trace dir")
    });
    let mut ctx = spans.time("plugin.resolve", || plan::resolve(session, &picks));

    // Trace tier: the harness fills its own tier exactly as the timed run
    // does; capture, SimPoints and the store write are then measured one
    // by one on a fresh copy of each workload, and must agree with it.
    let budget = (rc.warmup + rc.instructions) as usize + 4096;
    let env = format!("{:?}|w{}|i{}", rc.scale, rc.warmup, rc.instructions);
    let side_store = TraceStore::open(work.join("side-traces")).expect("create side trace dir");
    let mut recs = Records::new();
    let (mut n_records, mut v2_bytes, mut v1_bytes) = (0u64, 0u64, 0u64);
    if kind != Kind::Warm {
        for w in ctx.workloads(kind) {
            let name = w.name().to_owned();
            let mut src = spans.time("harness.trace_for", || ctx.session.harness().trace_for(&w));
            let tier: Vec<TraceRecord> = (0..budget).map_while(|_| src.next_record()).collect();
            let fresh = spans.time("trace.workload_build", || {
                tlp_trace::catalog::workload(&name, rc.scale).expect("catalog workload")
            });
            let captured = spans.time("trace.capture", || {
                tlp_trace::source::capture(fresh.as_ref(), budget)
            });
            if captured != tier {
                check.fail(format!(
                    "{name}: a fresh capture differs from the harness's trace"
                ));
            }
            let cfg = BbvConfig::standard();
            let sps = spans.time("trace.simpoints", || {
                simpoints_of(&captured, cfg, CAPTURE_SIMPOINT_K, CAPTURE_SIMPOINT_SEED)
            });
            let key = TraceKey::from_desc(&capture_desc(&env, &name, budget));
            let saved = spans.time("tracestore.save", || {
                side_store.save(key, &name, true, &captured, &sps, cfg.interval)
            });
            v2_bytes += saved
                .ok()
                .and_then(|p| std::fs::metadata(p).ok())
                .map_or(0, |m| m.len());
            v1_bytes += spans.time("tracestore.v1_encode", || {
                tlp_trace::file::encode_trace(&name, true, &captured).len() as u64
            });
            n_records += captured.len() as u64;
            recs.insert(name, Arc::new(tier));
        }
    }

    // Harness: one batch answered (simulated cold, or from the primed
    // disk on warm), then collected and rendered.
    let mut passes = Vec::new();
    let mut engine = EngineStats::default();
    let mut run_cells_ns = 0u64;
    let mut reports: Vec<Option<SimReport>> = Vec::new();
    let rounds = if kind == Kind::Warm { passes_each } else { 1 };
    for _ in 0..rounds {
        let t = Instant::now();
        if kind == Kind::Warm {
            ctx = spans.time("tracestore.open", || {
                timed::fresh_cache(ctx, &primed.join("cache"))
            });
        }
        let tr = Instant::now();
        spans.time("harness.run_cells", || timed::submit(&ctx, &specs));
        run_cells_ns = elapsed_ns(tr);
        engine = ctx.session.harness().engine_stats();
        reports = spans.time("harness.collect", || {
            timed::collect(&ctx, &specs, &mut check)
        });
        let all: Vec<SimReport> = reports.iter().flatten().cloned().collect();
        if all.len() == specs.len() {
            spans.time("harness.render", || {
                std::hint::black_box(timed::render(kind, &picks, &specs, &all))
            });
        }
        passes.push(t.elapsed().as_secs_f64());
    }
    let timings = ctx.session.harness().cell_timings();
    let simulated: Vec<_> = timings
        .iter()
        .filter(|t| t.outcome == tlp_harness::cache::CellOutcome::Simulated)
        .collect();
    let untraced_sim_ns: u64 = simulated.iter().map(|t| t.total_ns).sum();
    let queue_wait_ns: u64 = simulated.iter().map(|t| t.queue_wait_ns).sum();
    let captures = ctx.session.harness().trace_stats().captures;

    // Engine and hook seams: every simulated cell again, traced.
    let mut sim_thread_ns = 0;
    let mut resims = Vec::new();
    let t_par = Instant::now();
    if kind != Kind::Warm {
        let (r, worker_spans, ns) = resimulate_all(&ctx, plan, &recs, &specs, rc.engine);
        spans.extend(worker_spans);
        sim_thread_ns = ns;
        resims = r;
    }
    let par_ns = elapsed_ns(t_par);
    let (mut ticks, mut cycles) = (0u64, 0u64);
    for r in resims {
        ticks += r.ticks;
        cycles += r.cycles;
        let cell = ctx.cell(r.spec);
        check.check(cell.key(), &format!("traced {}", cell.label()), r.report);
    }

    // Disk tier: each report stored (cold workloads) and loaded back
    // through the public `DiskCache`, one span per call.
    let (mut load_ns, mut store_ns, mut entry_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let cache = if kind == Kind::Warm {
        DiskCache::open(primed.join("cache"))
    } else {
        DiskCache::open(work.join("side-cache"))
    }
    .expect("open cache dir");
    for (&spec, report) in specs.iter().zip(&reports) {
        let key = ctx.key(spec);
        if kind != Kind::Warm {
            if let Some(r) = report {
                let t = Instant::now();
                cache.store(key, r);
                let ns = elapsed_ns(t);
                spans.push("harness.cache_store", None, ns, 1);
                store_ns.push(ns as f64);
            }
        }
        let t = Instant::now();
        let loaded = cache.load(key);
        let ns = elapsed_ns(t);
        spans.push("harness.cache_load", None, ns, 1);
        load_ns.push(ns as f64);
        let label = format!("disk {}", ctx.cell(spec).label());
        check.check(
            key,
            &label,
            loaded.ok_or_else(|| "entry missing".to_owned()),
        );
        let path = cache.dir().join(format!("{}.json", key.hex()));
        entry_bytes.push(std::fs::metadata(path).map_or(0.0, |m| m.len() as f64));
    }
    let window_ns = elapsed_ns(t0);
    let thread_window_ns = window_ns - par_ns + sim_thread_ns;

    // Idle-skipping, outside the window: the grid's Baseline cells once
    // more under the event engine, whose skipped cycles the default cycle
    // engine still ticks. Engine mode never changes a report.
    let (mut event_ticks, mut event_cycles) = (0u64, 0u64);
    if kind != Kind::Warm {
        let base: Vec<CellSpec> = specs
            .iter()
            .copied()
            .filter(|s| s.scheme() == BASE)
            .collect();
        let (event, _, _) = resimulate_all(&ctx, plan, &recs, &base, EngineMode::Event);
        for r in event {
            event_ticks += r.ticks;
            event_cycles += r.cycles;
            let cell = ctx.cell(r.spec);
            check.check(
                cell.key(),
                &format!("event-engine {}", cell.label()),
                r.report,
            );
        }
    }

    let tot = spans.totals();
    let get = |n: &str| tot.get(n).copied().unwrap_or_default();
    let secs = |n: &str| get(n).0 as f64 * 1e-9;
    let self_secs = |n: &str| get(n).1 as f64 * 1e-9;
    let calls = |n: &str| get(n).2 as f64;
    let self_sum: u64 = tot.values().map(|v| v.1).sum();

    m.put("trace.catalog_build_s", secs("trace.catalog_build"), "s");
    m.put("trace.workload_build_s", secs("trace.workload_build"), "s");
    m.put("trace.capture_s", secs("trace.capture"), "s");
    m.put("trace.records", n_records as f64, "count");
    m.put("trace.simpoints_s", secs("trace.simpoints"), "s");
    m.put(
        "trace.next_record_ns",
        ratio(secs("trace") * 1e9, calls("trace")),
        "ns",
    );
    m.put("trace.next_record_calls", calls("trace"), "count");
    m.put("harness.trace_for_s", secs("harness.trace_for"), "s");
    m.put("tracestore.open_s", secs("tracestore.open"), "s");
    m.put("tracestore.save_s", secs("tracestore.save"), "s");
    m.put("tracestore.file_bytes", v2_bytes as f64, "bytes");
    m.put(
        "tracestore.v1_over_v2",
        ratio(v1_bytes as f64, v2_bytes as f64),
        "x",
    );
    m.put("harness.cells_requested", engine.requested as f64, "count");
    m.put("harness.cells_simulated", engine.simulated as f64, "count");
    m.put("harness.disk_hits", engine.disk_hits as f64, "count");
    m.put("harness.mem_hits", engine.mem_hits as f64, "count");
    m.put("harness.deduped", engine.deduped as f64, "count");
    m.put("harness.trace_captures", captures as f64, "count");
    m.put(
        "harness.cache_load_us_p50",
        percentile_us(&load_ns, 50.0),
        "us",
    );
    m.put(
        "harness.cache_load_us_p90",
        percentile_us(&load_ns, 90.0),
        "us",
    );
    m.put("harness.cache_load_count", load_ns.len() as f64, "count");
    m.put(
        "harness.cache_store_us_p50",
        percentile_us(&store_ns, 50.0),
        "us",
    );
    m.put(
        "harness.cache_store_us_p90",
        percentile_us(&store_ns, 90.0),
        "us",
    );
    m.put("harness.cache_store_count", store_ns.len() as f64, "count");
    m.put("harness.cache_entry_bytes", median(&entry_bytes), "bytes");
    m.put("harness.run_cells_s", secs("harness.run_cells"), "s");
    m.put("harness.collect_s", secs("harness.collect"), "s");
    m.put("harness.render_s", secs("harness.render"), "s");
    m.put(
        "harness.worker_busy_frac",
        ratio(
            untraced_sim_ns as f64,
            run_cells_ns as f64 * rc.threads as f64,
        ),
        "fraction",
    );
    m.put(
        "harness.queue_wait_s",
        ratio(queue_wait_ns as f64 * 1e-9, simulated.len() as f64),
        "s",
    );
    m.put("plugin.resolve_s", secs("plugin.resolve"), "s");

    let run_s = secs("sim.run");
    m.put("sim.run_s", run_s, "s");
    m.put("sim.self_s", self_secs("sim.run"), "s");
    m.put(
        "sim.ns_per_tick",
        ratio(self_secs("sim.run") * 1e9, ticks as f64),
        "ns",
    );
    let instructions: u64 = specs
        .iter()
        .zip(&reports)
        .filter_map(|(_, r)| r.as_ref())
        .map(SimReport::instructions)
        .sum();
    let simulated_instr = if kind == Kind::Warm { 0 } else { instructions };
    m.put(
        "sim.kips",
        ratio(simulated_instr as f64 / 1e3, run_s),
        "1000instr/s",
    );
    m.put("sim.instructions", simulated_instr as f64, "count");
    m.put("sim.cycles", cycles as f64, "count");
    m.put("sim.ticks", ticks as f64, "count");
    m.put(
        "sim.ticks_per_cycle",
        ratio(ticks as f64, cycles as f64),
        "x",
    );
    m.put(
        "sim.event_skipped_frac",
        ratio(
            event_cycles.saturating_sub(event_ticks) as f64,
            event_cycles as f64,
        ),
        "fraction",
    );
    model_metrics(&mut m, &specs, &reports);

    let hook = |m: &mut Metrics, layer: &str, metric: &str| {
        m.put(format!("{metric}_calls"), calls(layer), "count");
        m.put(format!("{metric}_self_s"), self_secs(layer), "s");
    };
    hook(&mut m, "core.flp", "core.flp");
    hook(&mut m, "core.slp", "core.slp");
    hook(&mut m, "prefetch.l1", "prefetch.l1");
    hook(&mut m, "prefetch.l2", "prefetch.l2");
    hook(&mut m, "baselines.hermes", "baselines.hermes");
    hook(&mut m, "baselines.ppf", "baselines.ppf");

    let overhead = if kind == Kind::Warm {
        ratio(median(&passes), median(&untraced_pass))
    } else {
        ratio(run_s * 1e9, untraced_sim_ns as f64)
    };
    m.put("bench.trace_overhead", overhead, "x");
    m.put(
        "bench.layer_coverage",
        ratio(self_sum as f64, thread_window_ns as f64),
        "fraction",
    );
    m.put("bench.traced_window_s", window_ns as f64 * 1e-9, "s");
    m.put("bench.nproc", plan::nproc() as f64, "count");
    m.put("bench.threads", rc.threads as f64, "count");
    m.put(
        "bench.ok_frac",
        1.0 - ratio(check.failed as f64, check.attempted as f64),
        "fraction",
    );
    if kind == Kind::Warm && (engine.simulated != 0 || captures != 0) {
        check.fail("warm traced pass simulated or captured".to_owned());
    }

    let _ = std::fs::create_dir_all(out_dir);
    let _ = std::fs::write(
        out_dir.join(format!("spans-{}-seed{seed}.json", kind.name())),
        spans.to_json(),
    );
    timed::Outcome {
        attempted: check.attempted,
        failed: check.failed,
        failures: check.failures,
        metrics: m,
        evidence: Vec::new(),
    }
}

/// Exact simulated statistics of the grid's primary cells (single-core
/// picks and mixes; isolated runs excluded), per scheme, plus the hook
/// outcome ratios.
fn model_metrics(m: &mut Metrics, specs: &[CellSpec], reports: &[Option<SimReport>]) {
    let primary = |s: usize| {
        specs
            .iter()
            .zip(reports)
            .filter(move |(c, _)| !matches!(c, CellSpec::Iso { .. }) && c.scheme() == s)
            .filter_map(|(_, r)| r.as_ref())
    };
    for (s, name) in SCHEMES.iter().enumerate() {
        let (mut instr, mut cyc, mut llc_miss, mut dram, mut row_hits, mut rq_full, mut mshr) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for r in primary(s) {
            instr += r.instructions();
            cyc += r.cores.iter().map(|c| c.core.cycles).sum::<u64>();
            llc_miss += r.llc.demand_misses;
            dram += r.dram_transactions();
            row_hits += r.dram.row_hits;
            rq_full += r.dram.read_queue_full;
            mshr += r.cores.iter().map(|c| c.l1d.mshr_stalls).sum::<u64>();
        }
        m.put(
            format!("sim.ipc.{name}"),
            ratio(instr as f64, cyc as f64),
            "instr/cycle",
        );
        m.put(
            format!("sim.llc_mpki.{name}"),
            ratio(llc_miss as f64 * 1e3, instr as f64),
            "miss/kinstr",
        );
        m.put(
            format!("sim.dram_transactions.{name}"),
            dram as f64,
            "count",
        );
        m.put(
            format!("sim.dram_row_hit_frac.{name}"),
            ratio(row_hits as f64, dram as f64),
            "fraction",
        );
        m.put(
            format!("sim.dram_read_queue_full.{name}"),
            rq_full as f64,
            "count",
        );
        m.put(format!("sim.l1d_mshr_stalls.{name}"), mshr as f64, "count");
    }
    // FLP/SLP outcomes over the TLP cells, Hermes over its own, IPCP's
    // accuracy over the baseline.
    let (mut acc_dram, mut issued, mut missed, mut cand, mut filtered) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for r in primary(TLP) {
        for c in &r.cores {
            acc_dram += c.offchip.issued_outcome[Level::Dram.index()];
            issued += c.offchip.issued_outcome.iter().sum::<u64>();
            missed += c.offchip.missed_offchip;
            cand += c.l1_prefetch.candidates;
            filtered += c.l1_prefetch.filtered;
        }
    }
    m.put(
        "core.flp_accuracy",
        ratio(acc_dram as f64, issued as f64),
        "fraction",
    );
    m.put(
        "core.flp_coverage",
        ratio(acc_dram as f64, (acc_dram + missed) as f64),
        "fraction",
    );
    m.put(
        "core.slp_filtered_frac",
        ratio(filtered as f64, cand as f64),
        "fraction",
    );
    let (mut h_dram, mut h_issued) = (0u64, 0u64);
    for r in primary(plan::HERMES) {
        for c in &r.cores {
            h_dram += c.offchip.issued_outcome[Level::Dram.index()];
            h_issued += c.offchip.issued_outcome.iter().sum::<u64>();
        }
    }
    m.put(
        "baselines.hermes_accuracy",
        ratio(h_dram as f64, h_issued as f64),
        "fraction",
    );
    let (mut useful, mut useless) = (0u64, 0u64);
    for r in primary(plan::BASE) {
        for c in &r.cores {
            useful += c.l1_prefetch.useful();
            useless += c.l1_prefetch.useless();
        }
    }
    m.put(
        "prefetch.l1_accuracy",
        ratio(useful as f64, (useful + useless) as f64),
        "fraction",
    );
}
