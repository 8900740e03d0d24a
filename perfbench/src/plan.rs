//! What each workload runs: the seeded, stratified workload picks, the
//! run budget, and the grid of cells a session submits.

use std::path::Path;
use std::sync::Arc;

use tlp_harness::cache::RunKey;
use tlp_harness::scheme::ResolvedL1Pf;
use tlp_harness::{RunCell, RunConfig, Session};
use tlp_plugin::ResolvedScheme;
use tlp_sim::SimReport;
use tlp_trace::emit::Workload;

/// The schemes every workload runs, in report order.
pub const SCHEMES: [&str; 4] = ["Baseline", "Hermes", "PPF", "TLP"];
/// Index of each scheme in [`SCHEMES`].
pub const BASE: usize = 0;
pub const HERMES: usize = 1;
pub const TLP: usize = 3;

/// The L1D prefetcher of every cell.
pub const L1PF: &str = "ipcp";

/// Per-core DRAM bandwidth of the 4-core mixes (GB/s): the constrained
/// 3.2 GB/s point of the fig16 sweep.
pub const MIX_GBPS: f64 = 3.2;
/// Bandwidth of the isolated runs weighted speedup divides by: the whole
/// 4-core budget given to one core, as fig16 does.
pub const ISO_GBPS: f64 = MIX_GBPS * 4.0;

/// Strata of the `single` grid: one workload is drawn from each per seed.
/// Workloads share a stratum when they cost about the same host time and
/// give about the same TLP/Hermes ratios at quick scale, so the seed
/// changes the inputs without moving `wall_s` or the ratios much. The
/// first stratum holds the idle-heavy SPEC pointer chasers, whose cycles
/// the event engine mostly skips, that match in simulated cycles (within
/// 4%) and ratios: `mcf` and `omnetpp` skip as much but run 14-53% more
/// cycles, and `astar`'s TLP DRAM ratio is 17% higher, so they would
/// swing `wall_s` or the ratios with the seed. The last four are GAP
/// kernels.
pub const SINGLE_STRATA: [&[&str]; 8] = [
    &["spec.xalancbmk_17", "spec.xalancbmk_06"],
    &["spec.bwaves_06", "spec.bwaves_17", "spec.leslie3d_06"],
    &["spec.lbm_06", "spec.lbm_17", "spec.libquantum_06"],
    &[
        "spec.roms_17",
        "spec.cactubssn_17",
        "spec.cactusadm_06",
        "spec.zeusmp_06",
        "spec.wrf_17",
    ],
    &[
        "pr.web",
        "pr.road",
        "pr.twitter",
        "pr.kron",
        "pr.urand",
        "pr.friendster",
    ],
    &[
        "cc.web",
        "cc.twitter",
        "cc.kron",
        "cc.urand",
        "cc.friendster",
    ],
    &["bc.twitter", "bc.kron"],
    &["sssp.twitter", "sssp.kron"],
];

/// Strata of the one heterogeneous 4-core mix, one per core: a BFS, a
/// PageRank, a connected-components run and a streaming SPEC workload.
/// The BFS slot holds one graph: in quick-scale probes the choice between
/// `bfs.web` and `bfs.kron` alone moved the mix's TLP weighted-speedup
/// ratio by 7%, while the other slots' look-alikes moved it by under 1%.
pub const MIX_STRATA: [&[&str]; 4] = [
    &["bfs.web"],
    &[
        "pr.web",
        "pr.road",
        "pr.twitter",
        "pr.kron",
        "pr.urand",
        "pr.friendster",
    ],
    &[
        "cc.web",
        "cc.twitter",
        "cc.kron",
        "cc.urand",
        "cc.friendster",
    ],
    &["spec.bwaves_06", "spec.bwaves_17", "spec.leslie3d_06"],
];

/// The benchmark's three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cold single-core grid.
    Single,
    /// Cold 4-core mix plus its isolated runs.
    Mix4,
    /// Both grids re-answered from a primed disk cache.
    Warm,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Single, Kind::Mix4, Kind::Warm];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Single => "single",
            Kind::Mix4 => "mix4",
            Kind::Warm => "warm",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the workload's grid holds the single-core picks.
    pub fn has_single(self) -> bool {
        matches!(self, Kind::Single | Kind::Warm)
    }

    /// Whether the workload's grid holds the 4-core mix.
    pub fn has_mix(self) -> bool {
        matches!(self, Kind::Mix4 | Kind::Warm)
    }
}

/// SplitMix64: a tiny, fixed PRNG, so the picks depend on the seed alone.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn draw(seed: u64, salt: u64, stratum: &[&'static str]) -> &'static str {
    let r = splitmix64(seed ^ splitmix64(salt));
    stratum[(r % stratum.len() as u64) as usize]
}

/// The workload names a seed selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Picks {
    pub singles: Vec<&'static str>,
    pub mix: [&'static str; 4],
}

impl Picks {
    pub fn from_seed(seed: u64) -> Self {
        let singles = SINGLE_STRATA
            .iter()
            .enumerate()
            .map(|(i, s)| draw(seed, i as u64, s))
            .collect();
        let mix = std::array::from_fn(|i| draw(seed, 100 + i as u64, MIX_STRATA[i]));
        Picks { singles, mix }
    }
}

/// Run budget and repeat counts of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub rc: RunConfig,
    /// Set-ups per run (the `setup_s` samples).
    pub setups: usize,
    /// Timed rounds of the `single` grid; every cell is simulated once
    /// per round, so this is the per-cell sample count.
    pub single_rounds: usize,
    /// Timed rounds of the `mix4` grid.
    pub mix_rounds: usize,
    /// Timed passes per `warm` run.
    pub warm_passes: usize,
}

impl Plan {
    /// The measured configuration: quick scale, the CLI's default engine,
    /// at most two worker threads.
    pub fn quick() -> Self {
        Self::with_rc(RunConfig::quick(), 3, 6, 4, 1500)
    }

    /// The self-test configuration: tiny scale, one of everything.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self::with_rc(RunConfig::test(), 1, 1, 1, 2)
    }

    fn with_rc(
        mut rc: RunConfig,
        setups: usize,
        single_rounds: usize,
        mix_rounds: usize,
        warm_passes: usize,
    ) -> Self {
        rc.threads = nproc().min(2);
        Plan {
            rc,
            setups,
            single_rounds,
            mix_rounds,
            warm_passes,
        }
    }

    /// Timed rounds of a cold workload.
    pub fn rounds(&self, kind: Kind) -> usize {
        if kind == Kind::Mix4 {
            self.mix_rounds
        } else {
            self.single_rounds
        }
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One cell of a workload's grid, independent of any session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellSpec {
    /// Single-core pick `w` (index into `Picks::singles`) under scheme `s`.
    Single { w: usize, s: usize },
    /// The 4-core mix under scheme `s`.
    Mix { s: usize },
    /// Isolated run of mix core `w` under scheme `s` at [`ISO_GBPS`].
    Iso { w: usize, s: usize },
}

impl CellSpec {
    pub fn scheme(self) -> usize {
        match self {
            CellSpec::Single { s, .. } | CellSpec::Mix { s } | CellSpec::Iso { s, .. } => s,
        }
    }
}

/// Every cell of a workload's grid, in submission order.
pub fn grid(kind: Kind, picks: &Picks) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    if kind.has_mix() {
        // The four long mix cells lead the batch, so the two workers
        // always run two of them side by side from a fresh heap: timings
        // and peak memory are steadier than under whatever pairing a later
        // queue position happens to give.
        cells.extend((0..SCHEMES.len()).map(|s| CellSpec::Mix { s }));
        for s in 0..SCHEMES.len() {
            cells.extend((0..4).map(|w| CellSpec::Iso { w, s }));
        }
    }
    if kind.has_single() {
        for w in 0..picks.singles.len() {
            cells.extend((0..SCHEMES.len()).map(|s| CellSpec::Single { w, s }));
        }
    }
    cells
}

/// A session plus everything resolved against it.
pub struct Ctx {
    pub session: Session,
    pub schemes: Vec<Arc<ResolvedScheme>>,
    pub pf: Arc<ResolvedL1Pf>,
    pub singles: Vec<Arc<dyn Workload>>,
    pub mix: [Arc<dyn Workload>; 4],
}

/// Resolves the schemes, the prefetcher and the picked workloads against
/// `session`.
///
/// # Panics
///
/// Panics when a built-in scheme or a catalog workload does not resolve:
/// the strata name only built-ins.
pub fn resolve(session: Session, picks: &Picks) -> Ctx {
    let schemes = SCHEMES
        .iter()
        .map(|n| {
            session
                .resolve_scheme_name(n)
                .expect("built-in scheme resolves")
        })
        .collect();
    let pf = session
        .resolve_l1pf_name(L1PF)
        .expect("built-in prefetcher resolves");
    let find = |n: &str| {
        session
            .workload(n)
            .expect("stratum names a catalog workload")
    };
    let singles = picks.singles.iter().map(|n| find(n)).collect();
    let mix = std::array::from_fn(|i| find(picks.mix[i]));
    Ctx {
        session,
        schemes,
        pf,
        singles,
        mix,
    }
}

/// A session with the on-disk result cache and trace store under `dir`.
///
/// # Panics
///
/// Panics when the directories cannot be created.
pub fn open_session(rc: RunConfig, dir: &Path) -> Session {
    Session::new(rc)
        .with_cache_dir(dir.join("cache"))
        .expect("create result-cache dir")
        .with_trace_dir(dir.join("traces"))
        .expect("create trace dir")
}

impl Ctx {
    /// The distinct workloads `kind`'s grid simulates.
    pub fn workloads(&self, kind: Kind) -> Vec<Arc<dyn Workload>> {
        let mut out: Vec<Arc<dyn Workload>> = Vec::new();
        let mut add = |w: &Arc<dyn Workload>| {
            if !out.iter().any(|o| o.name() == w.name()) {
                out.push(Arc::clone(w));
            }
        };
        if kind.has_single() {
            self.singles.iter().for_each(&mut add);
        }
        if kind.has_mix() {
            self.mix.iter().for_each(&mut add);
        }
        out
    }

    /// The harness cell for `spec`.
    pub fn cell(&self, spec: CellSpec) -> RunCell {
        let h = self.session.harness();
        let scheme = Arc::clone(&self.schemes[spec.scheme()]);
        let pf = Arc::clone(&self.pf);
        match spec {
            CellSpec::Single { w, .. } => h.cell_single_spec(&self.singles[w], scheme, pf, None),
            CellSpec::Mix { .. } => h.cell_mix_spec(&self.mix, scheme, pf, Some(MIX_GBPS)),
            CellSpec::Iso { w, .. } => h.cell_single_spec(&self.mix[w], scheme, pf, Some(ISO_GBPS)),
        }
    }

    /// The cells of `specs`, ready for `Harness::run_cells`.
    pub fn cells(&self, specs: &[CellSpec]) -> Vec<RunCell> {
        specs.iter().map(|&s| self.cell(s)).collect()
    }

    /// The content address of `spec`'s cell.
    pub fn key(&self, spec: CellSpec) -> RunKey {
        self.cell(spec).key()
    }
}

/// Reports of one grid, in [`grid`] order.
pub struct GridReports<'a> {
    pub specs: &'a [CellSpec],
    pub reports: &'a [SimReport],
}

impl GridReports<'_> {
    /// The report of cell `want`.
    pub fn find(&self, want: CellSpec) -> &SimReport {
        let i = self
            .specs
            .iter()
            .position(|&s| s == want)
            .expect("cell is part of the grid");
        &self.reports[i]
    }

    /// Simulated TLP and Hermes ratios over Baseline:
    /// `(tlp_speedup, tlp_dram, hermes_dram)`.
    ///
    /// On the single-core grid each is the geomean over the picks of the
    /// per-workload ratio (IPC, DRAM transactions). On the mix it is the
    /// weighted-speedup ratio and the DRAM-transaction ratio of the mix,
    /// as fig16 computes them.
    pub fn ratios(&self, kind: Kind, picks: &Picks) -> (f64, f64, f64) {
        let dram = |r: &SimReport| r.dram_transactions() as f64;
        if kind == Kind::Mix4 {
            let ws = |s: usize| {
                let mix = self.find(CellSpec::Mix { s });
                (0..4)
                    .map(|w| {
                        let iso = self.find(CellSpec::Iso { w, s }).ipc();
                        mix.cores[w].core.ipc() / iso
                    })
                    .sum::<f64>()
            };
            let mix = |s| self.find(CellSpec::Mix { s });
            return (
                ws(TLP) / ws(BASE),
                dram(mix(TLP)) / dram(mix(BASE)),
                dram(mix(HERMES)) / dram(mix(BASE)),
            );
        }
        let n = picks.singles.len();
        let geo =
            |f: &dyn Fn(usize) -> f64| ((0..n).map(|w| f(w).ln()).sum::<f64>() / n as f64).exp();
        let r = |w, s| self.find(CellSpec::Single { w, s });
        (
            geo(&|w| r(w, TLP).ipc() / r(w, BASE).ipc()),
            geo(&|w| dram(r(w, TLP)) / dram(r(w, BASE))),
            geo(&|w| dram(r(w, HERMES)) / dram(r(w, BASE))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_are_seeded_and_stratified() {
        assert_eq!(Picks::from_seed(7), Picks::from_seed(7));
        let differ = (0..16).any(|s| Picks::from_seed(s) != Picks::from_seed(0));
        assert!(differ, "the seed must change the picks");
        for seed in 0..64 {
            let p = Picks::from_seed(seed);
            for (name, stratum) in p.singles.iter().zip(SINGLE_STRATA) {
                assert!(stratum.contains(name));
            }
            assert!(p.singles[0].starts_with("spec."), "an idle-heavy SPEC pick");
            assert!(
                p.singles.iter().any(|n| !n.starts_with("spec.")),
                "a GAP pick"
            );
        }
    }
}
