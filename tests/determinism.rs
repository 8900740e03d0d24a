//! Determinism pins for the run engine: results must be bit-identical
//! regardless of worker-thread count and cache state (cold memory, warm
//! memory, cold disk, warm disk). Every other guarantee of the engine —
//! content addressing, cross-experiment reuse, golden fixtures — rests on
//! this property.

use std::path::PathBuf;

use tlp::harness::experiments::{ext07_rl, fig01, fig03};
use tlp::harness::{EngineMode, Harness, L1Pf, RunConfig, Scheme};

/// Small but non-trivial budget: one workload per suite, four 4-core
/// mixes, enough instructions to exercise prefetchers and the off-chip
/// predictors. (These tests run in debug, so every simulated instruction
/// counts.)
fn rc_with_threads(threads: usize) -> RunConfig {
    let mut rc = RunConfig::test();
    rc.warmup = 1_000;
    rc.instructions = 5_000;
    rc.workloads_per_suite = Some(1);
    rc.mixes_per_suite = 1;
    rc.threads = threads;
    rc
}

fn tmp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlp-determinism-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SCHEMES: [Scheme; 3] = [Scheme::Baseline, Scheme::Tlp, Scheme::AthenaRl];

#[test]
fn single_cell_reports_are_field_identical_across_thread_counts() {
    let h1 = Harness::new(rc_with_threads(1));
    let h8 = Harness::new(rc_with_threads(8));
    // Simulate the whole grid through each engine first — sequentially on
    // h1, on the 8-worker pool on h8 — so the comparison below actually
    // pits the pooled execution against the serial one.
    for h in [&h1, &h8] {
        let cells = h
            .active_workloads()
            .iter()
            .flat_map(|w| SCHEMES.map(|s| h.cell_single(w, s, L1Pf::Ipcp, None)))
            .collect();
        h.run_cells(cells);
    }
    for w in h1.active_workloads() {
        let w8 = h8
            .active_workloads()
            .into_iter()
            .find(|x| x.name() == w.name())
            .expect("same catalog at both thread counts");
        for scheme in SCHEMES {
            let a = h1.run_single(&w, scheme, L1Pf::Ipcp);
            let b = h8.run_single(&w8, scheme, L1Pf::Ipcp);
            assert_eq!(a, b, "{} / {scheme:?} differs by thread count", w.name());
        }
    }
    // Collection never simulated inline: the batches covered the grid.
    assert_eq!(h1.engine_stats().inline_simulated, 0);
    assert_eq!(h8.engine_stats().inline_simulated, 0);
}

#[test]
fn experiment_tables_are_identical_across_thread_counts() {
    let h1 = Harness::new(rc_with_threads(1));
    let h8 = Harness::new(rc_with_threads(8));
    // One single-core sweep and one mix-based experiment...
    assert_eq!(fig01::run(&h1).render(), fig01::run(&h8).render());
    assert_eq!(fig03::run(&h1).render(), fig03::run(&h8).render());
    // ...plus weighted speedup, whose isolation-IPC cells ride the same
    // engine grid.
    let mix = tlp::harness::mix::generate_mixes(&h1.active_workloads(), 1)
        .into_iter()
        .next()
        .expect("at least one mix");
    let r1 = h1.run_mix(&mix.workloads, Scheme::Tlp, L1Pf::Ipcp, None);
    let r8 = h8.run_mix(&mix.workloads, Scheme::Tlp, L1Pf::Ipcp, None);
    assert_eq!(r1, r8, "mix report differs by thread count");
    let w1 = h1.weighted_ipc(&mix.workloads, &r1, Scheme::Tlp, L1Pf::Ipcp, 12.8);
    let w8 = h8.weighted_ipc(&mix.workloads, &r8, Scheme::Tlp, L1Pf::Ipcp, 12.8);
    assert!(
        (w1 - w8).abs() == 0.0,
        "weighted IPC differs by thread count: {w1} vs {w8}"
    );
}

#[test]
fn warm_disk_cache_reproduces_cold_results_without_simulating() {
    let dir = tmp_cache_dir("warm");

    // Cold pass: everything is simulated and spilled to disk.
    let cold = Harness::new(rc_with_threads(4))
        .with_cache_dir(&dir)
        .expect("cache dir");
    let cold_fig01 = fig01::run(&cold);
    let cold_ext07 = ext07_rl::run(&cold);
    let cold_stats = cold.engine_stats();
    assert!(cold_stats.simulated > 0, "cold run must simulate");

    // Warm pass in a fresh harness (fresh memory tier): every cell must
    // come from disk, and every number must match the cold pass exactly.
    let warm = Harness::new(rc_with_threads(4))
        .with_cache_dir(&dir)
        .expect("cache dir");
    let warm_fig01 = fig01::run(&warm);
    let warm_ext07 = ext07_rl::run(&warm);
    let warm_stats = warm.engine_stats();
    assert_eq!(warm_stats.simulated, 0, "warm run must not simulate");
    assert!(warm_stats.disk_hits > 0, "warm run reads the disk tier");
    assert_eq!(
        warm_stats.hits(),
        warm_stats.requested,
        "warm run is 100% cache hits: {}",
        warm_stats.summary_line()
    );
    assert_eq!(cold_fig01.render(), warm_fig01.render());
    assert_eq!(cold_ext07.render(), warm_ext07.render());

    // Field-identical reports through the serde round-trip: a cell read
    // back from disk equals the one simulated in-process.
    let w = cold.active_workloads()[0].clone();
    assert_eq!(
        cold.run_single(&w, Scheme::Tlp, L1Pf::Ipcp),
        warm.run_single(&w, Scheme::Tlp, L1Pf::Ipcp),
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The event engine must be a pure wall-clock optimization: every cell it
/// simulates yields a `SimReport` bit-identical to the cycle engine's.
/// Sampled over a pseudo-random slice of the evaluation grid (workload ×
/// scheme × L1 prefetcher × bandwidth), plus a 4-core mix — the shapes
/// with the most intra-cycle interleaving to get wrong.
#[test]
fn event_engine_cells_are_bit_identical_to_cycle_engine() {
    let mut rc_cycle = rc_with_threads(2);
    rc_cycle.engine = EngineMode::Cycle;
    let mut rc_event = rc_with_threads(2);
    rc_event.engine = EngineMode::Event;
    let cyc = Harness::new(rc_cycle);
    let evt = Harness::new(rc_event);
    assert_eq!(cyc.rc.engine, EngineMode::Cycle);
    assert_eq!(evt.rc.engine, EngineMode::Event);

    // Deterministic xorshift sample over the full single-core grid.
    let schemes = [
        Scheme::Baseline,
        Scheme::Ppf,
        Scheme::Hermes,
        Scheme::HermesPpf,
        Scheme::Tlp,
        Scheme::AthenaRl,
    ];
    let l1pfs = [L1Pf::Ipcp, L1Pf::Berti];
    let bandwidths = [None, Some(12.8)];
    let workloads = cyc.workloads();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut rand = move |bound: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % bound as u64) as usize
    };
    let sample: Vec<(usize, usize, usize, usize)> = (0..10)
        .map(|_| {
            (
                rand(workloads.len()),
                rand(schemes.len()),
                rand(l1pfs.len()),
                rand(bandwidths.len()),
            )
        })
        .collect();

    for h in [&cyc, &evt] {
        let cells = sample
            .iter()
            .map(|&(w, s, p, b)| {
                h.cell_single(
                    &h.workloads()[w].clone(),
                    schemes[s],
                    l1pfs[p],
                    bandwidths[b],
                )
            })
            .collect();
        h.run_cells(cells);
    }
    for &(w, s, p, b) in &sample {
        let wl_c = workloads[w].clone();
        let wl_e = evt.workloads()[w].clone();
        let a = cyc.run_single_with_bandwidth(&wl_c, schemes[s], l1pfs[p], bandwidths[b]);
        let bb = evt.run_single_with_bandwidth(&wl_e, schemes[s], l1pfs[p], bandwidths[b]);
        assert_eq!(
            a,
            bb,
            "cell {} / {:?} / {:?} / {:?} differs between engines",
            wl_c.name(),
            schemes[s],
            l1pfs[p],
            bandwidths[b]
        );
    }

    // A 4-core mix: shared LLC/DRAM contention across cores.
    let mix = tlp::harness::mix::generate_mixes(&cyc.active_workloads(), 1)
        .into_iter()
        .next()
        .expect("at least one mix");
    let mix_e = tlp::harness::mix::generate_mixes(&evt.active_workloads(), 1)
        .into_iter()
        .next()
        .expect("same mix catalog");
    let a = cyc.run_mix(&mix.workloads, Scheme::Tlp, L1Pf::Ipcp, None);
    let b = evt.run_mix(&mix_e.workloads, Scheme::Tlp, L1Pf::Ipcp, None);
    assert_eq!(a, b, "mix report differs between engines");
}

/// Engine mode is not part of the content address: a disk cache written
/// by the cycle engine serves the event engine (and vice versa) without
/// re-simulating, because the reports are identical either way. A cold
/// event-mode harness with no disk tier must simulate the same table.
#[test]
fn engine_modes_share_the_result_cache() {
    let dir = tmp_cache_dir("engine-share");
    let mut rc = rc_with_threads(2);
    rc.engine = EngineMode::Cycle;
    let cold = Harness::new(rc).with_cache_dir(&dir).expect("cache dir");
    let cold_fig01 = fig01::run(&cold);
    assert!(cold.engine_stats().simulated > 0);

    let mut rc = rc_with_threads(2);
    rc.engine = EngineMode::Event;
    let warm = Harness::new(rc).with_cache_dir(&dir).expect("cache dir");
    let warm_fig01 = fig01::run(&warm);
    assert_eq!(
        warm.engine_stats().simulated,
        0,
        "event-mode run must be served entirely from the cycle-mode cache"
    );
    assert_eq!(cold_fig01.render(), warm_fig01.render());

    let mut rc = rc_with_threads(2);
    rc.engine = EngineMode::Event;
    let event = Harness::new(rc);
    let event_fig01 = fig01::run(&event);
    assert_eq!(
        event.engine_stats().simulated,
        cold.engine_stats().simulated,
        "a cacheless event-mode run must simulate every cell itself"
    );
    assert_eq!(cold_fig01.render(), event_fig01.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace persisted to the store and streamed back block-by-block from
/// disk must be a pure storage optimization: the replay drives the
/// simulator to `SimReport`s bit-identical to in-memory capture, across
/// both engine modes and thread counts, with zero re-captures on the
/// warm store.
#[test]
fn streamed_trace_replay_is_bit_identical_to_in_memory_capture() {
    let dir = tmp_cache_dir("tracestore");
    let pairs = [(Scheme::Baseline, L1Pf::Ipcp), (Scheme::Tlp, L1Pf::Ipcp)];

    // Populate the store once: traces are addressed by environment and
    // workload — not engine mode or thread count — so a single cold pass
    // serves every configuration below.
    let cold = Harness::new(rc_with_threads(4))
        .with_trace_dir(&dir)
        .expect("trace dir");
    let cells = cold
        .active_workloads()
        .iter()
        .flat_map(|w| pairs.map(|(s, p)| cold.cell_single(w, s, p, None)))
        .collect();
    cold.run_cells(cells);
    assert!(
        cold.trace_stats().captures > 0,
        "cold pass must capture traces"
    );

    for engine in [EngineMode::Cycle, EngineMode::Event] {
        for threads in [1, 8] {
            let mut rc = rc_with_threads(threads);
            rc.engine = engine;
            // Reference: plain in-memory capture, no store attached.
            let mem = Harness::new(rc);
            // Warm store in a fresh harness: every trace streams from disk.
            let warm = Harness::new(rc).with_trace_dir(&dir).expect("trace dir");
            for h in [&mem, &warm] {
                let cells = h
                    .active_workloads()
                    .iter()
                    .flat_map(|w| pairs.map(|(s, p)| h.cell_single(w, s, p, None)))
                    .collect();
                h.run_cells(cells);
            }
            for w in mem.active_workloads() {
                let ww = warm
                    .active_workloads()
                    .into_iter()
                    .find(|x| x.name() == w.name())
                    .expect("same catalog with and without a store");
                for (s, p) in pairs {
                    assert_eq!(
                        mem.run_single(&w, s, p),
                        warm.run_single(&ww, s, p),
                        "{} / {s:?} differs between captured and streamed replay \
                         ({engine:?}, {threads} threads)",
                        w.name()
                    );
                }
            }
            let ts = warm.trace_stats();
            assert_eq!(
                ts.captures, 0,
                "warm store must not re-capture ({engine:?}, {threads} threads)"
            );
            assert!(ts.disk_hits > 0, "warm run streams traces from disk");
            assert_eq!(ts.corrupt, 0, "no trace file may fail validation");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_memory_rerun_of_an_experiment_is_simulation_free() {
    let h = Harness::new(rc_with_threads(4));
    let first = fig01::run(&h);
    let after_first = h.engine_stats().simulated;
    let second = fig01::run(&h);
    assert_eq!(
        h.engine_stats().simulated,
        after_first,
        "second in-process run must be pure cache hits"
    );
    assert_eq!(
        h.engine_stats().inline_simulated,
        0,
        "fig01 plans its whole grid before collecting"
    );
    assert_eq!(first.render(), second.render());
}
