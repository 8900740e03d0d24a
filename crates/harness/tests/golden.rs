//! Golden-report regression fixtures: the exact rendered tables of
//! `fig01` and `ext7` at a pinned test-scale budget are checked into
//! `tests/golden/`. Any change to the simulator, the workload generators,
//! or the experiment code that shifts a single digit of these tables
//! fails here — results can never drift silently.
//!
//! Every fixture is checked under each engine mode: the event engine
//! that every shipped path runs, and the single-stepping cycle oracle it
//! must match bit for bit.
//!
//! To intentionally update the fixtures after a behavior change, run
//! `scripts/update-golden.sh` (which sets `UPDATE_GOLDEN=1` around this
//! suite) and commit the diff with an explanation of why the numbers
//! moved. Updates are written from the cycle oracle only; the event
//! engine is still checked against the fresh fixture. The budget below
//! is deliberately hardcoded — not derived from `RunConfig::test()` — so
//! harness-default changes cannot silently re-scope the fixtures.

use std::path::PathBuf;

use tlp_harness::experiments::{ext07_rl, fig01};
use tlp_harness::{EngineMode, Harness, RunConfig};
use tlp_trace::catalog::Scale;

/// The pinned fixture budget under engine `mode`. Threads are irrelevant
/// to results (see `tests/determinism.rs` at the workspace root) and left
/// at the default.
fn golden_harness(mode: EngineMode) -> Harness {
    let mut rc = RunConfig::test();
    rc.engine = mode;
    rc.scale = Scale::Tiny;
    rc.warmup = 1_500;
    rc.instructions = 8_000;
    rc.workloads_per_suite = Some(1);
    rc.mixes_per_suite = 1;
    Harness::new(rc)
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compares `rendered` (simulated under engine `mode`) against the
/// checked-in fixture, or rewrites the fixture from the cycle oracle when
/// `UPDATE_GOLDEN` is set. [`EngineMode::ALL`] lists the oracle first, so
/// the event engine is checked against the freshly written fixture.
fn check_golden(name: &str, mode: EngineMode, rendered: &str) {
    let path = fixture_path(name);
    if mode == EngineMode::Cycle && std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run scripts/update-golden.sh",
            path.display()
        )
    });
    assert_eq!(
        expected, rendered,
        "golden mismatch for '{name}' under the {mode} engine: results \
         drifted from the checked-in fixture. If the change is intentional, \
         run scripts/update-golden.sh and commit the new fixture with a \
         rationale."
    );
}

#[test]
fn fig01_matches_golden_fixture() {
    for mode in EngineMode::ALL {
        let h = golden_harness(mode);
        check_golden("fig01", mode, &fig01::run(&h).render());
    }
}

#[test]
fn ext07_matches_golden_fixtures() {
    for mode in EngineMode::ALL {
        let h = golden_harness(mode);
        check_golden("ext07", mode, &ext07_rl::run(&h).render());
        check_golden("ext07lc", mode, &ext07_rl::run_learning_curve(&h).render());
    }
}
