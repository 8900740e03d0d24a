//! End-to-end and per-layer benchmark of the TLP reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload single|mix4|warm --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the untraced run prints the end-to-end metrics; with
//! `--trace 1` a separate traced run prints the per-layer metrics and
//! writes its spans to `.perfbench_out/`. Either way the last
//! line is `{"correct", "attempted", "failed", "metrics"}`, and the exit
//! code is non-zero when any cell panicked or answered a report that
//! differs from the cell's first simulation. `perfbench/METHOD.md`
//! describes the workloads, metrics and statistics.

mod plan;
mod stats;
mod timed;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use plan::{Kind, Plan};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut trace, mut seconds) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| {
                        format!("unknown workload {value:?} (single, mix4, warm)")
                    })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // The work per run is fixed (see METHOD.md), so `--seconds` is only
    // validated: the benchmark is sized to take about that long.
    if seconds == Some(0) {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A per-run scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(root: &Path) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = root.join(format!(
            "{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark work dir");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one benchmark run in `root` (the checkout).
fn run(kind: Kind, plan: &Plan, seed: u64, trace: bool, root: &Path) -> timed::Outcome {
    let work = WorkDir::new(&root.join(".perfbench_work"));
    if trace {
        traced::run(kind, plan, seed, &work.0, &root.join(".perfbench_out"))
    } else {
        timed::run(kind, plan, seed, &work.0)
    }
}

/// The result line.
fn result_line(o: &timed::Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        o.metrics.to_json()
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload single|mix4|warm --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("current dir");
    let plan = Plan::quick();
    let o = run(args.kind, &plan, args.seed, args.trace, &root);
    for f in &o.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    for (name, value, unit) in &o.metrics.0 {
        eprintln!("{:<36} {:>16} {unit}", name, stats::num(*value));
    }
    if !o.evidence.is_empty() {
        let body: Vec<String> = o
            .evidence
            .iter()
            .map(|(k, v)| format!("{}: {v}", stats::string(k)))
            .collect();
        println!("{{\"evidence\": {{{}}}}}", body.join(", "));
    }
    println!("{}", result_line(&o));
    if o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric a section of `BENCHMARK.json` lists.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = text[start..].find(']').map_or(text.len(), |e| start + e);
        text[start..end]
            .lines()
            .filter_map(|l| {
                let field = |k: &str| {
                    let at = l.find(&format!("\"{k}\": \""))? + k.len() + 5;
                    Some(l[at..at + l[at..].find('"')?].to_owned())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    }

    fn assert_prints(o: &timed::Outcome, section: &str) {
        let line = result_line(o);
        for (name, unit) in declared(section) {
            let want = format!("\"{name}\": {{\"value\": ");
            let at = line
                .find(&want)
                .unwrap_or_else(|| panic!("{name} missing from {line}"));
            let value = &line[at + want.len()..];
            assert!(!value.starts_with("null"), "{name} is not a number");
            let unit_field = format!("\"unit\": \"{unit}\"}}");
            assert!(
                value[..value.find('}').unwrap() + 1].ends_with(&unit_field),
                "{name} unit"
            );
        }
    }

    /// The self-test: every workload once at tiny scale, untraced and
    /// traced.
    #[test]
    fn self_test_runs_every_workload_at_tiny_scale() {
        let plan = Plan::tiny();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for kind in Kind::ALL {
            let a = run(kind, &plan, 1, false, &root);
            assert_eq!(a.failed, 0, "{}: {:?}", kind.name(), a.failures);
            assert_prints(&a, "end_to_end");
            let t = run(kind, &plan, 1, true, &root);
            assert_eq!(t.failed, 0, "{} traced: {:?}", kind.name(), t.failures);
            assert_prints(&t, "per_layer");
            if kind == Kind::Warm {
                assert_eq!(t.metrics.get("harness.cells_simulated"), Some(0.0));
                assert_eq!(t.metrics.get("harness.trace_captures"), Some(0.0));
                assert_eq!(t.metrics.get("trace.capture_s"), Some(0.0));
            } else {
                // The simulated ratios repeat exactly across runs.
                let b = run(kind, &plan, 1, false, &root);
                for name in ["tlp_speedup_ratio", "tlp_dram_ratio", "hermes_dram_ratio"] {
                    let (x, y) = (a.metrics.get(name).unwrap(), b.metrics.get(name).unwrap());
                    assert_eq!(x.to_bits(), y.to_bits(), "{name}");
                }
                assert!(t.metrics.get("bench.layer_coverage").unwrap() >= 0.9);
            }
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(
            [
                "--workload",
                "mix4",
                "--seed",
                "3",
                "--seconds",
                "20",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!((a.kind, a.seed, a.trace), (Kind::Mix4, 3, true));
        assert!(parse_args(
            ["--workload", "nope", "--seed", "1"]
                .map(String::from)
                .into_iter()
        )
        .is_err());
        assert!(parse_args(["--seed", "1"].map(String::from).into_iter()).is_err());
    }
}
