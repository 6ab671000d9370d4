//! The repository's benchmark: six workloads over the whole chain
//! (solver → epochs → protocols → runtime → overlay), end-to-end and
//! per-layer metrics, one traced run. See `README.md` beside this package
//! and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--seed S] [--workload NAME] [--seconds T | --reps R] [--trace [0|1]]
//!     [--check] [--quick] [--list] [--out DIR]
//! ```
//!
//! With `--workload` the named workload runs in this process and the last
//! line of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`): end-to-end metrics by default, per-layer metrics
//! with `--trace 1`. Without it every workload runs, each in a fresh
//! child process so that `peak_rss_mb` is its own: an untraced run, then
//! (with `--trace`) a traced one. `--check` runs two untraced sets back
//! to back and compares every median with its bound.

mod json;
mod probes;
mod report;
mod run;
mod spec;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Budget, Plan};
use workloads::Workload;

#[derive(Debug)]
pub struct Args {
    seed: u64,
    workload: Option<Workload>,
    budget: Option<Budget>,
    trace: bool,
    check: bool,
    quick: bool,
    list: bool,
    out: PathBuf,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workload: None,
        budget: None,
        trace: false,
        check: false,
        quick: false,
        list: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = argv.peekable();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seconds" => {
                let s: f64 =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.budget = Some(Budget::Seconds(s));
            }
            "--reps" => {
                let r: usize = value("--reps")?.parse().map_err(|e| format!("--reps: {e}"))?;
                if r == 0 {
                    return Err("--reps must be at least 1".into());
                }
                args.budget = Some(Budget::Reps(r));
            }
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check" => args.check = true,
            "--quick" => args.quick = true,
            "--list" => args.list = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

impl Args {
    /// The plan for `workload`: an explicit budget, else one episode under
    /// `--quick`, else the default repetitions.
    fn plan(&self, workload: Workload, trace: bool) -> Plan {
        let default_reps = match workload {
            _ if self.quick => 1,
            Workload::GossipSim => 3,
            _ => 5,
        };
        Plan {
            workload,
            seed: self.seed,
            quick: self.quick,
            budget: self.budget.unwrap_or(Budget::Reps(default_reps)),
            trace,
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swiper-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.list {
        report::list();
        true
    } else if let Some(workload) = args.workload {
        report::single(&args, workload)
    } else if args.check {
        report::check(&args)
    } else {
        report::all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
