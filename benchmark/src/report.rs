//! Printing: the per-workload report and result line, the all-workloads
//! table, `--list` and `--check`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use crate::json::Json;
use crate::run::{self, Outcome};
use crate::spec::{spec, Metric};
use crate::workloads::Workload;
use crate::Args;

/// The result line of the contract: one JSON object, every value with all
/// its digits (`{}` on an `f64` prints the shortest text that reads back
/// to the same number).
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = outcome.metrics.get(&m.name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    line
}

fn header(args: &Args, with_revision: bool) {
    println!(
        "swiper-benchmark  seed={}  available_parallelism={}  workers={}{}{}",
        args.seed,
        run::nproc(),
        run::workers(),
        if args.quick { "  quick" } else { "" },
        if with_revision { format!("  git={}", git_revision()) } else { String::new() },
    );
    println!(
        "  closed loops only; injected delay: simulator Uniform(1,20) ticks, threaded/socket \
         none (latency = processor + loopback); worker scaling not measured"
    );
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// `--list`: every name the benchmark defines.
pub fn list() {
    let s = spec();
    println!("one run measures for {} s (--seconds)", s.run_seconds);
    println!("workloads:");
    for (w, (name, why)) in Workload::ALL.iter().zip(&s.workloads) {
        println!("  {name}\n      op:  {}\n      why: {why}", w.op());
    }
    println!("end-to-end metrics (every workload, untraced run):");
    for m in &s.end_to_end {
        let better = if m.higher_is_better { "higher" } else { "lower" };
        println!(
            "  {:<34} {:<7} {better:<7} bound {}",
            m.name,
            m.unit,
            m.bound.map_or("-".into(), |b| format!("{b}"))
        );
    }
    println!("per-layer metrics (traced run; a layer a workload never enters reads 0):");
    for m in &s.per_layer {
        let better = if m.higher_is_better { "higher" } else { "lower" };
        println!("  {:<34} {:<7} {better}", m.name, m.unit);
    }
}

fn print_outcome(outcome: &Outcome, traced: bool) {
    let w = outcome.workload;
    println!(
        "{}: {} untraced + {} traced episodes; op = {}",
        w.name(),
        outcome.episodes,
        outcome.traced_episodes,
        w.op()
    );
    if w.threaded() {
        println!(
            "  nproc={} workers={} (worker scaling not measured)",
            outcome.nproc, outcome.workers
        );
    }
    for (name, s) in &outcome.detail {
        println!(
            "  {name:<12} per episode: median {:.6}  quartiles [{:.6}, {:.6}]  samples {}",
            s.median, s.q1, s.q3, s.samples
        );
    }
    let defs = if traced { &spec().per_layer } else { &spec().end_to_end };
    for m in defs {
        let v = outcome.metrics.get(&m.name).copied().unwrap_or(0.0);
        // A zero per-layer value means the workload never enters that layer.
        if !traced || v != 0.0 {
            println!("  {:<34} {v:>18.6} {}", m.name, m.unit);
        }
    }
    if traced {
        println!("  self time by span (last traced episode):");
        for (name, self_ns, count) in &outcome.self_times {
            println!("    {name:<24} {:>12.3} ms  x{count}", *self_ns as f64 / 1e6);
        }
    }
    println!("  attempted {}  failed {}", outcome.attempted, outcome.failed);
    if let Some(e) = &outcome.error {
        println!("  CHECK FAILED: {e}");
    }
}

/// `--workload NAME`: run it here, print the report and the result line.
pub fn single(args: &Args, workload: Workload) -> bool {
    let outcome = run::run(&args.plan(workload, args.trace));
    header(args, false);
    print_outcome(&outcome, args.trace);
    if let Some(doc) = &outcome.trace_json {
        let path = args.out.join(format!("trace.{}.json", workload.name()));
        let written =
            std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, doc));
        match written {
            Ok(()) => println!("  wrote {}", path.display()),
            Err(e) => {
                eprintln!("swiper-benchmark: {}: {e}", path.display());
                return false;
            }
        }
    }
    let defs = if args.trace { &spec().per_layer } else { &spec().end_to_end };
    println!("{}", result_line(&outcome, defs));
    outcome.correct()
}

/// What a child run reported: `(correct, metric values)`.
type ChildResult = (bool, BTreeMap<String, f64>);

/// Runs one workload in a fresh child process (so its `peak_rss_mb` is
/// its own), echoes its report and parses its result line.
fn child(args: &Args, workload: Workload, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    cmd.arg("--out").arg(&args.out);
    if args.quick {
        cmd.arg("--quick");
    }
    match args.budget {
        Some(run::Budget::Reps(r)) => cmd.args(["--reps", &r.to_string()]),
        Some(run::Budget::Seconds(s)) => cmd.args(["--seconds", &s.to_string()]),
        // A traced run of the default command is one episode of each kind.
        None if trace => cmd.args(["--reps", "1"]),
        None => &mut cmd,
    };
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in &lines {
        println!("{l}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let doc =
        Json::parse(last).map_err(|e| format!("{}: no result line ({e})", workload.name()))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let correct = doc.get("correct").and_then(Json::as_bool) == Some(true);
    Ok((correct && out.status.success(), metrics))
}

/// One untraced run of every workload; `None` for a workload whose child
/// could not be run or parsed.
fn run_set(args: &Args) -> Vec<Option<ChildResult>> {
    Workload::ALL
        .iter()
        .map(|&w| match child(args, w, false) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("swiper-benchmark: {e}");
                None
            }
        })
        .collect()
}

fn table(sets: &[Option<ChildResult>]) {
    print!("\n{:<20}", "end-to-end");
    for m in &spec().end_to_end {
        print!(" {:>20}", format!("{} [{}]", m.name, m.unit));
    }
    println!();
    for (w, set) in Workload::ALL.iter().zip(sets) {
        print!("{:<20}", w.name());
        for m in &spec().end_to_end {
            match set.as_ref().and_then(|(_, v)| v.get(&m.name)) {
                Some(v) => print!(" {v:>20.6}"),
                None => print!(" {:>20}", "-"),
            }
        }
        println!();
    }
}

/// Default mode: every workload, untraced; then, with `--trace`, traced.
pub fn all(args: &Args) -> bool {
    header(args, true);
    let sets = run_set(args);
    let mut ok = sets.iter().all(|s| s.as_ref().is_some_and(|(correct, _)| *correct));
    if args.trace {
        let mut docs = Vec::new();
        for w in Workload::ALL {
            match child(args, w, true) {
                Ok((correct, _)) => ok &= correct,
                Err(e) => {
                    eprintln!("swiper-benchmark: {e}");
                    ok = false;
                }
            }
            let part = args.out.join(format!("trace.{}.json", w.name()));
            if let Ok(doc) = std::fs::read_to_string(part) {
                docs.push(doc.trim_end().to_string());
            }
        }
        let path = args.out.join("trace.json");
        let merged = format!("{{\"workloads\": [\n{}\n]}}\n", docs.join(",\n"));
        match std::fs::write(&path, merged) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("swiper-benchmark: {}: {e}", path.display());
                ok = false;
            }
        }
    }
    table(&sets);
    println!("{}", if ok { "all checks passed" } else { "FAILED" });
    ok
}

/// How much worse `b` is than `a` as a share of `a`, in the metric's bad
/// direction (negative when `b` is better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    if m.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

/// `--check`: two full untraced sets back to back; every end-to-end median
/// of one must be within its bound of the other, in both directions, and
/// the counts of the seeded workloads must agree exactly.
pub fn check(args: &Args) -> bool {
    header(args, true);
    println!("--check: set 1");
    let first = run_set(args);
    println!("--check: set 2");
    let second = run_set(args);
    let mut ok = true;
    println!(
        "\n{:<20} {:<14} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "spread", "bound"
    );
    for ((w, a), b) in Workload::ALL.iter().zip(&first).zip(&second) {
        let (Some((ok_a, a)), Some((ok_b, b))) = (a, b) else {
            println!("{:<20} did not run", w.name());
            ok = false;
            continue;
        };
        ok &= ok_a & ok_b;
        for m in &spec().end_to_end {
            let (x, y) = (a.get(&m.name).copied(), b.get(&m.name).copied());
            let (Some(x), Some(y)) = (x, y) else {
                println!("{:<20} {:<14} missing", w.name(), m.name);
                ok = false;
                continue;
            };
            let spread = worsening(m, x, y).max(worsening(m, y, x));
            // A count from a seeded scheduler repeats exactly or is wrong.
            let exact = m.unit == "count" && !w.threaded();
            let bound = if exact { 0.0 } else { m.bound.unwrap_or(0.0) };
            let verdict = if spread <= bound { "" } else { "  DISAGREE" };
            ok &= spread <= bound;
            println!(
                "{:<20} {:<14} {x:>16.6} {y:>16.6} {:>8.2}% {:>6.0}%{verdict}",
                w.name(),
                m.name,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    println!("{}", if ok { "the two sets agree" } else { "the two sets DISAGREE" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(0.1),
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(&metric(false), 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&metric(false), 100.0, 90.0) + 0.1).abs() < 1e-12);
        assert!((worsening(&metric(true), 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(&metric(false), 0.0, 0.0), 0.0);
        assert_eq!(worsening(&metric(false), 0.0, 1.0), f64::INFINITY);
    }
}
