//! Million-party solver scaling sweep — the repo's first machine-checked
//! benchmark trajectory (`BENCH_solver.json`).
//!
//! For each population size n ∈ {10³, 10⁴, 10⁵, 10⁶} (capped by
//! `--max-n`) the driver builds a seeded whale-skewed population
//! (`gen::whale_mix`: Zipf whale head over a log-normal body, shuffled)
//! and measures WR(1/3, 1/2) three ways:
//!
//! * **cold** — a fresh `Swiper::solve_restriction`, no caches, no hint;
//! * **warm** — a `Reconfigurator` epoch step: solve the base population,
//!   churn 1% of parties by up to ±5% stake, then measure the warm
//!   re-solve (certificates disabled);
//! * **certified** — the same epoch step with delta-stable verdict
//!   certificates enabled (the `Reconfigurator` default), so stable
//!   verdicts replay from stored margins instead of re-running bounds or
//!   the DP.
//!
//! Every row records the generator seed, wall time, published tickets,
//! `dp_invocations`, `certificate_skips`, `candidates_checked`, the
//! accelerator counters (`cursor_advances`, `probes_saved`,
//! `coarse_cert_hits`) and peak RSS, and the whole
//! sweep is written as `BENCH_solver.json` (schema
//! `swiper-bench-solver/v1`, one row per line). Counter fields are
//! bit-deterministic for a fixed seed, which is what makes the file
//! regression-gateable; wall times are gated with tolerance, RSS is
//! informational.
//!
//! ```text
//! cargo run --release -p swiper-bench --bin solver_scale -- \
//!     [--max-n N] [--out PATH] [--diff BASELINE] [--budget-ms MS] [--seed S]
//! ```
//!
//! `--diff` exits non-zero when any deterministic counter differs from the
//! baseline or a wall time regresses by more than 20% (rows under 250 ms
//! are treated as noise); baseline rows above `--max-n` are ignored so a
//! capped nightly run can diff against the full committed sweep. It also
//! fails when the fresh certified n = 10⁶ row settles zero checks from
//! certificates (`certificate_skips + coarse_cert_hits == 0`): the coarse
//! certificate index has stopped hitting at scale.
//! `--budget-ms` exits non-zero when the cold solve at the largest swept
//! n ≤ 10⁵ exceeds the budget — the nightly wall-clock gate.

use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper_bench::{
    diff_bench_rows, parse_bench_json, peak_rss_kb, render_bench_json, BenchRow, TextTable,
};
use swiper_core::{Ratio, SolveStats, Swiper, WeightRestriction};
use swiper_weights::epoch::{churn_with, ChurnMode, Reconfigurator, Setting};
use swiper_weights::gen;

const SIZES: [u64; 4] = [1_000, 10_000, 100_000, 1_000_000];
/// Churned parties per epoch step: 1% of the population.
const CHURN_PCT: u64 = 1;

struct Args {
    max_n: u64,
    out: String,
    diff: Option<String>,
    budget_ms: Option<u64>,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        max_n: 1_000_000,
        out: "BENCH_solver.json".into(),
        diff: None,
        budget_ms: None,
        seed: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--max-n" => {
                args.max_n = value("--max-n")?.parse().map_err(|e| format!("--max-n: {e}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--diff" => args.diff = Some(value("--diff")?),
            "--budget-ms" => {
                args.budget_ms = Some(
                    value("--budget-ms")?.parse().map_err(|e| format!("--budget-ms: {e}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn row(
    case: &str,
    n: u64,
    gen_seed: u64,
    wall_ms: u64,
    tickets: u128,
    stats: &SolveStats,
    rss_delta_kb: u64,
) -> BenchRow {
    BenchRow {
        bench: "solver_scale".into(),
        case_name: case.into(),
        n,
        wall_ms,
        tickets,
        dp_invocations: stats.dp_invocations,
        certificate_skips: stats.certificate_skips,
        candidates_checked: stats.candidates_checked,
        cursor_advances: stats.cursor_advances,
        probes_saved: stats.probes_saved,
        coarse_cert_hits: stats.coarse_cert_hits,
        seed: gen_seed,
        peak_rss_kb: rss_delta_kb,
    }
}

/// One population size: cold solve plus the two epoch-step variants.
fn run_size(n: u64, seed: u64) -> Vec<BenchRow> {
    let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).expect("valid params");
    let setting = Setting::Restriction(p);
    let whales = usize::try_from((n / 10_000).max(8)).expect("fits");
    // The per-size generator seed lands in every emitted row, so any row
    // is reproducible from `(bench, case, n, seed)` alone.
    let gen_seed = seed ^ n;
    let w = gen::whale_mix(usize::try_from(n).expect("fits"), whales, gen_seed);
    let churned = usize::try_from(n * CHURN_PCT).expect("fits").div_ceil(100);

    // VmHWM is a process-lifetime high-water mark; reporting it raw would
    // attribute every earlier cell's peak to this one. Each measured phase
    // reports the *delta* it pushed the mark by (zero when it fits inside
    // a previous peak), so rss columns stay attributable per cell.
    let rss_before = peak_rss_kb();
    let t0 = Instant::now();
    let cold = Swiper::new().solve_restriction(&w, &p).expect("solvable");
    let cold_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
    let cold_rss = peak_rss_kb().saturating_sub(rss_before);
    let mut rows =
        vec![row("cold", n, gen_seed, cold_ms, cold.assignment.total(), &cold.stats, cold_rss)];

    for (case, certs) in [("warm", false), ("certified", true)] {
        let mut reconf =
            Reconfigurator::new(Swiper::new(), vec![setting]).with_certificates(certs);
        reconf.advance(&w).expect("base epoch solvable");
        // Same churn stream for both variants: the members the warm pass
        // faces are identical, so the counter gap is certificates alone.
        let mut rng = StdRng::seed_from_u64(seed ^ n ^ 0xDEAD_BEEF);
        let w2 = churn_with(ChurnMode::Drift, &w, churned, 5, &mut rng);
        let rss_before = peak_rss_kb();
        let t0 = Instant::now();
        let outcome = reconf.advance(&w2).expect("churned epoch solvable");
        let wall = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
        let rss = peak_rss_kb().saturating_sub(rss_before);
        rows.push(row(
            case,
            n,
            gen_seed,
            wall,
            outcome.solutions[0].assignment.total(),
            &outcome.stats(),
            rss,
        ));
    }
    rows
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("solver_scale: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    for n in SIZES.into_iter().filter(|&n| n <= args.max_n) {
        rows.extend(run_size(n, args.seed));
        println!("n={n}: done");
    }
    if rows.is_empty() {
        eprintln!("solver_scale: --max-n {} admits no sweep size", args.max_n);
        return ExitCode::FAILURE;
    }

    let mut table = TextTable::new(vec![
        "n",
        "case",
        "seed",
        "wall_ms",
        "tickets",
        "dp",
        "cert_skips",
        "coarse",
        "cursor",
        "saved",
        "candidates",
        "rss_kb",
    ]);
    for r in &rows {
        table.row(vec![
            r.n.to_string(),
            r.case_name.clone(),
            r.seed.to_string(),
            r.wall_ms.to_string(),
            r.tickets.to_string(),
            r.dp_invocations.to_string(),
            r.certificate_skips.to_string(),
            r.coarse_cert_hits.to_string(),
            r.cursor_advances.to_string(),
            r.probes_saved.to_string(),
            r.candidates_checked.to_string(),
            r.peak_rss_kb.to_string(),
        ]);
    }
    print!("{}", table.render());

    std::fs::write(&args.out, render_bench_json(&rows)).expect("write benchmark file");
    println!("wrote {}", args.out);

    let mut ok = true;
    if let Some(budget) = args.budget_ms {
        let gate_n = SIZES.into_iter().filter(|&n| n <= args.max_n.min(100_000)).max();
        let cold = gate_n.and_then(|n| rows.iter().find(|r| r.case_name == "cold" && r.n == n));
        match cold {
            Some(r) if r.wall_ms > budget => {
                eprintln!(
                    "solver_scale: cold n={} took {} ms, over the {} ms budget",
                    r.n, r.wall_ms, budget
                );
                ok = false;
            }
            Some(r) => {
                println!("budget: cold n={} at {} ms within {} ms", r.n, r.wall_ms, budget)
            }
            None => {
                eprintln!("solver_scale: no cold row to apply --budget-ms to");
                ok = false;
            }
        }
    }
    if let Some(baseline_path) = &args.diff {
        let doc = std::fs::read_to_string(baseline_path).expect("read baseline");
        let baseline = match parse_bench_json(&doc) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("solver_scale: baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let in_scope: Vec<BenchRow> =
            baseline.into_iter().filter(|r| r.n <= args.max_n).collect();
        let problems = diff_bench_rows(&in_scope, &rows, 20);
        for p in &problems {
            eprintln!("solver_scale: REGRESSION: {p}");
        }
        if problems.is_empty() {
            println!("diff vs {baseline_path}: clean ({} rows)", in_scope.len());
        }
        ok &= problems.is_empty();
        match rows.iter().find(|r| r.case_name == "certified" && r.n == 1_000_000) {
            Some(r) => {
                println!(
                    "certified n=1e6: certificate_skips={} coarse_cert_hits={} \
                     cursor_advances={} probes_saved={}",
                    r.certificate_skips, r.coarse_cert_hits, r.cursor_advances, r.probes_saved
                );
                if r.certificate_skips + r.coarse_cert_hits == 0 {
                    eprintln!(
                        "solver_scale: REGRESSION: certified n=1e6 warm replay settled zero \
                         checks from certificates — the coarse certificate index stopped \
                         hitting at scale"
                    );
                    ok = false;
                }
            }
            None => println!("sweep capped below n=1e6; skipping the certificate-hit gate"),
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
