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
//!   re-solve through the `Reconfigurator` default, a bare `FullOracle`
//!   per track;
//! * **certified** — the same epoch step through a `CachingOracle` with
//!   delta-stable verdict certificates, so stable verdicts replay from
//!   stored margins instead of re-running bounds or the DP.
//!
//! The whole sweep is written as `BENCH_solver.json`; its columns and how
//! each is gated are the `swiper_bench::SOLVER` schema table.
//!
//! ```text
//! cargo run --release -p swiper-bench --bin solver_scale -- \
//!     [--max-n N] [--out PATH] [--diff BASELINE] [--budget-ms MS] [--seed S]
//! ```
//!
//! `--diff` exits non-zero on any regression `SOLVER` gates; baseline
//! rows above `--max-n` are out of scope, so a capped nightly run can diff
//! against the full committed sweep. It also applies
//! `swiper_bench::solver_invariants` to the fresh rows.
//! `--budget-ms` exits non-zero when the cold solve at the largest swept
//! n ≤ 10⁵ exceeds the budget — the nightly wall-clock gate.

use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper_bench::{gate, peak_rss_kb, solver_invariants, Row, SOLVER};
use swiper_core::{
    CachingOracle, FullOracle, Ratio, SolveStats, Swiper, ValidityOracle, WeightRestriction,
    Weights,
};
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

/// The identity of one sweep cell.
fn cell(case: &str, n: u64) -> Row {
    Row::default().with("bench", "solver_scale").with("case", case).with("n", n)
}

fn row(
    case: &str,
    n: u64,
    gen_seed: u64,
    wall_ms: u64,
    tickets: u128,
    stats: &SolveStats,
    rss_delta_kb: u64,
) -> Row {
    cell(case, n)
        .with("seed", gen_seed)
        .with("wall_ms", wall_ms)
        .with("tickets", tickets)
        .with("dp_invocations", stats.dp_invocations)
        .with("certificate_skips", stats.certificate_skips)
        .with("candidates_checked", stats.candidates_checked)
        .with("cursor_advances", stats.cursor_advances)
        .with("grid_counts", stats.grid_counts)
        .with("probes_saved", stats.probes_saved)
        .with("coarse_cert_hits", stats.coarse_cert_hits)
        .with("peak_rss_kb", rss_delta_kb)
}

/// One population size: cold solve plus the two epoch-step variants.
fn run_size(n: u64, seed: u64) -> Vec<Row> {
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

    // Same churn stream for both variants: the members the warm pass faces
    // are identical, so the counter gap is certificates alone.
    let mut rng = StdRng::seed_from_u64(seed ^ n ^ 0xDEAD_BEEF);
    let w2 = churn_with(ChurnMode::Drift, &w, churned, 5, &mut rng);
    let bare = Reconfigurator::new(Swiper::new(), vec![setting]);
    let certified = Reconfigurator::with_oracles(Swiper::new(), vec![setting], || {
        CachingOracle::new(FullOracle::new()).with_certificates(true)
    });
    rows.push(epoch_step("warm", n, gen_seed, [&w, &w2], bare));
    rows.push(epoch_step("certified", n, gen_seed, [&w, &w2], certified));
    rows
}

/// One measured epoch step: `reconf` solves `base`, then the timed warm
/// re-solve of `next`.
fn epoch_step<O: ValidityOracle + Send>(
    case: &'static str,
    n: u64,
    gen_seed: u64,
    [base, next]: [&Weights; 2],
    mut reconf: Reconfigurator<O>,
) -> Row {
    reconf.advance(base).expect("base epoch solvable");
    let rss_before = peak_rss_kb();
    let t0 = Instant::now();
    let outcome = reconf.advance(next).expect("churned epoch solvable");
    let wall = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
    let rss = peak_rss_kb().saturating_sub(rss_before);
    row(case, n, gen_seed, wall, outcome.solutions[0].assignment.total(), &outcome.stats(), rss)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("solver_scale: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The cells are planned before anything runs (`Schema::scoped`).
    let sizes: Vec<u64> = SIZES.into_iter().filter(|&n| n <= args.max_n).collect();
    let planned: Vec<Row> = sizes
        .iter()
        .flat_map(|&n| ["cold", "warm", "certified"].map(|case| cell(case, n)))
        .collect();
    if planned.is_empty() {
        eprintln!("solver_scale: --max-n {} admits no sweep size", args.max_n);
        return ExitCode::FAILURE;
    }
    let mut rows = Vec::new();
    for &n in &sizes {
        rows.extend(run_size(n, args.seed));
        println!("n={n}: done");
    }

    let mut problems = Vec::new();
    if let Some(budget) = args.budget_ms {
        // The largest swept n ≤ 10⁵; the smallest size is 10³, so one exists.
        let n =
            sizes.iter().copied().filter(|&n| n <= 100_000).max().expect("sizes is non-empty");
        let is_cold = |r: &&Row| SOLVER.key(r) == SOLVER.key(&cell("cold", n));
        let ms =
            rows.iter().find(is_cold).and_then(|r| r.num("wall_ms")).expect("cold row ran");
        if ms > budget.into() {
            problems.push(format!("cold n={n} took {ms} ms, over the {budget} ms budget"));
        } else {
            println!("budget: cold n={n} at {ms} ms within {budget} ms");
        }
    }
    if args.diff.is_some() {
        problems.extend(solver_invariants(&rows));
    }
    gate(&SOLVER, &rows, &args.out, args.diff.as_deref(), &planned, problems)
}
