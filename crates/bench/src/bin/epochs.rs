//! Epoch-reconfiguration replay: perturbed chain snapshots through the
//! incremental re-solve loop.
//!
//! For each chain × churn level, the driver replays `--epochs` snapshots
//! where `churn%` of the parties move up to ±5% of their stake per epoch,
//! re-solving WR(1/3, 1/2) each epoch three ways:
//!
//! * **warm** — the `Reconfigurator`'s warm-started bracket over the
//!   persistent per-track `CachingOracle`;
//! * **published** — the loop runs in verified mode, so the published
//!   assignments are the cold-identical ones (re-derived through the
//!   shared cache, which the warm pass just filled at the flip region);
//! * **baseline** — an independent cold solve with a fresh oracle, the
//!   "no incremental machinery" yardstick for dp counts.
//!
//! Per epoch it prints `dp_invocations` (warm pass vs baseline) and the
//! running cache hit rate; per scenario a summary line including how
//! often the warm bracket settled on a different (equally valid) local
//! minimum than cold bisection — the non-monotone dips discussed in
//! `Swiper::resolve_from`. Solver-mode scenarios are also written as
//! `BENCH_epochs.json`, one row per chain × churn; its columns and how
//! each is gated are the `swiper_bench::EPOCHS` schema table.
//!
//! ```text
//! cargo run --release -p swiper-bench --bin epochs -- [--epochs N] \
//!     [--churn 1,5,20] [--churn-mode drift|mixed] [--chains aptos,tezos] \
//!     [--seed S] [--smr] [--ci-smoke] [--quiet] [--out PATH] [--diff BASELINE]
//! ```
//!
//! `--smr` switches from solver-only replay to **live SMR replay**: each
//! epoch's solutions are spliced into a running [`SmrInstance`] via
//! [`Reconfigurator::drive_simulation`] while a teardown-rebuild twin
//! replays the same epochs the hard way, and the driver reports
//! rounds-survived-per-epoch-change plus any ledger divergence between
//! the two.
//!
//! `--ci-smoke` additionally exits non-zero when the 1%-churn scenarios
//! record a zero cache hit rate (solver mode) or when the live ledger
//! diverges from the teardown-rebuild baseline / stops beating it on
//! restarted rounds at 1% churn (SMR mode) — the nightly guards that the
//! incremental machinery keeps earning its keep. SMR mode also runs the
//! **stake-refresh audit**: a vouch-style weighted quorum set crosses
//! each epoch's `EpochEvent`, and any epoch whose electorate's weights
//! diverge from that epoch's snapshot fails the run
//! (per-epoch `stake=ok|STALE` in the replay lines, `stake_mismatches`
//! in the summary).

use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper_bench::{gate, verdict, Row, EPOCHS};
use swiper_core::{
    CachingOracle, FullOracle, Ratio, Swiper, VirtualUsers, WeightQualification,
    WeightRestriction,
};
use swiper_protocols::quorum::{Electorate, QuorumSet, Roster};
use swiper_protocols::smr::{ReconfigureMode, SmrInstance};
use swiper_weights::epoch::{churn_with, ChurnMode, Reconfigurator, Setting};
use swiper_weights::Chain;

struct Args {
    epochs: u64,
    churn_pcts: Vec<u64>,
    churn_mode: ChurnMode,
    chains: Vec<Chain>,
    seed: u64,
    smr: bool,
    ci_smoke: bool,
    quiet: bool,
    out: String,
    diff: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        epochs: 16,
        churn_pcts: vec![1, 5, 20],
        churn_mode: ChurnMode::Drift,
        chains: vec![Chain::Aptos, Chain::Tezos],
        seed: 1,
        smr: false,
        ci_smoke: false,
        quiet: false,
        out: "BENCH_epochs.json".into(),
        diff: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--epochs" => {
                args.epochs =
                    value("--epochs")?.parse().map_err(|e| format!("--epochs: {e}"))?;
            }
            "--churn" => {
                args.churn_pcts = value("--churn")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--churn: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--chains" => {
                args.chains = value("--chains")?
                    .split(',')
                    .map(|s| {
                        Chain::parse(s.trim()).ok_or_else(|| format!("unknown chain `{s}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--churn-mode" => {
                let spelled = value("--churn-mode")?;
                args.churn_mode = ChurnMode::parse(spelled.trim())
                    .ok_or_else(|| format!("unknown churn mode `{spelled}`"))?;
            }
            "--smr" => args.smr = true,
            "--ci-smoke" => args.ci_smoke = true,
            "--quiet" => args.quiet = true,
            "--out" => args.out = value("--out")?,
            "--diff" => args.diff = Some(value("--diff")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.epochs == 0 || args.churn_pcts.is_empty() || args.chains.is_empty() {
        return Err("need at least one epoch, churn level and chain".into());
    }
    Ok(args)
}

/// The identity of one solver-mode scenario.
fn cell(chain: Chain, churn_pct: u64) -> Row {
    Row::default()
        .with("bench", "epochs")
        .with("chain", chain.name())
        .with("churn_pct", churn_pct)
}

/// Runs `f`, adding its wall-clock microseconds to `us`.
fn timed<T>(us: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *us += t0.elapsed().as_micros() as u64;
    out
}

/// One chain × churn replay. Two verified-mode loops, each around a
/// verdict cache, consume the same snapshot stream — one with delta-stable
/// certificates, one without — so their warm passes face identical members
/// and the DP-count gap is attributable to certificates alone.
/// Returns the scenario's row, or `None` (having said why) when it failed.
fn run_scenario(chain: Chain, churn_pct: u64, args: &Args) -> Option<Row> {
    let solver = Swiper::new();
    let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).expect("valid params");
    let setting = Setting::Restriction(wr);
    let mut reconf = Reconfigurator::with_oracles(solver, vec![setting], || {
        CachingOracle::new(FullOracle::new()).with_certificates(true)
    })
    .with_cold_check(true);
    let mut plain = Reconfigurator::with_oracles(solver, vec![setting], || {
        CachingOracle::new(FullOracle::new())
    })
    .with_cold_check(true);
    let mut snapshot = chain.weights();
    let churned = (snapshot.len() * usize::try_from(churn_pct).expect("small")).div_ceil(100);
    // Distinct RNG stream per scenario, reproducible from --seed.
    let mut rng = StdRng::seed_from_u64(args.seed ^ (churn_pct << 32) ^ chain.n() as u64);
    let mut divergences = 0u64;
    let mut warm_dp_total = 0u64;
    let mut plain_dp_total = 0u64;
    let mut base_dp_total = 0u64;
    let mut cert_skips = 0u64;
    let mut hits = 0u64;
    let mut lookups = 0u64;
    // Wall clock of the three solves, each timed on its own.
    let (mut certified_us, mut plain_us, mut cold_us) = (0u64, 0u64, 0u64);
    for epoch in 0..args.epochs {
        let outcome = timed(&mut certified_us, || reconf.advance(&snapshot));
        let plain_outcome = timed(&mut plain_us, || plain.advance(&snapshot));
        let (outcome, plain_outcome) = match (outcome, plain_outcome) {
            (Ok(o), Ok(p)) => (o, p),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{chain} churn={churn_pct}% epoch={epoch}: solve failed: {e}");
                return None;
            }
        };
        let instance = setting.instance(snapshot.clone());
        let baseline = timed(&mut cold_us, || solver.solve_instance(&instance))
            .expect("baseline solve cannot fail where advance succeeded");
        // Verified mode publishes the cold-identical result; if this ever
        // trips, the incremental machinery has an actual bug. The
        // certificate-free twin must agree too — certificates may only
        // skip work, never move the published answer.
        if outcome.solutions[0].assignment != baseline.assignment
            || plain_outcome.solutions[0].assignment != baseline.assignment
        {
            eprintln!(
                "{chain} churn={churn_pct}% epoch={epoch}: published assignment differs \
                 from the fresh cold solve — incremental machinery is broken"
            );
            return None;
        }
        // Divergence = the warm bracket settled on a different (equally
        // valid) local minimum than cold bisection — a non-monotone dip.
        // Telemetry, not an error: the published result above is cold.
        divergences += u64::from(outcome.verified() == Some(false));
        let warm = outcome.warm_stats().expect("verified mode records the warm pass");
        let plain_warm = plain_outcome.warm_stats().expect("verified mode");
        let published = outcome.stats();
        warm_dp_total += warm.dp_invocations;
        plain_dp_total += plain_warm.dp_invocations;
        base_dp_total += baseline.stats.dp_invocations;
        cert_skips += warm.certificate_skips + published.certificate_skips;
        hits += warm.cache_hits + published.cache_hits;
        lookups += warm.cache_lookups() + published.cache_lookups();
        if !args.quiet {
            println!(
                "{:10} churn={:2}% epoch={:3} tickets={:6} delta={:4} dp={:2} dp_plain={:2} \
                 dp_cold={:2} skips={:2} hit_rate={:.2}",
                chain.name(),
                churn_pct,
                epoch,
                outcome.solutions[0].total_tickets(),
                outcome.delta(0).map_or(0, |d| d.changes().len()),
                warm.dp_invocations,
                plain_warm.dp_invocations,
                baseline.stats.dp_invocations,
                warm.certificate_skips + published.certificate_skips,
                if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
            );
        }
        snapshot = churn_with(args.churn_mode, &snapshot, churned, 5, &mut rng);
    }
    let rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
    println!(
        "{:10} churn={:2}% summary: epochs={} dp_warm={} dp_warm_plain={} dp_cold={} \
         cert_skips={} cache={}/{} ({:.0}%) divergences={} cached_verdicts={}",
        chain.name(),
        churn_pct,
        args.epochs,
        warm_dp_total,
        plain_dp_total,
        base_dp_total,
        cert_skips,
        hits,
        lookups,
        rate * 100.0,
        divergences,
        reconf.oracles().iter().map(CachingOracle::len).sum::<usize>(),
    );
    let row = cell(chain, churn_pct)
        .with("epochs", args.epochs)
        .with("bracket_divergence", divergences)
        .with("cert_skips", cert_skips)
        .with("warm_dp", warm_dp_total)
        .with("plain_dp", plain_dp_total)
        .with("cold_dp", base_dp_total)
        .with("hit_rate_pct", (rate * 100.0).round() as u64)
        .with("certified_us", certified_us)
        .with("plain_us", plain_us)
        .with("cold_us", cold_us);
    Some(row)
}

/// Batches are a pure function of `(round, party)`, so the live instance
/// and the teardown-rebuild twin disseminate identical payloads.
fn batch_of(round: u64, party: usize) -> Vec<u8> {
    format!("b{round}-{party}").into_bytes()
}

struct SmrReport {
    failed: bool,
    survived: u64,
    restarted_live: u64,
    restarted_base: u64,
    /// Epochs where the stable-id census missed the live population —
    /// a double-counted (or stranded) quorum voter. Always a failure.
    double_counts: u64,
    /// Epochs where the published vouch-quorum weights diverged from the
    /// epoch's snapshot — the stake-refresh audit. Always a failure: a
    /// vouch tally weighing votes under any other epoch's stake is
    /// exactly the stale-weights hole the `EpochEvent` contract closes.
    stake_mismatches: u64,
}

/// One chain × churn **live SMR** replay: every epoch is re-solved for
/// both tracks (WQ for dissemination, WR for the beacon), spliced into a
/// live [`SmrInstance`] and torn down + rebuilt in a baseline twin. Per
/// epoch the instance pipelines `ROUNDS_PER_EPOCH` rounds and leaves
/// `PIPELINE_DEPTH` of them un-committed across the boundary — those are
/// the rounds at stake.
fn run_smr_scenario(chain: Chain, churn_pct: u64, args: &Args) -> SmrReport {
    const ROUNDS_PER_EPOCH: u64 = 4;
    const PIPELINE_DEPTH: usize = 2;
    const PROPOSERS: usize = 8;

    let solver = Swiper::new();
    let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).expect("valid params");
    let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).expect("valid params");
    let mut reconf =
        Reconfigurator::new(solver, vec![Setting::Qualification(wq), Setting::Restriction(wr)]);
    let n = chain.n();
    let alive: Vec<usize> = (0..n).collect();
    let mut snapshot = chain.weights();
    let churned = (n * usize::try_from(churn_pct).expect("small")).div_ceil(100);
    let mut rng = StdRng::seed_from_u64(args.seed ^ (churn_pct << 32) ^ n as u64);
    let snapshots: Vec<_> = (0..args.epochs)
        .map(|_| {
            let current = snapshot.clone();
            snapshot = churn_with(args.churn_mode, &snapshot, churned, 5, &mut rng);
            current
        })
        .collect();

    let mut live: Option<SmrInstance> = None;
    let mut base: Option<SmrInstance> = None;
    // Cross-epoch quorum-identity audit: a census quorum takes every
    // live WR virtual user's vote each epoch, crossing the epoch's delta.
    // Stable keying must land exactly on the live population every
    // epoch — any excess is a double-counted voter (the dense-id bug),
    // any deficit a stranded survivor.
    let mut audit: Option<(Roster, QuorumSet<()>)> = None;
    let mut double_counts = 0u64;
    // Cross-epoch stake-refresh audit: a vouch-style weighted quorum set
    // crosses each epoch's event; its electorate's weight vector must be
    // bit-identical to the epoch's snapshot, or the vouch path is
    // tallying under stale stake.
    let mut vouch: Option<QuorumSet<()>> = None;
    let mut stake_mismatches = 0u64;
    let session_seed = args.seed;
    let quiet = args.quiet;
    let mut epoch = 0u64;
    let result = reconf.drive_simulation(snapshots, |weights, outcome| {
        let wq_t = outcome.solutions[0].assignment.clone();
        let wr_t = outcome.solutions[1].assignment.clone();
        let vouch_q = vouch.get_or_insert_with(|| {
            QuorumSet::new(Electorate::Weighted(weights.clone()), |_| Ratio::of(1, 4))
        });
        if let Some(event) = outcome.event(1) {
            vouch_q.on_epoch(event);
        }
        let stake_stale =
            !matches!(vouch_q.electorate(), Electorate::Weighted(w) if w == weights);
        stake_mismatches += u64::from(stake_stale);
        match &mut audit {
            Some((roster, census)) => {
                if let Some(event) = outcome.event(1) {
                    roster.apply_delta(event.delta()).expect("WR deltas arrive in sequence");
                    census.on_epoch(event);
                }
                for v in 0..roster.total() {
                    census.vote((), roster.stable_of(v));
                }
                double_counts += u64::from(census.tally(&()) != roster.total() as u128);
            }
            None => {
                let mapping = VirtualUsers::from_assignment(&wr_t).expect("fits memory");
                let roster = Roster::new(mapping);
                let mut census =
                    QuorumSet::new(Electorate::Roster(roster.clone()), |_| Ratio::of(0, 1));
                for v in 0..roster.total() {
                    census.vote((), roster.stable_of(v));
                }
                double_counts += u64::from(census.tally(&()) != roster.total() as u128);
                audit = Some((roster, census));
            }
        }
        match (&mut live, &mut base) {
            (Some(l), Some(b)) => {
                let crossing = l.reconfigure(
                    weights.clone(),
                    wq_t.clone(),
                    wr_t.clone(),
                    ReconfigureMode::Live,
                );
                let _ = b.reconfigure(weights.clone(), wq_t, wr_t, ReconfigureMode::Rebuild);
                if !quiet {
                    println!(
                        "{:10} SMR churn={:2}% epoch={:3} survived={} restarted={} \
                         rekeyed={} wq_delta={:3} wr_delta={:3} stake={}",
                        chain.name(),
                        churn_pct,
                        epoch,
                        crossing.survived,
                        crossing.restarted,
                        u8::from(crossing.rekeyed),
                        outcome.delta(0).map_or(0, |d| d.changes().len()),
                        outcome.delta(1).map_or(0, |d| d.changes().len()),
                        if stake_stale { "STALE" } else { "ok" },
                    );
                }
            }
            _ => {
                live = Some(SmrInstance::new(
                    weights.clone(),
                    wq_t.clone(),
                    Ratio::of(1, 4),
                    wr_t.clone(),
                    session_seed,
                ));
                base = Some(SmrInstance::new(
                    weights.clone(),
                    wq_t,
                    Ratio::of(1, 4),
                    wr_t,
                    session_seed,
                ));
            }
        }
        let (l, b) = (live.as_mut().expect("init"), base.as_mut().expect("init"));
        // The heaviest parties propose (chain replicas list whales
        // first); stake-weighted leaders usually land in that committee,
        // so most rounds commit. The whole alive set backs the beacon.
        // Committee size keeps the replay tractable on real chain sizes
        // without changing the epoch semantics.
        let proposers: Vec<usize> = (0..PROPOSERS.min(n)).collect();
        for _ in 0..ROUNDS_PER_EPOCH {
            for inst in [&mut *l, &mut *b] {
                inst.prepare(&proposers, batch_of);
                if inst.pipeline_len() > PIPELINE_DEPTH {
                    inst.commit(&alive);
                }
            }
        }
        epoch += 1;
    });
    if let Err(e) = result {
        eprintln!("{chain} SMR churn={churn_pct}%: solve failed: {e}");
        return SmrReport {
            failed: true,
            survived: 0,
            restarted_live: 0,
            restarted_base: 0,
            double_counts: 0,
            stake_mismatches: 0,
        };
    }
    let (mut l, mut b) = (live.expect("ran"), base.expect("ran"));
    while l.commit(&alive).is_some() {}
    while b.commit(&alive).is_some() {}
    let diverged = l.ledger() != b.ledger();
    if diverged {
        eprintln!(
            "{chain} SMR churn={churn_pct}%: live ledger diverged from the \
             teardown-rebuild baseline — the live reconfiguration is broken"
        );
    }
    if double_counts > 0 {
        eprintln!(
            "{chain} SMR churn={churn_pct}%: quorum double-count telemetry tripped on \
             {double_counts} epoch(s) — stable-id vote migration is broken"
        );
    }
    if stake_mismatches > 0 {
        eprintln!(
            "{chain} SMR churn={churn_pct}%: vouch-quorum weights diverged from the epoch \
             snapshot on {stake_mismatches} epoch(s) — the stake refresh is broken"
        );
    }
    println!(
        "{:10} SMR churn={:2}% summary: epochs={} committed={} survived={} \
         restarted_live={} restarted_base={} rekeys={}/{} coded_mb={:.2}/{:.2} \
         double_counts={} stake_mismatches={} ledger={}",
        chain.name(),
        churn_pct,
        args.epochs,
        l.ledger().len(),
        l.survived_rounds(),
        l.restarted_rounds(),
        b.restarted_rounds(),
        l.rekeys(),
        b.rekeys(),
        l.coded_bytes() as f64 / 1e6,
        b.coded_bytes() as f64 / 1e6,
        double_counts,
        stake_mismatches,
        if diverged { "DIVERGED" } else { "match" },
    );
    SmrReport {
        failed: diverged || double_counts > 0 || stake_mismatches > 0,
        survived: l.survived_rounds(),
        restarted_live: l.restarted_rounds(),
        restarted_base: b.restarted_rounds(),
        double_counts,
        stake_mismatches,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("epochs: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut problems = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for &chain in &args.chains {
        for &churn_pct in &args.churn_pcts {
            if args.smr {
                let report = run_smr_scenario(chain, churn_pct, &args);
                if report.failed {
                    problems.push(format!("{chain} SMR churn={churn_pct}%: replay failed"));
                }
                if args.ci_smoke && report.double_counts > 0 {
                    eprintln!(
                        "{chain} SMR churn={churn_pct}%: {} double-count epoch(s) \
                         (see telemetry above)",
                        report.double_counts
                    );
                }
                if args.ci_smoke && report.stake_mismatches > 0 {
                    eprintln!(
                        "{chain} SMR churn={churn_pct}%: {} stale-stake epoch(s) — \
                         published vouch weights diverged from the snapshot",
                        report.stake_mismatches
                    );
                }
                if args.ci_smoke && churn_pct == 1 {
                    if report.restarted_live >= report.restarted_base {
                        problems.push(format!(
                            "{chain} SMR churn=1%: live reconfiguration no longer \
                             reduces restarted rounds ({} vs {})",
                            report.restarted_live, report.restarted_base
                        ));
                    }
                    if report.survived == 0 {
                        problems.push(format!(
                            "{chain} SMR churn=1%: no round ever survived an epoch \
                             change — the live pipeline stopped earning its keep"
                        ));
                    }
                }
                continue;
            }
            let Some(row) = run_scenario(chain, churn_pct, &args) else {
                problems.push(format!("{chain} churn={churn_pct}%: replay failed"));
                continue;
            };
            if args.ci_smoke && churn_pct == 1 {
                let count = |f| row.num(f).unwrap_or(0);
                if count("hit_rate_pct") == 0 {
                    problems.push(format!(
                        "{chain} churn=1%: cache hit rate is zero — the verdict cache \
                         stopped earning its keep"
                    ));
                }
                if count("plain_dp") > 0 && count("warm_dp") >= count("plain_dp") {
                    problems.push(format!(
                        "{chain} churn=1%: certificates no longer skip DP calls \
                         (certified warm {} vs plain warm {})",
                        count("warm_dp"),
                        count("plain_dp")
                    ));
                }
                if count("cert_skips") == 0 {
                    problems.push(format!(
                        "{chain} churn=1%: zero certificate skips — the delta-stable \
                         fast path stopped earning its keep"
                    ));
                }
            }
            rows.push(row);
        }
    }
    if args.smr {
        return verdict(&problems);
    }
    // The scenarios asked for, not the ones that produced a row (`Schema::scoped`).
    let planned: Vec<Row> = args
        .chains
        .iter()
        .flat_map(|&chain| args.churn_pcts.iter().map(move |&churn_pct| cell(chain, churn_pct)))
        .collect();
    gate(&EPOCHS, &rows, &args.out, args.diff.as_deref(), &planned, problems)
}
