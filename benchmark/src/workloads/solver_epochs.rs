//! `solver_epochs` — warm re-solves through the reconfiguration loop.
//!
//! The same solver as `solver_cold`, used differently: a
//! `Reconfigurator` tracking the two problems the SMR composition needs
//! (WR for the beacon, WQ for dispersal) consumes a stream of lightly
//! churned snapshots, so the work goes through `CachingOracle`, warm
//! brackets and verdict certificates instead of cold bisection. Epoch 0
//! is set-up; one operation is one warm two-track `advance`.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper_core::{
    CachingOracle, EpochEvent, FullOracle, Instance, Solution, SolveStats, Swiper, TicketDelta,
    Weights,
};
use swiper_weights::epoch::{churn_with, ChurnMode, Reconfigurator, Setting};

use super::solver_cold::{add_solve_stats, assignments_digest};
use super::{
    ensure, ms, whale_population, Config, Disguise, Episode, Problem, POPULATION_SEED,
};
use crate::probes::TimedOracle;
use crate::trace::Tracer;

/// Share of parties whose stake moves per epoch, in percent, and by how
/// much (the repo's epoch benches use the same 1 % / ±5 % drift).
const CHURN_PCT: usize = 1;
const CHURN_MAGNITUDE_PCT: u64 = 5;

type ProbedOracle = TimedOracle<CachingOracle<TimedOracle<FullOracle>>>;

/// Replays one track alone over the episode's snapshots with probes
/// around the cache layer and around the exact oracle beneath it.
/// Returns the mean warm solve wall and adds the oracle split to `ep`.
fn single_track_replay(
    problem: Problem,
    snapshots: &[Weights],
    base: &Weights,
    ep: &mut Episode,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let instance = |w: &Weights| match problem {
        Problem::Wr => Instance::restriction(w.clone(), Problem::wr()),
        Problem::Wq => Instance::qualification(w.clone(), Problem::wq()),
        Problem::Ws => Instance::separation(w.clone(), Problem::ws()),
    };
    let solver = Swiper::new();
    let mut oracle: ProbedOracle = TimedOracle::new(
        CachingOracle::new(TimedOracle::new(FullOracle::new())).with_certificates(true),
    );
    let (cold, _) = tracer
        .time("core.solve", 0, |_| solver.solve_instance_with(&mut oracle, &instance(base)));
    let mut prev: Solution = cold.map_err(|e| e.to_string())?;
    let _ = oracle.take_timing();
    let (_, full_before) = oracle.inner().inner().timing();
    let mut total = Duration::ZERO;
    for (i, w) in snapshots.iter().enumerate() {
        let inst = instance(w);
        let (sol, wall) = tracer.time("core.resolve", i as u64, |t| {
            let sol = solver.resolve_from_with(&mut oracle, &prev, &inst);
            let (checks, busy) = oracle.take_timing();
            t.aggregate("core.oracle_check", checks, busy);
            ep.add("core.oracle_checks", checks as f64);
            ep.add("core.oracle_check_ms", ms(busy));
            sol
        });
        prev = sol.map_err(|e| e.to_string())?;
        total += wall;
    }
    let (_, full_after) = oracle.inner().inner().timing();
    ep.add("core.full_oracle_ms", ms(full_after - full_before));
    Ok(ms(total) / snapshots.len() as f64)
}

pub fn episode(cfg: &Config, tracer: &mut Tracer) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let n = if cfg.quick { 10_000 } else { 100_000 };
    let epochs = if cfg.quick { 3 } else { 6 };
    let problems = [Problem::Wr, Problem::Wq];
    let settings =
        vec![Setting::Restriction(Problem::wr()), Setting::Qualification(Problem::wq())];

    // Set-up: the population, its churned successors, and the cold epoch 0.
    let open = tracer.enter("bench.setup", 0);
    let (mut base, gen_wall) = tracer.time("weights.gen", 0, |_| whale_population(n));
    let mut rng = StdRng::seed_from_u64(POPULATION_SEED ^ 0xDEAD_BEEF);
    let mut snapshots = Vec::with_capacity(epochs);
    let mut churn_wall = Duration::ZERO;
    for i in 0..epochs {
        let prev = snapshots.last().unwrap_or(&base);
        let (next, wall) = tracer.time("weights.churn_gen", i as u64, |_| {
            churn_with(
                ChurnMode::Drift,
                prev,
                (n * CHURN_PCT).div_ceil(100),
                CHURN_MAGNITUDE_PCT,
                &mut rng,
            )
        });
        churn_wall += wall;
        snapshots.push(next);
    }
    // The seed's isomorphic image of the whole stream (see `Disguise`).
    let disguise = Disguise::new(n, base.max(), cfg.seed);
    base = disguise.apply(&base);
    for snapshot in &mut snapshots {
        *snapshot = disguise.apply(snapshot);
    }
    let mut reconf = Reconfigurator::new(Swiper::new(), settings);
    let (genesis, _) = tracer.time("weights.advance", 0, |_| reconf.advance(&base));
    let genesis = genesis.map_err(|e| e.to_string())?;
    ep.setup = tracer.exit(open);
    ep.set("weights.gen_ms", ms(gen_wall));
    ep.set("weights.churn_gen_ms_mean", ms(churn_wall) / epochs as f64);
    if cfg.setup_only {
        return Ok(ep);
    }

    // Timed: the warm advances.
    let mut outcomes = Vec::with_capacity(epochs);
    for (i, snapshot) in snapshots.iter().enumerate() {
        let (outcome, wall) =
            tracer.time("weights.advance", i as u64 + 1, |_| reconf.advance(snapshot));
        ep.wall += wall;
        ep.op_ms.push(ms(wall));
        ep.stage_ms.push(ms(wall));
        outcomes.push(outcome.map_err(|e| e.to_string())?);
    }
    ep.set("weights.advance_ms_mean", ms(ep.wall) / epochs as f64);

    // Outside the timed region: count what was published; verify it exactly,
    // or (by its digest in `exact`) as what a verified episode published.
    let mut tickets = 0u128;
    let mut stats = SolveStats::default();
    for outcome in &outcomes {
        ep.attempted += 1;
        ep.failed += u64::from(outcome.events.iter().any(Option::is_none));
        tickets += outcome.solutions.iter().map(Solution::total_tickets).sum::<u128>();
        stats.absorb(&outcome.stats());
    }
    if cfg.full_checks {
        let ((), verify) = tracer.time("core.verify", 0, |_| {
            for (outcome, snapshot) in outcomes.iter().zip(&snapshots) {
                let valid =
                    outcome.solutions.iter().zip(problems).all(|(sol, problem)| {
                        matches!(problem.verify(snapshot, sol), Ok(true))
                    });
                ep.failed += u64::from(!valid);
            }
        });
        ep.set("core.verify_ms", ms(verify));
    }
    ensure(ep.failed == 0, || format!("{} of {} advances failed", ep.failed, ep.attempted))?;
    add_solve_stats(&mut ep, &stats);
    let attempted_lookups = stats.cache_lookups();
    let useful = stats.cache_hits + stats.certificate_skips + stats.coarse_cert_hits;
    ep.set("core.cache_hit_ratio", useful as f64 / attempted_lookups.max(1) as f64);
    ep.set("core.tickets_total", tickets as f64);
    ep.cost_per_op = tickets as f64 / epochs as f64;
    ep.exact = vec![
        ("tickets_total", tickets as u64),
        ("dp_invocations", stats.dp_invocations),
        ("candidates_checked", stats.candidates_checked),
        ("assignments", assignments_digest(outcomes.iter().flat_map(|o| &o.solutions))),
    ];

    if tracer.enabled() {
        // What `advance` spends outside the solver: the per-track delta and
        // event construction, called directly on the published assignments.
        let mut prev = &genesis;
        let mut prev_w = &base;
        let (mut build, mut parties) = (Duration::ZERO, 0usize);
        for (i, (outcome, snapshot)) in outcomes.iter().zip(&snapshots).enumerate() {
            for (old, new) in prev.solutions.iter().zip(&outcome.solutions) {
                let (event, wall) = tracer.time("weights.event_build", i as u64, |_| {
                    let delta = TicketDelta::between(&old.assignment, &new.assignment)?;
                    EpochEvent::new(i as u64 + 1, delta, prev_w, snapshot.clone(), 0)
                });
                let event = event.map_err(|e| e.to_string())?;
                build += wall;
                parties += event.delta().changes().len();
            }
            (prev, prev_w) = (outcome, snapshot);
        }
        ep.set("weights.event_build_ms_mean", ms(build) / epochs as f64);
        ep.set("weights.delta_parties_mean", parties as f64 / epochs as f64);

        // Where a warm solve's time goes, one track at a time.
        let wr = single_track_replay(Problem::Wr, &snapshots, &base, &mut ep, tracer)?;
        let wq = single_track_replay(Problem::Wq, &snapshots, &base, &mut ep, tracer)?;
        ep.set("core.warm_wr_ms_mean", wr);
        ep.set("core.warm_wq_ms_mean", wq);
        let oracle_ms = ep.layers["core.oracle_check_ms"];
        ep.set("core.cache_layer_ms", oracle_ms - ep.layers["core.full_oracle_ms"]);
        ep.set("core.search_ms", (wr + wq) * epochs as f64 - oracle_ms);
    }
    Ok(ep)
}
