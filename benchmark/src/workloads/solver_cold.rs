//! `solver_cold` — one cold sweep of the weight-reduction solver.
//!
//! `core` does all the work and nothing else runs. The sweep solves WR,
//! WQ and WS on the four chain replicas (n = 104 … 42 920) and on a
//! seeded whale-skewed population of 10⁵, plus WR at 10⁶, so it sits on
//! both sides of both of the solver's size gates (per-probe path below
//! 4 096 parties, incremental cursor from there, sampler trust window from
//! 2¹⁸ on a hintless solve). The seed picks an isomorphic instance of
//! each population (see `Disguise`). One operation is one solve.

use std::time::Duration;

use swiper_core::{
    verify_qualification, verify_restriction, verify_separation, CoreError, FullOracle, Ratio,
    Solution, SolveStats, Swiper, WeightQualification, WeightRestriction, WeightSeparation,
    Weights,
};
use swiper_weights::CHAINS;

use super::{ensure, ms, whale_population, Config, Disguise, Episode};
use crate::probes::TimedOracle;
use crate::trace::Tracer;

/// The three weight-reduction problems at the thresholds the protocols
/// above them use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// Weight Restriction (1/3, 1/2).
    Wr,
    /// Weight Qualification (1/3, 1/4).
    Wq,
    /// Weight Separation (1/3, 1/2).
    Ws,
}

impl Problem {
    pub fn wr() -> WeightRestriction {
        WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).expect("valid thresholds")
    }
    pub fn wq() -> WeightQualification {
        WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).expect("valid thresholds")
    }
    pub fn ws() -> WeightSeparation {
        WeightSeparation::new(Ratio::of(1, 3), Ratio::of(1, 2)).expect("valid thresholds")
    }

    fn solve_with(
        self,
        oracle: &mut TimedOracle<FullOracle>,
        w: &Weights,
    ) -> Result<Solution, CoreError> {
        let solver = Swiper::new();
        match self {
            Problem::Wr => solver.solve_restriction_with(oracle, w, &Self::wr()),
            Problem::Wq => solver.solve_qualification_with(oracle, w, &Self::wq()),
            Problem::Ws => solver.solve_separation_with(oracle, w, &Self::ws()),
        }
    }

    fn solve(self, w: &Weights) -> Result<Solution, CoreError> {
        let solver = Swiper::new();
        match self {
            Problem::Wr => solver.solve_restriction(w, &Self::wr()),
            Problem::Wq => solver.solve_qualification(w, &Self::wq()),
            Problem::Ws => solver.solve_separation(w, &Self::ws()),
        }
    }

    /// Exact validity of `sol` plus the ticket bound of its theorem.
    pub fn verify(self, w: &Weights, sol: &Solution) -> Result<bool, CoreError> {
        let valid = match self {
            Problem::Wr => verify_restriction(w, &sol.assignment, &Self::wr())?,
            Problem::Wq => verify_qualification(w, &sol.assignment, &Self::wq())?,
            Problem::Ws => verify_separation(w, &sol.assignment, &Self::ws())?,
        };
        Ok(valid && sol.total_tickets() <= u128::from(sol.ticket_bound))
    }
}

/// One cold solve inside a `core.solve` span. With the tracer on, the
/// oracle is wrapped in a [`TimedOracle`] and its checks are recorded as
/// an aggregate `core.oracle_check` span; returns the solution, the solve
/// wall and the oracle's `(checks, busy)`.
pub fn solve_timed(
    problem: Problem,
    w: &Weights,
    op_id: u64,
    tracer: &mut Tracer,
) -> Result<(Solution, Duration, (u64, Duration)), CoreError> {
    let mut timing = (0, Duration::ZERO);
    let (sol, wall) = tracer.time("core.solve", op_id, |t| {
        if !t.enabled() {
            return problem.solve(w);
        }
        let mut oracle = TimedOracle::new(FullOracle::new());
        let sol = problem.solve_with(&mut oracle, w);
        timing = oracle.take_timing();
        t.aggregate("core.oracle_check", timing.0, timing.1);
        sol
    });
    Ok((sol?, wall, timing))
}

/// Digest of the assignments of `solutions`, in order.
pub fn assignments_digest<'a>(solutions: impl Iterator<Item = &'a Solution>) -> u64 {
    solutions.fold(0u64, |digest, sol| {
        let f = sol.assignment.fingerprint();
        digest.rotate_left(7) ^ (f as u64) ^ ((f >> 64) as u64)
    })
}

/// Adds a solve's counters to the episode's `core.*` count metrics.
pub fn add_solve_stats(ep: &mut Episode, s: &SolveStats) {
    ep.add("core.dp_invocations", s.dp_invocations as f64);
    ep.add("core.candidates_checked", s.candidates_checked as f64);
    ep.add(
        "core.settled_by_bounds",
        (s.settled_by_upper_bound + s.settled_by_lower_bound) as f64,
    );
    ep.add("core.cursor_advances", s.cursor_advances as f64);
    ep.add("core.probes_saved", s.probes_saved as f64);
    ep.add("core.certificate_skips", s.certificate_skips as f64);
    ep.add("core.coarse_cert_hits", s.coarse_cert_hits as f64);
}

/// One weight vector and the solves run on it, each with the per-layer
/// metric its wall is reported under.
struct Input {
    weights: Weights,
    solves: Vec<(Problem, &'static str)>,
}

const CHAIN_METRICS: [&str; 4] = [
    "core.cold_ms.aptos",
    "core.cold_ms.tezos",
    "core.cold_ms.filecoin",
    "core.cold_ms.algorand",
];

pub fn episode(cfg: &Config, tracer: &mut Tracer) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let (big, huge) = if cfg.quick { (10_000, 100_000) } else { (100_000, 1_000_000) };

    let (inputs, setup) = tracer.time("weights.gen", 0, |_| {
        let seeded = |w: Weights| Disguise::new(w.len(), w.max(), cfg.seed).apply(&w);
        let mut inputs: Vec<Input> = CHAINS
            .iter()
            .zip(CHAIN_METRICS)
            .map(|(c, m)| Input {
                weights: seeded(c.weights()),
                solves: vec![(Problem::Wr, m), (Problem::Wq, m), (Problem::Ws, m)],
            })
            .collect();
        inputs.push(Input {
            weights: seeded(whale_population(big)),
            solves: vec![
                (Problem::Wr, "core.cold_wr_ms.100k"),
                (Problem::Wq, "core.cold_wq_ms.100k"),
                (Problem::Ws, "core.cold_ws_ms.100k"),
            ],
        });
        inputs.push(Input {
            weights: seeded(whale_population(huge)),
            solves: vec![(Problem::Wr, "core.cold_wr_ms.1m")],
        });
        inputs
    });
    ep.setup = setup;
    ep.set("weights.gen_ms", ms(setup));
    if cfg.setup_only {
        return Ok(ep);
    }

    let mut solved = Vec::new();
    let mut tickets = 0u128;
    for input in &inputs {
        for &(problem, metric) in &input.solves {
            let op = solved.len() as u64;
            let (sol, wall, (checks, busy)) =
                solve_timed(problem, &input.weights, op, tracer).map_err(|e| e.to_string())?;
            ep.wall += wall;
            ep.op_ms.push(ms(wall));
            ep.stage_ms.push(ms(wall));
            ep.add(metric, ms(wall));
            ep.add("core.oracle_checks", checks as f64);
            ep.add("core.oracle_check_ms", ms(busy));
            ep.add("core.search_ms", ms(wall.saturating_sub(busy)));
            add_solve_stats(&mut ep, &sol.stats);
            tickets += sol.total_tickets();
            solved.push((problem, &input.weights, sol));
        }
    }

    // Outside the timed region: every assignment is exactly verified, or
    // (by its digest in `exact`) is the one a verified episode published.
    ep.attempted = solved.len() as u64;
    if cfg.full_checks {
        let ((), verify) = tracer.time("core.verify", 0, |_| {
            for (problem, w, sol) in &solved {
                ep.failed += u64::from(!matches!(problem.verify(w, sol), Ok(true)));
            }
        });
        ep.set("core.verify_ms", ms(verify));
        ensure(ep.failed == 0, || {
            format!("{} of {} solves failed verification", ep.failed, ep.attempted)
        })?;
    }

    ep.cost_per_op = tickets as f64 / solved.len() as f64;
    ep.set("core.tickets_total", tickets as f64);
    ep.exact = vec![
        ("tickets_total", tickets as u64),
        ("dp_invocations", ep.layers["core.dp_invocations"] as u64),
        ("candidates_checked", ep.layers["core.candidates_checked"] as u64),
        ("assignments", assignments_digest(solved.iter().map(|(_, _, sol)| sol))),
    ];
    Ok(ep)
}
