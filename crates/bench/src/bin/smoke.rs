//! Quick solver sanity sweep over the four chain replicas — a fast way to
//! eyeball ticket totals, bounds, modes and runtimes before running the
//! full experiment suite. Each chain also runs a short certified warm
//! replay so the delta-stable certificate fast path's skip counter is
//! visible next to `dp=`, plus one threaded-runtime line: a weighted
//! Bracha broadcast over the chain's whale stakes on the
//! [`ThreadedRuntime`], twin-replayed against the simulator substrate.
//!
//! ```text
//! cargo run --release -p swiper-bench --bin smoke
//! ```

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper_bench::twin_ok;
use swiper_core::{Mode, Ratio, Swiper, WeightRestriction, WeightSeparation, Weights};
use swiper_net::{
    DelayModel, OverlayConfig, OverlayMsg, OverlayNode, OverlayStats, Protocol, SendNodes,
    Simulation, ThreadedRuntime,
};
use swiper_protocols::bracha::{BrachaConfig, BrachaMsg, BrachaNode};
use swiper_weights::epoch::{churn_with, ChurnMode, Reconfigurator, Setting};
use swiper_weights::CHAINS;

/// Epochs of 1%-churn warm replay per chain.
const REPLAY_EPOCHS: u64 = 6;

/// Parties in the runtime line's weighted broadcast: the chain's top
/// stakes, kept small so the all-to-all automaton stays a smoke test.
const RUNTIME_PARTIES: usize = 16;

/// Weighted Bracha replicas over the chain's heaviest stakes.
fn bracha_nodes(weights: &Weights, payload: &[u8]) -> SendNodes<BrachaMsg> {
    let n = weights.len();
    (0..n)
        .map(|me| {
            let config = BrachaConfig::weighted(weights.clone());
            if me == 0 {
                Box::new(BrachaNode::sender(config, 0, payload.to_vec())) as _
            } else {
                Box::new(BrachaNode::new(config, 0)) as _
            }
        })
        .collect()
}

/// Dissemination economy of one overlay configuration: messages per
/// unique first-receipt delivery (and nodes reached) for a weighted
/// Bracha broadcast carried by [`OverlayNode`] on the simulator.
fn gossip_cost(
    weights: &Weights,
    payload: &[u8],
    cfg: &OverlayConfig,
    seed: u64,
) -> (f64, usize) {
    let stats = Arc::new(Mutex::new(OverlayStats::default()));
    let n = weights.len();
    let nodes: Vec<Box<dyn Protocol<Msg = OverlayMsg<BrachaMsg>>>> = (0..n)
        .map(|me| {
            let config = BrachaConfig::weighted(weights.clone());
            let inner: Box<dyn Protocol<Msg = BrachaMsg> + Send> = if me == 0 {
                Box::new(BrachaNode::sender(config, 0, payload.to_vec()))
            } else {
                Box::new(BrachaNode::new(config, 0))
            };
            Box::new(
                OverlayNode::new(inner, weights.clone(), cfg.clone(), seed)
                    .with_stats(Arc::clone(&stats)),
            ) as _
        })
        .collect();
    let report = Simulation::new(nodes, seed).with_delay(DelayModel::Uniform(1, 20)).run();
    let reached = report.outputs.iter().filter(|o| o.as_deref() == Some(payload)).count();
    let s = stats.lock().expect("sim is single-threaded");
    (report.metrics.total_messages() as f64 / s.deliveries.max(1) as f64, reached)
}

fn main() {
    for chain in CHAINS {
        let w = chain.weights();
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        for mode in [Mode::Full, Mode::Linear] {
            let t0 = Instant::now();
            let sol = Swiper::with_mode(mode).solve_restriction(&w, &p).unwrap();
            println!(
                "{:10} n={:6} mode={:?} tickets={:6} bound={:6} dp={} time={:?}",
                chain.name(),
                w.len(),
                mode,
                sol.total_tickets(),
                sol.ticket_bound,
                sol.stats.dp_invocations,
                t0.elapsed()
            );
        }
        let s = WeightSeparation::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let t0 = Instant::now();
        let sol = Swiper::new().solve_separation(&w, &s).unwrap();
        println!(
            "{:10} WS tickets={:6} bound={:6} time={:?}",
            chain.name(),
            sol.total_tickets(),
            sol.ticket_bound,
            t0.elapsed()
        );
        // Certified warm replay: a few 1%-churn epochs through the
        // reconfiguration loop, certificates opted in, to surface the skip
        // counter alongside the DP count.
        let mut reconf = Reconfigurator::new(Swiper::new(), vec![Setting::Restriction(p)])
            .with_certificates(true);
        let mut snapshot = w.clone();
        let churned = snapshot.len().div_ceil(100);
        let mut rng = StdRng::seed_from_u64(7);
        let t0 = Instant::now();
        let mut stats = swiper_core::SolveStats::default();
        for _ in 0..REPLAY_EPOCHS {
            let outcome = reconf.advance(&snapshot).unwrap();
            stats.absorb(&outcome.stats());
            snapshot = churn_with(ChurnMode::Drift, &snapshot, churned, 5, &mut rng);
        }
        println!(
            "{:10} replay epochs={} dp={} cert_skips={} cache={}/{} time={:?}",
            chain.name(),
            REPLAY_EPOCHS,
            stats.dp_invocations,
            stats.certificate_skips,
            stats.cache_hits,
            stats.cache_lookups(),
            t0.elapsed()
        );
        // Threaded-runtime line: weighted Bracha over the chain's whale
        // stakes, with the delivery trace replayed on the simulator twin.
        let mut stakes = w.as_slice().to_vec();
        stakes.sort_unstable_by(|a, b| b.cmp(a));
        stakes.truncate(RUNTIME_PARTIES);
        let whales = Weights::new(stakes).unwrap();
        let payload = format!("smoke payload for {}", chain.name()).into_bytes();
        let t0 = Instant::now();
        let full =
            ThreadedRuntime::new(bracha_nodes(&whales, &payload)).with_workers(2).run_traced();
        let twin_ok = twin_ok(&full, bracha_nodes(&whales, &payload));
        let delivered = full.report.outputs.iter().filter(|o| o.is_some()).count();
        println!(
            "{:10} runtime n={:6} workers=2 delivered={}/{} msgs={:5} twin={} time={:?}",
            chain.name(),
            whales.len(),
            delivered,
            whales.len(),
            full.report.metrics.delivered_messages(),
            if twin_ok { "ok" } else { "DIVERGED" },
            t0.elapsed()
        );
        assert!(twin_ok, "smoke: {} runtime twin replay diverged", chain.name());
        // Gossip line: the overlay's dissemination economy versus reliable
        // flooding, both backends carrying the same weighted Bracha
        // workload over the whale stakes (flooding = every peer pinned in
        // the active view).
        let t0 = Instant::now();
        let (overlay_cost, overlay_reach) =
            gossip_cost(&whales, &payload, &OverlayConfig::default(), 9);
        let flood_cfg = OverlayConfig {
            active_degree: whales.len() - 1,
            prune: false,
            ..OverlayConfig::default()
        };
        let (flood_cost, flood_reach) = gossip_cost(&whales, &payload, &flood_cfg, 9);
        println!(
            "{:10} gossip  n={:6} overlay msgs/delivery={:.2} fullmesh={:.2} reach={}/{} \
             time={:?}",
            chain.name(),
            whales.len(),
            overlay_cost,
            flood_cost,
            overlay_reach,
            whales.len(),
            t0.elapsed()
        );
        assert_eq!(overlay_reach, whales.len(), "smoke: {} overlay reach", chain.name());
        assert_eq!(flood_reach, whales.len(), "smoke: {} flood reach", chain.name());
    }
}
