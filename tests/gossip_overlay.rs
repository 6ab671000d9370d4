//! The gossip overlay as a dissemination backend, end to end: weighted
//! Bracha rides `OverlayNode` instead of full-mesh expansion, on both
//! substrates (seeded simulator sweeps; threaded runtime over channel and
//! socket transports with bit-identical twin replay), under sabotage
//! (mangled eager copies, a silent tree root: recovered via graft), and
//! with detected churn composing into the epoch machinery through the
//! `Reconfigurator`.

use std::sync::{Arc, Mutex};

use swiper::net::adversary::{Mangler, Silent};
use swiper::net::{
    ChurnLedger, DelayModel, OverlayCodec, OverlayConfig, OverlayMsg, OverlayNode,
    OverlayStats, Protocol, SendNodes, Simulation, SocketTransport, ThreadedRuntime,
};
use swiper::protocols::bracha::{BrachaConfig, BrachaMsg, BrachaNode};
use swiper::protocols::wire::BrachaCodec;
use swiper::weights::epoch::{Reconfigurator, Setting};
use swiper::{Ratio, Swiper, WeightRestriction, Weights};

const PAYLOAD: &[u8] = b"overlay payload";

/// Skewed-but-bounded stake: every party holds between 1 and 97.
fn stake(n: usize) -> Weights {
    Weights::new((0..n as u64).map(|p| 1 + (p * 7919) % 97).collect()).unwrap()
}

fn bracha_inner(
    me: usize,
    weights: &Weights,
    payload: &[u8],
) -> Box<dyn Protocol<Msg = BrachaMsg> + Send> {
    let config = BrachaConfig::weighted(weights.clone());
    if me == 0 {
        Box::new(BrachaNode::sender(config, 0, payload.to_vec()))
    } else {
        Box::new(BrachaNode::new(config, 0))
    }
}

/// Weighted Bracha (node 0 the sender of `payload`) wrapped in the
/// overlay, one shared stats block across the fleet.
fn overlay_bracha(
    n: usize,
    seed: u64,
    cfg: &OverlayConfig,
    stats: Option<&Arc<Mutex<OverlayStats>>>,
    payload: &[u8],
) -> SendNodes<OverlayMsg<BrachaMsg>> {
    let weights = stake(n);
    (0..n)
        .map(|me| {
            let mut node = OverlayNode::new(
                bracha_inner(me, &weights, payload),
                weights.clone(),
                cfg.clone(),
                seed,
            );
            if let Some(s) = stats {
                node = node.with_stats(Arc::clone(s));
            }
            Box::new(node) as _
        })
        .collect()
}

/// Drops the `Send` bound so the same constructors feed sim and replay.
fn desend<M>(nodes: SendNodes<M>) -> Vec<Box<dyn Protocol<Msg = M>>> {
    nodes.into_iter().map(|b| b as Box<dyn Protocol<Msg = M>>).collect()
}

/// Reach sweeps on the simulator: every node delivers the weighted Bracha
/// payload over the overlay, every origination reaches all `n` nodes, and
/// the measured msgs/delivery stays well below `n` — the per-delivery cost
/// of the n²-flood baseline (reliable full-mesh dissemination, where each
/// node forwards each new payload to all `n` peers).
#[test]
fn weighted_bracha_reaches_everyone_over_the_overlay() {
    for (n, seeds) in [(64usize, &[1u64, 42, 1337][..]), (256, &[7u64][..])] {
        for &seed in seeds {
            let stats = Arc::new(Mutex::new(OverlayStats::default()));
            let report = Simulation::new(
                desend(overlay_bracha(
                    n,
                    seed,
                    &OverlayConfig::default(),
                    Some(&stats),
                    PAYLOAD,
                )),
                seed,
            )
            .with_delay(DelayModel::Uniform(1, 20))
            .with_max_events(50_000_000)
            .run();
            for node in 0..n {
                assert_eq!(
                    report.outputs[node].as_deref(),
                    Some(PAYLOAD),
                    "node {node} missed the payload (n {n} seed {seed})"
                );
            }
            let s = stats.lock().unwrap();
            assert_eq!(
                s.deliveries,
                s.broadcasts * n as u64,
                "every origination must reach all {n} nodes (seed {seed})"
            );
            let msgs_per_delivery =
                report.metrics.total_messages() as f64 / s.deliveries as f64;
            assert!(
                msgs_per_delivery < n as f64,
                "overlay msgs/delivery {msgs_per_delivery:.1} must beat the n²-flood \
                 baseline of {n} (seed {seed})"
            );
        }
    }
}

/// Every emission of a seeded run is a pure function of the seed, so its
/// counts are pinned: the benchmark's `gossip_sim` shape (weighted Bracha
/// of a 256-byte blob among 128 parties, default overlay, `Uniform(1, 20)`)
/// on seeds 1 and 2, and the flood baseline (`prune: false`, every peer
/// active) at n = 64, where nearly every receipt is a duplicate. A change
/// to the overlay's bookkeeping that moves any of these moved a message.
#[test]
fn seeded_overlay_runs_reproduce_their_pinned_counts() {
    let flood = OverlayConfig { active_degree: 63, prune: false, ..OverlayConfig::default() };
    let blob: Vec<u8> = (0..=255).collect();
    // (n, seed, config) → [messages, bytes, events, deliveries, IHave batches]
    let pins = [
        (128, 1, OverlayConfig::default(), [34_933, 2_232_441, 37_499, 32_896, 1_525]),
        (128, 2, OverlayConfig::default(), [34_923, 2_232_255, 37_040, 32_896, 1_515]),
        (64, 1, flood, [505_655, 24_127_490, 505_929, 8_256, 0]),
    ];
    for (n, seed, cfg, want) in pins {
        let stats = Arc::new(Mutex::new(OverlayStats::default()));
        let report =
            Simulation::new(desend(overlay_bracha(n, seed, &cfg, Some(&stats), &blob)), seed)
                .with_delay(DelayModel::Uniform(1, 20))
                .run();
        assert!(report.outputs.iter().all(|o| o.as_deref() == Some(&blob[..])));
        let s = stats.lock().unwrap();
        let got = [
            report.metrics.total_messages(),
            report.metrics.total_bytes(),
            report.events,
            s.deliveries,
            s.ihaves,
        ];
        assert_eq!(got, want, "n {n} seed {seed} prune {}", cfg.prune);
    }
}

/// The determinism-twin contract holds for overlay runs: a threaded
/// in-process run records a trace whose simulator replay is bit-identical
/// in outputs and metrics. Timers are scaled up because the runtime clock
/// ticks microseconds where the simulator ticks abstract units.
#[test]
fn overlay_bracha_runtime_run_replays_bit_identically() {
    let make =
        || overlay_bracha(12, 5, &OverlayConfig::default().scaled_by(500), None, PAYLOAD);
    let full = ThreadedRuntime::new(make()).with_workers(3).run_traced();
    assert!(!full.trace.is_empty(), "the run must record a trace");
    let twin = full.trace.replay(desend(make())).expect("twin replay must not diverge");
    assert_eq!(twin.outputs, full.report.outputs, "outputs must be bit-identical");
    assert_eq!(twin.metrics, full.report.metrics, "metrics must be bit-identical");
    for (node, out) in full.report.outputs.iter().enumerate() {
        assert_eq!(out.as_deref(), Some(PAYLOAD), "node {node} missed the payload");
    }
}

/// The same contract across a real wire: every overlay frame is encoded by
/// `OverlayCodec<BrachaCodec>`, crosses loopback TCP, decodes on the far
/// side — and the trace still replays bit-identically, with the message
/// conservation law exact.
#[test]
fn overlay_bracha_socket_run_replays_bit_identically() {
    let make =
        || overlay_bracha(10, 8, &OverlayConfig::default().scaled_by(500), None, PAYLOAD);
    let nodes = make();
    let transport: SocketTransport<OverlayMsg<BrachaMsg>, OverlayCodec<BrachaCodec>> =
        SocketTransport::loopback(nodes.len()).expect("loopback sockets");
    let probe = transport.clone();
    let full =
        ThreadedRuntime::new(nodes).with_transport(transport).with_workers(3).run_traced();
    assert!(!full.trace.is_empty(), "the run must record a trace");
    assert_eq!(probe.decode_errors(), 0, "every frame must decode");
    assert_eq!(
        full.report.metrics.total_messages(),
        full.report.metrics.delivered_messages() + full.dropped,
        "every sent message is delivered or drop-accounted"
    );
    let twin = full.trace.replay(desend(make())).expect("twin replay must not diverge");
    assert_eq!(twin.outputs, full.report.outputs, "outputs must be bit-identical");
    assert_eq!(twin.metrics, full.report.metrics, "metrics must be bit-identical");
}

/// Seeds swept by the adversarial tests below: 5 per PR, widened by the
/// nightly job via `SWIPER_SWEEP_SEEDS`.
fn seeds() -> std::ops::Range<u64> {
    let n = std::env::var("SWIPER_SWEEP_SEEDS").map_or(5, |v| {
        v.trim().parse().unwrap_or_else(|e| panic!("SWIPER_SWEEP_SEEDS={v:?}: {e}"))
    });
    0..n
}

/// Parties by (stake descending, id): the order the overlay's tree is a
/// k-ary heap over. `[0]` is the root; at n = 64 the arity is 3, so
/// `[1..4]` are its children.
fn tree_order(weights: &Weights) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&p| (std::cmp::Reverse(weights.get(p)), p));
    order
}

type Boxed = Box<dyn Protocol<Msg = OverlayMsg<BrachaMsg>>>;

/// Weighted Bracha over the overlay on the simulator with `corrupt`
/// wrapping or replacing chosen nodes; asserts every party outside
/// `faulty` outputs the payload and returns the fleet's counters.
fn run_corrupted(
    n: usize,
    seed: u64,
    faulty: &[usize],
    corrupt: impl Fn(usize, OverlayNode<BrachaMsg>) -> Boxed,
) -> OverlayStats {
    let weights = stake(n);
    let stats = Arc::new(Mutex::new(OverlayStats::default()));
    let nodes = (0..n)
        .map(|me| {
            let node = OverlayNode::new(
                bracha_inner(me, &weights, PAYLOAD),
                weights.clone(),
                OverlayConfig::default(),
                seed,
            )
            .with_stats(Arc::clone(&stats));
            corrupt(me, node)
        })
        .collect();
    let report = Simulation::new(nodes, seed).with_delay(DelayModel::Uniform(1, 20)).run();
    for node in (0..n).filter(|p| !faulty.contains(p)) {
        assert_eq!(
            report.outputs[node].as_deref(),
            Some(PAYLOAD),
            "honest node {node} missed the payload (seed {seed}, faulty {faulty:?})"
        );
    }
    let s = stats.lock().unwrap().clone();
    s
}

/// Sabotage the eager path and watch the lazy path repair it: the tree's
/// root downgrades the *first* outgoing eager copy of every origination to
/// a bare IHAVE (later copies — the graft replies — pass), so one child's
/// whole subtree is starved of every payload that crosses the root, and
/// delivery there *requires* the IHAVE→graft recovery loop.
#[test]
fn mangled_eager_copies_are_recovered_via_graft() {
    let n = 64;
    let root = tree_order(&stake(n))[0];
    for seed in seeds() {
        let s = run_corrupted(n, seed, &[], |me, node| {
            if me != root {
                return Box::new(node);
            }
            let mut withheld = std::collections::BTreeSet::new();
            Box::new(Mangler::new(node, move |to, msg| {
                if let OverlayMsg::Eager { origin, seq, .. } = &msg {
                    // Self-originations stay intact — sabotage the
                    // relay links, not the payload source.
                    if to != root && withheld.insert((*origin, *seq)) {
                        return Some(OverlayMsg::IHave { ids: vec![(*origin, *seq)] });
                    }
                }
                Some(msg)
            }))
        });
        assert!(s.grafts > 0, "the sabotage must actually force grafts (seed {seed})");
    }
}

/// The worst place to fail: the tree's root and all of its children are
/// silent, so the tree falls apart into the grandchildren's subtrees and
/// no eager path joins them. Announcements do: every holder announces to
/// its ring successor and to a rotating slice of its other lazy peers, the
/// announced peer grafts, and the graft-promoted links carry the payload
/// from then on. The sampled lazy links alone do not cover it — with the
/// ring-successor announcement switched off, 35 to 53 of the 60 honest
/// nodes deliver and this test fails on every seed.
#[test]
fn silent_root_and_children_are_routed_around_by_graft() {
    let n = 64;
    let silent = &tree_order(&stake(n))[..4];
    for seed in seeds() {
        let s = run_corrupted(n, seed, silent, |me, node| {
            if silent.contains(&me) {
                Box::new(Silent::new())
            } else {
                Box::new(node)
            }
        });
        assert!(s.grafts > 0, "only grafts can join the subtrees (seed {seed})");
    }
}

/// Churn composes with the epoch machinery instead of bypassing it: a
/// silent node is probed, suspected, confirmed failed by its peers; the
/// shared churn ledger renders a candidate weight snapshot zeroing the
/// failed stake; and feeding that snapshot to the `Reconfigurator` yields
/// an `EpochEvent` whose application retires the party. No honest node is
/// falsely confirmed along the way.
#[test]
fn confirmed_silent_node_churn_feeds_the_reconfigurator() {
    let n = 12;
    let failed = 5usize;
    let weights = Weights::new(vec![30, 25, 20, 15, 10, 8, 7, 6, 5, 4, 3, 2]).unwrap();
    // Enough probe rounds to cover every active peer round-robin, so the
    // silent node is guaranteed a probe from its ring predecessor.
    let cfg = OverlayConfig { probe_rounds: 8, ..OverlayConfig::default() };
    let ledger = Arc::new(Mutex::new(ChurnLedger::new()));
    let stats = Arc::new(Mutex::new(OverlayStats::default()));
    let nodes: Vec<Box<dyn Protocol<Msg = OverlayMsg<BrachaMsg>>>> = (0..n)
        .map(|me| {
            if me == failed {
                Box::new(Silent::new()) as _
            } else {
                Box::new(
                    OverlayNode::new(
                        bracha_inner(me, &weights, PAYLOAD),
                        weights.clone(),
                        cfg.clone(),
                        21,
                    )
                    .with_stats(Arc::clone(&stats))
                    .with_churn_ledger(Arc::clone(&ledger)),
                ) as _
            }
        })
        .collect();
    let report = Simulation::new(nodes, 21).with_delay(DelayModel::Uniform(1, 20)).run();
    for node in (0..n).filter(|&i| i != failed) {
        assert_eq!(
            report.outputs[node].as_deref(),
            Some(PAYLOAD),
            "honest node {node} must deliver despite the silent party"
        );
    }
    assert!(stats.lock().unwrap().confirmed_failures > 0, "probes must harden into confirms");

    let guard = ledger.lock().unwrap();
    let confirmed = guard.confirmed_by(1);
    assert!(confirmed.contains(&failed), "the silent node is confirmed failed");
    assert!(
        confirmed.iter().all(|&p| p == failed),
        "no honest node may be falsely confirmed: {confirmed:?}"
    );
    let candidate = guard.candidate_weights(&weights, 1).expect("churn renders a snapshot");
    drop(guard);
    assert_eq!(candidate.get(failed), 0, "the candidate snapshot zeroes the failed stake");
    assert_eq!(candidate.get(0), weights.get(0), "honest stake is untouched");

    // The snapshot drives an ordinary reconfiguration epoch.
    let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
    let mut loop_ = Reconfigurator::new(Swiper::new(), vec![Setting::Restriction(wr)]);
    let genesis = loop_.advance(&weights).expect("genesis epoch");
    assert!(genesis.event(0).is_none(), "the first epoch has no predecessor delta");
    let outcome = loop_.advance(&candidate).expect("churn epoch");
    let event = outcome.event(0).expect("confirmed churn must produce an epoch event");
    let mut live = weights.clone();
    assert!(event.refresh_weights(&mut live), "the event addresses the pre-churn weights");
    assert_eq!(live.get(failed), 0, "applying the event retires the failed party");
    assert_eq!(live.as_slice()[..failed], weights.as_slice()[..failed]);
}
