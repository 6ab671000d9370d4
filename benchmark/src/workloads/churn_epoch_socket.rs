//! `churn_epoch_socket` — the one path that crosses every layer.
//!
//! 24 overlay-wrapped weighted Bracha nodes (stake of the 24 heaviest
//! Tezos bakers) run over `SocketTransport<_, OverlayCodec<BrachaCodec>>`
//! with the two lightest nodes silent. SWIM probing confirms them into a
//! shared `ChurnLedger`; its candidate weights go through
//! `Reconfigurator::advance`; the resulting `EpochEvent` is injected into
//! a second socket deployment, which reweighs and must still deliver.
//! The repo has no live loop joining these (it needs source changes), so
//! this is its two-deployment approximation. Overlay timers are scaled
//! ×500 for the microsecond clock, which makes the episode timer-bound:
//! mostly insensitive to CPU speed-ups, sensitive to timer, round-count
//! and protocol changes and to the correctness of each hand-off. No
//! message delay is injected. One operation is one episode.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swiper_core::{EpochEvent, Swiper, TicketDelta, Weights};
use swiper_net::adversary::Silent;
use swiper_net::{
    ChurnLedger, OverlayCodec, OverlayConfig, OverlayMsg, OverlayNode, OverlayStats, Protocol,
    RuntimeReport, SendNodes, SocketTransport, ThreadedRuntime,
};
use swiper_protocols::bracha::{BrachaConfig, BrachaMsg, BrachaNode};
use swiper_protocols::wire::BrachaCodec;
use swiper_weights::epoch::{Reconfigurator, Setting};

use super::gossip_sim::classify;
use super::{
    add_call_layers, add_codec_layers, add_overlay_layers, add_overlay_stats, add_run_layers,
    bind_loopback, check_run, ensure, ms, tezos_top, Config, Episode, Problem,
};
use crate::probes::{CallSink, CodecStats, TimedCodec, TimedNode};
use crate::trace::Tracer;

const NODES: usize = 24;
const PAYLOAD_BYTES: usize = 256;
/// Observers that must agree before a failure counts as confirmed. One:
/// a silent node is certain to be probed only by its ring predecessor.
const CONFIRM_QUORUM: usize = 1;
/// Overlay timers are sized in simulator ticks; the runtime's clock ticks
/// microseconds. ×2000 puts the suspect-to-confirm window at 180 ms, clear
/// of the start-up flood's message latency (p99 ≈ 60 ms with one worker
/// on two cores). At the ×500 the repo's gossip bench uses, the window is
/// 45 ms and about 1 episode in 50 falsely confirmed a heavy node.
const TIMER_SCALE: u64 = 2000;

type Msg = OverlayMsg<BrachaMsg>;
/// The shared sinks a measured deployment's overlay nodes report to.
type Observers<'a> = (&'a Arc<Mutex<ChurnLedger>>, &'a Arc<Mutex<OverlayStats>>);
type Codec = TimedCodec<OverlayCodec<BrachaCodec>>;

/// Stake of the 24 heaviest Tezos bakers and the ids of the two silent
/// (lightest) nodes. Descending by id, except that the second lightest
/// sits at id 1, so the silent nodes are ids 1 and 23. A silent node
/// breaks the overlay's ring at two places, and the layout keeps both
/// harmless on every seed: its ring *predecessor* is live (only the
/// predecessor is certain to probe it), and its ring *successor*, which
/// loses its one guaranteed inbound edge, is one of the two heaviest nodes
/// and so sits in most sampled views. (With a mid-weight successor about
/// 1 episode in 100 left that node without the payload.)
fn stake() -> (Weights, BTreeSet<usize>) {
    let mut w = tezos_top(NODES).as_slice().to_vec();
    let second_lightest = w.remove(NODES - 2);
    w.insert(1, second_lightest);
    (Weights::new(w).expect("positive stake"), BTreeSet::from([1, NODES - 1]))
}

struct Fleet<'a> {
    weights: &'a Weights,
    silent: &'a BTreeSet<usize>,
    payload: &'a [u8],
    overlay: OverlayConfig,
    seed: u64,
}

impl Fleet<'_> {
    /// Builds the nodes; `observers` collect confirmed churn and overlay
    /// counters, `probes` are the (outer overlay, inner Bracha) callback
    /// sinks of a traced run. A twin replay runs with neither.
    fn build(
        &self,
        observers: Option<Observers<'_>>,
        probes: Option<(&CallSink, &CallSink)>,
    ) -> SendNodes<Msg> {
        (0..NODES)
            .map(|me| {
                if self.silent.contains(&me) {
                    return Box::new(Silent::new()) as Box<dyn Protocol<Msg = Msg> + Send>;
                }
                let config = BrachaConfig::weighted(self.weights.clone());
                let bracha = if me == 0 {
                    BrachaNode::sender(config, 0, self.payload.to_vec())
                } else {
                    BrachaNode::new(config, 0)
                };
                let bracha: Box<dyn Protocol<Msg = BrachaMsg> + Send> = match probes {
                    Some((_, inner)) => Box::new(TimedNode::new(bracha, inner)),
                    None => Box::new(bracha),
                };
                let mut node = OverlayNode::new(
                    bracha,
                    self.weights.clone(),
                    self.overlay.clone(),
                    self.seed,
                );
                if let Some((ledger, stats)) = observers {
                    node = node
                        .with_churn_ledger(Arc::clone(ledger))
                        .with_stats(Arc::clone(stats));
                }
                match probes {
                    Some((outer, _)) => {
                        Box::new(TimedNode::new(node, outer).with_classes(classify))
                    }
                    None => Box::new(node),
                }
            })
            .collect()
    }

    /// Live nodes that did not output the payload.
    fn undelivered(&self, full: &RuntimeReport) -> Vec<usize> {
        (0..NODES)
            .filter(|me| !self.silent.contains(me))
            .filter(|&me| full.report.outputs[me].as_deref() != Some(self.payload))
            .collect()
    }
}

pub fn episode(cfg: &Config, tracer: &mut Tracer) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let traced = tracer.enabled();

    // Set-up: stake, payload, epoch 0 of the reconfiguration loop, both fleets.
    let open = tracer.enter("bench.setup", 0);
    let (weights, silent) = stake();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let payload: Vec<u8> = (0..PAYLOAD_BYTES).map(|_| rng.random::<u8>()).collect();
    let fleet = Fleet {
        weights: &weights,
        silent: &silent,
        payload: &payload,
        overlay: OverlayConfig { probe_rounds: 8, ..OverlayConfig::default() }
            .scaled_by(TIMER_SCALE),
        seed: cfg.seed,
    };
    let mut reconf =
        Reconfigurator::new(Swiper::new(), vec![Setting::Restriction(Problem::wr())]);
    let genesis = reconf.advance(&weights).map_err(|e| e.to_string())?;
    let ledger = Arc::new(Mutex::new(ChurnLedger::new()));
    // The second deployment's detections are not the episode's input.
    let apply_ledger = Arc::new(Mutex::new(ChurnLedger::new()));
    let stats = Arc::new(Mutex::new(OverlayStats::default()));
    let (outer, inner) = (CallSink::default(), CallSink::default());
    let probes = traced.then_some((&outer, &inner));
    let codec_stats = Arc::new(CodecStats::default());
    let detect_nodes = fleet.build(Some((&ledger, &stats)), probes);
    let apply_nodes = fleet.build(Some((&apply_ledger, &stats)), probes);
    ep.setup = tracer.exit(open);
    if cfg.setup_only {
        return Ok(ep);
    }
    // Each deployment's loopback mesh is bound just before its run (an idle
    // socket pump competes with the run being timed) and is kept out of
    // `setup_s`; see `bind_loopback`.
    let codec =
        || TimedCodec::new(OverlayCodec::new(BrachaCodec), traced.then_some(&codec_stats));
    let detect_wire: SocketTransport<Msg, Codec> =
        bind_loopback(NODES, codec(), &mut ep, tracer)?;
    let detect_errors = detect_wire.clone();

    // What the probes saw since the previous call: the overlay's own share
    // of its callbacks, and the automaton's inside them.
    let aggregate_probes = |tracer: &mut Tracer, seen: &mut [(u64, Duration); 2]| {
        if traced {
            let (o, i) = (outer.lock().expect("joined"), inner.lock().expect("joined"));
            let now = [(o.callbacks(), o.busy()), (i.callbacks(), i.busy())];
            let [outer, inner] = [0, 1].map(|k| (now[k].0 - seen[k].0, now[k].1 - seen[k].1));
            tracer.aggregate("overlay.callback", outer.0, outer.1.saturating_sub(inner.1));
            tracer.aggregate("protocols.callback", inner.0, inner.1);
            *seen = now;
        }
    };
    let mut seen = [(0, Duration::ZERO); 2];

    // Timed, stage 1: run until SWIM has confirmed the silent nodes.
    let open = tracer.enter("churn.detect", 0);
    let detect = ThreadedRuntime::new(detect_nodes)
        .with_transport(detect_wire)
        .with_workers(cfg.workers)
        .run_traced();
    aggregate_probes(tracer, &mut seen);
    tracer.exit(open);

    // Timed, stage 2: ledger → candidate weights → warm re-solve → event.
    let ((candidate, confirmed, outcome), solve_wall) = tracer.time("churn.solve", 0, |_| {
        let ledger = ledger.lock().expect("workers joined");
        let confirmed = ledger.confirmed_by(CONFIRM_QUORUM);
        let candidate = ledger.candidate_weights(&weights, CONFIRM_QUORUM);
        let outcome = candidate.as_ref().map(|c| reconf.advance(c));
        (candidate, confirmed, outcome)
    });
    ensure(confirmed == silent, || {
        format!("confirmed failed {confirmed:?}, silent were {silent:?}")
    })?;
    let candidate = candidate.ok_or("confirmed churn rendered no candidate weights")?;
    let outcome = outcome.expect("candidate present").map_err(|e| e.to_string())?;
    let event: EpochEvent = outcome.event(0).ok_or("the churn epoch emitted no event")?.clone();

    // Timed, stage 3: a second deployment takes the event mid-run.
    let apply_wire: SocketTransport<Msg, Codec> =
        bind_loopback(NODES, codec(), &mut ep, tracer)?;
    let apply_errors = apply_wire.clone();
    let open = tracer.enter("churn.apply", 0);
    let apply = ThreadedRuntime::new(apply_nodes)
        .with_transport(apply_wire)
        .with_workers(cfg.workers)
        .with_reconfiguration(4 * NODES as u64, event.clone())
        .run_traced();
    aggregate_probes(tracer, &mut seen);
    tracer.exit(open);

    ep.wall = detect.wall + solve_wall + apply.wall;
    ep.op_ms.push(ms(ep.wall));
    ep.stage_ms = vec![ms(detect.wall), ms(solve_wall), ms(apply.wall)];
    ep.attempted = 1;

    // Checks, outside the timed region: every hand-off.
    let zeroed: BTreeSet<usize> =
        (0..NODES).filter(|&i| candidate.get(i) == 0 && weights.get(i) != 0).collect();
    ensure(zeroed == silent, || format!("candidate zeroes {zeroed:?}, not {silent:?}"))?;
    let untouched =
        (0..NODES).all(|i| silent.contains(&i) || candidate.get(i) == weights.get(i));
    ensure(untouched, || "candidate weights moved live stake".to_string())?;
    let mut refreshed = weights.clone();
    ensure(event.refresh_weights(&mut refreshed) && refreshed == candidate, || {
        "the epoch event does not carry the candidate weights".to_string()
    })?;
    let sol = &outcome.solutions[0];
    ensure(matches!(Problem::Wr.verify(&candidate, sol), Ok(true)), || {
        "post-churn WR assignment failed verification".to_string()
    })?;
    for (stage, full) in [("detect", &detect), ("apply", &apply)] {
        let missing = fleet.undelivered(full);
        ensure(missing.is_empty(), || {
            format!("{stage}: live nodes {missing:?} did not deliver")
        })?;
    }
    ensure(apply.report.reconfigurations == 1, || "the event was never injected".to_string())?;
    let decode_errors = detect_errors.decode_errors() + apply_errors.decode_errors();
    ensure(decode_errors == 0, || format!("{decode_errors} decode errors"))?;
    check_run(&detect, || fleet.build(None, None), cfg.full_checks, &mut ep, tracer)?;
    check_run(&apply, || fleet.build(None, None), cfg.full_checks, &mut ep, tracer)?;

    ep.cost_per_op = sol.total_tickets() as f64;
    ep.set("core.tickets_total", sol.total_tickets() as f64);
    ep.set("churn.detect_ms", ms(detect.wall));
    ep.set("churn.solve_ms", ms(solve_wall));
    ep.set("churn.apply_ms", ms(apply.wall));
    ep.set("net.decode_errors", decode_errors as f64);
    let overlay = stats.lock().expect("workers joined").clone();
    add_overlay_stats(&overlay, &mut ep);
    add_run_layers(&detect, &mut ep);
    add_run_layers(&apply, &mut ep);
    if traced {
        let (event_again, wall) = tracer.time("weights.event_build", 0, |_| {
            let delta =
                TicketDelta::between(&genesis.solutions[0].assignment, &sol.assignment)?;
            EpochEvent::new(1, delta, &weights, candidate.clone(), 0)
        });
        ensure(event_again.as_ref() == Ok(&event), || {
            "event rebuilt from the public constructors differs".to_string()
        })?;
        ep.set("churn.event_build_ms", ms(wall));
        let (outer, inner) = (outer.lock().expect("joined"), inner.lock().expect("joined"));
        add_call_layers(&inner, outer.busy(), cfg.workers, &mut ep);
        add_overlay_layers(&outer, &inner, overlay.deliveries, &mut ep);
        add_codec_layers(&codec_stats, &mut ep);
    }
    Ok(ep)
}
