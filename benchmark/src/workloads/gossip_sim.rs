//! `gossip_sim` — dissemination economy of the overlay, on the simulator.
//!
//! Weighted Bracha (256-byte payload) inside `OverlayNode` with the
//! default configuration, 128 nodes, on `Simulation` with message delay
//! `Uniform(1, 20)` abstract ticks. `net::overlay` and `net::sim` do the
//! work; no solver, socket or codec is involved. Under the seeded
//! scheduler every count repeats exactly, so messages and bytes per
//! delivery are citable as counts; the wall is the simulator's event
//! loop. One operation is one node delivering the blob.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swiper_core::Weights;
use swiper_net::{
    DelayModel, OverlayConfig, OverlayMsg, OverlayNode, OverlayStats, Protocol, Simulation,
};
use swiper_protocols::bracha::{BrachaConfig, BrachaMsg, BrachaNode};

use super::{
    add_call_layers, add_overlay_layers, add_overlay_stats, ensure, ms, Config, Episode,
};
use crate::probes::{CallSink, TimedNode};
use crate::trace::Tracer;

const PAYLOAD_BYTES: usize = 256;
/// Population: about 0.8 s per simulation, so a run holds enough episodes
/// for a steady median (n = 256 takes 3–4 s, two to a run).
const NODES: usize = 128;

/// Message classes the outer probe tells apart.
pub const EAGER: usize = 0;
pub const DIRECT: usize = 1;
pub const CONTROL: usize = 2;

pub fn classify<M>(msg: &OverlayMsg<M>) -> usize {
    match msg {
        OverlayMsg::Eager { .. } => EAGER,
        OverlayMsg::Direct(_) => DIRECT,
        _ => CONTROL,
    }
}

/// Skewed-but-bounded stake: every party holds between 1 and 97.
fn stake(n: usize) -> Weights {
    Weights::new((0..n as u64).map(|p| 1 + (p * 7919) % 97).collect()).expect("positive stake")
}

pub fn episode(cfg: &Config, tracer: &mut Tracer) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let n = if cfg.quick { 64 } else { NODES };
    let traced = tracer.enabled();

    // Set-up: stake, payload, the wrapped fleet.
    let open = tracer.enter("bench.setup", 0);
    let weights = stake(n);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let payload: Vec<u8> = (0..PAYLOAD_BYTES).map(|_| rng.random::<u8>()).collect();
    let stats = Arc::new(Mutex::new(OverlayStats::default()));
    let (outer, inner) = (CallSink::default(), CallSink::default());
    let nodes: Vec<Box<dyn Protocol<Msg = OverlayMsg<BrachaMsg>>>> = (0..n)
        .map(|me| {
            let config = BrachaConfig::weighted(weights.clone());
            let bracha = if me == 0 {
                BrachaNode::sender(config, 0, payload.clone())
            } else {
                BrachaNode::new(config, 0)
            };
            let bracha: Box<dyn Protocol<Msg = BrachaMsg> + Send> = if traced {
                Box::new(TimedNode::new(bracha, &inner))
            } else {
                Box::new(bracha)
            };
            let node =
                OverlayNode::new(bracha, weights.clone(), OverlayConfig::default(), cfg.seed)
                    .with_stats(Arc::clone(&stats));
            if traced {
                Box::new(TimedNode::new(node, &outer).with_classes(classify)) as _
            } else {
                Box::new(node) as _
            }
        })
        .collect();
    let sim = Simulation::new(nodes, cfg.seed)
        .with_delay(DelayModel::Uniform(1, 20))
        .with_max_events(400_000_000);
    ep.setup = tracer.exit(open);
    if cfg.setup_only {
        return Ok(ep);
    }

    // Timed: the simulation to quiescence.
    let open = tracer.enter("net.sim_run", 0);
    let report = sim.run();
    let (outer, inner) =
        (outer.lock().expect("single-threaded"), inner.lock().expect("single-threaded"));
    if traced {
        tracer.aggregate(
            "overlay.callback",
            outer.callbacks(),
            outer.busy().saturating_sub(inner.busy()),
        );
        tracer.aggregate("protocols.callback", inner.callbacks(), inner.busy());
    }
    ep.wall = tracer.exit(open);
    ep.op_ms.push(ms(ep.wall));
    ep.stage_ms.push(ms(ep.wall));

    // Checks: 100 % reach, and cheaper than the flood.
    let s = stats.lock().expect("single-threaded").clone();
    let reached = report.outputs.iter().filter(|o| o.as_deref() == Some(&payload[..])).count();
    let msgs = report.metrics.total_messages();
    ep.attempted = n as u64;
    ep.failed = (n - reached) as u64;
    ensure(ep.failed == 0, || format!("reach {reached} of {n}"))?;
    ensure(s.deliveries > 0 && msgs < n as u64 * s.deliveries, || {
        format!("{msgs} msgs for {} deliveries does not beat the flood (n = {n})", s.deliveries)
    })?;
    ep.cost_per_op = msgs as f64 / s.deliveries as f64;
    ep.exact = vec![
        ("msgs", msgs),
        ("bytes", report.metrics.total_bytes()),
        ("deliveries", s.deliveries),
        ("sim_events", report.events),
    ];

    ep.set("net.msgs", msgs as f64);
    ep.set("net.bytes", report.metrics.total_bytes() as f64);
    ep.set("net.sim_events", report.events as f64);
    ep.set("net.sim_wall_ms", ms(ep.wall));
    ep.set("net.sim_events_per_s", report.events as f64 / ep.wall.as_secs_f64());
    add_overlay_stats(&s, &mut ep);
    if traced {
        add_call_layers(&inner, outer.busy(), 1, &mut ep);
        add_overlay_layers(&outer, &inner, s.deliveries, &mut ep);
        ep.set("net.sim_loop_ms", ms(ep.wall.saturating_sub(outer.busy())));
    }
    Ok(ep)
}
