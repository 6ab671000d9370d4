//! `bulk_channel` — few messages, large payload, no codec or socket.
//!
//! Sequential weighted Bracha broadcasts of a fresh seeded 32 KiB blob
//! among the 32 heaviest Tezos bakers, sender rotating, on
//! `ThreadedRuntime` over the in-process `ChannelTransport`. The same
//! runtime as `smr_socket`, used differently: time goes to cloning the
//! payload per recipient and re-hashing it at every Echo/Ready, i.e. to
//! the protocol callbacks, not to the runtime. No message delay is
//! injected. One operation is one node delivering one blob.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swiper_core::Weights;
use swiper_net::{Protocol, SendNodes, ThreadedRuntime};
use swiper_protocols::bracha::{BrachaConfig, BrachaMsg, BrachaNode};

use super::{
    add_call_layers, add_run_layers, check_run, ensure, ms, tezos_top, Config, Episode,
};
use crate::probes::{CallSink, TimedNode};
use crate::trace::Tracer;

const NODES: usize = 32;
const BLOB_BYTES: usize = 32 * 1024;
/// Broadcasts per episode: about 1 s, so a run holds enough episodes for
/// a steady median.
const INSTANCES: usize = 4;

fn fleet(
    weights: &Weights,
    sender: usize,
    blob: &[u8],
    calls: Option<&CallSink>,
) -> SendNodes<BrachaMsg> {
    (0..weights.len())
        .map(|me| {
            let config = BrachaConfig::weighted(weights.clone());
            let node = if me == sender {
                BrachaNode::sender(config, sender, blob.to_vec())
            } else {
                BrachaNode::new(config, sender)
            };
            match calls {
                Some(sink) => {
                    Box::new(TimedNode::new(node, sink)) as Box<dyn Protocol<Msg = _> + Send>
                }
                None => Box::new(node),
            }
        })
        .collect()
}

pub fn episode(cfg: &Config, tracer: &mut Tracer) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let instances = if cfg.quick { 1 } else { INSTANCES };
    let traced = tracer.enabled();
    let weights = tezos_top(NODES);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let calls = CallSink::default();
    let mut msgs = 0u64;

    for i in 0..instances {
        // Set-up: this instance's blob and automata.
        let open = tracer.enter("bench.setup", i as u64);
        let blob: Vec<u8> = (0..BLOB_BYTES).map(|_| rng.random::<u8>()).collect();
        let sender = i % NODES;
        let nodes = fleet(&weights, sender, &blob, traced.then_some(&calls));
        ep.setup += tracer.exit(open);
        if cfg.setup_only {
            continue;
        }

        // Timed: the broadcast to quiescence.
        let open = tracer.enter("net.run", i as u64);
        let before = {
            let calls = calls.lock().expect("no run in flight");
            (calls.callbacks(), calls.busy())
        };
        let full = ThreadedRuntime::new(nodes).with_workers(cfg.workers).run_traced();
        if traced {
            let calls = calls.lock().expect("workers joined");
            tracer.aggregate(
                "protocols.callback",
                calls.callbacks() - before.0,
                calls.busy() - before.1,
            );
        }
        tracer.exit(open);
        ep.wall += full.wall;

        // Checks: every node holds the exact blob.
        let delivered =
            full.report.outputs.iter().filter(|o| o.as_deref() == Some(&blob[..])).count();
        ep.attempted += NODES as u64;
        ep.failed += (NODES - delivered) as u64;
        // Every node delivers within the run, so the instance wall is each
        // delivery's completion interval to within the quiescence poll.
        ep.op_ms.push(ms(full.wall));
        ep.stage_ms.push(ms(full.wall));
        msgs += full.report.metrics.total_messages();
        let fresh = || fleet(&weights, sender, &blob, None);
        check_run(&full, fresh, cfg.full_checks && i == 0, &mut ep, tracer)?;
        add_run_layers(&full, &mut ep);
    }
    if cfg.setup_only {
        return Ok(ep);
    }
    ensure(ep.failed == 0, || format!("{} of {} deliveries missing", ep.failed, ep.attempted))?;
    ep.cost_per_op = msgs as f64 / ep.attempted as f64;
    let delivered_mb = (ep.attempted as usize * BLOB_BYTES) as f64 / 1e6;
    ep.set("net.goodput_mb_per_s", delivered_mb / ep.wall.as_secs_f64());
    if traced {
        let calls = calls.lock().expect("workers joined");
        add_call_layers(&calls, calls.busy(), cfg.workers, &mut ep);
    }
    Ok(ep)
}
