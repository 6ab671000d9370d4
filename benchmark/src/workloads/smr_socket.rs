//! `smr_socket` — small messages at a high rate over real sockets.
//!
//! 16 `SmrNode` replicas (stake of the 16 heaviest Tezos bakers, 4 KiB
//! batches) commit a chain of rounds on `ThreadedRuntime` over
//! `SocketTransport<_, SmrCodec>` on loopback. The loop is closed at
//! pipeline depth 1: round r + 1 is proposed when r commits. Echoes and
//! readies carry digests, so the runtime, the socket and the codec
//! dominate and payload handling is minor. No message delay is injected:
//! latency is processor plus loopback time only. One operation is one
//! replica committing one round.

use std::sync::{Arc, Mutex};

use swiper_core::Weights;
use swiper_net::{Protocol, SendNodes, ThreadedRuntime};
use swiper_protocols::smr::{SmrMsg, SmrNode};
use swiper_protocols::wire::SmrCodec;

use super::{
    add_call_layers, add_codec_layers, add_run_layers, bind_loopback, check_run, ensure, ms,
    tezos_top, Config, Episode,
};
use crate::probes::{CallSink, CodecStats, CommitClock, CommitSink, TimedCodec, TimedNode};
use crate::trace::Tracer;

const REPLICAS: usize = 16;
pub const BATCH_BYTES: usize = 4096;
/// Rounds per episode: about 0.8 s, so a run holds enough episodes for a
/// steady median.
const ROUNDS: u64 = 200;

/// The replica fleet. Every node carries the always-on [`CommitClock`];
/// with `calls`, also a [`TimedNode`] around it.
pub fn smr_fleet(
    weights: &Weights,
    seed: u64,
    rounds: u64,
    commits: &CommitSink,
    calls: Option<&CallSink>,
) -> SendNodes<SmrMsg> {
    (0..weights.len())
        .map(|me| {
            let node = CommitClock::new(
                SmrNode::new(me, weights.clone(), seed, rounds, BATCH_BYTES),
                me,
                commits,
            );
            match calls {
                Some(sink) => {
                    Box::new(TimedNode::new(node, sink)) as Box<dyn Protocol<Msg = _> + Send>
                }
                None => Box::new(node),
            }
        })
        .collect()
}

/// `n` empty commit-stamp slots.
pub fn commit_sink(n: usize) -> CommitSink {
    Arc::new(Mutex::new(vec![Vec::new(); n]))
}

pub fn episode(cfg: &Config, tracer: &mut Tracer) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let rounds: u64 = if cfg.quick { 50 } else { ROUNDS };
    let traced = tracer.enabled();

    // Set-up: stake and replicas.
    let open = tracer.enter("bench.setup", 0);
    let weights = tezos_top(REPLICAS);
    let commits = commit_sink(REPLICAS);
    let calls = CallSink::default();
    let codec_stats = Arc::new(CodecStats::default());
    let nodes = smr_fleet(&weights, cfg.seed, rounds, &commits, traced.then_some(&calls));
    ep.setup = tracer.exit(open);
    if cfg.setup_only {
        return Ok(ep);
    }
    // The loopback mesh is set-up too, but is kept out of `setup_s` (see
    // `bind_loopback`) and reported as `net.socket_setup_ms`.
    let transport = bind_loopback(
        REPLICAS,
        TimedCodec::new(SmrCodec, traced.then_some(&codec_stats)),
        &mut ep,
        tracer,
    )?;
    let wire = transport.clone();

    // Timed: the run to quiescence.
    let open = tracer.enter("net.run", 0);
    let full = ThreadedRuntime::new(nodes)
        .with_transport(transport)
        .with_workers(cfg.workers)
        .run_traced();
    if traced {
        let calls = calls.lock().expect("workers joined");
        tracer.aggregate("protocols.callback", calls.callbacks(), calls.busy());
        tracer.aggregate("net.codec_encode", codec_stats.encodes(), codec_stats.encode_busy());
        tracer.aggregate("net.codec_decode", codec_stats.decodes(), codec_stats.decode_busy());
    }
    tracer.exit(open);
    ep.wall = full.wall;
    ep.stage_ms.push(ms(full.wall));

    // Commit intervals per replica, from the always-on commit clock.
    let stamps = commits.lock().expect("workers joined");
    let mut committed = 0u64;
    for replica in stamps.iter() {
        committed += replica.len().saturating_sub(1) as u64;
        ep.op_ms.extend(replica.windows(2).map(|w| ms(w[1] - w[0])));
    }
    drop(stamps);
    ep.attempted = REPLICAS as u64 * rounds;
    ep.failed = ep.attempted - committed.min(ep.attempted);
    ep.cost_per_op = full.report.metrics.total_messages() as f64 / ep.attempted as f64;

    // Checks, outside the timed region.
    let mut expect = rounds.to_le_bytes().to_vec();
    let first = full.report.outputs[0].clone().unwrap_or_default();
    expect.extend_from_slice(first.get(8..).unwrap_or_default());
    ensure(
        first.len() == 40
            && full.report.outputs.iter().all(|o| o.as_deref() == Some(&expect[..])),
        || format!("replicas disagree or fell short of {rounds} commits"),
    )?;
    ensure(ep.failed == 0, || format!("{} replica-round commits missing", ep.failed))?;
    ensure(wire.decode_errors() == 0, || format!("{} decode errors", wire.decode_errors()))?;
    let fresh = || smr_fleet(&weights, cfg.seed, rounds, &commit_sink(REPLICAS), None);
    check_run(&full, fresh, cfg.full_checks, &mut ep, tracer)?;

    add_run_layers(&full, &mut ep);
    ep.set("net.decode_errors", wire.decode_errors() as f64);
    if traced {
        let calls = calls.lock().expect("workers joined");
        add_call_layers(&calls, calls.busy(), cfg.workers, &mut ep);
        add_codec_layers(&codec_stats, &mut ep);
    }
    Ok(ep)
}
