//! The determinism-twin contract, pinned end to end: for each protocol
//! chain {bracha, aba, smr}, a run on the threaded in-process runtime
//! records a delivery trace whose replay on the deterministic simulator
//! substrate reproduces the run's outputs and metrics bit for bit.
//!
//! These tests are the seam's safety net — they fail if the trace bridge
//! (`DeliveryTrace` / `replay`) is removed or if either backend drifts
//! from the shared `Protocol` callback semantics.

use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper::net::{
    Protocol, SendNodes, SocketTransport, ThreadedRuntime, Transport, WireCodec,
};
use swiper::protocols::aba::{AbaMsg, AbaNode, AbaSetup};
use swiper::protocols::bracha::{BrachaConfig, BrachaMsg, BrachaNode};
use swiper::protocols::smr::{SmrMsg, SmrNode};
use swiper::protocols::wire::{AbaCodec, BrachaCodec, SmrCodec};
use swiper::Weights;

fn bracha_nodes(n: usize) -> SendNodes<BrachaMsg> {
    (0..n)
        .map(|me| {
            if me == 0 {
                Box::new(BrachaNode::sender(
                    BrachaConfig::nominal(n),
                    0,
                    b"twin payload".to_vec(),
                )) as _
            } else {
                Box::new(BrachaNode::new(BrachaConfig::nominal(n), 0)) as _
            }
        })
        .collect()
}

fn aba_nodes(n: usize, seed: u64) -> SendNodes<AbaMsg> {
    let setup = AbaSetup::nominal(n, 0, &mut StdRng::seed_from_u64(seed));
    (0..n).map(|me| Box::new(AbaNode::new(setup.clone(), me % 2 == 0)) as _).collect()
}

fn smr_nodes(n: usize, seed: u64) -> SendNodes<SmrMsg> {
    let weights = Weights::new((0..n).map(|p| 10 + (p as u64 % 5)).collect()).unwrap();
    (0..n).map(|me| Box::new(SmrNode::new(me, weights.clone(), seed, 6, 128)) as _).collect()
}

/// Drops the `Send` bound so the same constructors feed the replay.
fn desend<M>(nodes: SendNodes<M>) -> Vec<Box<dyn Protocol<Msg = M>>> {
    nodes.into_iter().map(|b| b as Box<dyn Protocol<Msg = M>>).collect()
}

/// Runs a chain on the threaded runtime and asserts its twin replay is
/// bit-identical in outputs and metrics.
fn assert_twin<M, F>(make: F, workers: usize)
where
    M: Clone + swiper::net::MessageSize + Send + 'static,
    F: Fn() -> SendNodes<M>,
{
    let full = ThreadedRuntime::new(make()).with_workers(workers).run_traced();
    assert!(!full.trace.is_empty(), "the run must record a trace");
    let twin = full.trace.replay(desend(make())).expect("twin replay must not diverge");
    assert_eq!(twin.outputs, full.report.outputs, "outputs must be bit-identical");
    assert_eq!(twin.metrics, full.report.metrics, "metrics must be bit-identical");
}

/// The same contract across a real wire: every message of the run is
/// encoded, crosses loopback TCP, is decoded on the far side — and the
/// recorded trace still replays bit-identically on the simulator.
fn assert_twin_socket<M, C, F>(make: F, workers: usize)
where
    M: Clone + swiper::net::MessageSize + Send + 'static,
    C: WireCodec<M> + Default,
    F: Fn() -> SendNodes<M>,
{
    let nodes = make();
    let transport: SocketTransport<M, C> =
        SocketTransport::loopback(nodes.len()).expect("loopback sockets");
    let probe = transport.clone();
    let full = ThreadedRuntime::new(nodes)
        .with_transport(transport)
        .with_workers(workers)
        .run_traced();
    assert!(!full.trace.is_empty(), "the run must record a trace");
    assert_eq!(probe.decode_errors(), 0, "every frame must decode");
    // A healthy wire loses nothing in transit: the only drops are
    // deliveries to nodes that had already halted (ABA halts on
    // decision), and the message conservation law stays exact.
    assert_eq!(
        full.report.metrics.total_messages(),
        full.report.metrics.delivered_messages() + full.dropped,
        "every sent message is delivered or drop-accounted"
    );
    let twin = full.trace.replay(desend(make())).expect("twin replay must not diverge");
    assert_eq!(twin.outputs, full.report.outputs, "outputs must be bit-identical");
    assert_eq!(twin.metrics, full.report.metrics, "metrics must be bit-identical");
}

#[test]
fn bracha_runtime_run_replays_bit_identically() {
    assert_twin(|| bracha_nodes(7), 3);
}

#[test]
fn aba_runtime_run_replays_bit_identically() {
    assert_twin(|| aba_nodes(7, 42), 3);
}

#[test]
fn smr_runtime_run_replays_bit_identically() {
    assert_twin(|| smr_nodes(6, 42), 3);
}

#[test]
fn bracha_socket_run_replays_bit_identically() {
    assert_twin_socket::<_, BrachaCodec, _>(|| bracha_nodes(7), 3);
}

#[test]
fn aba_socket_run_replays_bit_identically() {
    assert_twin_socket::<_, AbaCodec, _>(|| aba_nodes(7, 42), 3);
}

#[test]
fn smr_socket_run_replays_bit_identically() {
    assert_twin_socket::<_, SmrCodec, _>(|| smr_nodes(6, 42), 3);
}

/// Transport fault injection: kill the socket transport mid-run. The
/// runtime must account every in-flight envelope exactly like a
/// halted-node drop (counted quiescence converges instead of stalling),
/// and the twin replay must still pass on the delivered prefix.
#[test]
fn socket_close_mid_run_accounts_drops_and_replays_the_prefix() {
    for delay_us in [50, 300, 1500] {
        let n = 7;
        let transport: SocketTransport<BrachaMsg, BrachaCodec> =
            SocketTransport::loopback(n).expect("loopback sockets");
        let saboteur = transport.clone();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            saboteur.close();
        });
        let full = ThreadedRuntime::new(bracha_nodes(n))
            .with_transport(transport)
            .with_workers(3)
            .run_traced();
        killer.join().unwrap();
        assert!(
            full.wall < std::time::Duration::from_secs(5),
            "drop accounting must converge the run, not ride the stall limit"
        );
        assert_eq!(
            full.report.metrics.total_messages(),
            full.report.metrics.delivered_messages() + full.dropped,
            "in-flight drops are accounted exactly like halted-node drops (close at {delay_us}us)"
        );
        // The delivered prefix — whatever the schedule managed before the
        // wire died — still replays bit-identically.
        let twin = full.trace.replay(desend(bracha_nodes(n))).expect("prefix replay");
        assert_eq!(twin.outputs, full.report.outputs);
        assert_eq!(twin.metrics, full.report.metrics);
    }
}

#[test]
fn bracha_delivers_everywhere_on_the_runtime() {
    let report = ThreadedRuntime::new(bracha_nodes(7)).with_workers(2).run_traced().report;
    for out in &report.outputs {
        assert_eq!(out.as_deref(), Some(b"twin payload".as_ref()));
    }
}

/// Metrics agreement between the two backends for one Bracha scenario.
///
/// Everything is compared runtime-vs-twin, where bit-identity is the
/// contract. Across backends, the *sent* counters of an honest run are
/// schedule-independent as long as nobody has to pull: every replica
/// sends exactly one Echo and one Ready broadcast (plus the sender's
/// Initial). No pull fires on the simulator's seed-99 schedule, and on
/// the runtime a pull needs a whole delivery quorum to form before the
/// sender's single flush has enqueued its last Initial — so the seeded
/// simulator run and the independently scheduled runtime run must agree
/// on them exactly.
#[test]
fn bracha_metrics_agree_between_sim_and_runtime() {
    let n = 7;
    let sim = swiper::net::Simulation::new(desend(bracha_nodes(n)), 99)
        .with_delay(swiper::net::DelayModel::Uniform(1, 20))
        .run();
    let full = ThreadedRuntime::new(bracha_nodes(n)).with_workers(3).run_traced();
    // Schedule-independent sends: identical across backends, per node.
    assert_eq!(sim.metrics.total_messages(), full.report.metrics.total_messages());
    assert_eq!(sim.metrics.total_bytes(), full.report.metrics.total_bytes());
    for node in 0..n {
        assert_eq!(sim.metrics.sent_by(node), full.report.metrics.sent_by(node));
        assert_eq!(sim.metrics.bytes_sent_by(node), full.report.metrics.bytes_sent_by(node));
    }
    // Schedule-dependent deliveries: exact against the twin replay.
    let twin = full.trace.replay(desend(bracha_nodes(n))).expect("twin replay");
    assert_eq!(twin.metrics, full.report.metrics);
    // And both backends deliver the payload everywhere.
    assert_eq!(sim.outputs, full.report.outputs);
}
