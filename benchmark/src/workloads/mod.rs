//! The six workloads. Each is a *deterministic episode*: a function of the
//! seed that sets its inputs up, runs one timed region through the
//! program's public API, and checks every output outside that region.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swiper_core::Weights;
use swiper_net::{
    MessageSize, OverlayStats, Protocol, RuntimeReport, SendNodes, SocketTransport, WireCodec,
    DEFAULT_LINK_CAPACITY,
};
use swiper_weights::{gen, Chain};

use crate::probes::{CallStats, CodecStats};
use crate::stats;
use crate::trace::Tracer;

mod bulk_channel;
mod churn_epoch_socket;
mod gossip_sim;
mod smr_socket;
mod solver_cold;
mod solver_epochs;

pub use gossip_sim::{CONTROL, DIRECT, EAGER};
#[cfg(test)]
pub use smr_socket::{commit_sink, smr_fleet, BATCH_BYTES};
#[cfg(test)]
pub use solver_cold::solve_timed;
pub use solver_cold::Problem;

/// Per-layer values of one episode, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// How an episode is to be run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Generator seed: the program under test sees only what is derived
    /// from it.
    pub seed: u64,
    /// Shrunk episodes (`--quick`).
    pub quick: bool,
    /// Worker threads of threaded runs: `max(1, nproc − 1)`, leaving a
    /// core to the socket pump. Worker scaling is *not measured*.
    pub workers: usize,
    /// The first untraced and the first traced episode of a run carry the
    /// expensive checks: the replay of every delivery trace on the simulator
    /// twin, and the exact `verify_*` of every solver assignment. A later
    /// episode must reproduce the first one's `exact` values, the digest of
    /// the verified assignments among them.
    pub full_checks: bool,
    /// Stop after set-up: the runner repeats set-up alone to steady
    /// `setup_s`, which for the deployed workloads is tens of microseconds.
    pub setup_only: bool,
}

/// What one episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// Input generation, epoch-0 solve, node construction — not socket
    /// bind, see `bind_loopback`.
    pub setup: Duration,
    /// The timed region.
    pub wall: Duration,
    /// Completion interval of every operation in the timed region, ms, in
    /// an order that is the same on every episode of a seed.
    pub op_ms: Vec<f64>,
    /// The timed region cut into consecutive stretches that do the same
    /// work on every episode of a seed, ms; they add up to `wall`.
    pub stage_ms: Vec<f64>,
    /// Operations attempted (see each workload for what one is).
    pub attempted: u64,
    /// Operations that did not complete or completed wrongly.
    pub failed: u64,
    /// The workload's protocol-cost count per operation.
    pub cost_per_op: f64,
    /// Counts and digests that must repeat exactly on every episode of one
    /// seed; empty for workloads scheduled by real threads.
    pub exact: Vec<(&'static str, u64)>,
    /// Per-layer values; complete only on a traced episode.
    pub layers: Layers,
}

impl Episode {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_insert(0.0) += value;
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The benchmark's workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolverCold,
    SolverEpochs,
    SmrSocket,
    BulkChannel,
    GossipSim,
    ChurnEpochSocket,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SolverCold,
        Workload::SolverEpochs,
        Workload::SmrSocket,
        Workload::BulkChannel,
        Workload::GossipSim,
        Workload::ChurnEpochSocket,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolverCold => "solver_cold",
            Workload::SolverEpochs => "solver_epochs",
            Workload::SmrSocket => "smr_socket",
            Workload::BulkChannel => "bulk_channel",
            Workload::GossipSim => "gossip_sim",
            Workload::ChurnEpochSocket => "churn_epoch_socket",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether real threads schedule the run (so counts vary run to run
    /// and every row must carry `nproc`/`workers`).
    pub fn threaded(self) -> bool {
        matches!(self, Workload::SmrSocket | Workload::BulkChannel | Workload::ChurnEpochSocket)
    }

    /// What one operation of this workload is (for `attempted`/`failed`,
    /// `op_ms_p50` and `cost_per_op`).
    pub fn op(self) -> &'static str {
        match self {
            Workload::SolverCold => "one cold solve; cost = tickets published",
            Workload::SolverEpochs => "one warm two-track advance; cost = tickets published",
            Workload::SmrSocket => "one replica-round commit; cost = messages sent",
            Workload::BulkChannel => "one node's delivery of a blob; cost = messages sent",
            Workload::GossipSim => {
                "one node's delivery of the blob; cost = messages per \
                                    overlay first receipt"
            }
            Workload::ChurnEpochSocket => "one churn episode; cost = tickets published",
        }
    }

    /// Runs one episode. `Err` is a failed correctness check.
    pub fn episode(self, cfg: &Config, tracer: &mut Tracer) -> Result<Episode, String> {
        match self {
            Workload::SolverCold => solver_cold::episode(cfg, tracer),
            Workload::SolverEpochs => solver_epochs::episode(cfg, tracer),
            Workload::SmrSocket => smr_socket::episode(cfg, tracer),
            Workload::BulkChannel => bulk_channel::episode(cfg, tracer),
            Workload::GossipSim => gossip_sim::episode(cfg, tracer),
            Workload::ChurnEpochSocket => churn_epoch_socket::episode(cfg, tracer),
        }
    }
}

/// Seed of the one synthetic population the solver workloads draw
/// (`gen::whale_mix`) and of the churn stream applied to it.
const POPULATION_SEED: u64 = 1;

/// The part of a solver input that `--seed` decides.
///
/// The solver's cost is chaotic in the instance: between two seeds of the
/// same `whale_mix` distribution the number of exact-DP probes near the
/// flip differs, and with it a 10⁵-party WQ solve took anywhere from 170
/// to 700 ms. A benchmark whose runs are compared across seeds cannot be
/// built on that. So the population and its churn stream are fixed, and
/// the seed picks an *isomorphic* instance: the parties in another order
/// and every weight multiplied by a constant (the solver is invariant to
/// both, `tests/theorem_properties.rs::scale_invariance`). The program
/// sees different numbers on every seed and does the same work.
struct Disguise {
    order: Vec<u32>,
    factor: u64,
}

impl Disguise {
    /// For populations of `n` parties whose largest weight is `max`.
    fn new(n: usize, max: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        // Leave two bits of headroom under `u64::MAX` per weight.
        let factor = rng.random_range(1..=(u64::MAX / 4 / max.max(1)).clamp(1, 8));
        Disguise { order, factor }
    }

    fn apply(&self, w: &Weights) -> Weights {
        let w = w.as_slice();
        Weights::new(self.order.iter().map(|&i| w[i as usize] * self.factor).collect())
            .expect("a permuted, scaled population keeps its positive total")
    }
}

/// The fixed whale-skewed population of `n` parties (same whale count as
/// the repo's `solver_scale` sweep).
fn whale_population(n: usize) -> Weights {
    gen::whale_mix(n, (n / 10_000).max(8), POPULATION_SEED ^ n as u64)
}

/// Stake of the `k` heaviest Tezos bakers (the replica is sorted
/// descending), the population of the three deployed workloads.
fn tezos_top(k: usize) -> Weights {
    let all = Chain::Tezos.weights();
    Weights::new(all.as_slice()[..k].to_vec()).expect("positive stake")
}

/// Drops the `Send` bound so one constructor feeds runtime and replay.
fn desend<M>(nodes: SendNodes<M>) -> Vec<Box<dyn Protocol<Msg = M>>> {
    nodes.into_iter().map(|b| b as Box<dyn Protocol<Msg = M>>).collect()
}

/// `Err(what)` unless `ok`.
fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Checks every deployed run: message conservation and, when `twin`, the
/// bit-identical replay of the recorded trace on `fresh` automata.
fn check_run<M: Clone + MessageSize>(
    full: &RuntimeReport,
    fresh: impl FnOnce() -> SendNodes<M>,
    twin: bool,
    ep: &mut Episode,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let m = &full.report.metrics;
    ensure(m.total_messages() == m.delivered_messages() + full.dropped, || {
        format!(
            "message conservation: sent {} != delivered {} + dropped {}",
            m.total_messages(),
            m.delivered_messages(),
            full.dropped
        )
    })?;
    if twin {
        let (replayed, wall) =
            tracer.time("net.twin_replay", 0, |_| full.trace.replay(desend(fresh())));
        let replayed = replayed.map_err(|e| e.to_string())?;
        ensure(
            replayed.outputs == full.report.outputs && replayed.metrics == full.report.metrics,
            || "twin replay ran but outputs or metrics differ".to_string(),
        )?;
        ep.add("net.twin_replay_ms", ms(wall));
        ep.add("net.twin_events", full.trace.len() as f64);
    }
    Ok(())
}

/// Runtime-level values of one deployed run, summed over an episode's runs.
fn add_run_layers(full: &RuntimeReport, ep: &mut Episode) {
    let m = &full.report.metrics;
    ep.add("net.run_wall_ms", ms(full.wall));
    ep.add("net.msgs", m.total_messages() as f64);
    ep.add("net.bytes", m.total_bytes() as f64);
    ep.add("net.dropped", full.dropped as f64);
    // Percentiles do not add: the last run of the episode stands.
    ep.set("net.msg_latency_us_p50", full.latency.p50_us as f64);
    ep.set("net.msg_latency_us_p99", full.latency.p99_us as f64);
}

/// `protocols.*` from the probe around the innermost automaton, and the
/// share of the workers' time the outermost callbacks (`busy`) filled.
fn add_call_layers(
    protocol: &CallStats,
    outer_busy: Duration,
    workers: usize,
    ep: &mut Episode,
) {
    let us: Vec<f64> = protocol.callback_ns.iter().map(|&d| f64::from(d) / 1e3).collect();
    ep.set("protocols.callback_busy_ms", ms(protocol.busy()));
    ep.set("protocols.callbacks", protocol.callbacks() as f64);
    ep.set("protocols.callback_us_mean", stats::mean(&us).unwrap_or(0.0));
    ep.set("protocols.callback_us_p99", stats::percentile(&us, 99.0).unwrap_or(0.0));
    let reconf: Vec<f64> =
        protocol.reconfigure_ns.iter().map(|&d| f64::from(d) / 1e3).collect();
    ep.set("protocols.reconfigure_us_mean", stats::mean(&reconf).unwrap_or(0.0));
    if let Some(&run_ms) = ep.layers.get("net.run_wall_ms") {
        ep.set("net.worker_busy_share", ms(outer_busy) / (workers as f64 * run_ms));
    }
}

fn add_codec_layers(codec: &CodecStats, ep: &mut Episode) {
    let busy = codec.encode_busy() + codec.decode_busy();
    ep.set("net.codec_encode_ms", ms(codec.encode_busy()));
    ep.set("net.codec_decode_ms", ms(codec.decode_busy()));
    ep.set("net.codec_ns_per_msg", busy.as_nanos() as f64 / codec.encodes().max(1) as f64);
    ep.set("net.codec_bytes", codec.bytes() as f64);
}

/// `overlay.*` message classes from the probe around `OverlayNode`
/// (`outer`), its self time against the automaton inside it (`inner`).
fn add_overlay_layers(outer: &CallStats, inner: &CallStats, deliveries: u64, ep: &mut Episode) {
    let payload_msgs = outer.class_msgs[EAGER] + outer.class_msgs[DIRECT];
    ep.set("overlay.eager_msgs", outer.class_msgs[EAGER] as f64);
    ep.set("overlay.control_msgs", outer.class_msgs[CONTROL] as f64);
    ep.set(
        "overlay.payload_bytes",
        (outer.class_bytes[EAGER] + outer.class_bytes[DIRECT]) as f64,
    );
    ep.set("overlay.control_bytes", outer.class_bytes[CONTROL] as f64);
    ep.set("overlay.payload_msgs_per_delivery", payload_msgs as f64 / deliveries.max(1) as f64);
    ep.set("overlay.self_ms", ms(outer.busy().saturating_sub(inner.busy())));
}

fn add_overlay_stats(s: &OverlayStats, ep: &mut Episode) {
    ep.set("overlay.ihaves", s.ihaves as f64);
    ep.set("overlay.grafts", s.grafts as f64);
    ep.set("overlay.prunes", s.prunes as f64);
    ep.set("overlay.shuffles", s.shuffles as f64);
    ep.set("overlay.suspects", s.suspects as f64);
    ep.set("overlay.confirmed_failures", s.confirmed_failures as f64);
    ep.set("overlay.max_hops", f64::from(s.max_hops));
    ep.set("overlay.mean_degree", s.mean_degree());
}

/// Binds a loopback socket mesh for `n` nodes inside a `net.socket_setup`
/// span and adds its wall to `net.socket_setup_ms`.
///
/// Deliberately not part of `setup_s`: what a bind costs depends on how
/// many `TIME_WAIT` connections earlier runs left in the kernel's tables
/// (0.8 ms rose to 2.3 ms over ten consecutive runs of one workload), so a
/// bounded metric that included it would compare histories, not code.
fn bind_loopback<M: Send + 'static, C: WireCodec<M>>(
    n: usize,
    codec: C,
    ep: &mut Episode,
    tracer: &mut Tracer,
) -> Result<SocketTransport<M, C>, String> {
    let (wire, wall) = tracer.time("net.socket_setup", 0, |_| {
        SocketTransport::with_codec(n, DEFAULT_LINK_CAPACITY, codec)
    });
    ep.add("net.socket_setup_ms", ms(wall));
    wire.map_err(|e| format!("bind loopback sockets: {e}"))
}
