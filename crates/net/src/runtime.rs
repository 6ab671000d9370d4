//! The threaded in-process runtime: the deployed twin of the
//! deterministic simulator.
//!
//! [`ThreadedRuntime`] drives the **same unmodified [`Protocol`]
//! automata** the simulator runs, through the same executor core (every
//! callback is one `exec::Host::step`; a worker adds only its schedule and
//! its sink), but over real parallelism: nodes are
//! sharded across worker threads, links are bounded per-node inboxes on a
//! pluggable [`Transport`], timers fire off a monotonic clock, and epoch
//! reconfigurations are injected through the existing
//! [`EpochEvent`]/`on_reconfigure` machinery once the global event count
//! crosses the scheduled threshold. Every run records a
//! [`DeliveryTrace`]; replaying it on the simulator substrate
//! ([`DeliveryTrace::replay`]) must reproduce the run's outputs and
//! metrics bit-identically — the determinism-twin contract that keeps
//! this backend testable (see `docs/ARCHITECTURE.md`).
//!
//! # Progress and shutdown
//!
//! Workers never block inside the transport: a backpressured envelope
//! goes to the sender's local retry queue, which keeps bounded links
//! deadlock-free by construction. Quiescence is detected exactly with a
//! global in-flight counter — incremented when an event (message, timer,
//! reconfiguration, start credit) is created, decremented only after its
//! callback *and* the flush of its effects complete — so a zero reading
//! proves no event exists and none can be created. The coordinator then
//! closes the transport and joins every worker: clean shutdown, no
//! detached threads.
//!
//! Events that can no longer happen release their credits as *drops*,
//! with identical bookkeeping to a delivery to a halted node: envelopes
//! rejected by a closed transport, retry-queue and inbox leftovers drained
//! at shutdown, and transport-internal in-flight losses surfaced through
//! [`Transport::take_dropped`] (polled by the coordinator, so a socket
//! closed mid-run converges instead of stalling). The
//! [`RuntimeReport::dropped`] tally closes the conservation law
//! `total_messages == delivered_messages + dropped` for every run.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use swiper_core::EpochEvent;

use crate::exec::{schedule_epoch, Host, Input, Sink};
use crate::metrics::Metrics;
use crate::sim::{NodeId, Protocol, RunReport};
use crate::transport::{ChannelTransport, Envelope, SendError, SendNodes, Transport};
use crate::twin::{DeliveryTrace, TraceEvent};
use crate::MessageSize;

/// Percentile summary of a sample histogram, in clock ticks
/// (microseconds) — used for every delivered message's send→process
/// interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Median delivery latency.
    pub p50_us: u64,
    /// 95th-percentile delivery latency.
    pub p95_us: u64,
    /// 99th-percentile delivery latency.
    pub p99_us: u64,
    /// Number of deliveries measured.
    pub samples: u64,
}

impl HistSummary {
    /// Summarizes `samples` by nearest-rank percentiles. An empty vector —
    /// a swept cell that produced zero commits, a run whose transport died
    /// before any delivery — yields the all-zero summary, never a panic:
    /// zero percentiles over `samples: 0` are unambiguous downstream.
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        let Some(last) = samples.len().checked_sub(1) else {
            return HistSummary { p50_us: 0, p95_us: 0, p99_us: 0, samples: 0 };
        };
        samples.sort_unstable();
        let pct = |q: u64| samples[(last as u64 * q / 100) as usize];
        HistSummary {
            p50_us: pct(50),
            p95_us: pct(95),
            p99_us: pct(99),
            samples: samples.len() as u64,
        }
    }
}

/// Everything a threaded run produces: the portable [`RunReport`], the
/// replayable [`DeliveryTrace`], and the wall-clock measurements the
/// benchmark layer reads.
#[derive(Debug)]
pub struct RuntimeReport {
    /// Outputs, event counts and communication metrics — the part that
    /// must match the twin replay bit for bit.
    pub report: RunReport,
    /// The recorded callback sequence (see [`DeliveryTrace::replay`]).
    pub trace: DeliveryTrace,
    /// Real elapsed time of the run.
    pub wall: Duration,
    /// Send→process latency percentiles.
    pub latency: HistSummary,
    /// Messages sent but never processed by a live callback: deliveries to
    /// halted nodes, envelopes rejected by a closed transport, retry-queue
    /// and inbox leftovers drained at shutdown, and transport-internal
    /// in-flight drops ([`Transport::take_dropped`]). The conservation law
    /// `metrics.total_messages() == metrics.delivered_messages() + dropped`
    /// holds for every run, however it ended.
    pub dropped: u64,
}

/// A multi-threaded in-process runtime over boxed `Send` node automata.
///
/// Construction mirrors [`Simulation`](crate::Simulation): boxed nodes
/// plus builder-style configuration. [`ThreadedRuntime::run_traced`]
/// consumes the runtime and returns the report, the trace and the
/// wall-clock measurements.
///
/// # Examples
///
/// ```
/// use swiper_net::{Context, NodeId, Protocol, ThreadedRuntime};
///
/// struct Hello { heard: usize }
/// impl Protocol for Hello {
///     type Msg = u64;
///     fn on_start(&mut self, ctx: &mut Context<u64>) {
///         ctx.broadcast(7);
///     }
///     fn on_message(&mut self, _from: NodeId, _msg: u64, ctx: &mut Context<u64>) {
///         self.heard += 1;
///         if self.heard == ctx.n() {
///             ctx.output(b"done".to_vec());
///         }
///     }
/// }
///
/// let nodes: Vec<Box<dyn Protocol<Msg = u64> + Send>> =
///     (0..4).map(|_| Box::new(Hello { heard: 0 }) as _).collect();
/// let full = ThreadedRuntime::new(nodes).with_workers(2).run_traced();
/// assert!(full.report.outputs.iter().all(|o| o.as_deref() == Some(b"done".as_ref())));
///
/// // The determinism twin: replay the trace on fresh nodes, bit-identical.
/// let fresh: Vec<Box<dyn Protocol<Msg = u64>>> =
///     (0..4).map(|_| Box::new(Hello { heard: 0 }) as _).collect();
/// let twin = full.trace.replay(fresh).expect("no divergence");
/// assert_eq!(twin.outputs, full.report.outputs);
/// ```
pub struct ThreadedRuntime<M, T: Transport<M> = ChannelTransport<M>> {
    nodes: SendNodes<M>,
    transport: T,
    workers: usize,
    max_events: u64,
    /// Epoch schedule, ascending by global event count.
    reconfigs: Vec<(u64, EpochEvent)>,
    /// Coordinator gives up after this long without any event progress —
    /// a diagnosis aid, not a control-flow tool (the design is
    /// deadlock-free; a stall means an automaton is stuck inside a
    /// callback).
    stall_limit: Duration,
}

impl<M: Send + Clone + MessageSize + 'static> ThreadedRuntime<M, ChannelTransport<M>> {
    /// A runtime over the given automata on an in-process
    /// [`ChannelTransport`], one worker thread per node by default.
    ///
    /// # Panics
    ///
    /// Panics on an empty node set.
    pub fn new(nodes: SendNodes<M>) -> Self {
        assert!(!nodes.is_empty(), "a runtime needs at least one node");
        let n = nodes.len();
        ThreadedRuntime {
            nodes,
            transport: ChannelTransport::new(n),
            workers: n,
            max_events: 2_000_000,
            reconfigs: Vec::new(),
            stall_limit: Duration::from_secs(10),
        }
    }
}

impl<M: Send + Clone + MessageSize + 'static, T: Transport<M>> ThreadedRuntime<M, T> {
    /// Replaces the transport backend (builder style). The new transport
    /// must address the same population.
    pub fn with_transport<T2: Transport<M>>(self, transport: T2) -> ThreadedRuntime<M, T2> {
        assert_eq!(transport.n(), self.nodes.len(), "transport population mismatch");
        ThreadedRuntime {
            nodes: self.nodes,
            transport,
            workers: self.workers,
            max_events: self.max_events,
            reconfigs: self.reconfigs,
            stall_limit: self.stall_limit,
        }
    }

    /// Sets the worker-thread count (builder style); nodes are sharded
    /// round-robin. Clamped to `1..=n`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.clamp(1, self.nodes.len());
        self
    }

    /// Caps the number of processed events (runaway guard; best-effort —
    /// in-flight callbacks may overshoot by a few events).
    pub fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Schedules an epoch reconfiguration: once the global processed-event
    /// count reaches `at_event`, every non-halted node receives
    /// [`Protocol::on_reconfigure`] with `event` between two of its
    /// callbacks. Same contract as the simulator's
    /// [`Simulation::with_reconfiguration`](crate::Simulation::with_reconfiguration),
    /// with the injection point per node recorded in the trace so the twin
    /// replay applies it at exactly the same position.
    pub fn with_reconfiguration(mut self, at_event: u64, event: EpochEvent) -> Self {
        schedule_epoch(&mut self.reconfigs, at_event, event);
        self
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Runs to quiescence (or the event cap) and returns the full report:
    /// outputs/metrics, the replayable trace, wall time and latency
    /// percentiles.
    pub fn run_traced(self) -> RuntimeReport {
        let n = self.nodes.len();
        let workers = self.workers;
        let transport = &self.transport;
        let max_events = self.max_events;
        let (thresholds, epochs): (Vec<u64>, Vec<EpochEvent>) =
            self.reconfigs.into_iter().unzip();
        let env = WorkerEnv {
            n,
            workers,
            transport,
            epochs: &epochs,
            pending: AtomicI64::new(n as i64),
            processed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
            start_at: Mutex::new(vec![0u64; n]),
            controls: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            origin: Instant::now(),
        };

        // Shard nodes round-robin across workers: node `i` is slot
        // `i / workers` of worker `i % workers`.
        let mut shards: Vec<Shard<M>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, node) in self.nodes.into_iter().enumerate() {
            shards[i % workers].push(Host::new(i, node));
        }

        let mut injected = 0usize;
        let (outputs, metrics, latencies) = std::thread::scope(|s| {
            let env = &env;
            let handles: Vec<_> = shards
                .into_iter()
                .map(|shard| s.spawn(move || worker_loop(shard, env)))
                .collect();

            // Coordinator: inject due epochs, detect quiescence, enforce
            // the event cap, then shut down.
            let mut last_progress = (Instant::now(), 0u64);
            loop {
                std::thread::sleep(Duration::from_micros(200));
                // Transport-internal drops (a socket closed mid-run) are
                // events that will never arrive: account them here like
                // halted-node drops, or their pending credits would stall
                // quiescence until the stall limit.
                env.account_drops(transport.take_dropped());
                let done = env.processed.load(Ordering::SeqCst);
                while injected < thresholds.len() && thresholds[injected] <= done {
                    env.pending.fetch_add(n as i64, Ordering::SeqCst);
                    for c in env.controls.iter() {
                        c.lock().expect("control poisoned").push_back(injected);
                    }
                    injected += 1;
                }
                // `<= 0`, not `== 0`: a drop can be accounted above in the
                // same window its sender's credit lands, so the counter may
                // pass through negative transients.
                if env.pending.load(Ordering::SeqCst) <= 0 || done >= max_events {
                    break;
                }
                if done != last_progress.1 {
                    last_progress = (Instant::now(), done);
                } else if last_progress.0.elapsed() > self.stall_limit {
                    break; // an automaton is stuck inside a callback
                }
            }
            env.shutdown.store(true, Ordering::SeqCst);
            transport.close();

            let mut outputs: Vec<Option<Vec<u8>>> = vec![None; n];
            let mut metrics = Metrics::new(n);
            let mut latencies = Vec::new();
            for handle in handles {
                let part = handle.join().expect("worker panicked");
                for (node, out) in part.outputs {
                    outputs[node] = out;
                }
                metrics.absorb(&part.metrics);
                latencies.extend(part.latencies);
            }
            // Final sweep: envelopes the transport accepted that no worker
            // will ever pop (socket buffers emptied by `close`).
            env.account_drops(transport.take_dropped());
            (outputs, metrics, latencies)
        });

        let (elapsed, wall) = (env.now(), env.origin.elapsed());
        let WorkerEnv { processed, dropped, trace, start_at, .. } = env;
        RuntimeReport {
            report: RunReport {
                outputs,
                elapsed,
                events: processed.into_inner(),
                reconfigurations: injected as u64,
                metrics,
            },
            trace: DeliveryTrace {
                n,
                start_at: start_at.into_inner().expect("start stamps poisoned"),
                events: trace.into_inner().expect("trace poisoned"),
                epochs: epochs.into_iter().take(injected).collect(),
            },
            wall,
            latency: HistSummary::from_samples(latencies),
            dropped: dropped.into_inner(),
        }
    }
}

/// One worker's slice of the population.
type Shard<M> = Vec<Host<dyn Protocol<Msg = M> + Send>>;

/// What the coordinator and every worker of one run share.
struct WorkerEnv<'a, T> {
    n: usize,
    workers: usize,
    transport: &'a T,
    epochs: &'a [EpochEvent],
    /// In-flight event credits: n start credits, +1 per message/timer/
    /// per-node reconfiguration, -1 only after the event's callback and
    /// effect flush complete. Zero ⟺ quiescent.
    pending: AtomicI64,
    processed: AtomicU64,
    dropped: AtomicU64,
    shutdown: AtomicBool,
    trace: Mutex<Vec<TraceEvent>>,
    start_at: Mutex<Vec<u64>>,
    /// Per worker: indices into `epochs` it has yet to apply.
    controls: Vec<Mutex<VecDeque<usize>>>,
    origin: Instant,
}

impl<T> WorkerEnv<'_, T> {
    /// The run's monotonic clock, in microseconds.
    fn now(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Accounts `count` message envelopes that will never reach a live
    /// callback: the same bookkeeping as a delivery to a halted node — each
    /// counts as a processed event and releases its pending credit, but
    /// runs no callback, records no delivery and is never traced. The
    /// `dropped` tally is what keeps `total_messages == delivered_messages
    /// + dropped` exact.
    fn account_drops(&self, count: u64) {
        if count == 0 {
            return; // the coordinator's poll: leave the workers' cache lines alone
        }
        self.processed.fetch_add(count, Ordering::SeqCst);
        self.dropped.fetch_add(count, Ordering::SeqCst);
        self.pending.fetch_sub(count as i64, Ordering::SeqCst);
    }

    /// Appends one callback to the trace. Called *before* the callback's
    /// step, so the global order stays causally consistent: no receiver
    /// can process a message before its send's parent event is on record.
    fn record(&self, entry: TraceEvent) {
        self.trace.lock().expect("trace poisoned").push(entry);
    }
}

/// What one worker hands back at shutdown.
struct WorkerPart {
    outputs: Vec<(NodeId, Option<Vec<u8>>)>,
    metrics: Metrics,
    latencies: Vec<u64>,
}

/// One worker's side of the executor core: sends go to the transport,
/// timer arms to a local heap, and every event created takes a pending
/// credit.
struct Outbound<'a, M, T> {
    env: &'a WorkerEnv<'a, T>,
    /// Backpressured envelopes, retried in order so this worker's sends
    /// stay FIFO even across a full link.
    retry: VecDeque<Envelope<M>>,
    /// `(due, node, timer_ix, id)`, soonest first.
    timers: BinaryHeap<Reverse<(u64, NodeId, u64, u64)>>,
}

impl<M, T: Transport<M>> Outbound<'_, M, T> {
    /// Offers one envelope to the transport. `false` on backpressure, the
    /// envelope parked at the head of the retry queue; an envelope a closed
    /// transport rejects is a drop.
    fn offer(&mut self, envlp: Envelope<M>) -> bool {
        match self.env.transport.try_send(envlp) {
            Ok(()) => true,
            Err(SendError::Full(e)) => {
                self.retry.push_front(e);
                false
            }
            Err(SendError::Closed(_)) => {
                self.env.account_drops(1);
                true
            }
        }
    }
}

impl<M, T: Transport<M>> Sink<M> for Outbound<'_, M, T> {
    fn send(&mut self, envlp: Envelope<M>) {
        self.env.pending.fetch_add(1, Ordering::SeqCst);
        if self.retry.is_empty() {
            self.offer(envlp);
        } else {
            self.retry.push_back(envlp);
        }
    }

    fn arm(&mut self, node: NodeId, timer_ix: u64, due: u64, id: u64) {
        self.env.pending.fetch_add(1, Ordering::SeqCst);
        self.timers.push(Reverse((due, node, timer_ix, id)));
    }
}

fn worker_loop<M: Send + Clone + MessageSize, T: Transport<M>>(
    mut hosted: Shard<M>,
    env: &WorkerEnv<'_, T>,
) -> WorkerPart {
    let worker_ix = hosted.first().map_or(0, |host| host.id % env.workers);
    let mut metrics = Metrics::new(env.n);
    let mut latencies: Vec<u64> = Vec::new();
    let mut out = Outbound { env, retry: VecDeque::new(), timers: BinaryHeap::new() };

    // Time zero: every hosted node starts before this worker consumes any
    // traffic; inbound envelopes simply queue in the transport meanwhile.
    for host in &mut hosted {
        let at = env.now();
        env.start_at.lock().expect("start stamps poisoned")[host.id] = at;
        host.step(env.n, at, Input::Start, &mut metrics, &mut out);
        env.pending.fetch_sub(1, Ordering::SeqCst); // start credit
    }

    let mut idle_spins = 0u32;
    loop {
        let mut did_work = false;

        // 1. Epoch controls: apply to every hosted node, between callbacks.
        loop {
            let next = env.controls[worker_ix].lock().expect("control poisoned").pop_front();
            let Some(epoch_ix) = next else { break };
            did_work = true;
            for host in &mut hosted {
                if !host.halted {
                    let at = env.now();
                    env.record(TraceEvent::Epoch { to: host.id, epoch_ix, at });
                    let input = Input::Epoch(&env.epochs[epoch_ix]);
                    host.step(env.n, at, input, &mut metrics, &mut out);
                }
                env.pending.fetch_sub(1, Ordering::SeqCst);
            }
        }

        // 2. Retry backpressured sends, strictly in order.
        while let Some(envlp) = out.retry.pop_front() {
            if !out.offer(envlp) {
                break;
            }
            did_work = true;
        }

        // 3. Fire due timers.
        while let Some(&Reverse((due, node, timer_ix, id))) = out.timers.peek() {
            let at = env.now();
            if due > at {
                break;
            }
            out.timers.pop();
            did_work = true;
            env.processed.fetch_add(1, Ordering::SeqCst);
            let host = &mut hosted[node / env.workers];
            if !host.halted {
                env.record(TraceEvent::Timer { to: node, timer_ix, id, at });
                host.step(env.n, at, Input::Timer { id }, &mut metrics, &mut out);
            }
            env.pending.fetch_sub(1, Ordering::SeqCst);
        }

        // 4. Drain inbound traffic, a bounded batch per node per pass so
        // timers and controls stay serviced under load.
        for host in &mut hosted {
            for _ in 0..32 {
                let Some(Envelope { from, send_ix, sent_at, msg, .. }) =
                    env.transport.try_recv(host.id)
                else {
                    break;
                };
                did_work = true;
                if host.halted {
                    // Parity with the simulator: deliveries to a halted
                    // node count as events but run no callback (and are
                    // not traced — the twin never sees them). They are
                    // drops for the message conservation law.
                    env.account_drops(1);
                    continue;
                }
                let at = env.now();
                env.processed.fetch_add(1, Ordering::SeqCst);
                latencies.push(at.saturating_sub(sent_at));
                env.record(TraceEvent::Deliver { to: host.id, from, send_ix, at });
                host.step(env.n, at, Input::Message { from, msg }, &mut metrics, &mut out);
                env.pending.fetch_sub(1, Ordering::SeqCst);
            }
        }

        if env.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if did_work {
            idle_spins = 0;
        } else {
            idle_spins += 1;
            if idle_spins < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    // Shutdown drain: when the coordinator trips `max_events` (or a stall,
    // or a mid-run transport close), this worker's retry queue and its
    // nodes' inboxes may still hold envelopes whose pending credits were
    // taken at send time. Every one must be drop-accounted, or the run
    // leaks credits and reports a miscounted event total.
    env.account_drops(out.retry.len() as u64);
    for host in &hosted {
        while env.transport.try_recv(host.id).is_some() {
            env.account_drops(1);
        }
    }

    WorkerPart {
        outputs: hosted.into_iter().map(|h| (h.id, h.output)).collect(),
        metrics,
        latencies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Context;

    /// Each node broadcasts its id once; outputs the sum of ids received.
    struct Summer {
        sum: u64,
        heard: usize,
    }

    impl Protocol for Summer {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(ctx.me() as u64);
        }

        fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Context<u64>) {
            self.sum += msg;
            self.heard += 1;
            if self.heard == ctx.n() {
                ctx.output(self.sum.to_le_bytes().to_vec());
            }
        }
    }

    fn summers(n: usize) -> SendNodes<u64> {
        (0..n).map(|_| Box::new(Summer { sum: 0, heard: 0 }) as _).collect()
    }

    fn summers_sim(n: usize) -> Vec<Box<dyn Protocol<Msg = u64>>> {
        (0..n).map(|_| Box::new(Summer { sum: 0, heard: 0 }) as _).collect()
    }

    #[test]
    fn threaded_run_delivers_everything() {
        for workers in [1, 2, 5] {
            let full = ThreadedRuntime::new(summers(5)).with_workers(workers).run_traced();
            let expect = (0u64..5).sum::<u64>().to_le_bytes().to_vec();
            for out in &full.report.outputs {
                assert_eq!(out.as_ref(), Some(&expect), "workers={workers}");
            }
            assert_eq!(full.report.metrics.total_messages(), 25);
            assert_eq!(full.report.metrics.total_bytes(), 25 * 8);
            assert_eq!(full.report.metrics.delivered_messages(), 25);
        }
    }

    #[test]
    fn trace_replays_bit_identically() {
        let full = ThreadedRuntime::new(summers(6)).with_workers(3).run_traced();
        assert!(!full.trace.is_empty());
        let twin = full.trace.replay(summers_sim(6)).expect("no divergence");
        assert_eq!(twin.outputs, full.report.outputs);
        assert_eq!(twin.metrics, full.report.metrics);
    }

    #[test]
    fn timers_fire_on_the_monotonic_clock() {
        struct TimerNode;
        impl Protocol for TimerNode {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.set_timer(10, 42);
            }
            fn on_message(&mut self, _f: NodeId, _m: u64, _c: &mut Context<u64>) {}
            fn on_timer(&mut self, id: u64, ctx: &mut Context<u64>) {
                ctx.output(id.to_le_bytes().to_vec());
            }
        }
        let nodes: SendNodes<u64> = vec![Box::new(TimerNode)];
        let full = ThreadedRuntime::new(nodes).run_traced();
        assert_eq!(full.report.outputs[0].as_deref(), Some(&42u64.to_le_bytes()[..]));
        let fresh: Vec<Box<dyn Protocol<Msg = u64>>> = vec![Box::new(TimerNode)];
        let twin = full.trace.replay(fresh).expect("no divergence");
        assert_eq!(twin.outputs, full.report.outputs);
    }

    #[test]
    fn event_cap_stops_runaway() {
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(0);
            }
            fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<u64>) {
                ctx.send(from, msg + 1);
            }
        }
        let nodes: SendNodes<u64> = (0..3).map(|_| Box::new(Chatter) as _).collect();
        let report = ThreadedRuntime::new(nodes).with_max_events(500).run_traced().report;
        assert!(report.events >= 500, "cap is a floor for the stop decision");
        assert!(report.outputs.iter().all(|o| o.is_none()));
    }

    #[test]
    fn reconfigurations_reach_every_node_and_replay() {
        use swiper_core::{TicketAssignment, TicketDelta, Weights};
        /// Counts reconfigurations; outputs the count on the next message.
        struct EpochAware {
            seen: u8,
        }
        impl Protocol for EpochAware {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(0);
            }
            fn on_message(&mut self, _f: NodeId, _m: u64, ctx: &mut Context<u64>) {
                if self.seen > 0 {
                    ctx.output(vec![self.seen]);
                }
            }
            fn on_reconfigure(&mut self, _e: &EpochEvent, ctx: &mut Context<u64>) {
                self.seen += 1;
                ctx.broadcast(1);
            }
        }
        let delta = TicketDelta::between(
            &TicketAssignment::new(vec![1, 1, 1]),
            &TicketAssignment::new(vec![2, 1, 1]),
        )
        .unwrap();
        let stake = Weights::new(vec![1, 1, 1]).unwrap();
        let event = EpochEvent::new(1, delta, &stake, stake.clone(), 0).unwrap();
        let nodes: SendNodes<u64> =
            (0..3).map(|_| Box::new(EpochAware { seen: 0 }) as _).collect();
        let full = ThreadedRuntime::new(nodes)
            .with_workers(2)
            .with_reconfiguration(2, event)
            .run_traced();
        assert_eq!(full.report.reconfigurations, 1);
        for out in &full.report.outputs {
            assert_eq!(out.as_deref(), Some(&[1u8][..]));
        }
        let fresh: Vec<Box<dyn Protocol<Msg = u64>>> =
            (0..3).map(|_| Box::new(EpochAware { seen: 0 }) as _).collect();
        let twin = full.trace.replay(fresh).expect("no divergence");
        assert_eq!(twin.outputs, full.report.outputs);
        assert_eq!(twin.metrics, full.report.metrics);
        assert_eq!(twin.reconfigurations, 1);
    }

    #[test]
    fn tiny_links_backpressure_without_deadlock() {
        // Capacity-1 links under an all-to-all burst: progress must come
        // from the retry queues alone.
        let nodes = summers(6);
        let transport = ChannelTransport::with_capacity(6, 1);
        let full =
            ThreadedRuntime::new(nodes).with_transport(transport).with_workers(3).run_traced();
        let expect = (0u64..6).sum::<u64>().to_le_bytes().to_vec();
        for out in &full.report.outputs {
            assert_eq!(out.as_ref(), Some(&expect));
        }
        let twin = full.trace.replay(summers_sim(6)).expect("no divergence");
        assert_eq!(twin.outputs, full.report.outputs);
    }

    #[test]
    fn hist_summary_percentiles() {
        let s = HistSummary::from_samples((1..=100).collect());
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p95_us, 95);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.samples, 100);
    }

    #[test]
    fn hist_summary_of_zero_samples_is_all_zero() {
        // A swept cell with zero commits must summarize, not panic.
        let empty = HistSummary::from_samples(Vec::new());
        assert_eq!(empty, HistSummary { p50_us: 0, p95_us: 0, p99_us: 0, samples: 0 });
        let single = HistSummary::from_samples(vec![7]);
        assert_eq!(single, HistSummary { p50_us: 7, p95_us: 7, p99_us: 7, samples: 1 });
    }

    #[test]
    fn zero_delivery_run_reports_zero_percentiles() {
        // End-to-end empty-histogram path: one silent node, no traffic.
        struct Silent;
        impl Protocol for Silent {
            type Msg = u64;
            fn on_start(&mut self, _ctx: &mut Context<u64>) {}
            fn on_message(&mut self, _f: NodeId, _m: u64, _c: &mut Context<u64>) {}
        }
        let nodes: SendNodes<u64> = vec![Box::new(Silent)];
        let full = ThreadedRuntime::new(nodes).run_traced();
        assert_eq!(full.latency.samples, 0);
        assert_eq!((full.latency.p50_us, full.latency.p99_us), (0, 0));
        assert_eq!(full.dropped, 0);
    }

    #[test]
    fn max_events_shutdown_drains_retry_queues_and_accounts_drops() {
        // Fan-out-2 chatter over capacity-1 links: traffic grows without
        // bound, so when the event cap trips, worker retry queues and
        // node inboxes still hold backpressured envelopes whose pending
        // credits were taken at send time. The shutdown drain must
        // account every one — with the drain reverted, `dropped`
        // undercounts and the conservation law below fails.
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(0);
            }
            fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<u64>) {
                ctx.send(from, msg + 1);
                ctx.send(from, msg + 1);
            }
        }
        let nodes: SendNodes<u64> = (0..3).map(|_| Box::new(Chatter) as _).collect();
        let full = ThreadedRuntime::new(nodes)
            .with_transport(ChannelTransport::with_capacity(3, 1))
            .with_workers(3)
            .with_max_events(200)
            .run_traced();
        assert!(full.report.events >= 200, "cap is a floor for the stop decision");
        assert!(full.dropped > 0, "the cap must strand in-flight envelopes here");
        assert_eq!(
            full.report.metrics.total_messages(),
            full.report.metrics.delivered_messages() + full.dropped,
            "every sent envelope is either delivered or drop-accounted"
        );
    }

    #[test]
    fn mid_run_transport_close_converges_and_accounts_drops() {
        // Killing the transport while traffic is in flight must end the
        // run by drop accounting, not by the 10-second stall limit.
        struct PingPong;
        impl Protocol for PingPong {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(0);
            }
            fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<u64>) {
                if msg < 100_000 {
                    ctx.send(from, msg + 1);
                }
            }
        }
        let nodes: SendNodes<u64> = (0..4).map(|_| Box::new(PingPong) as _).collect();
        let transport = std::sync::Arc::new(ChannelTransport::new(4));
        let killer = std::sync::Arc::clone(&transport);
        let saboteur = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            killer.close();
        });
        let full =
            ThreadedRuntime::new(nodes).with_transport(transport).with_workers(2).run_traced();
        saboteur.join().unwrap();
        assert!(full.wall < Duration::from_secs(5), "must not ride the stall limit");
        assert_eq!(
            full.report.metrics.total_messages(),
            full.report.metrics.delivered_messages() + full.dropped,
            "every sent envelope is either delivered or drop-accounted"
        );
    }
}
