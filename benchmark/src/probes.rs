//! Probes that wrap the program's public traits from outside.
//!
//! Each forwards every call unchanged (same `ctx`, same arguments, same
//! return value) and only reads the clock around it, so a probed run
//! produces the same outputs, `Metrics`, `SolveStats` and twin verdict as
//! a bare one — `tests.rs` pins that. They are used on traced episodes
//! only; the one always-on probe is [`CommitClock`], without which commit
//! latency cannot be observed from outside.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use swiper_core::{
    CertifyingOracle, CheckParams, CoreError, EpochEvent, FamilyMember, SolveStats,
    ValidityOracle, Verdict, VerdictCertificate,
};
use swiper_net::{Context, MessageSize, NodeId, Protocol, WireCodec, WireError};
use swiper_protocols::smr::{SmrMsg, SmrNode};

fn ns_u32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Number of message classes a [`TimedNode`] can tell apart.
pub const CLASSES: usize = 3;

/// What the [`TimedNode`]s of one fleet observed.
#[derive(Debug, Default)]
pub struct CallStats {
    /// Duration of every `on_start`/`on_message`/`on_timer` callback.
    pub callback_ns: Vec<u32>,
    /// Duration of every `on_reconfigure` callback.
    pub reconfigure_ns: Vec<u32>,
    /// Received messages per class (see [`TimedNode::with_classes`]).
    pub class_msgs: [u64; CLASSES],
    /// Received bytes per class.
    pub class_bytes: [u64; CLASSES],
}

impl CallStats {
    pub fn callbacks(&self) -> u64 {
        self.callback_ns.len() as u64
    }

    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.callback_ns.iter().map(|&d| u64::from(d)).sum())
    }

    fn absorb(&mut self, other: &mut CallStats) {
        self.callback_ns.append(&mut other.callback_ns);
        self.reconfigure_ns.append(&mut other.reconfigure_ns);
        for c in 0..CLASSES {
            self.class_msgs[c] += other.class_msgs[c];
            self.class_bytes[c] += other.class_bytes[c];
        }
    }
}

/// Where a fleet's [`TimedNode`]s deposit their observations.
pub type CallSink = Arc<Mutex<CallStats>>;

/// A forwarding [`Protocol`] wrapper timing every callback of `inner`.
///
/// Observations stay in the node (no shared state on the callback path)
/// and move to the sink when the runtime drops the node at the end of the
/// run.
pub struct TimedNode<P: Protocol> {
    inner: P,
    local: CallStats,
    sink: CallSink,
    classify: fn(&P::Msg) -> usize,
}

impl<P: Protocol> TimedNode<P> {
    pub fn new(inner: P, sink: &CallSink) -> Self {
        TimedNode {
            inner,
            local: CallStats::default(),
            sink: Arc::clone(sink),
            classify: |_| 0,
        }
    }

    /// Counts received messages and bytes per class `classify` names
    /// (below [`CLASSES`]).
    pub fn with_classes(mut self, classify: fn(&P::Msg) -> usize) -> Self {
        self.classify = classify;
        self
    }
}

impl<P: Protocol> Protocol for TimedNode<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<P::Msg>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.local.callback_ns.push(ns_u32(t.elapsed()));
    }

    fn on_message(&mut self, from: NodeId, msg: P::Msg, ctx: &mut Context<P::Msg>) {
        let class = (self.classify)(&msg);
        self.local.class_msgs[class] += 1;
        self.local.class_bytes[class] += msg.size_bytes() as u64;
        let t = Instant::now();
        self.inner.on_message(from, msg, ctx);
        self.local.callback_ns.push(ns_u32(t.elapsed()));
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<P::Msg>) {
        let t = Instant::now();
        self.inner.on_timer(id, ctx);
        self.local.callback_ns.push(ns_u32(t.elapsed()));
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<P::Msg>) {
        let t = Instant::now();
        self.inner.on_reconfigure(event, ctx);
        self.local.reconfigure_ns.push(ns_u32(t.elapsed()));
    }
}

impl<P: Protocol> Drop for TimedNode<P> {
    fn drop(&mut self) {
        // A poisoned sink means a worker already panicked; the run is lost
        // either way and Drop must not panic on top of it.
        if let Ok(mut sink) = self.sink.lock() {
            sink.absorb(&mut self.local);
        }
    }
}

/// When each replica of a fleet committed each round.
pub type CommitSink = Arc<Mutex<Vec<Vec<Instant>>>>;

/// Stamps the clock whenever the wrapped [`SmrNode`]'s `committed()`
/// advances: one `Instant::now()` per committed round, plus one at start.
pub struct CommitClock {
    inner: SmrNode,
    me: usize,
    /// `stamps[0]` is the start; `stamps[r + 1]` the commit of round `r`.
    stamps: Vec<Instant>,
    sink: CommitSink,
}

impl CommitClock {
    /// `sink` must hold one slot per replica.
    pub fn new(inner: SmrNode, me: usize, sink: &CommitSink) -> Self {
        CommitClock { inner, me, stamps: Vec::new(), sink: Arc::clone(sink) }
    }

    fn stamp(&mut self) {
        let committed = self.inner.committed() as usize;
        if committed + 1 > self.stamps.len() {
            self.stamps.resize(committed + 1, Instant::now());
        }
    }
}

impl Protocol for CommitClock {
    type Msg = SmrMsg;

    fn on_start(&mut self, ctx: &mut Context<SmrMsg>) {
        self.stamps.push(Instant::now());
        self.inner.on_start(ctx);
        self.stamp();
    }

    fn on_message(&mut self, from: NodeId, msg: SmrMsg, ctx: &mut Context<SmrMsg>) {
        self.inner.on_message(from, msg, ctx);
        self.stamp();
    }
}

impl Drop for CommitClock {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink[self.me] = std::mem::take(&mut self.stamps);
        }
    }
}

/// What a [`TimedCodec`] observed. Workers encode and the socket pump
/// decodes concurrently, hence atomics; `Relaxed` because each is a
/// statistic read only after the run has joined its threads.
#[derive(Debug, Default)]
pub struct CodecStats {
    encode_ns: AtomicU64,
    decode_ns: AtomicU64,
    encodes: AtomicU64,
    decodes: AtomicU64,
    bytes: AtomicU64,
}

impl CodecStats {
    pub fn encode_busy(&self) -> Duration {
        Duration::from_nanos(self.encode_ns.load(Ordering::Relaxed))
    }
    pub fn decode_busy(&self) -> Duration {
        Duration::from_nanos(self.decode_ns.load(Ordering::Relaxed))
    }
    pub fn encodes(&self) -> u64 {
        self.encodes.load(Ordering::Relaxed)
    }
    pub fn decodes(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }
    /// Bytes produced by `encode` (payload bytes on the wire, before the
    /// transport's frame header).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// A forwarding [`WireCodec`] timing every encode and decode of `inner`
/// — or, built without a sink, only forwarding: the transport's type then
/// does not depend on whether the episode is traced.
pub struct TimedCodec<C> {
    inner: C,
    stats: Option<Arc<CodecStats>>,
}

impl<C> TimedCodec<C> {
    pub fn new(inner: C, stats: Option<&Arc<CodecStats>>) -> Self {
        TimedCodec { inner, stats: stats.map(Arc::clone) }
    }
}

impl<M, C: WireCodec<M>> WireCodec<M> for TimedCodec<C> {
    fn encode(&self, msg: &M, out: &mut Vec<u8>) {
        let Some(stats) = &self.stats else { return self.inner.encode(msg, out) };
        let before = out.len();
        let t = Instant::now();
        self.inner.encode(msg, out);
        stats.encode_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        stats.encodes.fetch_add(1, Ordering::Relaxed);
        stats.bytes.fetch_add((out.len() - before) as u64, Ordering::Relaxed);
    }

    fn decode(&self, buf: &[u8]) -> Result<M, WireError> {
        let Some(stats) = &self.stats else { return self.inner.decode(buf) };
        let t = Instant::now();
        let out = self.inner.decode(buf);
        stats.decode_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        stats.decodes.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// A forwarding [`ValidityOracle`] timing every check of `inner`. Stats
/// drain through to `inner` untouched, so the solver's `SolveStats` are
/// those of the bare oracle.
#[derive(Debug, Default)]
pub struct TimedOracle<O> {
    inner: O,
    checks: u64,
    busy: Duration,
}

impl<O> TimedOracle<O> {
    pub fn new(inner: O) -> Self {
        TimedOracle { inner, checks: 0, busy: Duration::ZERO }
    }

    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// `(checks, busy time)` since the previous call.
    pub fn take_timing(&mut self) -> (u64, Duration) {
        (std::mem::take(&mut self.checks), std::mem::take(&mut self.busy))
    }

    /// `(checks, busy time)` so far, without resetting — for a probe
    /// reached only through a shared reference.
    pub fn timing(&self) -> (u64, Duration) {
        (self.checks, self.busy)
    }
}

impl<O: ValidityOracle> ValidityOracle for TimedOracle<O> {
    fn check(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Result<Verdict, CoreError> {
        let t = Instant::now();
        let out = self.inner.check(member, params);
        self.busy += t.elapsed();
        self.checks += 1;
        out
    }

    fn take_stats(&mut self) -> SolveStats {
        self.inner.take_stats()
    }
}

impl<O: CertifyingOracle> CertifyingOracle for TimedOracle<O> {
    fn check_certified(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Result<(Verdict, Option<VerdictCertificate>), CoreError> {
        let t = Instant::now();
        let out = self.inner.check_certified(member, params);
        self.busy += t.elapsed();
        self.checks += 1;
        out
    }
}
