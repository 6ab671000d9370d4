//! Stake-weighted gossip overlay: a partial-view dissemination backend.
//!
//! Every protocol in this crate's test fleet historically ran full-mesh:
//! one [`Delivery::Broadcast`](crate::Delivery) effect fanned out to all
//! `n` nodes, `O(n²)` messages per logical round. This module keeps the
//! broadcast effect *symbolic* and expands it into **overlay fanout**
//! instead: each node keeps a small *active view* and pushes payloads
//! Plumtree-style: eagerly along a spanning tree, lazily (IHAVE/GRAFT)
//! along the rest of the view. Five design points tie the overlay to the
//! Swiper paper's weighted model (measurements: the "Dissemination
//! backends" ADR in `docs/ARCHITECTURE.md`):
//!
//! * **Membership is the weight vector.** The model makes stake public:
//!   every node holds all `n` weights, so "who exists" is never learned
//!   from the wire — no message carries a peer list. Views, tree and
//!   replacements are functions of the vector and the node's seeded
//!   sampler alone.
//! * **The tree is derived, not learned.** Each node computes the same
//!   k-ary heap over the parties ordered by (stake floored at 1,
//!   descending; then id): its parent and up to k children are its eager
//!   links — symmetric by construction, heavy stake at the root, the
//!   parties cheapest to corrupt at the leaves. k is half the active
//!   degree, so the links sit inside the view and a broadcast costs `n`
//!   payload sends at any degree. At every [`EpochEvent`] the tree is
//!   re-derived from the event's weights.
//! * **Stake-weighted lazy links.** The rest of the active view, and the
//!   replacement for a peer confirmed failed, are drawn from the vector
//!   with [`WeightedReservoir`](swiper_core::sampling::WeightedReservoir)
//!   (`fold_rekey` reseeds it at an epoch). They carry one batched
//!   [`OverlayMsg::IHave`] per lazy tick; a peer still lacking an
//!   announced payload one graft wait later pulls it with `Graft`, which
//!   makes the link eager on both ends, and a duplicate on an eager link
//!   demotes it again (`Prune`). Tick and wait are one eager hop's
//!   allowance times the tree depth, so a fault-free run sends neither.
//! * **Structural reach.** The ring successor `(me+1) mod n` never leaves
//!   the active view and is announced *every* payload. Walk the ring from
//!   any holder: the first node lacking the payload has a predecessor that
//!   holds it, was announced it, and grafts — so a failed or Byzantine
//!   interior node costs its subtree latency, not the payload.
//! * **Churn feeds epochs.** SWIM-style probing (ping, suspect on
//!   timeout, confirm after a grace period) records confirmed failures
//!   into a shared [`ChurnLedger`], which renders them as a *candidate
//!   weight snapshot* — input for the Reconfigurator's solver pass,
//!   composing with the epoch machinery instead of mutating membership
//!   behind its back.
//!
//! **Dissemination state.** What a node has received is kept per origin,
//! in a window of `SEQ_WINDOW` (1024) consecutive sequence numbers from
//! that origin's `base`: slot `seq − base` holds the payload and its hop
//! count, so a receipt, a duplicate check and a graft lookup are an index,
//! and the state a node keeps per origin is bounded. Receipts fill the
//! lower half; the upper half is headroom for grafts, so the ids just past
//! the newest receipt can always be pulled. A first receipt in the upper
//! half slides the window forward until its `seq` ends the lower half,
//! evicting the oldest. An id below `base` counts as already seen: an
//! `Eager` copy of it is dropped before the inner automaton and prunes
//! nothing, an `IHave` naming it (or naming anything past the window) arms
//! no graft timer, a pending graft for it is given up, and a `Graft` asking
//! for it gets no reply. `Eager` frames are unsigned, so a relay can
//! forge any `(origin, seq)`, and the window makes one forgery reach
//! further: a forged `seq` far ahead slides the window past every real id
//! of that origin up to it, at this node and at every node the forgery is
//! fanned out to. Two guards narrow that without closing it (closing it
//! takes signed broadcasts): a `seq` must fit the graft timer's 28 bits,
//! and a node accepts its own origin only from itself, so it always
//! delivers and fans out its own broadcasts. Queued announcements are a
//! short vector of `(peer, ids)` kept sorted by peer, flushed in that order
//! at the lazy tick.
//!
//! The overlay is itself a [`Protocol`] (over [`OverlayMsg`]), so it runs
//! unchanged on both substrates — the deterministic simulator and the
//! threaded runtime over channel or socket transports — and satisfies the
//! determinism-twin contract: all randomness comes from a seeded
//! [`SplitMix64`], every emission is a pure function of the callback
//! sequence, and shared stats/ledger handles are observational only.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

use swiper_core::sampling::{SplitMix64, WeightedReservoir};
use swiper_core::{EpochEvent, Weights};

use crate::codec::{put_slice, put_u32, WireCodec, WireError, WireReader};
use crate::sim::{Context, NodeId, Protocol};
use crate::transport::Delivery;
use crate::MessageSize;

/// Overlay timers live above bit 63; inner-protocol timer ids must stay
/// below it.
const OVERLAY_TIMER_BIT: u64 = 1 << 63;
/// Timer kind field (bits 60..=62).
const KIND_SHIFT: u64 = 60;
const KIND_GRAFT: u64 = 0;
const KIND_PROBE_TICK: u64 = 1;
const KIND_PROBE_TIMEOUT: u64 = 2;
const KIND_CONFIRM: u64 = 3;
const KIND_LAZY: u64 = 4;
/// Payload mask (bits 0..60).
const PAYLOAD_MASK: u64 = (1 << KIND_SHIFT) - 1;

fn overlay_timer(kind: u64, payload: u64) -> u64 {
    debug_assert!(payload <= PAYLOAD_MASK);
    OVERLAY_TIMER_BIT | (kind << KIND_SHIFT) | payload
}

fn graft_timer(origin: u32, seq: u32) -> u64 {
    debug_assert!(origin < (1 << 28) && seq < (1 << 28));
    overlay_timer(KIND_GRAFT, (u64::from(origin) << 28) | u64::from(seq))
}

/// Messages of the overlay layer. `M` is the wrapped protocol's message
/// type, carried opaquely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverlayMsg<M> {
    /// Eager push: the payload itself, tagged with its origin's id, the
    /// origin's broadcast sequence number, and the hop count so far.
    Eager {
        /// Originating node (the logical broadcaster).
        origin: u32,
        /// Origin's per-node broadcast counter.
        seq: u32,
        /// Hops travelled from the origin (0 = the origin's own copy).
        hops: u32,
        /// The wrapped protocol's message.
        payload: M,
    },
    /// Lazy push: "I have these payloads" — one batch per lazy peer per
    /// lazy tick, so the receiver can graft what its eager paths missed.
    IHave {
        /// `(origin, seq)` of every payload announced.
        ids: Vec<(u32, u32)>,
    },
    /// Pull request for an announced payload the sender never received
    /// eagerly; also promotes the link back to eager (tree repair).
    Graft {
        /// Originating node of the wanted payload.
        origin: u32,
        /// Origin's broadcast counter for the wanted payload.
        seq: u32,
    },
    /// "Stop eager-pushing to me on this link" — the sender saw a
    /// duplicate; the link demotes to lazy.
    Prune,
    /// A point-to-point message of the wrapped protocol (inner unicasts
    /// bypass gossip).
    Direct(M),
    /// Failure detection: liveness probe.
    Ping {
        /// Correlates the probe with its pong and timers.
        nonce: u32,
    },
    /// Failure detection: probe answer.
    Pong {
        /// The probe's nonce, echoed.
        nonce: u32,
    },
    /// The sender evicted this link from its active view.
    Disconnect,
}

impl<M: MessageSize> MessageSize for OverlayMsg<M> {
    fn size_bytes(&self) -> usize {
        match self {
            OverlayMsg::Eager { payload, .. } => 1 + 12 + payload.size_bytes(),
            OverlayMsg::IHave { ids } => 1 + 4 + 8 * ids.len(),
            OverlayMsg::Graft { .. } => 1 + 8,
            OverlayMsg::Prune | OverlayMsg::Disconnect => 1,
            OverlayMsg::Direct(m) => 1 + m.size_bytes(),
            OverlayMsg::Ping { .. } | OverlayMsg::Pong { .. } => 1 + 4,
        }
    }
}

/// How many lazy peers a first receipt is announced to, on top of the
/// ring successor (which is announced every one).
const LAZY_FANOUT: usize = 2;
/// How many graft attempts (rotating providers) before giving up.
const GRAFT_RETRIES: u32 = 3;
/// Consecutive sequence numbers per origin a node tracks (module docs,
/// "Dissemination state").
const SEQ_WINDOW: usize = 1024;
/// Timer lengths in units of [`OverlayConfig::tick`]: what one eager hop
/// may take (the lazy tick and the wait for an eager copy after an IHAVE
/// are both this times the tree depth), the gap between liveness probes,
/// how long an unanswered probe waits before its target is suspected, and
/// how much longer before a suspected peer is confirmed failed.
const GRAFT_WAIT: u64 = 40;
const PROBE_PERIOD: u64 = 25;
const PROBE_TIMEOUT: u64 = 30;
const CONFIRM_WAIT: u64 = 60;

/// The overlay's knobs: the four values two callers disagree on, and
/// nothing else — the lazy fanout, graft retries and timer ratios are
/// constants of this module. The dissemination tree's arity is half the
/// active degree (at least 2), so its links sit inside the active view at
/// any degree ≥ 4. Failure detection is *bounded-round* — a fixed number
/// of probes per run, so runs quiesce instead of ticking forever.
#[derive(Debug, Clone)]
pub struct OverlayConfig {
    /// Active-view size; `0` derives `max(3, ⌈log₂ n⌉) + 1` from `n` (the
    /// +1 is the ring successor). The flood baseline sets `n - 1`.
    pub active_degree: usize,
    /// Total liveness probes each node sends per run (0 disables). Runs
    /// that must *confirm* a silent peer raise it so every active link is
    /// probed.
    pub probe_rounds: u32,
    /// When false, no tree is derived and duplicate receipts never demote
    /// eager links: every active edge stays eager forever and the overlay
    /// degenerates into reliable flooding. The benchmark harness runs its
    /// `fullmesh` yardstick with this off (and `active_degree: n - 1`) so
    /// the n²-flood baseline is *measured* through the same code path the
    /// overlay uses, not assumed.
    pub prune: bool,
    /// Clock units per overlay tick; every overlay timer is a constant
    /// multiple of it (see [`OverlayConfig::scaled_by`]).
    pub tick: u64,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig { active_degree: 0, probe_rounds: 2, prune: true, tick: 1 }
    }
}

impl OverlayConfig {
    /// Multiplies the tick, and with it every overlay timer, by `f`. The
    /// default is sized for the simulator's abstract ticks (delays of
    /// 1..=20); on [`crate::ThreadedRuntime`] the clock is *microseconds*,
    /// so runs there should scale up (e.g. `scaled_by(500)`) or probes
    /// time out before a pong can cross a real scheduler.
    #[must_use]
    pub fn scaled_by(mut self, f: u64) -> Self {
        self.tick *= f;
        self
    }

    fn active_for(&self, n: usize) -> usize {
        let auto = || {
            let log = usize::BITS - n.max(2).next_power_of_two().leading_zeros() - 1;
            (log as usize).max(3) + 1
        };
        let d = if self.active_degree == 0 { auto() } else { self.active_degree };
        d.min(n.saturating_sub(1))
    }
}

/// Shared counters describing one overlay run: dissemination shape
/// (deliveries, hop radius), repair activity (prunes, IHAVEs, grafts),
/// failure-detection activity, and view degree. Observational only —
/// recording never influences an emission, which is what keeps a
/// stats-sharing run twin-replayable.
#[derive(Debug, Default, Clone)]
pub struct OverlayStats {
    /// Logical broadcasts turned into gossip originations.
    pub broadcasts: u64,
    /// First receipts handed to inner protocols (one per node reached).
    pub deliveries: u64,
    /// Maximum hop count over all first receipts (rounds to full
    /// delivery).
    pub max_hops: u32,
    /// Prune messages sent (tree convergence).
    pub prunes: u64,
    /// IHAVE batches sent to lazy peers.
    pub ihaves: u64,
    /// Graft pulls sent (recovery activity).
    pub grafts: u64,
    /// Probes that timed out into suspicion.
    pub suspects: u64,
    /// Suspicions that hardened into confirmed failures.
    pub confirmed_failures: u64,
    /// Reads 0, since no membership exchange is left to count; stays until
    /// a `[benchmark]` PR drops the `overlay.shuffles` metric that reads it.
    pub shuffles: u64,
    /// Sum of active-view sizes at view-build time…
    pub degree_sum: u64,
    /// …over this many node-builds (mean degree = sum / builds).
    pub degree_builds: u64,
    /// Payload-bearing [`OverlayMsg::Eager`] frames sent, self-addressed
    /// originations included…
    pub eager_sent: u64,
    /// …and their bytes.
    pub eager_bytes: u64,
    /// The overlay's own frames sent: everything but `Eager` and the
    /// inner protocol's `Direct` unicasts…
    pub control_sent: u64,
    /// …and their bytes.
    pub control_bytes: u64,
}

impl OverlayStats {
    /// Mean active-view degree over every view build of the run.
    #[must_use]
    pub fn mean_degree(&self) -> f64 {
        if self.degree_builds == 0 {
            0.0
        } else {
            self.degree_sum as f64 / self.degree_builds as f64
        }
    }
}

/// One churn observation made by the overlay's failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A probed peer never answered through suspicion and grace — the
    /// observer considers it failed.
    ConfirmedFailure {
        /// The node that ran the probe.
        observer: NodeId,
        /// The peer it confirmed failed.
        peer: NodeId,
    },
}

/// Shared record of churn the overlay detected, and its bridge into the
/// epoch machinery: [`ChurnLedger::candidate_weights`] renders confirmed
/// failures as a zeroed-stake candidate snapshot, which callers hand to
/// the Reconfigurator (`swiper-weights`) — churn *feeds* epochs, it never
/// mutates membership directly.
#[derive(Debug, Default)]
pub struct ChurnLedger {
    events: Vec<ChurnEvent>,
}

impl ChurnLedger {
    /// A fresh, empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded events, in record order.
    #[must_use]
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    fn record(&mut self, ev: ChurnEvent) {
        self.events.push(ev);
    }

    /// Peers confirmed failed by at least `quorum` distinct observers.
    #[must_use]
    pub fn confirmed_by(&self, quorum: usize) -> BTreeSet<NodeId> {
        let mut observers: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        for ev in &self.events {
            let ChurnEvent::ConfirmedFailure { observer, peer } = *ev;
            observers.entry(peer).or_default().insert(observer);
        }
        observers.into_iter().filter(|(_, o)| o.len() >= quorum).map(|(p, _)| p).collect()
    }

    /// The candidate weight snapshot implied by detected churn: `base`
    /// with every quorum-confirmed failure's stake zeroed. `None` when
    /// nothing was confirmed (no epoch warranted) or when zeroing would
    /// erase all stake (an all-failed snapshot cannot parameterize a
    /// solver pass).
    #[must_use]
    pub fn candidate_weights(&self, base: &Weights, quorum: usize) -> Option<Weights> {
        let failed = self.confirmed_by(quorum);
        if failed.is_empty() {
            return None;
        }
        let snapshot: Vec<u64> = base
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &w)| if failed.contains(&i) { 0 } else { w })
            .collect();
        Weights::new(snapshot).ok()
    }
}

/// One origin's receipts over the `SEQ_WINDOW` sequence numbers from
/// `base`: the payload and hop count of each one received, at
/// `slots[seq - base]`. Every receipt lies in the lower half; the upper
/// half is headroom, the ids after the newest receipt that a graft may
/// still pull. Everything below `base` is forgotten.
#[derive(Debug)]
struct SeqWindow<M> {
    base: u32,
    slots: VecDeque<Option<(M, u32)>>,
}

impl<M> SeqWindow<M> {
    fn new() -> Self {
        SeqWindow { base: 0, slots: VecDeque::new() }
    }

    /// `seq`'s slot index, if it lies inside the window.
    fn offset(&self, seq: u32) -> Option<usize> {
        let off = seq.checked_sub(self.base)? as usize;
        (off < SEQ_WINDOW).then_some(off)
    }

    /// The payload and hops received for `seq`, while the window holds it.
    fn get(&self, seq: u32) -> Option<&(M, u32)> {
        self.slots.get(self.offset(seq)?)?.as_ref()
    }

    /// Whether `seq` is inside the window and not received yet: the only
    /// ids worth a graft.
    fn lacks(&self, seq: u32) -> bool {
        self.offset(seq).is_some_and(|off| self.slots.get(off).is_none_or(Option::is_none))
    }

    /// Records a first receipt of `seq >= base`, first sliding the window
    /// forward when `seq` lies in its upper half, so that `seq` becomes the
    /// last id of the lower half.
    fn insert(&mut self, seq: u32, payload: M, hops: u32) {
        debug_assert!(seq >= self.base, "ids below the window are dropped by the caller");
        if seq - self.base >= SEQ_WINDOW as u32 / 2 {
            let base = seq - (SEQ_WINDOW as u32 / 2 - 1);
            self.slots.drain(..self.slots.len().min((base - self.base) as usize));
            self.base = base;
        }
        let off = (seq - self.base) as usize;
        if off >= self.slots.len() {
            self.slots.resize_with(off + 1, || None);
        }
        self.slots[off] = Some((payload, hops));
    }
}

/// Pending recovery state for one announced-but-unreceived payload.
#[derive(Debug, Default)]
struct GraftState {
    providers: Vec<NodeId>,
    /// Grafts sent so far; providers are tried in rotation.
    retries: u32,
}

/// A [`Protocol`] adapter that runs `inner` over the gossip overlay: the
/// inner automaton's symbolic broadcasts become eager-push originations,
/// its unicasts travel as [`OverlayMsg::Direct`], and everything else —
/// failure detection, tree repair — is the overlay's own traffic. See the
/// module docs for the design.
pub struct OverlayNode<M: Clone + MessageSize> {
    inner: Box<dyn Protocol<Msg = M> + Send>,
    inner_halted: bool,
    cfg: OverlayConfig,
    weights: Weights,
    seed: u64,
    rng: SplitMix64,
    me: NodeId,
    n: usize,
    started: bool,
    /// Stake floored at 1 (zero-stake parties must stay reachable), padded
    /// to `n`; refreshed by `build_views`.
    floored: Vec<u64>,
    // Views. Invariant: eager ⊆ active, and the lazy links are the rest
    // of active.
    active: BTreeSet<NodeId>,
    eager: BTreeSet<NodeId>,
    /// The lazy links in ascending order, collected again on the first
    /// receipt after either view changed (`lazy_stale`): collecting them
    /// on every receipt costs `gossip_sim` ~11 % of its episode.
    lazy: Vec<NodeId>,
    lazy_stale: bool,
    /// Peers this node confirmed failed since the last view build; no
    /// replacement is drawn from it.
    failed: BTreeSet<NodeId>,
    // Dissemination state (module docs).
    next_seq: u32,
    /// One window per origin; sized to `n` at start.
    seen: Vec<SeqWindow<M>>,
    graft_pending: BTreeMap<(u32, u32), GraftState>,
    /// Announcements queued per lazy peer until the lazy tick, sorted by
    /// peer.
    announce: Vec<(NodeId, Vec<(u32, u32)>)>,
    // Failure detection.
    next_nonce: u32,
    probes_sent: u32,
    probe_cursor: usize,
    outstanding: BTreeMap<u32, NodeId>,
    suspected: BTreeSet<NodeId>,
    // Observation (never influences emissions).
    stats: Option<Arc<Mutex<OverlayStats>>>,
    ledger: Option<Arc<Mutex<ChurnLedger>>>,
}

impl<M: Clone + MessageSize> OverlayNode<M> {
    /// Wraps `inner` for overlay dissemination. `weights` is the stake
    /// vector driving peer sampling (length must cover the population),
    /// `seed` the per-run sampling seed — combined with the node id at
    /// start, so replicas with the same construction draw identical
    /// views.
    pub fn new(
        inner: Box<dyn Protocol<Msg = M> + Send>,
        weights: Weights,
        cfg: OverlayConfig,
        seed: u64,
    ) -> Self {
        OverlayNode {
            inner,
            inner_halted: false,
            cfg,
            weights,
            seed,
            rng: SplitMix64::new(seed),
            me: 0,
            n: 0,
            started: false,
            floored: Vec::new(),
            active: BTreeSet::new(),
            eager: BTreeSet::new(),
            lazy: Vec::new(),
            lazy_stale: true,
            failed: BTreeSet::new(),
            next_seq: 0,
            seen: Vec::new(),
            graft_pending: BTreeMap::new(),
            announce: Vec::new(),
            next_nonce: 0,
            probes_sent: 0,
            probe_cursor: 0,
            outstanding: BTreeMap::new(),
            suspected: BTreeSet::new(),
            stats: None,
            ledger: None,
        }
    }

    /// Shares a stats sink; recording is observational only.
    #[must_use]
    pub fn with_stats(mut self, stats: Arc<Mutex<OverlayStats>>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Shares a churn ledger; recording is observational only.
    #[must_use]
    pub fn with_churn_ledger(mut self, ledger: Arc<Mutex<ChurnLedger>>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    fn stat(&self, f: impl FnOnce(&mut OverlayStats)) {
        if let Some(s) = &self.stats {
            f(&mut s.lock().expect("stats poisoned"));
        }
    }

    /// Splits what one callback staged (from `mark` on) into payload
    /// frames and the overlay's own control traffic.
    fn tally(&self, ctx: &Context<OverlayMsg<M>>, mark: usize) {
        if ctx.outbox.len() == mark {
            return;
        }
        self.stat(|s| {
            for delivery in &ctx.outbox[mark..] {
                let Delivery::Unicast(_, msg) = delivery else { continue };
                let (count, bytes) = match msg {
                    OverlayMsg::Eager { .. } => (&mut s.eager_sent, &mut s.eager_bytes),
                    OverlayMsg::Direct(_) => continue,
                    _ => (&mut s.control_sent, &mut s.control_bytes),
                };
                *count += 1;
                *bytes += msg.size_bytes() as u64;
            }
        });
    }

    fn churn(&self, ev: ChurnEvent) {
        if let Some(l) = &self.ledger {
            l.lock().expect("ledger poisoned").record(ev);
        }
    }

    fn ring_succ(&self) -> NodeId {
        (self.me + 1) % self.n.max(1)
    }

    /// Arity of the dissemination tree: half the active degree, so parent,
    /// children and ring successor fit inside the view.
    fn arity(&self) -> usize {
        (self.cfg.active_for(self.n) / 2).max(2)
    }

    /// The lazy tick and the graft wait: `GRAFT_WAIT` per hop times the
    /// tree depth `⌈log_k n⌉`, so an announcement is acted on only once
    /// the tree has had time to deliver the payload by itself.
    fn repair_wait(&self) -> u64 {
        let (k, mut span, mut depth) = (self.arity(), 1, 0);
        while span < self.n {
            span *= k;
            depth += 1;
        }
        GRAFT_WAIT * self.cfg.tick * depth.max(1)
    }

    /// This node's links in the k-ary heap over all parties ordered by
    /// (floored stake descending, id): its parent and up to k children.
    /// Every node holds the same weights, so every node derives the same
    /// tree and the links are symmetric by construction.
    fn tree_links(&self) -> BTreeSet<NodeId> {
        let k = self.arity();
        let mut order: Vec<NodeId> = (0..self.n).collect();
        order.sort_unstable_by_key(|&p| (std::cmp::Reverse(self.floored[p]), p));
        let pos = order.iter().position(|&p| p == self.me).expect("me < n once started");
        let parent = (pos > 0).then(|| order[(pos - 1) / k]);
        let children = (k * pos + 1..=k * pos + k).filter_map(|c| order.get(c).copied());
        parent.into_iter().chain(children).collect()
    }

    /// (Re)draws the views from the current weights. The tree links are
    /// the eager set; the pinned ring successor and stake-sampled peers
    /// fill the active view up to its degree as the lazy (repair) set.
    /// With pruning off, eager is the whole active view instead.
    fn build_views(&mut self) {
        self.floored = self.weights.as_slice().iter().map(|&w| w.max(1)).collect();
        self.floored.resize(self.n, 1);
        self.eager = if self.cfg.prune { self.tree_links() } else { BTreeSet::new() };
        self.active = self.eager.clone();
        self.failed.clear();
        if self.n > 1 {
            self.active.insert(self.ring_succ());
        }
        let fill = self.cfg.active_for(self.n).saturating_sub(self.active.len());
        let extra = self.draw(fill);
        self.active.extend(extra);
        if !self.cfg.prune {
            self.eager = self.active.clone();
        }
        self.lazy_stale = true;
        let degree = self.active.len() as u64;
        self.stat(|s| {
            s.degree_sum += degree;
            s.degree_builds += 1;
        });
    }

    /// Up to `k` stake-weighted draws from the weight vector: anyone but
    /// `me`, the active view and the peers confirmed failed.
    fn draw(&mut self, k: usize) -> Vec<NodeId> {
        let (me, active, failed) = (self.me, &self.active, &self.failed);
        let skip = |i| i == me || active.contains(&i) || failed.contains(&i);
        WeightedReservoir::sample_indices(&self.floored, k, &mut self.rng, skip)
    }

    /// Evicts down to the configured active degree after a graft or
    /// promotion grew the view: lightest stake leaves first (ties to the
    /// higher id), the ring successor never leaves, and the evictee is
    /// told via [`OverlayMsg::Disconnect`].
    fn enforce_active_cap(&mut self, ctx: &mut Context<OverlayMsg<M>>) {
        let cap = self.cfg.active_for(self.n).max(1);
        let succ = self.ring_succ();
        while self.active.len() > cap {
            let victim = self.active.iter().copied().filter(|&p| p != succ).min_by_key(|&p| {
                let stake = self.floored.get(p).copied().unwrap_or(1);
                (self.eager.contains(&p), stake, std::cmp::Reverse(p))
            });
            let Some(victim) = victim else { break };
            self.drop_link(victim);
            ctx.send(victim, OverlayMsg::Disconnect);
        }
    }

    /// Tree repair: `peer` becomes an eager neighbour. Both ends of a graft
    /// call this, so the promoted link is known as eager on both sides.
    fn promote_to_eager(&mut self, peer: NodeId, ctx: &mut Context<OverlayMsg<M>>) {
        self.active.insert(peer);
        self.eager.insert(peer);
        self.lazy_stale = true;
        self.enforce_active_cap(ctx);
    }

    /// Demotes `peer` to a lazy link; whether it was eager.
    fn demote(&mut self, peer: NodeId) -> bool {
        self.lazy_stale = true;
        self.eager.remove(&peer)
    }

    fn drop_link(&mut self, peer: NodeId) {
        self.active.remove(&peer);
        self.eager.remove(&peer);
        self.lazy_stale = true;
    }

    /// Drops a confirmed-failed peer and draws its replacement from the
    /// weight vector, as a lazy link until a graft makes it eager on both
    /// ends. The ring successor is exempt: announcing to it is the
    /// structural reach guarantee, and a false-positive confirmation (slow
    /// scheduler, lossy link) must never sever it — the confirmation is
    /// still recorded in the churn ledger, where the epoch machinery
    /// decides its fate.
    fn replace_failed(&mut self, peer: NodeId) {
        if peer == self.ring_succ() {
            return;
        }
        self.drop_link(peer);
        self.failed.insert(peer);
        if let Some(&p) = self.draw(1).first() {
            self.active.insert(p);
            if !self.cfg.prune {
                self.eager.insert(p);
            }
        }
    }

    /// Runs one inner callback on a detached context and translates its
    /// effects: unicasts wrap as [`OverlayMsg::Direct`], each symbolic
    /// broadcast becomes a self-addressed origination (the first-receipt
    /// path then delivers locally and fans out), timers pass through
    /// (inner ids must stay below the overlay's bit-63 namespace), output
    /// forwards, and a halt quiets the inner automaton *without* halting
    /// the overlay — a node that stopped caring about payloads still
    /// relays, serves grafts and answers probes.
    fn drive_inner(
        &mut self,
        ctx: &mut Context<OverlayMsg<M>>,
        f: impl FnOnce(&mut dyn Protocol<Msg = M>, &mut Context<M>),
    ) {
        if self.inner_halted {
            return;
        }
        let mut ictx = Context::detached(ctx.me(), ctx.n(), ctx.now());
        f(self.inner.as_mut(), &mut ictx);
        for delivery in std::mem::take(&mut ictx.outbox) {
            match delivery {
                Delivery::Unicast(to, m) => ctx.send(to, OverlayMsg::Direct(m)),
                Delivery::Broadcast(m) => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.stat(|s| s.broadcasts += 1);
                    ctx.send(
                        self.me,
                        OverlayMsg::Eager { origin: self.me as u32, seq, hops: 0, payload: m },
                    );
                }
            }
        }
        for (delay, id) in std::mem::take(&mut ictx.timers) {
            debug_assert!(id < OVERLAY_TIMER_BIT, "inner timer id collides with overlay bits");
            ctx.set_timer(delay, id);
        }
        if let Some(out) = ictx.output.take() {
            ctx.output(out);
        }
        if ictx.halted {
            self.inner_halted = true;
        }
    }

    fn on_eager(
        &mut self,
        from: NodeId,
        origin: u32,
        seq: u32,
        hops: u32,
        payload: M,
        ctx: &mut Context<OverlayMsg<M>>,
    ) {
        let key = (origin, seq);
        let window = &self.seen[origin as usize];
        if seq < window.base {
            // Evicted: as good as seen, and a duplicate of nothing held.
            return;
        }
        if window.get(seq).is_some() {
            // Duplicate: the link is redundant. Payload only travels on
            // links both ends hold as eager (tree, graft-promoted), so
            // demoting it and telling the sender keeps the ends in step.
            if self.cfg.prune && from != self.me && self.demote(from) {
                ctx.send(from, OverlayMsg::Prune);
                self.stat(|s| s.prunes += 1);
            }
            return;
        }
        self.graft_pending.remove(&key);
        self.stat(|s| {
            s.deliveries += 1;
            s.max_hops = s.max_hops.max(hops);
        });
        // First receipt: hand to the inner automaton as a message *from
        // the origin* — over full mesh the broadcaster is the sender, and
        // quorum protocols key votes by that id.
        let inner_payload = payload.clone();
        self.drive_inner(ctx, |inner, ictx| {
            inner.on_message(origin as NodeId, inner_payload, ictx);
        });
        // Eager fanout and lazy announcements go to everyone but where
        // the payload came from and who started it.
        let me = self.me;
        let holds = |p: NodeId| p == from || p == me || p as u32 == origin;
        for &p in self.eager.iter().filter(|&&p| !holds(p)) {
            ctx.send(
                p,
                OverlayMsg::Eager { origin, seq, hops: hops + 1, payload: payload.clone() },
            );
        }
        // Announced at the next lazy tick: the ring successor always (the
        // reach guarantee), plus a rotating LAZY_FANOUT-slice of the lazy
        // view (no rng, so replicas agree; offset by `me`, so a peer's
        // announcers do not all cover the same origins).
        if std::mem::take(&mut self.lazy_stale) {
            self.lazy.clear();
            self.lazy.extend(self.active.iter().filter(|p| !self.eager.contains(p)));
        }
        debug_assert!(
            self.lazy.iter().eq(self.active.iter().filter(|p| !self.eager.contains(p))),
            "a view changed without marking the lazy links stale"
        );
        let len = self.lazy.len();
        let start = (me + origin as usize + seq as usize) % len.max(1);
        let slice = (start..start + LAZY_FANOUT.min(len)).map(|i| self.lazy[i % len]);
        let succ = self.ring_succ();
        let ring = (!self.eager.contains(&succ)).then_some(succ);
        let idle = self.announce.is_empty();
        for p in ring.into_iter().chain(slice.filter(|&p| p != succ)).filter(|&p| !holds(p)) {
            match self.announce.binary_search_by_key(&p, |&(q, _)| q) {
                Ok(i) => self.announce[i].1.push(key),
                Err(i) => self.announce.insert(i, (p, vec![key])),
            }
        }
        if idle && !self.announce.is_empty() {
            ctx.set_timer(self.repair_wait(), overlay_timer(KIND_LAZY, 0));
        }
        let window = &mut self.seen[origin as usize];
        let base = window.base;
        window.insert(seq, payload, hops);
        if window.base != base {
            // The window slid: grafts for what it evicted are given up.
            let evicted = (origin, base)..(origin, window.base);
            while let Some((&key, _)) = self.graft_pending.range(evicted.clone()).next() {
                self.graft_pending.remove(&key);
            }
        }
    }

    fn on_ihave(
        &mut self,
        from: NodeId,
        ids: Vec<(u32, u32)>,
        ctx: &mut Context<OverlayMsg<M>>,
    ) {
        for key @ (origin, seq) in ids {
            // Ids off the wire are untrusted: only a party can originate,
            // the graft timer packs both fields into 28 bits each, and
            // only an unreceived id inside its origin's window is pulled
            // (so one list arms at most `SEQ_WINDOW` timers per origin).
            if origin as usize >= self.n
                || seq >= 1 << 28
                || !self.seen[origin as usize].lacks(seq)
            {
                continue;
            }
            let state = self.graft_pending.entry(key).or_default();
            let fresh = state.providers.is_empty();
            if !state.providers.contains(&from) {
                state.providers.push(from);
            }
            if fresh {
                ctx.set_timer(self.repair_wait(), graft_timer(origin, seq));
            }
        }
    }

    fn on_graft_timer(&mut self, origin: u32, seq: u32, ctx: &mut Context<OverlayMsg<M>>) {
        let key = (origin, seq);
        if !self.seen[origin as usize].lacks(seq) {
            return;
        }
        let Some(state) = self.graft_pending.get_mut(&key) else { return };
        if state.retries >= GRAFT_RETRIES || state.providers.is_empty() {
            return;
        }
        let provider = state.providers[state.retries as usize % state.providers.len()];
        state.retries += 1;
        ctx.send(provider, OverlayMsg::Graft { origin, seq });
        self.stat(|s| s.grafts += 1);
        self.promote_to_eager(provider, ctx);
        ctx.set_timer(self.repair_wait(), graft_timer(origin, seq));
    }

    /// Flushes the queued announcements: one batch per lazy peer, in
    /// ascending peer order.
    fn on_lazy_tick(&mut self, ctx: &mut Context<OverlayMsg<M>>) {
        let batches = self.announce.len() as u64;
        for (p, ids) in self.announce.drain(..) {
            ctx.send(p, OverlayMsg::IHave { ids });
        }
        self.stat(|s| s.ihaves += batches);
    }

    fn on_probe_tick(&mut self, ctx: &mut Context<OverlayMsg<M>>) {
        if self.probes_sent >= self.cfg.probe_rounds || self.active.is_empty() {
            return;
        }
        let peers: Vec<NodeId> = self.active.iter().copied().collect();
        let target = peers[self.probe_cursor % peers.len()];
        self.probe_cursor += 1;
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.outstanding.insert(nonce, target);
        ctx.send(target, OverlayMsg::Ping { nonce });
        ctx.set_timer(
            PROBE_TIMEOUT * self.cfg.tick,
            overlay_timer(KIND_PROBE_TIMEOUT, u64::from(nonce)),
        );
        self.probes_sent += 1;
        if self.probes_sent < self.cfg.probe_rounds {
            ctx.set_timer(PROBE_PERIOD * self.cfg.tick, overlay_timer(KIND_PROBE_TICK, 0));
        }
    }
}

impl<M: Clone + MessageSize> Protocol for OverlayNode<M> {
    type Msg = OverlayMsg<M>;

    fn on_start(&mut self, ctx: &mut Context<OverlayMsg<M>>) {
        let mark = ctx.outbox.len();
        self.me = ctx.me();
        self.n = ctx.n();
        self.started = true;
        self.seen = std::iter::repeat_with(SeqWindow::new).take(self.n).collect();
        // Per-node deterministic sampling stream.
        self.rng =
            SplitMix64::new(self.seed ^ (self.me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.build_views();
        if self.cfg.probe_rounds > 0 && !self.active.is_empty() {
            ctx.set_timer(PROBE_PERIOD * self.cfg.tick, overlay_timer(KIND_PROBE_TICK, 0));
        }
        self.drive_inner(ctx, |inner, ictx| inner.on_start(ictx));
        self.tally(ctx, mark);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: OverlayMsg<M>,
        ctx: &mut Context<OverlayMsg<M>>,
    ) {
        let mark = ctx.outbox.len();
        match msg {
            // Ids off the wire are untrusted: only a party can originate.
            OverlayMsg::Eager { origin, .. } | OverlayMsg::Graft { origin, .. }
                if origin as usize >= self.n => {}
            // Nor can a frame move a window out of reach: a graft timer
            // cannot name a `seq` past 28 bits, and no honest peer sends a
            // node its own broadcast (fanout and announcements skip the
            // origin), which it only ever addresses to itself.
            OverlayMsg::Eager { origin, seq, .. }
                if seq >= 1 << 28 || (origin as usize == self.me && from != self.me) => {}
            OverlayMsg::Eager { origin, seq, hops, payload } => {
                self.on_eager(from, origin, seq, hops, payload, ctx);
            }
            OverlayMsg::IHave { ids } => self.on_ihave(from, ids, ctx),
            OverlayMsg::Graft { origin, seq } => {
                // The grafting peer wants this link eager again.
                if from != self.me {
                    self.promote_to_eager(from, ctx);
                }
                if let Some((payload, hops)) = self.seen[origin as usize].get(seq).cloned() {
                    ctx.send(from, OverlayMsg::Eager { origin, seq, hops: hops + 1, payload });
                }
            }
            OverlayMsg::Prune => {
                self.demote(from);
            }
            OverlayMsg::Direct(m) => {
                self.drive_inner(ctx, |inner, ictx| inner.on_message(from, m, ictx));
            }
            OverlayMsg::Ping { nonce } => ctx.send(from, OverlayMsg::Pong { nonce }),
            OverlayMsg::Pong { nonce } => {
                if let Some(peer) = self.outstanding.remove(&nonce) {
                    self.suspected.remove(&peer);
                }
            }
            OverlayMsg::Disconnect => {
                // The ring edge is unilateral: even a successor that
                // evicted us from *its* active view keeps receiving our
                // announcements — that is the structural reach guarantee.
                if from != self.ring_succ() {
                    self.drop_link(from);
                }
            }
        }
        self.tally(ctx, mark);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<OverlayMsg<M>>) {
        let mark = ctx.outbox.len();
        if id & OVERLAY_TIMER_BIT == 0 {
            self.drive_inner(ctx, |inner, ictx| inner.on_timer(id, ictx));
            return self.tally(ctx, mark);
        }
        let payload = id & PAYLOAD_MASK;
        match (id >> KIND_SHIFT) & 0x7 {
            KIND_GRAFT => {
                let (origin, seq) = ((payload >> 28) as u32, (payload & 0x0FFF_FFFF) as u32);
                self.on_graft_timer(origin, seq, ctx);
            }
            KIND_PROBE_TICK => self.on_probe_tick(ctx),
            KIND_PROBE_TIMEOUT => {
                let nonce = payload as u32;
                if let Some(&peer) = self.outstanding.get(&nonce) {
                    // No pong yet: suspect, and give a grace period.
                    self.suspected.insert(peer);
                    self.stat(|s| s.suspects += 1);
                    ctx.set_timer(
                        CONFIRM_WAIT * self.cfg.tick,
                        overlay_timer(KIND_CONFIRM, u64::from(nonce)),
                    );
                }
            }
            KIND_CONFIRM => {
                let nonce = payload as u32;
                if let Some(peer) = self.outstanding.remove(&nonce) {
                    // Still silent through the grace period: confirmed.
                    self.suspected.remove(&peer);
                    self.stat(|s| s.confirmed_failures += 1);
                    self.churn(ChurnEvent::ConfirmedFailure { observer: self.me, peer });
                    self.replace_failed(peer);
                }
            }
            KIND_LAZY => self.on_lazy_tick(ctx),
            _ => {}
        }
        self.tally(ctx, mark);
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<OverlayMsg<M>>) {
        let mark = ctx.outbox.len();
        // Reweigh-at-boundary: refresh stake, reseed the sampler from the
        // event's rekey material, and rebuild the views so fanout
        // reflects the new weight distribution. A mis-addressed event
        // (length mismatch) is ignored wholesale.
        if event.refresh_weights(&mut self.weights) && self.started {
            self.rng = SplitMix64::new(
                self.seed
                    ^ event.fold_rekey(self.weights.fingerprint())
                    ^ (self.me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            self.build_views();
        }
        self.drive_inner(ctx, |inner, ictx| inner.on_reconfigure(event, ictx));
        self.tally(ctx, mark);
    }
}

/// [`WireCodec`] for [`OverlayMsg`], generic over the inner payload's
/// codec (`Direct`/`Eager` payloads are length-prefixed inner encodings).
#[derive(Debug, Default, Clone)]
pub struct OverlayCodec<C> {
    inner: C,
}

impl<C> OverlayCodec<C> {
    /// Wraps an inner-payload codec.
    pub fn new(inner: C) -> Self {
        OverlayCodec { inner }
    }
}

const TAG_EAGER: u8 = 0;
const TAG_IHAVE: u8 = 1;
const TAG_GRAFT: u8 = 2;
const TAG_PRUNE: u8 = 3;
const TAG_DIRECT: u8 = 4;
// Tags 5..=8 carried the retired membership messages; they stay unassigned.
const TAG_PING: u8 = 9;
const TAG_PONG: u8 = 10;
const TAG_DISCONNECT: u8 = 11;

impl<M, C> WireCodec<OverlayMsg<M>> for OverlayCodec<C>
where
    M: Send + Sync + 'static,
    C: WireCodec<M>,
{
    fn encode(&self, msg: &OverlayMsg<M>, out: &mut Vec<u8>) {
        match msg {
            OverlayMsg::Eager { origin, seq, hops, payload } => {
                out.push(TAG_EAGER);
                put_u32(out, *origin);
                put_u32(out, *seq);
                put_u32(out, *hops);
                let mut buf = Vec::new();
                self.inner.encode(payload, &mut buf);
                put_slice(out, &buf);
            }
            OverlayMsg::IHave { ids } => {
                out.push(TAG_IHAVE);
                put_u32(out, ids.len() as u32);
                for &(origin, seq) in ids {
                    put_u32(out, origin);
                    put_u32(out, seq);
                }
            }
            OverlayMsg::Graft { origin, seq } => {
                out.push(TAG_GRAFT);
                put_u32(out, *origin);
                put_u32(out, *seq);
            }
            OverlayMsg::Prune => out.push(TAG_PRUNE),
            OverlayMsg::Direct(m) => {
                out.push(TAG_DIRECT);
                let mut buf = Vec::new();
                self.inner.encode(m, &mut buf);
                put_slice(out, &buf);
            }
            OverlayMsg::Ping { nonce } => {
                out.push(TAG_PING);
                put_u32(out, *nonce);
            }
            OverlayMsg::Pong { nonce } => {
                out.push(TAG_PONG);
                put_u32(out, *nonce);
            }
            OverlayMsg::Disconnect => out.push(TAG_DISCONNECT),
        }
    }

    fn decode(&self, bytes: &[u8]) -> Result<OverlayMsg<M>, WireError> {
        let mut r = WireReader::new(bytes);
        let msg = match r.take_u8()? {
            TAG_EAGER => {
                let origin = r.take_u32()?;
                let seq = r.take_u32()?;
                let hops = r.take_u32()?;
                let payload = self.inner.decode(r.take_slice()?)?;
                OverlayMsg::Eager { origin, seq, hops, payload }
            }
            TAG_IHAVE => {
                let len = r.take_u32()? as usize;
                let mut ids = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    ids.push((r.take_u32()?, r.take_u32()?));
                }
                OverlayMsg::IHave { ids }
            }
            TAG_GRAFT => OverlayMsg::Graft { origin: r.take_u32()?, seq: r.take_u32()? },
            TAG_PRUNE => OverlayMsg::Prune,
            TAG_DIRECT => OverlayMsg::Direct(self.inner.decode(r.take_slice()?)?),
            TAG_PING => OverlayMsg::Ping { nonce: r.take_u32()? },
            TAG_PONG => OverlayMsg::Pong { nonce: r.take_u32()? },
            TAG_DISCONNECT => OverlayMsg::Disconnect,
            tag => return Err(WireError::BadTag(tag)),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use crate::U64Codec;
    use swiper_core::{TicketAssignment, TicketDelta};

    /// Minimal inner protocol: node 0 broadcasts its value once; every
    /// node outputs the first value it hears.
    struct Flood {
        broadcaster: bool,
    }

    impl Protocol for Flood {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Context<u64>) {
            if self.broadcaster {
                ctx.broadcast(42);
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Context<u64>) {
            ctx.output(msg.to_le_bytes().to_vec());
        }
    }

    fn overlay_fleet(
        n: usize,
        seed: u64,
        stats: &Arc<Mutex<OverlayStats>>,
    ) -> Vec<Box<dyn Protocol<Msg = OverlayMsg<u64>>>> {
        let weights = Weights::new((1..=n as u64).collect()).unwrap();
        (0..n)
            .map(|i| {
                let node = OverlayNode::new(
                    Box::new(Flood { broadcaster: i == 0 }),
                    weights.clone(),
                    OverlayConfig::default(),
                    seed,
                )
                .with_stats(Arc::clone(stats));
                Box::new(node) as Box<dyn Protocol<Msg = OverlayMsg<u64>>>
            })
            .collect()
    }

    #[test]
    fn overlay_floods_a_broadcast_to_every_node_well_below_full_mesh() {
        for seed in [1, 7, 99] {
            let n = 32;
            let stats = Arc::new(Mutex::new(OverlayStats::default()));
            let report = Simulation::new(overlay_fleet(n, seed, &stats), seed).run();
            for node in 0..n {
                assert_eq!(
                    report.outputs[node].as_deref(),
                    Some(&42u64.to_le_bytes()[..]),
                    "node {node} missed the broadcast (seed {seed})"
                );
            }
            let s = stats.lock().unwrap();
            assert_eq!(s.broadcasts, 1);
            assert_eq!(s.deliveries, n as u64, "reach must be 100%");
            assert!(s.max_hops as usize <= n, "hop count bounded by the ring");
            assert!(
                report.metrics.total_messages() < (n * n) as u64,
                "one gossip broadcast must cost fewer messages than one \
                 full-mesh round: {}",
                report.metrics.total_messages()
            );
        }
    }

    #[test]
    fn duplicate_eager_receipt_prunes_the_redundant_link() {
        let mut node = OverlayNode::new(
            Box::new(Flood { broadcaster: false }),
            Weights::new(vec![1; 8]).unwrap(),
            OverlayConfig::default(),
            3,
        );
        let mut ctx = Context::detached(0, 8, 0);
        node.on_start(&mut ctx);
        // Equal stake: node 0 is the tree root and 1, 2 are its children.
        assert_eq!(node.eager, BTreeSet::from([1, 2]));
        // First copy from one child, duplicate from the other.
        let eager = |hops| OverlayMsg::Eager { origin: 5, seq: 0, hops, payload: 9u64 };
        let mut ctx = Context::detached(0, 8, 1);
        node.on_message(1, eager(1), &mut ctx);
        let mut ctx = Context::detached(0, 8, 2);
        node.on_message(2, eager(3), &mut ctx);
        assert!(!node.eager.contains(&2), "duplicate sender demoted from eager");
        assert!(node.active.contains(&2), "…into lazy");
        let sent = ctx.take_staged_expanded(0);
        assert!(
            sent.iter().any(|(to, m)| *to == 2 && *m == OverlayMsg::Prune),
            "a Prune goes back to the duplicate sender"
        );
    }

    #[test]
    fn ihave_without_eager_copy_grafts_from_the_announcer() {
        let mut node = OverlayNode::new(
            Box::new(Flood { broadcaster: false }),
            Weights::new(vec![1; 8]).unwrap(),
            OverlayConfig::default(),
            3,
        );
        let mut ctx = Context::detached(0, 8, 0);
        node.on_start(&mut ctx);
        let mut ctx = Context::detached(0, 8, 1);
        node.on_message(4, OverlayMsg::IHave { ids: vec![(5, 7)] }, &mut ctx);
        let timers = ctx.timers.clone();
        assert_eq!(timers.len(), 1, "one graft timer armed");
        let (_, timer_id) = timers[0];
        assert_eq!(timer_id, graft_timer(5, 7));
        // The eager copy never arrives; the timer fires.
        let mut ctx = Context::detached(0, 8, 50);
        node.on_timer(timer_id, &mut ctx);
        let sent = ctx.take_staged_expanded(0);
        assert!(
            sent.iter().any(|(to, m)| *to == 4
                && matches!(m, OverlayMsg::Graft { origin: 5, seq: 7 })),
            "graft pulled from the announcing peer: {sent:?}"
        );
        assert!(node.eager.contains(&4), "provider promoted to eager for repair");
        // Serving side: a grafted peer gets the cached payload back.
        let mut server = OverlayNode::new(
            Box::new(Flood { broadcaster: false }),
            Weights::new(vec![1; 8]).unwrap(),
            OverlayConfig::default(),
            3,
        );
        let mut ctx = Context::detached(4, 8, 0);
        server.on_start(&mut ctx);
        let mut ctx = Context::detached(4, 8, 1);
        server.on_message(
            5,
            OverlayMsg::Eager { origin: 5, seq: 7, hops: 0, payload: 11 },
            &mut ctx,
        );
        let mut ctx = Context::detached(4, 8, 2);
        server.on_message(0, OverlayMsg::Graft { origin: 5, seq: 7 }, &mut ctx);
        let sent = ctx.take_staged_expanded(0);
        assert!(
            sent.iter().any(|(to, m)| *to == 0
                && matches!(m, OverlayMsg::Eager { origin: 5, seq: 7, payload: 11, .. })),
            "graft served from the cache: {sent:?}"
        );
    }

    /// `n` started nodes over `stake`, outside any simulation.
    fn started_fleet(stake: &[u64], seed: u64) -> Vec<OverlayNode<u64>> {
        let n = stake.len();
        (0..n)
            .map(|me| {
                let mut node = OverlayNode::new(
                    Box::new(Flood { broadcaster: false }),
                    Weights::new(stake.to_vec()).unwrap(),
                    OverlayConfig::default(),
                    seed,
                );
                node.on_start(&mut Context::detached(me, n, 0));
                node
            })
            .collect()
    }

    /// Every node derived the same tree: eager links are symmetric, there
    /// are `n - 1` of them, and they reach every node from `root`.
    fn assert_one_tree(nodes: &[OverlayNode<u64>], root: NodeId) {
        let n = nodes.len();
        for (p, node) in nodes.iter().enumerate() {
            for &q in &node.eager {
                assert!(nodes[q].eager.contains(&p), "{p} holds {q} eager, {q} not {p}");
            }
            assert!(node.eager.is_subset(&node.active) && node.active.contains(&((p + 1) % n)));
            assert!(
                node.active.len() <= node.cfg.active_for(n),
                "tree links sit inside the view"
            );
        }
        assert_eq!(nodes.iter().map(|v| v.eager.len()).sum::<usize>(), 2 * (n - 1));
        let (mut reached, mut frontier) = (BTreeSet::from([root]), vec![root]);
        while let Some(p) = frontier.pop() {
            frontier.extend(nodes[p].eager.iter().copied().filter(|&q| reached.insert(q)));
        }
        assert_eq!(reached.len(), n, "the eager links span the population");
    }

    #[test]
    fn reweigh_at_epoch_boundary_rebuilds_views_toward_the_new_whale() {
        for (n, seed) in [(24usize, 13u64), (64, 1), (64, 42), (128, 1337)] {
            let old_stake: Vec<u64> = (0..n as u64).map(|p| 1 + (p * 7919) % 97).collect();
            let mut nodes = started_fleet(&old_stake, seed);
            let old_root =
                (0..n).min_by_key(|&p| (std::cmp::Reverse(old_stake[p]), p)).unwrap();
            assert_one_tree(&nodes, old_root);
            // New stake: party 17 holds essentially everything.
            let mut stake = old_stake.clone();
            stake[17] = 1_000_000;
            let old = Weights::new(old_stake).unwrap();
            let new = Weights::new(stake).unwrap();
            let tickets = TicketAssignment::new(vec![1; n]);
            let delta = TicketDelta::between(&tickets, &tickets).unwrap();
            let event = EpochEvent::new(1, delta, &old, new.clone(), 7).unwrap();
            for (me, node) in nodes.iter_mut().enumerate() {
                node.on_reconfigure(&event, &mut Context::detached(me, n, 100));
                assert_eq!(node.weights.as_slice(), new.as_slice(), "stake refreshed");
            }
            // The whale is the root of the tree every node re-derived: it
            // has children only, and they are the next-heaviest parties.
            assert_one_tree(&nodes, 17);
            let k = nodes[17].arity();
            assert_eq!(nodes[17].eager.len(), k, "the root has k children and no parent");
            let mut rest: Vec<NodeId> = (0..n).filter(|&p| p != 17).collect();
            rest.sort_by_key(|&p| (std::cmp::Reverse(new.get(p)), p));
            assert_eq!(nodes[17].eager, rest[..k].iter().copied().collect());
            // Determinism: an identical twin reconfigured identically agrees.
            let mut twin = started_fleet(old.as_slice(), seed).swap_remove(0);
            twin.on_reconfigure(&event, &mut Context::detached(0, n, 100));
            assert_eq!(nodes[0].active, twin.active);
        }
    }

    /// Broadcasts `rounds` times, 400 ticks apart; outputs what it hears.
    struct Chatter {
        rounds: u32,
    }

    impl Protocol for Chatter {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Context<u64>) {
            self.on_timer(0, ctx);
        }

        fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Context<u64>) {
            ctx.output(msg.to_le_bytes().to_vec());
        }

        fn on_timer(&mut self, _id: u64, ctx: &mut Context<u64>) {
            if self.rounds > 0 {
                self.rounds -= 1;
                ctx.broadcast(u64::from(self.rounds));
                ctx.set_timer(400, 0);
            }
        }
    }

    /// Whether one origin broadcasts twenty times in sequence or every
    /// node broadcasts once at the same time — the traffic shape learned
    /// pruning could not converge on — the derived tree carries each
    /// payload once per delivery and the repair loop stays idle.
    #[test]
    fn derived_tree_sends_each_payload_once_per_delivery() {
        for (n, seed) in
            [64usize, 128].into_iter().flat_map(|n| [1u64, 42, 1337].map(|s| (n, s)))
        {
            for concurrent in [false, true] {
                let rounds = |me: usize| match (concurrent, me) {
                    (true, _) => 1,
                    (false, 0) => 20,
                    (false, _) => 0,
                };
                let weights = Weights::new((1..=n as u64).collect()).unwrap();
                let stats = Arc::new(Mutex::new(OverlayStats::default()));
                let nodes = (0..n)
                    .map(|me| {
                        let node = OverlayNode::new(
                            Box::new(Chatter { rounds: rounds(me) }),
                            weights.clone(),
                            OverlayConfig::default(),
                            seed,
                        );
                        Box::new(node.with_stats(Arc::clone(&stats))) as _
                    })
                    .collect();
                let report = Simulation::new(nodes, seed)
                    .with_delay(crate::DelayModel::Uniform(1, 20))
                    .run();
                assert!(report.outputs.iter().all(Option::is_some));
                let s = stats.lock().unwrap();
                let what = format!("n {n} seed {seed} concurrent {concurrent}: {s:?}");
                assert_eq!(s.broadcasts, if concurrent { n as u64 } else { 20 }, "{what}");
                assert_eq!(s.deliveries, s.broadcasts * n as u64, "{what}");
                assert!(s.eager_sent * 10 <= s.deliveries * 11, "{what}");
                assert_eq!((s.grafts, s.prunes), (0, 0), "{what}");
                assert!(s.control_sent > 0 && s.eager_bytes > s.eager_sent, "{what}");
            }
        }
    }

    #[test]
    fn confirmed_failure_is_recorded_and_renders_a_candidate_snapshot() {
        let n = 8;
        let ledger = Arc::new(Mutex::new(ChurnLedger::new()));
        let mut node = OverlayNode::new(
            Box::new(Flood { broadcaster: false }),
            Weights::new(vec![10; n]).unwrap(),
            OverlayConfig::default(),
            21,
        )
        .with_churn_ledger(Arc::clone(&ledger));
        let mut ctx = Context::detached(0, n, 0);
        node.on_start(&mut ctx);
        // Round-robin probing starts at the lowest active id — for node 0
        // that is the ring successor, which is eviction-exempt. Probe
        // twice and let the *second* (non-ring) target's timeout and
        // confirmation grace expire with no pong.
        let mut ctx = Context::detached(0, n, 25);
        node.on_timer(overlay_timer(KIND_PROBE_TICK, 0), &mut ctx);
        let first = node.outstanding.get(&0).copied().expect("a probe was sent");
        assert_eq!(first, 1, "the first probe round-robins to the ring successor");
        let mut ctx = Context::detached(0, n, 50);
        node.on_timer(overlay_timer(KIND_PROBE_TICK, 0), &mut ctx);
        let probed = node.outstanding.get(&1).copied().expect("a second probe was sent");
        assert_ne!(probed, 1, "the second probe targets a sampled (non-ring) peer");
        let mut ctx = Context::detached(0, n, 80);
        node.on_timer(overlay_timer(KIND_PROBE_TIMEOUT, 1), &mut ctx);
        assert!(node.suspected.contains(&probed), "silent peer suspected");
        let mut ctx = Context::detached(0, n, 140);
        node.on_timer(overlay_timer(KIND_CONFIRM, 1), &mut ctx);
        assert!(!node.active.contains(&probed), "confirmed peer evicted");
        // The exempt ring successor would survive the same cascade.
        let mut ctx = Context::detached(0, n, 141);
        node.on_timer(overlay_timer(KIND_PROBE_TIMEOUT, 0), &mut ctx);
        let mut ctx = Context::detached(0, n, 201);
        node.on_timer(overlay_timer(KIND_CONFIRM, 0), &mut ctx);
        assert!(node.active.contains(&1), "the ring successor is eviction-exempt");
        let guard = ledger.lock().unwrap();
        assert_eq!(
            guard.events(),
            &[
                ChurnEvent::ConfirmedFailure { observer: 0, peer: probed },
                ChurnEvent::ConfirmedFailure { observer: 0, peer: 1 },
            ],
            "churn recorded for the epoch machinery, ring-exempt or not"
        );
        let base = Weights::new(vec![10; n]).unwrap();
        let candidate = guard.candidate_weights(&base, 1).expect("snapshot");
        assert_eq!(candidate.get(probed), 0, "failed peer's stake zeroed");
        assert_eq!(candidate.get(1), 0, "ring exemption is topological, not epochal");
        assert_eq!(candidate.total(), base.total() - 20);
        // A pong before confirmation cancels the cascade.
        drop(guard);
        let mut fresh = OverlayNode::new(
            Box::new(Flood { broadcaster: false }),
            Weights::new(vec![10; n]).unwrap(),
            OverlayConfig::default(),
            21,
        );
        let mut ctx = Context::detached(0, n, 0);
        fresh.on_start(&mut ctx);
        let mut ctx = Context::detached(0, n, 25);
        fresh.on_timer(overlay_timer(KIND_PROBE_TICK, 0), &mut ctx);
        let target = fresh.outstanding.values().copied().next().unwrap();
        let mut ctx = Context::detached(0, n, 30);
        fresh.on_message(target, OverlayMsg::Pong { nonce: 0 }, &mut ctx);
        let mut ctx = Context::detached(0, n, 55);
        fresh.on_timer(overlay_timer(KIND_PROBE_TIMEOUT, 0), &mut ctx);
        assert!(fresh.suspected.is_empty(), "pong in time clears the probe");
        let mut ctx = Context::detached(0, n, 115);
        fresh.on_timer(overlay_timer(KIND_CONFIRM, 0), &mut ctx);
        assert!(fresh.active.contains(&target), "answered peer stays active");
    }

    /// After `replace_failed(p)` the view holds one fresh peer drawn from
    /// the weight vector: never `me`, never `p` or any peer confirmed
    /// failed before it — until `build_views` forgets them.
    #[test]
    fn replacement_is_drawn_from_the_vector_and_never_from_the_failed() {
        for seed in [1, 21, 99] {
            let n = 16;
            let stake: Vec<u64> = (1..=n as u64).collect();
            let mut node = started_fleet(&stake, seed).swap_remove(0);
            let succ = node.ring_succ();
            let mut failed = BTreeSet::new();
            // Fail every non-ring link in turn, replacements included,
            // until the vector has no one left to offer.
            while let Some(p) = node.active.iter().copied().find(|&p| p != succ) {
                let degree = node.active.len();
                node.replace_failed(p);
                failed.insert(p);
                // Same degree and (below) no failed peer in it: the
                // newcomer was outside the old view.
                let exhausted = node.active.len() + failed.len() + 1 == n;
                assert!(node.active.len() == degree || exhausted, "no replacement drawn");
                assert!(!node.active.contains(&0), "never me (seed {seed})");
                assert!(
                    node.active.is_disjoint(&failed),
                    "failed peer drawn again: {failed:?}"
                );
            }
            assert_eq!(
                failed.len(),
                n - 2,
                "everyone but me and the ring successor failed once"
            );
            node.replace_failed(succ);
            assert_eq!(node.active, BTreeSet::from([succ]), "the ring successor is exempt");
            assert!(!node.failed.contains(&succ));
            node.build_views();
            assert!(node.failed.is_empty(), "a view build starts from the whole vector again");
            assert_eq!(node.active.len(), node.cfg.active_for(n));
        }
    }

    /// Records the sender of every message the overlay hands it.
    struct Senders(Arc<Mutex<Vec<NodeId>>>);

    impl Protocol for Senders {
        type Msg = u64;

        fn on_start(&mut self, _ctx: &mut Context<u64>) {}

        fn on_message(&mut self, from: NodeId, _msg: u64, _ctx: &mut Context<u64>) {
            self.0.lock().unwrap().push(from);
        }
    }

    /// A started node over `n` equal stakes whose inner automaton records
    /// the sender of everything it is handed.
    fn recording_node(n: usize) -> (OverlayNode<u64>, Arc<Mutex<Vec<NodeId>>>) {
        let heard = Arc::new(Mutex::new(Vec::new()));
        let mut node = OverlayNode::new(
            Box::new(Senders(Arc::clone(&heard))),
            Weights::new(vec![1; n]).unwrap(),
            OverlayConfig::default(),
            3,
        );
        node.on_start(&mut Context::detached(0, n, 0));
        (node, heard)
    }

    #[test]
    fn frames_naming_an_origin_outside_the_population_change_nothing() {
        let n = 8;
        let (mut node, heard) = recording_node(n);
        let outsider = (1..n).find(|p| !node.active.contains(p)).expect("a partial view");
        let views = (node.active.clone(), node.eager.clone());
        let forged = n as u32;
        let mut ctx = Context::detached(0, n, 1);
        let eager = |origin| OverlayMsg::Eager { origin, seq: 0, hops: 1, payload: 9 };
        node.on_message(outsider, eager(forged), &mut ctx);
        node.on_message(outsider, OverlayMsg::Graft { origin: forged, seq: 0 }, &mut ctx);
        assert_eq!(*heard.lock().unwrap(), Vec::<NodeId>::new(), "inner saw a non-party");
        assert!(
            node.seen.iter().all(|w| w.slots.is_empty()) && node.announce.is_empty(),
            "nothing cached or announced"
        );
        assert_eq!((node.active.clone(), node.eager.clone()), views, "no link promoted");
        assert!(ctx.outbox.is_empty() && ctx.timers.is_empty(), "nothing staged");
        // A party's id goes through as before.
        node.on_message(outsider, eager(forged - 1), &mut ctx);
        assert_eq!(*heard.lock().unwrap(), vec![n - 1]);
    }

    #[test]
    fn a_forged_ihave_arms_at_most_one_window_of_graft_timers() {
        let (mut node, _) = recording_node(8);
        let ids = (0..100_000).map(|seq| (5, seq)).collect();
        let mut ctx = Context::detached(0, 8, 1);
        node.on_message(4, OverlayMsg::IHave { ids }, &mut ctx);
        // The window's ids are still pulled; nothing past it is.
        assert_eq!(ctx.timers.len(), SEQ_WINDOW, "one graft timer per id in the window");
        assert!(ctx.timers.iter().all(|&(_, id)| id < graft_timer(5, SEQ_WINDOW as u32)));
        assert_eq!(node.graft_pending.len(), SEQ_WINDOW);
        assert!(ctx.outbox.is_empty());
    }

    #[test]
    fn seen_keeps_one_bounded_window_per_origin() {
        let n = 8;
        let (mut node, heard) = recording_node(n);
        let eager = |origin, seq| OverlayMsg::Eager { origin, seq, hops: 1, payload: 9 };
        // One far-future id allocates one window, not a slot per skipped id.
        let far = (1 << 28) - 1;
        node.on_message(1, eager(5, far), &mut Context::detached(0, n, 1));
        let window = &node.seen[5];
        assert!(window.slots.len() <= SEQ_WINDOW, "{} slots", window.slots.len());
        assert_eq!(window.base, far + 1 - SEQ_WINDOW as u32 / 2);
        assert!(window.get(far).is_some());
        // Below the window: not handed on, nothing staged, even from an
        // eager link that a duplicate would have pruned.
        let link = node.eager.first().copied().expect("a tree link");
        let mut ctx = Context::detached(0, n, 2);
        node.on_message(link, eager(5, 0), &mut ctx);
        assert!(ctx.outbox.is_empty() && ctx.timers.is_empty(), "below the window");
        assert!(node.eager.contains(&link), "no link demoted");
        assert_eq!(heard.lock().unwrap().len(), 1, "inner saw only the far id");
        // A long stream slides the window along, never past its size.
        for seq in 0..10 * SEQ_WINDOW as u32 {
            node.on_message(1, eager(6, seq), &mut Context::detached(0, n, 3));
            assert!(node.seen[6].slots.len() <= SEQ_WINDOW);
        }
        let next = 10 * SEQ_WINDOW as u32;
        assert_eq!(node.seen[6].base, next - SEQ_WINDOW as u32 / 2);
        assert_eq!(heard.lock().unwrap().len(), 1 + 10 * SEQ_WINDOW);
        // The id after the newest receipt is still pulled when only an
        // announcement of it arrives, and the pulled copy is delivered.
        let mut ctx = Context::detached(0, n, 4);
        node.on_message(4, OverlayMsg::IHave { ids: vec![(6, next)] }, &mut ctx);
        assert_eq!(ctx.timers.len(), 1, "one graft timer for the next id");
        let mut ctx = Context::detached(0, n, 100);
        node.on_timer(graft_timer(6, next), &mut ctx);
        let sent = ctx.take_staged_expanded(0);
        assert!(sent.contains(&(4, OverlayMsg::Graft { origin: 6, seq: next })), "{sent:?}");
        node.on_message(4, eager(6, next), &mut Context::detached(0, n, 101));
        assert_eq!(heard.lock().unwrap().len(), 2 + 10 * SEQ_WINDOW);
        // An evicted id is served to no graft.
        let mut ctx = Context::detached(0, n, 4);
        node.on_message(link, OverlayMsg::Graft { origin: 6, seq: 0 }, &mut ctx);
        let sent = ctx.take_staged_expanded(0);
        assert!(!sent.iter().any(|(_, m)| matches!(m, OverlayMsg::Eager { .. })), "{sent:?}");
        // A graft pending for an id the window slides past is given up.
        node.on_message(
            4,
            OverlayMsg::IHave { ids: vec![(7, 5)] },
            &mut Context::detached(0, n, 5),
        );
        assert!(node.graft_pending.contains_key(&(7, 5)));
        node.on_message(1, eager(7, 5_000), &mut Context::detached(0, n, 6));
        assert!(node.graft_pending.is_empty(), "pending graft outlived its window");
        let mut ctx = Context::detached(0, n, 200);
        node.on_timer(graft_timer(7, 5), &mut ctx);
        assert!(ctx.outbox.is_empty(), "no graft for an evicted id");
    }

    #[test]
    fn a_relay_cannot_slide_a_window_past_the_timer_field_or_over_its_own_origin() {
        let n = 8;
        let (mut node, heard) = recording_node(n);
        let eager = |origin, seq| OverlayMsg::Eager { origin, seq, hops: 1, payload: 9 };
        let mut ctx = Context::detached(0, n, 1);
        node.on_message(1, eager(5, u32::MAX), &mut ctx);
        node.on_message(1, eager(5, 1 << 28), &mut ctx);
        node.on_message(1, eager(0, 5_000), &mut ctx);
        assert_eq!(*heard.lock().unwrap(), Vec::<NodeId>::new(), "inner saw a forgery");
        assert!(node.seen.iter().all(|w| w.base == 0 && w.slots.is_empty()), "a window moved");
        assert!(ctx.outbox.is_empty() && ctx.timers.is_empty(), "nothing staged");
        // The node's own broadcasts, which it addresses to itself, still
        // go through, and so do other origins' ids.
        node.on_message(0, eager(0, 0), &mut ctx);
        node.on_message(1, eager(5, 0), &mut ctx);
        assert_eq!(*heard.lock().unwrap(), vec![0, 5]);
    }

    #[test]
    fn overlay_codec_round_trips_every_variant() {
        let codec: OverlayCodec<U64Codec> = OverlayCodec::default();
        let msgs: Vec<OverlayMsg<u64>> = vec![
            OverlayMsg::Eager { origin: 3, seq: 9, hops: 2, payload: 0xDEAD_BEEF },
            OverlayMsg::IHave { ids: vec![(1, 2), (3, 4)] },
            OverlayMsg::Graft { origin: 4, seq: 5 },
            OverlayMsg::Prune,
            OverlayMsg::Direct(77),
            OverlayMsg::Ping { nonce: 11 },
            OverlayMsg::Pong { nonce: 11 },
            OverlayMsg::Disconnect,
        ];
        for msg in msgs {
            let mut bytes = Vec::new();
            codec.encode(&msg, &mut bytes);
            let back = codec.decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e:?}"));
            assert_eq!(back, msg);
            // Trailing garbage must be rejected.
            bytes.push(0);
            assert!(codec.decode(&bytes).is_err(), "{msg:?} accepted trailing bytes");
        }
    }

    proptest::proptest! {
        /// The socket is untrusted input: arbitrary bytes and cut-short
        /// frames decode to a message or an error, never a panic; the
        /// retired membership tags are errors; and whatever does decode
        /// survives a second trip through the codec.
        #[test]
        fn overlay_decode_never_panics_on_arbitrary_bytes(
            tag in 0u8..16,
            body in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..64),
            ids in proptest::collection::vec((0u32..9, proptest::arbitrary::any::<u32>()), 0..6),
            cut in proptest::arbitrary::any::<proptest::sample::Index>(),
        ) {
            let codec: OverlayCodec<U64Codec> = OverlayCodec::default();
            let tagged = [vec![tag], body.clone()].concat();
            if (5..=8).contains(&tag) {
                proptest::prop_assert_eq!(codec.decode(&tagged), Err(WireError::BadTag(tag)));
            }
            let (origin, seq) = ids.first().copied().unwrap_or((0, 0));
            let valid = match tag % 8 {
                0 => OverlayMsg::Eager { origin, seq, hops: u32::from(tag), payload: 7 },
                1 => OverlayMsg::IHave { ids },
                2 => OverlayMsg::Graft { origin, seq },
                3 => OverlayMsg::Prune,
                4 => OverlayMsg::Direct(u64::from(seq)),
                5 => OverlayMsg::Ping { nonce: seq },
                6 => OverlayMsg::Pong { nonce: seq },
                _ => OverlayMsg::Disconnect,
            };
            let mut frame = Vec::new();
            codec.encode(&valid, &mut frame);
            frame.truncate(cut.index(frame.len()));
            proptest::prop_assert!(codec.decode(&frame).is_err(), "{valid:?} cut to {frame:?}");
            for buf in [body, tagged] {
                if let Ok(msg) = codec.decode(&buf) {
                    let mut again = Vec::new();
                    codec.encode(&msg, &mut again);
                    proptest::prop_assert_eq!(codec.decode(&again), Ok(msg));
                }
            }
        }
    }

    #[test]
    fn inner_halt_quiets_the_payload_path_but_not_the_overlay() {
        struct HaltOnFirst;
        impl Protocol for HaltOnFirst {
            type Msg = u64;
            fn on_start(&mut self, _ctx: &mut Context<u64>) {}
            fn on_message(&mut self, _from: NodeId, _msg: u64, ctx: &mut Context<u64>) {
                ctx.output(vec![1]);
                ctx.halt();
            }
        }
        let mut node = OverlayNode::new(
            Box::new(HaltOnFirst),
            Weights::new(vec![1; 4]).unwrap(),
            OverlayConfig::default(),
            5,
        );
        let mut ctx = Context::detached(0, 4, 0);
        node.on_start(&mut ctx);
        let mut ctx = Context::detached(0, 4, 1);
        node.on_message(
            1,
            OverlayMsg::Eager { origin: 1, seq: 0, hops: 1, payload: 8 },
            &mut ctx,
        );
        assert!(node.inner_halted, "inner halt captured");
        assert!(!ctx.halted, "the overlay node itself must keep running");
        // A later graft is still served from the cache.
        let mut ctx = Context::detached(0, 4, 2);
        node.on_message(2, OverlayMsg::Graft { origin: 1, seq: 0 }, &mut ctx);
        let sent = ctx.take_staged_expanded(0);
        assert!(
            sent.iter().any(|(to, m)| *to == 2 && matches!(m, OverlayMsg::Eager { .. })),
            "halted-inner node still serves repairs: {sent:?}"
        );
    }
}
