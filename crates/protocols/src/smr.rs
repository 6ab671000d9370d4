//! Asynchronous state machine replication by composition
//! (paper Section 6.1).
//!
//! The paper's recipe for weighting an asynchronous SMR (HoneyBadger /
//! DAG-style): use a *weighted* communication-efficient broadcast
//! (Section 5 — here, the erasure-coded dissemination of [`crate::avid`])
//! plus *weighted* distributed randomness (Section 4.1 — the threshold
//! beacon), and convert everything else by weighted voting. The randomness
//! part runs a nominal scheme with `alpha_n = 1/2` over `WR(1/3, 1/2)`
//! tickets, "levelling the resilience of different parts of the protocol
//! without affecting the resilience of the composition" — `f_w = f_n =
//! 1/3`.
//!
//! This module is a deterministic round-driven composition harness (the
//! async machinery of the individual components is exercised in their own
//! modules): each round, alive parties contribute a batch, the beacon
//! elects a stake-weighted leader, and every party appends the leader's
//! batch. It measures the dissemination bytes of the erasure-coded path
//! against naive full replication.
//!
//! # Live-instance epoch reconfiguration
//!
//! [`SmrInstance`] is the long-running form: it pipelines disseminated
//! but not-yet-committed rounds and survives epoch reconfigurations
//! ([`SmrInstance::reconfigure`]) instead of tearing down. Across an
//! epoch boundary it carries
//!
//! * the **committed prefix** (the ledger) — always;
//! * the **beacon state** (threshold scheme, group key, per-party
//!   shares) — whenever the epoch's WR ticket assignment is unchanged;
//!   otherwise the keys are re-dealt *deterministically* from the
//!   session seed and the assignment's fingerprint, so every replica —
//!   and the teardown-rebuild baseline — derives identical keys and
//!   therefore identical leader sequences (this carry/re-deal split is
//!   the recipe `EpochEvent::rekey_seed` now carries to every consumer;
//!   `crate::aba::AbaSetup::on_epoch` applies it to coin keys);
//! * the **dissemination pipeline** — whenever the epoch's WQ ticket
//!   assignment is unchanged; otherwise the coding parameters `(k, m)`
//!   moved and the un-committed rounds re-disseminate (they are the only
//!   rounds that ever re-run).
//!
//! [`ReconfigureMode::Rebuild`] is the teardown-rebuild baseline: every
//! boundary re-keys and re-disseminates everything in flight. Both modes
//! commit bit-identical ledgers by construction; the `epochs` bench bin
//! and the nightly CI job fail on any divergence, and the live mode's
//! value shows up as strictly fewer restarted rounds.
//!
//! # Identity model
//!
//! Per the stable-identity contract (`swiper_net::Protocol`'s
//! `on_reconfigure` docs), everything this composition carries across a
//! boundary is keyed by identities that never renumber: the ledger and
//! pipeline by *round number*, batches and beacon shares by *party* —
//! party sets are fixed across epochs, and deltas of any shape (gains,
//! losses, mixed join/leave with live renumbering) are equally
//! supported. Dense virtual positions appear only inside one epoch's
//! coding/dealing (fragment indices, share indices); when the assignment
//! backing them moves, the affected state is re-derived rather than
//! translated — deterministically for the beacon, by re-dissemination
//! for the pipeline — which is exactly why no gain-only restriction
//! exists here.

use std::collections::{HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swiper_core::{Ratio, TicketAssignment, VirtualUsers, Weights};
use swiper_crypto::hash::{Digest, Hasher};
use swiper_crypto::thresh::{KeyShare, PublicKey, ThresholdScheme};
use swiper_erasure::shards::encode_bytes;

/// Folds a ticket-assignment fingerprint into a 64-bit RNG seed.
fn fold_fingerprint(tickets: &TicketAssignment) -> u64 {
    let fp = tickets.fingerprint();
    (fp ^ (fp >> 64)) as u64
}

/// Deals the beacon's threshold keys over the WR virtual users.
fn deal_beacon<R: Rng + ?Sized>(
    wr_mapping: &VirtualUsers,
    rng: &mut R,
) -> (ThresholdScheme, PublicKey, Vec<Vec<KeyShare>>) {
    let total = wr_mapping.total();
    let scheme = ThresholdScheme::new(total / 2 + 1, total).expect("threshold <= total");
    let (pk, all) = scheme.keygen(rng);
    let shares = (0..wr_mapping.parties())
        .map(|p| wr_mapping.virtuals_of(p).map(|v| all[v]).collect())
        .collect();
    (scheme, pk, shares)
}

/// Configuration of the SMR composition.
#[derive(Debug, Clone)]
pub struct SmrConfig {
    weights: Weights,
    /// WQ tickets for dissemination (`(ceil(beta_n T), T)` coding).
    wq_tickets: TicketAssignment,
    beta_n: Ratio,
    /// WR tickets for the beacon.
    wr_mapping: VirtualUsers,
    scheme: ThresholdScheme,
    pk: PublicKey,
    shares: Vec<Vec<KeyShare>>,
}

impl SmrConfig {
    /// Builds the composition from the two weight reduction solutions.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or empty assignments.
    pub fn new<R: Rng + ?Sized>(
        weights: Weights,
        wq_tickets: TicketAssignment,
        beta_n: Ratio,
        wr_tickets: &TicketAssignment,
        rng: &mut R,
    ) -> Self {
        assert_eq!(weights.len(), wq_tickets.len(), "WQ tickets mismatch");
        assert_eq!(weights.len(), wr_tickets.len(), "WR tickets mismatch");
        let wr_mapping = VirtualUsers::from_assignment(wr_tickets).expect("fits memory");
        assert!(wr_mapping.total() > 0 && wq_tickets.total() > 0, "empty reduction");
        let (scheme, pk, shares) = deal_beacon(&wr_mapping, rng);
        SmrConfig { weights, wq_tickets, beta_n, wr_mapping, scheme, pk, shares }
    }

    /// Like [`SmrConfig::new`], but the beacon keys derive
    /// deterministically from `session_seed` and the WR assignment's
    /// fingerprint. Every replica — and every rebuild for the *same*
    /// assignment — deals identical keys, which is what lets a live
    /// instance carry its beacon state across an epoch whose WR tickets
    /// did not move while staying bit-compatible with a full rebuild.
    pub fn deterministic(
        weights: Weights,
        wq_tickets: TicketAssignment,
        beta_n: Ratio,
        wr_tickets: &TicketAssignment,
        session_seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(session_seed ^ fold_fingerprint(wr_tickets));
        SmrConfig::new(weights, wq_tickets, beta_n, wr_tickets, &mut rng)
    }

    /// The dissemination code parameters `(k, m)`.
    pub fn code_params(&self) -> (usize, usize) {
        let total = usize::try_from(self.wq_tickets.total()).expect("fits");
        let k_num = self.beta_n.num() * total as u128;
        let k = usize::try_from(k_num.div_ceil(self.beta_n.den())).expect("fits").max(1);
        (k, total)
    }

    /// Beacon output for a round, produced from the shares of the `alive`
    /// parties (they must jointly clear the threshold).
    ///
    /// Returns `None` when the alive set lacks the shares — which the WR
    /// guarantee rules out for any alive set of weight `> 2/3 W`.
    pub fn beacon(&self, round: u64, alive: &[usize]) -> Option<Digest> {
        let tag = {
            let mut t = b"swiper.smr.round.".to_vec();
            t.extend_from_slice(&round.to_le_bytes());
            t
        };
        let mut partials = Vec::new();
        for &p in alive {
            for s in &self.shares[p] {
                partials.push(self.scheme.partial_sign(s, &tag));
            }
        }
        let sig = self.scheme.combine(&partials).ok()?;
        if !self.scheme.verify(&self.pk, &tag, &sig) {
            return None;
        }
        Some(sig.beacon_output())
    }

    /// Stake-weighted leader for a beacon output: the owner of the
    /// `(beacon mod T)`-th WR virtual user — election probability is
    /// proportional to tickets, i.e. approximately to stake.
    pub fn leader(&self, beacon: &Digest) -> usize {
        let total = self.wr_mapping.total() as u64;
        self.wr_mapping.owner_of((beacon.to_u64() % total) as usize)
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct SmrRun {
    /// Committed ledger (identical for every honest party by
    /// construction; the tests assert the invariants that make it so).
    pub ledger: Vec<(u64, usize, Vec<u8>)>,
    /// Leaders per round.
    pub leaders: Vec<usize>,
    /// Total bytes of erasure-coded dissemination.
    pub coded_bytes: u64,
    /// Bytes a full-replication broadcast of the same batches would cost.
    pub replicated_bytes: u64,
}

/// Runs `rounds` of the composition. `alive` lists the participating
/// parties (crashed parties contribute nothing); batches come from
/// `batch_of(round, party)`.
///
/// # Panics
///
/// Panics if the alive set cannot produce the beacon (alive weight must
/// exceed `2/3` of the total, the asynchronous SMR liveness condition).
pub fn run<F>(config: &SmrConfig, rounds: u64, alive: &[usize], mut batch_of: F) -> SmrRun
where
    F: FnMut(u64, usize) -> Vec<u8>,
{
    let n = config.weights.len();
    let (k, m) = config.code_params();
    let mut ledger = Vec::new();
    let mut leaders = Vec::new();
    let mut coded_bytes = 0u64;
    let mut replicated_bytes = 0u64;
    for round in 0..rounds {
        // 1. Alive parties disseminate their batches (erasure-coded).
        let mut batches: Vec<Option<Vec<u8>>> = vec![None; n];
        for &p in alive {
            let batch = batch_of(round, p);
            let shards = encode_bytes(&batch, k, m).expect("valid code");
            // Dispersal sends each fragment to its owner once; retrieval
            // has every party relay its fragments to all n parties. Total
            // per batch: shard_bytes * (1 + n).
            let shard_bytes: usize = shards.iter().map(|s| s.len()).sum();
            coded_bytes += shard_bytes as u64 * (1 + n as u64);
            replicated_bytes += (batch.len() * n * n) as u64;
            batches[p] = Some(batch);
        }
        // 2. Beacon -> leader.
        let beacon = config.beacon(round, alive).expect("alive weight > 2/3 required");
        let leader = config.leader(&beacon);
        leaders.push(leader);
        // 3. Commit the leader's batch (skip rounds led by crashed parties
        //    — their batch never disseminated).
        if let Some(batch) = &batches[leader] {
            ledger.push((round, leader, batch.clone()));
        }
    }
    SmrRun { ledger, leaders, coded_bytes, replicated_bytes }
}

/// How an [`SmrInstance`] crosses an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigureMode {
    /// Splice: carry the committed prefix, the beacon state (when the WR
    /// tickets are unchanged) and the dissemination pipeline (when the WQ
    /// tickets are unchanged) across the boundary.
    Live,
    /// Teardown-rebuild baseline: re-key the beacon and re-disseminate
    /// every un-committed round, whatever the deltas say.
    Rebuild,
}

/// What one [`SmrInstance::reconfigure`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochCrossing {
    /// Un-committed rounds that survived in the pipeline.
    pub survived: u64,
    /// Un-committed rounds torn down and re-disseminated.
    pub restarted: u64,
    /// Whether the beacon keys were re-dealt.
    pub rekeyed: bool,
}

/// One disseminated, not-yet-committed round.
#[derive(Debug, Clone)]
struct PreparedRound {
    round: u64,
    batches: Vec<Option<Vec<u8>>>,
}

/// A long-running SMR composition that survives epoch reconfigurations:
/// rounds are *prepared* (batches disseminated, erasure-coded under the
/// epoch's WQ tickets) into a pipeline and *committed* (beacon → leader →
/// ledger) in order. See the module docs for what crosses an epoch
/// boundary in [`ReconfigureMode::Live`] versus
/// [`ReconfigureMode::Rebuild`].
pub struct SmrInstance {
    config: SmrConfig,
    wr_tickets: TicketAssignment,
    session_seed: u64,
    pipeline: VecDeque<PreparedRound>,
    next_round: u64,
    ledger: Vec<(u64, usize, Vec<u8>)>,
    coded_bytes: u64,
    restarted_rounds: u64,
    survived_rounds: u64,
    rekeys: u64,
}

impl SmrInstance {
    /// Creates the instance at epoch 0. Beacon keys are dealt
    /// deterministically from `session_seed` and the WR assignment (see
    /// [`SmrConfig::deterministic`]).
    pub fn new(
        weights: Weights,
        wq_tickets: TicketAssignment,
        beta_n: Ratio,
        wr_tickets: TicketAssignment,
        session_seed: u64,
    ) -> Self {
        let config =
            SmrConfig::deterministic(weights, wq_tickets, beta_n, &wr_tickets, session_seed);
        SmrInstance {
            config,
            wr_tickets,
            session_seed,
            pipeline: VecDeque::new(),
            next_round: 0,
            ledger: Vec::new(),
            coded_bytes: 0,
            restarted_rounds: 0,
            survived_rounds: 0,
            rekeys: 0,
        }
    }

    /// The committed ledger so far.
    pub fn ledger(&self) -> &[(u64, usize, Vec<u8>)] {
        &self.ledger
    }

    /// Disseminated-but-uncommitted rounds currently in flight.
    pub fn pipeline_len(&self) -> usize {
        self.pipeline.len()
    }

    /// Un-committed rounds re-disseminated across all epoch crossings.
    pub fn restarted_rounds(&self) -> u64 {
        self.restarted_rounds
    }

    /// Un-committed rounds that crossed an epoch without re-running.
    pub fn survived_rounds(&self) -> u64 {
        self.survived_rounds
    }

    /// Beacon key deals beyond the initial one.
    pub fn rekeys(&self) -> u64 {
        self.rekeys
    }

    /// Total erasure-coded dissemination bytes, re-dissemination included.
    pub fn coded_bytes(&self) -> u64 {
        self.coded_bytes
    }

    /// Erasure-codes one round's batches and charges the wire cost.
    fn disseminate(&mut self, batches: &[Option<Vec<u8>>]) {
        let n = self.config.weights.len();
        let (k, m) = self.config.code_params();
        for batch in batches.iter().flatten() {
            let shards = encode_bytes(batch, k, m).expect("valid code");
            let shard_bytes: usize = shards.iter().map(|s| s.len()).sum();
            self.coded_bytes += shard_bytes as u64 * (1 + n as u64);
        }
    }

    /// Prepares the next round: `alive` parties contribute
    /// `batch_of(round, party)` and the batches disseminate under the
    /// current epoch's coding parameters.
    pub fn prepare<F>(&mut self, alive: &[usize], mut batch_of: F)
    where
        F: FnMut(u64, usize) -> Vec<u8>,
    {
        let n = self.config.weights.len();
        let round = self.next_round;
        self.next_round += 1;
        let mut batches: Vec<Option<Vec<u8>>> = vec![None; n];
        for &p in alive {
            batches[p] = Some(batch_of(round, p));
        }
        self.disseminate(&batches);
        self.pipeline.push_back(PreparedRound { round, batches });
    }

    /// Commits the oldest prepared round: beacon → leader → ledger (a
    /// round led by a crashed party commits nothing). Returns whether a
    /// block was appended; `None` when the pipeline is empty.
    ///
    /// # Panics
    ///
    /// Panics if the alive set cannot produce the beacon (alive weight
    /// must exceed `2/3` of the total — the liveness condition).
    pub fn commit(&mut self, alive: &[usize]) -> Option<bool> {
        let prepared = self.pipeline.pop_front()?;
        let beacon =
            self.config.beacon(prepared.round, alive).expect("alive weight > 2/3 required");
        let leader = self.config.leader(&beacon);
        if let Some(batch) = &prepared.batches[leader] {
            self.ledger.push((prepared.round, leader, batch.clone()));
            Some(true)
        } else {
            Some(false)
        }
    }

    /// Crosses an epoch boundary into the new weight/ticket assignments.
    /// In [`ReconfigureMode::Live`] only the state the deltas actually
    /// invalidate is rebuilt; in [`ReconfigureMode::Rebuild`] everything
    /// in flight is. The committed prefix always survives.
    pub fn reconfigure(
        &mut self,
        weights: Weights,
        wq_tickets: TicketAssignment,
        wr_tickets: TicketAssignment,
        mode: ReconfigureMode,
    ) -> EpochCrossing {
        assert_eq!(weights.len(), wq_tickets.len(), "WQ tickets mismatch");
        assert_eq!(weights.len(), wr_tickets.len(), "WR tickets mismatch");
        let wq_changed = wq_tickets.as_slice() != self.config.wq_tickets.as_slice();
        let wr_changed = wr_tickets.as_slice() != self.wr_tickets.as_slice();
        self.config.weights = weights;
        // Beacon: re-deal only when the WR assignment moved (or the
        // baseline insists). Deterministic dealing keeps a re-deal for an
        // unchanged assignment bit-identical to the carried state, which
        // is exactly why Live and Rebuild commit the same ledgers.
        let rekeyed = wr_changed || mode == ReconfigureMode::Rebuild;
        if rekeyed {
            let mapping = VirtualUsers::from_assignment(&wr_tickets).expect("fits memory");
            assert!(mapping.total() > 0, "empty WR reduction");
            let mut rng =
                StdRng::seed_from_u64(self.session_seed ^ fold_fingerprint(&wr_tickets));
            let (scheme, pk, shares) = deal_beacon(&mapping, &mut rng);
            self.config.wr_mapping = mapping;
            self.config.scheme = scheme;
            self.config.pk = pk;
            self.config.shares = shares;
            self.rekeys += 1;
        }
        self.wr_tickets = wr_tickets;
        // Pipeline: un-committed rounds re-disseminate only when the WQ
        // assignment (and with it the code parameters) moved.
        let in_flight = self.pipeline.len() as u64;
        let restart = wq_changed || mode == ReconfigureMode::Rebuild;
        self.config.wq_tickets = wq_tickets;
        if restart {
            self.restarted_rounds += in_flight;
            // Re-charge the wire cost of every in-flight round under the
            // new code parameters; taking the pipeline out and back
            // avoids cloning the batches just to satisfy the borrows.
            let rounds = std::mem::take(&mut self.pipeline);
            for prepared in &rounds {
                self.disseminate(&prepared.batches);
            }
            self.pipeline = rounds;
        } else {
            self.survived_rounds += in_flight;
        }
        EpochCrossing {
            survived: if restart { 0 } else { in_flight },
            restarted: if restart { in_flight } else { 0 },
            rekeyed,
        }
    }
}

/// Wire messages of the [`SmrNode`] message-passing automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmrMsg {
    /// The round leader's batch.
    Propose(u64, Vec<u8>),
    /// Witness of the leader's batch digest.
    Echo(u64, Digest),
    /// Commit vote for the batch digest.
    Ready(u64, Digest),
}

impl swiper_net::MessageSize for SmrMsg {
    fn size_bytes(&self) -> usize {
        match self {
            SmrMsg::Propose(_, batch) => 8 + batch.len(),
            SmrMsg::Echo(..) | SmrMsg::Ready(..) => 8 + 32,
        }
    }
}

/// Per-round voting state of one [`SmrNode`].
#[derive(Default)]
struct SmrRound {
    /// Digest of the leader's verified batch, once the propose arrived.
    accepted: Option<Digest>,
    /// Senders whose `Echo` for this round was counted. Only a sender's
    /// first `Echo` counts, so one Byzantine replica adds at most one
    /// digest entry below, however many digests it sends.
    echoed: HashSet<usize>,
    /// Senders whose `Ready` for this round was counted (first one only).
    readied: HashSet<usize>,
    /// Counted echo senders per digest. `BTreeMap`, not `HashMap`: when
    /// an equivocating leader lets two digests clear a threshold in the
    /// same callback, the winner must not depend on hash iteration order
    /// (fresh replay nodes have fresh hasher seeds — the twin contract
    /// forbids it).
    echoes: std::collections::BTreeMap<Digest, usize>,
    /// Counted ready senders per digest (ordered for the same reason).
    readies: std::collections::BTreeMap<Digest, usize>,
    sent_echo: bool,
    sent_ready: bool,
    /// Digest with a full ready quorum, pending in-order commit.
    committable: Option<Digest>,
}

/// A message-passing SMR replica: the [`Protocol`](swiper_net::Protocol)
/// automaton form of the composition, runnable on *both* execution
/// backends (the deterministic simulator and the threaded runtime — see
/// `docs/ARCHITECTURE.md`).
///
/// Each round is a Bracha-shaped commit: the round's stake-weighted
/// leader (elected from a digest chain seeded by `session_seed`, election
/// probability proportional to weight) proposes a deterministic batch,
/// replicas echo its digest after verifying it, send `Ready` on an
/// `n - f` echo quorum (amplifying on `f + 1` readies), and commit on an
/// `n - f` ready quorum. Rounds commit strictly in order; committing
/// round `r` triggers the leader of `r + 1`, so the commit rate is the
/// pipeline's end-to-end latency — what the `runtime_scale` bench
/// measures as commits/sec. After the last round every replica outputs
/// `committed_rounds (8 bytes LE) || ledger_digest` and goes quiet.
///
/// All internal tallies are keyed lookups, counts, or ordered-map scans —
/// nothing consults hash iteration order to decide *what to send* — so
/// the automaton is a deterministic function of its callback sequence,
/// which the twin-replay contract requires.
pub struct SmrNode {
    me: usize,
    n: usize,
    weights: Weights,
    session_seed: u64,
    rounds: u64,
    batch_bytes: usize,
    /// Highest round not yet committed (rounds commit in order).
    next_commit: u64,
    ledger_digest: Digest,
    state: std::collections::BTreeMap<u64, SmrRound>,
    done: bool,
}

impl SmrNode {
    /// A replica for `me` of an `n`-party, `rounds`-round chain with
    /// `batch_bytes` batches.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != n` or `rounds == 0`.
    pub fn new(
        me: usize,
        weights: Weights,
        session_seed: u64,
        rounds: u64,
        batch_bytes: usize,
    ) -> Self {
        let n = weights.len();
        assert!(me < n, "replica id out of range");
        assert!(rounds > 0, "need at least one round");
        SmrNode {
            me,
            n,
            weights,
            session_seed,
            rounds,
            batch_bytes,
            next_commit: 0,
            ledger_digest: swiper_crypto::hash::digest(b"swiper.smr.genesis"),
            state: std::collections::BTreeMap::new(),
            done: false,
        }
    }

    /// Tolerated faults: `floor((n - 1) / 3)`.
    fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Quorum size `n - f`.
    fn quorum(&self) -> usize {
        self.n - self.f()
    }

    /// The round's election digest: a chain seeded by `session_seed`, the
    /// same at every replica.
    fn round_digest(&self, round: u64) -> Digest {
        swiper_crypto::hash::digest_parts(&[
            b"swiper.smr.node.round",
            &self.session_seed.to_le_bytes(),
            &round.to_le_bytes(),
        ])
    }

    /// Stake-weighted leader of `round`: sample the election digest
    /// against the cumulative weight distribution.
    pub fn leader_of(&self, round: u64) -> usize {
        self.leader_for(&self.round_digest(round))
    }

    /// [`SmrNode::leader_of`] for an already computed election digest.
    fn leader_for(&self, seed: &Digest) -> usize {
        let total = self.weights.total();
        let point = seed.to_u64() as u128 % total;
        let mut acc = 0u128;
        for (p, w) in self.weights.as_slice().iter().enumerate() {
            acc += u128::from(*w);
            if point < acc {
                return p;
            }
        }
        self.n - 1
    }

    /// The deterministic batch the leader of the round with election
    /// digest `seed` proposes, so any replica can verify it byte for byte:
    /// the blocks `digest_parts(["swiper.smr.batch", seed, i_le])` for
    /// `i = 0, 1, ..` (`i_le` = the 8 little-endian bytes of `i`),
    /// concatenated and cut to `batch_bytes`. The framed label and seed
    /// (64 bytes) are absorbed once and the hasher is cloned per block, so
    /// a block costs one permutation instead of three.
    fn batch_of(&self, seed: &Digest) -> Vec<u8> {
        let mut prefix = Hasher::new();
        prefix.update_part(b"swiper.smr.batch");
        prefix.update_part(seed.as_bytes());
        let mut batch = Vec::with_capacity(self.batch_bytes);
        let mut counter = 0u64;
        while batch.len() < self.batch_bytes {
            let mut h = prefix.clone();
            h.update_part(&counter.to_le_bytes());
            let block = h.finalize();
            let take = (self.batch_bytes - batch.len()).min(32);
            batch.extend_from_slice(&block.as_bytes()[..take]);
            counter += 1;
        }
        batch
    }

    /// Rounds committed so far.
    pub fn committed(&self) -> u64 {
        self.next_commit
    }

    fn propose(&mut self, round: u64, ctx: &mut swiper_net::Context<SmrMsg>) {
        if round >= self.rounds {
            return;
        }
        let seed = self.round_digest(round);
        if self.leader_for(&seed) == self.me {
            ctx.broadcast(SmrMsg::Propose(round, self.batch_of(&seed)));
        }
    }

    /// Re-examines `round` after new state: emit echo/ready when a
    /// threshold cleared, then commit every in-order committable round.
    fn advance(&mut self, round: u64, ctx: &mut swiper_net::Context<SmrMsg>) {
        let quorum = self.quorum();
        let amplify = self.f() + 1;
        let entry = self.state.entry(round).or_default();
        if !entry.sent_echo {
            if let Some(d) = entry.accepted {
                entry.sent_echo = true;
                ctx.broadcast(SmrMsg::Echo(round, d));
            }
        }
        if !entry.sent_ready {
            // An echo quorum, or a Byzantine-safe f+1 ready amplification,
            // commits this replica to the digest.
            let ready_for = entry
                .echoes
                .iter()
                .find(|(_, &c)| c >= quorum)
                .or_else(|| entry.readies.iter().find(|(_, &c)| c >= amplify))
                .map(|(d, _)| *d);
            if let Some(d) = ready_for {
                entry.sent_ready = true;
                ctx.broadcast(SmrMsg::Ready(round, d));
            }
        }
        if entry.committable.is_none() {
            if let Some((d, _)) = entry.readies.iter().find(|(_, &c)| c >= quorum) {
                entry.committable = Some(*d);
            }
        }
        // Commit strictly in order; each commit folds the batch digest
        // into the ledger digest and unleashes the next round's leader.
        while self.next_commit < self.rounds {
            let r = self.next_commit;
            let Some(d) = self.state.get(&r).and_then(|s| s.committable) else { break };
            self.ledger_digest = swiper_crypto::hash::digest_parts(&[
                b"swiper.smr.ledger",
                self.ledger_digest.as_bytes(),
                d.as_bytes(),
            ]);
            self.next_commit += 1;
            self.state.remove(&r);
            self.propose(self.next_commit, ctx);
        }
        if self.next_commit == self.rounds && !self.done {
            self.done = true;
            let mut out = self.next_commit.to_le_bytes().to_vec();
            out.extend_from_slice(self.ledger_digest.as_bytes());
            ctx.output(out);
        }
    }
}

impl swiper_net::Protocol for SmrNode {
    type Msg = SmrMsg;

    fn on_start(&mut self, ctx: &mut swiper_net::Context<SmrMsg>) {
        self.propose(0, ctx);
    }

    fn on_message(&mut self, from: usize, msg: SmrMsg, ctx: &mut swiper_net::Context<SmrMsg>) {
        match msg {
            SmrMsg::Propose(round, batch) => {
                if round >= self.rounds || round < self.next_commit {
                    return;
                }
                let seed = self.round_digest(round);
                if from != self.leader_for(&seed) || batch != self.batch_of(&seed) {
                    return;
                }
                let d = swiper_crypto::hash::digest(&batch);
                self.state.entry(round).or_default().accepted = Some(d);
                self.advance(round, ctx);
            }
            SmrMsg::Echo(round, d) => {
                if round >= self.rounds || round < self.next_commit {
                    return;
                }
                let entry = self.state.entry(round).or_default();
                if entry.echoed.insert(from) {
                    *entry.echoes.entry(d).or_default() += 1;
                    self.advance(round, ctx);
                }
            }
            SmrMsg::Ready(round, d) => {
                if round >= self.rounds || round < self.next_commit {
                    return;
                }
                let entry = self.state.entry(round).or_default();
                if entry.readied.insert(from) {
                    *entry.readies.entry(d).or_default() += 1;
                    self.advance(round, ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use swiper_core::{Swiper, WeightQualification, WeightRestriction};

    fn config(ws: &[u64]) -> SmrConfig {
        let weights = Weights::new(ws.to_vec()).unwrap();
        let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let wq_sol = Swiper::new().solve_qualification(&weights, &wq).unwrap();
        let wr_sol = Swiper::new().solve_restriction(&weights, &wr).unwrap();
        SmrConfig::new(
            weights,
            wq_sol.assignment,
            Ratio::of(1, 4),
            &wr_sol.assignment,
            &mut StdRng::seed_from_u64(3),
        )
    }

    fn smr_nodes(
        ws: &[u64],
        seed: u64,
        rounds: u64,
    ) -> Vec<Box<dyn swiper_net::Protocol<Msg = SmrMsg>>> {
        let weights = Weights::new(ws.to_vec()).unwrap();
        (0..ws.len())
            .map(|me| {
                Box::new(SmrNode::new(me, weights.clone(), seed, rounds, 64))
                    as Box<dyn swiper_net::Protocol<Msg = SmrMsg>>
            })
            .collect()
    }

    #[test]
    fn smr_node_chain_commits_on_the_simulator() {
        let report = swiper_net::Simulation::new(smr_nodes(&[40, 30, 20, 10], 11, 5), 77)
            .with_delay(swiper_net::DelayModel::Uniform(1, 9))
            .run();
        let outs = report.outputs_of(&[0, 1, 2, 3]);
        assert!(report.unanimity_among(&[0, 1, 2, 3]), "replicas disagree: {outs:?}");
        let out = report.outputs[0].as_ref().expect("committed");
        assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), 5);
        assert_eq!(out.len(), 8 + 32);
    }

    #[test]
    fn smr_node_runs_identically_on_both_backends() {
        // The same automaton drives on the threaded runtime, and its trace
        // replays on the simulator substrate bit-identically.
        let weights = Weights::new(vec![40, 30, 20, 10]).unwrap();
        let nodes: swiper_net::SendNodes<SmrMsg> = (0..4)
            .map(|me| {
                Box::new(SmrNode::new(me, weights.clone(), 11, 4, 64))
                    as Box<dyn swiper_net::Protocol<Msg = SmrMsg> + Send>
            })
            .collect();
        let full = swiper_net::ThreadedRuntime::new(nodes).with_workers(2).run_traced();
        assert!(full.report.unanimity_among(&[0, 1, 2, 3]));
        let twin = full.trace.replay(smr_nodes(&[40, 30, 20, 10], 11, 4)).expect("twin");
        assert_eq!(twin.outputs, full.report.outputs);
        assert_eq!(twin.metrics, full.report.metrics);
    }

    #[test]
    fn smr_node_leaders_are_stake_weighted() {
        let weights = Weights::new(vec![60, 20, 10, 10]).unwrap();
        let node = SmrNode::new(0, weights, 3, 1, 16);
        let whale = (0..400).filter(|&r| node.leader_of(r) == 0).count();
        assert!(whale > 160, "whale led only {whale}/400 rounds");
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The batch is pinned bit for bit: first and last block, and the
    /// digest of the whole 4 KiB, of rounds 0 and 1 at session seed 11.
    /// The values were recorded from the derivation that framed all three
    /// parts afresh for every block.
    #[test]
    fn batch_of_known_answers_at_session_seed_11() {
        let weights = Weights::new(vec![40, 30, 20, 10]).unwrap();
        let node = SmrNode::new(0, weights.clone(), 11, 2, 4096);
        let cases = [
            (
                0,
                "3b202b113b7d0118dcae8cf4922e8e066baa5ccef6bc2ab498fbc82e5934f8e2",
                "99cc5d0ea8012b90f011df635cc48d7c694d9da55bc0bb1b21d5e0138679a30f",
                "5bd308a6740e7e119a1fb1f57841e7334cda0753569c013aef6666d8d2294640",
            ),
            (
                1,
                "6da261716056b03729e2a6eed4fac0fa6d4e90f9793ebe63bc3245fb747c8988",
                "46c6a1268b7e03cf52e09ea3ee9d366eaf7eab8084ec1ca4704487c9a9c29961",
                "cda7b9df84543f540bd7479edafb96b968ef8920abd372c91c1887599c195740",
            ),
        ];
        for (round, first, last, whole) in cases {
            let seed = node.round_digest(round);
            let batch = node.batch_of(&seed);
            assert_eq!(batch.len(), 4096);
            assert_eq!(hex(&batch[..32]), first, "round {round}: first block");
            assert_eq!(hex(&batch[4096 - 32..]), last, "round {round}: last block");
            assert_eq!(hex(swiper_crypto::hash::digest(&batch).as_bytes()), whole);
            // A size that is not a whole number of blocks cuts the same
            // stream short.
            let cut = SmrNode::new(0, weights.clone(), 11, 2, 4090).batch_of(&seed);
            assert_eq!(cut[..], batch[..4090]);
        }
    }

    /// Only the round's leader proposing exactly the derived batch is
    /// echoed: a stranger's proposal, a flipped byte in the last block,
    /// and a batch one byte short or long each leave the replica silent.
    #[test]
    fn only_the_leaders_exact_batch_is_echoed() {
        use swiper_net::Protocol;
        let weights = Weights::new(vec![40, 30, 20, 10]).unwrap();
        let round = 1;
        let probe = SmrNode::new(0, weights.clone(), 11, 3, 4096);
        let leader = probe.leader_of(round);
        let me = (leader + 1) % 4;
        let stranger = (leader + 2) % 4;
        let honest = probe.batch_of(&probe.round_digest(round));
        let echoes_after = |from: usize, batch: Vec<u8>| {
            let mut replica = SmrNode::new(me, weights.clone(), 11, 3, 4096);
            let mut ctx = swiper_net::Context::detached(me, 4, 0);
            replica.on_message(from, SmrMsg::Propose(round, batch), &mut ctx);
            ctx.into_effects()
                .outbox
                .into_iter()
                .filter(|(_, m)| matches!(m, SmrMsg::Echo(..)))
                .collect::<Vec<_>>()
        };
        let d = swiper_crypto::hash::digest(&honest);
        let one_broadcast: Vec<_> = (0..4).map(|to| (to, SmrMsg::Echo(round, d))).collect();
        assert_eq!(echoes_after(leader, honest.clone()), one_broadcast);
        let mut flipped = honest.clone();
        flipped[4096 - 7] ^= 0x01;
        let mut long = honest.clone();
        long.push(0);
        for (what, from, batch) in [
            ("stranger", stranger, honest.clone()),
            ("flipped last block", leader, flipped),
            ("one byte short", leader, honest[..4095].to_vec()),
            ("one byte long", leader, long),
        ] {
            assert_eq!(echoes_after(from, batch), vec![], "{what} was echoed");
        }
    }

    /// A sender's first `Echo` and first `Ready` per round are the ones
    /// that count: a Byzantine replica spraying distinct digests leaves
    /// one entry per vote kind, not one per digest for every later
    /// `advance` to scan.
    #[test]
    fn a_sender_counts_once_per_round_however_many_digests_it_sends() {
        use swiper_net::Protocol;
        let weights = Weights::new(vec![40, 30, 20, 10]).unwrap();
        let mut node = SmrNode::new(0, weights, 11, 3, 64);
        let mut ctx = swiper_net::Context::detached(0, 4, 0);
        for i in 0..1000u64 {
            let d = swiper_crypto::hash::digest(&i.to_le_bytes());
            node.on_message(3, SmrMsg::Echo(1, d), &mut ctx);
            node.on_message(3, SmrMsg::Ready(1, d), &mut ctx);
        }
        let spammed = &node.state[&1];
        assert_eq!(spammed.echoes.len(), 1, "echo entries");
        assert_eq!(spammed.readies.len(), 1, "ready entries");
        assert!(ctx.into_effects().outbox.is_empty());
    }

    #[test]
    fn node_automata_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SmrNode>();
        assert_send::<crate::bracha::BrachaNode>();
        assert_send::<crate::aba::AbaNode>();
        assert_send::<crate::quorum::Roster>();
    }

    #[test]
    fn all_alive_rounds_commit() {
        let cfg = config(&[40, 30, 20, 10]);
        let alive = [0usize, 1, 2, 3];
        let run = run(&cfg, 20, &alive, |r, p| format!("batch-{r}-{p}").into_bytes());
        assert_eq!(run.ledger.len(), 20, "every round commits when all are alive");
        assert_eq!(run.leaders.len(), 20);
    }

    #[test]
    fn crashed_minority_does_not_block() {
        let cfg = config(&[40, 30, 20, 10]);
        // Party 3 (10% < 1/3) crashed: liveness preserved, rounds led by 3
        // are skipped.
        let alive = [0usize, 1, 2];
        let run = run(&cfg, 30, &alive, |r, p| format!("b{r}{p}").into_bytes());
        let skipped = run.leaders.iter().filter(|&&l| l == 3).count();
        assert_eq!(run.ledger.len(), 30 - skipped);
        for (_, leader, _) in &run.ledger {
            assert!(alive.contains(leader));
        }
    }

    #[test]
    fn determinism_across_replicas() {
        // Two replicas computing the same run agree block-for-block — the
        // agreement property of the composition.
        let cfg = config(&[40, 30, 20, 10]);
        let alive = [0usize, 1, 2, 3];
        let a = run(&cfg, 15, &alive, |r, p| vec![r as u8, p as u8]);
        let b = run(&cfg, 15, &alive, |r, p| vec![r as u8, p as u8]);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.leaders, b.leaders);
    }

    #[test]
    fn leaders_are_stake_weighted() {
        let cfg = config(&[60, 20, 10, 10]);
        let alive = [0usize, 1, 2, 3];
        let run = run(&cfg, 400, &alive, |_, _| vec![0]);
        let whale_rounds = run.leaders.iter().filter(|&&l| l == 0).count();
        // The whale holds ~60% of tickets; allow generous slack.
        assert!(whale_rounds > 400 * 2 / 5, "whale led only {whale_rounds}/400 rounds");
    }

    #[test]
    fn coded_dissemination_beats_replication() {
        let cfg = config(&[40, 30, 20, 10]);
        let alive = [0usize, 1, 2, 3];
        let big = vec![0xEE; 4000];
        let run = run(&cfg, 5, &alive, move |_, _| big.clone());
        assert!(
            run.coded_bytes < run.replicated_bytes,
            "coded {} vs replicated {}",
            run.coded_bytes,
            run.replicated_bytes
        );
    }

    #[test]
    #[should_panic(expected = "alive weight > 2/3 required")]
    fn insufficient_alive_weight_panics() {
        let cfg = config(&[40, 30, 20, 10]);
        // Only 30% alive: the beacon cannot be produced.
        let _ = run(&cfg, 1, &[1usize], |_, _| vec![]);
    }

    fn solutions(ws: &[u64]) -> (Weights, TicketAssignment, TicketAssignment) {
        let weights = Weights::new(ws.to_vec()).unwrap();
        let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let wq_sol = Swiper::new().solve_qualification(&weights, &wq).unwrap();
        let wr_sol = Swiper::new().solve_restriction(&weights, &wr).unwrap();
        (weights, wq_sol.assignment, wr_sol.assignment)
    }

    #[test]
    fn live_instance_without_epochs_matches_run() {
        let (weights, wq, wr) = solutions(&[40, 30, 20, 10]);
        let cfg =
            SmrConfig::deterministic(weights.clone(), wq.clone(), Ratio::of(1, 4), &wr, 9);
        let alive = [0usize, 1, 2, 3];
        let batch = |r: u64, p: usize| format!("b{r}-{p}").into_bytes();
        let baseline = run(&cfg, 12, &alive, batch);
        let mut inst = SmrInstance::new(weights, wq, Ratio::of(1, 4), wr, 9);
        for _ in 0..12 {
            inst.prepare(&alive, batch);
        }
        while inst.commit(&alive).is_some() {}
        assert_eq!(inst.ledger(), &baseline.ledger[..]);
        assert_eq!(inst.coded_bytes(), baseline.coded_bytes);
    }

    /// The live-reconfiguration contract in miniature: across an epoch
    /// whose deltas are empty the pipeline and beacon state survive;
    /// across one that moves the WQ tickets the in-flight rounds re-run;
    /// and in every case the committed ledger is bit-identical to the
    /// teardown-rebuild baseline — the live instance only ever does
    /// *less* work, never different work.
    #[test]
    fn live_reconfigure_matches_rebuild_with_fewer_restarts() {
        let (weights, wq, wr) = solutions(&[40, 30, 20, 10]);
        let alive = [0usize, 1, 2, 3];
        let batch = |r: u64, p: usize| format!("epoch-batch-{r}-{p}").into_bytes();
        let mut live =
            SmrInstance::new(weights.clone(), wq.clone(), Ratio::of(1, 4), wr.clone(), 5);
        let mut base =
            SmrInstance::new(weights.clone(), wq.clone(), Ratio::of(1, 4), wr.clone(), 5);
        // Epoch 0: pipeline two rounds ahead, commit one.
        for inst in [&mut live, &mut base] {
            inst.prepare(&alive, batch);
            inst.prepare(&alive, batch);
            inst.prepare(&alive, batch);
            inst.commit(&alive);
        }
        // Epoch 1: nothing moved — live splices, baseline rebuilds.
        let c1_live =
            live.reconfigure(weights.clone(), wq.clone(), wr.clone(), ReconfigureMode::Live);
        let c1_base =
            base.reconfigure(weights.clone(), wq.clone(), wr.clone(), ReconfigureMode::Rebuild);
        assert_eq!(c1_live, EpochCrossing { survived: 2, restarted: 0, rekeyed: false });
        assert_eq!(c1_base, EpochCrossing { survived: 0, restarted: 2, rekeyed: true });
        for inst in [&mut live, &mut base] {
            inst.prepare(&alive, batch);
            inst.commit(&alive);
        }
        // Epoch 2: the WQ assignment moves — both re-disseminate.
        let mut wq2 = wq.as_slice().to_vec();
        wq2[3] += 1;
        let wq2 = TicketAssignment::new(wq2);
        let c2_live =
            live.reconfigure(weights.clone(), wq2.clone(), wr.clone(), ReconfigureMode::Live);
        assert_eq!(c2_live, EpochCrossing { survived: 0, restarted: 2, rekeyed: false });
        let _ = base.reconfigure(
            weights.clone(),
            wq2.clone(),
            wr.clone(),
            ReconfigureMode::Rebuild,
        );
        for inst in [&mut live, &mut base] {
            inst.prepare(&alive, batch);
            while inst.commit(&alive).is_some() {}
        }
        assert_eq!(live.ledger(), base.ledger(), "live must commit the baseline's log");
        assert_eq!(live.ledger().len(), 5, "five rounds commit with everyone alive");
        assert!(
            live.restarted_rounds() < base.restarted_rounds(),
            "live restarted {} vs baseline {}",
            live.restarted_rounds(),
            base.restarted_rounds()
        );
        assert!(live.survived_rounds() > 0);
        assert!(live.rekeys() < base.rekeys());
        assert!(live.coded_bytes() < base.coded_bytes());
    }
}
