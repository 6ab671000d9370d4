//! Asynchronous Verifiable Information Dispersal — erasure-coded storage
//! and broadcast (paper Section 5.1; Cachin–Tessaro, reference \[17\]).
//!
//! The dealer erasure-codes the blob into `m` fragments committed by a
//! Merkle root and sends each party its fragments. Parties acknowledge
//! verified fragments; once acknowledgements carry enough weight the blob
//! is durably dispersed, and parties exchange fragments to reconstruct.
//!
//! * **Nominal instantiation**: `m = n`, `k = t + 1`, acknowledgement
//!   quorum `2t + 1` (with `n = 3t + 1`).
//! * **Weighted instantiation (the paper's contribution)**: solve Weight
//!   Qualification with `beta_w = f_w = 1/3` and any `beta_n < beta_w`;
//!   use `(k, m) = (ceil(beta_n * T), T)` coding where `T` is the ticket
//!   total, give party `i` its `t_i` fragments, and wait for
//!   acknowledgements of weight `> 2 f_w`. Any such quorum contains honest
//!   weight `> f_w = beta_w`, whose tickets exceed `beta_n * T >= k` by the
//!   WQ guarantee — reconstruction always succeeds. Resilience is
//!   preserved: `f_w = f_n = 1/3`.
//!
//! The price is the code rate `beta_n` instead of `f_w` — the paper's
//! `x1.33` communication and `x3.56` computation worst case for
//! `(beta_w, beta_n) = (1/3, 1/4)`.

use std::collections::{HashMap, HashSet};

use swiper_core::{EpochEvent, Ratio, StableId, TicketAssignment, VirtualUsers, Weights};
use swiper_crypto::hash::Digest;
use swiper_crypto::{MerkleProof, MerkleTree};
use swiper_erasure::shards::{decode_bytes, encode_bytes, Shard};
use swiper_net::{Context, MessageSize, NodeId, Protocol};

use crate::quorum::{Electorate, QuorumSet};

/// The sentinel output when the dealer provably misencoded.
pub const BOT: &[u8] = b"<AVID-BOT>";

/// A fragment with its Merkle inclusion proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenShard {
    /// The fragment.
    pub shard: Shard,
    /// Inclusion proof against the dispersal root.
    pub proof: MerkleProof,
}

impl ProvenShard {
    fn verify(&self, root: &Digest) -> bool {
        self.proof.verify(root, &self.shard.data, self.shard.index as usize)
    }

    fn size(&self) -> usize {
        self.shard.data.len() + 4 + 32 * self.proof.len()
    }
}

/// AVID protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AvidMsg {
    /// Dealer hands a party its fragments.
    Disperse {
        /// Merkle root over all `m` fragments.
        root: Digest,
        /// This party's fragments with proofs.
        shards: Vec<ProvenShard>,
    },
    /// A party acknowledges verified storage of its fragments.
    Stored {
        /// The dispersal being acknowledged.
        root: Digest,
    },
    /// Retrieval: a party shares its stored fragments.
    Fragments {
        /// The dispersal being retrieved.
        root: Digest,
        /// The sharing party's fragments with proofs.
        shards: Vec<ProvenShard>,
    },
}

impl MessageSize for AvidMsg {
    fn size_bytes(&self) -> usize {
        match self {
            AvidMsg::Disperse { shards, .. } | AvidMsg::Fragments { shards, .. } => {
                33 + shards.iter().map(ProvenShard::size).sum::<usize>()
            }
            AvidMsg::Stored { .. } => 33,
        }
    }
}

/// Shared instance configuration.
#[derive(Debug, Clone)]
pub struct AvidConfig {
    weights: Weights,
    mapping: VirtualUsers,
    k: usize,
    m: usize,
}

impl AvidConfig {
    /// Nominal configuration: `m = n` fragments, one per party,
    /// `k = t + 1` with `t = floor((n - 1) / 3)`.
    pub fn nominal(n: usize) -> Self {
        let t = (n.saturating_sub(1)) / 3;
        let weights = Weights::new(vec![1; n]).expect("n > 0");
        let tickets = TicketAssignment::new(vec![1; n]);
        let mapping = VirtualUsers::from_assignment(&tickets).expect("small");
        AvidConfig { weights, mapping, k: t + 1, m: n }
    }

    /// Weighted configuration from a Weight Qualification solution with
    /// ticket-side threshold `beta_n`: `(k, m) = (ceil(beta_n * T), T)`.
    ///
    /// # Panics
    ///
    /// Panics if the ticket total is zero.
    pub fn weighted(weights: Weights, tickets: &TicketAssignment, beta_n: Ratio) -> Self {
        let mapping = VirtualUsers::from_assignment(tickets).expect("ticket total fits memory");
        let total = mapping.total();
        assert!(total > 0, "ticket assignment must allocate tickets");
        let k_num = beta_n.num() * total as u128;
        let k = usize::try_from(k_num.div_ceil(beta_n.den())).expect("fits").max(1);
        AvidConfig { weights, mapping, k, m: total }
    }

    /// Reconstruction threshold `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Fragment count `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    fn shards_of(&self, party: usize, all: &[Shard], tree: &MerkleTree) -> Vec<ProvenShard> {
        self.mapping
            .virtuals_of(party)
            .map(|v| ProvenShard { shard: all[v].clone(), proof: tree.proof(v) })
            .collect()
    }
}

/// State common to dealer and non-dealer parties.
pub struct AvidNode {
    config: AvidConfig,
    dealer: NodeId,
    /// Blob to disperse (dealer only).
    input: Option<Vec<u8>>,
    my_shards: Vec<ProvenShard>,
    my_root: Option<Digest>,
    acked: bool,
    /// Ack quorums **keyed by root**: `Stored` votes for different
    /// dispersals must never pool. An equivocating dealer shows each half
    /// of the network an internally consistent dispersal under a
    /// different root; with a single unkeyed quorum the mixed acks would
    /// complete *both* halves and honest parties could retrieve
    /// different blobs. Per-root counting restores the quorum
    /// intersection argument: only a root acked by weight `> 2 f_w` —
    /// which contains honest weight `> f_w`, enough fragments to decode
    /// exactly one blob — ever enters retrieval.
    acks: QuorumSet<Digest>,
    /// Roots whose ack quorum has completed (retrieval started).
    completed: HashSet<Digest>,
    collected: HashMap<Digest, HashMap<u32, Shard>>,
    delivered: bool,
}

impl AvidNode {
    /// A non-dealer party.
    pub fn new(config: AvidConfig, dealer: NodeId) -> Self {
        // > 2 f_w = 2/3 of weight (nominal: > 2n/3 parties = 2t+1).
        let acks =
            QuorumSet::new(Electorate::Weighted(config.weights.clone()), |_| Ratio::of(2, 3));
        AvidNode {
            config,
            dealer,
            input: None,
            my_shards: Vec::new(),
            my_root: None,
            acked: false,
            acks,
            completed: HashSet::new(),
            collected: HashMap::new(),
            delivered: false,
        }
    }

    /// The dealer with its blob.
    pub fn dealer(config: AvidConfig, dealer: NodeId, blob: Vec<u8>) -> Self {
        let mut node = Self::new(config, dealer);
        node.input = Some(blob);
        node
    }

    fn try_deliver(&mut self, root: Digest, ctx: &mut Context<AvidMsg>) {
        if self.delivered {
            return;
        }
        let Some(shards) = self.collected.get(&root) else { return };
        if shards.len() < self.config.k {
            return;
        }
        let list: Vec<Shard> = shards.values().cloned().collect();
        let Ok(data) = decode_bytes(&list, self.config.k, self.config.m) else {
            return;
        };
        // Dealer-consistency check: re-encode and compare the Merkle root.
        // If the committed fragment vector is a codeword this recovers it
        // exactly and every honest party agrees on `data`; otherwise every
        // honest party fails this check and outputs BOT.
        let reencoded = match encode_bytes(&data, self.config.k, self.config.m) {
            Ok(s) => s,
            Err(_) => return,
        };
        let leaves: Vec<&[u8]> = reencoded.iter().map(|s| s.data.as_slice()).collect();
        let tree = MerkleTree::build(&leaves);
        self.delivered = true;
        if tree.root() == root {
            ctx.output(data);
        } else {
            // The BOT path too: totality still depends on this node's
            // fragment relay, so the halt below stays duty-gated.
            ctx.output(BOT.to_vec());
        }
        self.maybe_halt(ctx);
    }

    /// `root`'s ack quorum is reached — by an ack, or by an epoch boundary
    /// moving stake onto recorded ackers: start its retrieval, once, by
    /// sharing the fragments stored for *this* root (none when this party
    /// acked a different one).
    fn crossed(&mut self, root: Digest, ctx: &mut Context<AvidMsg>) {
        if !self.completed.insert(root) {
            return;
        }
        let shards =
            if self.my_root == Some(root) { self.my_shards.clone() } else { Vec::new() };
        ctx.broadcast(AvidMsg::Fragments { root, shards });
        self.maybe_halt(ctx);
    }

    /// Halt-before-duty guard (same class as the ECBC seed-15 bug): a
    /// party can decode from fragments others relayed *before* it has
    /// acknowledged its own bundle or shared its own fragments — e.g. when
    /// a Byzantine peer feeds fragments to it alone. Halting at that point
    /// drops the pending `Disperse`/`Stored` deliveries, so this party's
    /// acknowledgement never counts toward anyone's quorum and its
    /// fragments are never relayed — starving slower parties below the
    /// reconstruction threshold `k`. Exit only once both dispersal-echo
    /// duties (ack, fragment relay for the acked root) are done.
    fn maybe_halt(&mut self, ctx: &mut Context<AvidMsg>) {
        let relayed = self.my_root.as_ref().is_some_and(|r| self.completed.contains(r));
        if self.delivered && self.acked && relayed {
            ctx.halt();
        }
    }
}

impl Protocol for AvidNode {
    type Msg = AvidMsg;

    fn on_start(&mut self, ctx: &mut Context<AvidMsg>) {
        if let Some(blob) = self.input.clone() {
            let shards =
                encode_bytes(&blob, self.config.k, self.config.m).expect("valid parameters");
            let leaves: Vec<&[u8]> = shards.iter().map(|s| s.data.as_slice()).collect();
            let tree = MerkleTree::build(&leaves);
            let root = tree.root();
            for party in 0..ctx.n() {
                let bundle = self.config.shards_of(party, &shards, &tree);
                ctx.send(party, AvidMsg::Disperse { root, shards: bundle });
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: AvidMsg, ctx: &mut Context<AvidMsg>) {
        match msg {
            AvidMsg::Disperse { root, shards } => {
                if from != self.dealer || self.acked {
                    return;
                }
                let expected: Vec<usize> = self.config.mapping.virtuals_of(ctx.me()).collect();
                let indices: Vec<usize> =
                    shards.iter().map(|ps| ps.shard.index as usize).collect();
                if indices != expected || !shards.iter().all(|ps| ps.verify(&root)) {
                    return; // bad dealer bundle: never acknowledge
                }
                self.my_shards = shards;
                self.my_root = Some(root);
                self.acked = true;
                ctx.broadcast(AvidMsg::Stored { root });
                if self.completed.contains(&root) {
                    // This root's ack quorum passed while our bundle was
                    // still in flight, so the retrieval broadcast went out
                    // without our fragments — relay them now.
                    ctx.broadcast(AvidMsg::Fragments { root, shards: self.my_shards.clone() });
                }
                self.maybe_halt(ctx);
            }
            AvidMsg::Stored { root } => {
                // Per-root vote: acks for different dispersals never pool
                // (see `acks`).
                if self.acks.vote(root, StableId::solo(from)) {
                    self.crossed(root, ctx);
                }
            }
            AvidMsg::Fragments { root, shards } => {
                let entry = self.collected.entry(root).or_default();
                for ps in shards {
                    if ps.verify(&root) {
                        entry.entry(ps.shard.index).or_insert(ps.shard);
                    }
                }
                self.try_deliver(root, ctx);
            }
        }
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<AvidMsg>) {
        // Per the stable-identity contract, the dispersal itself is
        // epoch-pinned: fragment indices and ownership are fixed by the
        // minting epoch's `(k, m)` code (re-deriving them mid-flight would
        // orphan already-dealt fragments), and epoch-crossing deployments
        // start *new* dispersals under the new assignment, as the SMR
        // pipeline does when its WQ tickets move. Stake is NOT pinned:
        // the ack quorum is a weighted tally and re-derives under the
        // event's weight vector — acks are kept, their weight is current.
        // A reweigh can also COMPLETE a pending ack quorum (stake grew
        // onto recorded ackers), and parties ack exactly once — run the
        // retrieval transition here, in root order so replays stay
        // deterministic.
        for root in self.acks.on_epoch(event) {
            self.crossed(root, ctx);
        }
    }
}

/// A Byzantine dealer that corrupts one party's fragment *after* building
/// the Merkle tree over the corrupted vector — internally consistent proofs
/// over a non-codeword, the classic AVID attack.
pub struct MisencodingDealer {
    config: AvidConfig,
    blob: Vec<u8>,
}

impl MisencodingDealer {
    /// Creates the attacker.
    pub fn new(config: AvidConfig, blob: Vec<u8>) -> Self {
        MisencodingDealer { config, blob }
    }
}

impl Protocol for MisencodingDealer {
    type Msg = AvidMsg;

    fn on_start(&mut self, ctx: &mut Context<AvidMsg>) {
        let mut shards =
            encode_bytes(&self.blob, self.config.k, self.config.m).expect("valid parameters");
        // Corrupt the last fragment, then commit to the corrupted vector.
        if let Some(last) = shards.last_mut() {
            if let Some(b) = last.data.first_mut() {
                *b ^= 0xFF;
            }
        }
        let leaves: Vec<&[u8]> = shards.iter().map(|s| s.data.as_slice()).collect();
        let tree = MerkleTree::build(&leaves);
        let root = tree.root();
        for party in 0..ctx.n() {
            let bundle = self.config.shards_of(party, &shards, &tree);
            ctx.send(party, AvidMsg::Disperse { root, shards: bundle });
        }
    }

    fn on_message(&mut self, _from: NodeId, _msg: AvidMsg, _ctx: &mut Context<AvidMsg>) {}
}

/// A Byzantine party that acknowledges honestly but relays its fragments
/// to a single *target* party immediately — skipping the ack-quorum wait
/// and leaving everyone else without them. The target can then reach the
/// reconstruction threshold `k` before its own dispersal-echo duties are
/// done, which is exactly the schedule that exposes halt-before-duty bugs
/// in the retrieval phase.
pub struct TargetedFragmentSender {
    dealer: NodeId,
    target: NodeId,
}

impl TargetedFragmentSender {
    /// Creates the attacker aiming its fragments at `target`.
    pub fn new(dealer: NodeId, target: NodeId) -> Self {
        TargetedFragmentSender { dealer, target }
    }
}

impl Protocol for TargetedFragmentSender {
    type Msg = AvidMsg;

    fn on_start(&mut self, _ctx: &mut Context<AvidMsg>) {}

    fn on_message(&mut self, from: NodeId, msg: AvidMsg, ctx: &mut Context<AvidMsg>) {
        if let AvidMsg::Disperse { root, shards } = msg {
            if from != self.dealer {
                return;
            }
            ctx.broadcast(AvidMsg::Stored { root });
            ctx.send(self.target, AvidMsg::Fragments { root, shards });
        }
    }
}

#[cfg(test)]
#[allow(clippy::vec_init_then_push)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use swiper_core::{Swiper, WeightQualification};
    use swiper_net::adversary::Silent;
    use swiper_net::{DelayModel, Simulation};

    fn run_nominal(n: usize, blob: &[u8], silent: usize, seed: u64) -> swiper_net::RunReport {
        let config = AvidConfig::nominal(n);
        let mut nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> = Vec::new();
        nodes.push(Box::new(AvidNode::dealer(config.clone(), 0, blob.to_vec())));
        for i in 1..n {
            if i > n - 1 - silent {
                nodes.push(Box::new(Silent::new()));
            } else {
                nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
            }
        }
        Simulation::new(nodes, seed).run()
    }

    #[test]
    fn nominal_honest_dealer_delivers() {
        let blob = b"erasure-coded broadcast pays off for big blobs";
        let report = run_nominal(4, blob, 0, 5);
        for (i, out) in report.outputs.iter().enumerate() {
            assert_eq!(out.as_deref(), Some(blob.as_ref()), "node {i}");
        }
    }

    #[test]
    fn nominal_tolerates_t_silent() {
        let blob = b"resilient";
        let report = run_nominal(7, blob, 2, 11);
        for i in 0..5 {
            assert_eq!(report.outputs[i].as_deref(), Some(blob.as_ref()), "node {i}");
        }
    }

    #[test]
    fn misencoding_dealer_yields_agreement_on_bot() {
        for seed in [1u64, 2, 3] {
            let config = AvidConfig::nominal(4);
            let mut nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> = Vec::new();
            nodes.push(Box::new(MisencodingDealer::new(config.clone(), b"evil".to_vec())));
            for _ in 1..4 {
                nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
            }
            let report = Simulation::new(nodes, seed).run();
            // All honest nodes that output agree, and none outputs a
            // non-BOT forged value other than the... decode of the
            // corrupted codeword. The consistency check forces BOT.
            for i in 1..4 {
                if let Some(out) = &report.outputs[i] {
                    assert_eq!(out.as_slice(), BOT, "node {i} seed {seed}");
                }
            }
            assert!(report.agreement_among(&[1, 2, 3]));
        }
    }

    /// Regression for the halt-before-duty bug in the retrieval phase:
    /// the victim (party 1, 2 fragments) can hit `k = 3` from the
    /// dealer's 2 fragments plus the Byzantine's targeted 1 before its
    /// own ack/relay duties are done. Pre-fix it halted there, its 2
    /// fragments were never relayed, and the spectator (party 2, zero
    /// fragments of its own) was starved below `k` forever — as was the
    /// dealer. Post-fix every honest party delivers on every schedule.
    #[test]
    fn early_decoder_still_relays_its_fragments() {
        let weights = Weights::new(vec![25, 25, 25, 25]).unwrap();
        let tickets = TicketAssignment::new(vec![2, 2, 0, 1]);
        let config = AvidConfig::weighted(weights, &tickets, Ratio::of(1, 2));
        assert_eq!(config.k(), 3);
        let blob = b"halt only after the dispersal-echo duty".to_vec();
        for seed in 0..60 {
            for delay in [DelayModel::Uniform(1, 24), DelayModel::Uniform(1, 64)] {
                let mut nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> = Vec::new();
                nodes.push(Box::new(AvidNode::dealer(config.clone(), 0, blob.clone())));
                nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
                nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
                nodes.push(Box::new(TargetedFragmentSender::new(0, 1)));
                let report = Simulation::new(nodes, seed).with_delay(delay).run();
                for i in 0..3 {
                    assert_eq!(
                        report.outputs[i].as_deref(),
                        Some(blob.as_slice()),
                        "party {i} starved at seed {seed} {delay:?}"
                    );
                }
            }
        }
    }

    /// Zoo regression (`EquivocatingDealer`): the dealer builds two
    /// internally consistent dispersals — different blobs, different
    /// Merkle roots — and shows each to half the network. The defense
    /// under test is the **per-root ack quorum**: `Stored` votes for
    /// different roots must never pool. Reverted to a single unkeyed
    /// quorum, the mixed acks complete *both* halves, each half's
    /// fragments enter retrieval, and on many schedules the lone A-half
    /// party decodes blob A while the B-half decodes blob B — a safety
    /// violation. With the defense, at most one root ever clears its
    /// quorum and every honest party that outputs agrees.
    #[test]
    fn equivocating_dealer_cannot_split_honest_outputs() {
        use swiper_net::adversary::EquivocatingDealer;
        // n = 7, t = 2, k = 3, ack quorum 5: each half of the split holds
        // k fragments of its own root, so if both halves' retrievals ever
        // start, the halves decode different blobs. Only the per-root
        // quorum prevents that: neither root can collect 5 same-root acks
        // (the A-half has at most 4 voters, the B-half at most 4 counting
        // the dealer), so with the defense no retrieval begins at all.
        for seed in 0..50u64 {
            for delay in [DelayModel::Uniform(1, 24), DelayModel::BiasAgainstLowIds(1, 40)] {
                let config = AvidConfig::nominal(7);
                assert_eq!(config.k(), 3);
                let a = AvidNode::dealer(config.clone(), 0, b"blob-A".to_vec());
                let b = AvidNode::dealer(config.clone(), 0, b"blob-B".to_vec());
                let mut nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> =
                    vec![Box::new(EquivocatingDealer::new(a, b, 4))];
                for _ in 1..7 {
                    nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
                }
                let report = Simulation::new(nodes, seed).with_delay(delay).run();
                assert!(
                    report.agreement_among(&[1, 2, 3, 4, 5, 6]),
                    "equivocating dealer split honest outputs at seed {seed} {delay:?}: {:?}",
                    report.outputs
                );
            }
        }
    }

    /// Zoo regression (`AdaptiveDelay`): a network adversary that
    /// recognizes the victim's dispersal bundle on the wire (by its
    /// leading fragment index) and delays it until long after the ack
    /// quorum completed. The victim's 4 fragments are load-bearing
    /// (`k = 4`, everyone else holds 3 combined), so the defense under
    /// test is the **late-relay branch** of the `Disperse` handler: a
    /// party whose bundle arrives after retrieval began must still relay
    /// its fragments. Revert that branch and every party — the victim
    /// included — starves below `k` forever, on every seed.
    #[test]
    fn delayed_dispersal_still_relays_fragments_late() {
        use swiper_net::AdaptiveDelay;
        fn is_victim_bundle(m: &AvidMsg) -> bool {
            matches!(m, AvidMsg::Disperse { shards, .. }
                if shards.first().is_some_and(|ps| ps.shard.index == 1))
        }
        let weights = Weights::new(vec![30, 4, 33, 33]).unwrap();
        let tickets = TicketAssignment::new(vec![1, 4, 1, 1]);
        let config = AvidConfig::weighted(weights, &tickets, Ratio::of(1, 2));
        assert_eq!(config.k(), 4, "victim fragments must be load-bearing");
        let blob = b"the victim's fragments are load-bearing".to_vec();
        for seed in 0..25u64 {
            let adaptive =
                AdaptiveDelay::new(DelayModel::Uniform(1, 16)).rule(is_victim_bundle, 400);
            let nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> = vec![
                Box::new(AvidNode::dealer(config.clone(), 0, blob.clone())),
                Box::new(AvidNode::new(config.clone(), 0)),
                Box::new(AvidNode::new(config.clone(), 0)),
                Box::new(AvidNode::new(config.clone(), 0)),
            ];
            let report = Simulation::new(nodes, seed).with_adaptive_delay(adaptive).run();
            for (i, out) in report.outputs.iter().enumerate() {
                assert_eq!(
                    out.as_deref(),
                    Some(blob.as_slice()),
                    "party {i} starved at seed {seed} despite the late relay"
                );
            }
        }
    }

    #[test]
    fn weighted_avid_end_to_end() {
        // Weights -> WQ -> tickets -> weighted AVID, per Section 5.1.
        let weights = Weights::new(vec![40, 25, 20, 10, 5]).unwrap();
        let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
        let sol = Swiper::new().solve_qualification(&weights, &wq).unwrap();
        let config = AvidConfig::weighted(weights, &sol.assignment, Ratio::of(1, 4));
        let blob = b"weighted dispersal with WQ-sized fragments".to_vec();
        let mut nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> = Vec::new();
        nodes.push(Box::new(AvidNode::dealer(config.clone(), 0, blob.clone())));
        for _ in 1..5 {
            nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
        }
        let report = Simulation::new(nodes, 17).run();
        for (i, out) in report.outputs.iter().enumerate() {
            assert_eq!(out.as_deref(), Some(blob.as_slice()), "party {i}");
        }
    }

    #[test]
    fn weighted_avid_tolerates_heavy_silent_minority() {
        let weights = Weights::new(vec![40, 30, 15, 15]).unwrap();
        let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
        let sol = Swiper::new().solve_qualification(&weights, &wq).unwrap();
        let config = AvidConfig::weighted(weights, &sol.assignment, Ratio::of(1, 4));
        let blob = b"survives 30% silent weight".to_vec();
        let mut nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> = Vec::new();
        nodes.push(Box::new(AvidNode::dealer(config.clone(), 0, blob.clone())));
        nodes.push(Box::new(Silent::new())); // party 1: 30% of weight
        nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
        nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
        let report = Simulation::new(nodes, 23).run();
        for i in [0usize, 2, 3] {
            assert_eq!(report.outputs[i].as_deref(), Some(blob.as_slice()), "party {i}");
        }
    }

    #[test]
    fn avid_beats_bracha_on_bytes() {
        // The whole point of IDA: per-party communication ~ |M|/k, not
        // |M|. Bracha votes on digests and ships the payload once per
        // receiver, so what is left to beat is the sender's upload: the
        // AVID dealer's dispersal plus its own fragment relay, ~2n/k *
        // |M|, against the Bracha sender's n * |M| (n = 13, k = 5).
        let blob = vec![0xCD; 20_000];
        let n = 13;
        let avid = run_nominal(n, &blob, 0, 3);

        let config = crate::bracha::BrachaConfig::nominal(n);
        let mut nodes: Vec<Box<dyn Protocol<Msg = crate::bracha::BrachaMsg>>> = Vec::new();
        nodes.push(Box::new(crate::bracha::BrachaNode::sender(
            config.clone(),
            0,
            blob.clone(),
        )));
        for _ in 1..n {
            nodes.push(Box::new(crate::bracha::BrachaNode::new(config.clone(), 0)));
        }
        let bracha = Simulation::new(nodes, 3).run();
        assert!(
            avid.metrics.bytes_sent_by(0) * 2 < bracha.metrics.bytes_sent_by(0),
            "AVID dealer {} vs Bracha sender {}",
            avid.metrics.bytes_sent_by(0),
            bracha.metrics.bytes_sent_by(0)
        );
    }

    /// `(tag, sent from on_reconfigure, to, msg)` in execution order.
    type Tape = Rc<RefCell<Vec<(usize, bool, NodeId, AvidMsg)>>>;

    /// Runs an [`AvidNode`] unchanged and records its sends (AVID sets no
    /// timers, so none are forwarded).
    struct Tap {
        inner: AvidNode,
        tag: usize,
        tape: Tape,
    }

    impl Tap {
        fn run(
            &mut self,
            ctx: &mut Context<AvidMsg>,
            at_boundary: bool,
            call: impl FnOnce(&mut AvidNode, &mut Context<AvidMsg>),
        ) {
            let mut inner = Context::detached(ctx.me(), ctx.n(), ctx.now());
            call(&mut self.inner, &mut inner);
            let effects = inner.into_effects();
            for (to, msg) in effects.outbox {
                self.tape.borrow_mut().push((self.tag, at_boundary, to, msg.clone()));
                ctx.send(to, msg);
            }
            if let Some(out) = effects.output {
                ctx.output(out);
            }
            if effects.halted {
                ctx.halt();
            }
        }
    }

    impl Protocol for Tap {
        type Msg = AvidMsg;

        fn on_start(&mut self, ctx: &mut Context<AvidMsg>) {
            self.run(ctx, false, |node, ctx| node.on_start(ctx));
        }

        fn on_message(&mut self, from: NodeId, msg: AvidMsg, ctx: &mut Context<AvidMsg>) {
            self.run(ctx, false, |node, ctx| node.on_message(from, msg, ctx));
        }

        fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<AvidMsg>) {
            self.run(ctx, true, |node, ctx| node.on_reconfigure(event, ctx));
        }
    }

    /// A silent whale that keeps the event queue non-empty past the
    /// boundary (reconfigurations fire only between deliveries).
    struct KeepAlive;

    impl Protocol for KeepAlive {
        type Msg = AvidMsg;

        fn on_start(&mut self, ctx: &mut Context<AvidMsg>) {
            ctx.set_timer(400, 0);
            ctx.set_timer(800, 1);
        }

        fn on_message(&mut self, _from: NodeId, _msg: AvidMsg, _ctx: &mut Context<AvidMsg>) {}
    }

    /// The boundary completes the ack quorum: stake moves onto ackers whose
    /// 12 `Stored` votes were all delivered before it (20 of 100 under the
    /// old stake, 95 of 105 under the new). Each acker starts retrieval
    /// right there — one `Fragments` broadcast of its own fragments, and no
    /// other retrieval broadcast in the whole run — and every acker
    /// delivers the blob.
    #[test]
    fn a_drift_boundary_that_completes_the_ack_quorum_starts_retrieval_once() {
        use swiper_core::TicketDelta;
        let weights = Weights::new(vec![80, 10, 5, 5]).unwrap();
        let tickets = TicketAssignment::new(vec![1; 4]);
        let delta = TicketDelta::between(&tickets, &tickets).unwrap();
        let next = Weights::new(vec![10, 40, 30, 25]).unwrap();
        let event = EpochEvent::new(1, delta, &weights, next, 0).unwrap();
        let config = AvidConfig::weighted(weights, &tickets, Ratio::of(1, 2));
        let blob = b"growth completes the ack quorum".to_vec();
        let shards = encode_bytes(&blob, config.k(), config.m()).unwrap();
        let leaves: Vec<&[u8]> = shards.iter().map(|s| s.data.as_slice()).collect();
        let tree = MerkleTree::build(&leaves);
        let root = tree.root();
        for seed in 0..25u64 {
            for delay in [DelayModel::Uniform(1, 16), DelayModel::Uniform(1, 48)] {
                let tape = Tape::default();
                let mut nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> =
                    vec![Box::new(KeepAlive)];
                for tag in 1..4 {
                    let inner = if tag == 1 {
                        AvidNode::dealer(config.clone(), 1, blob.clone())
                    } else {
                        AvidNode::new(config.clone(), 1)
                    };
                    nodes.push(Box::new(Tap { inner, tag, tape: tape.clone() }));
                }
                // 4 `Disperse` + 12 `Stored` deliveries, then only the timers.
                let report = Simulation::new(nodes, seed)
                    .with_delay(delay)
                    .with_reconfiguration(16, event.clone())
                    .run();
                assert_eq!(report.reconfigurations, 1, "seed {seed} {delay:?}");
                for tag in 1..4 {
                    let own = config.shards_of(tag, &shards, &tree);
                    let expect: Vec<_> = (0..4)
                        .map(|to| {
                            (tag, true, to, AvidMsg::Fragments { root, shards: own.clone() })
                        })
                        .collect();
                    let retrievals: Vec<_> = tape
                        .borrow()
                        .iter()
                        .filter(|(by, _, _, m)| {
                            *by == tag && matches!(m, AvidMsg::Fragments { .. })
                        })
                        .cloned()
                        .collect();
                    assert_eq!(retrievals, expect, "node {tag} seed {seed} {delay:?}");
                    assert_eq!(report.outputs[tag].as_deref(), Some(blob.as_slice()));
                }
            }
        }
    }

    #[test]
    fn weighted_k_matches_formula() {
        let weights = Weights::new(vec![5, 5, 5]).unwrap();
        let tickets = TicketAssignment::new(vec![2, 2, 2]);
        let config = AvidConfig::weighted(weights, &tickets, Ratio::of(1, 4));
        // ceil(6/4) = 2.
        assert_eq!(config.k(), 2);
        assert_eq!(config.m(), 6);
    }
}
