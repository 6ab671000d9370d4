//! Asynchronous binary Byzantine agreement with a weighted common coin.
//!
//! A Mostéfaoui–Moumen–Raynal-style signature-free binary agreement
//! (BV-broadcast + AUX + common coin), converted to the weighted model the
//! way the paper prescribes for "Validated Asynchronous Byzantine
//! Agreement" (Section 6.2 and Table 1):
//!
//! * every quorum becomes a **weighted** quorum (weighted voting, §1.2):
//!   BV relay at weight `> f_w`, `bin_values` insertion and AUX collection
//!   at weight `> 2 f_w`, with `f_w = f_n = 1/3`;
//! * the **common coin** is the only part that needs weight reduction: WR
//!   with `alpha_w := f_w = 1/3`, `alpha_n := 1/2` deals threshold-signature
//!   key shares to virtual users (Section 4.1), and the unique combined
//!   signature of the round tag hashes into the coin.
//!
//! Termination uses the standard decide-amplification gadget: a party that
//! decides broadcasts `Decided(v)`; weight `> f_w` of `Decided(v)` lets
//! anyone adopt `v`, and weight `> 2 f_w` lets a party halt.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swiper_core::{EpochEvent, Ratio, StableId, TicketAssignment, VirtualUsers, Weights};
use swiper_crypto::thresh::{KeyShare, PartialSignature, PublicKey, ThresholdScheme};
use swiper_net::{Context, MessageSize, NodeId, Protocol};

use crate::quorum::{Electorate, IdentityView, QuorumSet, Roster};

/// ABA protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbaMsg {
    /// BV-broadcast of a binary estimate.
    BVal {
        /// Round number.
        round: u32,
        /// The broadcast value.
        value: bool,
    },
    /// Second-phase auxiliary value.
    Aux {
        /// Round number.
        round: u32,
        /// The chosen `bin_values` element.
        value: bool,
    },
    /// Threshold-signature shares for the round's coin.
    CoinShare {
        /// Round number.
        round: u32,
        /// Partial signatures from the sender's key shares.
        partials: Vec<PartialSignature>,
    },
    /// Decision announcement (termination gadget).
    Decided {
        /// The decided value.
        value: bool,
    },
}

impl MessageSize for AbaMsg {
    fn size_bytes(&self) -> usize {
        match self {
            AbaMsg::BVal { .. } | AbaMsg::Aux { .. } => 5,
            AbaMsg::CoinShare { partials, .. } => 4 + partials.len() * 16,
            AbaMsg::Decided { .. } => 1,
        }
    }
}

/// Shared setup: weights for quorums plus the dealt coin keys.
///
/// # The coin carry/re-deal rule
///
/// Coin keys are dealt to the **virtual users of a ticket assignment**,
/// and share indices are fixed points of the threshold scheme — so the
/// keys are pinned to their dealing epoch's assignment. Across an
/// [`EpochEvent`] boundary ([`AbaSetup::on_epoch`]) the rule mirrors the
/// SMR composition's beacon split:
///
/// * **carry** — when the event's delta leaves the backing tickets
///   unchanged, the dealt keys remain exactly right and nothing happens;
/// * **re-deal** — when the tickets moved, every replica *reshares* the
///   group secret deterministically from `event.rekey_seed()` folded with
///   the new assignment's fingerprint: fresh shares for the new
///   population (old partials stop verifying), same group key. Keeping
///   the secret keeps the unique combined signature of every round tag,
///   so a round whose coin was combined before the boundary and one
///   combined after it see the **same coin value** — re-dealing can never
///   fork an in-flight round's randomness.
#[derive(Debug, Clone)]
pub struct AbaSetup {
    weights: Weights,
    /// The assignment the coin keys are currently dealt to.
    tickets: TicketAssignment,
    scheme: ThresholdScheme,
    pk: PublicKey,
    shares: Vec<Vec<KeyShare>>,
    /// Domain-separation tag so concurrent instances draw distinct coins.
    instance: u64,
    /// Identity regime: [`IdentityView::Party`] for fixed party sets (the
    /// default), [`IdentityView::Virtual`] for a nominal instance hosted
    /// over a black-box roster whose population renumbers across epochs.
    view: IdentityView,
}

impl AbaSetup {
    /// Deals an instance: weighted quorums over `weights`, coin keys dealt
    /// to the WR ticket assignment (use `WR(1/3, 1/2)` tickets).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != tickets.len()` or no tickets were
    /// allocated.
    pub fn deal<R: Rng + ?Sized>(
        weights: Weights,
        tickets: &TicketAssignment,
        instance: u64,
        rng: &mut R,
    ) -> Self {
        assert_eq!(weights.len(), tickets.len(), "weights/tickets mismatch");
        let mapping = VirtualUsers::from_assignment(tickets).expect("fits memory");
        let total = mapping.total();
        assert!(total > 0, "coin needs at least one ticket");
        // Strict majority of tickets: unreachable below 1/2, held by the
        // honest (> 1/2 by WR with alpha_n = 1/2).
        let threshold = total / 2 + 1;
        let scheme = ThresholdScheme::new(threshold, total).expect("threshold <= total");
        let (pk, all_shares) = scheme.keygen(rng);
        let shares = (0..mapping.parties())
            .map(|p| mapping.virtuals_of(p).map(|v| all_shares[v]).collect())
            .collect();
        AbaSetup {
            weights,
            tickets: tickets.clone(),
            scheme,
            pk,
            shares,
            instance,
            view: IdentityView::Party,
        }
    }

    /// Nominal instance: equal weights, one coin share per party.
    pub fn nominal<R: Rng + ?Sized>(n: usize, instance: u64, rng: &mut R) -> Self {
        let weights = Weights::new(vec![1; n]).expect("n > 0");
        let tickets = TicketAssignment::new(vec![1; n]);
        Self::deal(weights, &tickets, instance, rng)
    }

    /// Installs the epoch-aware identity regime for a *nominal* instance
    /// hosted over a black-box [`Roster`]: quorums become count-based over
    /// the roster's current population, votes are keyed by stable
    /// `(party, offset)` identity, and [`Protocol::on_reconfigure`]
    /// migrates them across renumbering deltas. Coin keys follow the
    /// carry/re-deal rule (see the type docs): an epoch whose delta moves
    /// the hosting tickets re-deals them deterministically over the new
    /// population from the event's rekey seed; an epoch that does not
    /// carries them untouched. (Under the retired ticket-only contract
    /// the keys stayed pinned to the dealing epoch forever — a shrinking
    /// delta could strand the coin below its own threshold, and a growing
    /// one left joiners shareless.)
    #[must_use]
    pub fn with_roster(mut self, roster: Roster) -> Self {
        self.view = IdentityView::Virtual(roster);
        self
    }

    /// Splices an [`EpochEvent`] into the setup, applying the coin
    /// carry/re-deal rule (see the type docs). Returns `Some(rekeyed)` —
    /// callers must, on a re-deal, drop buffered partials of un-combined
    /// rounds (they no longer verify) and re-release their own shares —
    /// or `None` when the event does not address this setup (a party-
    /// regime delta that does not chain from the dealt tickets): the
    /// setup is then left **wholly** untouched, stake included, and the
    /// caller should ignore the event too rather than half-apply it.
    ///
    /// In the roster regime the hosting [`Roster`] must already hold the
    /// new epoch (the black-box wrapper splices it before propagating the
    /// event, and validates the event against its own mapping).
    pub fn on_epoch(&mut self, event: &EpochEvent) -> Option<bool> {
        match self.view.roster().cloned() {
            // Party regime: chain the delta from our dealt tickets; only
            // an event that does chain is allowed to touch anything.
            None => match event.delta().apply_to(&self.tickets) {
                Err(_) => None,
                Ok(next) => {
                    let _ = event.refresh_weights(&mut self.weights);
                    if next != self.tickets {
                        self.redeal(next, event);
                        Some(true)
                    } else {
                        Some(false)
                    }
                }
            },
            // Roster regime: the wrapper already spliced the mapping. The
            // hosted nominal instance treats each virtual user as a
            // one-ticket party, so shares re-deal over the roster's new
            // *population*; the seed folds the real per-party assignment,
            // which is what the epoch actually changed. Every changed
            // epoch reshares unconditionally: ticket-vector equality is
            // NOT a proxy for key currency — a factory-cloned joiner
            // still holds the construction generation, and an epoch chain
            // that revisits the dealing assignment would otherwise let it
            // carry those stale keys while survivors hold a reshared
            // generation. Resharing is idempotent across catch-up depths
            // (same secret, same base, same event-derived polynomial), so
            // the unconditional reshare is what makes joiners and
            // survivors converge bit-identically.
            Some(roster) => {
                if event.delta().is_unchanged() {
                    return Some(false);
                }
                let per_party: Vec<u64> =
                    (0..roster.parties()).map(|p| roster.tickets_of(p)).collect();
                self.redeal(TicketAssignment::new(per_party), event);
                Some(true)
            }
        }
    }

    /// Deterministically reshares the coin keys for the new epoch: same
    /// group secret (straddling rounds keep their coin value), fresh
    /// shares for the new population, identical on every replica. In the
    /// party regime shares distribute over `tickets`' virtual users; in
    /// the roster regime every virtual user of the new population is its
    /// own one-share holder (the nominal hosting shape).
    fn redeal(&mut self, tickets: TicketAssignment, event: &EpochEvent) {
        let seed = event.fold_rekey(tickets.fingerprint()) ^ self.instance;
        let deal_over = match self.view.roster() {
            None => tickets.clone(),
            Some(roster) => TicketAssignment::new(vec![1; roster.total()]),
        };
        let mapping = VirtualUsers::from_assignment(&deal_over).expect("fits memory");
        let total = mapping.total();
        assert!(total > 0, "coin needs at least one ticket");
        let new_scheme =
            ThresholdScheme::new(total / 2 + 1, total).expect("threshold <= total");
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<KeyShare> = self.shares.iter().flatten().copied().collect();
        let (pk, all) = new_scheme
            .reshare(&self.scheme, &self.pk, &flat, &mut rng)
            .expect("the dealt generation holds a recovery quorum");
        self.shares = (0..mapping.parties())
            .map(|p| mapping.virtuals_of(p).map(|v| all[v]).collect())
            .collect();
        self.scheme = new_scheme;
        self.pk = pk;
        self.tickets = tickets;
        // In the roster-hosted nominal regime the weight vector is the
        // (unused) equal-weight one over the old population; keep it in
        // step so `weights.len()` matches the new share table.
        if self.view.roster().is_some() {
            self.weights = Weights::new(vec![1; total]).expect("total > 0");
        }
    }

    fn coin_tag(&self, round: u32) -> Vec<u8> {
        let mut tag = b"swiper.aba.coin.".to_vec();
        tag.extend_from_slice(&self.instance.to_le_bytes());
        tag.extend_from_slice(&round.to_le_bytes());
        tag
    }

    /// Who votes in this instance's quorums: the roster's current virtual
    /// users (roster regime), or the parties weighted by stake.
    fn electorate(&self) -> Electorate {
        match self.view.roster() {
            None => Electorate::Weighted(self.weights.clone()),
            Some(roster) => Electorate::Roster(roster.clone()),
        }
    }

    /// One voter's contribution to a weighted tally (unit in the
    /// roster-hosted nominal regime, the party's stake otherwise).
    fn weight_of(&self, voter: StableId) -> u128 {
        match self.view.roster() {
            None => u128::from(self.weights.get(voter.party_ix())),
            Some(_) => 1,
        }
    }

    /// The weighted tally's denominator (current population or stake
    /// total).
    fn weight_total(&self) -> u128 {
        match self.view.roster() {
            None => self.weights.total(),
            Some(roster) => roster.total() as u128,
        }
    }
}

/// What an ABA quorum counts toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tally {
    /// `BVal(v)` in a round at weight `> 2 f_w`: `v` enters `bin_values`.
    Bin(u32, bool),
    /// `BVal(v)` in a round at weight `> f_w`: relay it.
    Relay(u32, bool),
    /// `Decided(v)` at weight `> f_w`: adopt `v`.
    Adopt(bool),
    /// `Decided(v)` at weight `> 2 f_w`: halt on `v`.
    Halt(bool),
}

impl Tally {
    fn threshold(&self) -> Ratio {
        match self {
            Tally::Relay(..) | Tally::Adopt(_) => Ratio::of(1, 3),
            Tally::Bin(..) | Tally::Halt(_) => Ratio::of(2, 3),
        }
    }
}

/// Per-round state.
#[derive(Default)]
struct RoundState {
    bval_sent: [bool; 2],
    bin: [bool; 2],
    aux_sent: bool,
    /// The AUX value this node broadcast (`Some` iff `aux_sent`), kept so
    /// the epochal form can re-send it to joiners spawned mid-flight.
    aux_value: Option<bool>,
    /// First AUX value per stable voter identity.
    aux_of: HashMap<StableId, bool>,
    coin_sent: bool,
    coin_seen: std::collections::HashSet<u64>,
    coin_partials: Vec<PartialSignature>,
    coin: Option<bool>,
    /// `vals` snapshot (as a {false, true} membership pair) taken when the
    /// AUX quorum first completed.
    vals: Option<[bool; 2]>,
}

/// One agreement party.
pub struct AbaNode {
    setup: AbaSetup,
    est: bool,
    round: u32,
    rounds: HashMap<u32, RoundState>,
    decided: Option<bool>,
    decided_sent: bool,
    /// The BVal tallies of every round and the `Decided` tallies.
    quorums: QuorumSet<Tally>,
    /// Rounds completed before this node moved on (expected O(1)).
    pub rounds_run: u32,
}

impl AbaNode {
    /// A party with binary input `input`.
    pub fn new(setup: AbaSetup, input: bool) -> Self {
        let quorums = QuorumSet::new(setup.electorate(), Tally::threshold);
        AbaNode {
            setup,
            est: input,
            round: 0,
            rounds: HashMap::new(),
            decided: None,
            decided_sent: false,
            quorums,
            rounds_run: 0,
        }
    }

    /// The value this node decided, if any (for post-run inspection).
    pub fn decision(&self) -> Option<bool> {
        self.decided
    }

    fn state(&mut self, round: u32) -> &mut RoundState {
        self.rounds.entry(round).or_default()
    }

    fn send_bval(&mut self, round: u32, value: bool, ctx: &mut Context<AbaMsg>) {
        let st = self.state(round);
        if !st.bval_sent[value as usize] {
            st.bval_sent[value as usize] = true;
            ctx.broadcast(AbaMsg::BVal { round, value });
        }
    }

    /// Drives the current round forward as far as buffered state allows.
    fn progress(&mut self, ctx: &mut Context<AbaMsg>) {
        loop {
            let round = self.round;
            // Phase 2: broadcast AUX once bin_values is non-empty.
            let (bin, aux_sent) = {
                let st = self.state(round);
                (st.bin, st.aux_sent)
            };
            if !aux_sent && (bin[0] || bin[1]) {
                // Prefer the current estimate when both are binding.
                let v = if bin[self.est as usize] { self.est } else { bin[1] };
                let st = self.state(round);
                st.aux_sent = true;
                st.aux_value = Some(v);
                ctx.broadcast(AbaMsg::Aux { round, value: v });
            }
            // Phase 3: once AUX weight > 2 f_w with values in bin_values,
            // snapshot `vals` and release the coin shares.
            self.try_snapshot_vals(round);
            let need_coin = {
                let st = self.state(round);
                st.vals.is_some() && !st.coin_sent
            };
            if need_coin {
                let partials: Vec<PartialSignature> = {
                    let tag = self.setup.coin_tag(round);
                    self.setup.shares[ctx.me()]
                        .iter()
                        .map(|s| self.setup.scheme.partial_sign(s, &tag))
                        .collect()
                };
                let st = self.state(round);
                st.coin_sent = true;
                ctx.broadcast(AbaMsg::CoinShare { round, partials });
            }
            // Phase 4: decide / adopt with the coin.
            self.try_combine_coin(round);
            let (vals, coin) = {
                let st = self.state(round);
                (st.vals, st.coin)
            };
            let (Some(vals), Some(coin)) = (vals, coin) else { return };
            self.rounds_run += 1;
            if vals[0] != vals[1] {
                // Singleton vals = {v}.
                let v = vals[1]; // vals[1] set <=> v = true
                self.est = v;
                if v == coin && self.decided.is_none() {
                    self.decide(v, ctx);
                }
            } else {
                // Both values seen: adopt the coin.
                self.est = coin;
            }
            self.round += 1;
            let (next, est) = (self.round, self.est);
            self.send_bval(next, est, ctx);
            // Loop: buffered messages may already complete the next round.
        }
    }

    fn try_snapshot_vals(&mut self, round: u32) {
        let Some(st) = self.rounds.get(&round) else { return };
        if st.vals.is_some() || !st.aux_sent {
            return;
        }
        // Weight of AUX senders whose value is currently in bin_values.
        let mut vals = [false; 2];
        let mut weight: u128 = 0;
        for (&voter, &v) in &st.aux_of {
            if st.bin[v as usize] {
                weight += self.setup.weight_of(voter);
                vals[v as usize] = true;
            }
        }
        if weight * 3 > 2 * self.setup.weight_total() {
            self.rounds.get_mut(&round).expect("checked above").vals = Some(vals);
        }
    }

    fn try_combine_coin(&mut self, round: u32) {
        let tag = self.setup.coin_tag(round);
        let scheme = self.setup.scheme.clone();
        let pk = self.setup.pk.clone();
        let st = self.state(round);
        if st.coin.is_some() || st.coin_partials.len() < scheme.threshold() {
            return;
        }
        if let Ok(sig) = scheme.combine(&st.coin_partials) {
            if scheme.verify(&pk, &tag, &sig) {
                st.coin = Some(sig.beacon_output().to_u64() & 1 == 1);
            }
        }
    }

    fn decide(&mut self, value: bool, ctx: &mut Context<AbaMsg>) {
        if self.decided.is_none() {
            self.decided = Some(value);
            ctx.output(vec![value as u8]);
        }
        if !self.decided_sent {
            self.decided_sent = true;
            ctx.broadcast(AbaMsg::Decided { value });
        }
    }

    /// The quorum on `tally` is reached — by a vote, or by an epoch
    /// boundary moving stake or roster under kept votes. Returns whether
    /// the node halted.
    fn crossed(&mut self, tally: Tally, ctx: &mut Context<AbaMsg>) -> bool {
        match tally {
            Tally::Bin(round, value) => self.state(round).bin[value as usize] = true,
            Tally::Relay(round, value) => self.send_bval(round, value, ctx),
            Tally::Adopt(value) => {
                if self.decided.is_none() {
                    self.decide(value, ctx);
                }
            }
            Tally::Halt(value) => {
                if self.decided == Some(value) {
                    self.decide(value, ctx);
                    ctx.halt();
                    return true;
                }
            }
        }
        false
    }

    /// What this node already said: its BVals and AUX per round, in
    /// ascending round order (the emission order feeds the seeded delay
    /// stream), then its `Decided`.
    fn said(&self) -> Vec<AbaMsg> {
        let mut rounds: Vec<u32> = self.rounds.keys().copied().collect();
        rounds.sort_unstable();
        let mut said = Vec::new();
        for round in rounds {
            let st = &self.rounds[&round];
            for value in [false, true] {
                if st.bval_sent[value as usize] {
                    said.push(AbaMsg::BVal { round, value });
                }
            }
            said.extend(st.aux_value.map(|value| AbaMsg::Aux { round, value }));
        }
        let decided = self.decided.filter(|_| self.decided_sent);
        said.extend(decided.map(|value| AbaMsg::Decided { value }));
        said
    }
}

impl Protocol for AbaNode {
    type Msg = AbaMsg;

    fn on_start(&mut self, ctx: &mut Context<AbaMsg>) {
        let (round, est) = (self.round, self.est);
        self.send_bval(round, est, ctx);
        self.progress(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: AbaMsg, ctx: &mut Context<AbaMsg>) {
        let voter = self.setup.view.stable_of(from);
        match msg {
            AbaMsg::BVal { round, value } => {
                for tally in [Tally::Relay(round, value), Tally::Bin(round, value)] {
                    if self.quorums.vote(tally, voter) {
                        self.crossed(tally, ctx);
                    }
                }
            }
            AbaMsg::Aux { round, value } => {
                self.state(round).aux_of.entry(voter).or_insert(value);
            }
            AbaMsg::CoinShare { round, partials } => {
                let tag = self.setup.coin_tag(round);
                let scheme = self.setup.scheme.clone();
                let pk = self.setup.pk.clone();
                let st = self.state(round);
                for p in partials {
                    if scheme.verify_partial(&pk, &tag, &p) && st.coin_seen.insert(p.index) {
                        st.coin_partials.push(p);
                    }
                }
            }
            AbaMsg::Decided { value } => {
                for tally in [Tally::Adopt(value), Tally::Halt(value)] {
                    if self.quorums.vote(tally, voter) && self.crossed(tally, ctx) {
                        return;
                    }
                }
            }
        }
        self.progress(ctx);
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<AbaMsg>) {
        // Coin keys first: carry when the backing tickets are unchanged,
        // deterministic same-secret re-deal when they moved (see
        // `AbaSetup::on_epoch`). After a re-deal, buffered partials of
        // un-combined rounds no longer verify and our own shares must go
        // out again under the new generation; already-combined coins keep
        // their value (the group secret survives resharing), so no round
        // can see two different coins.
        let Some(rekeyed) = self.setup.on_epoch(event) else {
            // A mis-addressed event (its delta does not chain from this
            // instance's dealt tickets) is ignored wholesale — reweighing
            // trackers under weights the setup never adopted would be the
            // half-applied state the contract forbids.
            return;
        };
        if rekeyed {
            for st in self.rounds.values_mut() {
                if st.coin.is_none() {
                    st.coin_partials.clear();
                    st.coin_seen.clear();
                    st.coin_sent = false;
                }
            }
        }
        let crossed = self.quorums.on_epoch(event);
        if let Some(roster) = self.setup.view.roster() {
            // AUX claims are first-vote maps, not trackers: retired
            // voters' claims are shed here.
            for st in self.rounds.values_mut() {
                st.aux_of.retain(|id, _| roster.contains(*id));
            }
        }
        // Joiners missed every pre-boundary message, and with enough of
        // them the quorums over the grown population are unreachable
        // without their votes, while this node, having spoken once, would
        // never speak again: re-send what it said to them, and only to
        // them. Stable-keyed trackers and first-vote-wins maps make any
        // duplicate a no-op.
        let joiners = self.setup.view.joiners(event);
        if !joiners.is_empty() {
            for msg in self.said() {
                for &to in &joiners {
                    ctx.send(to, msg.clone());
                }
            }
        }
        // A quorum the boundary completed fires as a vote would have
        // fired it; `progress` covers the bin/AUX/coin chain.
        for tally in crossed {
            if self.crossed(tally, ctx) {
                return;
            }
        }
        self.progress(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use swiper_core::{Swiper, WeightRestriction};
    use swiper_net::adversary::Silent;
    use swiper_net::{DelayModel, Simulation};

    fn run_nominal(
        n: usize,
        inputs: &[bool],
        silent: usize,
        seed: u64,
    ) -> swiper_net::RunReport {
        let setup = AbaSetup::nominal(n, seed, &mut StdRng::seed_from_u64(seed));
        let mut nodes: Vec<Box<dyn Protocol<Msg = AbaMsg>>> = Vec::new();
        for i in 0..n {
            if i >= n - silent {
                nodes.push(Box::new(Silent::new()));
            } else {
                nodes.push(Box::new(AbaNode::new(setup.clone(), inputs[i % inputs.len()])));
            }
        }
        Simulation::new(nodes, seed).run()
    }

    fn decisions(report: &swiper_net::RunReport, honest: usize) -> Vec<u8> {
        (0..honest)
            .map(|i| {
                report.outputs[i].as_ref().unwrap_or_else(|| panic!("node {i} never decided"))
                    [0]
            })
            .collect()
    }

    #[test]
    fn unanimous_input_decides_that_value() {
        for seed in [1u64, 2, 3] {
            let report = run_nominal(4, &[true], 0, seed);
            let d = decisions(&report, 4);
            assert!(d.iter().all(|&v| v == 1), "validity violated, seed {seed}");
        }
        for seed in [4u64, 5] {
            let report = run_nominal(4, &[false], 0, seed);
            let d = decisions(&report, 4);
            assert!(d.iter().all(|&v| v == 0), "validity violated, seed {seed}");
        }
    }

    #[test]
    fn mixed_inputs_still_agree() {
        for seed in [7u64, 8, 9, 10] {
            let report = run_nominal(4, &[true, false, true, false], 0, seed);
            let d = decisions(&report, 4);
            assert!(
                d.windows(2).all(|w| w[0] == w[1]),
                "agreement violated, seed {seed}: {d:?}"
            );
        }
    }

    #[test]
    fn tolerates_t_silent_parties() {
        // n = 7, t = 2 silent.
        for seed in [11u64, 12] {
            let report = run_nominal(7, &[true, false], 2, seed);
            let d = decisions(&report, 5);
            assert!(d.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {d:?}");
        }
    }

    #[test]
    fn adversarial_delays_do_not_break_agreement() {
        let setup = AbaSetup::nominal(4, 99, &mut StdRng::seed_from_u64(99));
        let inputs = [true, false, false, true];
        let nodes: Vec<Box<dyn Protocol<Msg = AbaMsg>>> =
            inputs.iter().map(|&inp| Box::new(AbaNode::new(setup.clone(), inp)) as _).collect();
        let report =
            Simulation::new(nodes, 99).with_delay(DelayModel::BiasAgainstLowIds(1, 60)).run();
        let d = decisions(&report, 4);
        assert!(d.windows(2).all(|w| w[0] == w[1]), "{d:?}");
    }

    #[test]
    fn weighted_aba_end_to_end() {
        // The paper's §6.2 composition: weighted voting + WR(1/3, 1/2)
        // tickets for the coin, f_w = f_n = 1/3.
        let weights = Weights::new(vec![40, 25, 15, 10, 10]).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        for seed in [21u64, 22] {
            let setup = AbaSetup::deal(
                weights.clone(),
                &sol.assignment,
                seed,
                &mut StdRng::seed_from_u64(seed),
            );
            let inputs = [true, false, true, false, true];
            let nodes: Vec<Box<dyn Protocol<Msg = AbaMsg>>> = inputs
                .iter()
                .map(|&inp| Box::new(AbaNode::new(setup.clone(), inp)) as _)
                .collect();
            let report = Simulation::new(nodes, seed).run();
            let d = decisions(&report, 5);
            assert!(d.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {d:?}");
        }
    }

    #[test]
    fn weighted_aba_tolerates_silent_weight() {
        // Silent parties hold 30% (< 1/3) of the weight.
        let weights = Weights::new(vec![30, 25, 20, 15, 10]).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        let setup =
            AbaSetup::deal(weights, &sol.assignment, 31, &mut StdRng::seed_from_u64(31));
        let mut nodes: Vec<Box<dyn Protocol<Msg = AbaMsg>>> = Vec::new();
        nodes.push(Box::new(Silent::new())); // party 0: 30%
        for i in 1..5 {
            nodes.push(Box::new(AbaNode::new(setup.clone(), i % 2 == 0)));
        }
        let report = Simulation::new(nodes, 31).run();
        let d: Vec<u8> =
            (1..5).map(|i| report.outputs[i].as_ref().expect("decided")[0]).collect();
        assert!(d.windows(2).all(|w| w[0] == w[1]), "{d:?}");
    }
}
