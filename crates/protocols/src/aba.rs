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

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rand::Rng;
use swiper_core::{EpochEvent, Ratio, StableId, TicketAssignment, Weights};
use swiper_crypto::thresh::PartialSignature;
use swiper_net::{Context, MessageSize, NodeId, Protocol};

use crate::keys::{majority, Shares, TicketKeys};
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
    keys: TicketKeys,
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
        let keys = TicketKeys::deal(tickets, majority(tickets), rng);
        AbaSetup {
            weights,
            tickets: tickets.clone(),
            keys,
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
    /// sheds retired voters and re-tallies the rest across renumbering
    /// deltas. Coin keys follow the
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
        // The tickets the epoch moves to, and the holders the shares
        // re-deal over.
        let (next, holders) = match self.view.roster() {
            // Party regime: chain the delta from our dealt tickets; only
            // an event that does chain is allowed to touch anything.
            None => {
                let next = event.delta().apply_to(&self.tickets).ok()?;
                let _ = event.refresh_weights(&mut self.weights);
                if next == self.tickets {
                    return Some(false);
                }
                (next.clone(), next)
            }
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
                (roster.assignment(), TicketAssignment::new(vec![1; roster.total()]))
            }
        };
        // Same group secret (straddling rounds keep their coin value),
        // fresh shares for the new population, identical on every replica.
        let seed = event.fold_rekey(next.fingerprint()) ^ self.instance;
        self.keys = self.keys.reshare(&holders, majority(&holders), seed);
        self.tickets = next;
        Some(true)
    }

    /// The coin keys, as the last epoch left them.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> &TicketKeys {
        &self.keys
    }

    fn coin_tag(&self, round: u32) -> Vec<u8> {
        let mut tag = b"swiper.aba.coin.".to_vec();
        tag.extend_from_slice(&self.instance.to_le_bytes());
        tag.extend_from_slice(&round.to_le_bytes());
        tag
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
    /// First `Aux(v)`s in a round at weight `> 2 f_w`: `vals = {v}` may
    /// snapshot while `bin_values = {v}`.
    Aux(u32, bool),
    /// First `Aux`es of either value in a round at weight `> 2 f_w`: `vals`
    /// may snapshot while `bin_values = {0, 1}`.
    AuxAll(u32),
}

impl Tally {
    fn threshold(&self) -> Ratio {
        match self {
            Tally::Relay(..) | Tally::Adopt(_) => Ratio::of(1, 3),
            Tally::Bin(..) | Tally::Halt(_) | Tally::Aux(..) | Tally::AuxAll(_) => {
                Ratio::of(2, 3)
            }
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
    /// First AUX value per stable voter identity: which values `vals`
    /// holds (their weight is tallied under [`Tally::Aux`]).
    aux_of: HashMap<StableId, bool>,
    coin_sent: bool,
    /// The coin partials received under the current keys (`None` before
    /// the first).
    coin_shares: Option<Shares>,
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
        // Who votes: the roster's current virtual users (roster regime), or
        // the parties weighted by stake.
        let electorate = match setup.view.roster() {
            None => Electorate::Weighted(setup.weights.clone()),
            Some(roster) => Electorate::Roster(roster.clone()),
        };
        let quorums = QuorumSet::new(electorate, Tally::threshold);
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
                let partials = self.setup.keys.partials(ctx.me(), &self.setup.coin_tag(round));
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
        let Some(st) = self.rounds.get_mut(&round) else { return };
        if st.vals.is_some() || !st.aux_sent {
            return;
        }
        // The AUX senders whose value is in bin_values weigh > 2 f_w.
        let reached = match st.bin {
            [true, true] => self.quorums.reached(&Tally::AuxAll(round)),
            [false, true] => self.quorums.reached(&Tally::Aux(round, true)),
            [true, false] => self.quorums.reached(&Tally::Aux(round, false)),
            [false, false] => false,
        };
        if reached {
            let mut vals = [false; 2];
            for &v in st.aux_of.values() {
                vals[v as usize] |= st.bin[v as usize];
            }
            st.vals = Some(vals);
        }
    }

    fn try_combine_coin(&mut self, round: u32) {
        let st = self.state(round);
        if st.coin.is_none() {
            let sig = st.coin_shares.as_ref().and_then(Shares::signature);
            st.coin = sig.map(|sig| sig.beacon_output().to_u64() & 1 == 1);
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
            // `progress` reads the AUX quorums when it snapshots `vals`.
            Tally::Aux(..) | Tally::AuxAll(_) => {}
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
                // A voter's first AUX of the round is the one that counts.
                let st = self.rounds.entry(round).or_default();
                if let Entry::Vacant(first) = st.aux_of.entry(voter) {
                    first.insert(value);
                    self.quorums.vote(Tally::Aux(round, value), voter);
                    self.quorums.vote(Tally::AuxAll(round), voter);
                }
            }
            AbaMsg::CoinShare { round, partials } => {
                let setup = &self.setup;
                let st = self.rounds.entry(round).or_default();
                let shares =
                    st.coin_shares.get_or_insert_with(|| Shares::new(setup.coin_tag(round)));
                shares.add(&setup.keys, partials);
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
            // instance's dealt tickets) is ignored wholesale — re-tallying
            // the quorums under weights the setup never adopted would be
            // the half-applied state the contract forbids.
            return;
        };
        if rekeyed {
            for st in self.rounds.values_mut() {
                if st.coin.is_none() {
                    st.coin_shares = None;
                    st.coin_sent = false;
                }
            }
        }
        let crossed = self.quorums.on_epoch(event);
        if let Some(roster) = self.setup.view.roster() {
            // The set shed retired voters' AUX weight; their claims on
            // `vals` are shed here.
            for st in self.rounds.values_mut() {
                st.aux_of.retain(|id, _| roster.contains(*id));
            }
        }
        // Joiners missed every pre-boundary message, and with enough of
        // them the quorums over the grown population are unreachable
        // without their votes, while this node, having spoken once, would
        // never speak again: re-send what it said to them, and only to
        // them. Stable-keyed quorum sets and first-vote-wins maps make
        // any duplicate a no-op.
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
