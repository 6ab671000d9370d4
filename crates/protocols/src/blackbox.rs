//! The black-box transformation (paper Section 4.4).
//!
//! Given **any** nominal protocol `P` designed for `T` participants with
//! resilience `f_n`, and a Weight Restriction solution with
//! `alpha_w := f_w`, `alpha_n := f_n` (`f_w = f_n - epsilon`), the weighted
//! protocol `P'` simply runs `P` over `T` *virtual users*, party `i`
//! controlling `t_i` of them:
//!
//! * messages between virtual users of the same party short-circuit
//!   in-process; cross-party messages are wrapped and routed to the owner;
//! * party `i` outputs the value output by its first virtual identity;
//! * parties with `t_i = 0` cannot run virtual users — they wait for
//!   parties of total weight `> f_w * W` *vouching* for the same output
//!   (at least one voucher is honest, so the adopted output is correct).
//!
//! Because corrupt weight `< f_w * W` maps to `< f_n * T` virtual users,
//! `P`'s guarantees carry over verbatim. The transformation needs no
//! knowledge of `P`'s internals — the wrapper below is generic over any
//! [`swiper_net::Protocol`] implementation.
//!
//! # The stable identity model
//!
//! Dense virtual ids are a **per-epoch artifact**: a [`TicketDelta`](swiper_core::TicketDelta) that
//! touches party `i` renumbers every virtual user after `i`'s range. The
//! wire therefore never carries dense ids. Inner messages name their
//! endpoints by [`StableId`] — `(party, offset)` — the coordinate that
//! survives every reshuffle a surviving user can live through, and each
//! replica resolves stable ids to its *current* dense numbering exactly
//! once, at delivery, through a shared [`Roster`]:
//!
//! * **spoofing** is checked on the face of the id — the wire sender must
//!   *be* the claimed identity's party — with no historical state;
//! * a stable id that does not resolve (`offset` at or beyond the party's
//!   current ticket count) belongs to a **retired** user — whether the
//!   message was minted an epoch or ten epochs ago — and is dropped;
//! * pending **timers** record the stable id of their setter and die with
//!   it on retirement.
//!
//! This replaces the per-epoch translation tables of the dense-id design:
//! there is no mapping history to retain (the documented unbounded-memory
//! leak of delta-only reconfiguration is gone — translation state is one
//! mapping plus the pending-timer table, independent of how many epochs
//! the instance has crossed), and one logical voter can never be counted
//! under both its pre- and post-epoch ids, because no component ever sees
//! two ids for it.
//!
//! # Live-instance epoch reconfiguration
//!
//! [`Protocol::on_reconfigure`] splices a delta into the live instance:
//!
//! * the shared [`Roster`] is updated in place
//!   ([`swiper_core::VirtualUsers::apply_delta`]) — the wrapper *and*
//!   every hosted automaton holding a roster clone see the new epoch
//!   atomically;
//! * **surviving** sub-instances (offsets below the owner's new ticket
//!   count) keep their state — no re-keying is even needed, their
//!   identity is the key;
//! * **retired** sub-instances are dropped along with their pending
//!   timers;
//! * surviving automata then receive the `EpochEvent` themselves, so
//!   epoch-aware nominal protocols (e.g.
//!   [`crate::bracha::BrachaConfig::epochal`]) hand it to their
//!   [`QuorumSet`], which sheds retired voters, takes the new
//!   population as its base and re-tallies every key — and protocols
//!   holding epoch-pinned keys (e.g.
//!   [`crate::aba::AbaSetup::with_roster`]) apply their
//!   carry/re-deal rule from the event's rekey seed;
//! * **added** sub-instances are spawned mid-flight via the stored
//!   factory; they begin at `on_start` and may rely on the vouching path
//!   to learn an output that was decided before they joined.
//!
//! What a nominal protocol `P` may assume across the boundary: its own
//! accumulated state survives, messages keep flowing, and any identity it
//! keyed by `(party, offset)` still means the same logical peer. What it
//! may **not** assume: that the total `T` or any *dense* index is stable.
//! Protocols that bake dense indices into cryptographic material (dealt
//! shares, fragment positions) survive exactly the deltas that keep those
//! positions meaningful; the epoch-crossing seed sweeps exercise both the
//! friendly and the hostile case.
//!
//! # Cross-epoch stake refresh
//!
//! Reconfiguration arrives as an [`EpochEvent`] — the delta *plus the new
//! per-party weight vector* — so the wrapper is weight-bearing end to
//! end: the **vouch quorum tallies with current-epoch stake**. At every
//! boundary each accumulated vouch tally is re-derived under the event's
//! weight vector ([`crate::quorum::QuorumSet::on_epoch`]): votes are kept,
//! per-party weights and the threshold base re-derive, so a whale whose stake
//! collapsed mid-vouch stops propping up an almost-complete quorum (the
//! pending tally is *revoked*) and stale stake can never push a forged
//! output across a current-epoch threshold. Outputs already adopted are
//! irreversible — the guarantee is that no quorum *crosses* a threshold
//! except under the stake of the epoch it crosses in. The former
//! limitation of the ticket-only contract — "the vouch quorum keeps
//! weighing votes with the construction-time weight vector; rebuild the
//! wrapper to refresh it" — is gone: a long-lived wrapped instance is
//! correct and live under both renumbering *and* stake drift, which the
//! mixed-churn sweeps assert with weights actually refreshed each epoch.

use std::collections::{HashMap, VecDeque};

use swiper_core::{EpochEvent, Ratio, StableId, TicketAssignment, VirtualUsers, Weights};
use swiper_net::{Context, Effects, MessageSize, NodeId, Protocol};

use crate::quorum::{Electorate, QuorumSet, Roster};

/// The virtual-user factory a [`BlackBox`] retains for mid-flight spawns:
/// `factory(v, roster)` builds the automaton for dense id `v` under the
/// spawn-time numbering, with the wrapper's live identity directory.
pub type VirtualFactory<P> = Box<dyn FnMut(usize, &Roster) -> P>;

/// Wrapper messages of the transformed protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlackBoxMsg<M> {
    /// A nominal-protocol message between two virtual users, named by
    /// their epoch-stable identities.
    Inner {
        /// Sending virtual user.
        from: StableId,
        /// Receiving virtual user.
        to: StableId,
        /// The wrapped nominal message.
        msg: M,
    },
    /// Output voucher for zero-ticket parties.
    Vouch {
        /// The vouched output.
        output: Vec<u8>,
    },
}

impl<M: MessageSize> MessageSize for BlackBoxMsg<M> {
    fn size_bytes(&self) -> usize {
        match self {
            BlackBoxMsg::Inner { msg, .. } => 16 + msg.size_bytes(),
            BlackBoxMsg::Vouch { output } => output.len(),
        }
    }
}

/// Shared transformation parameters.
#[derive(Debug, Clone)]
pub struct BlackBoxConfig {
    weights: Weights,
    mapping: VirtualUsers,
    f_w: Ratio,
}

impl BlackBoxConfig {
    /// Builds the configuration from the weighted system and its WR ticket
    /// assignment (`alpha_w = f_w`, `alpha_n = f_n`).
    ///
    /// # Panics
    ///
    /// Panics on weight/ticket length mismatch or an empty assignment.
    pub fn new(weights: Weights, tickets: &TicketAssignment, f_w: Ratio) -> Self {
        assert_eq!(weights.len(), tickets.len(), "weights/tickets mismatch");
        let mapping = VirtualUsers::from_assignment(tickets).expect("fits memory");
        assert!(mapping.total() > 0, "at least one virtual user required");
        BlackBoxConfig { weights, mapping, f_w }
    }

    /// Number of virtual users `T` (construction epoch).
    pub fn virtual_count(&self) -> usize {
        self.mapping.total()
    }

    /// The virtual-user mapping (construction epoch; live instances track
    /// the current epoch through their [`BlackBox::roster`]).
    pub fn mapping(&self) -> &VirtualUsers {
        &self.mapping
    }
}

/// The transformed node: party `i` running its `t_i` virtual users of `P`.
pub struct BlackBox<P: Protocol> {
    party: usize,
    /// This replica's identity directory: the current epoch's mapping,
    /// shared with every hosted automaton built through the factory.
    roster: Roster,
    /// Epochs crossed so far (telemetry only — nothing on the wire or in
    /// the translation path depends on it).
    epoch: u64,
    /// Factory for spawning virtual users, kept for mid-flight joins.
    factory: VirtualFactory<P>,
    /// My virtual users: `(stable identity, automaton, halted)`.
    virtuals: Vec<(StableId, P, bool)>,
    /// Pending timers: nonce -> (setter's stable id, inner timer id).
    timer_map: HashMap<u64, (StableId, u64)>,
    timer_nonce: u64,
    /// Vouch tallies per output: weight `> f_w` adopts it.
    vouches: QuorumSet<Vec<u8>>,
    output_done: bool,
    started: bool,
}

impl<P: Protocol> BlackBox<P> {
    /// Creates party `party`'s wrapper; `factory(v, roster)` builds the
    /// automaton for virtual user `v` (it will see `n = T` and `me = v`
    /// under the numbering current at spawn time). The roster is this
    /// replica's live identity directory — epoch-aware nominal protocols
    /// capture a clone of it so their quorum sets resolve identities and
    /// shed retired voters in lockstep with the wrapper. The factory is retained:
    /// epoch reconfigurations use it to spawn virtual users added
    /// mid-flight.
    pub fn new<F>(config: BlackBoxConfig, party: usize, mut factory: F) -> Self
    where
        F: FnMut(usize, &Roster) -> P + 'static,
    {
        let BlackBoxConfig { weights, mapping, f_w } = config;
        let roster = Roster::new(mapping.clone());
        let virtuals = mapping
            .virtuals_of(party)
            .map(|v| (mapping.stable_of(v), factory(v, &roster), false))
            .collect();
        BlackBox {
            party,
            roster,
            epoch: 0,
            factory: Box::new(factory),
            virtuals,
            timer_map: HashMap::new(),
            timer_nonce: 0,
            vouches: QuorumSet::new(Electorate::Weighted(weights), move |_| f_w),
            output_done: false,
            started: false,
        }
    }

    /// Epochs crossed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The live identity directory (current epoch's mapping).
    pub fn roster(&self) -> &Roster {
        &self.roster
    }

    /// Size of the cross-epoch translation state: the pending-timer table
    /// plus the hosted automata roster. The stable-identity design keeps
    /// exactly **one** mapping however many epochs the instance crosses —
    /// this is the bounded-memory claim the long-replay regression pins
    /// (the dense-id design retained one full mapping per crossed epoch).
    pub fn translation_footprint(&self) -> usize {
        self.timer_map.len() + self.virtuals.len() + 1
    }

    /// Weight `> f_w` vouches for `output` — by a vouch, or by an epoch
    /// boundary moving stake onto recorded vouchers. At least one voucher
    /// is honest, so adopt it unless this party already output.
    fn vouched(&mut self, output: Vec<u8>, ctx: &mut Context<BlackBoxMsg<P::Msg>>) {
        if !self.output_done {
            self.output_done = true;
            ctx.output(output);
        }
    }

    /// Routes one batch of inner effects, draining same-party deliveries
    /// in-process until quiescent. Local queue entries carry the current
    /// dense ids of both ends (delivery is always same-epoch in-process).
    fn route(
        &mut self,
        initial: Vec<(StableId, Effects<P::Msg>)>,
        ctx: &mut Context<BlackBoxMsg<P::Msg>>,
    ) {
        let mut local: VecDeque<(usize, StableId, P::Msg)> = VecDeque::new();
        let mut pending: Vec<(StableId, Effects<P::Msg>)> = initial;
        loop {
            for (from, effects) in pending.drain(..) {
                self.apply_effects(from, effects, &mut local, ctx);
            }
            let Some((from_dense, to, msg)) = local.pop_front() else { break };
            let total = self.roster.total();
            if let Some(slot) =
                self.virtuals.iter_mut().find(|(id, _, halted)| *id == to && !halted)
            {
                let Some(to_dense) = self.roster.dense_of(to) else { continue };
                let mut inner_ctx = Context::detached(to_dense, total, ctx.now());
                slot.1.on_message(from_dense, msg, &mut inner_ctx);
                pending.push((to, inner_ctx.into_effects()));
            }
        }
    }

    fn apply_effects(
        &mut self,
        from: StableId,
        effects: Effects<P::Msg>,
        local: &mut VecDeque<(usize, StableId, P::Msg)>,
        ctx: &mut Context<BlackBoxMsg<P::Msg>>,
    ) {
        let Effects { outbox, timers, output, halted } = effects;
        let Some(from_dense) = self.roster.dense_of(from) else {
            // A user can emit effects and retire within one boundary
            // batch; its late effects die with it.
            return;
        };
        for (to_v, msg) in outbox {
            // A surviving automaton may still address a dense peer id that
            // only existed before a shrinking delta (its `n` was baked at
            // spawn); such sends are dropped, mirroring the receive-side
            // resolution, never indexed out of bounds.
            if to_v >= self.roster.total() {
                continue;
            }
            let to = self.roster.stable_of(to_v);
            if to.party_ix() == self.party {
                local.push_back((from_dense, to, msg));
            } else {
                ctx.send(to.party_ix(), BlackBoxMsg::Inner { from, to, msg });
            }
        }
        for (delay, id) in timers {
            // Timers survive renumbering for free: the nonce map records
            // the setter's stable identity, and the firing path resolves
            // it (or drops it with the retired user).
            let nonce = self.timer_nonce;
            self.timer_nonce += 1;
            self.timer_map.insert(nonce, (from, id));
            ctx.set_timer(delay, nonce);
        }
        if let Some(out) = output {
            // "Party i outputs the value output by its first virtual
            // identity" — we take the first *producing* virtual user and
            // vouch it towards zero-ticket parties.
            if !self.output_done {
                self.output_done = true;
                ctx.output(out.clone());
                ctx.broadcast(BlackBoxMsg::Vouch { output: out });
            }
        }
        if halted {
            if let Some(slot) = self.virtuals.iter_mut().find(|(id, _, _)| *id == from) {
                slot.2 = true;
            }
        }
    }
}

impl<P: Protocol> Protocol for BlackBox<P> {
    type Msg = BlackBoxMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        self.started = true;
        let total = self.roster.total();
        let mut pending = Vec::new();
        // Collect identities first to satisfy the borrow checker, then
        // start each automaton.
        let ids: Vec<StableId> = self.virtuals.iter().map(|(id, _, _)| *id).collect();
        for id in ids {
            let Some(dense) = self.roster.dense_of(id) else { continue };
            let mut inner_ctx = Context::detached(dense, total, ctx.now());
            if let Some(slot) = self.virtuals.iter_mut().find(|(vid, _, _)| *vid == id) {
                slot.1.on_start(&mut inner_ctx);
            }
            pending.push((id, inner_ctx.into_effects()));
        }
        self.route(pending, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<Self::Msg>) {
        match msg {
            BlackBoxMsg::Inner { from: from_id, to, msg } => {
                // Anti-spoofing on the face of the identity: the wire
                // sender must *be* the claimed sender's party, and we must
                // be the recipient's. No history needed — party ids never
                // renumber.
                if from_id.party_ix() != from || to.party_ix() != self.party {
                    return;
                }
                // Resolve both ends against the current epoch; an end
                // that does not resolve is retired (or never existed) and
                // drops the message, however old or new its minting epoch.
                let (Some(cur_from), Some(to_dense)) =
                    (self.roster.dense_of(from_id), self.roster.dense_of(to))
                else {
                    return;
                };
                let total = self.roster.total();
                let mut pending = Vec::new();
                if let Some(slot) =
                    self.virtuals.iter_mut().find(|(id, _, halted)| *id == to && !halted)
                {
                    let mut inner_ctx = Context::detached(to_dense, total, ctx.now());
                    slot.1.on_message(cur_from, msg, &mut inner_ctx);
                    pending.push((to, inner_ctx.into_effects()));
                }
                self.route(pending, ctx);
            }
            BlackBoxMsg::Vouch { output } => {
                if self.vouches.vote(output.clone(), StableId::solo(from)) {
                    self.vouched(output, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, nonce: u64, ctx: &mut Context<Self::Msg>) {
        let Some((setter, inner_id)) = self.timer_map.remove(&nonce) else { return };
        // A timer set by a since-retired user dies with it.
        if !self.roster.contains(setter) {
            return;
        }
        let total = self.roster.total();
        let mut pending = Vec::new();
        if let Some(slot) =
            self.virtuals.iter_mut().find(|(id, _, halted)| *id == setter && !halted)
        {
            let Some(dense) = self.roster.dense_of(setter) else { return };
            let mut inner_ctx = Context::detached(dense, total, ctx.now());
            slot.1.on_timer(inner_id, &mut inner_ctx);
            pending.push((setter, inner_ctx.into_effects()));
        }
        self.route(pending, ctx);
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<Self::Msg>) {
        let old_count = self.roster.tickets_of(self.party);
        if self.roster.apply_delta(event.delta()).is_err() {
            // An event whose delta was diffed against a different base
            // than the live mapping is a driver bug; the mapping is
            // untouched, so the instance keeps running under the old
            // epoch (weights included — a half-applied event would be
            // worse than a stale one).
            debug_assert!(false, "mis-sequenced EpochEvent reached BlackBox");
            return;
        }
        self.epoch += 1;
        // Stake refresh: the vouch path tallies under this epoch's
        // weights from here on. Pending vouch quorums keep their votes
        // but re-derive every contribution and the threshold base — a
        // collapsed whale's almost-complete quorum is revoked, stale
        // stake never crosses a live threshold. A reweigh can also
        // COMPLETE a pending quorum (stake grew onto already-recorded
        // vouchers, who vouch exactly once): adopt it as a vouch would.
        // Ties across outputs (possible only with Byzantine vouchers) go
        // to the lexicographically first, so every replay agrees.
        for output in self.vouches.on_epoch(event) {
            self.vouched(output, ctx);
        }
        // Retire users whose identity no longer resolves; their pending
        // timers are purged eagerly (the fire path would drop them anyway
        // — this just keeps the footprint tight). Survivors need no
        // re-keying — their stable identity *is* their key.
        let roster = self.roster.clone();
        self.virtuals.retain(|(id, _, _)| roster.contains(*id));
        self.timer_map.retain(|_, (setter, _)| roster.contains(*setter));
        // Propagate the boundary to surviving automata so epoch-aware
        // inner protocols refresh their quorum sets (shed retired voters,
        // re-tally under the new population) and can make immediate
        // progress.
        let total = roster.total();
        let mut pending = Vec::new();
        let ids: Vec<StableId> = self
            .virtuals
            .iter()
            .filter(|(_, _, halted)| !halted)
            .map(|(id, _, _)| *id)
            .collect();
        for id in ids {
            let Some(dense) = roster.dense_of(id) else { continue };
            let mut inner_ctx = Context::detached(dense, total, ctx.now());
            if let Some(slot) = self.virtuals.iter_mut().find(|(vid, _, _)| *vid == id) {
                slot.1.on_reconfigure(event, &mut inner_ctx);
            }
            pending.push((id, inner_ctx.into_effects()));
        }
        // Spawn users added to this party mid-flight. The factory's
        // captured state is *dealing-epoch* state (for instance an
        // `AbaSetup`'s coin key table, sized for the old population), so
        // a joiner receives the event before it starts: it enters the
        // protocol already in the current epoch, holding the same
        // re-dealt material every survivor derived — resharing depends
        // only on the group secret and the event, not on which old
        // generation a replica caught up from.
        let new_count = roster.tickets_of(self.party);
        for offset in old_count..new_count {
            let id = StableId::new(self.party, offset);
            let dense = roster.dense_of(id).expect("offset < new count");
            let mut automaton = (self.factory)(dense, &roster);
            let mut inner_ctx = Context::detached(dense, total, ctx.now());
            automaton.on_reconfigure(event, &mut inner_ctx);
            automaton.on_start(&mut inner_ctx);
            self.virtuals.push((id, automaton, false));
            pending.push((id, inner_ctx.into_effects()));
        }
        self.route(pending, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aba::{AbaMsg, AbaNode, AbaSetup};
    use crate::bracha::{BrachaConfig, BrachaMsg, BrachaNode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use swiper_core::{Swiper, TicketDelta, WeightRestriction};
    use swiper_net::Simulation;

    /// Event whose stake stands still: the identity-plumbing tests
    /// exercise renumbering, not stake drift.
    fn event_of(delta: &TicketDelta, weights: &Weights) -> EpochEvent {
        EpochEvent::new(1, delta.clone(), weights, weights.clone(), 0).unwrap()
    }

    /// WR(f_w = 1/4, f_n = 1/3): the epsilon-loss transformation setup.
    fn config(ws: &[u64]) -> (BlackBoxConfig, TicketAssignment) {
        let weights = Weights::new(ws.to_vec()).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        (BlackBoxConfig::new(weights, &sol.assignment, Ratio::of(1, 4)), sol.assignment)
    }

    #[test]
    fn blackbox_bracha_broadcast_reaches_all_parties() {
        // Nominal Bracha over T virtual users, wrapped for 5 weighted
        // parties. Virtual user 0 is the designated sender.
        let (config, tickets) = config(&[50, 20, 15, 10, 5]);
        let total = config.virtual_count();
        let payload = b"black-box broadcast".to_vec();
        let bracha_cfg = BrachaConfig::nominal(total);
        let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<BrachaMsg>>>> = (0..5)
            .map(|party| {
                let bc = bracha_cfg.clone();
                let payload = payload.clone();
                Box::new(BlackBox::new(config.clone(), party, move |v, _roster| {
                    if v == 0 {
                        BrachaNode::sender(bc.clone(), 0, payload.clone())
                    } else {
                        BrachaNode::new(bc.clone(), 0)
                    }
                })) as _
            })
            .collect();
        let report = Simulation::new(nodes, 3).run();
        let _ = tickets;
        for (i, out) in report.outputs.iter().enumerate() {
            assert_eq!(out.as_deref(), Some(payload.as_slice()), "party {i}");
        }
    }

    #[test]
    fn blackbox_aba_agreement_and_validity() {
        // Nominal (equal-ticket) ABA wrapped into the weighted model.
        let (config, _tickets) = config(&[40, 30, 20, 10]);
        let total = config.virtual_count();
        let setup = AbaSetup::nominal(total, 77, &mut StdRng::seed_from_u64(77));
        // All parties input `true` -> must decide true (validity).
        let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<AbaMsg>>>> = (0..4)
            .map(|party| {
                let s = setup.clone();
                Box::new(BlackBox::new(config.clone(), party, move |_v, _roster| {
                    AbaNode::new(s.clone(), true)
                })) as _
            })
            .collect();
        let report = Simulation::new(nodes, 7).run();
        for (i, out) in report.outputs.iter().enumerate() {
            assert_eq!(out.as_deref(), Some(&[1u8][..]), "party {i}");
        }
    }

    #[test]
    fn blackbox_aba_mixed_inputs_agree() {
        let (config, _) = config(&[40, 30, 20, 10]);
        let total = config.virtual_count();
        for seed in [5u64, 6] {
            let setup = AbaSetup::nominal(total, seed, &mut StdRng::seed_from_u64(seed));
            let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<AbaMsg>>>> = (0..4)
                .map(|party| {
                    let s = setup.clone();
                    let input = party % 2 == 0;
                    Box::new(BlackBox::new(config.clone(), party, move |_v, _roster| {
                        AbaNode::new(s.clone(), input)
                    })) as _
                })
                .collect();
            let report = Simulation::new(nodes, seed).run();
            assert!(report.agreement_among(&[0, 1, 2, 3]), "seed {seed}");
            for i in 0..4 {
                assert!(report.outputs[i].is_some(), "party {i} seed {seed}");
            }
        }
    }

    #[test]
    fn zero_ticket_parties_learn_via_vouchers() {
        // Engineer a distribution where a dust party gets zero tickets.
        let weights = Weights::new(vec![500, 300, 198, 1, 1]).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        let zero_parties: Vec<usize> = (0..5).filter(|&p| sol.assignment.get(p) == 0).collect();
        assert!(!zero_parties.is_empty(), "need a zero-ticket party: {:?}", sol.assignment);
        let config = BlackBoxConfig::new(weights, &sol.assignment, Ratio::of(1, 4));
        let total = config.virtual_count();
        let payload = b"vouched".to_vec();
        let bracha_cfg = BrachaConfig::nominal(total);
        let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<BrachaMsg>>>> = (0..5)
            .map(|party| {
                let bc = bracha_cfg.clone();
                let payload = payload.clone();
                Box::new(BlackBox::new(config.clone(), party, move |v, _roster| {
                    if v == 0 {
                        BrachaNode::sender(bc.clone(), 0, payload.clone())
                    } else {
                        BrachaNode::new(bc.clone(), 0)
                    }
                })) as _
            })
            .collect();
        let report = Simulation::new(nodes, 11).run();
        for &p in &zero_parties {
            assert_eq!(
                report.outputs[p].as_deref(),
                Some(payload.as_slice()),
                "zero-ticket party {p} must learn the output"
            );
        }
    }

    #[test]
    fn spoofed_virtual_senders_are_dropped() {
        // Party 1 claims to speak for stable identities it does not own;
        // the wrapper must ignore those messages entirely — the claimed
        // identity's party is on the face of the id, so no history or
        // epoch bookkeeping is involved.
        struct Spoofer {
            config: BlackBoxConfig,
        }
        impl Protocol for Spoofer {
            type Msg = BlackBoxMsg<BrachaMsg>;
            fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
                // Claim to be virtual user 0 (owned by party 0).
                let mapping = self.config.mapping();
                let forged_from = mapping.stable_of(0);
                assert_ne!(forged_from.party_ix(), 1);
                for to_v in 0..self.config.virtual_count() {
                    let to = mapping.stable_of(to_v);
                    ctx.send(
                        to.party_ix(),
                        BlackBoxMsg::Inner {
                            from: forged_from,
                            to,
                            msg: BrachaMsg::Initial(b"forged".to_vec()),
                        },
                    );
                    // Identities that have never existed (absurd offsets)
                    // must be dropped outright, whatever the claimed
                    // party.
                    ctx.send(
                        to.party_ix(),
                        BlackBoxMsg::Inner {
                            from: StableId::new(1, 900),
                            to,
                            msg: BrachaMsg::Initial(b"forged-ghost".to_vec()),
                        },
                    );
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: Self::Msg, _c: &mut Context<Self::Msg>) {}
        }
        let (config, _) = config(&[50, 20, 15, 10, 5]);
        let total = config.virtual_count();
        let bracha_cfg = BrachaConfig::nominal(total);
        let mut nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<BrachaMsg>>>> = Vec::new();
        for party in 0..5 {
            if party == 1 {
                nodes.push(Box::new(Spoofer { config: config.clone() }));
            } else {
                let bc = bracha_cfg.clone();
                nodes.push(Box::new(BlackBox::new(
                    config.clone(),
                    party,
                    move |_v, _roster| {
                        // No sender at all: nothing should ever be delivered.
                        BrachaNode::new(bc.clone(), 0)
                    },
                )));
            }
        }
        let report = Simulation::new(nodes, 13).run();
        for (i, out) in report.outputs.iter().enumerate() {
            assert!(out.is_none(), "party {i} must not deliver a forged broadcast");
        }
    }

    /// The state-survival witness: each virtual user broadcasts one
    /// `Hello` at start and arms a timer that fires long after the epoch
    /// boundary; on fire it outputs iff it heard from every epoch-0
    /// virtual id. The hellos are never re-sent, and all of them are
    /// delivered *before* the boundary — so any implementation that drops
    /// automaton state (or pending timers) at the epoch crossing can
    /// never output, while one that splices keeps completing.
    struct Accumulator {
        expected: usize,
        heard: std::collections::HashSet<usize>,
    }

    impl Accumulator {
        fn new(expected: usize) -> Self {
            Accumulator { expected, heard: std::collections::HashSet::new() }
        }
    }

    impl Protocol for Accumulator {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(1);
            ctx.set_timer(500, 0);
        }
        fn on_message(&mut self, from: NodeId, _m: u64, _ctx: &mut Context<u64>) {
            self.heard.insert(from);
        }
        fn on_timer(&mut self, _id: u64, ctx: &mut Context<u64>) {
            if self.heard.len() >= self.expected {
                ctx.output(b"done".to_vec());
            }
        }
    }

    #[test]
    fn reconfigure_preserves_surviving_state_and_spawns_joiners() {
        // Epoch 0 tickets [2, 2, 1] -> epoch 1 tickets [2, 1, 2]: party 1
        // retires its offset-1 user, party 2 gains one mid-flight, and
        // every id from party 1 onward is renumbered. Hellos (16 wrapped
        // cross-party messages) all land before the boundary at event 16;
        // the verdict timers all fire after it. All parties completing
        // therefore *proves* the heard-sets and pending timers crossed
        // the epoch intact under the renumbering.
        let weights = Weights::new(vec![40, 40, 20]).unwrap();
        let old = TicketAssignment::new(vec![2, 2, 1]);
        let new = TicketAssignment::new(vec![2, 1, 2]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        let event = event_of(&delta, &weights);
        let total = old.total() as usize;
        for seed in 0..25u64 {
            let config = BlackBoxConfig::new(weights.clone(), &old, Ratio::of(1, 4));
            let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<u64>>>> = (0..3)
                .map(|party| {
                    Box::new(BlackBox::new(config.clone(), party, move |_v, _roster| {
                        Accumulator::new(total)
                    })) as _
                })
                .collect();
            let report =
                Simulation::new(nodes, seed).with_reconfiguration(16, event.clone()).run();
            assert_eq!(report.reconfigurations, 1, "seed {seed}");
            for (i, out) in report.outputs.iter().enumerate() {
                assert_eq!(
                    out.as_deref(),
                    Some(b"done".as_ref()),
                    "party {i} lost state across the epoch at seed {seed}"
                );
            }
        }
    }

    #[test]
    fn bracha_survives_suffix_churn_mid_broadcast() {
        // The broadcast sender is virtual user 0 (party 0); the delta
        // only touches the *last* party, so every stable identity the
        // Bracha instances have pinned stays live while the total ticket
        // count changes under the instance's feet.
        let weights = Weights::new(vec![50, 20, 15, 10, 5]).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        let old = sol.assignment.clone();
        let mut churned: Vec<u64> = (0..old.len()).map(|i| old.get(i)).collect();
        let last = churned.len() - 1;
        churned[last] += 1; // the dust party gains one ticket
        let new = TicketAssignment::new(churned);
        let delta = TicketDelta::between(&old, &new).unwrap();
        let event = event_of(&delta, &weights);
        let payload = b"epoch-crossing broadcast".to_vec();
        for seed in 0..25u64 {
            let config = BlackBoxConfig::new(weights.clone(), &old, Ratio::of(1, 4));
            let sender_id = config.mapping().stable_of(0);
            let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<BrachaMsg>>>> = (0..5)
                .map(|party| {
                    let payload = payload.clone();
                    Box::new(BlackBox::new(config.clone(), party, move |v, roster| {
                        let bc = BrachaConfig::epochal(roster.clone());
                        if roster.stable_of(v) == sender_id {
                            BrachaNode::sender_with_id(bc, sender_id, payload.clone())
                        } else {
                            BrachaNode::with_sender_id(bc, sender_id)
                        }
                    })) as _
                })
                .collect();
            let report =
                Simulation::new(nodes, seed).with_reconfiguration(10, event.clone()).run();
            assert_eq!(report.reconfigurations, 1, "seed {seed}");
            for (i, out) in report.outputs.iter().enumerate() {
                assert_eq!(out.as_deref(), Some(payload.as_slice()), "party {i} seed {seed}");
            }
        }
    }

    #[test]
    fn mis_sequenced_delta_leaves_instance_intact() {
        // A delta diffed against a *different* base must be rejected and
        // the live mapping left untouched (debug_assert fires only in
        // debug builds; release keeps running the old epoch).
        let weights = Weights::new(vec![40, 40, 20]).unwrap();
        let base = TicketAssignment::new(vec![2, 2, 1]);
        let other = TicketAssignment::new(vec![1, 2, 1]);
        let next = TicketAssignment::new(vec![1, 2, 2]);
        let bad_delta = TicketDelta::between(&other, &next).unwrap();
        let bad_event = event_of(&bad_delta, &weights);
        let config = BlackBoxConfig::new(weights, &base, Ratio::of(1, 4));
        let mut bb: BlackBox<Accumulator> =
            BlackBox::new(config, 0, move |_v, _roster| Accumulator::new(5));
        let before = bb.roster().snapshot();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ctx = Context::detached(0, 3, 0);
            bb.on_reconfigure(&bad_event, &mut ctx);
        }));
        // Debug builds assert; if the assertion is compiled out, the
        // mapping must be unchanged and the epoch not advanced.
        if result.is_ok() {
            assert_eq!(bb.roster().snapshot(), before);
            assert_eq!(bb.epoch(), 0);
        }
    }

    /// The bounded-memory regression for the deleted per-epoch mapping
    /// history: a live instance is driven across many reconfigurations —
    /// with pending timers and traffic in flight the whole time — and its
    /// translation footprint must be *independent of the epoch count*.
    /// The dense-id design retained one full `VirtualUsers` per crossed
    /// epoch ("no entry is provably dead"); stable identities need
    /// exactly one mapping, so 4 epochs and 40 must cost the same.
    #[test]
    fn translation_state_is_bounded_across_long_replays() {
        /// Timer-free chatterer: broadcasts once at start (and once per
        /// spawn), keeping traffic minted in every epoch without adding
        /// *pending* state — so the footprint isolates exactly the
        /// translation tables.
        struct Hello;
        impl Protocol for Hello {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(1);
            }
            fn on_message(&mut self, _f: NodeId, _m: u64, _c: &mut Context<u64>) {}
        }

        fn footprint_after(epochs: usize) -> usize {
            let weights = Weights::new(vec![40, 40, 20]).unwrap();
            let base = TicketAssignment::new(vec![2, 2, 1]);
            let flip = TicketAssignment::new(vec![1, 3, 1]);
            let config = BlackBoxConfig::new(weights, &base, Ratio::of(1, 4));
            let mut bb: BlackBox<Hello> = BlackBox::new(config, 0, move |_v, _roster| Hello);
            let mut ctx = Context::detached(0, 3, 0);
            bb.on_start(&mut ctx);
            // Alternate between two assignments so every epoch renumbers
            // live identities (the worst case for translation state).
            let stake = Weights::new(vec![40, 40, 20]).unwrap();
            let (mut cur, mut nxt) = (base, flip);
            for _ in 0..epochs {
                let delta = TicketDelta::between(&cur, &nxt).unwrap();
                let event = event_of(&delta, &stake);
                let mut ctx = Context::detached(0, 3, 0);
                bb.on_reconfigure(&event, &mut ctx);
                std::mem::swap(&mut cur, &mut nxt);
            }
            assert_eq!(bb.epoch(), epochs as u64);
            bb.translation_footprint()
        }
        let short = footprint_after(4);
        let long = footprint_after(40);
        assert_eq!(
            short, long,
            "translation state grew with the epoch count: {short} -> {long}"
        );
    }

    /// Post-boundary duplicates of a pre-boundary message must not be
    /// double-delivered under a new identity: the wire names stable ids,
    /// so a replayed message resolves to the *same* logical endpoints and
    /// inner-protocol dedup (quorum sets, heard-sets) sees one voter.
    /// Counts each distinct *stable* sender exactly once and fails if a
    /// renumbering epoch makes one voter look like two.
    struct Census {
        roster: Roster,
        quorum: QuorumSet<()>,
        expected: usize,
    }

    impl Protocol for Census {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(1);
            ctx.set_timer(900, 0);
        }
        fn on_message(&mut self, from: NodeId, _m: u64, _ctx: &mut Context<u64>) {
            self.quorum.vote((), self.roster.stable_of(from));
        }
        fn on_reconfigure(&mut self, e: &EpochEvent, _ctx: &mut Context<u64>) {
            self.quorum.on_epoch(e);
        }
        fn on_timer(&mut self, _id: u64, ctx: &mut Context<u64>) {
            // Exactly the live population: more means double-counting,
            // fewer means lost survivors.
            let count = self.quorum.tally(&());
            if count == self.expected as u128 {
                ctx.output(b"exact".to_vec());
            } else {
                ctx.output(format!("count={count}").into_bytes());
            }
        }
    }

    #[test]
    fn renumbering_boundary_does_not_double_count_senders() {
        // Epoch 0 [2, 2, 1] -> epoch 1 [1, 2, 2]: party 0 shrinks, so
        // *every* surviving id renumbers; party 2 gains one user that
        // broadcasts fresh hellos post-boundary. Pre-boundary hellos from
        // survivors arrive under the old numbering, the joiner's under the
        // new one — a dense-keyed census would count a renumbered survivor
        // as a new voter (or mistake the joiner for a survivor occupying
        // its old slot). The assertion is exact: the distinct-voter count
        // must land on the live population, nothing more, nothing less.
        let weights = Weights::new(vec![40, 40, 20]).unwrap();
        let old = TicketAssignment::new(vec![2, 2, 1]);
        let new = TicketAssignment::new(vec![1, 2, 2]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        let event = event_of(&delta, &weights);
        let expected = new.total() as usize;
        for seed in 0..25u64 {
            let config = BlackBoxConfig::new(weights.clone(), &old, Ratio::of(1, 4));
            let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<u64>>>> = (0..3)
                .map(|party| {
                    Box::new(BlackBox::new(config.clone(), party, move |_v, roster| Census {
                        roster: roster.clone(),
                        quorum: QuorumSet::new(Electorate::Roster(roster.clone()), |_| {
                            Ratio::of(0, 1)
                        }),
                        expected,
                    })) as _
                })
                .collect();
            let report =
                Simulation::new(nodes, seed).with_reconfiguration(12, event.clone()).run();
            assert_eq!(report.reconfigurations, 1, "seed {seed}");
            for (i, out) in report.outputs.iter().enumerate() {
                assert_eq!(
                    out.as_deref(),
                    Some(b"exact".as_ref()),
                    "party {i} mis-counted voters across the boundary at seed {seed}: {:?}",
                    report.outputs[i].as_deref().map(String::from_utf8_lossy)
                );
            }
        }
    }
}
