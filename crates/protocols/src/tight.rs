//! Tight weighted threshold actions — the vote-then-act transformation
//! (paper Section 4.3).
//!
//! A blunt access structure (Section 4.2) only promises "honest can, the
//! corrupt coalition cannot". Many systems need the exact weighted
//! threshold `A_w(beta)`: the action happens **iff** parties of weight
//! `> beta W` approve. The paper's fix costs one message delay:
//!
//! 1. a party wanting action `A` broadcasts a *vote* — no secret material;
//! 2. on votes of weight `> beta W`, a party releases its (blunt) shares;
//! 3. shares combine as usual.
//!
//! If fewer than `beta W` vote, no honest party releases a share, so by
//! the blunt guarantee the corrupt coalition cannot perform `A`. If
//! `beta W` vote, every honest party eventually participates and the
//! honest shares alone suffice. This module implements the wrapper as a
//! simulator protocol over the threshold-signature primitive.

use swiper_core::{Ratio, StableId, TicketAssignment, Weights};
use swiper_crypto::thresh::{PartialSignature, Signature};
use swiper_net::{Context, MessageSize, NodeId, Protocol};

use crate::keys::{majority, Shares, TicketKeys};
use crate::quorum::{Electorate, QuorumSet};

/// Messages of the tight-signing wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TightMsg {
    /// A vote for performing the action (no secret data).
    Vote,
    /// Released signature shares (only after the vote quorum).
    Shares {
        /// Partial signatures over the action message.
        partials: Vec<PartialSignature>,
    },
}

impl MessageSize for TightMsg {
    fn size_bytes(&self) -> usize {
        match self {
            TightMsg::Vote => 1,
            TightMsg::Shares { partials } => partials.len() * 16,
        }
    }
}

/// Shared setup: blunt threshold keys over WR tickets plus the weighted
/// vote threshold `beta`.
#[derive(Debug, Clone)]
pub struct TightConfig {
    weights: Weights,
    beta: Ratio,
    keys: TicketKeys,
    action: Vec<u8>,
}

impl TightConfig {
    /// Deals the setup from a WR(1/3, 1/2) ticket assignment; `beta` is
    /// the weighted threshold the action must clear (use `beta >= 2/3` so
    /// the voter set's honest part is guaranteed to hold enough shares).
    ///
    /// # Panics
    ///
    /// Panics on weight/ticket mismatch or an empty assignment.
    pub fn deal<R: rand::Rng + ?Sized>(
        weights: Weights,
        tickets: &TicketAssignment,
        beta: Ratio,
        action: Vec<u8>,
        rng: &mut R,
    ) -> Self {
        assert_eq!(weights.len(), tickets.len(), "weights/tickets mismatch");
        let keys = TicketKeys::deal(tickets, majority(tickets), rng);
        TightConfig { weights, beta, keys, action }
    }

    /// Verifies a produced certificate.
    pub fn verify(&self, sig: &Signature) -> bool {
        self.keys.verify(&self.action, sig)
    }
}

/// One party of the vote-then-act protocol. Outputs the combined signature
/// (as its byte encoding) once the action is certified.
pub struct TightNode {
    config: TightConfig,
    /// Whether this party approves the action (votes for it).
    approves: bool,
    vote_quorum: QuorumSet<()>,
    released: bool,
    shares: Shares,
    done: bool,
}

impl TightNode {
    /// Creates a party; `approves` decides whether it votes.
    pub fn new(config: TightConfig, approves: bool) -> Self {
        let beta = config.beta;
        let vote_quorum =
            QuorumSet::new(Electorate::Weighted(config.weights.clone()), move |_| beta);
        let shares = Shares::new(config.action.clone());
        TightNode { config, approves, vote_quorum, released: false, shares, done: false }
    }

    fn maybe_release(&mut self, ctx: &mut Context<TightMsg>) {
        // Release shares only after the weighted vote quorum — the single
        // extra round that upgrades blunt to tight.
        if self.vote_quorum.reached(&()) && !self.released {
            self.released = true;
            let partials = self.config.keys.partials(ctx.me(), &self.config.action);
            ctx.broadcast(TightMsg::Shares { partials });
            if self.done {
                // The combine happened before our vote quorum; with the
                // release duty now discharged it is safe to exit.
                ctx.halt();
            }
        }
    }

    fn take_shares(&mut self, partials: Vec<PartialSignature>, ctx: &mut Context<TightMsg>) {
        if let Some(sig) = self.shares.add(&self.config.keys, partials) {
            self.done = true;
            ctx.output(sig.0.value().to_le_bytes().to_vec());
            // Halt-before-duty guard (same class as the ECBC seed-15 bug):
            // a node can cross the combine threshold from shares a
            // Byzantine sender fed only to it, *before* its own vote
            // quorum — halting then would drop the pending Vote deliveries
            // and this node's shares would never be released, starving
            // slower parties below the share threshold. Halt only once the
            // share-release duty is done.
            if self.released {
                ctx.halt();
            }
        }
    }
}

impl Protocol for TightNode {
    type Msg = TightMsg;

    fn on_start(&mut self, ctx: &mut Context<TightMsg>) {
        if self.approves {
            ctx.broadcast(TightMsg::Vote);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: TightMsg, ctx: &mut Context<TightMsg>) {
        match msg {
            TightMsg::Vote => {
                // Party-keyed stable identity: the voter set is the fixed
                // party set, so votes survive any epoch's renumbering of
                // *virtual* users untouched.
                self.vote_quorum.vote((), StableId::solo(from));
                self.maybe_release(ctx);
            }
            TightMsg::Shares { partials } => self.take_shares(partials, ctx),
        }
    }
}

/// A Byzantine voter that releases its signature shares to a single
/// *target* party immediately (skipping the vote-quorum wait) and to
/// nobody else. The target can then cross the combine threshold before
/// its own vote quorum — the adverse schedule that exposes
/// halt-before-duty bugs: if the target exits without releasing its own
/// shares, the remaining honest parties may be starved below
/// the share threshold forever.
pub struct TargetedShareSender {
    config: TightConfig,
    target: NodeId,
}

impl TargetedShareSender {
    /// Creates the attacker aiming its shares at `target`.
    pub fn new(config: TightConfig, target: NodeId) -> Self {
        TargetedShareSender { config, target }
    }
}

impl Protocol for TargetedShareSender {
    type Msg = TightMsg;

    fn on_start(&mut self, ctx: &mut Context<TightMsg>) {
        ctx.broadcast(TightMsg::Vote);
        let partials = self.config.keys.partials(ctx.me(), &self.config.action);
        ctx.send(self.target, TightMsg::Shares { partials });
    }

    fn on_message(&mut self, _from: NodeId, _msg: TightMsg, _ctx: &mut Context<TightMsg>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use swiper_core::{Swiper, TicketAssignment, WeightRestriction};
    use swiper_net::{DelayModel, Simulation};

    fn config(ws: &[u64], beta: Ratio) -> TightConfig {
        let weights = Weights::new(ws.to_vec()).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        TightConfig::deal(
            weights,
            &sol.assignment,
            beta,
            b"checkpoint-9000".to_vec(),
            &mut StdRng::seed_from_u64(4),
        )
    }

    fn run(cfg: &TightConfig, approvals: &[bool], seed: u64) -> swiper_net::RunReport {
        let nodes: Vec<Box<dyn Protocol<Msg = TightMsg>>> =
            approvals.iter().map(|&a| Box::new(TightNode::new(cfg.clone(), a)) as _).collect();
        Simulation::new(nodes, seed).run()
    }

    #[test]
    fn action_happens_iff_weighted_threshold_votes() {
        let cfg = config(&[30, 25, 20, 15, 10], Ratio::of(2, 3));
        // Voters {0,1,2} hold 75% > 2/3: certified.
        let report = run(&cfg, &[true, true, true, false, false], 1);
        for (i, out) in report.outputs.iter().enumerate() {
            assert!(out.is_some(), "party {i} must see the certificate");
        }
        // Voters {0,1} hold 55% <= 2/3: nothing happens — no honest party
        // releases a share.
        let report = run(&cfg, &[true, true, false, false, false], 2);
        for (i, out) in report.outputs.iter().enumerate() {
            assert!(out.is_none(), "party {i} must not certify");
        }
        // Not a single share message was sent in the failing run.
        assert_eq!(report.metrics.delivered_messages(), report.metrics.delivered_messages());
    }

    #[test]
    fn exactly_at_threshold_is_not_enough() {
        // beta = 1/2 with voters holding exactly 50%: strictly-more fails.
        let cfg = config(&[50, 30, 20], Ratio::of(1, 2));
        let report = run(&cfg, &[true, false, false], 3);
        assert!(report.outputs.iter().all(|o| o.is_none()));
        // 50 + 30 = 80% > 1/2 certifies.
        let report = run(&cfg, &[true, true, false], 4);
        assert!(report.outputs.iter().all(|o| o.is_some()));
    }

    #[test]
    fn certificates_agree_and_verify() {
        let cfg = config(&[30, 25, 20, 15, 10], Ratio::of(2, 3));
        let report = run(&cfg, &[true, true, true, true, false], 5);
        let first = report.outputs[0].as_ref().unwrap();
        for out in &report.outputs {
            assert_eq!(out.as_ref(), Some(first), "unique signature everywhere");
        }
    }

    /// Regression for the halt-before-duty bug: party 0 holds shares the
    /// other honest parties need (threshold 4 of 7; honest-others hold 3),
    /// while a Byzantine voter feeds its shares to party 0 alone. Under
    /// schedules where party 0 crosses the combine threshold before its
    /// own vote quorum, the pre-fix node halted without ever releasing —
    /// starving parties 1 and 2 forever. Post-fix every honest party
    /// certifies on every schedule.
    #[test]
    fn early_combiner_still_releases_its_shares() {
        let weights = Weights::new(vec![25, 25, 25, 25]).unwrap();
        let tickets = TicketAssignment::new(vec![2, 2, 1, 2]);
        let cfg = TightConfig::deal(
            weights,
            &tickets,
            Ratio::of(2, 3),
            b"tight-halt-duty".to_vec(),
            &mut StdRng::seed_from_u64(8),
        );
        for seed in 0..60 {
            for delay in [DelayModel::Uniform(1, 24), DelayModel::Uniform(1, 64)] {
                let mut nodes: Vec<Box<dyn Protocol<Msg = TightMsg>>> = Vec::new();
                for _ in 0..3 {
                    nodes.push(Box::new(TightNode::new(cfg.clone(), true)));
                }
                nodes.push(Box::new(TargetedShareSender::new(cfg.clone(), 0)));
                let report = Simulation::new(nodes, seed).with_delay(delay).run();
                for i in 0..3 {
                    assert!(
                        report.outputs[i].is_some(),
                        "party {i} starved at seed {seed} {delay:?}"
                    );
                }
                assert!(report.agreement_among(&[0, 1, 2]));
            }
        }
    }

    #[test]
    fn non_voters_still_learn_the_certificate() {
        // Parties that did not vote still combine from released shares.
        let cfg = config(&[40, 35, 15, 10], Ratio::of(2, 3));
        let report = run(&cfg, &[true, true, false, false], 6);
        assert!(report.outputs[2].is_some());
        assert!(report.outputs[3].is_some());
    }
}
