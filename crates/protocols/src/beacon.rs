//! Distributed randomness beacon / common coin (paper Section 4.1).
//!
//! The nominal construction: a trusted dealer shares a signing key with an
//! `(alpha_n, T)`-threshold scheme; each round, parties exchange partial
//! signatures over the round tag, and the (unique, deterministic) combined
//! signature hashes into the round's randomness.
//!
//! The weighted construction is Weight Restriction with `alpha_w := f_w`
//! and `alpha_n <= 1/2`: party `i` holds the key shares of its `t_i`
//! virtual users. WR guarantees
//!
//! * corrupt parties (weight `< f_w * W`) hold `< alpha_n * T` shares —
//!   the beacon stays **unpredictable** to them;
//! * honest parties hold `> (1 - alpha_n) * T >= ceil(alpha_n * T)` shares
//!   — the beacon stays **live** without any corrupt help.

use rand::Rng;
use swiper_core::{EpochEvent, Ratio, TicketAssignment};
use swiper_crypto::hash::Digest;
use swiper_crypto::thresh::{PartialSignature, Signature};
use swiper_net::{Context, MessageSize, NodeId, Protocol};

use crate::keys::{Shares, TicketKeys};

/// Public setup broadcast by the (simulated) trusted dealer.
#[derive(Debug, Clone)]
pub struct BeaconSetup {
    /// The signing keys, dealt to the virtual users of the tickets.
    pub keys: TicketKeys,
}

impl BeaconSetup {
    /// Deals a beacon setup over a ticket assignment with ticket-side
    /// threshold `alpha_n` (use `alpha_n <= 1/2`; the threshold is
    /// `ceil(alpha_n * T)` shares).
    ///
    /// # Panics
    ///
    /// Panics if the ticket total is zero.
    pub fn deal<R: Rng + ?Sized>(
        tickets: &TicketAssignment,
        alpha_n: Ratio,
        rng: &mut R,
    ) -> Self {
        let total = tickets.total();
        let target = alpha_n.num().checked_mul(total).expect("alpha_n * T fits u128");
        let threshold = usize::try_from(target.div_ceil(alpha_n.den())).expect("fits").max(1);
        BeaconSetup { keys: TicketKeys::deal(tickets, threshold, rng) }
    }

    /// Nominal setup: one share per party, threshold `ceil(alpha_n * n)`.
    pub fn nominal<R: Rng + ?Sized>(n: usize, alpha_n: Ratio, rng: &mut R) -> Self {
        let tickets = TicketAssignment::new(vec![1; n]);
        Self::deal(&tickets, alpha_n, rng)
    }

    /// The round tag signed by all parties for round `r`.
    pub fn round_tag(round: u64) -> Vec<u8> {
        let mut tag = b"swiper.beacon.round.".to_vec();
        tag.extend_from_slice(&round.to_le_bytes());
        tag
    }

    /// Derives the round output from the combined signature.
    pub fn output_of(sig: &Signature) -> Digest {
        sig.beacon_output()
    }
}

/// Beacon messages: a bundle of partial signatures for one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeaconMsg {
    /// The beacon round.
    pub round: u64,
    /// Partial signatures from the sender's key shares.
    pub partials: Vec<PartialSignature>,
}

impl MessageSize for BeaconMsg {
    fn size_bytes(&self) -> usize {
        8 + self.partials.len() * 16
    }
}

/// One beacon party, producing the round-`round` output.
pub struct BeaconNode {
    setup: BeaconSetup,
    round: u64,
    shares: Shares,
    /// Whether this party's own partials have been broadcast — the duty
    /// that must be done before halting (see `on_message`).
    shared: bool,
}

impl BeaconNode {
    /// A party contributing to (and outputting) round `round`.
    pub fn new(setup: BeaconSetup, round: u64) -> Self {
        let shares = Shares::new(BeaconSetup::round_tag(round));
        BeaconNode { setup, round, shares, shared: false }
    }
}

impl Protocol for BeaconNode {
    type Msg = BeaconMsg;

    fn on_start(&mut self, ctx: &mut Context<BeaconMsg>) {
        let tag = BeaconSetup::round_tag(self.round);
        let partials = self.setup.keys.partials(ctx.me(), &tag);
        ctx.broadcast(BeaconMsg { round: self.round, partials });
        self.shared = true;
    }

    fn on_message(&mut self, _from: NodeId, msg: BeaconMsg, ctx: &mut Context<BeaconMsg>) {
        if msg.round != self.round {
            return;
        }
        // The collector yields the signature once; later partials are
        // dropped unread.
        if let Some(sig) = self.shares.add(&self.setup.keys, msg.partials) {
            ctx.output(BeaconSetup::output_of(&sig).as_bytes().to_vec());
            // Halt-before-duty audit (same class as the ECBC seed-15 bug,
            // found live in `tight.rs`/`avid.rs`): the beacon's only duty
            // towards slower parties is broadcasting its own partials,
            // which `on_start` discharges unconditionally before any
            // message can be delivered — so this halt can never starve
            // anyone. The explicit gate keeps that invariant structural
            // rather than incidental: if share broadcasting ever becomes
            // conditional or message-driven, the node stays live until the
            // duty is done.
            if self.shared {
                ctx.halt();
            }
        }
    }

    fn on_reconfigure(&mut self, _event: &EpochEvent, _ctx: &mut Context<BeaconMsg>) {
        // Deliberate no-op, per the stable-identity contract: the beacon
        // tracks no per-sender quorums — partials deduplicate by *share
        // index*, a fixed point of the threshold scheme dealt once per
        // setup, so neither identity nor stake enters a tally here. An
        // event whose delta moves the WR assignment invalidates the dealt
        // shares themselves; hosts re-deal for the new epoch from the
        // event's rekey seed (the SMR composition's deterministic
        // carry/re-deal split, which `AbaSetup::on_epoch` now shares)
        // rather than splice this round.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use swiper_core::{Swiper, WeightRestriction, Weights};
    use swiper_net::adversary::Silent;
    use swiper_net::Simulation;

    fn weighted_setup(ws: &[u64]) -> BeaconSetup {
        let weights = Weights::new(ws.to_vec()).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        BeaconSetup::deal(&sol.assignment, Ratio::of(1, 2), &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn all_parties_agree_on_randomness() {
        let setup = weighted_setup(&[50, 30, 10, 5, 3, 2]);
        let n = setup.keys.mapping().parties();
        let nodes: Vec<Box<dyn Protocol<Msg = BeaconMsg>>> =
            (0..n).map(|_| Box::new(BeaconNode::new(setup.clone(), 7)) as _).collect();
        let report = Simulation::new(nodes, 5).run();
        let first = report.outputs[0].clone().expect("output produced");
        assert_eq!(first.len(), 32);
        for out in &report.outputs {
            assert_eq!(out.as_ref(), Some(&first));
        }
    }

    #[test]
    fn different_rounds_different_randomness() {
        let setup = weighted_setup(&[50, 30, 10, 5, 3, 2]);
        let n = setup.keys.mapping().parties();
        let mut outputs = Vec::new();
        for round in [1u64, 2] {
            let nodes: Vec<Box<dyn Protocol<Msg = BeaconMsg>>> =
                (0..n).map(|_| Box::new(BeaconNode::new(setup.clone(), round)) as _).collect();
            let report = Simulation::new(nodes, 5).run();
            outputs.push(report.outputs[0].clone().unwrap());
        }
        assert_ne!(outputs[0], outputs[1]);
    }

    #[test]
    fn liveness_without_corrupt_weight() {
        // Parties holding 30% of weight (< 1/3) stay silent: the rest still
        // produce the beacon — the WR honest-side guarantee.
        let weights = vec![30u64, 25, 15, 15, 15];
        let setup = weighted_setup(&weights);
        let mut nodes: Vec<Box<dyn Protocol<Msg = BeaconMsg>>> = Vec::new();
        nodes.push(Box::new(Silent::new())); // party 0: 30%
        for _ in 1..5 {
            nodes.push(Box::new(BeaconNode::new(setup.clone(), 3)));
        }
        let report = Simulation::new(nodes, 9).run();
        for i in 1..5 {
            assert!(report.outputs[i].is_some(), "party {i} must output");
        }
    }

    #[test]
    fn corrupt_minority_cannot_predict() {
        // Structural unpredictability: the pooled shares of any sub-f_w
        // coalition stay below the combining threshold.
        let weights = Weights::new(vec![30, 25, 15, 15, 15]).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        let setup =
            BeaconSetup::deal(&sol.assignment, Ratio::of(1, 2), &mut StdRng::seed_from_u64(2));
        let total = setup.keys.mapping().total() as u128;
        let w_total = weights.total();
        // Enumerate all coalitions with weight < W/3.
        for mask in 0u32..(1 << 5) {
            let coalition: Vec<usize> = (0..5).filter(|i| mask >> i & 1 == 1).collect();
            let coalition_weight = weights.subset_weight(&coalition);
            if coalition_weight * 3 < w_total {
                let shares: u128 = coalition
                    .iter()
                    .map(|&p| u128::from(setup.keys.mapping().tickets_of(p)))
                    .sum();
                assert!(
                    shares < (setup.keys.threshold() as u128),
                    "coalition {coalition:?} holds {shares}/{total} shares"
                );
            }
        }
    }

    #[test]
    fn forged_partials_rejected() {
        // The forger holds 20% (< 1/3) of the weight, so the honest parties
        // hold enough shares on their own.
        let setup = weighted_setup(&[20, 40, 40]);
        let n = setup.keys.mapping().parties();
        // One node injects partials with flipped values.
        struct Forger {
            setup: BeaconSetup,
        }
        impl Protocol for Forger {
            type Msg = BeaconMsg;
            fn on_start(&mut self, ctx: &mut Context<BeaconMsg>) {
                let tag = BeaconSetup::round_tag(4);
                let mut partials = self.setup.keys.partials(ctx.me(), &tag);
                for p in &mut partials {
                    p.value = p.value + swiper_field::F61::new(1);
                }
                ctx.broadcast(BeaconMsg { round: 4, partials });
            }
            fn on_message(&mut self, _f: NodeId, _m: BeaconMsg, _c: &mut Context<BeaconMsg>) {}
        }
        let mut nodes: Vec<Box<dyn Protocol<Msg = BeaconMsg>>> = Vec::new();
        nodes.push(Box::new(Forger { setup: setup.clone() }));
        for _ in 1..n {
            nodes.push(Box::new(BeaconNode::new(setup.clone(), 4)));
        }
        let report = Simulation::new(nodes, 13).run();
        // Honest parties still agree (forged partials are filtered).
        assert!(report.agreement_among(&(1..n).collect::<Vec<_>>()));
        for i in 1..n {
            assert!(report.outputs[i].is_some());
        }
    }
}
