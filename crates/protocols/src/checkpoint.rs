//! Consensus checkpointing with weighted threshold signatures
//! (paper Section 6.3; Pikachu, reference \[6\]).
//!
//! A proof-of-stake chain periodically *checkpoints* its prefix by having
//! validators threshold-sign the checkpoint block. Weight reduction gives
//! a weighted scheme out of any nominal one:
//!
//! * **blunt** (Section 4.2): WR with `alpha_w = f_w = 1/3`,
//!   `alpha_n = 1/2`; any honest-weight coalition reaches the share
//!   threshold, no corrupt coalition does — sufficient for checkpoint
//!   certificates;
//! * **tight** (Section 4.3): one extra *vote* round upgrades the blunt
//!   structure to an exact weighted threshold `A_w(beta)`: honest parties
//!   release their signature shares only after seeing votes of weight
//!   `> beta * W`, so a certificate exists iff a weighted threshold of
//!   parties approved — at the cost of exactly one message delay, as the
//!   paper notes.

use rand::Rng;
use swiper_core::{Ratio, StableId, TicketAssignment, Weights};
use swiper_crypto::thresh::{PartialSignature, Signature};
use swiper_crypto::CryptoError;

use crate::keys::{majority, TicketKeys};
use crate::quorum::{Electorate, QuorumSet};

/// A checkpointing authority over a weighted validator set.
#[derive(Debug, Clone)]
pub struct CheckpointScheme {
    weights: Weights,
    keys: TicketKeys,
}

impl CheckpointScheme {
    /// Deals key shares over the WR ticket assignment (share threshold
    /// `ceil(T/2)`-ish via `alpha_n = 1/2`).
    ///
    /// # Panics
    ///
    /// Panics on weight/ticket mismatch or an empty assignment.
    pub fn setup<R: Rng + ?Sized>(
        weights: Weights,
        tickets: &TicketAssignment,
        rng: &mut R,
    ) -> Self {
        assert_eq!(weights.len(), tickets.len(), "weights/tickets mismatch");
        let keys = TicketKeys::deal(tickets, majority(tickets), rng);
        CheckpointScheme { weights, keys }
    }

    /// The underlying share threshold.
    pub fn share_threshold(&self) -> usize {
        self.keys.threshold()
    }

    /// Partial signatures of one party over a checkpoint.
    pub fn partials_of(&self, party: usize, checkpoint: &[u8]) -> Vec<PartialSignature> {
        self.keys.partials(party, checkpoint)
    }

    /// **Blunt certification**: pools the shares of `signers` and combines
    /// when they reach the share threshold.
    ///
    /// # Errors
    ///
    /// [`CryptoError::NotEnoughShares`] when the signers' pooled tickets
    /// fall short (e.g. a corrupt-only coalition).
    pub fn certify_blunt(
        &self,
        checkpoint: &[u8],
        signers: &[usize],
    ) -> Result<Signature, CryptoError> {
        let mut signers = signers.to_vec();
        signers.sort_unstable();
        signers.dedup();
        let partials: Vec<PartialSignature> =
            signers.iter().flat_map(|&p| self.partials_of(p, checkpoint)).collect();
        self.keys.combine(checkpoint, &partials).ok_or(CryptoError::NotEnoughShares {
            needed: self.share_threshold(),
            have: partials.len(),
        })
    }

    /// **Tight certification** (Section 4.3): requires an explicit vote set
    /// of weight `> beta * W` *before* any share is released; returns the
    /// certificate produced from the voters' shares.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::NotEnoughShares`] when the voters' weight does not
    ///   clear `beta` (the action must not be performed), or when — despite
    ///   a valid vote — the voters' tickets fall short of the share
    ///   threshold (impossible for `beta >= 2/3` under WR(1/3, 1/2)).
    pub fn certify_tight(
        &self,
        checkpoint: &[u8],
        voters: &[usize],
        beta: Ratio,
    ) -> Result<Signature, CryptoError> {
        // Strictly more than beta * W, judged as every weighted quorum is.
        let mut votes =
            QuorumSet::new(Electorate::Weighted(self.weights.clone()), move |_| beta);
        for &voter in voters {
            votes.vote((), StableId::solo(voter));
        }
        if !votes.reached(&()) {
            return Err(CryptoError::NotEnoughShares {
                needed: self.share_threshold(),
                have: 0,
            });
        }
        self.certify_blunt(checkpoint, voters)
    }

    /// Verifies a checkpoint certificate.
    pub fn verify(&self, checkpoint: &[u8], sig: &Signature) -> bool {
        self.keys.verify(checkpoint, sig)
    }
}

/// A toy proof-of-stake chain that checkpoints every `interval` blocks —
/// the composition the paper's Section 6.3 describes.
#[derive(Debug, Clone)]
pub struct CheckpointedChain {
    scheme: CheckpointScheme,
    interval: usize,
    blocks: Vec<Vec<u8>>,
    checkpoints: Vec<(usize, Signature)>,
}

impl CheckpointedChain {
    /// An empty chain checkpointing every `interval` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn new(scheme: CheckpointScheme, interval: usize) -> Self {
        assert!(interval > 0, "checkpoint interval must be positive");
        CheckpointedChain { scheme, interval, blocks: Vec::new(), checkpoints: Vec::new() }
    }

    /// Appends a block; at each interval boundary, the given signer set
    /// certifies the prefix.
    ///
    /// # Errors
    ///
    /// Propagates certificate failures at checkpoint heights.
    pub fn append(&mut self, block: Vec<u8>, signers: &[usize]) -> Result<(), CryptoError> {
        self.blocks.push(block);
        if self.blocks.len().is_multiple_of(self.interval) {
            let tag = self.prefix_tag(self.blocks.len());
            let sig = self.scheme.certify_blunt(&tag, signers)?;
            self.checkpoints.push((self.blocks.len(), sig));
        }
        Ok(())
    }

    /// Number of blocks.
    pub fn height(&self) -> usize {
        self.blocks.len()
    }

    /// Certified checkpoints (height, certificate).
    pub fn checkpoints(&self) -> &[(usize, Signature)] {
        &self.checkpoints
    }

    /// Verifies every checkpoint certificate against the chain prefix.
    pub fn verify_checkpoints(&self) -> bool {
        self.checkpoints.iter().all(|(height, sig)| {
            let tag = self.prefix_tag(*height);
            self.scheme.verify(&tag, sig)
        })
    }

    fn prefix_tag(&self, height: usize) -> Vec<u8> {
        let mut h = swiper_crypto::Hasher::new();
        h.update(b"swiper.checkpoint.prefix");
        h.update(&(height as u64).to_le_bytes());
        for b in &self.blocks[..height] {
            h.update(&(b.len() as u64).to_le_bytes());
            h.update(b);
        }
        h.finalize().as_bytes().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use swiper_core::{Swiper, WeightRestriction};

    fn setup(ws: &[u64]) -> CheckpointScheme {
        let weights = Weights::new(ws.to_vec()).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        CheckpointScheme::setup(weights, &sol.assignment, &mut StdRng::seed_from_u64(5))
    }

    #[test]
    fn honest_majority_certifies() {
        let cs = setup(&[40, 30, 15, 10, 5]);
        // Parties {0, 1} hold 70% of the weight.
        let sig = cs.certify_blunt(b"cp-1", &[0, 1]).unwrap();
        assert!(cs.verify(b"cp-1", &sig));
        assert!(!cs.verify(b"cp-2", &sig));
    }

    #[test]
    fn corrupt_minority_cannot_certify() {
        let cs = setup(&[40, 30, 15, 10, 5]);
        // Parties {2, 3, 4} hold 30% (< 1/3): the blunt guarantee says
        // their pooled tickets stay below the share threshold.
        assert!(matches!(
            cs.certify_blunt(b"cp-1", &[2, 3, 4]),
            Err(CryptoError::NotEnoughShares { .. })
        ));
        // Duplicate listings do not help.
        assert!(cs.certify_blunt(b"cp-1", &[2, 2, 3, 3, 4, 4]).is_err());
    }

    #[test]
    fn tight_requires_weighted_vote_quorum() {
        let cs = setup(&[40, 30, 15, 10, 5]);
        // beta = 2/3: voters {0, 1} hold 70% > 2/3 -> certificate.
        let sig = cs.certify_tight(b"cp", &[0, 1], Ratio::of(2, 3)).unwrap();
        assert!(cs.verify(b"cp", &sig));
        // Voters {0, 2, 3} hold 65% <= 2/3 (not strictly more): refused,
        // even though their tickets would clear the blunt threshold.
        assert!(cs.certify_blunt(b"cp", &[0, 2, 3]).is_ok());
        assert!(cs.certify_tight(b"cp", &[0, 2, 3], Ratio::of(2, 3)).is_err());
    }

    /// The vote check at stakes whose weighted comparison passes `2^128`:
    /// four parties of `u64::MAX` stake, `beta` just above 1/2 with a
    /// 67-bit denominator.
    #[test]
    fn tight_certification_compares_past_u128() {
        let weights = Weights::new(vec![u64::MAX; 4]).unwrap();
        let tickets = TicketAssignment::new(vec![1; 4]);
        let cs = CheckpointScheme::setup(weights, &tickets, &mut StdRng::seed_from_u64(6));
        let beta = Ratio::of((1 << 65) + 1, (1 << 66) + 1);
        assert!(cs.certify_tight(b"cp", &[0, 1], beta).is_err());
        let sig = cs.certify_tight(b"cp", &[0, 1, 2], beta).unwrap();
        assert!(cs.verify(b"cp", &sig));
    }

    #[test]
    fn chain_checkpoints_periodically_and_verifies() {
        let cs = setup(&[40, 30, 15, 10, 5]);
        let mut chain = CheckpointedChain::new(cs, 3);
        for i in 0..10u8 {
            chain.append(vec![i], &[0, 1]).unwrap();
        }
        assert_eq!(chain.height(), 10);
        assert_eq!(chain.checkpoints().len(), 3); // at heights 3, 6, 9
        assert!(chain.verify_checkpoints());
    }

    #[test]
    fn chain_append_fails_without_quorum_at_boundary() {
        let cs = setup(&[40, 30, 15, 10, 5]);
        let mut chain = CheckpointedChain::new(cs, 2);
        chain.append(vec![1], &[4]).unwrap(); // not a boundary: fine
        assert!(chain.append(vec![2], &[4]).is_err()); // boundary, no quorum
    }

    #[test]
    fn certificates_bind_the_prefix() {
        let cs = setup(&[40, 30, 15, 10, 5]);
        let mut a = CheckpointedChain::new(cs.clone(), 2);
        let mut b = CheckpointedChain::new(cs, 2);
        a.append(vec![1], &[0, 1]).unwrap();
        a.append(vec![2], &[0, 1]).unwrap();
        b.append(vec![1], &[0, 1]).unwrap();
        b.append(vec![9], &[0, 1]).unwrap(); // different block 2
        let (_, sig_a) = a.checkpoints()[0];
        // Chain B's prefix tag differs, so A's certificate does not verify
        // against B's prefix.
        let tag_b = b.prefix_tag(2);
        assert!(!a.scheme.verify(&tag_b, &sig_a));
    }
}
