//! The weight-bearing epoch reconfiguration event.
//!
//! A [`TicketDelta`] alone is only half a reconfiguration: it renumbers
//! identities but says nothing about *stake*, so a consumer that re-keys
//! its tallies from the delta keeps weighing votes with whatever weight
//! vector it was constructed against. [`EpochEvent`] is the full unit of
//! epoch change the protocols layer consumes — one value carrying
//!
//! * the **epoch number** the event transitions into,
//! * the [`TicketDelta`] between the two epochs' ticket assignments,
//! * the **new per-party weight vector** (weights are the live input of a
//!   weighted protocol — quorums must tally under *this* epoch's stake),
//! * a **fingerprinted handle** to the previous weight vector, so a
//!   consumer can cheaply detect stake drift (and a driver bug that skips
//!   an epoch shows up as a fingerprint mismatch), and
//! * a deterministic **rekey seed**: consumers that hold dealt
//!   cryptographic material re-derive it from
//!   `rekey_seed ⊕ fingerprint(new assignment)` when the tickets backing
//!   it moved, so every replica — and any teardown-rebuild twin — deals
//!   identical fresh keys without coordination.
//!
//! Producers ([`Reconfigurator`] in `swiper-weights`, the epoch-schedule
//! simulation drivers in `swiper-net`) emit `EpochEvent`s; consumers
//! (`Protocol::on_reconfigure` implementors) splice them in. No public
//! reconfiguration API accepts a bare `&TicketDelta` anymore.
//!
//! [`Reconfigurator`]: ../../swiper_weights/epoch/struct.Reconfigurator.html

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::virtual_users::TicketDelta;
use crate::weights::Weights;

/// One epoch reconfiguration: the ticket delta *and* the stake that goes
/// with it. The module docs above explain the role of each field.
///
/// # Examples
///
/// ```
/// use swiper_core::{EpochEvent, TicketAssignment, TicketDelta, Weights};
///
/// # fn main() -> Result<(), swiper_core::CoreError> {
/// let old_w = Weights::new(vec![50, 30, 20])?;
/// let new_w = Weights::new(vec![10, 30, 20])?; // the whale collapsed
/// let old_t = TicketAssignment::new(vec![2, 1, 1]);
/// let new_t = TicketAssignment::new(vec![1, 1, 1]);
/// let delta = TicketDelta::between(&old_t, &new_t)?;
/// let event = EpochEvent::new(1, delta, &old_w, new_w, 7)?;
/// assert_eq!(event.epoch(), 1);
/// assert!(event.weights_changed());
/// assert_eq!(event.weights().get(0), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochEvent {
    epoch: u64,
    delta: TicketDelta,
    weights: Weights,
    prev_weights_fingerprint: u128,
    rekey_seed: u64,
}

impl EpochEvent {
    /// Builds the event transitioning into `epoch`: `delta` diffs the two
    /// epochs' ticket assignments, `prev_weights`/`weights` are the old
    /// and new per-party stake vectors, and `rekey_seed` is the
    /// deterministic seed consumers fold with the new assignment's
    /// fingerprint when re-dealing epoch-pinned cryptographic material.
    ///
    /// # Errors
    ///
    /// [`CoreError::PartyCountChanged`] when either weight vector covers
    /// a different party count than the delta — party sets are fixed
    /// across epochs, so the three must agree.
    pub fn new(
        epoch: u64,
        delta: TicketDelta,
        prev_weights: &Weights,
        weights: Weights,
        rekey_seed: u64,
    ) -> Result<Self, CoreError> {
        for found in [prev_weights.len(), weights.len()] {
            if found != delta.parties() {
                return Err(CoreError::PartyCountChanged { expected: delta.parties(), found });
            }
        }
        Ok(EpochEvent {
            epoch,
            delta,
            weights,
            prev_weights_fingerprint: prev_weights.fingerprint(),
            rekey_seed,
        })
    }

    /// The epoch this event transitions into.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The ticket diff between the previous and this epoch.
    pub fn delta(&self) -> &TicketDelta {
        &self.delta
    }

    /// This epoch's per-party weight vector — the stake quorums must
    /// tally under from the moment the event is consumed.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Fingerprint of the previous epoch's weight vector (the handle a
    /// consumer compares against its own to detect a skipped epoch).
    pub fn prev_weights_fingerprint(&self) -> u128 {
        self.prev_weights_fingerprint
    }

    /// Whether the stake actually moved between the two epochs.
    pub fn weights_changed(&self) -> bool {
        self.weights.fingerprint() != self.prev_weights_fingerprint
    }

    /// The deterministic re-deal seed. Consumers holding dealt material
    /// (threshold coin keys, beacon shares) combine it with the new
    /// assignment's fingerprint so all replicas re-deal identically.
    pub fn rekey_seed(&self) -> u64 {
        self.rekey_seed
    }

    /// Refreshes a consumer's stored weight vector from this event,
    /// returning whether it was replaced. Party sets are fixed across
    /// epochs, so a length mismatch marks a mis-addressed event: the
    /// vector is left untouched and `false` is returned (consumers decide
    /// whether that is assert-worthy). The one shared implementation of
    /// the guard every `on_reconfigure` needs.
    #[must_use]
    pub fn refresh_weights(&self, weights: &mut Weights) -> bool {
        if self.weights.len() != weights.len() {
            return false;
        }
        *weights = self.weights.clone();
        true
    }

    /// Folds the rekey seed with a 128-bit assignment fingerprint into a
    /// 64-bit RNG seed — the shared recipe for deterministic re-deals
    /// (every consumer using it derives the same keys for the same epoch).
    pub fn fold_rekey(&self, fingerprint: u128) -> u64 {
        self.rekey_seed ^ (fingerprint ^ (fingerprint >> 64)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{tickets_fingerprint, TicketAssignment};
    use proptest::prelude::*;

    fn delta(old: &[u64], new: &[u64]) -> TicketDelta {
        TicketDelta::between(
            &TicketAssignment::new(old.to_vec()),
            &TicketAssignment::new(new.to_vec()),
        )
        .unwrap()
    }

    #[test]
    fn carries_epoch_delta_weights_and_seed() {
        let old_w = Weights::new(vec![5, 5, 5]).unwrap();
        let new_w = Weights::new(vec![5, 9, 5]).unwrap();
        let event =
            EpochEvent::new(3, delta(&[1, 1, 1], &[1, 2, 1]), &old_w, new_w.clone(), 42)
                .unwrap();
        assert_eq!(event.epoch(), 3);
        assert_eq!(event.delta().changes().len(), 1);
        assert_eq!(event.weights(), &new_w);
        assert_eq!(event.prev_weights_fingerprint(), old_w.fingerprint());
        assert!(event.weights_changed());
        assert_eq!(event.rekey_seed(), 42);
    }

    #[test]
    fn unchanged_stake_is_detected_via_the_fingerprint() {
        let w = Weights::new(vec![7, 3]).unwrap();
        let event = EpochEvent::new(1, delta(&[1, 1], &[2, 1]), &w, w.clone(), 0).unwrap();
        assert!(!event.weights_changed(), "tickets moved but stake did not");
    }

    #[test]
    fn rejects_party_count_mismatches() {
        let w3 = Weights::new(vec![1, 1, 1]).unwrap();
        let w2 = Weights::new(vec![1, 1]).unwrap();
        assert_eq!(
            EpochEvent::new(1, delta(&[1, 1], &[2, 1]), &w2, w3.clone(), 0),
            Err(CoreError::PartyCountChanged { expected: 2, found: 3 })
        );
        assert_eq!(
            EpochEvent::new(1, delta(&[1, 1], &[2, 1]), &w3, w2, 0),
            Err(CoreError::PartyCountChanged { expected: 2, found: 3 })
        );
    }

    #[test]
    fn refresh_weights_guards_party_count() {
        let prev = Weights::new(vec![5, 5]).unwrap();
        let event = EpochEvent::new(
            1,
            delta(&[1, 1], &[2, 1]),
            &prev,
            Weights::new(vec![9, 5]).unwrap(),
            0,
        )
        .unwrap();
        let mut mine = prev.clone();
        assert!(event.refresh_weights(&mut mine));
        assert_eq!(mine.get(0), 9);
        let mut other = Weights::new(vec![1, 1, 1]).unwrap();
        assert!(!event.refresh_weights(&mut other), "mis-addressed event is ignored");
        assert_eq!(other.len(), 3);
    }

    #[test]
    fn fold_rekey_is_deterministic_and_fingerprint_sensitive() {
        let w = Weights::new(vec![4, 4]).unwrap();
        let event = EpochEvent::new(1, delta(&[1, 1], &[1, 2]), &w, w.clone(), 99).unwrap();
        let fp_a = TicketAssignment::new(vec![1, 2]).fingerprint();
        let fp_b = TicketAssignment::new(vec![2, 1]).fingerprint();
        assert_eq!(event.fold_rekey(fp_a), event.fold_rekey(fp_a));
        assert_ne!(event.fold_rekey(fp_a), event.fold_rekey(fp_b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The word-wise fingerprint sees every bit of every word and the
        /// order of the words, and the rekey fold keeps what it sees.
        #[test]
        fn fingerprint_sees_every_bit_and_the_word_order(
            words in proptest::collection::vec(any::<u64>(), 1..40),
            pick in any::<proptest::sample::Index>(),
            other in any::<proptest::sample::Index>(),
            bit in 0u32..64,
            seed in any::<u64>(),
        ) {
            let w = Weights::new(vec![1]).unwrap();
            let event = EpochEvent::new(1, delta(&[1], &[1]), &w, w.clone(), seed).unwrap();
            let fp = tickets_fingerprint(&words);
            let (i, j) = (pick.index(words.len()), other.index(words.len()));
            let mut flipped = words.clone();
            flipped[i] ^= 1 << bit;
            let flipped_fp = tickets_fingerprint(&flipped);
            prop_assert_ne!(fp, flipped_fp, "bit {} of word {}", bit, i);
            prop_assert_ne!(event.fold_rekey(fp), event.fold_rekey(flipped_fp));
            if words[i] != words[j] {
                let mut swapped = words.clone();
                swapped.swap(i, j);
                prop_assert_ne!(fp, tickets_fingerprint(&swapped), "swap {} and {}", i, j);
            }
        }
    }
}
