//! Ticket-dealt threshold keys: the one step under the weighted beacon and
//! coin (paper Section 4.1), tight actions (Section 4.3), VBA's leader
//! election, the SMR beacon and checkpoints (Section 6).
//!
//! Party `i` holds the key shares of its `t_i` virtual users, and a
//! combine needs a ticket threshold of them. [`TicketKeys`] deals (or
//! takes a DKG's output), signs a party's partials, combines and verifies,
//! names the owner of a beacon draw and reshares across an epoch; the
//! crate's automata collect one tag's verified partials, deduplicated by
//! share index, in a `Shares`, which yields the unique signature once, at
//! the threshold. Each caller computes its own threshold —
//! `ceil(alpha_n T)` for the beacon, a strict majority for the rest.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swiper_core::{TicketAssignment, VirtualUsers};
use swiper_crypto::thresh::{
    KeyShare, PartialSignature, PublicKey, Signature, ThresholdScheme,
};

/// A strict majority of `tickets`' total: out of reach below half the
/// tickets, and held by the honest side of a WR(f_w, 1/2) assignment.
///
/// # Panics
///
/// Panics if the total does not fit memory.
pub(crate) fn majority(tickets: &TicketAssignment) -> usize {
    usize::try_from(tickets.total()).expect("fits memory") / 2 + 1
}

/// Threshold keys dealt to the virtual users of a ticket assignment.
#[derive(Debug, Clone)]
pub struct TicketKeys {
    mapping: VirtualUsers,
    scheme: ThresholdScheme,
    pk: PublicKey,
    /// Virtual user `v`'s share is `shares[v]`; party `p` holds
    /// `mapping.virtuals_of(p)`.
    shares: Vec<KeyShare>,
}

impl TicketKeys {
    /// Trusted-dealer keys over `tickets`' virtual users, any `threshold`
    /// of which sign.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold <= T`.
    pub fn deal<R: Rng + ?Sized>(
        tickets: &TicketAssignment,
        threshold: usize,
        rng: &mut R,
    ) -> Self {
        let mapping = VirtualUsers::from_assignment(tickets).expect("fits memory");
        let scheme =
            ThresholdScheme::new(threshold, mapping.total()).expect("0 < threshold <= T");
        let (pk, shares) = scheme.keygen(rng);
        TicketKeys { mapping, scheme, pk, shares }
    }

    /// Keys made elsewhere — a DKG's aggregate — handed to `tickets`'
    /// virtual users (share `v` to the owner of `v`), any `threshold` of
    /// which sign.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold <= T` and the shares cover exactly the
    /// `T` virtual users.
    pub fn over(
        tickets: &TicketAssignment,
        threshold: usize,
        pk: PublicKey,
        shares: Vec<KeyShare>,
    ) -> Self {
        let mapping = VirtualUsers::from_assignment(tickets).expect("fits memory");
        assert_eq!(shares.len(), mapping.total(), "share/mapping mismatch");
        let scheme =
            ThresholdScheme::new(threshold, mapping.total()).expect("0 < threshold <= T");
        TicketKeys { mapping, scheme, pk, shares }
    }

    /// Fresh shares of the same group secret over `tickets`' virtual
    /// users, any `threshold` of which sign, drawn from `seed`: every
    /// replica that reshares with the same seed holds the same keys. The
    /// group key, and so every tag's unique signature, survives; the old
    /// generation's partials stop verifying.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold <= T`.
    pub fn reshare(&self, tickets: &TicketAssignment, threshold: usize, seed: u64) -> Self {
        let mapping = VirtualUsers::from_assignment(tickets).expect("fits memory");
        let scheme =
            ThresholdScheme::new(threshold, mapping.total()).expect("0 < threshold <= T");
        let (pk, shares) = scheme
            .reshare(&self.scheme, &self.pk, &self.shares, &mut StdRng::seed_from_u64(seed))
            .expect("the dealt generation holds a recovery quorum");
        TicketKeys { mapping, scheme, pk, shares }
    }

    /// The virtual-user mapping the keys are dealt over.
    pub fn mapping(&self) -> &VirtualUsers {
        &self.mapping
    }

    /// How many distinct shares a combine needs.
    pub fn threshold(&self) -> usize {
        self.scheme.threshold()
    }

    /// `party`'s partial signatures over `tag`, one per virtual user it
    /// holds.
    ///
    /// # Panics
    ///
    /// Panics if `party` is out of range.
    pub fn partials(&self, party: usize, tag: &[u8]) -> Vec<PartialSignature> {
        self.mapping
            .virtuals_of(party)
            .map(|v| self.scheme.partial_sign(&self.shares[v], tag))
            .collect()
    }

    /// The signature over `tag` that the first `threshold` of `partials`
    /// combine to, if it verifies; `None` below the threshold or on a
    /// repeated index.
    pub fn combine(&self, tag: &[u8], partials: &[PartialSignature]) -> Option<Signature> {
        let sig = self.scheme.combine(partials).ok()?;
        self.verify(tag, &sig).then_some(sig)
    }

    /// Whether `sig` is the group's signature over `tag`.
    pub fn verify(&self, tag: &[u8], sig: &Signature) -> bool {
        self.scheme.verify(&self.pk, tag, sig)
    }

    /// The owner of virtual user `beacon_output(sig) mod T`: a party drawn
    /// with probability proportional to its tickets, the SMR and VBA
    /// leader rule.
    pub fn owner_of(&self, sig: &Signature) -> usize {
        let total = self.mapping.total() as u64;
        self.mapping.owner_of((sig.beacon_output().to_u64() % total) as usize)
    }
}

/// One tag's verified partials, deduplicated by share index, and the
/// signature they combine to once they reach the threshold.
#[derive(Debug)]
pub(crate) struct Shares {
    tag: Vec<u8>,
    partials: Vec<PartialSignature>,
    seen: HashSet<u64>,
    signature: Option<Signature>,
}

impl Shares {
    /// An empty collector for partials over `tag`.
    pub(crate) fn new(tag: Vec<u8>) -> Self {
        Shares { tag, partials: Vec::new(), seen: HashSet::new(), signature: None }
    }

    /// Keeps each of `partials` that verifies under `keys` and carries a
    /// new share index. Returns the signature the first time the kept
    /// partials reach the threshold, and `None` before and after.
    pub(crate) fn add(
        &mut self,
        keys: &TicketKeys,
        partials: impl IntoIterator<Item = PartialSignature>,
    ) -> Option<Signature> {
        if self.signature.is_some() {
            return None;
        }
        for p in partials {
            if keys.scheme.verify_partial(&keys.pk, &self.tag, &p) && self.seen.insert(p.index)
            {
                self.partials.push(p);
            }
        }
        if self.partials.len() < keys.threshold() {
            return None;
        }
        self.signature = keys.combine(&self.tag, &self.partials);
        self.signature
    }

    /// The signature, once the threshold was reached.
    pub(crate) fn signature(&self) -> Option<Signature> {
        self.signature
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aba::AbaSetup;
    use crate::beacon::BeaconSetup;
    use crate::quorum::Roster;
    use swiper_core::{EpochEvent, Ratio, TicketDelta, Weights};
    use swiper_crypto::Hasher;

    /// A digest of the group key, every share key and each party's shares.
    fn fingerprint(keys: &TicketKeys) -> u64 {
        let mut h = Hasher::new();
        for x in [keys.pk.h, keys.pk.group].iter().chain(&keys.pk.per_share) {
            h.update(&x.value().to_le_bytes());
        }
        for party in 0..keys.mapping.parties() {
            let held: Vec<&KeyShare> =
                keys.mapping.virtuals_of(party).map(|v| &keys.shares[v]).collect();
            h.update(&(held.len() as u64).to_le_bytes());
            for s in held {
                h.update(&s.index.to_le_bytes());
                h.update(&s.value.value().to_le_bytes());
            }
        }
        h.finalize().to_u64()
    }

    /// Every dealing path deals the keys it dealt before the paths shared
    /// this module: the values were taken from the per-site dealings they
    /// replace. A change to `keygen`'s or `reshare`'s draws, to a
    /// threshold rule or to a re-deal seed fails it.
    #[test]
    fn dealings_are_pinned() {
        let tickets = TicketAssignment::new(vec![4, 0, 3, 2, 1]);
        let weights = Weights::new(vec![40, 5, 25, 20, 10]).unwrap();
        let check = |what: &str, keys: &TicketKeys, threshold: usize, pin: u64| {
            assert_eq!(keys.threshold(), threshold, "{what}");
            assert_eq!(fingerprint(keys), pin, "{what}: {:#018x}", fingerprint(keys));
        };
        // The beacon's ceil(alpha_n T) rule: 5 of 10, not a majority.
        let beacon =
            BeaconSetup::deal(&tickets, Ratio::of(1, 2), &mut StdRng::seed_from_u64(7));
        check("beacon", &beacon.keys, 5, 0x8b85_dac2_9706_3af4);
        let dealt =
            TicketKeys::deal(&tickets, majority(&tickets), &mut StdRng::seed_from_u64(7));
        check("majority", &dealt, 6, 0x9a74_4e5d_a834_4876);
        check("smr", &crate::smr::deal_beacon(&tickets, 0x5EED), 6, 0x1db3_af3f_a940_7548);

        // ABA's party-regime re-deal, over the new tickets.
        let mut party =
            AbaSetup::deal(weights.clone(), &tickets, 9, &mut StdRng::seed_from_u64(7));
        let next = TicketAssignment::new(vec![3, 1, 3, 2, 2]);
        let delta = TicketDelta::between(&tickets, &next).unwrap();
        let event = EpochEvent::new(1, delta, &weights, weights.clone(), 0xC0FFEE).unwrap();
        assert_eq!(party.on_epoch(&event), Some(true));
        check("aba party re-deal", party.keys(), 6, 0xc9b5_220d_872d_c103);

        // ABA's roster-regime re-deal, one share per virtual user.
        let old = TicketAssignment::new(vec![2, 2, 2]);
        let new = TicketAssignment::new(vec![3, 1, 2]);
        let w3 = Weights::new(vec![40, 35, 25]).unwrap();
        let delta = TicketDelta::between(&old, &new).unwrap();
        let event = EpochEvent::new(1, delta.clone(), &w3, w3.clone(), 7).unwrap();
        let roster = Roster::new(VirtualUsers::from_assignment(&old).unwrap());
        let mut hosted =
            AbaSetup::nominal(6, 3, &mut StdRng::seed_from_u64(3)).with_roster(roster.clone());
        roster.apply_delta(&delta).unwrap();
        assert_eq!(hosted.on_epoch(&event), Some(true));
        check("aba roster re-deal", hosted.keys(), 4, 0x4cd6_19c9_f2c3_38e7);
    }

    #[test]
    fn shares_reject_forged_duplicate_and_foreign_partials() {
        // Party 0 holds 3 of 6 shares, party 1 holds 2 and party 2 one; 4
        // sign.
        let tickets = TicketAssignment::new(vec![3, 2, 1]);
        let keys = TicketKeys::deal(&tickets, 4, &mut StdRng::seed_from_u64(11));
        let tag = b"round-5".to_vec();
        let mut shares = Shares::new(tag.clone());

        let mut forged = keys.partials(1, &tag)[0];
        forged.value = forged.value + swiper_field::F61::new(1);
        let foreign = keys.partials(1, b"round-6");
        assert_eq!(shares.add(&keys, [forged]), None);
        assert_eq!(shares.add(&keys, foreign), None);
        assert_eq!(shares.partials.len(), 0, "a forged or foreign partial is kept");

        // Party 0's three, then the same three again: still below 4.
        let own = keys.partials(0, &tag);
        assert_eq!(shares.add(&keys, own.clone()), None);
        assert_eq!(shares.add(&keys, own), None);
        assert_eq!(shares.partials.len(), 3, "a duplicate index is kept");

        // Party 1's two cross the threshold: the signature, exactly once.
        let sig = shares.add(&keys, keys.partials(1, &tag)).expect("the threshold is met");
        assert!(keys.verify(&tag, &sig));
        assert_eq!(shares.signature(), Some(sig));
        assert_eq!(shares.add(&keys, keys.partials(2, &tag)), None);
        assert_eq!(shares.signature(), Some(sig));
        // Any quorum combines to the same unique signature.
        let mut others = keys.partials(1, &tag);
        others.extend(keys.partials(2, &tag));
        others.extend(keys.partials(0, &tag).into_iter().take(1));
        assert_eq!(keys.combine(&tag, &others), Some(sig));
    }

    #[test]
    fn reshared_keys_keep_every_signature_and_retire_old_partials() {
        let tickets = TicketAssignment::new(vec![3, 2, 1]);
        let keys =
            TicketKeys::deal(&tickets, majority(&tickets), &mut StdRng::seed_from_u64(2));
        let next = TicketAssignment::new(vec![1, 1, 1, 1]);
        let fresh = keys.reshare(&next, majority(&next), 99);
        assert_eq!(fresh.mapping().total(), 4);
        let tag = b"straddling".to_vec();
        let old_sig = keys.combine(
            &tag,
            &keys
                .partials(0, &tag)
                .into_iter()
                .chain(keys.partials(1, &tag))
                .collect::<Vec<_>>(),
        );
        let new: Vec<_> = (0..3).flat_map(|p| fresh.partials(p, &tag)).collect();
        assert_eq!(fresh.combine(&tag, &new), old_sig);
        assert!(old_sig.is_some());
        let mut stale = Shares::new(tag.clone());
        assert_eq!(stale.add(&fresh, keys.partials(0, &tag)), None);
        assert_eq!(stale.partials.len(), 0, "an old-generation partial verifies");
        assert_eq!(fingerprint(&fresh), fingerprint(&keys.reshare(&next, 3, 99)));
    }
}
