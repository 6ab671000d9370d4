//! Virtual-user mapping: running nominal protocols on tickets.
//!
//! Theorem 4.2 and the black-box transformation (Section 4.4) instantiate a
//! nominal protocol with `T` *virtual users* and let party `i` control `t_i`
//! of them. This module provides the deterministic bookkeeping: virtual ids
//! are assigned in party order, so every participant derives the identical
//! mapping from the (common-knowledge) ticket assignment.
//!
//! Epoch reconfiguration hands this module a [`TicketDelta`] — the compact
//! diff between two epochs' ticket assignments — and
//! [`VirtualUsers::apply_delta`] splices only the changed parties' virtual
//! ranges instead of rebuilding the whole mapping.

use serde::{Deserialize, Serialize};

use crate::assignment::{merge_runs, TicketAssignment};
use crate::error::CoreError;

/// A real party's index, as carried inside a [`StableId`]. Party sets are
/// fixed across epochs (a [`TicketDelta`] covers the same parties on both
/// sides), so a `PartyId` never renumbers.
pub type PartyId = u32;

/// The epoch-stable identity of a virtual user: the `offset`-th virtual
/// user controlled by `party`.
///
/// Dense virtual ids are a per-epoch artifact — any [`TicketDelta`] that
/// touches party `i` renumbers every virtual user after `i`'s range.
/// `(party, offset)` is the coordinate that survives: after
/// [`VirtualUsers::apply_delta`], the same `StableId` still names the same
/// logical sub-instance as long as `offset` is below the party's new
/// ticket count. Each quorum set keys votes on `StableId` and wire formats
/// carry `StableId`s, so one logical voter can never be double-counted
/// under its pre- and post-epoch dense ids.
///
/// The ordering is `(party, offset)` lexicographic — the same order dense
/// ids enumerate the users of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StableId {
    /// The controlling party.
    pub party: PartyId,
    /// Position within the party's range (`0..tickets[party]`).
    pub offset: u32,
}

impl StableId {
    /// The identity at `(party, offset)`.
    ///
    /// # Panics
    ///
    /// Panics when either coordinate exceeds the `u32` wire envelope
    /// (party counts and per-party ticket counts far beyond any real
    /// deployment).
    pub fn new(party: usize, offset: u64) -> Self {
        StableId {
            party: PartyId::try_from(party).expect("party id fits the wire envelope"),
            offset: u32::try_from(offset).expect("offset fits the wire envelope"),
        }
    }

    /// The identity of a party acting in its own name (offset 0) — the
    /// form party-keyed weighted protocols use, where the party set is
    /// fixed and every party is its own stable identity.
    pub fn solo(party: usize) -> Self {
        StableId::new(party, 0)
    }

    /// The controlling party as an index.
    pub fn party_ix(&self) -> usize {
        self.party as usize
    }
}

impl std::fmt::Display for StableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.party, self.offset)
    }
}

/// One party's ticket-count change between two epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TicketChange {
    /// The party whose count changed.
    pub party: usize,
    /// Tickets in the old epoch.
    pub old: u64,
    /// Tickets in the new epoch.
    pub new: u64,
}

/// The diff between two epochs' ticket assignments: which parties' ticket
/// counts changed, and by how much — the unit of work an epoch
/// reconfiguration hands to the protocols layer (virtual users joining and
/// leaving) without restarting in-flight instances.
///
/// # Examples
///
/// ```
/// use swiper_core::{TicketAssignment, TicketDelta, VirtualUsers};
///
/// # fn main() -> Result<(), swiper_core::CoreError> {
/// let old = TicketAssignment::new(vec![2, 0, 1]);
/// let new = TicketAssignment::new(vec![1, 2, 1]);
/// let delta = TicketDelta::between(&old, &new)?;
/// assert_eq!(delta.changes().len(), 2);
/// assert_eq!(delta.joining(), 2);
/// assert_eq!(delta.leaving(), 1);
///
/// let mut mapping = VirtualUsers::from_assignment(&old)?;
/// mapping.apply_delta(&delta)?;
/// assert_eq!(mapping, VirtualUsers::from_assignment(&new)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TicketDelta {
    /// Changed parties in ascending party order.
    changes: Vec<TicketChange>,
    parties: usize,
    old_total: u128,
    new_total: u128,
    /// Fingerprint of the *entire* old assignment, so
    /// [`VirtualUsers::apply_delta`] can reject a base that matches the
    /// delta's changed parties but differs elsewhere.
    base_fingerprint: u128,
}

impl TicketDelta {
    /// Diffs two assignments over the same party set.
    ///
    /// # Errors
    ///
    /// [`CoreError::DeltaMismatch`] when the assignments disagree on the
    /// number of parties.
    pub fn between(old: &TicketAssignment, new: &TicketAssignment) -> Result<Self, CoreError> {
        if old.len() != new.len() {
            return Err(CoreError::DeltaMismatch {
                what: "assignments cover different party counts",
            });
        }
        let changes = merge_runs(old.nonzero(), new.nonzero())
            .map(|(party, old, new)| TicketChange {
                party,
                old: old.unwrap_or(0),
                new: new.unwrap_or(0),
            })
            .filter(|c| c.old != c.new)
            .collect();
        Ok(TicketDelta {
            changes,
            parties: old.len(),
            old_total: old.total(),
            new_total: new.total(),
            base_fingerprint: old.fingerprint(),
        })
    }

    /// The changed parties, ascending by party id.
    pub fn changes(&self) -> &[TicketChange] {
        &self.changes
    }

    /// Whether the two epochs have identical assignments.
    pub fn is_unchanged(&self) -> bool {
        self.changes.is_empty()
    }

    /// Number of parties both assignments cover.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Ticket total before the delta.
    pub fn old_total(&self) -> u128 {
        self.old_total
    }

    /// Ticket total after the delta.
    pub fn new_total(&self) -> u128 {
        self.new_total
    }

    /// Virtual users joining (sum of per-party ticket gains).
    pub fn joining(&self) -> u128 {
        self.changes.iter().map(|c| u128::from(c.new.saturating_sub(c.old))).sum()
    }

    /// Virtual users leaving (sum of per-party ticket losses).
    pub fn leaving(&self) -> u128 {
        self.changes.iter().map(|c| u128::from(c.old.saturating_sub(c.new))).sum()
    }

    /// Applies this delta to the assignment it was diffed against,
    /// producing the new epoch's assignment — the assignment-level twin of
    /// [`VirtualUsers::apply_delta`] (which goes through it), for consumers
    /// that track tickets rather than mappings (e.g. re-dealing
    /// epoch-pinned keys). The delta may arrive deserialized, so it is
    /// validated first: party count, full-base fingerprint, well-formed
    /// ascending changes that agree with the base, declared new total.
    ///
    /// # Errors
    ///
    /// [`CoreError::DeltaMismatch`] when `base` is not the one this delta
    /// was diffed against, or the (possibly deserialized) changes list is
    /// malformed.
    pub fn apply_to(&self, base: &TicketAssignment) -> Result<TicketAssignment, CoreError> {
        if self.parties != base.len() {
            return Err(CoreError::DeltaMismatch {
                what: "delta covers a different party count",
            });
        }
        // Fingerprint of the *whole* base: a delta diffed against an
        // assignment that differs anywhere — even at parties it does not
        // touch — must be rejected, or the splice would fabricate a
        // vector no epoch ever published.
        if self.base_fingerprint != base.fingerprint() {
            return Err(CoreError::DeltaMismatch {
                what: "delta base does not match the current tickets",
            });
        }
        let mut new_total = base.total();
        let mut prev_party: Option<usize> = None;
        for change in &self.changes {
            if change.party >= base.len() {
                return Err(CoreError::DeltaMismatch {
                    what: "change targets an unknown party",
                });
            }
            if prev_party.is_some_and(|p| p >= change.party) {
                return Err(CoreError::DeltaMismatch {
                    what: "changes are not in ascending party order",
                });
            }
            prev_party = Some(change.party);
            if base.get(change.party) != change.old {
                return Err(CoreError::DeltaMismatch {
                    what: "change disagrees with the current tickets",
                });
            }
            new_total = new_total - u128::from(change.old) + u128::from(change.new);
        }
        if new_total != self.new_total {
            return Err(CoreError::DeltaMismatch {
                what: "declared new total disagrees with the changes",
            });
        }
        let changed = self.changes.iter().map(|c| (c.party, c.new));
        // Validated: every party is below `base.len()`, which fits u32.
        let run = merge_runs(base.nonzero(), changed)
            .map(|(party, old, new)| (party as u32, new.or(old).unwrap_or(0)));
        Ok(TicketAssignment::from_run(base.len(), run))
    }
}

/// A deterministic bijection between `T` virtual users and the real parties
/// controlling them.
///
/// # Examples
///
/// ```
/// use swiper_core::{TicketAssignment, VirtualUsers};
///
/// # fn main() -> Result<(), swiper_core::CoreError> {
/// let tickets = TicketAssignment::new(vec![2, 0, 1]);
/// let vu = VirtualUsers::from_assignment(&tickets)?;
/// assert_eq!(vu.total(), 3);
/// assert_eq!(vu.owner_of(0), 0);
/// assert_eq!(vu.owner_of(1), 0);
/// assert_eq!(vu.owner_of(2), 2);
/// assert_eq!(vu.virtuals_of(0).collect::<Vec<_>>(), vec![0, 1]);
/// assert!(vu.virtuals_of(1).next().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtualUsers {
    /// `owner[v]` = real party controlling virtual user `v`, ascending,
    /// so a party's virtual ids are one run of it.
    owner: Vec<usize>,
    tickets: TicketAssignment,
}

impl VirtualUsers {
    /// Builds the mapping from a ticket assignment.
    ///
    /// # Errors
    ///
    /// [`CoreError::ArithmeticOverflow`] when the total does not fit into
    /// addressable memory (`usize`).
    pub fn from_assignment(tickets: &TicketAssignment) -> Result<Self, CoreError> {
        let total =
            usize::try_from(tickets.total()).map_err(|_| CoreError::ArithmeticOverflow)?;
        let mut owner = Vec::with_capacity(total);
        for (party, t) in tickets.nonzero() {
            // `t <= total`, which fits usize.
            owner.extend(std::iter::repeat_n(party, t as usize));
        }
        Ok(VirtualUsers { owner, tickets: tickets.clone() })
    }

    /// Virtual ids of party `i`: its range, empty for a non-holder.
    /// Panics if `i >= self.parties()`.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        assert!(i < self.parties(), "party {i} out of bounds for {} parties", self.parties());
        self.owner.partition_point(|&p| p < i)..self.owner.partition_point(|&p| p <= i)
    }

    /// Number of virtual users `T`.
    pub fn total(&self) -> usize {
        self.owner.len()
    }

    /// Number of real parties `n`.
    pub fn parties(&self) -> usize {
        self.tickets.len()
    }

    /// The real party controlling virtual user `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.total()`.
    pub fn owner_of(&self, v: usize) -> usize {
        self.owner[v]
    }

    /// The virtual users controlled by party `i` (possibly empty).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.parties()`.
    pub fn virtuals_of(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.span(i)
    }

    /// Tickets (= number of virtual users) of party `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.parties()`.
    pub fn tickets_of(&self, i: usize) -> u64 {
        self.tickets.get(i)
    }

    /// The ticket assignment the mapping is built over.
    pub fn assignment(&self) -> &TicketAssignment {
        &self.tickets
    }

    /// Locates virtual user `v` as `(owner, offset)` — the controlling
    /// party and `v`'s position within that party's range. The inverse of
    /// [`VirtualUsers::at`]. Offsets are the epoch-stable coordinate of a
    /// virtual user: after [`VirtualUsers::apply_delta`] renumbers the
    /// dense ids, `(owner, offset)` still names the same surviving
    /// sub-instance as long as `offset` is below the owner's new ticket
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.total()`.
    pub fn locate(&self, v: usize) -> (usize, u64) {
        let owner = self.owner[v];
        (owner, (v - self.span(owner).start) as u64)
    }

    /// The virtual id at `(party, offset)`, or `None` when the offset is
    /// at or beyond the party's ticket count. The inverse of
    /// [`VirtualUsers::locate`].
    ///
    /// # Panics
    ///
    /// Panics if `party >= self.parties()`.
    pub fn at(&self, party: usize, offset: u64) -> Option<usize> {
        let span = self.span(party);
        usize::try_from(offset).ok().filter(|&o| o < span.len()).map(|o| span.start + o)
    }

    /// The epoch-stable identity of virtual user `v` under this epoch's
    /// numbering — [`VirtualUsers::locate`] packaged as a [`StableId`].
    /// The inverse of [`VirtualUsers::dense_of`] over live ids.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.total()` or the coordinate exceeds the
    /// [`StableId`] wire envelope.
    pub fn stable_of(&self, v: usize) -> StableId {
        let (party, offset) = self.locate(v);
        StableId::new(party, offset)
    }

    /// The dense virtual id currently backing `id`, or `None` when the
    /// identity is retired (offset at or beyond the party's ticket count)
    /// or names an unknown party. The inverse of
    /// [`VirtualUsers::stable_of`]. Unlike [`VirtualUsers::at`] this never
    /// panics — `id` may come straight off the wire.
    pub fn dense_of(&self, id: StableId) -> Option<usize> {
        let party = id.party_ix();
        if party >= self.parties() {
            return None;
        }
        self.at(party, u64::from(id.offset))
    }

    /// Whether `id` names a live virtual user in this epoch.
    pub fn contains(&self, id: StableId) -> bool {
        self.dense_of(id).is_some()
    }

    /// Whether party `i` controls no virtual user — such parties must learn
    /// protocol outputs from ticket holders (Section 4.4's relay step).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.parties()`.
    pub fn is_spectator(&self, i: usize) -> bool {
        self.tickets.get(i) == 0
    }

    /// Parties holding at least one virtual user.
    pub fn holders(&self) -> impl Iterator<Item = usize> + '_ {
        self.tickets.nonzero().map(|(party, _)| party)
    }

    /// Applies an epoch's [`TicketDelta`] in place, splicing only the
    /// changed parties' virtual ranges. Equivalent to rebuilding via
    /// [`VirtualUsers::from_assignment`] on the new assignment, but the
    /// unchanged prefix of the owner table is never touched and unchanged
    /// parties keep their relative ranges.
    ///
    /// Virtual ids stay dense and party-ordered, so ids *after* the first
    /// changed party shift — callers translate in-flight per-virtual state
    /// through the returned mapping, exactly as they would after a rebuild.
    ///
    /// # Errors
    ///
    /// [`CoreError::DeltaMismatch`] when the delta was diffed against a
    /// different party count or a different base assignment than `self`
    /// (the mapping is left untouched in that case);
    /// [`CoreError::ArithmeticOverflow`] when the new total does not fit
    /// addressable memory.
    pub fn apply_delta(&mut self, delta: &TicketDelta) -> Result<(), CoreError> {
        // `apply_to` validates the (possibly deserialized) delta.
        let next = delta.apply_to(&self.tickets)?;
        usize::try_from(next.total()).map_err(|_| CoreError::ArithmeticOverflow)?;
        // Splice in descending party order so the untouched spans stay
        // valid for every party still to be processed.
        for change in delta.changes().iter().rev() {
            let start = self.span(change.party).start;
            let old = usize::try_from(change.old).map_err(|_| CoreError::ArithmeticOverflow)?;
            let new = usize::try_from(change.new).map_err(|_| CoreError::ArithmeticOverflow)?;
            self.owner.splice(start..start + old, std::iter::repeat_n(change.party, new));
        }
        self.tickets = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::tickets_fingerprint;
    use proptest::prelude::*;

    #[test]
    fn round_trip_owner_and_virtuals() {
        let t = TicketAssignment::new(vec![3, 0, 2, 1]);
        let vu = VirtualUsers::from_assignment(&t).unwrap();
        assert_eq!(vu.total(), 6);
        assert_eq!(vu.parties(), 4);
        for party in 0..4 {
            for v in vu.virtuals_of(party) {
                assert_eq!(vu.owner_of(v), party);
            }
        }
        assert!(vu.is_spectator(1));
        assert!(!vu.is_spectator(0));
        assert_eq!(vu.holders().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn empty_tickets() {
        let t = TicketAssignment::new(vec![0, 0]);
        let vu = VirtualUsers::from_assignment(&t).unwrap();
        assert_eq!(vu.total(), 0);
        assert!(vu.holders().next().is_none());
    }

    #[test]
    fn delta_between_reports_changes_and_flows() {
        let old = TicketAssignment::new(vec![3, 0, 2, 1]);
        let new = TicketAssignment::new(vec![3, 2, 0, 1]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        assert_eq!(
            delta.changes(),
            &[
                TicketChange { party: 1, old: 0, new: 2 },
                TicketChange { party: 2, old: 2, new: 0 }
            ]
        );
        assert_eq!(delta.joining(), 2);
        assert_eq!(delta.leaving(), 2);
        assert_eq!((delta.old_total(), delta.new_total()), (6, 6));
        assert!(!delta.is_unchanged());
        assert!(TicketDelta::between(&old, &old).unwrap().is_unchanged());
        let short = TicketAssignment::new(vec![1, 1]);
        assert!(matches!(
            TicketDelta::between(&old, &short),
            Err(CoreError::DeltaMismatch { .. })
        ));
    }

    #[test]
    fn apply_delta_rejects_stale_bases() {
        let old = TicketAssignment::new(vec![2, 2, 1]);
        let new = TicketAssignment::new(vec![2, 3, 1]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        // Same party count, different base tickets at the changed party.
        let mut vu =
            VirtualUsers::from_assignment(&TicketAssignment::new(vec![2, 1, 1])).unwrap();
        assert!(matches!(vu.apply_delta(&delta), Err(CoreError::DeltaMismatch { .. })));
        // Same values at changed parties but different total elsewhere.
        let mut vu =
            VirtualUsers::from_assignment(&TicketAssignment::new(vec![9, 2, 1])).unwrap();
        assert!(matches!(vu.apply_delta(&delta), Err(CoreError::DeltaMismatch { .. })));
        // Same total AND matching values at the changed party, but the
        // unchanged parties differ ([1, 2, 2] vs the true base [2, 2, 1]) —
        // only the full-base fingerprint catches this one.
        let mut vu =
            VirtualUsers::from_assignment(&TicketAssignment::new(vec![1, 2, 2])).unwrap();
        assert!(matches!(vu.apply_delta(&delta), Err(CoreError::DeltaMismatch { .. })));
        // Wrong party count.
        let mut vu = VirtualUsers::from_assignment(&TicketAssignment::new(vec![2, 2])).unwrap();
        assert!(matches!(vu.apply_delta(&delta), Err(CoreError::DeltaMismatch { .. })));
    }

    #[test]
    fn apply_to_produces_the_new_assignment_and_rejects_stale_bases() {
        let old = TicketAssignment::new(vec![3, 0, 2, 1]);
        let new = TicketAssignment::new(vec![3, 2, 0, 1]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        assert_eq!(delta.apply_to(&old).unwrap(), new);
        // A base the delta was not diffed against is rejected.
        let other = TicketAssignment::new(vec![3, 0, 2, 2]);
        assert!(matches!(delta.apply_to(&other), Err(CoreError::DeltaMismatch { .. })));
        let short = TicketAssignment::new(vec![3, 0]);
        assert!(matches!(delta.apply_to(&short), Err(CoreError::DeltaMismatch { .. })));
        // Tampered changes never corrupt the output.
        let mut forged = delta.clone();
        forged.changes = vec![TicketChange { party: 9, old: 0, new: 1 }];
        assert!(matches!(forged.apply_to(&old), Err(CoreError::DeltaMismatch { .. })));
    }

    #[test]
    fn apply_delta_rejects_malformed_changes() {
        // Deltas can arrive deserialized, so a well-fingerprinted delta
        // with a tampered changes list must still be rejected — never
        // panic or corrupt the mapping.
        let old = TicketAssignment::new(vec![2, 2, 1]);
        let new = TicketAssignment::new(vec![2, 3, 1]);
        let good = TicketDelta::between(&old, &new).unwrap();
        let fresh = || VirtualUsers::from_assignment(&old).unwrap();

        let mut forged = good.clone();
        forged.changes = vec![TicketChange { party: 9, old: 2, new: 3 }];
        assert!(matches!(fresh().apply_delta(&forged), Err(CoreError::DeltaMismatch { .. })));

        let mut forged = good.clone();
        forged.changes = vec![TicketChange { party: 0, old: 999, new: 0 }];
        assert!(matches!(fresh().apply_delta(&forged), Err(CoreError::DeltaMismatch { .. })));

        let mut forged = good.clone();
        forged.changes = vec![
            TicketChange { party: 1, old: 2, new: 3 },
            TicketChange { party: 1, old: 2, new: 3 },
        ];
        assert!(matches!(fresh().apply_delta(&forged), Err(CoreError::DeltaMismatch { .. })));

        let mut forged = good.clone();
        forged.new_total = 1;
        assert!(matches!(fresh().apply_delta(&forged), Err(CoreError::DeltaMismatch { .. })));

        // The untampered delta still applies.
        let mut vu = fresh();
        vu.apply_delta(&good).unwrap();
        assert_eq!(vu, VirtualUsers::from_assignment(&new).unwrap());
    }

    /// Chunks of a sparse ticket vector: a zero run of up to 2 000 slots,
    /// then up to five word codes (see [`sparse_words`]).
    fn sparse_chunks() -> impl Strategy<Value = Vec<(usize, Vec<u64>)>> {
        proptest::collection::vec(
            (0usize..2_000, proptest::collection::vec(0u64..6, 0..6)),
            0..8,
        )
    }

    /// The vector the chunks spell: each zero run, then its words, code
    /// `c` standing for `[0, 1, 2, 3, u64::MAX, 2⁴⁰][c]`.
    fn sparse_words(chunks: &[(usize, Vec<u64>)]) -> Vec<u64> {
        const WORDS: [u64; 6] = [0, 1, 2, 3, u64::MAX, 1 << 40];
        let mut v = Vec::new();
        for (zeros, codes) in chunks {
            v.extend(std::iter::repeat_n(0, *zeros));
            v.extend(codes.iter().map(|&c| WORDS[c as usize]));
        }
        v
    }

    proptest! {
        /// An assignment's fingerprint and a delta's base fingerprint,
        /// folded from the holders alone, equal the fold over every slot.
        #[test]
        fn run_fingerprints_match_the_word_fold(chunks in sparse_chunks()) {
            let v = sparse_words(&chunks);
            let want = tickets_fingerprint(&v);
            let base = TicketAssignment::new(v);
            prop_assert_eq!(base.fingerprint(), want);
            let delta = TicketDelta::between(&base, &base).unwrap();
            prop_assert_eq!(delta.base_fingerprint, want);
        }

        #[test]
        fn apply_delta_matches_full_rebuild(
            old in proptest::collection::vec(0u64..9, 1..24),
            new in proptest::collection::vec(0u64..9, 1..24),
        ) {
            // Diff/apply over the common prefix length so the shapes match.
            let n = old.len().min(new.len());
            let old = TicketAssignment::new(old[..n].to_vec());
            let new = TicketAssignment::new(new[..n].to_vec());
            let delta = TicketDelta::between(&old, &new).unwrap();
            let mut incremental = VirtualUsers::from_assignment(&old).unwrap();
            incremental.apply_delta(&delta).unwrap();
            let rebuilt = VirtualUsers::from_assignment(&new).unwrap();
            prop_assert_eq!(incremental, rebuilt);
        }

        /// Epoch chains compose: applying k consecutive deltas one by one
        /// is the same mapping as a single rebuild from the final
        /// snapshot — the invariant live-instance reconfiguration leans on
        /// when it splices epoch after epoch into the same mapping.
        #[test]
        fn k_consecutive_deltas_compose_to_final_rebuild(
            base in proptest::collection::vec(0u64..9, 1..16),
            epochs in proptest::collection::vec(
                proptest::collection::vec(0u64..9, 16), 1..6),
        ) {
            let n = base.len();
            let mut current = TicketAssignment::new(base);
            let mut incremental = VirtualUsers::from_assignment(&current).unwrap();
            for epoch in &epochs {
                let next = TicketAssignment::new(epoch[..n].to_vec());
                let delta = TicketDelta::between(&current, &next).unwrap();
                incremental.apply_delta(&delta).unwrap();
                current = next;
            }
            let rebuilt = VirtualUsers::from_assignment(&current).unwrap();
            prop_assert_eq!(incremental, rebuilt);
        }

        /// Stable identities survive arbitrary delta chains: for every
        /// epoch along a random k-delta chain, `stable_of ∘ dense_of` is
        /// the identity on live ids, and an id that was live in the base
        /// epoch resolves after the whole chain **iff** its offset is
        /// still below its party's final ticket count — in which case it
        /// names the same `(party, offset)` coordinate it always did.
        /// This is the invariant that lets quorum tallies keyed on
        /// `StableId` carry votes across renumbering epochs.
        #[test]
        fn stable_ids_round_trip_across_delta_chains(
            base in proptest::collection::vec(0u64..9, 1..16),
            epochs in proptest::collection::vec(
                proptest::collection::vec(0u64..9, 16), 1..6),
        ) {
            let n = base.len();
            let mut current = TicketAssignment::new(base);
            let base_map = VirtualUsers::from_assignment(&current).unwrap();
            let base_ids: Vec<StableId> =
                (0..base_map.total()).map(|v| base_map.stable_of(v)).collect();
            let mut mapping = base_map.clone();
            for epoch in &epochs {
                let next = TicketAssignment::new(epoch[..n].to_vec());
                let delta = TicketDelta::between(&current, &next).unwrap();
                mapping.apply_delta(&delta).unwrap();
                current = next;
                // Per-epoch bijection between live dense ids and stable ids.
                for v in 0..mapping.total() {
                    let id = mapping.stable_of(v);
                    prop_assert_eq!(mapping.dense_of(id), Some(v));
                }
            }
            // Survivors of the whole chain keep their coordinate; retirees
            // resolve to nothing.
            for id in base_ids {
                let survives = u64::from(id.offset) < mapping.tickets_of(id.party_ix());
                prop_assert_eq!(mapping.contains(id), survives);
                if let Some(v) = mapping.dense_of(id) {
                    prop_assert_eq!(mapping.stable_of(v), id);
                }
            }
            // Unknown parties never resolve (wire inputs must not panic).
            prop_assert_eq!(mapping.dense_of(StableId::new(n, 0)), None);
        }

        /// `locate` and `at` are inverse bijections over live ids.
        #[test]
        fn locate_at_round_trip(ts in proptest::collection::vec(0u64..9, 1..16)) {
            let vu = VirtualUsers::from_assignment(&TicketAssignment::new(ts)).unwrap();
            for v in 0..vu.total() {
                let (owner, offset) = vu.locate(v);
                prop_assert_eq!(vu.at(owner, offset), Some(v));
            }
            for party in 0..vu.parties() {
                prop_assert_eq!(vu.at(party, vu.tickets_of(party)), None);
            }
        }

        #[test]
        fn mapping_is_a_partition(ts in proptest::collection::vec(0u64..20, 1..20)) {
            let t = TicketAssignment::new(ts);
            let vu = VirtualUsers::from_assignment(&t).unwrap();
            // Every virtual id appears in exactly one party's range.
            let mut seen = vec![0u32; vu.total()];
            for party in 0..vu.parties() {
                prop_assert_eq!(vu.virtuals_of(party).count() as u64, vu.tickets_of(party));
                for v in vu.virtuals_of(party) {
                    seen[v] += 1;
                    prop_assert_eq!(vu.owner_of(v), party);
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));
        }
    }
}
