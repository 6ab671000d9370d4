//! Weighted voting (paper Section 1.2): quorums with exact rational
//! thresholds, keyed on **epoch-stable identities**.
//!
//! Converting a protocol from "wait for `2t+1` parties" to "wait for
//! parties holding more than a `2/3` fraction of the weight" is the
//! *weighted voting* strategy. Both forms are one comparison,
//! `tally · den > num · base`: an [`Electorate`] says what a vote weighs
//! (one, or the voter's stake) and what the base is (the party count, the
//! total stake `W`, or a roster's population), and a [`QuorumSet`] keeps
//! per key only its voters and their tally.
//!
//! # Epoch boundaries
//!
//! An epoch boundary changes the stake or the roster under the quorum
//! test. An automaton keeps its quorums in one [`QuorumSet`], keyed by
//! what they count (a phase and a digest, a round and a value), and hands
//! each boundary to [`QuorumSet::on_epoch`]. That call refreshes the
//! electorate once (the event's weights, or the roster's new population),
//! re-tallies every key (shedding retired voters in the roster regime)
//! and reports the keys whose quorum the boundary completed. The
//! automaton fires those through the same transition its vote path calls:
//! honest peers vote exactly once, so no later vote would re-run it, and
//! the peers already hold every vote this node cast. The one exception is
//! a virtual user the boundary spawned ([`IdentityView::joiners`]): it
//! missed everything said before it, so epochal automata re-send their
//! own votes to it, and only to it.
//!
//! # Cross-epoch identity
//!
//! Votes are keyed by [`StableId`] — `(party, offset)` — never by dense
//! per-epoch indices. Dense virtual ids renumber whenever a
//! [`TicketDelta`] touches an earlier party, so
//! a dense-keyed tally would count one logical voter under both its
//! pre- and post-epoch ids (double-counting) while freezing in the weight
//! of voters that have since retired. Stable keying makes vote survival
//! automatic; an epoch crossing only needs [`QuorumSet::on_epoch`] to take
//! the new population as the base and shed retired voters.
//!
//! Two identity regimes exist, captured by [`IdentityView`]:
//!
//! * **party-keyed** protocols (weighted Bracha, AVID acks, vote-then-act,
//!   vouching) vote as [`StableId::solo`] — party sets are fixed across
//!   epochs, so these identities never retire;
//! * **virtual-user-keyed** nominal protocols hosted by the black-box
//!   transformation resolve delivery-time dense ids through a shared
//!   [`Roster`], the per-replica identity directory the wrapper splices
//!   each epoch's delta into.
//!
//! Identity *validation* (spoof checks, membership of the wire sender) is
//! the hosting protocol's job — the simulator guarantees `from` is the
//! real wire sender, and the black-box wrapper rejects inner messages
//! whose claimed identity is not owned by the wire sender. A quorum set
//! counts whatever distinct identities it is handed.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

use swiper_core::wide::cmp_mul;
use swiper_core::{
    CoreError, EpochEvent, Ratio, StableId, TicketAssignment, TicketDelta, VirtualUsers,
    Weights,
};

/// A shared, epoch-aware identity directory: one replica's view of the
/// current virtual-user mapping, shared between a black-box wrapper and
/// the nominal automata it hosts so that *one* [`Roster::apply_delta`] at
/// the epoch boundary atomically re-keys every component's identity
/// resolution.
///
/// The handle is `Arc<Mutex<_>>`-backed (rather than `Rc<RefCell<_>>`) so
/// that roster-carrying automata are `Send` and can be hosted by the
/// threaded runtime as well as the simulator. The lock is uncontended in
/// practice — a roster is shared only *within* one node, and a node's
/// callbacks run on one thread at a time.
///
/// Cloning a `Roster` shares the underlying mapping; replicas must **not**
/// share rosters with each other (each node splices deltas into its own).
#[derive(Clone)]
pub struct Roster {
    map: Arc<Mutex<VirtualUsers>>,
}

impl Roster {
    /// A directory over the given epoch's mapping.
    pub fn new(mapping: VirtualUsers) -> Self {
        Roster { map: Arc::new(Mutex::new(mapping)) }
    }

    fn read(&self) -> std::sync::MutexGuard<'_, VirtualUsers> {
        self.map.lock().expect("roster poisoned")
    }

    /// Current number of virtual users `T`.
    pub fn total(&self) -> usize {
        self.read().total()
    }

    /// Number of real parties (fixed across epochs).
    pub fn parties(&self) -> usize {
        self.read().parties()
    }

    /// Current tickets of `party`.
    ///
    /// # Panics
    ///
    /// Panics if `party >= self.parties()`.
    pub fn tickets_of(&self, party: usize) -> u64 {
        self.read().tickets_of(party)
    }

    /// A copy of the current ticket assignment.
    pub fn assignment(&self) -> TicketAssignment {
        self.read().assignment().clone()
    }

    /// The stable identity of the current dense id `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.total()`.
    pub fn stable_of(&self, v: usize) -> StableId {
        self.read().stable_of(v)
    }

    /// The current dense id backing `id`, or `None` when retired/unknown.
    pub fn dense_of(&self, id: StableId) -> Option<usize> {
        self.read().dense_of(id)
    }

    /// Whether `id` is live in the current epoch.
    pub fn contains(&self, id: StableId) -> bool {
        self.read().contains(id)
    }

    /// The party owning the current dense id `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.total()`.
    pub fn owner_of(&self, v: usize) -> usize {
        self.read().owner_of(v)
    }

    /// Splices an epoch's delta into the shared mapping; every component
    /// holding a clone of this roster sees the new epoch at once.
    ///
    /// # Errors
    ///
    /// Propagates [`swiper_core::VirtualUsers::apply_delta`] errors (the
    /// mapping is untouched on failure).
    pub fn apply_delta(&self, delta: &TicketDelta) -> Result<(), CoreError> {
        self.read().apply_delta(delta)
    }

    /// A snapshot of the current mapping (for assertions and spawning).
    pub fn snapshot(&self) -> VirtualUsers {
        self.read().clone()
    }
}

impl fmt::Debug for Roster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Roster")
            .field("total", &self.total())
            .field("parties", &self.parties())
            .finish()
    }
}

/// How a protocol maps delivery-time sender ids to stable identities.
#[derive(Clone, Debug, Default)]
pub enum IdentityView {
    /// Fixed party set: the sender id *is* the identity
    /// ([`StableId::solo`]); nothing ever renumbers or retires.
    #[default]
    Party,
    /// Epoch-aware virtual users: dense ids resolve through the shared
    /// [`Roster`], which the host splices each epoch's delta into.
    Virtual(Roster),
}

impl IdentityView {
    /// Resolves a delivery-time sender id into its stable identity.
    ///
    /// # Panics
    ///
    /// In the [`IdentityView::Virtual`] regime, panics when `from` is not
    /// a live dense id — hosts deliver only translated, live ids.
    pub fn stable_of(&self, from: usize) -> StableId {
        match self {
            IdentityView::Party => StableId::solo(from),
            IdentityView::Virtual(roster) => roster.stable_of(from),
        }
    }

    /// The roster, in the epoch-aware regime.
    pub fn roster(&self) -> Option<&Roster> {
        match self {
            IdentityView::Party => None,
            IdentityView::Virtual(roster) => Some(roster),
        }
    }

    /// The current dense ids of the virtual users `event` spawned, in
    /// ascending party order (the roster must already hold the new epoch;
    /// none in the party regime). They missed everything said before the
    /// boundary — the one case where peers, not this node, lack its votes.
    pub fn joiners(&self, event: &EpochEvent) -> Vec<usize> {
        let Some(roster) = self.roster() else { return Vec::new() };
        event
            .delta()
            .changes()
            .iter()
            .flat_map(|c| (c.old..c.new).map(move |offset| StableId::new(c.party, offset)))
            .filter_map(|id| roster.dense_of(id))
            .collect()
    }
}

/// Who votes in a [`QuorumSet`], what a vote weighs, and what a quorum's
/// threshold is a fraction of (the *base*).
#[derive(Debug, Clone)]
pub enum Electorate {
    /// `n` fixed parties, one vote each; the base is `n`, and a boundary
    /// moves nothing.
    Nominal(usize),
    /// Fixed parties weighted by stake; the base is the total stake `W`,
    /// and a boundary adopts the event's weights. A voter naming a party
    /// outside the vector carries no weight and is not recorded (party
    /// sets are fixed, so it never will).
    Weighted(Weights),
    /// The virtual users of a shared [`Roster`], one vote each; the base is
    /// the roster's current population. The host splices each delta into
    /// the roster before the boundary reaches the set, so
    /// [`QuorumSet::on_epoch`] judges the pre-boundary verdicts against
    /// the delta's old total.
    Roster(Roster),
}

impl Electorate {
    /// What `voter`'s vote weighs, or `None` when it names a party outside
    /// a weighted electorate.
    fn weight_of(&self, voter: StableId) -> Option<u128> {
        match self {
            Electorate::Weighted(weights) => {
                weights.as_slice().get(voter.party_ix()).map(|&w| u128::from(w))
            }
            Electorate::Nominal(_) | Electorate::Roster(_) => Some(1),
        }
    }

    /// What a quorum threshold is a fraction of.
    fn base(&self) -> u128 {
        match self {
            Electorate::Nominal(n) => *n as u128,
            Electorate::Weighted(weights) => weights.total(),
            Electorate::Roster(roster) => roster.total() as u128,
        }
    }

    /// Moves into `event`'s epoch; `false`, and nothing moved, when the
    /// event's weights cover a different party count.
    fn refresh(&mut self, event: &EpochEvent) -> bool {
        match self {
            Electorate::Nominal(_) | Electorate::Roster(_) => true,
            Electorate::Weighted(weights) => event.refresh_weights(weights),
        }
    }
}

/// The three quorums of a Bracha-shaped commit, which weighted Bracha and
/// the SMR replica count on each digest (`f_w = 1/3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Phase {
    /// ECHO: `> (1 + f_w)/2 = 2/3` of the base joins READY.
    Echo,
    /// READY amplification: `> f_w = 1/3` joins READY.
    Amplify,
    /// READY delivery (or commit): `> 2 f_w = 2/3`.
    Deliver,
}

impl Phase {
    /// The [`QuorumSet`] threshold of a `(phase, digest)` key.
    pub(crate) fn threshold<D>(&(phase, _): &(Phase, D)) -> Ratio {
        match phase {
            Phase::Echo | Phase::Deliver => Ratio::of(2, 3),
            Phase::Amplify => Ratio::of(1, 3),
        }
    }
}

/// One key's quorum: its threshold, its distinct voters, and what their
/// votes weigh together under the set's electorate.
struct Tally {
    threshold: Ratio,
    voters: HashSet<StableId>,
    sum: u128,
}

impl Tally {
    /// `sum · den > num · base`, in 256 bits: a stake total near `2^66`
    /// times a wide threshold denominator does not fit a `u128`.
    fn reached(&self, base: u128) -> bool {
        let (num, den) = (self.threshold.num(), self.threshold.den());
        cmp_mul(self.sum, den, num, base) == Ordering::Greater
    }
}

/// One automaton's quorums, one per key — what the votes are for, such as
/// a phase and a digest or a round and a value. A key's quorum needs
/// strictly more than the fraction the set's `threshold` function gives
/// the key, of the electorate's base.
///
/// The set owns the epoch boundary: [`QuorumSet::on_epoch`] moves every
/// tally into the new epoch and reports the quorums that move completed,
/// which the automaton fires through the transition its vote path calls.
pub struct QuorumSet<K> {
    electorate: Electorate,
    threshold: Box<dyn Fn(&K) -> Ratio + Send>,
    tallies: BTreeMap<K, Tally>,
}

impl<K: Ord + Clone> QuorumSet<K> {
    /// An empty set over `electorate`; a key's quorum needs strictly more
    /// than `threshold(key)` of the base.
    pub fn new(
        electorate: Electorate,
        threshold: impl Fn(&K) -> Ratio + Send + 'static,
    ) -> Self {
        QuorumSet { electorate, threshold: Box::new(threshold), tallies: BTreeMap::new() }
    }

    /// Registers `voter`'s vote on `key` (duplicates are ignored) and
    /// returns whether `key`'s quorum is reached.
    pub fn vote(&mut self, key: K, voter: StableId) -> bool {
        let tally = self.tallies.entry(key).or_insert_with_key(|key| Tally {
            threshold: (self.threshold)(key),
            voters: HashSet::new(),
            sum: 0,
        });
        if let Some(weight) = self.electorate.weight_of(voter) {
            if tally.voters.insert(voter) {
                tally.sum += weight;
            }
        }
        tally.reached(self.electorate.base())
    }

    /// Whether `key`'s quorum is reached (never, before its first vote).
    pub fn reached(&self, key: &K) -> bool {
        self.tallies.get(key).is_some_and(|tally| tally.reached(self.electorate.base()))
    }

    /// What `key`'s recorded votes weigh together (0 before its first
    /// vote): its distinct voters, or their stake when weighted.
    pub fn tally(&self, key: &K) -> u128 {
        self.tallies.get(key).map_or(0, |tally| tally.sum)
    }

    /// Who votes, what a vote weighs, and the base.
    pub fn electorate(&self) -> &Electorate {
        &self.electorate
    }

    /// The epoch boundary: the electorate takes `event`'s weights
    /// (weighted) or the roster's new population (roster — the host must
    /// already have spliced the delta in), and every key re-tallies its
    /// kept votes under it, the roster regime first shedding retired
    /// voters. Keys first voted on later start from the new epoch.
    ///
    /// Returns, in key order, the keys whose quorum went from not reached
    /// (under the pre-boundary base) to reached: the caller fires each
    /// through its vote-path transition. A quorum the boundary revokes
    /// (its stake collapsed) simply stops being reached. An event over a
    /// different party count is a mis-addressed driver bug and moves
    /// nothing (debug builds assert).
    pub fn on_epoch(&mut self, event: &EpochEvent) -> Vec<K> {
        // The host spliced the roster already: its pre-boundary population
        // is the delta's old total.
        let before = match &self.electorate {
            Electorate::Roster(_) => event.delta().old_total(),
            Electorate::Nominal(_) | Electorate::Weighted(_) => self.electorate.base(),
        };
        if !self.electorate.refresh(event) {
            debug_assert!(false, "EpochEvent weights cover a different party count");
            return Vec::new();
        }
        let electorate = &self.electorate;
        let after = electorate.base();
        let mut crossed = Vec::new();
        for (key, tally) in &mut self.tallies {
            let was = tally.reached(before);
            if let Electorate::Roster(roster) = electorate {
                tally.voters.retain(|id| roster.contains(*id));
            }
            tally.sum = tally.voters.iter().filter_map(|&id| electorate.weight_of(id)).sum();
            if !was && tally.reached(after) {
                crossed.push(key.clone());
            }
        }
        crossed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiper_core::{TicketAssignment, TicketDelta};

    fn solo(p: usize) -> StableId {
        StableId::solo(p)
    }

    /// A set whose every key needs strictly more than `threshold`.
    fn set_of<K: Ord + Clone>(electorate: Electorate, threshold: Ratio) -> QuorumSet<K> {
        QuorumSet::new(electorate, move |_| threshold)
    }

    fn weighted(ws: &[u64]) -> Electorate {
        Electorate::Weighted(Weights::new(ws.to_vec()).unwrap())
    }

    #[test]
    fn count_quorum_strict_threshold() {
        // n = 6, threshold 2/3: need > 4, i.e. 5 parties.
        let mut q = set_of(Electorate::Nominal(6), Ratio::of(2, 3));
        for p in 0..4 {
            assert!(!q.vote((), solo(p)), "party {p}");
        }
        assert!(q.vote((), solo(4)));
        assert!(q.reached(&()));
    }

    /// Four parties of `u64::MAX` stake against a threshold just above
    /// 1/2 with a 67-bit denominator: both sides of the comparison pass
    /// `2^128`, where a `u128` product overflows.
    #[test]
    fn weighted_quorum_compares_past_u128() {
        let beta = Ratio::of((1 << 65) + 1, (1 << 66) + 1);
        let mut q = set_of(weighted(&[u64::MAX; 4]), beta);
        assert!(!q.vote((), solo(0)));
        assert!(!q.vote((), solo(1)), "exactly half is not more than beta");
        assert!(q.vote((), solo(2)));
        assert!(q.reached(&()));
    }

    #[test]
    fn count_quorum_at_least() {
        // "At least 3 of 4" is "strictly more than 2/4".
        let mut q = set_of(Electorate::Nominal(4), Ratio::of(2, 4));
        q.vote((), solo(0));
        q.vote((), solo(1));
        assert!(!q.reached(&()));
        q.vote((), solo(2));
        assert!(q.reached(&()));
    }

    #[test]
    fn duplicates_ignored() {
        let mut q = set_of(Electorate::Nominal(3), Ratio::of(1, 3));
        q.vote((), solo(1));
        q.vote((), solo(1));
        q.vote((), solo(1));
        assert!(!q.reached(&()));
        assert_eq!(q.tally(&()), 1);
    }

    #[test]
    fn distinct_offsets_are_distinct_voters() {
        // Virtual users of the same party are independent voters in the
        // nominal model — the black-box transformation depends on it.
        let mut q = set_of(Electorate::Nominal(4), Ratio::of(2, 4));
        q.vote((), StableId::new(0, 0));
        q.vote((), StableId::new(0, 1));
        assert!(!q.reached(&()));
        q.vote((), StableId::new(1, 0));
        assert!(q.reached(&()));
    }

    #[test]
    fn weight_quorum_strict() {
        let mut q = set_of(weighted(&[50, 30, 20]), Ratio::of(1, 2));
        q.vote((), solo(0)); // exactly 50 = W/2, not strictly more
        assert!(!q.reached(&()));
        q.vote((), solo(2)); // 70 > 50
        assert!(q.reached(&()));
    }

    #[test]
    fn weighted_vs_nominal_divergence() {
        // A whale alone passes the weighted 1/2 quorum but never the
        // nominal one.
        let mut wq = set_of(weighted(&[90, 5, 5]), Ratio::of(1, 2));
        let mut nq = set_of(Electorate::Nominal(3), Ratio::of(1, 2));
        assert!(wq.vote((), solo(0)));
        assert!(!nq.vote((), solo(0)));
    }

    #[test]
    fn unknown_party_votes_carry_no_weight() {
        // Identity validation is upstream; a voter naming a party beyond
        // the weight vector must at least never add weight or panic.
        let mut q = set_of(weighted(&[10, 10]), Ratio::of(1, 3));
        q.vote((), solo(99));
        assert!(!q.reached(&()));
        assert_eq!(q.tally(&()), 0);
    }

    /// The dense-id double-counting regression the `StableId` re-keying
    /// exists to kill. One cohort of voters votes under the epoch-0
    /// numbering; a renumbering delta is spliced in; every *live* voter
    /// votes again under the epoch-1 numbering (the in-flight-duplicate
    /// schedule an epoch-crossing adversary forces). Keyed on stable
    /// identities the tally must end with exactly the live population —
    /// a dense-keyed one counts survivors under both their pre- and
    /// post-epoch ids and blows past it.
    #[test]
    fn renumbering_epoch_never_double_counts_voters() {
        let old = TicketAssignment::new(vec![2, 3, 1, 2]);
        // Mixed delta: party 0 shrinks (renumbers *everyone* after it),
        // party 2 retires entirely, party 3 grows.
        let new = TicketAssignment::new(vec![1, 3, 0, 3]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        let weights = Weights::new(vec![1; 4]).unwrap();
        let event = EpochEvent::new(1, delta.clone(), &weights, weights.clone(), 0).unwrap();
        let old_map = VirtualUsers::from_assignment(&old).unwrap();
        let roster = Roster::new(old_map.clone());

        let mut q = set_of(Electorate::Roster(roster.clone()), Ratio::of(7, 8));
        for v in 0..old_map.total() {
            q.vote((), roster.stable_of(v));
        }
        assert_eq!(q.tally(&()), old_map.total() as u128);
        assert!(q.reached(&()));

        roster.apply_delta(&delta).unwrap();
        // The spliced roster holds the new assignment, fingerprint and all.
        assert_eq!(roster.assignment(), new);
        assert_eq!(roster.assignment().fingerprint(), new.fingerprint());
        q.on_epoch(&event);
        // Retired voters shed: (0,1), (2,0); survivors retained.
        assert_eq!(q.tally(&()), old_map.total() as u128 - 2);
        assert_eq!(q.electorate().base(), roster.total() as u128);

        // Epoch-1 duplicates: every live voter votes again under the new
        // numbering. Stable keying dedupes them all; the only fresh voter
        // is party 3's joiner.
        for v in 0..roster.total() {
            q.vote((), roster.stable_of(v));
        }
        assert_eq!(
            q.tally(&()),
            roster.total() as u128,
            "one logical voter was counted under two epochs' numberings"
        );
    }

    /// Retired voters' votes are shed at the boundary, not frozen into
    /// the tally — the "ghost weight" half of the cross-epoch identity
    /// fix.
    #[test]
    fn migrate_sheds_retired_weight() {
        let weights = Weights::new(vec![40, 35, 25]).unwrap();
        let old = TicketAssignment::new(vec![1, 1, 1]);
        let new = TicketAssignment::new(vec![1, 0, 1]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        let event = EpochEvent::new(1, delta.clone(), &weights, weights.clone(), 0).unwrap();
        let roster = Roster::new(VirtualUsers::from_assignment(&old).unwrap());

        let mut q = set_of(Electorate::Roster(roster.clone()), Ratio::of(1, 2));
        q.vote((), StableId::new(0, 0));
        q.vote((), StableId::new(1, 0));
        assert!(q.reached(&()), "2 > 1/2 of 3");

        roster.apply_delta(&delta).unwrap();
        assert!(q.on_epoch(&event).is_empty());
        assert_eq!(q.tally(&()), 1, "the retired voter's vote released");
        assert!(!q.reached(&()), "1 is not > 1/2 of 2");
        assert!(q.vote((), StableId::new(2, 0)), "2 > 1/2 of 2");
    }

    /// Builds a stake-refresh event over an unchanged assignment — the
    /// pure weight-drift epoch a weighted boundary re-tallies under.
    fn stake_event(prev: &Weights, next: &[u64]) -> EpochEvent {
        let tickets = TicketAssignment::new(vec![1; prev.len()]);
        let delta = TicketDelta::between(&tickets, &tickets).unwrap();
        EpochEvent::new(1, delta, prev, Weights::new(next.to_vec()).unwrap(), 0).unwrap()
    }

    /// The stale-stake hole the boundary re-tally closes: a pending quorum
    /// that was one dust vote short under the old weights must NOT cross
    /// the threshold after the whale backing it collapsed — the kept votes
    /// re-tally under current stake, revoking the almost-complete quorum.
    #[test]
    fn reweigh_revokes_an_almost_complete_quorum_after_whale_collapse() {
        let old = Weights::new(vec![50, 30, 20]).unwrap();
        let mut q = set_of(Electorate::Weighted(old.clone()), Ratio::of(2, 3));
        q.vote((), solo(0));
        assert_eq!(q.tally(&()), 50);
        assert!(!q.reached(&()), "50 is not > 2/3 of 100");
        // The whale's stake collapses mid-vouch (slashed / unbonded).
        assert!(q.on_epoch(&stake_event(&old, &[5, 30, 20])).is_empty());
        assert_eq!(q.tally(&()), 5, "the kept vote carries current stake");
        // Under the old weights this vote would have completed the quorum
        // (50 + 30 = 80 > 66); under live stake it must not (35 ≤ 36.7).
        assert!(!q.vote((), solo(1)), "stale whale weight crossed a current-epoch threshold");
        assert_eq!(q.tally(&()), 35);
        // A fresh set under the new weights agrees vote-for-vote.
        let mut fresh = set_of(weighted(&[5, 30, 20]), Ratio::of(2, 3));
        fresh.vote((), solo(0));
        fresh.vote((), solo(1));
        assert_eq!((fresh.tally(&()), fresh.reached(&())), (q.tally(&()), q.reached(&())));
        // Stake moving the other way completes it without new votes.
        let regrown = stake_event(&Weights::new(vec![5, 30, 20]).unwrap(), &[90, 30, 20]);
        assert_eq!(q.on_epoch(&regrown), vec![()], "re-grown stake counts immediately");
    }

    #[test]
    fn reweigh_ignores_party_count_mismatches_in_release() {
        // Release builds must not corrupt the set on a mis-addressed
        // event (debug builds assert).
        let old = Weights::new(vec![10, 10]).unwrap();
        let mut q = set_of(Electorate::Weighted(old), Ratio::of(1, 3));
        q.vote((), solo(0));
        let before = q.tally(&());
        let three = Weights::new(vec![1, 1, 1]).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.on_epoch(&stake_event(&three, &[1, 1, 1]))
        }));
        if let Ok(crossed) = result {
            assert!(crossed.is_empty());
            assert_eq!(q.tally(&()), before);
            assert_eq!(q.electorate().base(), 20);
        }
    }

    /// The set's boundary report: exactly the keys whose quorum the stake
    /// drift completed, in key order — not a quorum that was reached
    /// before (this drift revokes it), not one still short.
    #[test]
    fn quorum_set_reports_the_quorums_a_reweigh_completes_in_key_order() {
        let old = Weights::new(vec![70, 10, 10, 10]).unwrap();
        let mut set = set_of(Electorate::Weighted(old.clone()), Ratio::of(1, 2));
        let votes: [(char, &[usize]); 4] =
            [('d', &[2, 3]), ('a', &[1, 2, 3]), ('b', &[0]), ('c', &[1])];
        for (key, voters) in votes {
            for &p in voters {
                set.vote(key, solo(p));
            }
        }
        assert_eq!(['a', 'b', 'c', 'd'].map(|k| set.reached(&k)), [false, true, false, false]);
        assert_eq!(set.on_epoch(&stake_event(&old, &[10, 30, 30, 30])), vec!['a', 'd']);
        assert_eq!(['a', 'b', 'c', 'd'].map(|k| set.reached(&k)), [true, false, false, true]);
        // A key first voted on after the boundary tallies under the new
        // stake.
        assert!(!set.vote('e', solo(1)), "30 of 100");
        assert!(set.vote('e', solo(2)), "60 of 100");
        // A boundary that moves no verdict reports nothing.
        assert!(set.on_epoch(&stake_event(&old, &[20, 60, 60, 60])).is_empty());
    }

    /// Roster regime: the boundary re-tallies every key — a shrinking
    /// population completes a quorum whose voters all survive, and one
    /// whose voters all retired is emptied.
    #[test]
    fn quorum_set_migrates_roster_trackers() {
        let weights = Weights::new(vec![40, 40, 20]).unwrap();
        let old = TicketAssignment::new(vec![2, 2, 1]);
        let new = TicketAssignment::new(vec![2, 1, 0]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        let event = EpochEvent::new(1, delta.clone(), &weights, weights.clone(), 0).unwrap();
        let roster = Roster::new(VirtualUsers::from_assignment(&old).unwrap());
        let mut set = set_of(Electorate::Roster(roster.clone()), Ratio::of(2, 3));
        // 3 of 5 is not > 10/3; these three all survive the delta.
        for id in [StableId::new(0, 0), StableId::new(0, 1), StableId::new(1, 0)] {
            assert!(!set.vote(0u8, id));
        }
        for id in [StableId::new(1, 1), StableId::new(2, 0)] {
            set.vote(1, id);
        }
        roster.apply_delta(&delta).unwrap();
        assert_eq!(set.on_epoch(&event), vec![0], "3 of 3 survivors");
        assert!(!set.reached(&1));
        assert!(!set.vote(1, StableId::new(0, 0)), "the retired votes were shed: 1 of 3");
    }

    #[test]
    fn identity_view_names_the_joiners_an_event_spawned() {
        let weights = Weights::new(vec![50, 50]).unwrap();
        let old = TicketAssignment::new(vec![2, 1]);
        let new = TicketAssignment::new(vec![1, 3]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        let event = EpochEvent::new(1, delta.clone(), &weights, weights.clone(), 0).unwrap();
        let roster = Roster::new(VirtualUsers::from_assignment(&old).unwrap());
        roster.apply_delta(&delta).unwrap();
        // New numbering: (0,0) (1,0) (1,1) (1,2); party 1 gained offsets 1, 2.
        assert_eq!(IdentityView::Virtual(roster).joiners(&event), vec![2, 3]);
        assert!(IdentityView::Party.joiners(&event).is_empty());
    }

    #[test]
    fn roster_is_shared_between_clones() {
        let old = TicketAssignment::new(vec![2, 1]);
        let new = TicketAssignment::new(vec![1, 2]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        let roster = Roster::new(VirtualUsers::from_assignment(&old).unwrap());
        let view = roster.clone();
        roster.apply_delta(&delta).unwrap();
        assert_eq!(view.total(), 3);
        assert_eq!(view.tickets_of(0), 1);
        assert_eq!(view.dense_of(StableId::new(0, 1)), None, "retired via the shared map");
        assert_eq!(view.dense_of(StableId::new(1, 1)), Some(2), "joined via the shared map");
    }

    #[test]
    fn identity_view_regimes() {
        let view = IdentityView::Party;
        assert_eq!(view.stable_of(3), StableId::solo(3));
        assert!(view.roster().is_none());
        let roster = Roster::new(
            VirtualUsers::from_assignment(&TicketAssignment::new(vec![2, 1])).unwrap(),
        );
        let view = IdentityView::Virtual(roster);
        assert_eq!(view.stable_of(1), StableId::new(0, 1));
        assert_eq!(view.stable_of(2), StableId::new(1, 0));
        assert!(view.roster().is_some());
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use proptest::sample::Index;

        const KEYS: [u8; 3] = [0, 1, 2];

        /// Each key's threshold: `nums[key] / 6`, proper for `nums` in 1..6.
        fn set_over(electorate: Electorate, nums: [u128; 3]) -> QuorumSet<u8> {
            QuorumSet::new(electorate, move |key: &u8| Ratio::of(nums[usize::from(*key)], 6))
        }

        /// Hands `set` the boundary `event` (the roster, if any, already
        /// spliced) and checks it against a fresh set over `fresh_over`
        /// fed the `surviving` votes: every key's verdict and tally must
        /// match, and `on_epoch` must report exactly the keys that went
        /// from not reached (`was`, read before the boundary) to reached,
        /// in key order.
        fn cross(
            set: &mut QuorumSet<u8>,
            was: [bool; 3],
            event: &EpochEvent,
            fresh_over: Electorate,
            nums: [u128; 3],
            surviving: &[(u8, StableId)],
        ) -> QuorumSet<u8> {
            let crossed = set.on_epoch(event);
            let mut fresh = set_over(fresh_over, nums);
            for &(key, voter) in surviving {
                fresh.vote(key, voter);
            }
            for key in KEYS {
                assert_eq!(set.reached(&key), fresh.reached(&key), "key {key}");
                assert_eq!(set.tally(&key), fresh.tally(&key), "key {key}");
            }
            let flipped: Vec<u8> = KEYS
                .into_iter()
                .filter(|&key| !was[usize::from(key)] && set.reached(&key))
                .collect();
            assert_eq!(crossed, flipped);
            fresh
        }

        proptest! {
            /// On equal weights, weighted voting degenerates to nominal
            /// counting — the consistency the paper's weighted-voting
            /// conversion relies on.
            #[test]
            fn weighted_equals_nominal_on_equal_weights(
                n in 1usize..30,
                votes in vec(any::<Index>(), 0..40),
                num in 1u128..6,
            ) {
                let threshold = Ratio::of(num, 6);
                prop_assume!(threshold.is_proper());
                let weights = Weights::new(vec![7; n]).unwrap();
                let mut wq = set_of(Electorate::Weighted(weights), threshold);
                let mut nq = set_of(Electorate::Nominal(n), threshold);
                for ix in votes {
                    let party = ix.index(n);
                    prop_assert_eq!(wq.vote((), solo(party)), nq.vote((), solo(party)));
                }
            }

            /// Votes are monotone: once reached, a quorum stays reached.
            #[test]
            fn quorums_are_monotone(
                ws in vec(1u64..100, 1..12),
                votes in vec(any::<Index>(), 1..40),
            ) {
                let n = ws.len();
                let mut q = set_of(weighted(&ws), Ratio::of(1, 2));
                let mut was_reached = false;
                for ix in votes {
                    let reached = q.vote((), solo(ix.index(n)));
                    prop_assert!(reached || !was_reached, "quorum regressed");
                    was_reached = reached;
                }
            }

            /// Voting everyone always reaches any proper threshold.
            #[test]
            fn full_participation_reaches(
                ws in vec(1u64..100, 1..12),
                num in 1u128..7,
            ) {
                let threshold = Ratio::of(num, 7);
                prop_assume!(threshold.is_proper());
                let mut q = set_of(weighted(&ws), threshold);
                for p in 0..ws.len() {
                    q.vote((), solo(p));
                }
                prop_assert!(q.reached(&()));
            }

            /// The boundary contract for party-keyed electorates: after
            /// ANY vote prefix and ANY weight re-draw, every key's verdict
            /// and exact tally equal a fresh set's over the post-boundary
            /// electorate fed the same votes, `on_epoch` reports exactly
            /// the keys it flipped to reached, and the two sets agree vote
            /// for vote afterwards. No ghost stake (old weights never
            /// linger in the tally), no lost votes (identity progress
            /// survives the re-draw). Runs over nominal and weighted sets.
            #[test]
            fn reweigh_matches_fresh_tracker_on_any_prefix_and_redraw(
                weighted in any::<bool>(),
                (old_ws, new_ws) in (vec(1u64..1000, 1..10), vec(1u64..1000, 10)),
                votes in vec((0u8..3, any::<Index>()), 0..24),
                (nums, split) in ((1u128..6, 1u128..6, 1u128..6), any::<Index>()),
            ) {
                let n = old_ws.len();
                let nums = [nums.0, nums.1, nums.2];
                let old = Weights::new(old_ws).unwrap();
                let new = Weights::new(new_ws[..n].to_vec()).unwrap();
                let electorate = |w: &Weights| {
                    if weighted {
                        Electorate::Weighted(w.clone())
                    } else {
                        Electorate::Nominal(n)
                    }
                };
                // Parties vote as themselves, one past the vector too (it
                // carries no weight in the weighted regime).
                let cast: Vec<(u8, StableId)> =
                    votes.iter().map(|(key, ix)| (*key, solo(ix.index(n + 1)))).collect();
                let split = split.index(cast.len() + 1);
                let mut set = set_over(electorate(&old), nums);
                for &(key, voter) in &cast[..split] {
                    set.vote(key, voter);
                }
                let event = stake_event(&old, new.as_slice());
                let was = KEYS.map(|key| set.reached(&key));
                let mut fresh =
                    cross(&mut set, was, &event, electorate(&new), nums, &cast[..split]);
                for &(key, voter) in &cast[split..] {
                    prop_assert_eq!(set.vote(key, voter), fresh.vote(key, voter));
                    prop_assert_eq!(set.tally(&key), fresh.tally(&key));
                }
            }

            /// The boundary contract for a roster electorate, along each
            /// step of a random delta chain: key 0 takes every live
            /// virtual user's vote each epoch and must land exactly on the
            /// population — never more (double counts), never less (lost
            /// survivors), whatever the renumbering did — while every
            /// key's verdict and exact tally after `on_epoch` equal a
            /// fresh set's fed the surviving votes, and `on_epoch`
            /// reports exactly the keys it flipped to reached.
            #[test]
            fn vote_once_per_epoch_counts_each_logical_voter_once(
                tickets in vec(0u64..6, 1..10),
                chain in vec(vec(0u64..6, 10), 1..5),
                votes in vec((0u8..3, any::<Index>()), 0..24),
                (nums, splits) in ((1u128..6, 1u128..6, 1u128..6), vec(any::<Index>(), 4)),
            ) {
                let n = tickets.len();
                let nums = [nums.0, nums.1, nums.2];
                let old = Weights::new(vec![1; n]).unwrap();
                let mut current = TicketAssignment::new(tickets);
                let roster = Roster::new(VirtualUsers::from_assignment(&current).unwrap());
                let mut set = set_over(Electorate::Roster(roster.clone()), nums);
                let mut cast: Vec<(u8, StableId)> = Vec::new();
                for (epoch, next) in chain.iter().enumerate() {
                    // This epoch's votes: a census on key 0, then a random
                    // slice of the others from live users.
                    for v in 0..roster.total() {
                        cast.push((0, roster.stable_of(v)));
                        set.vote(0, roster.stable_of(v));
                    }
                    prop_assert_eq!(set.tally(&0), roster.total() as u128);
                    if roster.total() > 0 {
                        let take = splits[epoch].index(votes.len() + 1);
                        for (key, ix) in &votes[..take] {
                            let voter = roster.stable_of(ix.index(roster.total()));
                            cast.push((*key, voter));
                            set.vote(*key, voter);
                        }
                    }
                    let next = TicketAssignment::new(next[..n].to_vec());
                    let delta = TicketDelta::between(&current, &next).unwrap();
                    let event = EpochEvent::new(1, delta.clone(), &old, old.clone(), 0).unwrap();
                    let was = KEYS.map(|key| set.reached(&key));
                    roster.apply_delta(&delta).unwrap();
                    current = next;
                    cast.retain(|(_, id)| roster.contains(*id));
                    let fresh_over = Electorate::Roster(roster.clone());
                    cross(&mut set, was, &event, fresh_over, nums, &cast);
                }
                for v in 0..roster.total() {
                    set.vote(0, roster.stable_of(v));
                }
                prop_assert_eq!(set.tally(&0), roster.total() as u128);
            }
        }
    }
}
