//! Weighted voting (paper Section 1.2): quorum trackers with exact
//! rational thresholds, keyed on **epoch-stable identities**.
//!
//! Converting a protocol from "wait for `2t+1` parties" to "wait for
//! parties holding more than a `2/3` fraction of the weight" is the
//! *weighted voting* strategy. [`QuorumTracker`] abstracts both forms so a
//! protocol implementation is generic over them.
//!
//! # Epoch boundaries
//!
//! An epoch boundary changes the stake or the roster under the quorum
//! test, so it is a tracker event. An automaton keeps its trackers in one
//! [`QuorumSet`], keyed by what they count (a phase and a digest, a round
//! and a value), and hands each boundary to [`QuorumSet::on_epoch`]. That
//! call reweighs (party regime) or migrates (roster regime) every tracker
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
//! a dense-keyed tracker would count one logical voter under both its
//! pre- and post-epoch ids (double-counting) while freezing in the weight
//! of voters that have since retired. Stable keying makes vote survival
//! automatic; an epoch crossing only needs [`QuorumTracker::migrate`] to
//! re-derive the threshold base for the new population and shed retired
//! voters.
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
//! whose claimed identity is not owned by the wire sender. Trackers count
//! whatever distinct identities they are handed.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

use swiper_core::{CoreError, EpochEvent, Ratio, StableId, TicketDelta, VirtualUsers, Weights};

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

/// Tracks votes from distinct stable identities until a threshold is
/// reached.
pub trait QuorumTracker {
    /// Registers a vote from `voter`; duplicate votes are ignored.
    /// Returns `true` once (and as long as) the quorum is reached.
    fn vote(&mut self, voter: StableId) -> bool;

    /// Whether the quorum has been reached.
    fn reached(&self) -> bool;

    /// Epoch migration: re-derives the threshold base from the roster's
    /// new population and sheds votes of retired identities, so
    /// accumulated progress survives renumbering while retired voters'
    /// weight is released rather than frozen in.
    fn migrate(&mut self, roster: &Roster);
}

/// Nominal quorum: strictly more than `num/den` of the `population`
/// eligible voters.
#[derive(Debug, Clone)]
pub struct CountQuorum {
    population: usize,
    num: u128,
    den: u128,
    voted: HashSet<StableId>,
}

impl CountQuorum {
    /// Quorum of strictly more than `threshold * n` voters.
    pub fn new(n: usize, threshold: Ratio) -> Self {
        CountQuorum {
            population: n,
            num: threshold.num(),
            den: threshold.den(),
            voted: HashSet::new(),
        }
    }

    /// Classic `k`-of-`n` quorum (at least `k` distinct voters).
    pub fn at_least(n: usize, k: usize) -> Self {
        // "at least k" == "strictly more than k-1": represent as (k-1)/n.
        CountQuorum {
            population: n,
            num: k.saturating_sub(1) as u128,
            den: n.max(1) as u128,
            voted: HashSet::new(),
        }
    }

    /// Current number of distinct voters.
    pub fn count(&self) -> usize {
        self.voted.len()
    }

    /// The threshold base (eligible-voter population).
    pub fn population(&self) -> usize {
        self.population
    }
}

impl QuorumTracker for CountQuorum {
    fn vote(&mut self, voter: StableId) -> bool {
        self.voted.insert(voter);
        self.reached()
    }

    fn reached(&self) -> bool {
        (self.voted.len() as u128) * self.den > self.num * (self.population as u128)
    }

    fn migrate(&mut self, roster: &Roster) {
        self.population = roster.total();
        self.voted.retain(|id| roster.contains(*id));
    }
}

/// Weighted quorum: strictly more than `threshold * W` of total weight.
///
/// Weights are per *party*; each distinct voter contributes its party's
/// weight once. The weighted protocols in this crate host exactly one
/// voter per party ([`StableId::solo`]), which gives the exact
/// weighted-voting semantics of paper §1.2.
#[derive(Debug, Clone)]
pub struct WeightQuorum {
    weights: Weights,
    num: u128,
    den: u128,
    voted: HashSet<StableId>,
    weight: u128,
}

impl WeightQuorum {
    /// Quorum of strictly more than `threshold * W` weight.
    pub fn new(weights: Weights, threshold: Ratio) -> Self {
        WeightQuorum {
            weights,
            num: threshold.num(),
            den: threshold.den(),
            voted: HashSet::new(),
            weight: 0,
        }
    }

    /// Accumulated voting weight.
    pub fn weight(&self) -> u128 {
        self.weight
    }

    /// The weight vector this quorum currently tallies under.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Epoch stake refresh: re-derives the tally under the event's new
    /// per-party weight vector. Votes are **kept** — identity progress is
    /// orthogonal to stake — but each voter's contribution and the
    /// threshold base `W` are recomputed from the new weights, so the
    /// verdict after `reweigh` equals a fresh tracker's fed the same
    /// votes under the new weights: no ghost stake (a collapsed whale's
    /// kept vote now carries its *current* dust weight, which can
    /// **revoke** an almost-complete quorum), no lost votes.
    ///
    /// Party sets are fixed across epochs; an event whose weight vector
    /// covers a different party count is a driver bug and is ignored
    /// (`debug_assert` in debug builds).
    pub fn reweigh(&mut self, event: &EpochEvent) {
        if !event.refresh_weights(&mut self.weights) {
            debug_assert!(false, "reweigh with a different party count");
            return;
        }
        self.weight = self.tally();
    }

    /// The weight of the recorded voters under the current weights.
    fn tally(&self) -> u128 {
        self.voted
            .iter()
            .filter(|id| id.party_ix() < self.weights.len())
            .map(|id| u128::from(self.weights.get(id.party_ix())))
            .sum()
    }
}

impl QuorumTracker for WeightQuorum {
    fn vote(&mut self, voter: StableId) -> bool {
        // A voter naming a party outside the weight vector carries no
        // weight (and party sets are fixed, so it never will).
        if voter.party_ix() < self.weights.len() && self.voted.insert(voter) {
            self.weight += u128::from(self.weights.get(voter.party_ix()));
        }
        self.reached()
    }

    fn reached(&self) -> bool {
        self.weight * self.den > self.num * self.weights.total()
    }

    fn migrate(&mut self, roster: &Roster) {
        // Shed retired voters and release their weight; the weight vector
        // itself is per-party and parties never retire, so it is kept.
        self.voted.retain(|id| roster.contains(*id));
        self.weight = self.tally();
    }
}

/// Builds the tracker family used across the weighted protocols: a nominal
/// tracker when `weights` is `None`, a weighted one otherwise.
#[derive(Debug, Clone)]
pub enum Quorum {
    /// Count-based (nominal model).
    Count(CountQuorum),
    /// Weight-based (weighted model).
    Weight(WeightQuorum),
}

impl Quorum {
    /// Nominal quorum over `n` voters.
    pub fn nominal(n: usize, threshold: Ratio) -> Self {
        Quorum::Count(CountQuorum::new(n, threshold))
    }

    /// Weighted quorum.
    pub fn weighted(weights: Weights, threshold: Ratio) -> Self {
        Quorum::Weight(WeightQuorum::new(weights, threshold))
    }
}

impl QuorumTracker for Quorum {
    fn vote(&mut self, voter: StableId) -> bool {
        match self {
            Quorum::Count(q) => q.vote(voter),
            Quorum::Weight(q) => q.vote(voter),
        }
    }

    fn reached(&self) -> bool {
        match self {
            Quorum::Count(q) => q.reached(),
            Quorum::Weight(q) => q.reached(),
        }
    }

    fn migrate(&mut self, roster: &Roster) {
        match self {
            Quorum::Count(q) => q.migrate(roster),
            Quorum::Weight(q) => q.migrate(roster),
        }
    }
}

/// Who votes in a [`QuorumSet`]'s trackers, and what an epoch boundary
/// does to them.
#[derive(Debug, Clone)]
pub enum Electorate {
    /// `n` fixed parties, one vote each: a boundary moves nothing.
    Nominal(usize),
    /// Fixed parties weighted by stake: a boundary reweighs every tracker
    /// under the event's weights ([`WeightQuorum::reweigh`]).
    Weighted(Weights),
    /// The virtual users of a shared [`Roster`], one vote each: a boundary
    /// migrates every tracker onto the roster's new epoch
    /// ([`QuorumTracker::migrate`]).
    Roster(Roster),
}

impl Electorate {
    /// A fresh tracker over the current electorate.
    fn mint(&self, threshold: Ratio) -> Quorum {
        match self {
            Electorate::Nominal(n) => Quorum::nominal(*n, threshold),
            Electorate::Weighted(weights) => Quorum::weighted(weights.clone(), threshold),
            Electorate::Roster(roster) => Quorum::nominal(roster.total(), threshold),
        }
    }
}

/// One automaton's quorum trackers, one per key — what the votes are for,
/// such as a phase and a digest or a round and a value. A key's tracker is
/// minted on its first vote from the current electorate, with the
/// threshold the set's `threshold` function gives the key.
///
/// The set owns the epoch boundary: [`QuorumSet::on_epoch`] moves every
/// tracker into the new epoch and reports the quorums that move completed,
/// which the automaton fires through the transition its vote path calls.
pub struct QuorumSet<K> {
    electorate: Electorate,
    threshold: Box<dyn Fn(&K) -> Ratio + Send>,
    trackers: BTreeMap<K, Quorum>,
}

impl<K: Ord + Clone> QuorumSet<K> {
    /// An empty set over `electorate`; a key's quorum needs strictly more
    /// than `threshold(key)` of the votes (of the weight, when weighted).
    pub fn new(
        electorate: Electorate,
        threshold: impl Fn(&K) -> Ratio + Send + 'static,
    ) -> Self {
        QuorumSet { electorate, threshold: Box::new(threshold), trackers: BTreeMap::new() }
    }

    /// Registers `voter`'s vote on `key` (duplicates are ignored) and
    /// returns whether `key`'s quorum is reached.
    pub fn vote(&mut self, key: K, voter: StableId) -> bool {
        let (electorate, threshold) = (&self.electorate, &self.threshold);
        self.trackers
            .entry(key)
            .or_insert_with_key(|key| electorate.mint(threshold(key)))
            .vote(voter)
    }

    /// Whether `key`'s quorum is reached (never, before its first vote).
    pub fn reached(&self, key: &K) -> bool {
        self.trackers.get(key).is_some_and(Quorum::reached)
    }

    /// The epoch boundary: every tracker reweighs under `event`'s stake
    /// (weighted), migrates onto the roster's new epoch (roster — the
    /// host must already have spliced the delta in), or stays (nominal);
    /// trackers minted later start from the new epoch.
    ///
    /// Returns, in key order, the keys whose quorum went from not reached
    /// to reached: the caller fires each through its vote-path transition.
    /// A quorum the boundary revokes (its stake collapsed) simply stops
    /// being reached. An event over a different party count is a
    /// mis-addressed driver bug and moves nothing (debug builds assert).
    pub fn on_epoch(&mut self, event: &EpochEvent) -> Vec<K> {
        if let Electorate::Weighted(weights) = &mut self.electorate {
            if !event.refresh_weights(weights) {
                debug_assert!(false, "EpochEvent weights cover a different party count");
                return Vec::new();
            }
        }
        let mut crossed = Vec::new();
        for (key, q) in &mut self.trackers {
            let was = q.reached();
            match (&self.electorate, &mut *q) {
                (Electorate::Roster(roster), q) => q.migrate(roster),
                (Electorate::Weighted(_), Quorum::Weight(q)) => q.reweigh(event),
                _ => {}
            }
            if !was && q.reached() {
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

    #[test]
    fn count_quorum_strict_threshold() {
        // n = 6, threshold 2/3: need > 4, i.e. 5 parties.
        let mut q = CountQuorum::new(6, Ratio::of(2, 3));
        for p in 0..4 {
            assert!(!q.vote(solo(p)), "party {p}");
        }
        assert!(q.vote(solo(4)));
        assert!(q.reached());
    }

    #[test]
    fn count_quorum_at_least() {
        let mut q = CountQuorum::at_least(4, 3);
        q.vote(solo(0));
        q.vote(solo(1));
        assert!(!q.reached());
        q.vote(solo(2));
        assert!(q.reached());
    }

    #[test]
    fn duplicates_ignored() {
        let mut q = CountQuorum::at_least(3, 2);
        q.vote(solo(1));
        q.vote(solo(1));
        q.vote(solo(1));
        assert!(!q.reached());
        assert_eq!(q.count(), 1);
    }

    #[test]
    fn distinct_offsets_are_distinct_voters() {
        // Virtual users of the same party are independent voters in the
        // nominal model — the black-box transformation depends on it.
        let mut q = CountQuorum::at_least(4, 3);
        q.vote(StableId::new(0, 0));
        q.vote(StableId::new(0, 1));
        assert!(!q.reached());
        q.vote(StableId::new(1, 0));
        assert!(q.reached());
    }

    #[test]
    fn weight_quorum_strict() {
        let w = Weights::new(vec![50, 30, 20]).unwrap();
        let mut q = WeightQuorum::new(w, Ratio::of(1, 2));
        q.vote(solo(0)); // exactly 50 = W/2, not strictly more
        assert!(!q.reached());
        q.vote(solo(2)); // 70 > 50
        assert!(q.reached());
    }

    #[test]
    fn weighted_vs_nominal_divergence() {
        // A whale alone passes the weighted 1/2 quorum but never the
        // nominal one.
        let w = Weights::new(vec![90, 5, 5]).unwrap();
        let mut wq = Quorum::weighted(w, Ratio::of(1, 2));
        let mut nq = Quorum::nominal(3, Ratio::of(1, 2));
        assert!(wq.vote(solo(0)));
        assert!(!nq.vote(solo(0)));
    }

    #[test]
    fn unknown_party_votes_carry_no_weight() {
        // Identity validation is upstream; a voter naming a party beyond
        // the weight vector must at least never add weight or panic.
        let w = Weights::new(vec![10, 10]).unwrap();
        let mut q = WeightQuorum::new(w, Ratio::of(1, 3));
        q.vote(solo(99));
        assert!(!q.reached());
        assert_eq!(q.weight(), 0);
    }

    /// The dense-id double-counting regression the `StableId` re-keying
    /// exists to kill. One cohort of voters votes under the epoch-0
    /// numbering; a renumbering delta is spliced in; every *live* voter
    /// votes again under the epoch-1 numbering (the in-flight-duplicate
    /// schedule an epoch-crossing adversary forces). Keyed on stable
    /// identities the tracker must end with exactly the live population —
    /// a dense-keyed tracker counts survivors under both their pre- and
    /// post-epoch ids and blows past it.
    #[test]
    fn renumbering_epoch_never_double_counts_voters() {
        let old = TicketAssignment::new(vec![2, 3, 1, 2]);
        // Mixed delta: party 0 shrinks (renumbers *everyone* after it),
        // party 2 retires entirely, party 3 grows.
        let new = TicketAssignment::new(vec![1, 3, 0, 3]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        let old_map = VirtualUsers::from_assignment(&old).unwrap();
        let roster = Roster::new(old_map.clone());

        let mut q = CountQuorum::at_least(old_map.total(), old_map.total());
        for v in 0..old_map.total() {
            q.vote(roster.stable_of(v));
        }
        assert_eq!(q.count(), old_map.total());
        assert!(q.reached());

        roster.apply_delta(&delta).unwrap();
        q.migrate(&roster);
        // Retired voters shed: (0,1), (2,0); survivors retained.
        assert_eq!(q.count(), old_map.total() - 2);
        assert_eq!(q.population(), roster.total());

        // Epoch-1 duplicates: every live voter votes again under the new
        // numbering. Stable keying dedupes them all; the only fresh voter
        // is party 3's joiner.
        for v in 0..roster.total() {
            q.vote(roster.stable_of(v));
        }
        assert_eq!(
            q.count(),
            roster.total(),
            "one logical voter was counted under two epochs' numberings"
        );
    }

    /// Retired voters' weight is shed on migration, not frozen into the
    /// accumulated total — the "ghost weight" half of the cross-epoch
    /// quorum-identity fix.
    #[test]
    fn migrate_sheds_retired_weight() {
        let w = Weights::new(vec![40, 35, 25]).unwrap();
        let old = TicketAssignment::new(vec![1, 1, 1]);
        let new = TicketAssignment::new(vec![1, 0, 1]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        let roster = Roster::new(VirtualUsers::from_assignment(&old).unwrap());

        let mut q = WeightQuorum::new(w, Ratio::of(2, 3));
        q.vote(solo(0));
        q.vote(solo(1));
        assert!(q.reached(), "75 > 2/3 of 100");

        roster.apply_delta(&delta).unwrap();
        // Party-keyed voters never retire: solo identities stay live as
        // long as the party holds a ticket; party 1's retired here.
        q.migrate(&roster);
        assert_eq!(q.weight(), 40, "retired voter's 35 released");
        assert!(!q.reached());
        q.vote(solo(2));
        assert!(!q.reached(), "65 is not > 2/3 of 100");
    }

    /// Builds a stake-refresh event over an unchanged assignment — the
    /// pure weight-drift epoch the reweigh machinery exists for.
    fn stake_event(prev: &Weights, next: &[u64]) -> EpochEvent {
        let tickets = TicketAssignment::new(vec![1; prev.len()]);
        let delta = TicketDelta::between(&tickets, &tickets).unwrap();
        EpochEvent::new(1, delta, prev, Weights::new(next.to_vec()).unwrap(), 0).unwrap()
    }

    /// The stale-stake hole the reweigh API closes: a pending quorum that
    /// was one dust vote short under the old weights must NOT cross the
    /// threshold after the whale backing it collapsed — the kept votes
    /// re-tally under current stake, revoking the almost-complete quorum.
    #[test]
    fn reweigh_revokes_an_almost_complete_quorum_after_whale_collapse() {
        let old = Weights::new(vec![50, 30, 20]).unwrap();
        let mut q = WeightQuorum::new(old.clone(), Ratio::of(2, 3));
        q.vote(solo(0));
        assert_eq!(q.weight(), 50);
        assert!(!q.reached(), "50 is not > 2/3 of 100");
        // The whale's stake collapses mid-vouch (slashed / unbonded).
        q.reweigh(&stake_event(&old, &[5, 30, 20]));
        assert_eq!(q.weight(), 5, "the kept vote carries current stake");
        // Under the old weights this vote would have completed the quorum
        // (50 + 30 = 80 > 66); under live stake it must not (35 ≤ 36.7).
        assert!(!q.vote(solo(1)), "stale whale weight crossed a current-epoch threshold");
        assert_eq!(q.weight(), 35);
        // A fresh tracker under the new weights agrees vote-for-vote.
        let mut fresh =
            WeightQuorum::new(Weights::new(vec![5, 30, 20]).unwrap(), Ratio::of(2, 3));
        fresh.vote(solo(0));
        fresh.vote(solo(1));
        assert_eq!((fresh.weight(), fresh.reached()), (q.weight(), q.reached()));
        // Stake moving the other way completes it without new votes.
        q.reweigh(&stake_event(&Weights::new(vec![5, 30, 20]).unwrap(), &[90, 30, 20]));
        assert!(q.reached(), "re-grown stake counts immediately");
    }

    #[test]
    fn reweigh_ignores_party_count_mismatches_in_release() {
        // Release builds must not corrupt the tracker on a mis-addressed
        // event (debug builds assert).
        let old = Weights::new(vec![10, 10]).unwrap();
        let mut q = WeightQuorum::new(old.clone(), Ratio::of(1, 3));
        q.vote(solo(0));
        let before = q.weight();
        let three = Weights::new(vec![1, 1, 1]).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.reweigh(&stake_event(&three, &[1, 1, 1]));
        }));
        if result.is_ok() {
            assert_eq!(q.weight(), before);
            assert_eq!(q.weights().len(), 2);
        }
    }

    /// The set's boundary report: exactly the keys whose quorum the stake
    /// drift completed, in key order — not a quorum that was reached
    /// before (this drift revokes it), not one still short.
    #[test]
    fn quorum_set_reports_the_quorums_a_reweigh_completes_in_key_order() {
        let old = Weights::new(vec![70, 10, 10, 10]).unwrap();
        let mut set =
            QuorumSet::new(Electorate::Weighted(old.clone()), |_: &char| Ratio::of(1, 2));
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
        // A tracker minted after the boundary tallies under the new stake.
        assert!(!set.vote('e', solo(1)), "30 of 100");
        assert!(set.vote('e', solo(2)), "60 of 100");
        // A boundary that moves no verdict reports nothing.
        assert!(set.on_epoch(&stake_event(&old, &[20, 60, 60, 60])).is_empty());
    }

    /// Roster regime: the boundary migrates every tracker — a shrinking
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
        let mut set =
            QuorumSet::new(Electorate::Roster(roster.clone()), |_: &u8| Ratio::of(2, 3));
        // 3 of 5 is not > 10/3; these three all survive the delta.
        for id in [StableId::new(0, 0), StableId::new(0, 1), StableId::new(1, 0)] {
            assert!(!set.vote(0, id));
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
        use proptest::prelude::*;

        proptest! {
            /// On equal weights, weighted voting degenerates to nominal
            /// counting — the consistency the paper's weighted-voting
            /// conversion relies on.
            #[test]
            fn weighted_equals_nominal_on_equal_weights(
                n in 1usize..30,
                votes in proptest::collection::vec(any::<proptest::sample::Index>(), 0..40),
                num in 1u128..6,
            ) {
                let threshold = Ratio::of(num, 6);
                prop_assume!(threshold.is_proper());
                let weights = Weights::new(vec![7; n]).unwrap();
                let mut wq = Quorum::weighted(weights, threshold);
                let mut nq = Quorum::nominal(n, threshold);
                for ix in votes {
                    let party = ix.index(n);
                    wq.vote(StableId::solo(party));
                    nq.vote(StableId::solo(party));
                    prop_assert_eq!(wq.reached(), nq.reached());
                }
            }

            /// Votes are monotone: once reached, a quorum stays reached.
            #[test]
            fn quorums_are_monotone(
                ws in proptest::collection::vec(1u64..100, 1..12),
                votes in proptest::collection::vec(any::<proptest::sample::Index>(), 1..40),
            ) {
                let n = ws.len();
                let weights = Weights::new(ws).unwrap();
                let mut q = Quorum::weighted(weights, Ratio::of(1, 2));
                let mut was_reached = false;
                for ix in votes {
                    q.vote(StableId::solo(ix.index(n)));
                    if was_reached {
                        prop_assert!(q.reached(), "quorum regressed");
                    }
                    was_reached = q.reached();
                }
            }

            /// Voting everyone always reaches any proper threshold.
            #[test]
            fn full_participation_reaches(
                ws in proptest::collection::vec(1u64..100, 1..12),
                num in 1u128..7,
            ) {
                let threshold = Ratio::of(num, 7);
                prop_assume!(threshold.is_proper());
                let n = ws.len();
                let weights = Weights::new(ws).unwrap();
                let mut q = Quorum::weighted(weights, threshold);
                for p in 0..n {
                    q.vote(StableId::solo(p));
                }
                prop_assert!(q.reached());
            }

            /// The reweigh contract, in full generality: for ANY vote
            /// prefix and ANY weight re-draw, the re-weighed tracker's
            /// verdict — and its exact tally — equals a fresh tracker's
            /// fed the same votes under the new weights. No ghost stake
            /// (old weights never linger in the tally), no lost votes
            /// (identity progress survives the re-draw). Checked after
            /// every single vote on both sides of the boundary.
            #[test]
            fn reweigh_matches_fresh_tracker_on_any_prefix_and_redraw(
                old_ws in proptest::collection::vec(1u64..1000, 1..10),
                new_ws in proptest::collection::vec(1u64..1000, 10),
                votes in proptest::collection::vec(any::<proptest::sample::Index>(), 0..24),
                split in any::<proptest::sample::Index>(),
                num in 1u128..5,
            ) {
                let n = old_ws.len();
                let threshold = Ratio::of(num, 5);
                prop_assume!(threshold.is_proper());
                let old = Weights::new(old_ws).unwrap();
                let new = Weights::new(new_ws[..n].to_vec()).unwrap();
                let boundary = split.index(votes.len() + 1);
                let mut reweighed = WeightQuorum::new(old.clone(), threshold);
                // Pre-boundary votes under the old weights...
                for ix in &votes[..boundary] {
                    reweighed.vote(StableId::solo(ix.index(n)));
                }
                // ...then the stake refresh...
                reweighed.reweigh(&stake_event(&old, new.as_slice()));
                // ...must leave a tracker indistinguishable from a fresh
                // one that saw every vote under the new weights.
                let mut fresh = WeightQuorum::new(new, threshold);
                for ix in &votes[..boundary] {
                    fresh.vote(StableId::solo(ix.index(n)));
                }
                prop_assert_eq!(reweighed.weight(), fresh.weight());
                prop_assert_eq!(reweighed.reached(), fresh.reached());
                for ix in &votes[boundary..] {
                    let party = ix.index(n);
                    prop_assert_eq!(
                        reweighed.vote(StableId::solo(party)),
                        fresh.vote(StableId::solo(party))
                    );
                    prop_assert_eq!(reweighed.weight(), fresh.weight());
                }
            }

            /// Stable keying is invariant under delta chains: voting every
            /// virtual user once per epoch along a random chain, with a
            /// migrate at each boundary, ends with exactly the final
            /// population — never more (double counts), never less (lost
            /// survivors), whatever the renumbering did.
            #[test]
            fn vote_once_per_epoch_counts_each_logical_voter_once(
                base in proptest::collection::vec(0u64..6, 1..10),
                epochs in proptest::collection::vec(
                    proptest::collection::vec(0u64..6, 10), 1..5),
            ) {
                let n = base.len();
                let mut current = TicketAssignment::new(base);
                let roster = Roster::new(VirtualUsers::from_assignment(&current).unwrap());
                let mut q = CountQuorum::at_least(roster.total(), 1);
                for v in 0..roster.total() {
                    q.vote(roster.stable_of(v));
                }
                for epoch in &epochs {
                    let next = TicketAssignment::new(epoch[..n].to_vec());
                    let delta = TicketDelta::between(&current, &next).unwrap();
                    roster.apply_delta(&delta).unwrap();
                    current = next;
                    q.migrate(&roster);
                    for v in 0..roster.total() {
                        q.vote(roster.stable_of(v));
                    }
                    prop_assert_eq!(q.count(), roster.total());
                }
            }
        }
    }
}
