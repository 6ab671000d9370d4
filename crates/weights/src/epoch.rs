//! Snapshot-driven epoch reconfiguration.
//!
//! Stake moves every epoch, but per-epoch deltas touch few parties, so
//! re-running the solver from scratch wastes almost all of its work. This
//! module is the reconfiguration loop built on the two incremental
//! primitives in `swiper-core`:
//!
//! * **warm-started search** — [`Swiper::resolve_from`] seeds the binary
//!   search bracket from the previous epoch's ticket total instead of
//!   `[0, bound]`;
//! * **verdict caching** — each tracked instance keeps a persistent
//!   [`CachingOracle`], so any check whose `(member, params)` fingerprint
//!   was already judged (an unchanged snapshot, a verification re-solve, a
//!   repeated settings-grid cell) is answered without touching the
//!   knapsack machinery.
//!
//! A [`Reconfigurator`] tracks one or more [`Setting`]s (problem shapes
//! with fixed thresholds), consumes a stream of [`Weights`] snapshots via
//! [`Reconfigurator::advance`], and per epoch emits the new
//! [`Solution`]s plus a [`TicketDelta`] per track — the compact
//! joining/leaving diff that `swiper_core::VirtualUsers::apply_delta`
//! splices into a live mapping without rebuilding it.
//!
//! The warm path returns a valid local minimum with the same guarantees
//! (and determinism) as a cold solve, but the validity predicate is not
//! perfectly monotone along the family — isolated dips can hold several
//! local minima, and a warm bracket may settle on a different one than
//! cold bisection (see `Swiper::resolve_from`). Left unchecked, that
//! difference is *sticky*: the warm chain re-anchors on its own previous
//! total each epoch, so it can sit a few tickets above the cold answer
//! for many epochs. [`Reconfigurator::with_cold_check`] is the verified
//! mode for deployments that care: every epoch is additionally re-derived
//! cold through the same shared caches (the flip-region verdicts the warm
//! pass just filled in answer much of it), the **cold result is the one
//! published and chained** — bit-identical to a from-scratch solve, by
//! construction — and [`EpochOutcome::verified`] reports whether the warm
//! pass had agreed.
//!
//! The `epochs` binary in `swiper-bench` replays churned chain snapshots
//! through this loop and reports `dp_invocations` and cache hit rates per
//! epoch.

use rand::rngs::StdRng;
use rand::Rng;
use swiper_core::{
    CachingOracle, CoreError, EpochEvent, FullOracle, Instance, Solution, SolveStats, Swiper,
    TicketDelta, WeightQualification, WeightRestriction, WeightSeparation, Weights,
};

/// A tracked problem shape with fixed thresholds; the weights come from
/// each epoch's snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// Weight Restriction with fixed `(alpha_w, alpha_n)`.
    Restriction(WeightRestriction),
    /// Weight Qualification with fixed `(beta_w, beta_n)`.
    Qualification(WeightQualification),
    /// Weight Separation with fixed `(alpha, beta)`.
    Separation(WeightSeparation),
}

impl Setting {
    /// Binds this setting to a snapshot, producing a solvable instance.
    #[must_use]
    pub fn instance(&self, weights: Weights) -> Instance {
        match *self {
            Setting::Restriction(p) => Instance::restriction(weights, p),
            Setting::Qualification(p) => Instance::qualification(weights, p),
            Setting::Separation(p) => Instance::separation(weights, p),
        }
    }
}

/// What one [`Reconfigurator::advance`] call produced.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The epoch index (0 for the first snapshot consumed).
    pub epoch: u64,
    /// Per-track **published** solutions for this epoch's snapshot, in
    /// setting order: the warm-pass results in incremental mode, the
    /// cold-identical results under [`Reconfigurator::with_cold_check`].
    pub solutions: Vec<Solution>,
    /// Per-track weight-bearing reconfiguration events: the diff of the
    /// published assignment against the previous epoch's plus this
    /// epoch's snapshot and the loop's rekey seed (`None` on epoch 0 —
    /// there is nothing to reconfigure *from*).
    pub events: Vec<Option<EpochEvent>>,
    /// The warm pass, when it is not the published one (`Some` only under
    /// [`Reconfigurator::with_cold_check`]): telemetry for how far the
    /// warm bracket got and what it cost.
    pub warm_solutions: Option<Vec<Solution>>,
}

impl EpochOutcome {
    /// This track's reconfiguration event (`None` on epoch 0).
    #[must_use]
    pub fn event(&self, track: usize) -> Option<&EpochEvent> {
        self.events[track].as_ref()
    }

    /// This track's ticket delta (`None` on epoch 0) — shorthand for
    /// [`EpochOutcome::event`]`.map(EpochEvent::delta)`.
    #[must_use]
    pub fn delta(&self, track: usize) -> Option<&TicketDelta> {
        self.events[track].as_ref().map(EpochEvent::delta)
    }

    /// Aggregated counters of the published solve pass across all tracks.
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        let mut total = SolveStats::default();
        for sol in &self.solutions {
            total.absorb(&sol.stats);
        }
        total
    }

    /// Aggregated counters of the warm pass under
    /// [`Reconfigurator::with_cold_check`] (`None` in incremental mode,
    /// where [`EpochOutcome::stats`] already describes the warm pass).
    #[must_use]
    pub fn warm_stats(&self) -> Option<SolveStats> {
        self.warm_solutions.as_ref().map(|solutions| {
            let mut total = SolveStats::default();
            for sol in solutions {
                total.absorb(&sol.stats);
            }
            total
        })
    }

    /// Whether the warm pass agreed with the published cold-identical
    /// assignments (`None` in incremental mode). `Some(false)` marks an
    /// epoch where the warm bracket settled on a different local minimum —
    /// expected occasionally (see the module docs), surfaced for
    /// telemetry.
    #[must_use]
    pub fn verified(&self) -> Option<bool> {
        self.warm_solutions.as_ref().map(|warm| {
            warm.len() == self.solutions.len()
                && warm.iter().zip(&self.solutions).all(|(w, p)| {
                    w.assignment == p.assignment && w.ticket_bound == p.ticket_bound
                })
        })
    }
}

/// The epoch reconfiguration loop: persistent per-track caching oracles,
/// warm-started re-solves, delta emission.
///
/// # Examples
///
/// ```
/// use swiper_core::{Ratio, Swiper, VirtualUsers, WeightRestriction, Weights};
/// use swiper_weights::epoch::{Reconfigurator, Setting};
///
/// # fn main() -> Result<(), swiper_core::CoreError> {
/// let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2))?;
/// let mut loop_ = Reconfigurator::new(Swiper::new(), vec![Setting::Restriction(wr)]);
///
/// let epoch0 = loop_.advance(&Weights::new(vec![50, 30, 11, 5, 2, 1, 1])?)?;
/// let mut mapping = VirtualUsers::from_assignment(&epoch0.solutions[0].assignment)?;
///
/// // One party's stake moved: warm re-solve, splice the event's delta.
/// let epoch1 = loop_.advance(&Weights::new(vec![50, 30, 11, 5, 2, 4, 1])?)?;
/// if let Some(event) = epoch1.event(0) {
///     mapping.apply_delta(event.delta())?;
///     assert!(event.weights_changed());
/// }
/// assert_eq!(mapping, VirtualUsers::from_assignment(&epoch1.solutions[0].assignment)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Reconfigurator {
    solver: Swiper,
    settings: Vec<Setting>,
    oracles: Vec<CachingOracle<FullOracle>>,
    prev: Vec<Option<Solution>>,
    prev_snapshot: Option<Weights>,
    epoch: u64,
    cold_check: bool,
    rekey_seed: u64,
}

impl Reconfigurator {
    /// A reconfiguration loop tracking the given settings. Each track gets
    /// a dedicated persistent [`CachingOracle`] around a [`FullOracle`],
    /// without delta-stable verdict certificates: a certified check needs
    /// the DP's whole frontier, which costs more than the floor-reduced
    /// decision DP it would later skip (opt in via
    /// [`Reconfigurator::with_certificates`]). The solver's mode is
    /// ignored for oracle construction (the loop's identity guarantees are
    /// stated for exact oracles).
    #[must_use]
    pub fn new(solver: Swiper, settings: Vec<Setting>) -> Self {
        let oracles = settings.iter().map(|_| CachingOracle::new(FullOracle::new())).collect();
        let prev = settings.iter().map(|_| None).collect();
        Reconfigurator {
            solver,
            settings,
            oracles,
            prev,
            prev_snapshot: None,
            epoch: 0,
            cold_check: false,
            rekey_seed: 0,
        }
    }

    /// Sets the session rekey seed carried by every emitted
    /// [`EpochEvent`] (default 0). Consumers fold it with the new
    /// assignment's fingerprint when re-dealing epoch-pinned keys, so one
    /// seed per deployment keeps every replica — and any teardown-rebuild
    /// twin — dealing identical keys.
    #[must_use]
    pub fn with_rekey_seed(mut self, seed: u64) -> Self {
        self.rekey_seed = seed;
        self
    }

    /// Enables verified mode: every `advance` additionally re-solves each
    /// track cold (no warm hint) through the same shared cache, publishes
    /// and chains the **cold** results — making the loop's output
    /// bit-identical to from-scratch solves by construction — and keeps
    /// the warm pass as telemetry ([`EpochOutcome::warm_solutions`],
    /// [`EpochOutcome::verified`]). Publishing cold also re-anchors the
    /// next epoch's warm bracket, so a warm-pass divergence never sticks.
    #[must_use]
    pub fn with_cold_check(mut self, on: bool) -> Self {
        self.cold_check = on;
        self
    }

    /// Enables or disables delta-stable verdict certificates on every
    /// track's caching oracle (default: disabled). Certificates never
    /// change a verdict — see `swiper_core::oracle` — so this only moves
    /// `dp_invocations` into `certificate_skips`, at the price of running
    /// every remaining DP in full-frontier probe mode.
    #[must_use]
    pub fn with_certificates(mut self, on: bool) -> Self {
        self.oracles = self.oracles.into_iter().map(|o| o.with_certificates(on)).collect();
        self
    }

    /// Whether the per-track oracles replay delta-stable certificates.
    #[must_use]
    pub fn certificates_enabled(&self) -> bool {
        self.oracles.iter().any(CachingOracle::certificates_enabled)
    }

    /// The tracked settings, in track order.
    #[must_use]
    pub fn settings(&self) -> &[Setting] {
        &self.settings
    }

    /// Epochs consumed so far.
    #[must_use]
    pub fn epochs_consumed(&self) -> u64 {
        self.epoch
    }

    /// Total verdicts currently cached across all tracks.
    #[must_use]
    pub fn cached_verdicts(&self) -> usize {
        self.oracles.iter().map(CachingOracle::len).sum()
    }

    /// Consumes the next snapshot: warm re-solves every track (cold on the
    /// first epoch), emits per-track [`EpochEvent`]s against the previous
    /// epoch, and rolls the loop state forward.
    ///
    /// # Errors
    ///
    /// [`CoreError::PartyCountChanged`] when the snapshot covers a
    /// different number of parties than the previous epoch's — party sets
    /// are fixed across epochs, and validating here surfaces the real
    /// mistake instead of the downstream `DeltaMismatch` the stale-base
    /// check would eventually raise deep in `apply_delta`. Otherwise
    /// propagates solver errors; the loop state is unchanged on failure.
    pub fn advance(&mut self, snapshot: &Weights) -> Result<EpochOutcome, CoreError> {
        if let Some(prev) = &self.prev_snapshot {
            if prev.len() != snapshot.len() {
                return Err(CoreError::PartyCountChanged {
                    expected: prev.len(),
                    found: snapshot.len(),
                });
            }
        }
        let instances: Vec<Instance> =
            self.settings.iter().map(|s| s.instance(snapshot.clone())).collect();
        let warm = self.solver.resolve_many_with(&instances, &self.prev, &mut self.oracles)?;
        // In verified mode the cold pass (through the same caches, so the
        // flip-region verdicts the warm pass just judged are hits) is the
        // published truth; the warm pass becomes telemetry.
        let (published, warm_solutions) = if self.cold_check {
            let cold_priors: Vec<Option<Solution>> = vec![None; instances.len()];
            let cold =
                self.solver.resolve_many_with(&instances, &cold_priors, &mut self.oracles)?;
            (cold, Some(warm))
        } else {
            (warm, None)
        };
        let prev_snapshot = self.prev_snapshot.as_ref().unwrap_or(snapshot);
        let events = self
            .prev
            .iter()
            .zip(&published)
            .map(|(prev, sol)| {
                prev.as_ref()
                    .map(|p| {
                        let delta = TicketDelta::between(&p.assignment, &sol.assignment)?;
                        EpochEvent::new(
                            self.epoch,
                            delta,
                            prev_snapshot,
                            snapshot.clone(),
                            self.rekey_seed,
                        )
                    })
                    .transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let outcome = EpochOutcome {
            epoch: self.epoch,
            solutions: published.clone(),
            events,
            warm_solutions,
        };
        self.prev = published.into_iter().map(Some).collect();
        self.prev_snapshot = Some(snapshot.clone());
        self.epoch += 1;
        Ok(outcome)
    }

    /// Drives the loop over a whole snapshot stream.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first failing epoch.
    pub fn run<I>(&mut self, snapshots: I) -> Result<Vec<EpochOutcome>, CoreError>
    where
        I: IntoIterator<Item = Weights>,
    {
        snapshots.into_iter().map(|s| self.advance(&s)).collect()
    }

    /// Drives the loop over a snapshot stream *against a live instance*:
    /// after each epoch's solve, `driver` receives the snapshot and the
    /// [`EpochOutcome`] — per-track solutions and [`EpochEvent`]s — and splices
    /// them into whatever long-running protocol state it owns (an SMR
    /// pipeline, black-box virtual users, ...) before the next snapshot
    /// is consumed. This is the adapter the `epochs` bench bin uses to
    /// replay churn chains against live SMR instead of solver-only.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first failing epoch; epochs already
    /// driven stay driven.
    pub fn drive_simulation<I, F>(
        &mut self,
        snapshots: I,
        mut driver: F,
    ) -> Result<Vec<EpochOutcome>, CoreError>
    where
        I: IntoIterator<Item = Weights>,
        F: FnMut(&Weights, &EpochOutcome),
    {
        snapshots
            .into_iter()
            .map(|snapshot| {
                let outcome = self.advance(&snapshot)?;
                driver(&snapshot, &outcome);
                Ok(outcome)
            })
            .collect()
    }
}

/// How [`churn_with`] draws per-party stake moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChurnMode {
    /// Unbiased drift: each churned party rescales by a factor drawn
    /// uniformly from `±magnitude_pct` percent — the benchmark default.
    #[default]
    Drift,
    /// Mixed join/leave pressure: the churned parties are split half and
    /// half into strict losers (factor in `[100 - magnitude, 99]`%) and
    /// strict gainers (`[101, 100 + magnitude]`%). Re-solving such
    /// snapshots yields [`TicketDelta`]s that *shrink some ranges while
    /// growing others* — the live-renumbering epochs the stable-identity
    /// plumbing must survive, where dense-id designs double-count or
    /// strand voters.
    Mixed,
}

impl ChurnMode {
    /// Parses a CLI spelling (`drift` / `mixed`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "drift" => Some(ChurnMode::Drift),
            "mixed" => Some(ChurnMode::Mixed),
            _ => None,
        }
    }
}

/// Perturbs a snapshot the way per-epoch stake churn does: `churned`
/// distinct parties (picked uniformly) have their stake rescaled by a
/// factor drawn per [`ChurnMode`], floored at 1 so no party vanishes.
/// Per-epoch stake moves are small in practice — delegation drift,
/// rewards, partial unbonds — so `magnitude_pct = 5` is the benchmark
/// default. Deterministic given the RNG state.
///
/// # Panics
///
/// Panics if `churned > snapshot.len()`, `magnitude_pct >= 100`, or
/// (mixed mode) `magnitude_pct == 0` — a mixed draw needs room on both
/// sides of 100%.
#[must_use]
pub fn churn_with(
    mode: ChurnMode,
    snapshot: &Weights,
    churned: usize,
    magnitude_pct: u64,
    rng: &mut StdRng,
) -> Weights {
    assert!(churned <= snapshot.len(), "cannot churn more parties than exist");
    assert!(magnitude_pct < 100, "stake cannot shrink below zero");
    assert!(
        mode == ChurnMode::Drift || magnitude_pct > 0,
        "mixed churn needs a nonzero magnitude"
    );
    let n = snapshot.len();
    let mut order: Vec<usize> = (0..n).collect();
    // Partial Fisher–Yates: the first `churned` slots are a uniform draw
    // of distinct parties.
    for i in 0..churned {
        let j = rng.random_range(i..n);
        order.swap(i, j);
    }
    let mut next = snapshot.as_slice().to_vec();
    for (slot, &party) in order[..churned].iter().enumerate() {
        let factor = match mode {
            ChurnMode::Drift => rng.random_range(100 - magnitude_pct..=100 + magnitude_pct),
            // First half loses, second half gains (odd counts lean
            // loser-heavy: shrink is the historically under-tested side).
            ChurnMode::Mixed if slot < churned.div_ceil(2) => {
                rng.random_range(100 - magnitude_pct..=99)
            }
            ChurnMode::Mixed => rng.random_range(101..=100 + magnitude_pct),
        };
        next[party] = (next[party].saturating_mul(factor) / 100).max(1);
    }
    Weights::new(next).expect("churn keeps every weight positive")
}

/// [`churn_with`] in the default [`ChurnMode::Drift`] regime.
///
/// # Panics
///
/// Panics if `churned > snapshot.len()` or `magnitude_pct >= 100`.
#[must_use]
pub fn churn(
    snapshot: &Weights,
    churned: usize,
    magnitude_pct: u64,
    rng: &mut StdRng,
) -> Weights {
    churn_with(ChurnMode::Drift, snapshot, churned, magnitude_pct, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use swiper_core::{Ratio, VirtualUsers};

    fn wr() -> Setting {
        Setting::Restriction(WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap())
    }

    fn ws() -> Setting {
        Setting::Separation(WeightSeparation::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap())
    }

    #[test]
    fn mixed_churn_moves_stake_in_both_directions() {
        let w = crate::gen::zipf(64, 0.8, 1 << 20);
        let mut rng = StdRng::seed_from_u64(5);
        let next = churn_with(ChurnMode::Mixed, &w, 8, 10, &mut rng);
        let mut gained = 0usize;
        let mut lost = 0usize;
        for (a, b) in w.as_slice().iter().zip(next.as_slice()) {
            gained += usize::from(b > a);
            lost += usize::from(b < a);
        }
        // 8 churned parties, half strict losers and half strict gainers
        // (integer floor can only ever soften a move to "unchanged", and
        // only for tiny stakes, which zipf(1<<20) does not produce here).
        assert_eq!(gained, 4, "gainers: {gained}");
        assert_eq!(lost, 4, "losers: {lost}");
    }

    #[test]
    fn churn_touches_exactly_the_requested_parties() {
        let w = crate::gen::zipf(64, 0.8, 1 << 20);
        let mut rng = StdRng::seed_from_u64(7);
        let next = churn(&w, 3, 50, &mut rng);
        let changed = w.as_slice().iter().zip(next.as_slice()).filter(|(a, b)| a != b).count();
        assert!(changed <= 3, "at most the churned parties move: {changed}");
        assert_eq!(next.len(), w.len());
        assert!(next.as_slice().iter().all(|&x| x > 0));
        // Zero churn is the identity.
        assert_eq!(churn(&w, 0, 50, &mut rng), w);
    }

    #[test]
    fn reconfigurator_emits_deltas_that_splice_mappings() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut loop_ = Reconfigurator::new(Swiper::new(), vec![wr(), ws()]);
        let mut snapshot = crate::gen::zipf(48, 0.9, 1 << 16);
        let first = loop_.advance(&snapshot).unwrap();
        assert_eq!(first.epoch, 0);
        assert!(first.events.iter().all(Option::is_none), "no event before epoch 1");
        let mut mappings: Vec<VirtualUsers> = first
            .solutions
            .iter()
            .map(|s| VirtualUsers::from_assignment(&s.assignment).unwrap())
            .collect();
        for _ in 0..6 {
            snapshot = churn(&snapshot, 2, 30, &mut rng);
            let outcome = loop_.advance(&snapshot).unwrap();
            for (track, mapping) in mappings.iter_mut().enumerate() {
                if let Some(event) = outcome.event(track) {
                    mapping.apply_delta(event.delta()).unwrap();
                    assert_eq!(event.weights(), &snapshot, "track {track} stake refresh");
                }
                let rebuilt =
                    VirtualUsers::from_assignment(&outcome.solutions[track].assignment)
                        .unwrap();
                assert_eq!(*mapping, rebuilt, "track {track}");
            }
        }
        assert_eq!(loop_.epochs_consumed(), 7);
        assert!(loop_.cached_verdicts() > 0);
    }

    /// `drive_simulation` hands each epoch's snapshot + outcome to the
    /// live-instance driver, in order, and the deltas it delivers splice
    /// a mapping identically to rebuilding from the published solutions.
    #[test]
    fn drive_simulation_feeds_each_epoch_to_the_driver() {
        let mut loop_ = Reconfigurator::new(Swiper::new(), vec![wr()]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut snapshots = vec![crate::gen::zipf(32, 0.8, 1 << 16)];
        for _ in 0..4 {
            let next = churn(snapshots.last().unwrap(), 2, 20, &mut rng);
            snapshots.push(next);
        }
        let mut mapping: Option<VirtualUsers> = None;
        let mut driven = 0u64;
        let outcomes = loop_
            .drive_simulation(snapshots, |snapshot, outcome| {
                assert_eq!(snapshot.len(), 32);
                assert_eq!(outcome.epoch, driven);
                driven += 1;
                match (&mut mapping, &outcome.events[0]) {
                    (Some(m), Some(event)) => m.apply_delta(event.delta()).unwrap(),
                    (m, _) => {
                        *m = Some(
                            VirtualUsers::from_assignment(&outcome.solutions[0].assignment)
                                .unwrap(),
                        );
                    }
                }
            })
            .unwrap();
        assert_eq!(driven, 5);
        assert_eq!(outcomes.len(), 5);
        let final_mapping =
            VirtualUsers::from_assignment(&outcomes.last().unwrap().solutions[0].assignment)
                .unwrap();
        assert_eq!(mapping.unwrap(), final_mapping);
    }

    /// Satellite fix: a snapshot that changes the party *count* is
    /// rejected at the API boundary with the typed error — not with the
    /// `DeltaMismatch` that used to surface much later from deep inside
    /// `apply_delta` — and the loop state stays untouched.
    #[test]
    fn party_count_change_is_a_typed_boundary_error() {
        let mut loop_ = Reconfigurator::new(Swiper::new(), vec![wr()]);
        loop_.advance(&crate::gen::zipf(12, 0.8, 1 << 12)).unwrap();
        let grown = crate::gen::zipf(13, 0.8, 1 << 12);
        let err = loop_.advance(&grown).unwrap_err();
        assert_eq!(err, CoreError::PartyCountChanged { expected: 12, found: 13 });
        assert_eq!(
            err.to_string(),
            "snapshot changes the party count (12 -> 13) without a matching delta: \
             party sets are fixed across epochs"
        );
        // The boundary check leaves the loop usable: the original shape
        // still advances, and epoch numbering never consumed the reject.
        assert_eq!(loop_.epochs_consumed(), 1);
        let ok = loop_.advance(&crate::gen::zipf(12, 0.7, 1 << 12)).unwrap();
        assert_eq!(ok.epoch, 1);
    }

    /// The emitted events chain: each epoch's previous-weights
    /// fingerprint is exactly the fingerprint of the snapshot before it,
    /// the carried weights are the epoch's snapshot, and the rekey seed
    /// is the session's.
    #[test]
    fn events_chain_fingerprints_across_epochs() {
        let mut loop_ = Reconfigurator::new(Swiper::new(), vec![wr()]).with_rekey_seed(77);
        let mut rng = StdRng::seed_from_u64(9);
        let mut snapshot = crate::gen::zipf(24, 0.9, 1 << 14);
        loop_.advance(&snapshot).unwrap();
        for epoch in 1..5 {
            let prev = snapshot.clone();
            snapshot = churn(&snapshot, 2, 40, &mut rng);
            let outcome = loop_.advance(&snapshot).unwrap();
            let event = outcome.event(0).expect("events from epoch 1 on");
            assert_eq!(event.epoch(), epoch);
            assert_eq!(event.prev_weights_fingerprint(), prev.fingerprint());
            assert_eq!(event.weights(), &snapshot);
            assert_eq!(event.rekey_seed(), 77);
            assert_eq!(event.weights_changed(), snapshot != prev);
        }
    }

    #[test]
    fn unchanged_snapshot_is_fully_cached() {
        let mut loop_ = Reconfigurator::new(Swiper::new(), vec![wr()]);
        let snapshot = crate::gen::zipf(40, 0.7, 1 << 16);
        loop_.advance(&snapshot).unwrap();
        let again = loop_.advance(&snapshot).unwrap();
        let stats = again.stats();
        assert_eq!(stats.cache_misses, 0, "identical epoch re-solves from the cache");
        assert!(stats.cache_hits > 0);
        assert!(again.delta(0).unwrap().is_unchanged());
        assert!(!again.event(0).unwrap().weights_changed());
    }

    /// The ISSUE acceptance criterion: on a 1%-churn replay, the
    /// warm-started, verdict-cached re-solve produces assignments
    /// identical to independent cold solves while invoking the knapsack
    /// DP strictly fewer times. Tezos is the scenario where the cold
    /// search actually pays for DP calls on the mid-path (Aptos settles
    /// everything by the quick bounds), so the saving is observable and
    /// the assertion is strict.
    #[test]
    fn one_percent_churn_replay_matches_cold_with_strictly_fewer_dp_calls() {
        let solver = Swiper::new();
        let setting = wr();
        let mut loop_ = Reconfigurator::new(solver, vec![setting]).with_cold_check(true);
        // Tezos replica: 382 parties; 1% churn = 4 parties per epoch, each
        // moving at most ±5% of its stake.
        let mut snapshot = crate::Chain::Tezos.weights();
        let churned = snapshot.len().div_ceil(100);
        let mut rng = StdRng::seed_from_u64(1);
        let mut warm_dp = 0u64;
        let mut cold_dp = 0u64;
        let mut lookups = 0u64;
        let mut warm_agreed = 0u64;
        for epoch in 0..25 {
            let outcome = loop_.advance(&snapshot).unwrap();
            // Independent cold solve: fresh oracle, no cache, no hint.
            let cold = solver.solve_instance(&setting.instance(snapshot.clone())).unwrap();
            assert_eq!(
                outcome.solutions[0].assignment, cold.assignment,
                "epoch {epoch}: published assignments must be identical to cold"
            );
            let warm = outcome.warm_stats().expect("verified mode records the warm pass");
            warm_dp += warm.dp_invocations;
            cold_dp += cold.stats.dp_invocations;
            lookups += warm.cache_lookups() + outcome.stats().cache_lookups();
            warm_agreed += u64::from(outcome.verified() == Some(true));
            snapshot = churn(&snapshot, churned, 5, &mut rng);
        }
        assert!(
            warm_dp < cold_dp,
            "the warm pass must need strictly fewer DP invocations: \
             warm {warm_dp} vs cold {cold_dp}"
        );
        assert!(lookups > 0, "the shared caches must actually be consulted");
        assert!(warm_agreed >= 20, "warm pass should agree on most epochs: {warm_agreed}/25");
    }

    /// The PR-6 acceptance criterion: on the same 25-epoch Tezos 1%-churn
    /// replay, a certificate-enabled loop publishes bit-identical
    /// assignments to a certificate-free one while running the DP strictly
    /// fewer times — the skipped calls show up in `certificate_skips`.
    #[test]
    fn certified_replay_beats_warm_baseline_dp_count() {
        let setting = wr();
        let mut base = Reconfigurator::new(Swiper::new(), vec![setting]);
        let mut cert =
            Reconfigurator::new(Swiper::new(), vec![setting]).with_certificates(true);
        assert!(!base.certificates_enabled());
        assert!(cert.certificates_enabled());
        let mut snapshot = crate::Chain::Tezos.weights();
        let churned = snapshot.len().div_ceil(100);
        let mut rng = StdRng::seed_from_u64(1);
        let (mut base_dp, mut cert_dp, mut skips) = (0u64, 0u64, 0u64);
        for epoch in 0..25 {
            let b = base.advance(&snapshot).unwrap();
            let c = cert.advance(&snapshot).unwrap();
            assert_eq!(
                b.solutions[0].assignment, c.solutions[0].assignment,
                "epoch {epoch}: certificates must not change the published assignment"
            );
            let (bs, cs) = (b.stats(), c.stats());
            assert_eq!(bs.certificate_skips, 0);
            base_dp += bs.dp_invocations;
            cert_dp += cs.dp_invocations;
            skips += cs.certificate_skips;
            snapshot = churn(&snapshot, churned, 5, &mut rng);
        }
        assert!(
            cert_dp < base_dp,
            "certificates must skip DP calls: certified {cert_dp} vs baseline {base_dp}"
        );
        assert!(skips > 0, "the skip counter must surface the fast path");
    }
}
