//! The Swiper approximate solver (paper, Section 3).
//!
//! Swiper searches the totally-ordered `t(s, k)` family for a *local
//! minimum*: a viable assignment whose predecessor (one fewer ticket) is not
//! viable. Appendix A proves every such local minimum respects the
//! Theorem 2.1/2.3/2.4 upper bounds, and that the family member carrying
//! exactly the upper-bound total is always viable ("bootstrapping"), so a
//! binary search between the invalid all-zero member and the bound member
//! suffices.
//!
//! Validity judgement is delegated to a pluggable [`ValidityOracle`]
//! (see [`crate::oracle`]); one generic binary-search driver serves all
//! three problem shapes. Two stock oracles mirror the prototype:
//!
//! * [`Mode::Full`] → [`FullOracle`] — exact validity via the three-valued
//!   quick test (quasilinear bounds) with the `O(n*T)` knapsack DP only on
//!   "uncertain"; finds a local minimum.
//! * [`Mode::Linear`] → [`LinearOracle`] — only the conservative bound
//!   (never falsely accepts); guaranteed valid but possibly not locally
//!   minimal, `~O(n)` per check.
//!
//! Batch workloads (parameter sweeps, per-epoch re-solves over many chains)
//! go through [`Swiper::solve_many`], which fans instances out across OS
//! threads — weight reduction instances are embarrassingly parallel — via a
//! work-stealing index cursor (so one oversized instance never serializes a
//! whole chunk behind it), while each worker recycles one oracle's memoized
//! scratch across every instance it claims.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::assignment::TicketAssignment;
use crate::error::CoreError;
use crate::family::{Family, FamilyCursor};
use crate::oracle::{
    CheckParams, FamilyMember, FullOracle, LinearOracle, ValidityOracle, Verdict,
};
use crate::problems::{WeightQualification, WeightRestriction, WeightSeparation};
use crate::ratio::Ratio;
use crate::sampling;
use crate::weights::Weights;

/// Validity-checking regime (the prototype's `--linear` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Mode {
    /// Quick test + exact DP on uncertainty; local minimum guaranteed.
    #[default]
    Full,
    /// Conservative bound only; valid but possibly more tickets.
    Linear,
}

impl Mode {
    /// A fresh boxed oracle implementing this regime.
    #[must_use]
    pub fn new_oracle(self) -> Box<dyn ValidityOracle + Send> {
        match self {
            Mode::Full => Box::new(FullOracle::new()),
            Mode::Linear => Box::new(LinearOracle::new()),
        }
    }
}

/// Counters describing how a solve went; useful for the paper's ">3x fewer
/// DP calls" claim and for regression tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Family members materialized and checked.
    pub candidates_checked: u64,
    /// Checks settled by the conservative (fractional upper) bound.
    pub settled_by_upper_bound: u64,
    /// Checks settled by the liberal (greedy lower) bound.
    pub settled_by_lower_bound: u64,
    /// Checks that needed the exact DP.
    pub dp_invocations: u64,
    /// Checks settled by the theoretical bound itself (bootstrapping).
    pub settled_by_theorem: u64,
    /// Checks answered from a [`crate::CachingOracle`] verdict cache.
    pub cache_hits: u64,
    /// Checks that went through to the wrapped oracle (zero when no
    /// caching decorator is in play).
    pub cache_misses: u64,
    /// Checks settled by replaying a delta-stable verdict certificate
    /// (see [`crate::oracle`]) instead of re-running bounds or the DP.
    /// Counted separately from cache hits: the member differed from the
    /// one that produced the stored verdict.
    pub certificate_skips: u64,
    /// Probes the family cursor served from its cached grid interval by an
    /// O(Δ) rank-delta splice instead of an O(n) interval rebuild.
    pub cursor_advances: u64,
    /// O(n) grid-count passes the family cursor ran to locate the grid
    /// intervals of the probed totals (memoized across a solve's probes).
    pub grid_counts: u64,
    /// Bisection midpoints settled by the sampler's trust window (assumed
    /// verdicts that survived endpoint re-verification) instead of exact
    /// probes — zero when the sampler is not engaged or its estimate was
    /// refuted and the search fell back to the untrusted bisection.
    pub probes_saved: u64,
    /// Checks settled by a certificate found through the coarse quantized
    /// total index — the stored total differed from the probed one, but the
    /// replayed margin still covered it. Disjoint from `certificate_skips`,
    /// which counts exact-total matches.
    pub coarse_cert_hits: u64,
}

impl SolveStats {
    /// Adds `other`'s counters into `self` — the aggregation primitive for
    /// sweeps and epoch replays.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.candidates_checked += other.candidates_checked;
        self.settled_by_upper_bound += other.settled_by_upper_bound;
        self.settled_by_lower_bound += other.settled_by_lower_bound;
        self.dp_invocations += other.dp_invocations;
        self.settled_by_theorem += other.settled_by_theorem;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.certificate_skips += other.certificate_skips;
        self.cursor_advances += other.cursor_advances;
        self.grid_counts += other.grid_counts;
        self.probes_saved += other.probes_saved;
        self.coarse_cert_hits += other.coarse_cert_hits;
    }

    /// Cache lookups observed (`hits + misses`).
    pub fn cache_lookups(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }

    /// Fraction of cache lookups answered from the cache (`0.0` when no
    /// caching oracle was involved).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_lookups();
        if lookups == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / lookups as f64
    }
}

/// A solved weight reduction instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Solution {
    /// The ticket assignment found.
    pub assignment: TicketAssignment,
    /// The theoretical upper bound for this instance (Theorems 2.1/2.3/2.4).
    pub ticket_bound: u64,
    /// Solve-time counters.
    pub stats: SolveStats,
}

impl Solution {
    /// Total tickets allocated.
    pub fn total_tickets(&self) -> u128 {
        self.assignment.total()
    }
}

/// One weight reduction instance for batch solving via
/// [`Swiper::solve_many`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instance {
    /// A Weight Restriction (Problem 1) instance.
    Restriction {
        /// Party weights.
        weights: Weights,
        /// Problem parameters.
        params: WeightRestriction,
    },
    /// A Weight Qualification (Problem 2) instance, solved through the
    /// Theorem 2.2 reduction.
    Qualification {
        /// Party weights.
        weights: Weights,
        /// Problem parameters.
        params: WeightQualification,
    },
    /// A Weight Separation (Problem 3) instance.
    Separation {
        /// Party weights.
        weights: Weights,
        /// Problem parameters.
        params: WeightSeparation,
    },
}

impl Instance {
    /// A Weight Restriction instance.
    #[must_use]
    pub fn restriction(weights: Weights, params: WeightRestriction) -> Self {
        Instance::Restriction { weights, params }
    }

    /// A Weight Qualification instance.
    #[must_use]
    pub fn qualification(weights: Weights, params: WeightQualification) -> Self {
        Instance::Qualification { weights, params }
    }

    /// A Weight Separation instance.
    #[must_use]
    pub fn separation(weights: Weights, params: WeightSeparation) -> Self {
        Instance::Separation { weights, params }
    }

    /// The instance's weight vector.
    #[must_use]
    pub fn weights(&self) -> &Weights {
        match self {
            Instance::Restriction { weights, .. }
            | Instance::Qualification { weights, .. }
            | Instance::Separation { weights, .. } => weights,
        }
    }
}

/// The solver. Construct with [`Swiper::new`] (full mode) or
/// [`Swiper::with_mode`].
///
/// # Examples
///
/// ```
/// use swiper_core::{Ratio, Swiper, Weights, WeightRestriction};
///
/// # fn main() -> Result<(), swiper_core::CoreError> {
/// let weights = Weights::new(vec![100, 50, 20, 10, 5, 5, 5, 5])?;
/// let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2))?;
/// let solution = Swiper::new().solve_restriction(&weights, &params)?;
/// assert!(solution.total_tickets() <= u128::from(solution.ticket_bound));
/// assert!(swiper_core::verify_restriction(
///     &weights, &solution.assignment, &params)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Swiper {
    mode: Mode,
}

impl Swiper {
    /// Full-mode solver.
    pub fn new() -> Self {
        Swiper { mode: Mode::Full }
    }

    /// Solver with an explicit mode.
    pub fn with_mode(mode: Mode) -> Self {
        Swiper { mode }
    }

    /// The active mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Solves Weight Restriction (Problem 1).
    ///
    /// # Errors
    ///
    /// Propagates parameter/overflow errors; see [`CoreError`].
    pub fn solve_restriction(
        &self,
        weights: &Weights,
        params: &WeightRestriction,
    ) -> Result<Solution, CoreError> {
        self.solve_restriction_with(&mut *self.mode.new_oracle(), weights, params)
    }

    /// [`Swiper::solve_restriction`] driving a caller-supplied oracle —
    /// the plug point for custom checking regimes (cached verdicts,
    /// incremental re-solve, instrumentation).
    ///
    /// # Errors
    ///
    /// Propagates parameter/overflow errors; see [`CoreError`].
    pub fn solve_restriction_with<O: ValidityOracle + ?Sized>(
        &self,
        oracle: &mut O,
        weights: &Weights,
        params: &WeightRestriction,
    ) -> Result<Solution, CoreError> {
        solve_restriction_hinted(oracle, weights, params, None)
    }

    /// Returns the `t(s, k)` family member with exactly `total` tickets
    /// for a Weight Restriction instance — **without** checking validity.
    ///
    /// Members with `total >= params.ticket_bound(n)` are valid by
    /// Theorem 2.1. Larger members are closer to proportional
    /// (`t_i ~ s * w_i`), which the fairness extension
    /// ([`crate::fairness`]) exploits: a near-proportional base keeps the
    /// rebalancing lottery small.
    ///
    /// # Errors
    ///
    /// Propagates parameter/overflow errors; see [`CoreError`].
    pub fn restriction_family_member(
        &self,
        weights: &Weights,
        params: &WeightRestriction,
        total: u64,
    ) -> Result<TicketAssignment, CoreError> {
        let family = Family::new(weights, params.family_constant(), total)?;
        family.assignment_with_total(total)
    }

    /// Solves Weight Qualification (Problem 2) through the Theorem 2.2
    /// reduction; the returned assignment satisfies the WQ property (and the
    /// equivalent WR property).
    ///
    /// # Errors
    ///
    /// Propagates parameter/overflow errors; see [`CoreError`].
    pub fn solve_qualification(
        &self,
        weights: &Weights,
        params: &WeightQualification,
    ) -> Result<Solution, CoreError> {
        self.solve_restriction(weights, &params.to_restriction())
    }

    /// [`Swiper::solve_qualification`] driving a caller-supplied oracle.
    ///
    /// # Errors
    ///
    /// Propagates parameter/overflow errors; see [`CoreError`].
    pub fn solve_qualification_with<O: ValidityOracle + ?Sized>(
        &self,
        oracle: &mut O,
        weights: &Weights,
        params: &WeightQualification,
    ) -> Result<Solution, CoreError> {
        self.solve_restriction_with(oracle, weights, &params.to_restriction())
    }

    /// Solves Weight Separation (Problem 3).
    ///
    /// # Errors
    ///
    /// Propagates parameter/overflow errors; see [`CoreError`].
    pub fn solve_separation(
        &self,
        weights: &Weights,
        params: &WeightSeparation,
    ) -> Result<Solution, CoreError> {
        self.solve_separation_with(&mut *self.mode.new_oracle(), weights, params)
    }

    /// [`Swiper::solve_separation`] driving a caller-supplied oracle.
    ///
    /// # Errors
    ///
    /// Propagates parameter/overflow errors; see [`CoreError`].
    pub fn solve_separation_with<O: ValidityOracle + ?Sized>(
        &self,
        oracle: &mut O,
        weights: &Weights,
        params: &WeightSeparation,
    ) -> Result<Solution, CoreError> {
        solve_separation_hinted(oracle, weights, params, None)
    }

    /// Solves one batch [`Instance`] with this solver's mode.
    ///
    /// # Errors
    ///
    /// Propagates parameter/overflow errors; see [`CoreError`].
    pub fn solve_instance(&self, instance: &Instance) -> Result<Solution, CoreError> {
        self.solve_instance_with(&mut *self.mode.new_oracle(), instance)
    }

    /// [`Swiper::solve_instance`] driving a caller-supplied oracle.
    ///
    /// # Errors
    ///
    /// Propagates parameter/overflow errors; see [`CoreError`].
    pub fn solve_instance_with<O: ValidityOracle + ?Sized>(
        &self,
        oracle: &mut O,
        instance: &Instance,
    ) -> Result<Solution, CoreError> {
        match instance {
            Instance::Restriction { weights, params } => {
                self.solve_restriction_with(oracle, weights, params)
            }
            Instance::Qualification { weights, params } => {
                self.solve_qualification_with(oracle, weights, params)
            }
            Instance::Separation { weights, params } => {
                self.solve_separation_with(oracle, weights, params)
            }
        }
    }

    /// Solves a batch of independent instances, in parallel across OS
    /// threads, returning solutions in input order.
    ///
    /// Weight reduction instances share nothing, so the batch fans out
    /// over a **work-stealing cursor**: workers claim the next unsolved
    /// index from a shared atomic counter, so one huge instance (a
    /// Filecoin-sized separation, say) occupies a single worker while the
    /// rest drain the remaining batch — no long-tail imbalance from
    /// contiguous chunking. Each worker drives its own oracle, whose
    /// memoized scratch (sorted prefix sums, DP table) is recycled across
    /// every instance that worker claims. Oracle scratch never changes
    /// answers (only cost), so results — solutions *and* per-solve stats —
    /// are deterministic, in input order, and identical to solving each
    /// instance alone sequentially.
    ///
    /// # Errors
    ///
    /// Returns the first error in instance order; remaining solutions are
    /// discarded.
    pub fn solve_many(&self, instances: &[Instance]) -> Result<Vec<Solution>, CoreError> {
        fan_out(
            instances.len(),
            || self.mode.new_oracle(),
            |oracle, i| self.solve_instance_with(&mut **oracle, &instances[i]),
        )
        .into_iter()
        .collect()
    }

    /// Re-solves `instance` seeding the binary search from a previous
    /// epoch's solution instead of the cold `[0, bound]` bracket.
    ///
    /// Per-epoch weight deltas touch few parties, so the new answer is
    /// almost always within a few tickets of the old total: the warm
    /// search probes the old total, gallops outward until the bracket's
    /// invariants (`lo` invalid, `hi` valid) are re-established, and only
    /// then bisects. When the hint is useless — zero, or at/beyond the new
    /// bound — the search degrades to exactly the cold path, bit-identical
    /// stats included.
    ///
    /// # Guarantees
    ///
    /// The result carries the same guarantees as a cold solve: a *valid*
    /// family member (oracle soundness), total at most the theoretical
    /// bound, locally minimal for exact oracles, and fully deterministic —
    /// every replica warm-starting from the same history derives the same
    /// tickets. When the validity predicate flips once between the two
    /// search ranges (the overwhelmingly common case on real stake
    /// distributions) the warm result is **identical** to the cold solve.
    /// The predicate is not monotone in general, though: isolated *dips*
    /// (a valid member just below an invalid one — e.g. validity pattern
    /// `V.VVV` near the flip) mean the family can hold several local
    /// minima, and a warm bracket may settle on a neighbouring one where
    /// cold bisection lands on another. Epoch loops that must stay
    /// bit-identical to cold re-solves run
    /// `swiper_weights::epoch::Reconfigurator::with_cold_check`, which
    /// re-derives each epoch cold through the shared verdict cache and
    /// publishes that result.
    ///
    /// # Errors
    ///
    /// Propagates parameter/overflow errors; see [`CoreError`].
    pub fn resolve_from(
        &self,
        prev: &Solution,
        instance: &Instance,
    ) -> Result<Solution, CoreError> {
        self.resolve_from_with(&mut *self.mode.new_oracle(), prev, instance)
    }

    /// [`Swiper::resolve_from`] driving a caller-supplied oracle — pair it
    /// with a [`crate::CachingOracle`] to also reuse verdicts across
    /// epochs.
    ///
    /// # Errors
    ///
    /// Propagates parameter/overflow errors; see [`CoreError`].
    pub fn resolve_from_with<O: ValidityOracle + ?Sized>(
        &self,
        oracle: &mut O,
        prev: &Solution,
        instance: &Instance,
    ) -> Result<Solution, CoreError> {
        let warm = u64::try_from(prev.total_tickets()).ok();
        match instance {
            Instance::Restriction { weights, params } => {
                solve_restriction_hinted(oracle, weights, params, warm)
            }
            Instance::Qualification { weights, params } => {
                solve_restriction_hinted(oracle, weights, &params.to_restriction(), warm)
            }
            Instance::Separation { weights, params } => {
                solve_separation_hinted(oracle, weights, params, warm)
            }
        }
    }

    /// The epoch-batch companion of [`Swiper::solve_many`]: solves
    /// `instances[i]` warm-started from `priors[i]` (cold when `None`)
    /// driving the caller's persistent `oracles[i]`, in parallel across OS
    /// threads with deterministic, input-order results.
    ///
    /// Unlike [`Swiper::solve_many`] the oracles outlive the call, so
    /// [`crate::CachingOracle`] state accumulates across epochs; each
    /// instance keeps a dedicated oracle, which keeps the fan-out lock-free
    /// and the per-track caches disjoint.
    ///
    /// # Panics
    ///
    /// Panics when `instances`, `priors` and `oracles` have different
    /// lengths — a structural misuse, not a data error.
    ///
    /// # Errors
    ///
    /// Returns the first error in instance order; remaining solutions are
    /// discarded.
    pub fn resolve_many_with<O: ValidityOracle + Send>(
        &self,
        instances: &[Instance],
        priors: &[Option<Solution>],
        oracles: &mut [O],
    ) -> Result<Vec<Solution>, CoreError> {
        assert_eq!(instances.len(), priors.len(), "one prior slot per instance");
        assert_eq!(instances.len(), oracles.len(), "one oracle per instance");
        // Each index owns a dedicated persistent oracle and is claimed by
        // exactly one worker, so these locks never contend; they only let
        // the borrow checker hand out disjoint `&mut O`.
        let oracles: Vec<Mutex<&mut O>> = oracles.iter_mut().map(Mutex::new).collect();
        fan_out(
            instances.len(),
            || (),
            |_, i| {
                let oracle = &mut **oracles[i].lock().expect("oracle lock never poisoned");
                match &priors[i] {
                    Some(prev) => self.resolve_from_with(oracle, prev, &instances[i]),
                    None => self.solve_instance_with(oracle, &instances[i]),
                }
            },
        )
        .into_iter()
        .collect()
    }
}

/// Worker threads available to batch solves. Asked of the OS once: the call
/// parses cgroup files (~10 µs), more than a whole small-instance solve.
fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Runs `job(state, i)` for every `i < n` and returns the results in index
/// order. With more than one worker the indices fan out over a
/// work-stealing cursor: each thread claims the next unclaimed index from a
/// shared atomic counter, so one oversized job never serializes a chunk
/// behind it. `init` builds one `state` per worker, on that worker's
/// thread, recycled across every index the worker claims.
fn fan_out<S, T: Send>(
    n: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers().min(n);
    if workers <= 1 {
        let state = &mut init();
        return (0..n).map(|i| job(state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let state = &mut init();
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter publishes no other data.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, job(state, i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("batch worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every index claimed once")).collect()
}

/// Restriction-shaped solve (also serves Weight Qualification through the
/// Theorem 2.2 reduction): bound + check-parameter setup shared by the
/// cold entry points (`warm = None`) and [`Swiper::resolve_from_with`].
fn solve_restriction_hinted<O: ValidityOracle + ?Sized>(
    oracle: &mut O,
    weights: &Weights,
    params: &WeightRestriction,
    warm: Option<u64>,
) -> Result<Solution, CoreError> {
    let n = u64::try_from(weights.len()).map_err(|_| CoreError::ArithmeticOverflow)?;
    let bound = params.ticket_bound(n)?.max(1);
    let check = CheckParams::restriction(weights, params)?;
    solve_hinted(oracle, weights, params.family_constant(), bound, &check, warm)
}

/// Separation-shaped solve; see [`solve_restriction_hinted`].
fn solve_separation_hinted<O: ValidityOracle + ?Sized>(
    oracle: &mut O,
    weights: &Weights,
    params: &WeightSeparation,
    warm: Option<u64>,
) -> Result<Solution, CoreError> {
    let n = u64::try_from(weights.len()).map_err(|_| CoreError::ArithmeticOverflow)?;
    let bound = params.ticket_bound(n)?.max(1);
    let check = CheckParams::separation(weights, params)?;
    solve_hinted(oracle, weights, params.family_constant(), bound, &check, warm)
}

/// [`solve_with`] under the solver's one size gate: hintless solves of at
/// least [`sampling::SAMPLING_MIN_PARTIES`] parties search under the
/// sampler's [`trust_window`]. Real warm hints win — a previous epoch's
/// total beats any statistical estimate.
fn solve_hinted<O: ValidityOracle + ?Sized>(
    oracle: &mut O,
    weights: &Weights,
    family_constant: Ratio,
    bound: u64,
    check: &CheckParams,
    warm: Option<u64>,
) -> Result<Solution, CoreError> {
    let window = if warm.is_none() && weights.len() >= sampling::SAMPLING_MIN_PARTIES {
        trust_window(weights, family_constant, bound, check)
    } else {
        None
    };
    solve_with(oracle, weights, family_constant, bound, check, warm, window)
}

/// The weighted sampler's estimate of where the family flips valid, widened
/// into a `(lo, hi)` window of totals; `None` when the sampler declines.
fn trust_window(
    weights: &Weights,
    family_constant: Ratio,
    bound: u64,
    check: &CheckParams,
) -> Option<(u64, u64)> {
    let (caps, q) = match *check {
        CheckParams::Restriction { capacity, alpha_n } => (vec![capacity], alpha_n),
        CheckParams::Separation { cap_low, cap_high } => (vec![cap_low, cap_high], Ratio::ONE),
    };
    let c = family_constant;
    let est = sampling::estimate_boundary_total(
        weights,
        &caps,
        q.num(),
        q.den(),
        c.num(),
        c.den(),
        sampling::ESTIMATE_DRAWS,
        sampling::ESTIMATE_SEED,
    )?;
    // Window half-width ~17% of the estimate: 2-3x the sampler's observed
    // worst-case error at `ESTIMATE_DRAWS`, and still narrow enough to
    // absorb the far-field dyadic mids. In-window mids far from the true
    // flip stay cheap (the oracle settles them by bounds without the DP),
    // so width costs little.
    let est = est.clamp(1, bound);
    let delta = (est / 6).max(64);
    Some((est.saturating_sub(delta), est.saturating_add(delta)))
}

/// The generic binary-search driver: finds the least family member the
/// oracle accepts, between the (invalid) all-zero member and the
/// theoretical-bound member (valid by bootstrapping). Every probe of the
/// search shares one incremental [`FamilyCursor`] (memoized grid counts +
/// same-interval splicing).
///
/// With a `warm` hint (a previous epoch's total), the driver first probes
/// the hint and gallops outward with doubling steps until it brackets a
/// validity flip, then bisects inside that bracket. The `lo`-invalid /
/// `hi`-valid invariants hold throughout, so the warm result is a valid
/// local minimum exactly like the cold one; when the predicate flips only
/// once between the two search ranges the results coincide (see
/// [`Swiper::resolve_from`] for the non-monotone caveat). A hint of `0`,
/// or at/beyond the bound, is ignored (cold path).
///
/// A `window` (see [`trust_window`]) lies over the bisection: midpoints
/// outside it take the estimate's word (below → assume invalid, above →
/// assume valid) without probing, midpoints inside are probed exactly, and
/// whichever assumed verdicts the converged bracket still rests on are
/// re-probed for real before the answer is accepted. A refuted assumption discards the window
/// and reruns the untrusted bisection, so a bad estimate only costs probes,
/// never correctness.
///
/// The driver owns the search-shaped counters (`candidates_checked`,
/// `settled_by_theorem`); oracles only report how checks were settled. The
/// oracle is drained even when the search aborts with an error, so a
/// reused oracle never leaks one solve's counters into the next.
fn solve_with<O: ValidityOracle + ?Sized>(
    oracle: &mut O,
    weights: &Weights,
    family_constant: Ratio,
    bound: u64,
    check: &CheckParams,
    warm: Option<u64>,
    window: Option<(u64, u64)>,
) -> Result<Solution, CoreError> {
    let family = Family::new(weights, family_constant, bound)?;
    let mut cursor = FamilyCursor::new(&family);
    let mut lo = 0u64;
    let mut hi = bound;
    let mut checked = 0u64;
    let mut saved = 0u64;
    let mut search = || -> Result<(), CoreError> {
        let mut probe = |total: u64| -> Result<Verdict, CoreError> {
            let cand = cursor.advance_to(total)?;
            let member = FamilyMember { weights, tickets: &cand, total };
            checked += 1;
            oracle.check(&member, check)
        };
        if let Some(hint) = warm {
            if hint > 0 && hint < bound {
                match probe(hint)? {
                    Verdict::Valid => {
                        // Gallop down for an invalid lower anchor.
                        hi = hint;
                        let mut step = 1u64;
                        loop {
                            let p = hi.saturating_sub(step);
                            if p == 0 {
                                break; // the all-zero member anchors lo.
                            }
                            match probe(p)? {
                                Verdict::Valid => hi = p,
                                Verdict::Invalid => {
                                    lo = p;
                                    break;
                                }
                            }
                            step = step.saturating_mul(2);
                        }
                    }
                    Verdict::Invalid => {
                        // Gallop up for a valid upper anchor.
                        lo = hint;
                        let mut step = 1u64;
                        loop {
                            let p = lo.saturating_add(step);
                            if p >= bound {
                                break; // the bound member anchors hi.
                            }
                            match probe(p)? {
                                Verdict::Invalid => lo = p,
                                Verdict::Valid => {
                                    hi = p;
                                    break;
                                }
                            }
                            step = step.saturating_mul(2);
                        }
                    }
                }
            }
        }
        // With a window, the mid sequence is the windowless one — assumed
        // verdicts stand in for probes outside the window — so whenever the
        // assumptions are right (endpoint re-probes confirm the bracket)
        // the landing is bit-identical to the untrusted search.
        let mut trust = window;
        loop {
            let mut lo_assumed = false;
            let mut hi_assumed = false;
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                match trust {
                    Some((wlo, _)) if mid < wlo => {
                        lo = mid;
                        lo_assumed = true;
                        saved += 1;
                    }
                    Some((_, whi)) if mid > whi => {
                        hi = mid;
                        hi_assumed = true;
                        saved += 1;
                    }
                    _ => match probe(mid)? {
                        Verdict::Valid => {
                            hi = mid;
                            hi_assumed = false;
                        }
                        Verdict::Invalid => {
                            lo = mid;
                            lo_assumed = false;
                        }
                    },
                }
            }
            // The answer may rest on assumed verdicts; make them real.
            // (`lo == 0` / `hi == bound` anchors are real by definition —
            // the all-zero member is invalid, the bound member valid.)
            let mut refuted = false;
            if hi_assumed {
                saved = saved.saturating_sub(1);
                refuted |= matches!(probe(hi)?, Verdict::Invalid);
            }
            if !refuted && lo_assumed {
                saved = saved.saturating_sub(1);
                refuted |= matches!(probe(lo)?, Verdict::Valid);
            }
            if !refuted {
                break;
            }
            // The estimate steered the bracket somewhere the exact
            // predicate disowns: drop the window and rerun from scratch.
            trust = None;
            saved = 0;
            lo = 0;
            hi = bound;
        }
        Ok(())
    };
    let outcome = search();
    let mut stats = oracle.take_stats();
    outcome?;
    stats.candidates_checked += checked;
    stats.settled_by_theorem += u64::from(hi == bound);
    stats.probes_saved += saved;
    let assignment = cursor.advance_to(hi)?;
    stats.cursor_advances += cursor.reused();
    stats.grid_counts += cursor.grid_counts();
    Ok(Solution { assignment, ticket_bound: bound, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CachingOracle;
    use crate::verify::{
        verify_qualification, verify_restriction, verify_restriction_exhaustive,
        verify_separation,
    };
    use proptest::prelude::*;

    fn weights(ws: &[u64]) -> Weights {
        Weights::new(ws.to_vec()).unwrap()
    }

    #[test]
    fn solves_equal_weights() {
        // n equal parties, WR(1/3, 1/2): one ticket each is valid, and it is
        // the family's natural answer.
        let w = weights(&[7; 9]);
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let sol = Swiper::new().solve_restriction(&w, &p).unwrap();
        assert!(verify_restriction(&w, &sol.assignment, &p).unwrap());
        assert!(sol.total_tickets() <= u128::from(sol.ticket_bound));
        assert!(sol.total_tickets() <= 9, "equal weights need few tickets");
    }

    #[test]
    fn solves_single_whale() {
        // One party with 97% of the stake: a single ticket to the whale
        // already violates nothing? t({whale}) = T: whale weight not under
        // capacity, small parties have 0 tickets -> valid with T = 1.
        let w = weights(&[970, 10, 10, 10]);
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let sol = Swiper::new().solve_restriction(&w, &p).unwrap();
        assert!(verify_restriction(&w, &sol.assignment, &p).unwrap());
        assert_eq!(sol.total_tickets(), 1);
        assert_eq!(sol.assignment.get(0), 1);
    }

    #[test]
    fn local_minimum_predecessor_is_invalid() {
        let w = weights(&[50, 30, 11, 5, 2, 1, 1]);
        let p = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let sol = Swiper::new().solve_restriction(&w, &p).unwrap();
        let total = u64::try_from(sol.total_tickets()).unwrap();
        assert!(verify_restriction(&w, &sol.assignment, &p).unwrap());
        // Predecessor family member must be invalid (local minimality).
        let fam = Family::new(&w, p.family_constant(), sol.ticket_bound).unwrap();
        let prev = fam.assignment_with_total(total - 1).unwrap();
        assert!(!verify_restriction(&w, &prev, &p).unwrap());
    }

    #[test]
    fn linear_mode_is_valid_but_not_smaller() {
        let w = weights(&[100, 70, 55, 13, 8, 8, 4, 2, 1, 1, 1]);
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let full = Swiper::new().solve_restriction(&w, &p).unwrap();
        let linear = Swiper::with_mode(Mode::Linear).solve_restriction(&w, &p).unwrap();
        assert!(verify_restriction(&w, &full.assignment, &p).unwrap());
        assert!(verify_restriction(&w, &linear.assignment, &p).unwrap());
        assert!(linear.total_tickets() >= full.total_tickets());
        assert_eq!(linear.stats.dp_invocations, 0, "linear mode never runs the DP");
    }

    #[test]
    fn qualification_solution_satisfies_wq() {
        let w = weights(&[40, 25, 20, 10, 5]);
        let q = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
        let sol = Swiper::new().solve_qualification(&w, &q).unwrap();
        assert!(verify_qualification(&w, &sol.assignment, &q).unwrap());
        assert!(sol.total_tickets() <= u128::from(q.ticket_bound(5).unwrap()));
    }

    #[test]
    fn separation_solution_satisfies_ws() {
        let w = weights(&[40, 25, 20, 10, 5]);
        let s = WeightSeparation::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let sol = Swiper::new().solve_separation(&w, &s).unwrap();
        assert!(verify_separation(&w, &sol.assignment, &s).unwrap());
        assert!(sol.total_tickets() <= u128::from(sol.ticket_bound));
    }

    #[test]
    fn worst_case_equal_weights_stays_under_bound() {
        // Equal weights are the classic worst case for weight reduction.
        for n in [3usize, 10, 31, 100] {
            let w = Weights::new(vec![1; n]).unwrap();
            let p = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
            let sol = Swiper::new().solve_restriction(&w, &p).unwrap();
            assert!(verify_restriction(&w, &sol.assignment, &p).unwrap(), "n={n}");
            assert!(sol.total_tickets() <= u128::from(sol.ticket_bound), "n={n}");
        }
    }

    #[test]
    fn stats_count_checks() {
        let w = weights(&[50, 30, 11, 5, 2, 1, 1]);
        let p = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let sol = Swiper::new().solve_restriction(&w, &p).unwrap();
        assert!(sol.stats.candidates_checked > 0);
        let settled = sol.stats.settled_by_upper_bound
            + sol.stats.settled_by_lower_bound
            + sol.stats.dp_invocations;
        assert!(settled <= sol.stats.candidates_checked + 2);
    }

    #[test]
    fn oracle_reuse_across_solves_is_isolated() {
        // One oracle driven through many solves must behave as if fresh
        // each time: scratch is rebuilt per candidate and stats drain per
        // solve.
        let p = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let a = weights(&[50, 30, 11, 5, 2, 1, 1]);
        let b = weights(&[9, 9, 9, 9, 9, 9]);
        let solver = Swiper::new();
        let fresh_a = solver.solve_restriction(&a, &p).unwrap();
        let fresh_b = solver.solve_restriction(&b, &p).unwrap();
        let mut shared = FullOracle::new();
        for _ in 0..3 {
            let ra = solver.solve_restriction_with(&mut shared, &a, &p).unwrap();
            let rb = solver.solve_restriction_with(&mut shared, &b, &p).unwrap();
            assert_eq!(ra, fresh_a);
            assert_eq!(rb, fresh_b);
        }
    }

    #[test]
    fn solve_many_matches_individual_solves() {
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
        let ws = WeightSeparation::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let vectors = [
            vec![100u64, 70, 55, 13, 8, 8, 4, 2, 1, 1, 1],
            vec![7; 9],
            vec![970, 10, 10, 10],
            vec![50, 30, 11, 5, 2, 1, 1],
        ];
        let mut instances = Vec::new();
        for v in &vectors {
            let w = weights(v);
            instances.push(Instance::restriction(w.clone(), wr));
            instances.push(Instance::qualification(w.clone(), wq));
            instances.push(Instance::separation(w, ws));
        }
        for mode in [Mode::Full, Mode::Linear] {
            let solver = Swiper::with_mode(mode);
            let batch = solver.solve_many(&instances).unwrap();
            assert_eq!(batch.len(), instances.len());
            for (inst, sol) in instances.iter().zip(&batch) {
                assert_eq!(sol, &solver.solve_instance(inst).unwrap(), "{mode:?}");
            }
        }
    }

    #[test]
    fn solve_many_empty_batch() {
        assert_eq!(Swiper::new().solve_many(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn resolve_from_matches_cold_solve_on_all_shapes() {
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
        let ws = WeightSeparation::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let old = weights(&[100, 70, 55, 13, 8, 8, 4, 2, 1, 1, 1]);
        // One party's stake moved ~10%: the epoch-delta shape.
        let new = weights(&[100, 77, 55, 13, 8, 8, 4, 2, 1, 1, 1]);
        let solver = Swiper::new();
        for (prev_inst, next_inst) in [
            (Instance::restriction(old.clone(), wr), Instance::restriction(new.clone(), wr)),
            (
                Instance::qualification(old.clone(), wq),
                Instance::qualification(new.clone(), wq),
            ),
            (Instance::separation(old.clone(), ws), Instance::separation(new.clone(), ws)),
        ] {
            let prev = solver.solve_instance(&prev_inst).unwrap();
            let cold = solver.solve_instance(&next_inst).unwrap();
            let warm = solver.resolve_from(&prev, &next_inst).unwrap();
            assert_eq!(warm.assignment, cold.assignment);
            assert_eq!(warm.ticket_bound, cold.ticket_bound);
            assert_eq!(warm.total_tickets(), cold.total_tickets());
            assert!(
                warm.stats.candidates_checked <= cold.stats.candidates_checked,
                "warm bracket must not widen the search"
            );
        }
    }

    #[test]
    fn resolve_from_with_useless_hint_falls_back_to_cold() {
        let p = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let w = weights(&[50, 30, 11, 5, 2, 1, 1]);
        let inst = Instance::restriction(w.clone(), p);
        let solver = Swiper::new();
        let cold = solver.solve_instance(&inst).unwrap();
        // A stale solution whose total is at/above the new bound: hint is
        // ignored and the warm path reproduces the cold search exactly.
        let stale = Solution {
            assignment: TicketAssignment::new(vec![cold.ticket_bound + 7]),
            ticket_bound: cold.ticket_bound,
            stats: SolveStats::default(),
        };
        let warm = solver.resolve_from(&stale, &inst).unwrap();
        assert_eq!(warm, cold, "cold fallback must be bit-identical, stats included");
    }

    #[test]
    fn resolve_from_on_identical_instance_needs_two_checks() {
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        // Near-equal weights keep the optimum in the family's interior.
        let w = weights(&[9, 9, 9, 9, 8, 8, 8, 7, 7]);
        let inst = Instance::restriction(w, p);
        let solver = Swiper::new();
        let cold = solver.solve_instance(&inst).unwrap();
        let total = u64::try_from(cold.total_tickets()).unwrap();
        assert!(total > 1 && total < cold.ticket_bound, "interior optimum: {total}");
        let warm = solver.resolve_from(&cold, &inst).unwrap();
        assert_eq!(warm.assignment, cold.assignment);
        // Unchanged epoch: probe the old total (valid) and its predecessor
        // (invalid) — nothing else.
        assert_eq!(warm.stats.candidates_checked, 2);
        assert!(cold.stats.candidates_checked > 2, "cold search bisects from [0, bound]");
    }

    #[test]
    fn resolve_many_with_matches_sequential_and_keeps_oracles() {
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let vectors: Vec<Vec<u64>> =
            (0..6).map(|k| (1..=12u64).map(|i| i * i + k * 17).collect::<Vec<u64>>()).collect();
        let instances: Vec<Instance> =
            vectors.iter().map(|v| Instance::restriction(weights(v), wr)).collect();
        let solver = Swiper::new();
        let mut oracles: Vec<CachingOracle<FullOracle>> =
            instances.iter().map(|_| CachingOracle::new(FullOracle::new())).collect();
        let priors: Vec<Option<Solution>> = vec![None; instances.len()];
        let first = solver.resolve_many_with(&instances, &priors, &mut oracles).unwrap();
        for (inst, sol) in instances.iter().zip(&first) {
            let alone = solver.solve_instance(inst).unwrap();
            assert_eq!(sol.assignment, alone.assignment);
        }
        // Epoch 2 over the same snapshots: warm-started, fully cached.
        let priors: Vec<Option<Solution>> = first.iter().cloned().map(Some).collect();
        let second = solver.resolve_many_with(&instances, &priors, &mut oracles).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(b.stats.cache_misses, 0, "persistent caches answer the re-solve");
            assert!(b.stats.cache_hits > 0);
        }
    }

    /// The seed's pre-oracle validity cascade for Weight Restriction,
    /// kept verbatim as the reference for the equivalence proptests.
    mod reference {
        use crate::assignment::TicketAssignment;
        use crate::error::CoreError;
        use crate::family::Family;
        use crate::knapsack::{self, Item};
        use crate::problems::{WeightRestriction, WeightSeparation};
        use crate::ratio::Ratio;
        use crate::solver::{Mode, Solution, SolveStats};
        use crate::verify::{strict_capacity, ticket_target};
        use crate::weights::Weights;

        struct RestrictionCheck {
            capacity: u128,
            alpha_n: Ratio,
        }

        struct SeparationCheck {
            cap_low: u128,
            cap_high: u128,
        }

        fn to_items(weights: &Weights, tickets: &TicketAssignment) -> Vec<Item> {
            weights
                .as_slice()
                .iter()
                .zip(tickets.as_slice())
                .map(|(&weight, &profit)| Item { profit, weight })
                .collect()
        }

        fn check_restriction(
            mode: Mode,
            check: &RestrictionCheck,
            items: &[Item],
            total: u64,
            stats: &mut SolveStats,
        ) -> Result<bool, CoreError> {
            if total == 0 {
                return Ok(false);
            }
            let target = ticket_target(check.alpha_n, u128::from(total))?;
            let target = u64::try_from(target).map_err(|_| CoreError::ArithmeticOverflow)?;
            if target > total {
                return Ok(true);
            }
            if !knapsack::fractional_upper_bound_reaches(items, check.capacity, target) {
                stats.settled_by_upper_bound += 1;
                return Ok(true);
            }
            if mode == Mode::Linear {
                return Ok(false);
            }
            if knapsack::greedy_lower_bound_reaches(items, check.capacity, target) {
                stats.settled_by_lower_bound += 1;
                return Ok(false);
            }
            stats.dp_invocations += 1;
            let reached = knapsack::max_profit_dp(items, check.capacity, target) >= target;
            Ok(!reached)
        }

        fn check_separation(
            mode: Mode,
            check: &SeparationCheck,
            items: &[Item],
            total: u64,
            stats: &mut SolveStats,
        ) -> Result<bool, CoreError> {
            if total == 0 {
                return Ok(false);
            }
            let a_ub = knapsack::fractional_upper_bound_floor(items, check.cap_low);
            let b_ub = knapsack::fractional_upper_bound_floor(items, check.cap_high);
            if a_ub + b_ub < u128::from(total) {
                stats.settled_by_upper_bound += 1;
                return Ok(true);
            }
            if mode == Mode::Linear {
                return Ok(false);
            }
            let a_lb = knapsack::greedy_lower_bound(items, check.cap_low);
            let b_lb = knapsack::greedy_lower_bound(items, check.cap_high);
            if a_lb + b_lb >= u128::from(total) {
                stats.settled_by_lower_bound += 1;
                return Ok(false);
            }
            stats.dp_invocations += 1;
            let a = u128::from(knapsack::max_profit_dp(items, check.cap_low, total));
            let b = u128::from(knapsack::max_profit_dp(items, check.cap_high, total));
            Ok(a + b < u128::from(total))
        }

        /// Seed `Swiper::solve_restriction`, verbatim.
        pub fn solve_restriction(
            mode: Mode,
            weights: &Weights,
            params: &WeightRestriction,
        ) -> Result<Solution, CoreError> {
            let n = u64::try_from(weights.len()).map_err(|_| CoreError::ArithmeticOverflow)?;
            let bound = params.ticket_bound(n)?.max(1);
            let family = Family::new(weights, params.family_constant(), bound)?;
            let check = RestrictionCheck {
                capacity: strict_capacity(params.alpha_w(), weights.total())?,
                alpha_n: params.alpha_n(),
            };
            let mut stats = SolveStats::default();
            let mut lo = 0u64;
            let mut hi = bound;
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                let cand = family.assignment_with_total(mid)?;
                stats.candidates_checked += 1;
                let items = to_items(weights, &cand);
                if check_restriction(mode, &check, &items, mid, &mut stats)? {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            stats.settled_by_theorem += u64::from(hi == bound);
            let assignment = family.assignment_with_total(hi)?;
            Ok(Solution { assignment, ticket_bound: bound, stats })
        }

        /// Seed `Swiper::solve_separation`, verbatim.
        pub fn solve_separation(
            mode: Mode,
            weights: &Weights,
            params: &WeightSeparation,
        ) -> Result<Solution, CoreError> {
            let n = u64::try_from(weights.len()).map_err(|_| CoreError::ArithmeticOverflow)?;
            let bound = params.ticket_bound(n)?.max(1);
            let family = Family::new(weights, params.family_constant(), bound)?;
            let check = SeparationCheck {
                cap_low: strict_capacity(params.alpha(), weights.total())?,
                cap_high: strict_capacity(params.beta().one_minus()?, weights.total())?,
            };
            let mut stats = SolveStats::default();
            let mut lo = 0u64;
            let mut hi = bound;
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                let cand = family.assignment_with_total(mid)?;
                stats.candidates_checked += 1;
                let items = to_items(weights, &cand);
                if check_separation(mode, &check, &items, mid, &mut stats)? {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            stats.settled_by_theorem += u64::from(hi == bound);
            let assignment = family.assignment_with_total(hi)?;
            Ok(Solution { assignment, ticket_bound: bound, stats })
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn wr_solutions_always_verify(
            ws in proptest::collection::vec(1u64..1_000, 1..14),
            pw in 1u128..6, pn in 2u128..7,
        ) {
            let aw = Ratio::of(pw, 7);
            let an = Ratio::of(pn, 7);
            prop_assume!(aw < an && aw.is_proper() && an.is_proper());
            let w = Weights::new(ws).unwrap();
            let p = WeightRestriction::new(aw, an).unwrap();
            for mode in [Mode::Full, Mode::Linear] {
                let sol = Swiper::with_mode(mode).solve_restriction(&w, &p).unwrap();
                prop_assert!(verify_restriction(&w, &sol.assignment, &p).unwrap());
                if w.len() < 15 {
                    prop_assert!(verify_restriction_exhaustive(&w, &sol.assignment, &p));
                }
                prop_assert!(sol.total_tickets() <= u128::from(sol.ticket_bound));
            }
        }

        #[test]
        fn ws_solutions_always_verify(
            ws in proptest::collection::vec(1u64..1_000, 1..12),
            pa in 1u128..5, pb in 2u128..6,
        ) {
            let alpha = Ratio::of(pa, 6);
            let beta = Ratio::of(pb, 6);
            prop_assume!(alpha < beta && alpha.is_proper() && beta.is_proper());
            let w = Weights::new(ws).unwrap();
            let p = WeightSeparation::new(alpha, beta).unwrap();
            for mode in [Mode::Full, Mode::Linear] {
                let sol = Swiper::with_mode(mode).solve_separation(&w, &p).unwrap();
                prop_assert!(verify_separation(&w, &sol.assignment, &p).unwrap());
                prop_assert!(sol.total_tickets() <= u128::from(sol.ticket_bound));
            }
        }

        /// Oracle equivalence (WR) on random skewed weight vectors; see
        /// [`assert_matches_seed_cascade_wr`].
        #[test]
        fn oracle_matches_seed_cascade_wr(
            mut ws in proptest::collection::vec(1u64..100_000, 1..24),
            whale in 1u64..10_000_000,
            pw in 1u128..6, pn in 2u128..7,
        ) {
            let aw = Ratio::of(pw, 7);
            let an = Ratio::of(pn, 7);
            prop_assume!(aw < an && aw.is_proper() && an.is_proper());
            // Skew the vector: real stake distributions are whale-heavy.
            ws.push(whale);
            let w = Weights::new(ws).unwrap();
            let p = WeightRestriction::new(aw, an).unwrap();
            assert_matches_seed_cascade_wr(&w, &p);
        }

        /// The work-stealing batch fan-out must be invisible: whatever
        /// order workers claim instances in, `solve_many` returns
        /// solutions in input order with assignments *and* per-solve
        /// stats bit-identical to the sequential one-oracle-per-instance
        /// path. Mixed instance sizes (one whale-heavy vector among small
        /// ones) exercise the imbalance the cursor exists to absorb.
        #[test]
        fn solve_many_work_stealing_matches_sequential_order_and_stats(
            vectors in proptest::collection::vec(
                proptest::collection::vec(1u64..50_000, 1..12), 1..8),
            whale in 10_000u64..10_000_000,
            pw in 1u128..6, pn in 2u128..7,
        ) {
            let aw = Ratio::of(pw, 7);
            let an = Ratio::of(pn, 7);
            prop_assume!(aw < an && aw.is_proper() && an.is_proper());
            let p = WeightRestriction::new(aw, an).unwrap();
            let instances: Vec<Instance> = vectors
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let mut v = v.clone();
                    if i == 0 {
                        // One oversized instance at the front: under the
                        // old contiguous chunking this serialized its
                        // whole chunk; the cursor must not change results.
                        v.push(whale);
                    }
                    Instance::restriction(Weights::new(v).unwrap(), p)
                })
                .collect();
            let solver = Swiper::new();
            let batch = solver.solve_many(&instances).unwrap();
            prop_assert_eq!(batch.len(), instances.len());
            for (inst, sol) in instances.iter().zip(&batch) {
                let alone = solver.solve_instance(inst).unwrap();
                prop_assert_eq!(&sol.assignment, &alone.assignment);
                prop_assert_eq!(sol.ticket_bound, alone.ticket_bound);
                prop_assert_eq!(sol.stats, alone.stats, "stats identity");
            }
        }

        /// Sampler pin: the sampler-narrowed bracket stays a
        /// valid local minimum under the theoretical bound, and whenever
        /// the validity predicate is monotone along the family (no dips —
        /// checked exhaustively) it lands exactly where full bisection
        /// lands. Exact probes stay authoritative either way.
        #[test]
        fn sampler_narrowed_bracket_matches_full_bracket(
            mut ws in proptest::collection::vec(1u64..100_000, 1..20),
            whale in 1u64..10_000_000,
            pw in 1u128..6, pn in 2u128..7,
        ) {
            let aw = Ratio::of(pw, 7);
            let an = Ratio::of(pn, 7);
            prop_assume!(aw < an && aw.is_proper() && an.is_proper());
            ws.push(whale);
            let w = Weights::new(ws).unwrap();
            let p = WeightRestriction::new(aw, an).unwrap();
            // The window the solver would compute above the size gate,
            // handed to the driver directly.
            let bound = p.ticket_bound(w.len() as u64).unwrap().max(1);
            let check = CheckParams::restriction(&w, &p).unwrap();
            let c = p.family_constant();
            let window = trust_window(&w, c, bound, &check);
            let sampled =
                solve_with(&mut FullOracle::new(), &w, c, bound, &check, None, window).unwrap();
            let cold = Swiper::new().solve_restriction(&w, &p).unwrap();
            prop_assert!(verify_restriction(&w, &sampled.assignment, &p).unwrap());
            prop_assert!(sampled.total_tickets() <= u128::from(sampled.ticket_bound));
            let total = u64::try_from(sampled.total_tickets()).unwrap();
            let fam = Family::new(&w, p.family_constant(), sampled.ticket_bound).unwrap();
            if total < sampled.ticket_bound {
                // Local minimality: the predecessor member is invalid.
                let prev = fam.assignment_with_total(total - 1).unwrap();
                prop_assert!(!verify_restriction(&w, &prev, &p).unwrap());
            }
            let monotone = {
                let mut seen_valid = false;
                let mut monotone = true;
                for t in 1..=sampled.ticket_bound {
                    let member = fam.assignment_with_total(t).unwrap();
                    let valid = verify_restriction(&w, &member, &p).unwrap();
                    if seen_valid && !valid {
                        monotone = false;
                        break;
                    }
                    seen_valid |= valid;
                }
                monotone
            };
            if monotone {
                prop_assert_eq!(&sampled.assignment, &cold.assignment);
                prop_assert_eq!(sampled.total_tickets(), cold.total_tickets());
            }
        }

        /// Oracle equivalence (WS): same pinning for the separation shape.
        #[test]
        fn oracle_matches_seed_cascade_ws(
            ws in proptest::collection::vec(1u64..100_000, 1..16),
            pa in 1u128..5, pb in 2u128..6,
        ) {
            let alpha = Ratio::of(pa, 6);
            let beta = Ratio::of(pb, 6);
            prop_assume!(alpha < beta && alpha.is_proper() && beta.is_proper());
            let w = Weights::new(ws).unwrap();
            let p = WeightSeparation::new(alpha, beta).unwrap();
            assert_matches_seed_cascade_ws(&w, &p);
        }
    }

    /// Oracle equivalence (WR): the solver must produce the *identical*
    /// `TicketAssignment` as the seed cascade — and identical `SolveStats`
    /// (bar the cursor's own reuse and grid-pass counters), so
    /// `dp_invocations` cannot regress. The reference materializes every
    /// probe from scratch, so this is also the cursor ≡ from-scratch pin at
    /// solver level, and it decides every DP probe on the full table
    /// (`max_profit_dp`), so it pins the floor-reduced kernel's verdicts
    /// too. Returns the full mode's DP count.
    fn assert_matches_seed_cascade_wr(w: &Weights, p: &WeightRestriction) -> u64 {
        [Mode::Full, Mode::Linear].map(|mode| {
            let new = Swiper::with_mode(mode).solve_restriction(w, p).unwrap();
            let old = reference::solve_restriction(mode, w, p).unwrap();
            assert_eq!(new.assignment, old.assignment, "{mode:?}");
            assert_eq!(new.ticket_bound, old.ticket_bound);
            let masked = SolveStats { cursor_advances: 0, grid_counts: 0, ..new.stats };
            assert_eq!(masked, old.stats, "{mode:?}");
            new.stats.dp_invocations
        })[0]
    }

    /// [`assert_matches_seed_cascade_wr`] for the separation shape.
    fn assert_matches_seed_cascade_ws(w: &Weights, p: &WeightSeparation) -> u64 {
        [Mode::Full, Mode::Linear].map(|mode| {
            let new = Swiper::with_mode(mode).solve_separation(w, p).unwrap();
            let old = reference::solve_separation(mode, w, p).unwrap();
            assert_eq!(new.assignment, old.assignment, "{mode:?}");
            let masked = SolveStats { cursor_advances: 0, grid_counts: 0, ..new.stats };
            assert_eq!(masked, old.stats, "{mode:?}");
            new.stats.dp_invocations
        })[0]
    }

    /// The proptests above stay below 25 parties, where no profit class
    /// ever holds two items. One whale-skewed population of a few thousand
    /// — tickets bunched into a handful of classes, probes that reach the
    /// DP — through the same comparison, for all three problem shapes.
    #[test]
    fn oracle_matches_seed_cascade_on_a_bunched_population() {
        let w = Weights::whale_skewed(4_000, 1);
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
        let ws = WeightSeparation::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let dp = [
            assert_matches_seed_cascade_wr(&w, &wr),
            assert_matches_seed_cascade_wr(&w, &wq.to_restriction()),
            assert_matches_seed_cascade_ws(&w, &ws),
        ];
        assert!(dp.iter().all(|&calls| calls > 0), "a shape never reached the DP: {dp:?}");
    }
}
