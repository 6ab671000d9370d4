//! Pluggable validity oracles for the Swiper solver.
//!
//! The solver's binary search (paper, Section 3) needs exactly one
//! judgement per candidate family member: *is this assignment valid for
//! the problem instance?* This module isolates that judgement behind the
//! [`ValidityOracle`] trait so checking regimes can be swapped without
//! touching the search — the seam that later enables verdict caching,
//! incremental re-solve on weight deltas and data-parallel sweeps.
//!
//! Two implementations mirror the prototype's modes:
//!
//! * [`FullOracle`] — the three-valued quick test (quasilinear bounds)
//!   with the exact `O(n·T)` knapsack DP only on "uncertain" verdicts.
//!   Scratch state (the ratio-sorted prefix sums of
//!   [`knapsack::SortedItems`], the DP table, the item buffer) is
//!   memoized across [`ValidityOracle::check`] calls instead of being
//!   rebuilt per candidate.
//! * [`LinearOracle`] — only the conservative (fractional upper) bound:
//!   never falsely accepts, so solutions remain valid, but may settle for
//!   more tickets. `~O(n log n)` per check, no DP ever.
//!
//! Both produce *identical verdicts* to the pre-oracle cascade in
//! `solver.rs`; the oracle-equivalence proptests in this module's tests and
//! in `solver.rs` pin that down.
//!
//! A third implementation is a *decorator*: [`CachingOracle`] wraps any
//! oracle and memoizes `(family member, params) → verdict` under a
//! fingerprint of the member's weight/ticket multiset. Re-solves over
//! shared weight vectors — per-epoch reconfiguration, settings grids,
//! incremental-vs-cold verification passes — answer repeated checks from
//! the cache without touching the knapsack machinery at all.
//!
//! ## Delta-stable verdict certificates
//!
//! Exact-fingerprint hits only fire when a member recurs *bit-identically*.
//! Epoch replays instead present *perturbed* members: same parties, same
//! (or nearly same) totals, slightly churned weights. Certificates bridge
//! that gap. A [`CertifyingOracle`] reports, alongside each Restriction
//! verdict, the **margin** by which the check settled, as a
//! [`VerdictCertificate`]:
//!
//! * [`CertKind::ValidByBound`] — the floor of the Dantzig LP bound plus
//!   the densest item's ratio. Since the LP optimum moves by at most
//!   `P⁺ + r·δ` when tickets gain at most `P⁺` and the effective capacity
//!   grows by at most `δ`, the bound re-settles without re-sorting.
//! * [`CertKind::ValidByDp`] — a window of the exact min-weight frontier
//!   `W(q)` = least subset weight reaching profit `≥ q`, explored past the
//!   capacity by a slack. A perturbed member reaching `target'` would need
//!   an old subset of profit `≥ target' − P⁺` and weight `≤ cap' + D⁻`;
//!   if the stored frontier proves no such subset exists, the verdict is
//!   still Valid.
//! * [`CertKind::InvalidWitness`] — concrete violating subsets `(p, w)`.
//!   A witness survives a perturbation whenever `p − P⁻` still reaches the
//!   new target and `w + D⁺` still fits the new capacity.
//!
//! Here `D⁺`/`D⁻` are the summed per-party weight increases/decreases and
//! `P⁺`/`P⁻` the summed ticket increases/decreases between the stored
//! member and the presented one. [`CachingOracle`] (with
//! [`CachingOracle::with_certificates`]) keeps up to two *generations* of
//! certificates — each one weight snapshot plus per-total entries — and
//! consumes margins **cumulatively**: certificates are not rolled forward
//! per epoch, they are applied against growing deltas until a margin runs
//! out, at which point one fresh recompute re-anchors that member. Every
//! skipped check increments [`SolveStats::certificate_skips`].
//!
//! Entries are keyed by member total in an ordered index. An exact-total
//! hit is the fast path, but exact totals rarely repeat across epochs at
//! large `n` — re-solved brackets probe *nearby* totals instead — so on a
//! miss the lookup also tries the nearest stored totals on either side
//! (a **coarse** hit, counted in [`SolveStats::coarse_cert_hits`]). This
//! is sound for free: the margin replay is computed against the presented
//! member's actual ticket deltas, so a neighbor entry either absorbs the
//! extra delta within its margin or declines.
//!
//! Two properties the replay machinery relies on:
//!
//! * **Inner-oracle equivalence.** A skipped verdict equals what the
//!   wrapped oracle would have returned: the DP-backed kinds are exact
//!   statements about the item multiset (and decorate exact oracles), and
//!   `ValidByBound`'s inequality implies the inner LP test itself would
//!   re-settle Valid — so even the conservative [`LinearOracle`] stays
//!   bit-compatible under certificate skips.
//! * **Non-monotone dips are preserved.** Family validity is *not*
//!   monotone in the total (isolated `V.VVV` dips; see
//!   [`ValidityOracle`]'s contract). Certificates make no monotonicity
//!   assumption: each member's verdict is certified independently, so a
//!   replayed search walks the exact same dip structure — warm brackets
//!   land on the same local minimum with certificates on or off.
//!
//! Separation-shaped checks are never certified (their two-sided coupling
//! makes the margin algebra far weaker); they simply fall through to the
//! inner oracle.

use crate::assignment::TicketAssignment;
use crate::error::CoreError;
use crate::knapsack::{self, Item, SortedItems};
use crate::problems::{WeightRestriction, WeightSeparation};
use crate::ratio::Ratio;
use crate::solver::SolveStats;
use crate::verify::{strict_capacity, ticket_target};
use crate::weights::Weights;
use crate::wide::{cmp_mul, mul_div_floor};
use std::cmp::Ordering;

/// An oracle's judgement of one family member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The assignment satisfies the problem's property.
    Valid,
    /// The assignment violates the property (or the oracle cannot certify
    /// it — conservative oracles treat "unknown" as invalid).
    Invalid,
}

/// One candidate of the `t(s, k)` family, as presented to an oracle.
#[derive(Debug, Clone, Copy)]
pub struct FamilyMember<'a> {
    /// The instance's party weights.
    pub weights: &'a Weights,
    /// The candidate ticket assignment.
    pub tickets: &'a TicketAssignment,
    /// Total tickets of the candidate (`tickets.total()`, pre-narrowed).
    pub total: u64,
}

/// Problem-shape parameters of a validity check, fixed for a whole solve.
///
/// Weight Qualification reduces to Weight Restriction (Theorem 2.2), so two
/// shapes cover all three problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckParams {
    /// Weight Restriction: no subset under `capacity` total weight may
    /// reach `ceil(alpha_n * T)` tickets.
    Restriction {
        /// Largest subset weight strictly below `alpha_w * W`.
        capacity: u128,
        /// Ticket-fraction threshold; the per-candidate target is
        /// `ceil(alpha_n * total)`.
        alpha_n: Ratio,
    },
    /// Weight Separation: max tickets under `cap_low` plus max tickets
    /// under `cap_high` must stay below the candidate total.
    Separation {
        /// Largest subset weight strictly below `alpha * W`.
        cap_low: u128,
        /// Largest subset weight strictly below `(1 - beta) * W`.
        cap_high: u128,
    },
}

impl CheckParams {
    /// Check parameters for a Weight Restriction instance.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic-envelope errors from the capacity computation.
    pub fn restriction(
        weights: &Weights,
        params: &WeightRestriction,
    ) -> Result<Self, CoreError> {
        Ok(CheckParams::Restriction {
            capacity: strict_capacity(params.alpha_w(), weights.total())?,
            alpha_n: params.alpha_n(),
        })
    }

    /// Check parameters for a Weight Separation instance.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic-envelope errors from the capacity computations.
    pub fn separation(weights: &Weights, params: &WeightSeparation) -> Result<Self, CoreError> {
        Ok(CheckParams::Separation {
            cap_low: strict_capacity(params.alpha(), weights.total())?,
            cap_high: strict_capacity(params.beta().one_minus()?, weights.total())?,
        })
    }
}

/// A validity-checking regime the solver's binary search drives.
///
/// # Contract
///
/// * `check` must never return [`Verdict::Valid`] for an invalid member
///   (soundness); returning [`Verdict::Invalid`] for a valid member is
///   allowed (conservatism) **as long as** the theoretical-bound member is
///   still judged valid, or the search's bootstrapping fallback would break.
///   Exact oracles additionally make the search land on a local minimum.
/// * The searched predicate "member with total `T` is valid" is *mostly*
///   monotone along the family but **not guaranteed to flip exactly
///   once**: real stake distributions exhibit isolated dips (`V.VVV`
///   patterns — a valid member just below an invalid one), so the family
///   can hold several local minima. Any bracketing search with `lo`
///   invalid / `hi` valid lands on *a* local minimum — which is all
///   Appendix A needs for the ticket bounds — but differently-seeded
///   brackets (e.g. a warm-started epoch re-solve) may land on different
///   ones.
/// * `take_stats` returns the counters accumulated since the previous call
///   and resets them; the search drains once per solve (on errors too), so
///   a shared oracle instance yields per-solve stats for free. Oracles
///   report only how checks were *settled* (`settled_by_*`,
///   `dp_invocations`); the search-shaped counters (`candidates_checked`,
///   `settled_by_theorem`) are owned and filled by the driver.
pub trait ValidityOracle {
    /// Judges one family member under the given check parameters.
    ///
    /// # Errors
    ///
    /// Implementations propagate arithmetic-envelope errors.
    fn check(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Result<Verdict, CoreError>;

    /// Drains the counters accumulated since the last call.
    fn take_stats(&mut self) -> SolveStats;
}

/// Shared per-candidate preparation: the knapsack item view of a member.
fn fill_items(buf: &mut Vec<Item>, member: &FamilyMember<'_>) {
    buf.clear();
    buf.extend(
        member
            .weights
            .as_slice()
            .iter()
            .zip(member.tickets.as_slice())
            .map(|(&weight, &profit)| Item { profit, weight }),
    );
}

/// The per-candidate ticket target for a Restriction-shaped check, already
/// compared against `total`: `None` means the target exceeds the total and
/// the member is trivially valid.
fn restriction_target(alpha_n: Ratio, total: u64) -> Result<Option<u64>, CoreError> {
    let target = ticket_target(alpha_n, u128::from(total))?;
    if target > u128::from(total) {
        return Ok(None);
    }
    Ok(Some(u64::try_from(target).map_err(|_| CoreError::ArithmeticOverflow)?))
}

/// How a Restriction-shaped check settled, with the margin retained so the
/// verdict can be replayed under perturbed weights (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertKind {
    /// Settled Valid by the Dantzig LP bound: the true optimum is at most
    /// `lp_floor`, and the LP curve's capacity slope is at most `r`.
    ValidByBound {
        /// Floor of the LP bound at the check's capacity.
        lp_floor: u128,
        /// Densest item's `(profit, weight)` ratio; `None` when no
        /// positive-weight item exists (slope zero).
        r: Option<(u64, u64)>,
    },
    /// Settled Valid by the exact DP: a window of the min-weight frontier.
    ValidByDp {
        /// Lowest profit the stored window covers; lookups below it are
        /// inconclusive.
        floor_q: u64,
        /// `(profit, min weight)` pairs, strictly increasing in both
        /// coordinates; the first entry with profit `>= q` gives the exact
        /// least weight reaching profit `>= q` (for `q >= floor_q`).
        frontier: Vec<(u64, u128)>,
        /// Weight horizon the frontier is exact to: profits with no entry
        /// require weight strictly beyond this.
        explored_to: u128,
    },
    /// Settled Invalid: concrete violating subsets as `(profit, weight)`
    /// pairs — each is a real subset of the checked member's items.
    InvalidWitness {
        /// Witness packings, ascending in both coordinates.
        witnesses: Vec<(u128, u128)>,
    },
}

/// A delta-stable certificate for one Restriction verdict: the check's
/// geometry plus the margin it settled by ([`CertKind`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictCertificate {
    /// Weight capacity the check ran under.
    pub capacity: u128,
    /// Ticket target the check ran under.
    pub target: u64,
    /// The settling margin.
    pub kind: CertKind,
}

/// A [`ValidityOracle`] that can additionally report verdict certificates.
///
/// `check_certified` must return the same verdict (and bump the same
/// counters) as [`ValidityOracle::check`]; the certificate, when present,
/// must be a true statement about the member's item multiset per the
/// [`CertKind`] semantics. Returning `None` is always allowed.
pub trait CertifyingOracle: ValidityOracle {
    /// Judges one family member and reports the settling margin.
    ///
    /// # Errors
    ///
    /// Implementations propagate arithmetic-envelope errors.
    fn check_certified(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Result<(Verdict, Option<VerdictCertificate>), CoreError>;
}

/// `ceil(num * delta / den)` with exact 256-bit intermediates; `None` when
/// the quotient overflows `u128` (callers treat that as "cannot certify").
fn ceil_mul_div(num: u64, delta: u128, den: u64) -> Option<u128> {
    if num == 0 || delta == 0 {
        return Some(0);
    }
    let q = mul_div_floor(u128::from(num), delta, u128::from(den))?;
    if cmp_mul(q, u128::from(den), u128::from(num), delta) == Ordering::Equal {
        Some(q)
    } else {
        q.checked_add(1)
    }
}

/// Profit headroom the certificate-grade DP explores past the target, so
/// invalidity witnesses keep margin against future ticket losses.
const CERT_PROFIT_HEADROOM: u64 = 32;

/// Number of frontier entries a stored certificate keeps (the window
/// closest to the target carries all the useful margin).
const CERT_WINDOW: usize = 192;

/// Exact oracle: quick test first, the knapsack DP only on "uncertain".
///
/// Memoizes its working state across checks — the item buffer, the
/// ratio-sorted prefix sums ([`SortedItems`]) and the DP table
/// ([`knapsack::DpScratch`]) are allocated once per oracle and recycled
/// through the entire binary search (and, via [`crate::Swiper::solve_many`],
/// across instances of a sweep).
#[derive(Debug, Default, Clone)]
pub struct FullOracle {
    items: Vec<Item>,
    next_items: Vec<Item>,
    changed: Vec<usize>,
    sorted: SortedItems,
    dp: knapsack::DpScratch,
    stats: SolveStats,
}

impl FullOracle {
    /// A fresh oracle with empty scratch.
    #[must_use]
    pub fn new() -> Self {
        FullOracle::default()
    }

    /// Rebuilds the sorted view for `member`, splicing only the changed
    /// parties when the previous check had the same party count and churn
    /// stayed below one eighth of the parties (the epoch-replay shape);
    /// larger diffs fall back to a full re-sort. Leaves `self.items` equal
    /// to the member's item view.
    fn prepare(&mut self, member: &FamilyMember<'_>) {
        fill_items(&mut self.next_items, member);
        let n = self.next_items.len();
        if n == self.items.len() && n > 0 {
            self.changed.clear();
            for (i, (a, b)) in self.items.iter().zip(&self.next_items).enumerate() {
                if a != b {
                    self.changed.push(i);
                }
            }
            if self.changed.len() <= n / 8 {
                self.sorted.splice(&self.items, &self.next_items, &self.changed);
            } else {
                self.sorted.rebuild(&self.next_items);
            }
        } else {
            self.sorted.rebuild(&self.next_items);
        }
        std::mem::swap(&mut self.items, &mut self.next_items);
    }

    /// The shared check body; with `want_cert` the DP runs in probe mode
    /// (frontier + slack) and margins are packaged into a certificate.
    /// Verdicts and counters are identical either way.
    fn check_impl(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
        want_cert: bool,
    ) -> Result<(Verdict, Option<VerdictCertificate>), CoreError> {
        if member.total == 0 {
            return Ok((Verdict::Invalid, None));
        }
        self.prepare(member);
        match *params {
            CheckParams::Restriction { capacity, alpha_n } => {
                let Some(target) = restriction_target(alpha_n, member.total)? else {
                    return Ok((Verdict::Valid, None));
                };
                // Conservative bound: certainly-unreachable target means valid.
                if !self.sorted.fractional_upper_bound_reaches(capacity, target) {
                    self.stats.settled_by_upper_bound += 1;
                    let cert = want_cert.then(|| VerdictCertificate {
                        capacity,
                        target,
                        kind: CertKind::ValidByBound {
                            lp_floor: self.sorted.fractional_upper_bound_floor(capacity),
                            r: self.sorted.densest(),
                        },
                    });
                    return Ok((Verdict::Valid, cert));
                }
                if let Some(witness) = self.sorted.greedy_witness(capacity, target) {
                    self.stats.settled_by_lower_bound += 1;
                    let cert = want_cert.then(|| VerdictCertificate {
                        capacity,
                        target,
                        kind: CertKind::InvalidWitness { witnesses: vec![witness] },
                    });
                    return Ok((Verdict::Invalid, cert));
                }
                self.stats.dp_invocations += 1;
                if !want_cert {
                    let reached = knapsack::max_profit_dp_floor(
                        &mut self.dp,
                        &self.items,
                        capacity,
                        target,
                        target,
                        self.sorted.break_ratio(capacity),
                    )
                    .is_some();
                    return Ok((if reached { Verdict::Invalid } else { Verdict::Valid }, None));
                }
                let probe = knapsack::max_profit_dp_probe(
                    &mut self.dp,
                    &self.items,
                    capacity,
                    target.saturating_add(CERT_PROFIT_HEADROOM),
                    capacity / 8 + 1,
                );
                if probe.best >= target {
                    // Every frontier point at or past the target that fits
                    // the capacity is a violating subset.
                    let witnesses: Vec<(u128, u128)> = probe
                        .frontier
                        .iter()
                        .filter(|&&(q, w)| q >= target && w <= capacity)
                        .map(|&(q, w)| (u128::from(q), w))
                        .collect();
                    let cert = VerdictCertificate {
                        capacity,
                        target,
                        kind: CertKind::InvalidWitness { witnesses },
                    };
                    return Ok((Verdict::Invalid, Some(cert)));
                }
                let skip = probe.frontier.len().saturating_sub(CERT_WINDOW);
                let frontier: Vec<(u64, u128)> = probe.frontier[skip..].to_vec();
                let floor_q = if skip == 0 { 0 } else { frontier.first().map_or(0, |e| e.0) };
                let cert = VerdictCertificate {
                    capacity,
                    target,
                    kind: CertKind::ValidByDp {
                        floor_q,
                        frontier,
                        explored_to: probe.prune_limit,
                    },
                };
                Ok((Verdict::Valid, Some(cert)))
            }
            CheckParams::Separation { cap_low, cap_high } => {
                let total = u128::from(member.total);
                // Conservative: floor(LP bound) on both sides still summing
                // below total certifies validity (a + b < T <=> max-light <
                // min-heavy). Separation checks are never certified — the
                // two-sided coupling makes the margin algebra too weak.
                let a_ub = self.sorted.fractional_upper_bound_floor(cap_low);
                let b_ub = self.sorted.fractional_upper_bound_floor(cap_high);
                if a_ub + b_ub < total {
                    self.stats.settled_by_upper_bound += 1;
                    return Ok((Verdict::Valid, None));
                }
                let a_lb = self.sorted.greedy_lower_bound(cap_low);
                let b_lb = self.sorted.greedy_lower_bound(cap_high);
                if a_lb + b_lb >= total {
                    self.stats.settled_by_lower_bound += 1;
                    return Ok((Verdict::Invalid, None));
                }
                self.stats.dp_invocations += 1;
                // The exact light-side optimum `a`, asked for only where it
                // can matter: `a >= a_lb` (the greedy packing is feasible),
                // and `a < T - b_ub` is Valid whatever the heavy side holds.
                // All four bounds are at most `T`, which fits `u64`.
                let floor = a_lb.max(total.saturating_sub(b_ub)) as u64;
                let Some(a) = knapsack::max_profit_dp_floor(
                    &mut self.dp,
                    &self.items,
                    cap_low,
                    a_ub.min(total) as u64,
                    floor,
                    self.sorted.break_ratio(cap_low),
                ) else {
                    return Ok((Verdict::Valid, None));
                };
                // Invalid iff the heavy side reaches the rest: b >= T - a.
                let rest = member.total - a;
                let reached = knapsack::max_profit_dp_floor(
                    &mut self.dp,
                    &self.items,
                    cap_high,
                    rest,
                    rest,
                    self.sorted.break_ratio(cap_high),
                )
                .is_some();
                Ok((if reached { Verdict::Invalid } else { Verdict::Valid }, None))
            }
        }
    }
}

impl ValidityOracle for FullOracle {
    fn check(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Result<Verdict, CoreError> {
        Ok(self.check_impl(member, params, false)?.0)
    }

    fn take_stats(&mut self) -> SolveStats {
        std::mem::take(&mut self.stats)
    }
}

impl CertifyingOracle for FullOracle {
    fn check_certified(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Result<(Verdict, Option<VerdictCertificate>), CoreError> {
        self.check_impl(member, params, true)
    }
}

/// Conservative oracle: the fractional upper bound only (the prototype's
/// `--linear` flag). Never falsely accepts, never runs the DP.
#[derive(Debug, Default, Clone)]
pub struct LinearOracle {
    items: Vec<Item>,
    sorted: SortedItems,
    stats: SolveStats,
}

impl LinearOracle {
    /// A fresh oracle with empty scratch.
    #[must_use]
    pub fn new() -> Self {
        LinearOracle::default()
    }

    fn check_impl(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
        want_cert: bool,
    ) -> Result<(Verdict, Option<VerdictCertificate>), CoreError> {
        if member.total == 0 {
            return Ok((Verdict::Invalid, None));
        }
        fill_items(&mut self.items, member);
        self.sorted.rebuild(&self.items);
        match *params {
            CheckParams::Restriction { capacity, alpha_n } => {
                let Some(target) = restriction_target(alpha_n, member.total)? else {
                    return Ok((Verdict::Valid, None));
                };
                if !self.sorted.fractional_upper_bound_reaches(capacity, target) {
                    self.stats.settled_by_upper_bound += 1;
                    let cert = want_cert.then(|| VerdictCertificate {
                        capacity,
                        target,
                        kind: CertKind::ValidByBound {
                            lp_floor: self.sorted.fractional_upper_bound_floor(capacity),
                            r: self.sorted.densest(),
                        },
                    });
                    return Ok((Verdict::Valid, cert));
                }
                // Only the conservative test is allowed: treat as invalid.
                // This Invalid is *not* a fact about the member (it may well
                // be valid), so it never yields a certificate.
                Ok((Verdict::Invalid, None))
            }
            CheckParams::Separation { cap_low, cap_high } => {
                let a_ub = self.sorted.fractional_upper_bound_floor(cap_low);
                let b_ub = self.sorted.fractional_upper_bound_floor(cap_high);
                if a_ub + b_ub < u128::from(member.total) {
                    self.stats.settled_by_upper_bound += 1;
                    return Ok((Verdict::Valid, None));
                }
                Ok((Verdict::Invalid, None))
            }
        }
    }
}

impl ValidityOracle for LinearOracle {
    fn check(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Result<Verdict, CoreError> {
        Ok(self.check_impl(member, params, false)?.0)
    }

    fn take_stats(&mut self) -> SolveStats {
        std::mem::take(&mut self.stats)
    }
}

impl CertifyingOracle for LinearOracle {
    fn check_certified(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Result<(Verdict, Option<VerdictCertificate>), CoreError> {
        self.check_impl(member, params, true)
    }
}

/// Memoizing decorator: `(family member, params) → verdict`, keyed by a
/// 128-bit fingerprint of the member's weight/ticket vector and total
/// (see [`CachingOracle::new`] for the soundness argument).
///
/// The fingerprint is two independent SipHash lanes keyed by per-oracle
/// [`std::collections::hash_map::RandomState`]s drawn at construction.
/// Weight snapshots are attacker-influenceable inputs, and an unkeyed
/// fingerprint (FNV and friends) would let crafted colliding vectors
/// poison the cache with a wrong verdict; with process-random keys a
/// collision cannot be computed from the outside, and an *accidental*
/// 128-bit collision stays negligible (~2^-60 even at billions of
/// entries). Fingerprints differ across processes — irrelevant, the cache
/// is process-local; the verdicts it stores are deterministic.
///
/// Hits and misses drain into [`SolveStats::cache_hits`] /
/// [`SolveStats::cache_misses`] alongside the inner oracle's settlement
/// counters, so sweeps can report hit rates per solve with no extra
/// plumbing. The cache itself is *not* drained per solve — reuse across
/// solves (and epochs) is the whole point; call [`CachingOracle::clear`]
/// to reset it, or rely on the [`CachingOracle::with_max_entries`] bound.
///
/// # Examples
///
/// ```
/// use swiper_core::{CachingOracle, FullOracle, Ratio, Swiper, Weights, WeightRestriction};
///
/// # fn main() -> Result<(), swiper_core::CoreError> {
/// let weights = Weights::new(vec![100, 50, 20, 10, 5, 5, 5, 5])?;
/// let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2))?;
/// let mut oracle = CachingOracle::new(FullOracle::new());
/// let solver = Swiper::new();
/// let first = solver.solve_restriction_with(&mut oracle, &weights, &params)?;
/// let again = solver.solve_restriction_with(&mut oracle, &weights, &params)?;
/// assert_eq!(first.assignment, again.assignment);
/// // The second identical solve is answered entirely from the cache.
/// assert_eq!(again.stats.cache_misses, 0);
/// assert_eq!(again.stats.cache_hits, again.stats.candidates_checked);
/// assert_eq!(again.stats.dp_invocations, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CachingOracle<O> {
    inner: O,
    cache: std::collections::HashMap<(u128, CheckParams), Verdict>,
    /// The two SipHash key pairs behind the member fingerprint; cloning an
    /// oracle keeps them, so clones share a key space (and could share
    /// entries), while independently constructed oracles do not.
    lanes: (std::collections::hash_map::RandomState, std::collections::hash_map::RandomState),
    max_entries: usize,
    certificates: bool,
    /// Weight snapshot the memoized fingerprint prefix was computed over.
    fp_weights: Option<Weights>,
    /// Both hash lanes advanced past the weight vector — cloned per check
    /// so the O(n) weight hashing happens once per `(member, epoch)`, not
    /// per lookup.
    fp_prefix: Option<(DefaultHasher, DefaultHasher)>,
    /// Certificate generations: `cur_gen` is the newest weight snapshot
    /// with freshly computed certificates, `prev_gen` the one before it.
    cur_gen: Option<CertGen>,
    prev_gen: Option<CertGen>,
    hits: u64,
    misses: u64,
    cert_skips: u64,
    coarse_hits: u64,
}

type DefaultHasher = std::collections::hash_map::DefaultHasher;

/// One certificate generation: a weight snapshot plus per-total entries.
/// Deltas are measured against this snapshot *cumulatively* — certificates
/// are consumed until their margin runs out, not rolled forward per epoch.
#[derive(Debug, Clone)]
struct CertGen {
    weights: Weights,
    /// Ordered by member total so nearest-neighbor (coarse) lookups can
    /// walk to adjacent stored totals when the exact key misses.
    by_total: std::collections::BTreeMap<u64, StoredCert>,
    /// Ticket-pair budget accounting across `by_total`.
    pairs: usize,
}

/// A stored certificate: the member's sparse nonzero tickets (for the
/// ticket-delta scan) plus the settling margin.
#[derive(Debug, Clone)]
struct StoredCert {
    tickets: Vec<(u32, u64)>,
    cert: VerdictCertificate,
}

/// Per-generation bound on stored certificate entries.
const CERT_ENTRY_BUDGET: usize = 1 << 16;
/// Per-generation bound on stored sparse ticket pairs.
const CERT_PAIR_BUDGET: usize = 1 << 21;

/// Applies a stored certificate to a perturbed member: computes the
/// cumulative weight deltas `D⁺`/`D⁻` and ticket deltas `P⁺`/`P⁻` against
/// the generation snapshot in one fused scan, then replays the margin
/// inequality for the stored [`CertKind`]. `None` means the margin is
/// insufficient (or arithmetic left `u128`) and the caller must recompute.
fn apply_certificate(
    gen: &CertGen,
    sc: &StoredCert,
    member: &FamilyMember<'_>,
    cap_new: u128,
    target_new: u64,
) -> Option<Verdict> {
    let (mut d_plus, mut d_minus) = (0u128, 0u128);
    for (&ow, &nw) in gen.weights.as_slice().iter().zip(member.weights.as_slice()) {
        if nw >= ow {
            d_plus += u128::from(nw - ow);
        } else {
            d_minus += u128::from(ow - nw);
        }
    }
    let (mut p_plus, mut p_minus) = (0u128, 0u128);
    let mut old = sc.tickets.iter().peekable();
    for (i, &tn) in member.tickets.as_slice().iter().enumerate() {
        let to = match old.peek() {
            Some(&&(j, t)) if j as usize == i => {
                old.next();
                t
            }
            _ => 0,
        };
        if tn >= to {
            p_plus += u128::from(tn - to);
        } else {
            p_minus += u128::from(to - tn);
        }
    }
    match &sc.cert.kind {
        CertKind::ValidByBound { lp_floor, r } => {
            // New LP optimum <= lp_floor + 1 - eps + P⁺ + r·δ, so a strict
            // integer inequality on the floor re-certifies Valid — and
            // implies the inner oracle's own LP test would settle Valid too.
            let delta = cap_new.checked_add(d_minus)?.saturating_sub(sc.cert.capacity);
            let slope = match r {
                None => 0,
                Some((num, den)) => ceil_mul_div(*num, delta, *den)?,
            };
            let bound = lp_floor.checked_add(p_plus)?.checked_add(slope)?;
            (bound < u128::from(target_new)).then_some(Verdict::Valid)
        }
        CertKind::ValidByDp { floor_q, frontier, explored_to } => {
            // A new subset reaching target_new had old profit >= q* and old
            // weight <= cap_new + D⁻; the frontier proves no such subset.
            let q_star = u128::from(target_new).checked_sub(p_plus)?;
            if q_star == 0 {
                return None;
            }
            let q_look = q_star.min(u128::from(sc.cert.target));
            if q_look < u128::from(*floor_q) {
                return None;
            }
            let need = cap_new.checked_add(d_minus)?;
            let idx = frontier.partition_point(|&(p, _)| u128::from(p) < q_look);
            match frontier.get(idx) {
                Some(&(_, w)) => (w > need).then_some(Verdict::Valid),
                None => (*explored_to >= need).then_some(Verdict::Valid),
            }
        }
        CertKind::InvalidWitness { witnesses } => {
            // A witness subset keeps profit >= p - P⁻ and weight <= w + D⁺
            // under the perturbation.
            let need_p = u128::from(target_new).checked_add(p_minus)?;
            witnesses
                .iter()
                .any(|&(p, w)| {
                    p >= need_p && w.checked_add(d_plus).is_some_and(|nw| nw <= cap_new)
                })
                .then_some(Verdict::Invalid)
        }
    }
}

impl<O> CachingOracle<O> {
    /// Default bound on cached verdicts; the cache is wholesale-cleared
    /// when an insert would exceed it (epoch workloads churn keys, so an
    /// occasional cold restart beats per-entry eviction bookkeeping).
    pub const DEFAULT_MAX_ENTRIES: usize = 1 << 20;

    /// Wraps `inner` with an empty cache.
    ///
    /// Soundness: a verdict depends only on the `(weight, ticket)` item
    /// multiset, the member total and the check parameters — exactly what
    /// the key covers — so a hit returns what the inner oracle *would*
    /// return, and the decorated oracle inherits the inner oracle's
    /// contract (exactness included) verbatim.
    pub fn new(inner: O) -> Self {
        CachingOracle {
            inner,
            cache: std::collections::HashMap::new(),
            lanes: Default::default(),
            max_entries: Self::DEFAULT_MAX_ENTRIES,
            certificates: false,
            fp_weights: None,
            fp_prefix: None,
            cur_gen: None,
            prev_gen: None,
            hits: 0,
            misses: 0,
            cert_skips: 0,
            coarse_hits: 0,
        }
    }

    /// The keyed 128-bit member fingerprint (two independent SipHash
    /// lanes); see the type docs for why the keys matter.
    ///
    /// The weight vector dominates the hash input but is shared by every
    /// member of one family, so both lanes' states after hashing
    /// `(len, weights...)` are memoized against a [`Weights`] snapshot and
    /// only the O(nonzero-tickets) suffix `(total, sparse tickets, count)`
    /// is hashed per check. The suffix is self-delimiting given the fixed
    /// prefix, so the keyed fingerprint stays injective on the
    /// `(weights, total, tickets)` triple up to SipHash collisions, exactly
    /// as before.
    fn member_fingerprint(&mut self, member: &FamilyMember<'_>) -> u128 {
        use std::hash::{BuildHasher, Hasher};
        let stale = match &self.fp_weights {
            Some(w) => w.total() != member.weights.total() || *w != *member.weights,
            None => true,
        };
        if stale {
            let mut lo = self.lanes.0.build_hasher();
            let mut hi = self.lanes.1.build_hasher();
            lo.write_u64(member.weights.len() as u64);
            hi.write_u64(member.weights.len() as u64);
            for &w in member.weights.as_slice() {
                lo.write_u64(w);
                hi.write_u64(w);
            }
            self.fp_prefix = Some((lo, hi));
            self.fp_weights = Some(member.weights.clone());
        }
        let (mut lo, mut hi) = self.fp_prefix.clone().expect("prefix memoized above");
        fn eat(lo: &mut DefaultHasher, hi: &mut DefaultHasher, v: u64) {
            lo.write_u64(v);
            hi.write_u64(v);
        }
        eat(&mut lo, &mut hi, member.total);
        let mut nonzero = 0u64;
        for (i, &t) in member.tickets.as_slice().iter().enumerate() {
            if t != 0 {
                eat(&mut lo, &mut hi, i as u64);
                eat(&mut lo, &mut hi, t);
                nonzero += 1;
            }
        }
        eat(&mut lo, &mut hi, nonzero);
        (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
    }

    /// Sets the cache-size bound (`0` disables caching entirely).
    #[must_use]
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries;
        self
    }

    /// Enables or disables delta-stable verdict certificates (off by
    /// default; see the module docs for the contract). Disabling drops any
    /// stored generations.
    #[must_use]
    pub fn with_certificates(mut self, on: bool) -> Self {
        self.certificates = on;
        if !on {
            self.cur_gen = None;
            self.prev_gen = None;
        }
        self
    }

    /// Whether delta-stable certificates are enabled.
    pub fn certificates_enabled(&self) -> bool {
        self.certificates
    }

    /// Tries to settle a Restriction check from a stored certificate.
    /// `None` (also on trivial targets or arithmetic-envelope trouble)
    /// falls through to a fresh inner-oracle check. The `bool` reports
    /// whether the settling entry was found under the member's *exact*
    /// total (`false`) or under a nearby coarse key (`true`).
    fn try_certificate(
        &self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Option<(Verdict, bool)> {
        let &CheckParams::Restriction { capacity, alpha_n } = params else { return None };
        if member.total == 0 {
            return None;
        }
        let target_new = restriction_target(alpha_n, member.total).ok()??;
        for gen in [self.cur_gen.as_ref(), self.prev_gen.as_ref()].into_iter().flatten() {
            if gen.weights.len() != member.weights.len() {
                continue;
            }
            if let Some(sc) = gen.by_total.get(&member.total) {
                if let Some(v) = apply_certificate(gen, sc, member, capacity, target_new) {
                    return Some((v, false));
                }
            }
            // Coarse pass: `apply_certificate` replays the margin against
            // the *presented* member (it recomputes the target and scans
            // actual ticket deltas), so an entry stored under a nearby
            // total can legitimately settle this one — the ticket-delta
            // gap between the two family members simply consumes margin
            // like any other perturbation. Exact totals rarely repeat
            // across epochs at a million parties, so without this pass the
            // store never pays off at scale. The window only bounds lookup
            // cost to the two nearest neighbors; the margin algebra stays
            // the sole authority on soundness.
            let window = (member.total >> 8).max(64);
            let lo = member.total.saturating_sub(window);
            let below = gen.by_total.range(lo..member.total).next_back();
            let above = member.total.checked_add(1).and_then(|succ| {
                gen.by_total.range(succ..=member.total.saturating_add(window)).next()
            });
            for (_, sc) in below.into_iter().chain(above) {
                if let Some(v) = apply_certificate(gen, sc, member, capacity, target_new) {
                    return Some((v, true));
                }
            }
        }
        None
    }

    /// Stores a freshly computed certificate, rotating generations when the
    /// weight snapshot changed. Budget overruns silently drop the store —
    /// certificates are an optimization, never load-bearing.
    fn store_certificate(&mut self, member: &FamilyMember<'_>, cert: VerdictCertificate) {
        if u32::try_from(member.weights.len()).is_err() {
            return;
        }
        let rotate = self.cur_gen.as_ref().is_none_or(|g| g.weights != *member.weights);
        if rotate {
            if let Some(g) = self.cur_gen.take() {
                if !g.by_total.is_empty() {
                    self.prev_gen = Some(g);
                }
            }
            self.cur_gen = Some(CertGen {
                weights: member.weights.clone(),
                by_total: std::collections::BTreeMap::new(),
                pairs: 0,
            });
        }
        let gen = self.cur_gen.as_mut().expect("generation ensured above");
        let sparse: Vec<(u32, u64)> = member
            .tickets
            .as_slice()
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != 0)
            .map(|(i, &t)| (i as u32, t))
            .collect();
        if gen.by_total.len() >= CERT_ENTRY_BUDGET
            || gen.pairs.saturating_add(sparse.len()) > CERT_PAIR_BUDGET
        {
            return;
        }
        gen.pairs += sparse.len();
        gen.by_total.insert(member.total, StoredCert { tickets: sparse, cert });
    }

    fn cache_insert(&mut self, key: (u128, CheckParams), verdict: Verdict) {
        if self.max_entries > 0 {
            if self.cache.len() >= self.max_entries {
                self.cache.clear();
            }
            self.cache.insert(key, verdict);
        }
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Drops all cached verdicts and stored certificate generations
    /// (counters are unaffected; they drain through
    /// [`ValidityOracle::take_stats`]).
    pub fn clear(&mut self) {
        self.cache.clear();
        self.cur_gen = None;
        self.prev_gen = None;
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: CertifyingOracle> ValidityOracle for CachingOracle<O> {
    fn check(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Result<Verdict, CoreError> {
        let key = (self.member_fingerprint(member), *params);
        if let Some(&verdict) = self.cache.get(&key) {
            self.hits += 1;
            return Ok(verdict);
        }
        if self.certificates {
            if let Some((verdict, coarse)) = self.try_certificate(member, params) {
                if coarse {
                    self.coarse_hits += 1;
                } else {
                    self.cert_skips += 1;
                }
                // Seed the exact-fingerprint cache so repeats within the
                // epoch hit without replaying the delta scan.
                self.cache_insert(key, verdict);
                return Ok(verdict);
            }
            let (verdict, cert) = self.inner.check_certified(member, params)?;
            self.misses += 1;
            self.cache_insert(key, verdict);
            if let Some(cert) = cert {
                self.store_certificate(member, cert);
            }
            return Ok(verdict);
        }
        let verdict = self.inner.check(member, params)?;
        self.misses += 1;
        self.cache_insert(key, verdict);
        Ok(verdict)
    }

    fn take_stats(&mut self) -> SolveStats {
        let mut stats = self.inner.take_stats();
        stats.cache_hits += std::mem::take(&mut self.hits);
        stats.cache_misses += std::mem::take(&mut self.misses);
        stats.certificate_skips += std::mem::take(&mut self.cert_skips);
        stats.coarse_cert_hits += std::mem::take(&mut self.coarse_hits);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::WeightRestriction;
    use proptest::prelude::*;

    fn member_for<'a>(weights: &'a Weights, tickets: &'a TicketAssignment) -> FamilyMember<'a> {
        let total = u64::try_from(tickets.total()).unwrap();
        FamilyMember { weights, tickets, total }
    }

    #[test]
    fn zero_total_is_invalid_for_both_oracles() {
        let w = Weights::new(vec![5, 3, 2]).unwrap();
        let t = TicketAssignment::new(vec![0, 0, 0]);
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let params = CheckParams::restriction(&w, &p).unwrap();
        let member = member_for(&w, &t);
        assert_eq!(FullOracle::new().check(&member, &params).unwrap(), Verdict::Invalid);
        assert_eq!(LinearOracle::new().check(&member, &params).unwrap(), Verdict::Invalid);
    }

    #[test]
    fn linear_never_accepts_what_full_rejects() {
        // Conservatism: Linear's Valid verdicts are a subset of Full's.
        let w = Weights::new(vec![40, 25, 20, 10, 5]).unwrap();
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let params = CheckParams::restriction(&w, &p).unwrap();
        let mut full = FullOracle::new();
        let mut linear = LinearOracle::new();
        for total in 1u64..=12 {
            let fam = crate::family::Family::new(&w, p.family_constant(), total).unwrap();
            let t = fam.assignment_with_total(total).unwrap();
            let member = member_for(&w, &t);
            let fv = full.check(&member, &params).unwrap();
            let lv = linear.check(&member, &params).unwrap();
            if lv == Verdict::Valid {
                assert_eq!(fv, Verdict::Valid, "linear accepted what full rejects at {total}");
            }
        }
    }

    #[test]
    fn caching_oracle_hits_on_repeats_and_matches_inner() {
        let w = Weights::new(vec![40, 25, 20, 10, 5]).unwrap();
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let params = CheckParams::restriction(&w, &p).unwrap();
        let mut plain = FullOracle::new();
        let mut cached = CachingOracle::new(FullOracle::new());
        for round in 0..2 {
            for total in 1u64..=10 {
                let fam = crate::family::Family::new(&w, p.family_constant(), total).unwrap();
                let t = fam.assignment_with_total(total).unwrap();
                let member = member_for(&w, &t);
                let expect = plain.check(&member, &params).unwrap();
                assert_eq!(cached.check(&member, &params).unwrap(), expect, "round {round}");
            }
        }
        let stats = cached.take_stats();
        assert_eq!(stats.cache_misses, 10, "first round fills the cache");
        assert_eq!(stats.cache_hits, 10, "second round is answered from it");
        assert_eq!(cached.len(), 10);
    }

    #[test]
    fn caching_oracle_distinguishes_params_and_members() {
        let w = Weights::new(vec![40, 25, 20, 10, 5]).unwrap();
        let t = TicketAssignment::new(vec![2, 1, 1, 1, 0]);
        let member = member_for(&w, &t);
        let pa = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let pb = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let mut cached = CachingOracle::new(FullOracle::new());
        cached.check(&member, &CheckParams::restriction(&w, &pa).unwrap()).unwrap();
        cached.check(&member, &CheckParams::restriction(&w, &pb).unwrap()).unwrap();
        // Same tickets under different weights must also be distinct keys.
        let w2 = Weights::new(vec![40, 25, 20, 10, 6]).unwrap();
        let member2 = member_for(&w2, &t);
        cached.check(&member2, &CheckParams::restriction(&w2, &pa).unwrap()).unwrap();
        let stats = cached.take_stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 3);
        assert_eq!(cached.len(), 3);
    }

    #[test]
    fn caching_oracle_respects_max_entries() {
        let w = Weights::new(vec![40, 25, 20, 10, 5]).unwrap();
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let params = CheckParams::restriction(&w, &p).unwrap();
        let mut cached = CachingOracle::new(FullOracle::new()).with_max_entries(0);
        let t = TicketAssignment::new(vec![2, 1, 1, 1, 0]);
        let member = member_for(&w, &t);
        cached.check(&member, &params).unwrap();
        cached.check(&member, &params).unwrap();
        assert!(cached.is_empty(), "max_entries == 0 disables caching");
        assert_eq!(cached.take_stats().cache_misses, 2);

        let mut small = CachingOracle::new(FullOracle::new()).with_max_entries(2);
        for total in 1u64..=5 {
            let fam = crate::family::Family::new(&w, p.family_constant(), total).unwrap();
            let t = fam.assignment_with_total(total).unwrap();
            small.check(&member_for(&w, &t), &params).unwrap();
        }
        assert!(small.len() <= 2, "cache stays bounded: {}", small.len());
    }

    #[test]
    fn take_stats_drains() {
        let w = Weights::new(vec![40, 25, 20, 10, 5]).unwrap();
        let t = TicketAssignment::new(vec![2, 1, 1, 1, 0]);
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let params = CheckParams::restriction(&w, &p).unwrap();
        let mut oracle = FullOracle::new();
        oracle.check(&member_for(&w, &t), &params).unwrap();
        let stats = oracle.take_stats();
        // The driver owns candidates_checked; the oracle reports only how
        // the check was settled.
        assert_eq!(stats.candidates_checked, 0);
        let settled =
            stats.settled_by_upper_bound + stats.settled_by_lower_bound + stats.dp_invocations;
        assert_eq!(settled, 1);
        assert_eq!(oracle.take_stats(), SolveStats::default());
    }

    /// Re-decides on the full table (`floor = 0`, the verifiers' kernel)
    /// every check the wrapped [`FullOracle`] settled by the DP, and
    /// insists on the same verdict.
    #[derive(Default)]
    struct FullTableRecheck {
        inner: FullOracle,
        stats: SolveStats,
    }

    impl ValidityOracle for FullTableRecheck {
        fn check(
            &mut self,
            member: &FamilyMember<'_>,
            params: &CheckParams,
        ) -> Result<Verdict, CoreError> {
            let verdict = self.inner.check(member, params)?;
            let settled = self.inner.take_stats();
            if settled.dp_invocations > 0 {
                let items = crate::verify::items_of(member.weights, member.tickets);
                let best = |capacity, cap| knapsack::max_profit_dp(&items, capacity, cap);
                let valid = match *params {
                    CheckParams::Restriction { capacity, alpha_n } => {
                        let target = restriction_target(alpha_n, member.total)?
                            .expect("the DP only runs on reachable targets");
                        best(capacity, target) < target
                    }
                    CheckParams::Separation { cap_low, cap_high } => {
                        best(cap_low, member.total) + best(cap_high, member.total)
                            < member.total
                    }
                };
                assert_eq!(verdict == Verdict::Valid, valid, "total {}", member.total);
            }
            self.stats.absorb(&settled);
            Ok(verdict)
        }

        fn take_stats(&mut self) -> SolveStats {
            std::mem::take(&mut self.stats)
        }
    }

    /// The floor-reduced kernel at the scale it was built for: cold WR, WQ
    /// and WS solves over 10⁵ whale-skewed parties, every DP-settled probe
    /// re-decided on the full table.
    #[test]
    #[ignore = "too slow for the debug-mode run; ci.yml runs it with --release"]
    fn core_reduction_matches_full_table_on_1e5_whales() {
        use crate::problems::WeightQualification;
        let w = Weights::whale_skewed(100_000, 1);
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
        let ws = WeightSeparation::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let solver = crate::Swiper::new();
        let mut oracle = FullTableRecheck::default();
        let dp = [
            solver.solve_restriction_with(&mut oracle, &w, &wr),
            solver.solve_qualification_with(&mut oracle, &w, &wq),
            solver.solve_separation_with(&mut oracle, &w, &ws),
        ]
        .map(|sol| sol.unwrap().stats.dp_invocations);
        assert!(dp.iter().all(|&calls| calls > 0), "a shape never reached the DP: {dp:?}");
    }

    // --- Delta-stable certificate tests -----------------------------------
    //
    // The handcrafted instances below sit exactly on the margin boundaries:
    // each skip case has a sibling perturbation one step past the margin
    // where the stored verdict would be *wrong*, so loosening any margin
    // check (dropping D⁺/D⁻, widening explored_to, ...) flips an assertion.

    /// Certified oracle primed on `(weights, tickets, params)`; returns it
    /// plus the priming stats.
    fn primed(ws: &[u64], ts: &[u64], params: &CheckParams) -> CachingOracle<FullOracle> {
        let w = Weights::new(ws.to_vec()).unwrap();
        let t = TicketAssignment::new(ts.to_vec());
        let mut c = CachingOracle::new(FullOracle::new()).with_certificates(true);
        c.check(&member_for(&w, &t), params).unwrap();
        let stats = c.take_stats();
        assert_eq!(stats.certificate_skips, 0, "priming never skips");
        c
    }

    /// Checks `(ws, ts)` against `params` on the primed oracle and asserts
    /// the verdict, whether a certificate skip happened, and that the
    /// verdict matches a fresh FullOracle recompute.
    fn check_perturbed(
        c: &mut CachingOracle<FullOracle>,
        ws: &[u64],
        ts: &[u64],
        params: &CheckParams,
        expect: Verdict,
        expect_skip: bool,
    ) {
        let w = Weights::new(ws.to_vec()).unwrap();
        let t = TicketAssignment::new(ts.to_vec());
        let member = member_for(&w, &t);
        let fresh = FullOracle::new().check(&member, params).unwrap();
        assert_eq!(fresh, expect, "instance is miscrafted");
        assert_eq!(c.check(&member, params).unwrap(), expect);
        let stats = c.take_stats();
        assert_eq!(stats.certificate_skips, u64::from(expect_skip), "skip mismatch");
        if expect_skip {
            assert_eq!(stats.dp_invocations, 0, "a skip must not run the DP");
        }
    }

    #[test]
    fn invalid_witness_certificate_skips_and_respects_weight_gains() {
        // Base: weights [5,5,6], tickets [6,6,7], cap 11, target 13 —
        // settles Invalid by DP with witness (13, 11), zero slack.
        let params = CheckParams::Restriction { capacity: 11, alpha_n: Ratio::of(13, 19) };
        let mut c = primed(&[5, 5, 6], &[6, 6, 7], &params);
        // D⁻ = 1 leaves the witness feasible: skip Invalid.
        check_perturbed(&mut c, &[5, 5, 5], &[6, 6, 7], &params, Verdict::Invalid, true);
        // D⁺ = 1 pushes the witness to weight 12 > 11 — and the true
        // verdict flips to Valid, so skipping here would be unsound.
        check_perturbed(&mut c, &[5, 5, 7], &[6, 6, 7], &params, Verdict::Valid, false);
    }

    #[test]
    fn valid_by_bound_certificate_skips_and_respects_weight_losses() {
        // Base: same instance at target 14 — LP floor 13 < 14 settles
        // Valid by the Dantzig bound (margin 1, densest ratio 6/5).
        let params = CheckParams::Restriction { capacity: 11, alpha_n: Ratio::of(14, 19) };
        let mut c = primed(&[5, 5, 6], &[6, 6, 7], &params);
        // D⁺ only: δ = 0, bound 13 < 14 still holds — skip Valid.
        check_perturbed(&mut c, &[5, 5, 7], &[6, 6, 7], &params, Verdict::Valid, true);
        // D⁻ = 1: δ = 1, slope ceil(6/5) = 2 pushes the bound to 15 ≥ 14 —
        // the margin is gone and the oracle must recompute.
        check_perturbed(&mut c, &[4, 5, 6], &[6, 6, 7], &params, Verdict::Valid, false);
    }

    #[test]
    fn valid_by_dp_certificate_explored_to_boundary() {
        // Base: weights [6,6], tickets [6,6], cap 7, target 7 — the LP
        // packs 7 exactly (floor 7, not < 7) so the DP must run: max
        // integral profit under weight 7 is 6 < 7 → Valid by DP. Probe
        // slack is 7/8 + 1 = 1, so explored_to = 8 and the stored frontier
        // is [(0,0), (6,6)].
        let params = CheckParams::Restriction { capacity: 7, alpha_n: Ratio::of(7, 12) };
        let mut c = primed(&[6, 6], &[6, 6], &params);
        // D⁻ = 1: need = 8 ≤ explored_to — skip Valid.
        check_perturbed(&mut c, &[6, 5], &[6, 6], &params, Verdict::Valid, true);
        // D⁻ = 5: need = 12 > explored_to = 8, and the true verdict flips
        // ({1,6} weighs 7 and holds 12 tickets ≥ 7) — skipping would lie.
        check_perturbed(&mut c, &[1, 6], &[6, 6], &params, Verdict::Invalid, false);
    }

    #[test]
    fn valid_by_dp_certificate_frontier_entry_lookup_across_target_change() {
        // Same base as above, then replayed under a *smaller* capacity and
        // target (alpha_n 1/2 → target 6): the lookup lands on frontier
        // entry (6, 6) whose exact weight 6 exceeds need = 5 — skip Valid
        // without ever touching items.
        let prime = CheckParams::Restriction { capacity: 7, alpha_n: Ratio::of(7, 12) };
        let mut c = primed(&[6, 6], &[6, 6], &prime);
        let replay = CheckParams::Restriction { capacity: 5, alpha_n: Ratio::of(1, 2) };
        check_perturbed(&mut c, &[6, 6], &[6, 6], &replay, Verdict::Valid, true);
    }

    #[test]
    fn certificate_skip_seeds_the_exact_cache() {
        let params = CheckParams::Restriction { capacity: 11, alpha_n: Ratio::of(13, 19) };
        let mut c = primed(&[5, 5, 6], &[6, 6, 7], &params);
        let w = Weights::new(vec![5, 5, 5]).unwrap();
        let t = TicketAssignment::new(vec![6, 6, 7]);
        let member = member_for(&w, &t);
        assert_eq!(c.check(&member, &params).unwrap(), Verdict::Invalid);
        assert_eq!(c.check(&member, &params).unwrap(), Verdict::Invalid);
        let stats = c.take_stats();
        assert_eq!(stats.certificate_skips, 1, "second check hits the cache instead");
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn coarse_lookup_settles_nearby_totals_and_respects_margins() {
        // Prime stores a ValidByBound cert at total 19 (LP floor 13 <
        // target 14). The same family's total-20 member was never stored,
        // but the nearest-neighbor pass finds the total-19 entry and its
        // margin absorbs the one-ticket delta: floor 13 + P⁺ 1 = 14 <
        // target 15.
        let params = CheckParams::Restriction { capacity: 11, alpha_n: Ratio::of(14, 19) };
        let mut c = primed(&[5, 5, 6], &[6, 6, 7], &params);
        let w = Weights::new(vec![5, 5, 6]).unwrap();
        let near = TicketAssignment::new(vec![6, 6, 8]);
        let member = member_for(&w, &near);
        assert_eq!(
            FullOracle::new().check(&member, &params).unwrap(),
            Verdict::Valid,
            "instance is miscrafted"
        );
        assert_eq!(c.check(&member, &params).unwrap(), Verdict::Valid);
        let stats = c.take_stats();
        assert_eq!(stats.coarse_cert_hits, 1, "settled from the total-19 entry");
        assert_eq!(stats.certificate_skips, 0, "total 20 is not an exact key");
        assert_eq!(stats.dp_invocations, 0, "a coarse hit must not run the DP");
        // A bigger ticket delta exhausts the margin (floor 13 + P⁺ 13 ≥
        // target 24): the coarse pass must decline and the oracle must
        // recompute — the true verdict here is Invalid, so replaying the
        // stale Valid would lie.
        let far = TicketAssignment::new(vec![6, 6, 20]);
        let member = member_for(&w, &far);
        assert_eq!(c.check(&member, &params).unwrap(), Verdict::Invalid);
        let stats = c.take_stats();
        assert_eq!(stats.coarse_cert_hits, 0, "margin gone: no coarse settle");
        assert_eq!(stats.cache_misses, 1, "fell through to the inner oracle");
    }

    #[test]
    fn certificates_off_by_default_and_droppable() {
        let c = CachingOracle::new(FullOracle::new());
        assert!(!c.certificates_enabled());
        let c = c.with_certificates(true);
        assert!(c.certificates_enabled());
        assert!(!c.with_certificates(false).certificates_enabled());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Replaying three epochs of small weight churn through a certified
        /// caching oracle must return exactly what a fresh FullOracle
        /// computes for every member — certificates may only skip work,
        /// never change a verdict. Exercises all three CertKinds plus
        /// generation rotation (epoch 3 can hit cur_gen or prev_gen).
        #[test]
        fn certified_verdicts_match_recompute_on_perturbed_weights(
            mut ws in proptest::collection::vec(1u64..10_000, 3..16),
            whale in 1u64..1_000_000,
            deltas in proptest::collection::vec((0u64..60, 0u64..2), 16),
            pn in 3u128..6,
        ) {
            ws[0] = ws[0].saturating_add(whale);
            let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(pn, 7)).unwrap();
            let mut cert = CachingOracle::new(FullOracle::new()).with_certificates(true);
            let mut fresh = FullOracle::new();
            let mut total_skips = 0u64;
            for epoch in 0..3 {
                if epoch > 0 {
                    for (w, &(d, sign)) in ws.iter_mut().zip(&deltas) {
                        // Alternate churn direction across epochs so both
                        // D⁺ and D⁻ margins get consumed cumulatively.
                        if (sign == 0) ^ (epoch == 2) {
                            *w -= d.min(*w - 1);
                        } else {
                            *w += d;
                        }
                    }
                }
                let w = Weights::new(ws.clone()).unwrap();
                let params = CheckParams::restriction(&w, &p).unwrap();
                for total in 1u64..=10 {
                    let fam = crate::family::Family::new(&w, p.family_constant(), total).unwrap();
                    let t = fam.assignment_with_total(total).unwrap();
                    let member = member_for(&w, &t);
                    let expect = fresh.check(&member, &params).unwrap();
                    prop_assert_eq!(cert.check(&member, &params).unwrap(), expect);
                }
                total_skips += cert.take_stats().certificate_skips;
            }
            // Not asserted > 0 per instance (margins can legitimately run
            // out), but the counter must never appear in epoch 0 alone.
            prop_assert!(total_skips == 0 || total_skips <= 20);
        }

        /// Coarse-keyed lookups must never change a verdict: members
        /// presented at totals the store has never seen exactly may be
        /// settled from nearby entries, and every such settlement must
        /// match a fresh exact recompute — on the priming weights and on
        /// a churned sibling (which exercises prev_gen coarse hits, the
        /// warm-epoch shape at a million parties).
        #[test]
        fn coarse_certificate_hits_never_change_a_verdict(
            mut ws in proptest::collection::vec(1u64..10_000, 3..16),
            whale in 1u64..1_000_000,
            deltas in proptest::collection::vec((0u64..40, 0u64..2), 16),
            pn in 3u128..6,
        ) {
            ws[0] = ws[0].saturating_add(whale);
            let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(pn, 7)).unwrap();
            let mut cert = CachingOracle::new(FullOracle::new()).with_certificates(true);
            let mut fresh = FullOracle::new();
            // Prime the store at even totals only.
            {
                let w = Weights::new(ws.clone()).unwrap();
                let params = CheckParams::restriction(&w, &p).unwrap();
                for total in (2u64..=20).step_by(2) {
                    let fam = crate::family::Family::new(&w, p.family_constant(), total).unwrap();
                    let t = fam.assignment_with_total(total).unwrap();
                    cert.check(&member_for(&w, &t), &params).unwrap();
                }
            }
            let _ = cert.take_stats();
            // Present odd totals (never stored exactly) on the same
            // weights, then on a churned sibling.
            for churn in 0..2 {
                if churn == 1 {
                    for (w, &(d, sign)) in ws.iter_mut().zip(&deltas) {
                        if sign == 0 {
                            *w -= d.min(*w - 1);
                        } else {
                            *w += d;
                        }
                    }
                }
                let w = Weights::new(ws.clone()).unwrap();
                let params = CheckParams::restriction(&w, &p).unwrap();
                for total in (1u64..=21).step_by(2) {
                    let fam = crate::family::Family::new(&w, p.family_constant(), total).unwrap();
                    let t = fam.assignment_with_total(total).unwrap();
                    let member = member_for(&w, &t);
                    let expect = fresh.check(&member, &params).unwrap();
                    prop_assert_eq!(cert.check(&member, &params).unwrap(), expect);
                }
                let stats = cert.take_stats();
                if churn == 0 {
                    // Distinct odd totals within one generation can only
                    // settle through the coarse pass, never an exact key.
                    prop_assert_eq!(stats.certificate_skips, 0);
                }
            }
        }
    }
}
