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
//!   Scratch state (the last member's run, the blocked ratio view of
//!   [`knapsack::SortedItems`], the DP table) is memoized across
//!   [`ValidityOracle::check`] calls instead of being rebuilt per
//!   candidate: each check diffs the member against the held run and
//!   splices only what changed into the view.
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

/// One candidate of the `t(s, k)` family, as presented to an oracle: a run
/// of ascending parties with their tickets; every party outside it holds
/// none. The solver lends its cursor's live run with the run's weights in
/// an aligned column, so a probe never indexes the `n`-wide weight vector;
/// `FamilyMember::from((&weights, &assignment))` borrows a
/// [`TicketAssignment`]'s holders and reads each weight by party. Oracles
/// read the tickets through [`FamilyMember::nonzero`].
#[derive(Debug, Clone, Copy)]
pub struct FamilyMember<'a> {
    /// The instance's party weights.
    pub weights: &'a Weights,
    /// Total tickets of the candidate.
    pub total: u64,
    /// The run's parties, strictly ascending, holding every ticket.
    parties: &'a [u32],
    tickets: &'a [u64],
    /// The run's weights aligned with `parties`, when the lender keeps
    /// them; `None` reads `weights` by party.
    run_weights: Option<&'a [u64]>,
}

impl<'a> FamilyMember<'a> {
    /// The member whose tickets all sit in the aligned run `(parties,
    /// run_weights, tickets)`, parties strictly ascending; `total` is the
    /// run's ticket sum.
    pub(crate) fn run(
        weights: &'a Weights,
        total: u64,
        parties: &'a [u32],
        run_weights: &'a [u64],
        tickets: &'a [u64],
    ) -> Self {
        debug_assert!(parties.len() == run_weights.len() && parties.len() == tickets.len());
        debug_assert!(parties.windows(2).all(|p| p[0] < p[1]), "run parties not ascending");
        debug_assert_eq!(tickets.iter().map(|&t| u128::from(t)).sum::<u128>(), total.into());
        FamilyMember { weights, total, parties, tickets, run_weights: Some(run_weights) }
    }

    /// The `(party, item)` pairs with a ticket, ascending by party; the
    /// item's profit is the party's tickets, its weight the party's weight.
    pub fn nonzero(&self) -> impl Iterator<Item = (u32, Item)> + 'a {
        let (run_weights, all) = (self.run_weights, self.weights.as_slice());
        self.parties.iter().zip(self.tickets).enumerate().filter(|(_, (_, &t))| t != 0).map(
            move |(k, (&party, &profit))| {
                let weight = run_weights.map_or_else(|| all[party as usize], |ws| ws[k]);
                (party, Item { profit, weight })
            },
        )
    }

    /// The member as an assignment: one copy of the run's holders.
    #[must_use]
    pub fn materialize(&self) -> TicketAssignment {
        let run = self.parties.iter().copied().zip(self.tickets.iter().copied());
        TicketAssignment::from_run(self.weights.len(), run)
    }
}

impl<'a> From<(&'a Weights, &'a TicketAssignment)> for FamilyMember<'a> {
    /// The member holding `tickets` over `weights`.
    ///
    /// # Panics
    ///
    /// Panics if the tickets do not match the weights' party count or
    /// their total exceeds `u64::MAX`.
    fn from((weights, tickets): (&'a Weights, &'a TicketAssignment)) -> Self {
        assert_eq!(weights.len(), tickets.len(), "one ticket count per party");
        let total = u64::try_from(tickets.total()).expect("member total fits u64");
        let (parties, tickets) = tickets.columns();
        FamilyMember { weights, total, parties, tickets, run_weights: None }
    }
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
///   `dp_invocations`, `dp_cells`); the search-shaped counters
///   (`candidates_checked`, `settled_by_theorem`) are owned and filled by
///   the driver.
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
/// Memoizes its working state across checks — the last member's run, the
/// ratio-sorted view ([`SortedItems`]) and the DP table
/// ([`knapsack::DpScratch`]) are allocated once per oracle and recycled
/// through the entire binary search (and, via [`crate::Swiper::solve_many`],
/// across instances of a sweep).
#[derive(Debug, Default, Clone)]
pub struct FullOracle {
    /// The last member's run as lent, zero-ticket parties included.
    held: Run,
    /// The weights of a member built from an assignment, read by party.
    gathered: Vec<u64>,
    /// The last `prepare`'s `(party, old, new)` changes, capped at one past n/8.
    changes: Vec<(usize, Item, Item)>,
    sorted: SortedItems,
    dp: knapsack::DpScratch,
    stats: SolveStats,
}

/// A member's run as aligned columns, parties strictly ascending: party
/// `parties[k]` holds `tickets[k]` (possibly none) at weight `weights[k]`,
/// every other party nothing.
#[derive(Debug, Default, Clone)]
struct Run {
    parties: Vec<u32>,
    tickets: Vec<u64>,
    weights: Vec<u64>,
}

/// A run's three columns, borrowed.
type Columns<'a> = (&'a [u32], &'a [u64], &'a [u64]);

impl Run {
    fn columns(&self) -> Columns<'_> {
        (&self.parties, &self.tickets, &self.weights)
    }

    /// The `(party, item)` pairs, zero-ticket parties included.
    fn pairs(&self) -> impl Iterator<Item = (u32, Item)> + '_ {
        let items = self.tickets.iter().zip(&self.weights);
        self.parties
            .iter()
            .zip(items)
            .map(|(&p, (&profit, &weight))| (p, Item { profit, weight }))
    }
}

/// The item of a party outside a run: no profit (its weight is never read).
const NO_ITEM: Item = Item { profit: 0, weight: 0 };

/// The item of a run entry holding `tickets` at `weight`: none without a
/// ticket.
fn item_of(tickets: u64, weight: u64) -> Item {
    if tickets == 0 {
        NO_ITEM
    } else {
        Item { profit: tickets, weight }
    }
}

/// Entries [`diff_runs`] compares at once.
const CHUNK: usize = 16;

/// Appends to `changes`, in ascending party order, every party whose item
/// differs between the runs `old` and `new` as `(party, old item, new
/// item)`, a party outside a run holding no item, and stops at `cap`
/// changes. The runs are compared [`CHUNK`] entries at a time, all three
/// columns by slice equality, and stepped through entry by entry only
/// where a chunk differs.
fn diff_runs(
    old: Columns<'_>,
    new: Columns<'_>,
    cap: usize,
    changes: &mut Vec<(usize, Item, Item)>,
) {
    let ((op, ot, ow), (np, nt, nw)) = (old, new);
    let note = |changes: &mut Vec<_>, p: u32, old: Item, new: Item| {
        if old != new && changes.len() < cap {
            changes.push((p as usize, old, new));
        }
    };
    let (mut i, mut j) = (0, 0);
    while changes.len() < cap {
        let (ie, je) = (i + CHUNK, j + CHUNK);
        if ie <= op.len()
            && je <= np.len()
            && (&op[i..ie], &ot[i..ie], &ow[i..ie]) == (&np[j..je], &nt[j..je], &nw[j..je])
        {
            (i, j) = (ie, je);
            continue;
        }
        if j == np.len() {
            // The rest of the old run leaves.
            let Some(&p) = op.get(i) else { break };
            note(changes, p, item_of(ot[i], ow[i]), NO_ITEM);
            i += 1;
            continue;
        }
        while j < je.min(np.len()) && changes.len() < cap {
            let p = np[j];
            while i < op.len() && op[i] < p {
                note(changes, op[i], item_of(ot[i], ow[i]), NO_ITEM);
                i += 1;
            }
            let old = if op.get(i) == Some(&p) {
                i += 1;
                item_of(ot[i - 1], ow[i - 1])
            } else {
                NO_ITEM
            };
            note(changes, p, old, item_of(nt[j], nw[j]));
            j += 1;
        }
    }
}

impl FullOracle {
    /// A fresh oracle with empty scratch.
    #[must_use]
    pub fn new() -> Self {
        FullOracle::default()
    }

    /// Brings the sorted view to `member`. The held run and the member's
    /// are diffed ([`diff_runs`]) into the `(party, old, new)` changes, a
    /// party leaving the run as `(party, old, no item)`, and the member's
    /// columns are copied in as the new held run. When a view exists and
    /// at most n/8 items changed (consecutive probes of one search, the
    /// epoch-replay shape) the changes are spliced, else the new run is
    /// re-sorted.
    fn prepare(&mut self, member: &FamilyMember<'_>) {
        let FullOracle { held, gathered, changes, sorted, stats, .. } = self;
        let weights = match member.run_weights {
            Some(weights) => weights,
            None => {
                let all = member.weights.as_slice();
                gathered.clear();
                gathered.extend(member.parties.iter().map(|&p| all[p as usize]));
                gathered
            }
        };
        // A first member is re-sorted whatever changed: collect nothing.
        let cap = if held.parties.is_empty() { 0 } else { member.weights.len() / 8 + 1 };
        changes.clear();
        diff_runs(held.columns(), (member.parties, member.tickets, weights), cap, changes);
        held.parties.clear();
        held.parties.extend_from_slice(member.parties);
        held.tickets.clear();
        held.tickets.extend_from_slice(member.tickets);
        held.weights.clear();
        held.weights.extend_from_slice(weights);
        if changes.len() < cap {
            stats.splice_copied += sorted.splice(changes);
        } else {
            sorted.rebuild_run(held.pairs());
        }
    }

    /// The exact DP behind the quick bounds ([`SortedItems::max_profit_dp_floor`]
    /// over the prepared view), at the Dantzig break ratio of `capacity`.
    fn exact(&mut self, capacity: u128, profit_cap: u64, floor: u64) -> Option<u64> {
        let lambda = self.sorted.break_ratio(capacity);
        self.sorted.max_profit_dp_floor(&mut self.dp, capacity, profit_cap, floor, lambda)
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
                    let reached = self.exact(capacity, target, target).is_some();
                    return Ok((if reached { Verdict::Invalid } else { Verdict::Valid }, None));
                }
                let items: Vec<Item> = self.held.pairs().map(|(_, it)| it).collect();
                let probe = knapsack::max_profit_dp_probe(
                    &mut self.dp,
                    &items,
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
                let Some(a) = self.exact(cap_low, a_ub.min(total) as u64, floor) else {
                    return Ok((Verdict::Valid, None));
                };
                // Invalid iff the heavy side reaches the rest: b >= T - a.
                let rest = member.total - a;
                let reached = self.exact(cap_high, rest, rest).is_some();
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
        let stats = std::mem::take(&mut self.stats);
        SolveStats { dp_cells: std::mem::take(&mut self.dp.cells), ..stats }
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
        self.sorted.rebuild_run(member.nonzero());
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
    // Both ticket lists are sparse and ascending: merge them, a party
    // missing from one side holding 0 there.
    let (mut p_plus, mut p_minus) = (0u128, 0u128);
    let mut old = sc.tickets.iter().peekable();
    for (p, item) in member.nonzero() {
        while let Some(&(_, to)) = old.next_if(|&&(q, _)| q < p) {
            p_minus += u128::from(to);
        }
        let to = old.next_if(|&&(q, _)| q == p).map_or(0, |&(_, t)| t);
        let tn = item.profit;
        if tn >= to {
            p_plus += u128::from(tn - to);
        } else {
            p_minus += u128::from(to - tn);
        }
    }
    p_minus += old.map(|&(_, to)| u128::from(to)).sum::<u128>();
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
        for (p, item) in member.nonzero() {
            eat(&mut lo, &mut hi, u64::from(p));
            eat(&mut lo, &mut hi, item.profit);
            nonzero += 1;
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
        let sparse: Vec<(u32, u64)> =
            member.nonzero().map(|(p, item)| (p, item.profit)).collect();
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

    #[test]
    fn zero_total_is_invalid_for_both_oracles() {
        let w = Weights::new(vec![5, 3, 2]).unwrap();
        let t = TicketAssignment::new(vec![0, 0, 0]);
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let params = CheckParams::restriction(&w, &p).unwrap();
        let member = FamilyMember::from((&w, &t));
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
            let member = FamilyMember::from((&w, &t));
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
                let member = FamilyMember::from((&w, &t));
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
        let member = FamilyMember::from((&w, &t));
        let pa = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let pb = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
        let mut cached = CachingOracle::new(FullOracle::new());
        cached.check(&member, &CheckParams::restriction(&w, &pa).unwrap()).unwrap();
        cached.check(&member, &CheckParams::restriction(&w, &pb).unwrap()).unwrap();
        // Same tickets under different weights must also be distinct keys.
        let w2 = Weights::new(vec![40, 25, 20, 10, 6]).unwrap();
        let member2 = FamilyMember::from((&w2, &t));
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
        let member = FamilyMember::from((&w, &t));
        cached.check(&member, &params).unwrap();
        cached.check(&member, &params).unwrap();
        assert!(cached.is_empty(), "max_entries == 0 disables caching");
        assert_eq!(cached.take_stats().cache_misses, 2);

        let mut small = CachingOracle::new(FullOracle::new()).with_max_entries(2);
        for total in 1u64..=5 {
            let fam = crate::family::Family::new(&w, p.family_constant(), total).unwrap();
            let t = fam.assignment_with_total(total).unwrap();
            small.check(&FamilyMember::from((&w, &t)), &params).unwrap();
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
        oracle.check(&FamilyMember::from((&w, &t)), &params).unwrap();
        let stats = oracle.take_stats();
        // The driver owns candidates_checked; the oracle reports only how
        // the check was settled.
        assert_eq!(stats.candidates_checked, 0);
        let settled =
            stats.settled_by_upper_bound + stats.settled_by_lower_bound + stats.dp_invocations;
        assert_eq!(settled, 1);
        assert_eq!(oracle.take_stats(), SolveStats::default());
    }

    /// Runs the DP calls a [`FullOracle`] check makes — the restriction's
    /// decision, the separation's light-side optimum and, when that reaches
    /// its floor, the heavy side's decision — through the sorted view
    /// `oracle` prepared for `member` and through the slice entry point on
    /// the member's items, and insists on the same `Option<best>`. The
    /// calls run whether or not the quick bounds would settle the check.
    /// Returns whether the heavy-side call ran.
    fn entry_points_agree(
        oracle: &mut FullOracle,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> bool {
        if member.total == 0 {
            return false; // settled before any view is prepared
        }
        let items = crate::verify::items_of(member.weights, &member.materialize());
        let fresh = SortedItems::new(&items);
        let mut scratch = knapsack::DpScratch::default();
        let mut both = |capacity: u128, cap: u64, floor: u64| {
            let lambda = fresh.break_ratio(capacity);
            let want = knapsack::max_profit_dp_floor(
                &mut scratch,
                &items,
                capacity,
                cap,
                floor,
                lambda,
            );
            let got = oracle.exact(capacity, cap, floor);
            // The oracle's own checks count their cells; this call is not one.
            oracle.dp.cells = 0;
            assert_eq!(got, want, "total {}, capacity {capacity}, cap {cap}", member.total);
            want
        };
        match *params {
            CheckParams::Restriction { capacity, alpha_n } => {
                if let Some(target) = restriction_target(alpha_n, member.total).unwrap() {
                    both(capacity, target, target);
                }
                false
            }
            CheckParams::Separation { cap_low, cap_high } => {
                let total = u128::from(member.total);
                let a_ub = fresh.fractional_upper_bound_floor(cap_low);
                let b_ub = fresh.fractional_upper_bound_floor(cap_high);
                let floor = fresh.greedy_lower_bound(cap_low).max(total.saturating_sub(b_ub));
                let Some(a) = both(cap_low, a_ub.min(total) as u64, floor as u64) else {
                    return false;
                };
                let rest = member.total - a;
                both(cap_high, rest, rest);
                true
            }
        }
    }

    /// Re-decides on the full table (`floor = 0`, the verifiers' kernel)
    /// every check the wrapped [`FullOracle`] settled by the DP, and
    /// insists on the same verdict; runs that check's DP calls through both
    /// entry points ([`entry_points_agree`]) too.
    #[derive(Default)]
    struct FullTableRecheck {
        inner: FullOracle,
        stats: SolveStats,
        /// Separation checks whose heavy-side DP call ran.
        heavy_calls: usize,
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
                self.heavy_calls +=
                    usize::from(entry_points_agree(&mut self.inner, member, params));
                let items = crate::verify::items_of(member.weights, &member.materialize());
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
    /// re-decided on the full table and its DP calls, the separation's
    /// heavy side included, run through both entry points.
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
        assert!(oracle.heavy_calls > 0, "no separation check reached its heavy side");
    }

    /// The same re-decision on the warm path, where the fathomed fill does
    /// most of its work: the WR(1/3, 1/2) and WQ(1/3, 1/4) tracks, each
    /// re-solved through `resolve_from_with` over six seeded drifts of 10⁵
    /// whale-skewed parties — 1 % of the parties, each moved by up to ±5 %
    /// of its stake — with every DP-settled probe re-decided on the full
    /// table and run through both entry points.
    #[test]
    #[ignore = "too slow for the debug-mode run; ci.yml runs it with --release"]
    fn core_reduction_matches_full_table_on_warm_1e5_epochs() {
        use crate::problems::WeightQualification;
        use crate::solver::Instance;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 100_000;
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
        let tracks = |w: &Weights| {
            [Instance::restriction(w.clone(), wr), Instance::qualification(w.clone(), wq)]
        };
        let solver = crate::Swiper::new();
        let mut w = Weights::whale_skewed(n, 1);
        let mut oracles: [FullTableRecheck; 2] = Default::default();
        let mut prev: Vec<_> = tracks(&w)
            .iter()
            .zip(&mut oracles)
            .map(|(inst, oracle)| solver.solve_instance_with(oracle, inst).unwrap())
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let mut order: Vec<usize> = (0..n).collect();
        let mut warm_dp = [0u64; 2];
        for _ in 0..6 {
            let mut next = w.as_slice().to_vec();
            // A partial Fisher–Yates draw of distinct parties.
            for i in 0..n / 100 {
                order.swap(i, rng.random_range(i..n));
                let party = &mut next[order[i]];
                *party = (*party * rng.random_range(95..=105u64) / 100).max(1);
            }
            w = Weights::new(next).unwrap();
            for (k, inst) in tracks(&w).iter().enumerate() {
                let sol = solver.resolve_from_with(&mut oracles[k], &prev[k], inst).unwrap();
                warm_dp[k] += sol.stats.dp_invocations;
                prev[k] = sol;
            }
        }
        assert!(warm_dp.iter().all(|&calls| calls > 0), "a warm track never reached the DP");
    }

    /// Checks every member twice — through the wrapped persistent
    /// [`FullOracle`] and, rebuilt from its materialized assignment,
    /// through a fresh one — and insists on the same verdict and
    /// settlement counters.
    #[derive(Default)]
    struct AgainstFresh {
        inner: FullOracle,
        stats: SolveStats,
    }

    impl ValidityOracle for AgainstFresh {
        fn check(
            &mut self,
            member: &FamilyMember<'_>,
            params: &CheckParams,
        ) -> Result<Verdict, CoreError> {
            let verdict = self.inner.check(member, params)?;
            let settled = self.inner.take_stats();
            let mut fresh = FullOracle::new();
            let landed = member.materialize();
            let landed = FamilyMember::from((member.weights, &landed));
            assert_eq!(fresh.check(&landed, params)?, verdict, "total {}", member.total);
            // A fresh oracle re-sorts: it splices nothing.
            let spliced = SolveStats { splice_copied: 0, ..settled };
            assert_eq!(fresh.take_stats(), spliced, "total {}", member.total);
            self.stats.absorb(&settled);
            Ok(verdict)
        }

        fn take_stats(&mut self) -> SolveStats {
            std::mem::take(&mut self.stats)
        }
    }

    /// Every probe of a cold WR solve over 10⁶ whale-skewed parties, judged
    /// by the one oracle that carries its item view from probe to probe and
    /// by a fresh oracle per probe.
    #[test]
    #[ignore = "too slow for the debug-mode run; ci.yml runs it with --release"]
    fn persistent_oracle_matches_fresh_on_1e6_whales() {
        let w = Weights::whale_skewed(1_000_000, 1);
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let mut oracle = AgainstFresh::default();
        let sol = crate::Swiper::new().solve_restriction_with(&mut oracle, &w, &wr).unwrap();
        assert!(sol.stats.candidates_checked > 1, "a one-probe solve compares nothing");
    }

    /// Forwards every member to the persistent `inner`, then insists that
    /// its view equals a fresh `rebuild_run` of the member.
    #[derive(Default)]
    struct ViewAgainstRebuild {
        inner: FullOracle,
        views: u64,
    }

    impl ValidityOracle for ViewAgainstRebuild {
        fn check(
            &mut self,
            member: &FamilyMember<'_>,
            params: &CheckParams,
        ) -> Result<Verdict, CoreError> {
            let verdict = self.inner.check(member, params)?;
            if member.total > 0 {
                let mut fresh = SortedItems::default();
                fresh.rebuild_run(member.nonzero());
                assert_eq!(self.inner.sorted.parts(), fresh.parts(), "total {}", member.total);
                self.views += 1;
            }
            Ok(verdict)
        }

        fn take_stats(&mut self) -> SolveStats {
            self.inner.take_stats()
        }
    }

    /// The blocked view at scale: after every probe of a cold WR solve over
    /// 10⁶ whale-skewed parties and of cold WQ and WS solves over 10⁵, the
    /// persistent oracle's spliced view holds what a rebuild of the member
    /// holds, its blocks' sums, extremes and prefixes current.
    #[test]
    #[ignore = "too slow for the debug-mode run; ci.yml runs it with --release"]
    fn view_splices_match_rebuilds_on_1e6_whales() {
        use crate::problems::WeightQualification;
        let solver = crate::Swiper::new();
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
        let ws = WeightSeparation::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let (big, small) =
            (Weights::whale_skewed(1_000_000, 1), Weights::whale_skewed(100_000, 1));
        let mut oracle = ViewAgainstRebuild::default();
        let spliced = [
            solver.solve_restriction_with(&mut oracle, &big, &wr),
            solver.solve_qualification_with(&mut oracle, &small, &wq),
            solver.solve_separation_with(&mut oracle, &small, &ws),
        ]
        .map(|sol| sol.unwrap().stats.splice_copied);
        assert!(spliced.iter().all(|&copied| copied > 0), "a solve never spliced: {spliced:?}");
        assert!(oracle.views > 3, "one view per solve compares nothing");
    }

    /// Forwards every member to `inner`, rebuilt from its materialized
    /// assignment when `landed`, and records the verdicts.
    #[derive(Default)]
    struct Recorded {
        inner: FullOracle,
        landed: bool,
        verdicts: Vec<(u64, Verdict)>,
    }

    impl ValidityOracle for Recorded {
        fn check(
            &mut self,
            member: &FamilyMember<'_>,
            params: &CheckParams,
        ) -> Result<Verdict, CoreError> {
            let verdict = if self.landed {
                let tickets = member.materialize();
                self.inner.check(&FamilyMember::from((member.weights, &tickets)), params)?
            } else {
                self.inner.check(member, params)?
            };
            self.verdicts.push((member.total, verdict));
            Ok(verdict)
        }

        fn take_stats(&mut self) -> SolveStats {
            self.inner.take_stats()
        }
    }

    /// The cold WR solve over 10⁶ whale-skewed parties twice: its oracle
    /// reading each member as the cursor's live run (weights lent in an
    /// aligned column), and as the member built from that run's landed
    /// assignment (weights read by party). Verdicts, counters and landing
    /// must agree.
    #[test]
    #[ignore = "too slow for the debug-mode run; ci.yml runs it with --release"]
    fn support_walk_matches_full_walk_on_1e6_whales() {
        let w = Weights::whale_skewed(1_000_000, 1);
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let solve = |landed| {
            let mut oracle = Recorded { landed, ..Recorded::default() };
            let sol =
                crate::Swiper::new().solve_restriction_with(&mut oracle, &w, &wr).unwrap();
            (sol, oracle.verdicts)
        };
        let (walked, walked_verdicts) = solve(false);
        let (landed, landed_verdicts) = solve(true);
        assert!(walked_verdicts.len() > 1, "a one-probe solve compares nothing");
        assert_eq!(walked_verdicts, landed_verdicts);
        assert_eq!(walked.stats, landed.stats);
        assert_eq!(walked.assignment, landed.assignment);
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
        c.check(&FamilyMember::from((&w, &t)), params).unwrap();
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
        let member = FamilyMember::from((&w, &t));
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
        let member = FamilyMember::from((&w, &t));
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
        let member = FamilyMember::from((&w, &near));
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
        let member = FamilyMember::from((&w, &far));
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

    /// The weight and ticket columns of the run over `parties`.
    fn run_columns(ws: &[u64], ts: &[u64], parties: &[u32]) -> (Vec<u64>, Vec<u64>) {
        parties.iter().map(|&p| (ws[p as usize], ts[p as usize])).unzip()
    }

    proptest! {
        /// `prepare` over random pairs of runs — disjoint, nested either
        /// way, identical, either one empty, or changed only at chunk
        /// edges — with churned weights half the time, each member lent as
        /// a run (its holders plus zero-ticket parties, weights in a
        /// column) or built from its assignment (weights read by party),
        /// over up to a few hundred parties: the change list is the two
        /// members' party-wise difference in ascending order (cut at one
        /// past n/8, mid-chunk on most large shapes; none after an empty
        /// run), a party leaving the run included, the held run is the
        /// member's columns, and the view equals a rebuild of the new
        /// member.
        #[test]
        fn prepare_diffs_runs_and_matches_a_rebuild(
            seed in 1u64..u64::MAX,
            n in 1u64..400,
            shape in 0u64..7,
            churn in any::<bool>(),
            lent in 0u8..4,
        ) {
            let mut state = seed;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            // Zero weights too, but party 0 keeps the total positive.
            let ws_a: Vec<u64> = (0..n).map(|p| next(50) + u64::from(p == 0)).collect();
            let ts_a: Vec<u64> = (0..n).map(|_| if next(3) == 0 { 1 + next(5) } else { 0 }).collect();
            let mut ws_b = ws_a.clone();
            if churn {
                for w in ws_b.iter_mut().skip(1) {
                    if next(4) == 0 {
                        *w = next(50);
                    }
                }
            }
            let ts_a = if shape == 5 { vec![0; ts_a.len()] } else { ts_a };
            // A run over every holder and about a quarter of the others.
            let parties_a: Vec<u32> =
                (0..n as u32).filter(|&p| ts_a[p as usize] != 0 || next(4) == 0).collect();
            let mut fresh = |_| 1 + next(5);
            let ts_b: Vec<u64> = match shape {
                // Disjoint.
                0 => ts_a.iter().map(|&t| if t == 0 { fresh(()) } else { 0 }).collect(),
                // Nested inside the old run, tickets changed in places.
                1 => ts_a.iter().map(|&t| if t > 0 && fresh(()) > 2 { fresh(()) } else { 0 }).collect(),
                // Nested around the old run.
                2 => ts_a.iter().map(|&t| if t > 0 { t } else { fresh(()) % 3 }).collect(),
                // Identical.
                3 => ts_a.clone(),
                // The new run empty.
                4 => vec![0; ts_a.len()],
                // The old run empty: the first probe.
                5 => ts_a.iter().map(|_| fresh(()) % 2).collect(),
                // The old run's tickets, changed only on the first or last
                // entry of some of its chunks.
                _ => {
                    let mut ts_b = ts_a.clone();
                    for (k, &p) in parties_a.iter().enumerate() {
                        if matches!(k % CHUNK, 0 | 15) && fresh(()) > 3 {
                            ts_b[p as usize] = fresh(()) % 4;
                        }
                    }
                    ts_b
                }
            };
            // Chunk edges line up only when the new run keeps the old parties.
            let parties_b: Vec<u32> = if shape == 6 {
                parties_a.clone()
            } else {
                (0..n as u32).filter(|&p| ts_b[p as usize] != 0 || next(4) == 0).collect()
            };
            let (wa, wb) = (Weights::new(ws_a.clone()).unwrap(), Weights::new(ws_b.clone()).unwrap());
            let (ta, tb) = (TicketAssignment::new(ts_a.clone()), TicketAssignment::new(ts_b.clone()));
            let (run_wa, run_ta) = run_columns(&ws_a, &ts_a, &parties_a);
            let (run_wb, run_tb) = run_columns(&ws_b, &ts_b, &parties_b);
            let total = |ta: &TicketAssignment| u64::try_from(ta.total()).unwrap();
            let member_a = if lent & 1 == 1 {
                FamilyMember::run(&wa, total(&ta), &parties_a, &run_wa, &run_ta)
            } else {
                FamilyMember::from((&wa, &ta))
            };
            let member_b = if lent & 2 == 2 {
                FamilyMember::run(&wb, total(&tb), &parties_b, &run_wb, &run_tb)
            } else {
                FamilyMember::from((&wb, &tb))
            };
            let mut oracle = FullOracle::new();
            oracle.prepare(&member_a);
            oracle.prepare(&member_b);

            let item = |ws: &[u64], ts: &[u64], p: usize| item_of(ts[p], ws[p]);
            // A first member (no run held) is re-sorted and diffs nothing.
            let cap = if member_a.parties.is_empty() { 0 } else { n as usize / 8 + 1 };
            let want: Vec<(usize, Item, Item)> = (0..n as usize)
                .map(|p| (p, item(&ws_a, &ts_a, p), item(&ws_b, &ts_b, p)))
                .filter(|(_, old, new)| old != new)
                .take(cap)
                .collect();
            prop_assert_eq!(&oracle.changes, &want);
            let gathered: Vec<u64> = member_b.parties.iter().map(|&p| ws_b[p as usize]).collect();
            prop_assert_eq!(oracle.held.columns(), (member_b.parties, member_b.tickets, &gathered[..]));
            // The dense items: a view's parties are slice positions.
            let items: Vec<Item> =
                ws_b.iter().zip(&ts_b).map(|(&weight, &profit)| Item { profit, weight }).collect();
            prop_assert_eq!(oracle.sorted.parts(), SortedItems::new(&items).parts());
        }

        /// One `FullOracle` fed a random member sequence returns, for every
        /// member, the verdict and `SolveStats` a fresh `FullOracle` does.
        /// The sequence mixes a few ticket changes at the same n (the
        /// splice), more than n/8 of them (the re-sort), new weights at the
        /// same n, a different n, zero weights and zero tickets, and
        /// thinning to a sparse member; each member comes as a run (its
        /// nonzero parties plus random others, weights in a column) or
        /// built from its assignment (weights read by party) and is judged
        /// under both check shapes, and the persistent oracle's DP calls
        /// for it run through both entry points. A `CachingOracle`
        /// fingerprints the two forms the same.
        #[test]
        fn persistent_full_oracle_matches_a_fresh_one(
            seed in 1u64..u64::MAX,
            n in 8u64..40,
            sparse in 1u64..6,
            kinds in proptest::collection::vec(0u64..6, 4..16),
        ) {
            let mut state = seed;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let mut ws: Vec<u64> = (0..n).map(|_| 1 + next(10_000)).collect();
            let mut ts: Vec<u64> =
                (0..n).map(|_| if next(sparse) == 0 { next(6) } else { 0 }).collect();
            let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
            let sep = WeightSeparation::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
            let mut persistent = FullOracle::new();
            let mut caching = CachingOracle::new(FullOracle::new());
            for kind in kinds {
                let n = ws.len() as u64;
                let few = 1 + next(n / 8);
                match kind {
                    0 => {
                        for _ in 0..few {
                            let i = next(n) as usize;
                            ts[i] = (ts[i] + 1 + next(5)) % 6;
                        }
                    }
                    1 => {
                        let start = next(n);
                        for k in 0..n / 4 + 1 {
                            ts[((start + k) % n) as usize] += 1 + next(3);
                        }
                    }
                    2 => {
                        for _ in 0..few {
                            ws[next(n) as usize] = 1 + next(1_000_000);
                        }
                    }
                    3 => {
                        if next(2) == 0 && n > 10 {
                            ws.truncate((n - 1 - next(3)) as usize);
                            ts.truncate(ws.len());
                        } else {
                            for _ in 0..1 + next(3) {
                                ws.push(1 + next(10_000));
                                ts.push(next(6));
                            }
                        }
                    }
                    4 => {
                        for _ in 0..few {
                            // Party 0 keeps its weight: the total stays positive.
                            ws[1 + next(n - 1) as usize] = 0;
                            ts[next(n) as usize] = 0;
                        }
                    }
                    _ => ts.iter_mut().filter(|_| next(4) != 0).for_each(|t| *t = 0),
                }
                let w = Weights::new(ws.clone()).unwrap();
                let t = TicketAssignment::new(ts.clone());
                let held = FamilyMember::from((&w, &t));
                let parties: Vec<u32> =
                    (0..ts.len() as u32).filter(|&p| ts[p as usize] != 0 || next(8) == 0).collect();
                let (run_w, run_t) = run_columns(&ws, &ts, &parties);
                let member = if next(4) != 0 {
                    FamilyMember::run(&w, held.total, &parties, &run_w, &run_t)
                } else {
                    held
                };
                prop_assert_eq!(
                    caching.member_fingerprint(&member),
                    caching.member_fingerprint(&held)
                );
                for params in [
                    CheckParams::restriction(&w, &wr).unwrap(),
                    CheckParams::separation(&w, &sep).unwrap(),
                ] {
                    let mut fresh = FullOracle::new();
                    let expect = fresh.check(&member, &params).unwrap();
                    prop_assert_eq!(persistent.check(&member, &params).unwrap(), expect);
                    // A fresh oracle re-sorts: it splices nothing.
                    let stats = SolveStats { splice_copied: 0, ..persistent.take_stats() };
                    prop_assert_eq!(stats, fresh.take_stats());
                    entry_points_agree(&mut persistent, &member, &params);
                }
            }
        }
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
                    let member = FamilyMember::from((&w, &t));
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
                    cert.check(&FamilyMember::from((&w, &t)), &params).unwrap();
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
                    let member = FamilyMember::from((&w, &t));
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
