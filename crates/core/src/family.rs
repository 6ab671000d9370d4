//! The Swiper ticket-assignment family `t(s, k)` (paper, Section 3.1).
//!
//! For a fixed rounding constant `c` in `(0, 1)`, the family consists of
//! assignments `t_i = floor(s * w_i + c)` for a scale `s >= 0`, refined by
//! taking one ticket away from all but `k` of the parties "on the border"
//! (those for which `s * w_i + c` is an integer). Ordered by total tickets,
//! consecutive members differ by exactly one ticket, so the family is
//! totally ordered and indexable by its total `T`.
//!
//! This module computes the member with a given total **exactly**: the scale
//! at which the `T`-th ticket appears is the `T`-th smallest *crossing*
//! `(m - c) / w_i` over parties `i` and positive integers `m`. Selection is
//! done with pure integer arithmetic:
//!
//! 1. search the integer `j` such that the `T`-th crossing lies in
//!    `((j-1-c)/w_max, (j-c)/w_max]` — an interval of length `1/w_max` that
//!    contains at most one crossing per party, because crossings of party
//!    `i` are spaced `1/w_i >= 1/w_max` apart (the one-shot reference
//!    bisects, [`FamilyCursor`] interpolates);
//! 2. enumerate the at-most-`n` crossings inside and select by rank.
//!
//! All comparisons cross-multiply `u128`s (with 256-bit widening where
//! needed), mirroring the exact-`Fraction` discipline of the reference
//! implementation.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::assignment::TicketAssignment;
use crate::error::CoreError;
use crate::ratio::Ratio;
use crate::weights::Weights;
use crate::wide::cmp_mul;

/// A crossing value `(m - c) / w = a / (cd * w)` with `a = m * cd - cn`.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    /// Numerator over the denominator `cd * w`.
    a: u128,
    /// The party whose crossing this is.
    party: usize,
    /// That party's weight (denominator component).
    w: u64,
}

impl Crossing {
    fn cmp_value(&self, other: &Crossing) -> Ordering {
        // a1/(cd*w1) vs a2/(cd*w2)  <=>  a1*w2 vs a2*w1
        cmp_mul(self.a, u128::from(other.w), other.a, u128::from(self.w))
    }
}

/// See [`Family::eval_at`]. `Narrow` is exact because the constructor
/// proves `a * w_max + add <= u64::MAX` and every `w_i <= w_max`; it
/// divides by its fixed `den` through the reciprocal `recip` (see
/// [`div_by_recip`]).
enum TicketsEval {
    Narrow { a: u64, add: u64, recip: u128 },
    Wide { a: u128, add: u128, den: u128 },
}

impl TicketsEval {
    /// `Narrow` with the reciprocal of `den` computed once. `den >= 2`
    /// always holds: `c` in `(0, 1)` forces `cd >= 2`, and `w_p >= 1`.
    fn narrow(a: u64, add: u64, den: u64) -> Self {
        debug_assert!(den >= 2, "the reciprocal of {den} does not fit in u128");
        TicketsEval::Narrow { a, add, recip: u128::MAX / u128::from(den) + 1 }
    }

    #[inline]
    fn tickets(&self, w_i: u64) -> u128 {
        match *self {
            TicketsEval::Narrow { a, add, recip } => div_by_recip(a * w_i + add, recip),
            TicketsEval::Wide { a, add, den } => (a * u128::from(w_i) + add) / den,
        }
    }
}

/// `floor(x / den)` as the high word of `recip * x` for
/// `recip = ceil(2^128 / den)`, exact for every `x, den < 2^64` (Lemire,
/// Kaser & Kurz, *Faster Remainder by Direct Computation*, 2019, Thm. 1
/// with `F = 128 >= N + L`): writing `recip = 2^128 / den + e` with
/// `0 <= e < 1`, the product is `x / den + e * x / 2^128`, and
/// `e * x < 2^128 / den` keeps the error below the gap to the next
/// multiple of `1 / den`. Two 64×64→128 multiplies replace a division.
#[inline]
fn div_by_recip(x: u64, recip: u128) -> u128 {
    let x = u128::from(x);
    let low = (recip & u128::from(u64::MAX)) * x;
    let high = (recip >> 64) * x;
    (high + (low >> 64)) >> 64
}

/// The `t(s, k)` family for a weight vector and rounding constant.
#[derive(Debug)]
pub(crate) struct Family<'a> {
    weights: &'a Weights,
    /// `c = cn / cd`, strictly inside `(0, 1)`.
    cn: u128,
    cd: u128,
    w_max: u64,
}

impl<'a> Family<'a> {
    /// Creates the family, pre-validating that all intermediate products for
    /// totals up to `max_total` fit in `u128`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ThresholdOutOfRange`] when `c` is not in `(0, 1)`.
    /// * [`CoreError::ArithmeticOverflow`] when `max_total`, `c`'s
    ///   denominator and the largest weight jointly exceed the envelope.
    pub fn new(weights: &'a Weights, c: Ratio, max_total: u64) -> Result<Self, CoreError> {
        if !c.is_proper() {
            return Err(CoreError::ThresholdOutOfRange {
                what: "family constant c must be in (0, 1)",
            });
        }
        let (cn, cd) = (c.num(), c.den());
        let w_max = weights.max();
        // Worst-case numerator: ((max_total + 2) * cd) * w_max + cn * w_max.
        let a_max = u128::from(max_total)
            .checked_add(2)
            .and_then(|x| x.checked_mul(cd))
            .ok_or(CoreError::ArithmeticOverflow)?;
        a_max
            .checked_mul(u128::from(w_max))
            .and_then(|x| x.checked_add(cn.checked_mul(u128::from(w_max))?))
            .ok_or(CoreError::ArithmeticOverflow)?;
        Ok(Family { weights, cn, cd, w_max })
    }

    /// Hoisted evaluator for `floor(s * w_i + c)` at a fixed scale
    /// `s = a / (cd * w_p)`, i.e. `floor((a*w_i + cn*w_p) / (cd*w_p))`: the
    /// addend `cn * w_p` and denominator `cd * w_p` are per-scale constants,
    /// and when `a * w_max + add` provably fits in `u64` the whole
    /// evaluation runs at native width (`u128` division lowers to a
    /// libcall an order of magnitude slower — this is the inner loop of
    /// every binary-search probe, O(n) per probe at n up to 10⁶).
    fn eval_at(&self, a: u128, w_p: u64) -> TicketsEval {
        let add = self.cn * u128::from(w_p);
        let den = self.cd * u128::from(w_p);
        let w_max = u128::from(self.w_max.max(1));
        let narrow = (|| {
            let den64 = u64::try_from(den).ok()?;
            let add64 = u64::try_from(add).ok()?;
            let a64 = u64::try_from(a).ok()?;
            if a > (u128::MAX - add) / w_max || a * w_max + add > u128::from(u64::MAX) {
                return None;
            }
            Some(TicketsEval::narrow(a64, add64, den64))
        })();
        narrow.unwrap_or(TicketsEval::Wide { a, add, den })
    }

    /// Total tickets of the base assignment at the grid scale
    /// `(j - c) / w_max`, i.e. the number of crossings with value `<= s`.
    /// A zero weight needs no branch: it evaluates to `floor(c) = 0`.
    fn count_at(&self, j: u64) -> u128 {
        let eval = self.grid_eval(j);
        self.weights.as_slice().iter().map(|&w| eval.tickets(w)).sum()
    }

    /// Numerator `a = j * cd - cn` of the scale `(j - c) / w_max`.
    fn grid_a(&self, j: u64) -> u128 {
        u128::from(j) * self.cd - self.cn
    }

    /// [`Family::eval_at`] at the grid scale `(j - c) / w_max`, `j >= 1`.
    fn grid_eval(&self, j: u64) -> TicketsEval {
        self.eval_at(self.grid_a(j), self.w_max)
    }

    /// The unique family member with exactly `total` tickets.
    ///
    /// For `total == 0` this is the all-zero assignment (the `s -> 0`
    /// limit), which is never *viable* but is useful to the solver as the
    /// invalid end of its binary search.
    pub fn assignment_with_total(&self, total: u64) -> Result<TicketAssignment, CoreError> {
        let n = self.weights.len();
        if total == 0 {
            return Ok(TicketAssignment::new(vec![0; n]));
        }
        // Step 1: find minimal j in [1, total] with count((j - c)/w_max) >= total.
        // At j = total the max-weight party alone contributes `total`.
        let (mut lo, mut hi) = (0u64, total); // lo: count < total (j=0 -> s<0 -> 0)
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.count_at(mid) >= u128::from(total) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let j = hi;
        let count_left = if j == 1 { 0 } else { self.count_at(j - 1) };
        debug_assert!(count_left < u128::from(total));
        let rank = (u128::from(total) - count_left) as usize; // 1-based within interval

        // Step 2: one candidate crossing per party inside ((j-1-c)/w_max, (j-c)/w_max].
        let r_a = self.grid_a(j);
        let left_eval = (j > 1).then(|| self.grid_eval(j - 1));
        let mut cands: Vec<Crossing> = Vec::new();
        for (i, w) in self.weights.iter() {
            if w == 0 {
                continue;
            }
            // First crossing index strictly after the left end.
            let m = match &left_eval {
                None => 1,
                Some(eval) => eval.tickets(w) + 1,
            };
            let a = m * self.cd - self.cn;
            // Include iff value <= right end: a/(cd*w) <= r_a/(cd*w_max)
            //   <=> a * w_max <= r_a * w.
            if cmp_mul(a, u128::from(self.w_max), r_a, u128::from(w)) != Ordering::Greater {
                cands.push(Crossing { a, party: i, w });
            }
        }
        debug_assert!(cands.len() >= rank, "interval must contain the target crossing");
        cands.sort_by(|x, y| x.cmp_value(y).then(x.party.cmp(&y.party)));
        let star = cands[rank - 1];

        // Step 3: base assignment at s* and the border set.
        let mut tickets: Vec<u64> = Vec::with_capacity(n);
        let mut total_base: u128 = 0;
        let star_eval = self.eval_at(star.a, star.w);
        for (_, w) in self.weights.iter() {
            let t = if w == 0 { 0 } else { star_eval.tickets(w) };
            total_base += t;
            tickets.push(u64::try_from(t).map_err(|_| CoreError::ArithmeticOverflow)?);
        }
        let overshoot = usize::try_from(total_base - u128::from(total))
            .map_err(|_| CoreError::ArithmeticOverflow)?;
        if overshoot > 0 {
            // Border parties: candidates whose crossing value equals s*.
            let mut border: Vec<&Crossing> =
                cands.iter().filter(|c| c.cmp_value(&star) == Ordering::Equal).collect();
            debug_assert!(border.len() > overshoot, "overshoot bounded by border size");
            // Deterministic "all but k" rule: drop tickets from the lightest
            // border parties first, breaking ties towards higher indices.
            border.sort_by(|x, y| x.w.cmp(&y.w).then(y.party.cmp(&x.party)));
            for c in border.into_iter().take(overshoot) {
                tickets[c.party] -= 1;
            }
        }
        let out = TicketAssignment::new(tickets);
        debug_assert_eq!(out.total(), u128::from(total));
        Ok(out)
    }
}

/// Cached state of one grid interval `((j-1-c)/w_max, (j-c)/w_max]`: the
/// sorted candidate crossings inside it and the ticket vector materialized
/// somewhere along it. Any total whose boundary crossing falls in the same
/// interval is reachable from here by splicing only the candidates between
/// the two ranks — the O(Δ) path.
struct IntervalState {
    j: u64,
    /// Candidate crossings in the interval, sorted by `(value, party)`.
    cands: Vec<Crossing>,
    /// `cands[..applied]` currently carry their `+1` in the ticket vector.
    applied: usize,
    /// Parties currently holding a border `-1` (the "all but k" drop).
    dropped: Vec<usize>,
}

/// Incremental materializer over one [`Family`]: [`FamilyCursor::advance_to`]
/// produces the member with a given total **bit-identically** to
/// [`Family::assignment_with_total`], but shares work across calls.
///
/// Two memoizations carry between probes of one binary search:
///
/// 1. **Grid counts** — `count(j)` evaluations (the O(n) inner loop of the
///    grid search) are memoized per `j`, and each search pre-narrows its
///    bracket from the memo before computing anything new; the search
///    itself interpolates between its anchors (see
///    [`FamilyCursor::find_j`]).
/// 2. **Interval state** — when consecutive totals land in the same grid
///    interval (the common case once a bracket tightens), the ticket vector
///    is spliced by rank delta: only parties whose crossing sits between
///    the two boundary ranks change, plus border-drop bookkeeping.
///
/// Equivalence with the from-scratch path is pinned by the
/// `cursor_matches_from_scratch` proptest below.
pub(crate) struct FamilyCursor<'f, 'a> {
    family: &'f Family<'a>,
    /// Memoized `j -> count_at(j)`: one entry per O(n) count pass run.
    counts: BTreeMap<u64, u128>,
    interval: Option<IntervalState>,
    /// Current ticket vector for the cached interval (valid when
    /// `interval.is_some()`).
    tickets: Vec<u64>,
    /// Advances served from the cached interval via rank-delta splicing.
    reused: u64,
}

impl<'f, 'a> FamilyCursor<'f, 'a> {
    pub fn new(family: &'f Family<'a>) -> Self {
        FamilyCursor {
            family,
            counts: BTreeMap::new(),
            interval: None,
            tickets: Vec::new(),
            reused: 0,
        }
    }

    /// Advances served by the O(Δ) same-interval splice so far.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// O(n) grid-count passes run so far.
    pub fn grid_counts(&self) -> u64 {
        self.counts.len() as u64
    }

    /// Memoized `count_at(j)`.
    fn count(&mut self, j: u64) -> u128 {
        if let Some(&c) = self.counts.get(&j) {
            return c;
        }
        let c = self.family.count_at(j);
        self.counts.insert(j, c);
        c
    }

    /// The tightest `(lo, hi)` the memo proves for `total`:
    /// `count(lo) < total <= count(hi)`, starting from `lo = 0` (scale
    /// below zero, count 0) and `hi = total` (`w_max` alone reaches it).
    /// Counts are monotone in `j`, so no memoized `j` lies strictly inside.
    fn bracket(&self, total: u64) -> (u64, u64) {
        let want = u128::from(total);
        let (mut lo, mut hi) = (0u64, total);
        for (&j, &c) in self.counts.range(..total) {
            if c < want {
                lo = j;
            } else {
                hi = j;
                break;
            }
        }
        (lo, hi)
    }

    /// Minimal `j` in `[1, total]` with `count(j) >= total` — the same `j`
    /// the reference bisection finds, since any search that keeps
    /// `count(lo) < total <= count(hi)` converges on it.
    ///
    /// `count` grows nearly linearly in `j` (slope `W / w_max`), so each
    /// step guesses `lo + ceil((total - c_lo)(hi - lo) / (c_hi - c_lo))`,
    /// clamped into the open bracket. Before `hi = total` is counted the
    /// secant runs through `(0, 0)` and `(lo, c_lo)` instead, and with
    /// neither anchor the step bisects. A guess that fails to halve the
    /// bracket makes the next step a bisection: at most
    /// `2 * ceil(log2(hi - lo))` count passes per search.
    fn find_j(&mut self, total: u64) -> u64 {
        let want = u128::from(total);
        let (mut lo, mut hi) = self.bracket(total);
        let mut bisect = false;
        while hi - lo > 1 {
            let width = hi - lo;
            let c_lo = if lo == 0 { 0 } else { self.counts[&lo] };
            let secant = match self.counts.get(&hi) {
                Some(&c_hi) => Some((c_hi - c_lo, width)),
                None if lo > 0 => Some((c_lo, lo)),
                None => None,
            };
            let guess = match secant {
                Some((rise, run)) if !bisect => {
                    let step = ((want - c_lo) * u128::from(run)).div_ceil(rise);
                    lo + step.min(u128::from(width - 1)) as u64
                }
                _ => lo + width / 2,
            };
            if self.count(guess) >= want {
                hi = guess;
            } else {
                lo = guess;
            }
            bisect = !bisect && hi - lo > width.div_ceil(2);
        }
        hi
    }

    /// The family member with exactly `total` tickets; see
    /// [`Family::assignment_with_total`] for the semantics — outputs are
    /// bit-identical, including the deterministic border rule.
    pub fn advance_to(&mut self, total: u64) -> Result<TicketAssignment, CoreError> {
        let family = self.family;
        let n = family.weights.len();
        if total == 0 {
            return Ok(TicketAssignment::new(vec![0; n]));
        }
        let j = self.find_j(total);
        let count_left = if j == 1 { 0 } else { self.count(j - 1) };
        debug_assert!(count_left < u128::from(total));
        let rank = (u128::from(total) - count_left) as usize;

        let same_interval = self.interval.as_ref().is_some_and(|iv| iv.j == j);
        if same_interval {
            self.reused += 1;
        } else {
            self.build_interval(j);
        }
        let iv = self.interval.as_mut().expect("interval built above");
        debug_assert!(iv.cands.len() >= rank, "interval must contain the target crossing");
        let star = iv.cands[rank - 1];

        // Border block: candidates sharing the star's value are contiguous
        // in the (value, party) sort.
        let mut lb = rank - 1;
        while lb > 0 && iv.cands[lb - 1].cmp_value(&star) == Ordering::Equal {
            lb -= 1;
        }
        let mut ub = rank;
        while ub < iv.cands.len() && iv.cands[ub].cmp_value(&star) == Ordering::Equal {
            ub += 1;
        }

        // Undo the previous total's border drops, splice the base by rank
        // delta, then apply this total's drops: O(Δ + border).
        for &p in &iv.dropped {
            self.tickets[p] += 1;
        }
        iv.dropped.clear();
        if ub > iv.applied {
            for c in &iv.cands[iv.applied..ub] {
                self.tickets[c.party] += 1;
            }
        } else {
            for c in &iv.cands[ub..iv.applied] {
                self.tickets[c.party] -= 1;
            }
        }
        iv.applied = ub;

        let overshoot = ub - rank;
        if overshoot > 0 {
            let mut border: Vec<&Crossing> = iv.cands[lb..ub].iter().collect();
            debug_assert!(border.len() > overshoot, "overshoot bounded by border size");
            border.sort_by(|x, y| x.w.cmp(&y.w).then(y.party.cmp(&x.party)));
            for c in border.into_iter().take(overshoot) {
                self.tickets[c.party] -= 1;
                iv.dropped.push(c.party);
            }
        }
        Ok(TicketAssignment::from_parts(self.tickets.clone(), u128::from(total)))
    }

    /// Materializes the interval `j`: left-boundary tickets for every party
    /// plus the sorted in-interval candidates (parties whose next crossing
    /// falls inside the interval). An interval holds at most one crossing
    /// per party, so the next crossing is inside iff the right edge counts
    /// one ticket more than the left.
    fn build_interval(&mut self, j: u64) {
        let family = self.family;
        let left_eval = (j > 1).then(|| family.grid_eval(j - 1));
        let right_eval = family.grid_eval(j);
        self.tickets.clear();
        self.tickets.resize(family.weights.len(), 0);
        let mut cands = Vec::new();
        for ((party, w), t) in family.weights.iter().zip(self.tickets.iter_mut()) {
            let left = left_eval.as_ref().map_or(0, |eval| eval.tickets(w));
            *t = u64::try_from(left).expect("validated by Family::new envelope");
            if right_eval.tickets(w) > left {
                let a = (left + 1) * family.cd - family.cn;
                cands.push(Crossing { a, party, w });
            }
        }
        cands.sort_by(|x, y| x.cmp_value(y).then(x.party.cmp(&y.party)));
        self.interval = Some(IntervalState { j, cands, applied: 0, dropped: Vec::new() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn family_assignments(ws: &[u64], c: Ratio, up_to: u64) -> Vec<Vec<u64>> {
        let weights = Weights::new(ws.to_vec()).unwrap();
        let fam = Family::new(&weights, c, up_to).unwrap();
        (0..=up_to).map(|t| fam.assignment_with_total(t).unwrap().into_inner()).collect()
    }

    #[test]
    fn single_party_gets_all_tickets() {
        let weights = Weights::new(vec![42]).unwrap();
        let fam = Family::new(&weights, Ratio::of(1, 3), 10).unwrap();
        for t in 0..=10u64 {
            let a = fam.assignment_with_total(t).unwrap();
            assert_eq!(a.as_slice(), &[t]);
        }
    }

    #[test]
    fn equal_weights_round_robin_totals() {
        // Three equal parties: totals distribute as evenly as the family
        // allows; every total is hit exactly.
        let all = family_assignments(&[5, 5, 5], Ratio::of(1, 3), 9);
        for (t, a) in all.iter().enumerate() {
            assert_eq!(a.iter().sum::<u64>(), t as u64);
            let max = *a.iter().max().unwrap();
            let min = *a.iter().min().unwrap();
            assert!(max - min <= 1, "equal weights must stay balanced: {a:?}");
        }
    }

    #[test]
    fn proportionality_for_skewed_weights() {
        // Weight 90 vs 10: at total 10 the big party holds roughly 9 tickets.
        let weights = Weights::new(vec![90, 10]).unwrap();
        let fam = Family::new(&weights, Ratio::of(1, 2), 20).unwrap();
        let a = fam.assignment_with_total(10).unwrap();
        assert_eq!(a.total(), 10);
        assert!(a.get(0) >= 8, "big party should dominate: {:?}", a.as_slice());
    }

    #[test]
    fn zero_weight_parties_never_get_tickets() {
        let weights = Weights::new(vec![0, 7, 0, 3]).unwrap();
        let fam = Family::new(&weights, Ratio::of(1, 4), 12).unwrap();
        for t in 0..=12u64 {
            let a = fam.assignment_with_total(t).unwrap();
            assert_eq!(a.get(0), 0);
            assert_eq!(a.get(2), 0);
            assert_eq!(a.total(), u128::from(t));
        }
    }

    #[test]
    fn consecutive_totals_differ_by_one_ticket() {
        // The family is totally ordered: member T+1 dominates member T
        // pointwise and adds exactly one ticket.
        let all = family_assignments(&[13, 7, 29, 1, 50], Ratio::of(2, 5), 40);
        for t in 1..all.len() {
            let (prev, cur) = (&all[t - 1], &all[t]);
            let mut diff_total = 0i64;
            for i in 0..prev.len() {
                assert!(
                    cur[i] + 1 >= prev[i],
                    "party {i} lost more than one ticket between T={} and T={t}",
                    t - 1
                );
                diff_total += cur[i] as i64 - prev[i] as i64;
            }
            assert_eq!(diff_total, 1);
        }
    }

    #[test]
    fn invalid_constant_rejected() {
        let weights = Weights::new(vec![1, 2]).unwrap();
        assert!(Family::new(&weights, Ratio::ONE, 10).is_err());
        assert!(Family::new(&weights, Ratio::ZERO, 10).is_err());
    }

    #[test]
    fn huge_weights_stay_exact() {
        // Weights near u64::MAX with a modest total must not overflow and
        // must remain proportional.
        let weights = Weights::new(vec![u64::MAX, u64::MAX / 2]).unwrap();
        let fam = Family::new(&weights, Ratio::of(1, 3), 30).unwrap();
        let a = fam.assignment_with_total(30).unwrap();
        assert_eq!(a.total(), 30);
        // Proportions ~ 2:1.
        assert!(a.get(0) >= 19 && a.get(0) <= 21, "{:?}", a.as_slice());
    }

    #[test]
    fn matches_naive_scale_sweep() {
        // Reference: brute-force the crossing multiset with exact fractions
        // over small weights and compare the induced assignment.
        let ws = [3u64, 5, 2];
        let c = Ratio::of(1, 3);
        let weights = Weights::new(ws.to_vec()).unwrap();
        let fam = Family::new(&weights, c, 15).unwrap();
        // Enumerate crossings (m - c)/w as exact fractions, sorted.
        let mut crossings: Vec<(u128, u128, usize)> = Vec::new(); // (num, den, party)
        for (i, &w) in ws.iter().enumerate() {
            for m in 1u128..=20 {
                crossings.push((m * 3 - 1, 3 * u128::from(w), i));
            }
        }
        crossings.sort_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)).then(a.2.cmp(&b.2)));
        for total in 1u64..=15 {
            let got = fam.assignment_with_total(total).unwrap();
            // Naive: count per party among the first `total` crossings,
            // resolving value-ties with the same deterministic rule (drop
            // from lightest weight, then highest index).
            let boundary = &crossings[usize::try_from(total).unwrap() - 1];
            let mut naive = vec![0u64; ws.len()];
            for c in &crossings {
                let cmp = (c.0 * boundary.1).cmp(&(boundary.0 * c.1));
                if cmp == Ordering::Less {
                    naive[c.2] += 1;
                }
            }
            let base: u64 = naive.iter().sum();
            let mut border: Vec<usize> = crossings
                .iter()
                .filter(|c| (c.0 * boundary.1) == (boundary.0 * c.1))
                .map(|c| c.2)
                .collect();
            // keep = total - base tickets go to border parties by rule:
            // heaviest weight first, lower index first.
            border.sort_by(|&x, &y| ws[y].cmp(&ws[x]).then(x.cmp(&y)));
            for &p in border.iter().take(usize::try_from(total - base).unwrap()) {
                naive[p] += 1;
            }
            assert_eq!(got.as_slice(), naive.as_slice(), "total={total}");
        }
    }

    #[test]
    fn cursor_matches_from_scratch_on_fixed_vectors() {
        let weights = Weights::new(vec![13, 7, 29, 1, 50, 50, 3]).unwrap();
        let fam = Family::new(&weights, Ratio::of(2, 5), 60).unwrap();
        let mut cursor = FamilyCursor::new(&fam);
        // A bisection-shaped probe order: far jumps, then a tight cluster.
        for t in [30u64, 15, 45, 52, 48, 50, 49, 0, 49, 1, 60] {
            let inc = cursor.advance_to(t).unwrap();
            let scratch = fam.assignment_with_total(t).unwrap();
            assert_eq!(inc, scratch, "total={t}");
        }
        assert!(cursor.reused() > 0, "clustered probes must hit the splice path");

        // The small shapes the solver routes through the cursor: the stake
        // of the 24 heaviest Tezos bakers (second lightest moved to id 1),
        // the Aptos replica, a single party, and zero-weight parties — under
        // the WR(1/3, 1/2) family, bracket ends `1` and `bound` included.
        // (`swiper-weights` owns the replica formula but depends on this
        // crate, so the test restates it.)
        let zipf_replica = |n: usize, exponent: f64, total: u128| -> Vec<u64> {
            let raw: Vec<u128> = (1..=n)
                .map(|i| ((1u64 << 40) as f64 / (i as f64).powf(exponent)).round() as u128)
                .collect();
            let sum: u128 = raw.iter().sum();
            raw.iter().map(|&w| u64::try_from((w * total / sum).max(1)).unwrap()).collect()
        };
        let mut tezos_top = zipf_replica(382, 0.95, 676_000_000)[..24].to_vec();
        let second_lightest = tezos_top.remove(22);
        tezos_top.insert(1, second_lightest);
        for ws in [
            tezos_top,
            zipf_replica(104, 0.45, 847_000_000),
            vec![42],
            vec![0, 13, 0, 0, 7, 29, 0, 1, 50, 50, 0],
        ] {
            let weights = Weights::new(ws).unwrap();
            let params =
                crate::WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
            let bound = params.ticket_bound(weights.len() as u64).unwrap().max(1);
            let fam = Family::new(&weights, params.family_constant(), bound).unwrap();
            let mut cursor = FamilyCursor::new(&fam);
            let mid = bound / 2;
            for t in [mid, bound / 4, mid + mid / 2, mid + 2, mid + 1, 0, mid + 1, 1, bound] {
                let t = t.min(bound);
                let inc = cursor.advance_to(t).unwrap();
                let scratch = fam.assignment_with_total(t).unwrap();
                assert_eq!(inc, scratch, "n={} total={t}", weights.len());
            }
        }
    }

    /// Probes a fresh cursor over the WR(1/3, 1/2) family of `ws` in the
    /// order a bisection towards a flip at 3/8 of the bound visits them,
    /// then at its landing. Asserts every member equals the reference and
    /// every grid search stays within `2 * ceil(log2 width) + 1` count
    /// passes of the bracket the memo proved before it; returns the total
    /// count passes.
    fn bisection_probe_passes(ws: Vec<u64>) -> u64 {
        let weights = Weights::new(ws).unwrap();
        let params = crate::WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let bound = params.ticket_bound(weights.len() as u64).unwrap().max(1);
        let fam = Family::new(&weights, params.family_constant(), bound).unwrap();
        let mut cursor = FamilyCursor::new(&fam);
        let flip = bound * 3 / 8;
        let (mut lo, mut hi) = (0u64, bound);
        let mut probes = Vec::new();
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            probes.push(mid);
            if mid > flip {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        probes.push(hi);
        for t in probes {
            let (blo, bhi) = cursor.bracket(t);
            let width = bhi - blo;
            let budget = if width <= 1 {
                0
            } else {
                2 * u64::from(u64::BITS - (width - 1).leading_zeros()) + 1
            };
            let before = cursor.grid_counts();
            let inc = cursor.advance_to(t).unwrap();
            let passes = cursor.grid_counts() - before;
            assert!(
                passes <= budget,
                "n={} total={t}: {passes} passes, width {width}",
                weights.len()
            );
            assert_eq!(
                inc,
                fam.assignment_with_total(t).unwrap(),
                "n={} total={t}",
                weights.len()
            );
        }
        cursor.grid_counts()
    }

    /// The grid search on the shapes that stress it: a step in `count(j)`
    /// (one whale over unit dust lets 20 000 parties in at once, just
    /// below the first probe's target — unguarded interpolation crawls
    /// towards it for 229 passes), `count(j) = j` below the bound (a whale
    /// too heavy for the dust to ever count), exact linearity (equal
    /// weights), two slopes, zero weights, one party, and the whale-skewed
    /// population the solver benchmarks. Plain bisection spends 88 passes
    /// on the last.
    #[test]
    fn interpolated_grid_search_matches_reference_within_budget() {
        let dust = |whale: u64| {
            let mut ws = vec![1u64; 20_000];
            ws.push(whale);
            ws
        };
        let mut two_level = vec![10u64; 10_000];
        two_level.extend([1_000u64; 100]);
        let zeros: Vec<u64> = (0..3_000u64).map(|i| if i % 3 == 0 { 0 } else { i }).collect();
        for ws in [dust(19_950), dust(1 << 30), vec![7u64; 5_000], two_level, zeros, vec![42]] {
            bisection_probe_passes(ws);
        }
        let passes =
            bisection_probe_passes(Weights::whale_skewed(100_000, 1).as_slice().to_vec());
        assert!(passes <= 50, "whale-skewed 1e5 grid search took {passes} count passes");
    }

    /// Release-only: a cold WR solve over 10⁶ whale-skewed parties, every
    /// probe's cursor member compared with the reference materialization.
    #[test]
    #[ignore = "too slow for the debug-mode run; ci.yml runs it with --release"]
    fn cursor_matches_reference_on_1e6_whales() {
        use crate::oracle::{CheckParams, FamilyMember, FullOracle, ValidityOracle, Verdict};
        use crate::solver::SolveStats;

        struct AgainstReference<'f, 'a> {
            family: &'f Family<'a>,
            inner: FullOracle,
            compared: u64,
        }

        impl ValidityOracle for AgainstReference<'_, '_> {
            fn check(
                &mut self,
                member: &FamilyMember<'_>,
                params: &CheckParams,
            ) -> Result<Verdict, CoreError> {
                let reference = self.family.assignment_with_total(member.total)?;
                assert_eq!(member.tickets, &reference, "total {}", member.total);
                self.compared += 1;
                self.inner.check(member, params)
            }

            fn take_stats(&mut self) -> SolveStats {
                self.inner.take_stats()
            }
        }

        let w = Weights::whale_skewed(1_000_000, 1);
        let wr = crate::WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let bound = wr.ticket_bound(w.len() as u64).unwrap().max(1);
        let family = Family::new(&w, wr.family_constant(), bound).unwrap();
        let mut oracle =
            AgainstReference { family: &family, inner: FullOracle::new(), compared: 0 };
        let sol = crate::Swiper::new().solve_restriction_with(&mut oracle, &w, &wr).unwrap();
        let total = u64::try_from(sol.total_tickets()).unwrap();
        assert_eq!(sol.assignment, family.assignment_with_total(total).unwrap());
        assert_eq!(oracle.compared, sol.stats.candidates_checked);
    }

    #[test]
    fn reciprocal_division_is_exact_on_edges() {
        for den in [2u64, 3, 1 << 37, 1 << 63, u64::MAX - 1, u64::MAX] {
            let eval = TicketsEval::narrow(1, 0, den);
            for x in [0, den - 1, den, den.saturating_add(1), u64::MAX - 1, u64::MAX] {
                assert_eq!(eval.tickets(x), u128::from(x / den), "{x} / {den}");
            }
        }
    }

    proptest! {
        /// The reciprocal path is pinned against plain `/` over the whole
        /// `Narrow` envelope (`den >= 2`, `a * w + add <= u64::MAX`), so
        /// the reference materialization sharing `TicketsEval` stays an
        /// independent check. Shifts spread operands over every magnitude;
        /// each case also hits the exact multiple at or below `x` and the
        /// value just below it.
        #[test]
        fn reciprocal_division_matches_plain_division(
            (a, w, add, den) in (any::<u64>(), any::<u64>(), any::<u64>(), 2u64..),
            (a_shift, w_shift, add_shift, den_shift) in (0u32..64, 0u32..64, 0u32..64, 0u32..63),
        ) {
            let (a, w, den) = (a >> a_shift, w >> w_shift, (den >> den_shift).max(2));
            prop_assume!(a.checked_mul(w).is_some());
            let add = (add >> add_shift).min(u64::MAX - a * w);
            let x = a * w + add;
            prop_assert_eq!(TicketsEval::narrow(a, add, den).tickets(w), u128::from(x / den));
            let divide = TicketsEval::narrow(1, 0, den);
            let floor = x - x % den;
            for y in [floor, floor.saturating_sub(1)] {
                prop_assert_eq!(divide.tickets(y), u128::from(y / den), "{} / {}", y, den);
            }
        }

        /// Satellite pin: the cursor's spliced advance is bit-identical to
        /// the from-scratch materialization, under random weight vectors,
        /// random probe orders, and epoch churn (fresh weights -> fresh
        /// family -> fresh cursor, as the solver rebuilds per epoch).
        #[test]
        fn cursor_matches_from_scratch(
            ws in proptest::collection::vec(0u64..1_000_000, 1..24),
            mut churned in proptest::collection::vec(0u64..1_000_000, 1..24),
            probes in proptest::collection::vec(0u64..80, 1..12),
            cn in 1u128..20,
        ) {
            prop_assume!(ws.iter().any(|&w| w > 0));
            let c = Ratio::of(cn, 20);
            prop_assume!(c.is_proper());
            // Epoch churn delta: perturb a prefix of the old vector.
            for (dst, &src) in churned.iter_mut().zip(&ws) {
                *dst = (*dst).wrapping_add(src) % 1_000_000;
            }
            prop_assume!(churned.iter().any(|&w| w > 0));
            for vec in [ws, churned] {
                let weights = Weights::new(vec).unwrap();
                let fam = Family::new(&weights, c, 80).unwrap();
                let mut cursor = FamilyCursor::new(&fam);
                for &t in &probes {
                    let inc = cursor.advance_to(t).unwrap();
                    let scratch = fam.assignment_with_total(t).unwrap();
                    prop_assert_eq!(inc, scratch, "total={}", t);
                }
            }
        }

        #[test]
        fn totals_always_exact(
            ws in proptest::collection::vec(0u64..1_000_000, 1..20),
            total in 0u64..100,
            cn in 1u128..20,
        ) {
            prop_assume!(ws.iter().any(|&w| w > 0));
            let weights = Weights::new(ws).unwrap();
            let c = Ratio::of(cn, 20);
            prop_assume!(c.is_proper());
            let fam = Family::new(&weights, c, 100).unwrap();
            let a = fam.assignment_with_total(total).unwrap();
            prop_assert_eq!(a.total(), u128::from(total));
        }

        #[test]
        fn monotone_in_total(
            ws in proptest::collection::vec(1u64..10_000, 2..12),
            c_num in 1u128..8,
        ) {
            let weights = Weights::new(ws).unwrap();
            let c = Ratio::of(c_num, 8);
            prop_assume!(c.is_proper());
            let fam = Family::new(&weights, c, 40).unwrap();
            let mut prev = fam.assignment_with_total(0).unwrap();
            for t in 1..=40u64 {
                let cur = fam.assignment_with_total(t).unwrap();
                let gained: i128 = cur
                    .as_slice()
                    .iter()
                    .zip(prev.as_slice())
                    .map(|(&c, &p)| i128::from(c) - i128::from(p))
                    .sum();
                prop_assert_eq!(gained, 1);
                prev = cur;
            }
        }
    }
}
