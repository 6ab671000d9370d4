//! Knapsack machinery for validating ticket assignments.
//!
//! Verifying a Weight Restriction solution asks: can the adversary pick a
//! subset `S` with `w(S)` below the weight capacity whose tickets `t(S)`
//! reach the ticket threshold? That is a 0/1 knapsack with profits `t_i`
//! and weights `w_i` (paper, Section 3.1 — "verifying a solution ... is
//! equivalent to solving a particular instance of Knapsack").
//!
//! Three evaluators are provided, mirroring the paper's design:
//!
//! * [`max_profit_dp`] — exact "dynamic programming by profits"
//!   (Kellerer–Pferschy–Pisinger, Lemma 2.3.2), `O(n * profit_cap)`;
//!   [`max_profit_dp_floor`] is the same table behind the Dembo–Hammer
//!   variable reduction the book describes, for callers that bring a floor.
//! * [`fractional_upper_bound_reaches`] — the Dantzig LP bound, a
//!   *conservative* test: it can claim a reachable target unreachable-not,
//!   i.e. it never claims "safe" when unsafe (no false "valid").
//! * [`greedy_lower_bound_reaches`] — a feasible greedy packing, a *liberal*
//!   test: when greedy reaches the target the target is certainly reachable.
//!
//! Combining the two bounds yields the three-valued [`quick_test`] used by
//! Swiper's full mode to dodge most DP invocations.
//!
//! ## DP kernel
//!
//! The DP is organised for whale-skewed, large-`n` populations:
//!
//! * **One class sort.** Items heavier than the weight horizon are dropped
//!   outright, zero-weight profit is banked, and the rest are sorted once
//!   by (profit, weight); every later stage reads that order.
//! * **Lagrangian core.** A caller that only cares about optima of at
//!   least some `floor` — the solver's oracle always is: it reaches the DP
//!   only when the Dantzig bound exceeds its target by a few tickets —
//!   hands [`max_profit_dp_floor`] that floor and the Dantzig break ratio
//!   `λ`. Every subset loses, against the Lagrangian bound `U(λ)`, a sum of
//!   non-negative per-item terms, so reaching the floor leaves only `U(λ)
//!   − floor` to lose: inside each profit class all but a narrow window of
//!   items around the break weight are forced in or out
//!   (`fix_outside_core`), and the table is filled over the window items
//!   alone, for the profit and weight still open. Floor 0 fixes nothing
//!   and is what the exact verifiers, certificate probes and test
//!   references keep, so they stay an independent check of the reduced
//!   kernel.
//! * **Dominated-item prefilter.** Items whose profit saturates the cap
//!   collapse to the single lightest such item, and each distinct profit
//!   class `p` is reduced to its `ceil(cap / p)` lightest members — any
//!   subset with profit at most `cap` uses at most that many items of class
//!   `p`, and an exchange argument lets it use the lightest ones.
//!   Million-item inputs shrink to `O(cap log cap)` items before the table
//!   is touched.
//! * **Flat min-weight-per-profit inner loop.** The per-item update is a
//!   flat saturating min-fold over the table — no data-dependent `INF` skip
//!   branch — bounded by the current reach.
//! * **Monotone-frontier pruning.** `dp[p]` = min weight to reach profit
//!   `>= p`, so a state that weighs no less than some higher-profit state
//!   can never matter. Every `PRUNE_STRIDE` items (and before any read)
//!   dominated states are cleared, leaving a strictly increasing
//!   profit/weight frontier.
//! * **Profit-class Monge decomposition.** When the surviving items bunch
//!   into few distinct profit values — the shape of every at-scale ticket
//!   vector, where hundreds of thousands of parties hold one or two
//!   tickets — each class collapses to its convex lightest-`k`
//!   prefix-weight curve, and folding a class is a min-plus convolution
//!   with a convex sequence: a Monge minimization solved by monotone
//!   divide-and-conquer in `O(cap log cap)` per class instead of
//!   `O(items · cap)` overall. This is what holds a full (floor 0) table
//!   at a million parties to tens of milliseconds.

use crate::wide::cmp_mul;
use std::cmp::Ordering;

/// Outcome of the quasilinear [`quick_test`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuickOutcome {
    /// The LP bound is below the target: the target is certainly
    /// unreachable (assignment certainly valid).
    CertainlyUnreachable,
    /// A greedy packing reaches the target: certainly reachable
    /// (assignment certainly invalid).
    CertainlyReachable,
    /// The bounds disagree; an exact method must decide.
    Uncertain,
}

/// A knapsack view over parties: profit `t_i` (tickets), weight `w_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Profit (tickets of the party).
    pub profit: u64,
    /// Weight of the party.
    pub weight: u64,
}

const INF: u128 = u128::MAX;

/// Items between frontier prunes in the DP fill. Pruning costs `O(cap)`, so
/// amortize it across a block of items while still keeping the table mostly
/// frontier-shaped for the reach bound.
const PRUNE_STRIDE: usize = 128;

/// The multiplier `λ = 0` as a `(profit, weight)` ratio: prices every item
/// at its full profit, so together with floor 0 it fixes nothing.
pub const NO_MULTIPLIER: (u64, u64) = (0, 1);

/// Reusable buffers for [`max_profit_dp_floor`] and [`max_profit_dp_probe`]:
/// callers running many DP invocations (the solver's binary search, batch
/// sweeps) keep one scratch alive and allocate nothing per call.
#[derive(Debug, Default, Clone)]
pub struct DpScratch {
    dp: Vec<u128>,
    /// The items the table is filled over, in class order: ascending
    /// profit, lightest first inside a profit class.
    kept: Vec<Item>,
    class: ClassBufs,
}

/// Working buffers of [`class_dp`].
#[derive(Debug, Default, Clone)]
struct ClassBufs {
    loose: Vec<Item>,
    f: Vec<u128>,
    g: Vec<u128>,
    wpfx: Vec<u128>,
}

/// Exact min-weight frontier produced by [`max_profit_dp_probe`].
///
/// `frontier` lists `(total profit, min weight)` pairs, strictly increasing
/// in both coordinates, including the trivial `(free profit, 0)` entry. For
/// any `q <= profit_cap`, the minimum weight of a subset with profit
/// `>= q` is the weight of the first entry with profit `>= q`; if no such
/// entry exists, that minimum exceeds `prune_limit`. Entries are exact as
/// long as their weight is at most `prune_limit`.
#[derive(Debug, Clone, Default)]
pub struct DpProbe {
    /// Exact maximum total profit within `capacity`, saturated at
    /// `profit_cap` — identical to [`max_profit_dp`].
    pub best: u64,
    /// The pruned min-weight frontier (see type docs).
    pub frontier: Vec<(u64, u128)>,
    /// Weight horizon the table is exact to (`capacity + slack`).
    pub prune_limit: u128,
}

/// Exact maximum achievable profit, saturated at `profit_cap`, over subsets
/// whose weight is at most `capacity`.
///
/// Dynamic programming by profits: `dp[p]` = minimum weight needed to reach
/// profit at least `p` (profits saturate at `profit_cap`). Runtime
/// `O(n * profit_cap)` worst case, heavily reduced by the prefilter and
/// frontier pruning described in the module docs; memory `O(profit_cap)`.
/// This is [`max_profit_dp_floor`] at floor 0 — the full table, which is
/// what the exact verifiers and the test references want to stay.
///
/// # Panics
///
/// Panics if `profit_cap` does not fit in `usize` (bounded by
/// [`crate::problems::MAX_TICKET_BOUND`] upstream).
pub fn max_profit_dp(items: &[Item], capacity: u128, profit_cap: u64) -> u64 {
    max_profit_dp_floor(
        &mut DpScratch::default(),
        items,
        capacity,
        profit_cap,
        0,
        NO_MULTIPLIER,
    )
    .expect("every optimum reaches floor 0")
}

/// [`max_profit_dp`] for a caller that only cares about optima of at least
/// `floor`: `Some(best)` with the exact saturated optimum when it reaches
/// `min(floor, profit_cap)`, `None` when it falls short. `floor ==
/// profit_cap` is the decision form ("is `profit_cap` reachable?").
///
/// The floor is what lets the Lagrangian core stage (module docs) decide
/// most parties before the table is touched; `lambda` is the multiplier it
/// prices items at, as a `(profit, weight)` ratio. Any ratio is sound — the
/// Dantzig break ratio ([`SortedItems::break_ratio`]) is the tight one.
///
/// # Panics
///
/// Panics if `profit_cap` does not fit in `usize`.
pub fn max_profit_dp_floor(
    scratch: &mut DpScratch,
    items: &[Item],
    capacity: u128,
    profit_cap: u64,
    floor: u64,
    lambda: (u64, u64),
) -> Option<u64> {
    let floor = floor.min(profit_cap);
    let (banked, used) = fill(scratch, items, capacity, profit_cap, floor, lambda, true)?;
    let room = capacity - used;
    // Highest frontier state within the room left (`dp[0] == 0` always is).
    let best = banked + scratch.dp.iter().rposition(|&w| w <= room).unwrap_or(0) as u64;
    (best >= floor).then_some(best)
}

/// Certificate-grade variant of [`max_profit_dp`]: additionally returns the
/// exact min-weight frontier, explored out to `capacity + slack` so callers
/// can measure *how far* each profit level is from feasibility (the margin
/// behind delta-stable verdict certificates in [`crate::oracle`]). The
/// frontier must be exact *below* the target too, so this stays at floor 0.
///
/// # Panics
///
/// Panics if `profit_cap` does not fit in `usize`.
pub fn max_profit_dp_probe(
    scratch: &mut DpScratch,
    items: &[Item],
    capacity: u128,
    profit_cap: u64,
    slack: u128,
) -> DpProbe {
    let prune_limit = capacity.saturating_add(slack);
    let (free, used) = fill(scratch, items, prune_limit, profit_cap, 0, NO_MULTIPLIER, false)
        .expect("every optimum reaches floor 0");
    debug_assert_eq!(used, 0, "floor 0 forces nothing in");
    let mut frontier = Vec::new();
    let mut best = 0u64;
    for (p, &w) in scratch.dp.iter().enumerate() {
        if w != INF {
            frontier.push((p as u64 + free, w));
            if w <= capacity {
                best = p as u64;
            }
        }
    }
    DpProbe { best: best + free, frontier, prune_limit }
}

/// Every stage in front of the table, then the table: split out free
/// profit, sort into class order once, fix what the floor decides
/// ([`fix_outside_core`]), drop dominated items ([`reduce_items`]), fill.
///
/// Returns `(banked, used)`: the profit every subset the table describes
/// already holds (zero-weight items plus the parties forced in) and the
/// weight the forced parties use. `scratch.dp` then has `profit_cap -
/// banked + 1` states over the remaining items, exact for weights up to
/// `horizon - used` (a one-state table when `banked` alone saturates
/// `profit_cap`). `None`: no subset within `horizon` reaches `floor`.
fn fill(
    scratch: &mut DpScratch,
    items: &[Item],
    horizon: u128,
    profit_cap: u64,
    floor: u64,
    lambda: (u64, u64),
    stop_early: bool,
) -> Option<(u64, u128)> {
    let states = usize::try_from(profit_cap).expect("profit cap fits usize");
    let DpScratch { dp, kept, class } = scratch;
    dp.clear();
    dp.push(0);
    let free = split_free(kept, items, horizon);
    if free >= u128::from(profit_cap) {
        return Some((profit_cap, 0));
    }
    kept.sort_unstable_by_key(|it| (it.profit, it.weight));
    let (forced, used) =
        fix_outside_core(kept, horizon, floor.saturating_sub(free as u64), lambda)?;
    let banked = free + forced;
    if banked >= u128::from(profit_cap) {
        return Some((profit_cap, used));
    }
    let banked = banked as u64;
    let cap = states - banked as usize;
    reduce_items(kept, cap);
    let room = horizon - used;
    let stop_at = stop_early.then_some(room);
    dp.resize(cap + 1, INF);
    if !class_dp(dp, kept, class, room, stop_at) {
        dp_fill(dp, kept, room, stop_at);
    }
    Some((banked, used))
}

/// Splits out free profit (zero-weight items) and keeps only items that can
/// participate: positive profit, weight within the horizon. Returns the
/// (unsaturated) free profit.
fn split_free(kept: &mut Vec<Item>, items: &[Item], prune_limit: u128) -> u128 {
    let mut free: u128 = 0;
    kept.clear();
    for it in items {
        if it.profit == 0 || u128::from(it.weight) > prune_limit {
            continue;
        }
        if it.weight == 0 {
            free += u128::from(it.profit);
        } else {
            kept.push(*it);
        }
    }
    free
}

/// Length of the profit class at the head of class-ordered `items`.
fn class_len(items: &[Item]) -> usize {
    items.first().map_or(0, |head| items.partition_point(|it| it.profit == head.profit))
}

/// The Lagrangian core stage (Dembo–Hammer variable fixing, sharpened per
/// profit class): removes from class-ordered `kept` every item that a
/// subset within `capacity` reaching profit `floor` must take — returning
/// their `(profit, weight)` totals — or cannot take, leaving the *core*
/// the table has to decide. `None`: no such subset exists.
///
/// With `λ = lp/lw`, every `x` within capacity has `p·x = U(λ) − loss(x)`,
/// where `U(λ) = λ·C + Σ max(0, p_i − λ·w_i)` and `loss(x) = λ·(C − w·x) +
/// Σ_{taken} max(0, λ·w_i − p_i) + Σ_{left} max(0, p_i − λ·w_i)` is a sum
/// of non-negative terms; reaching `floor` therefore bounds each of them,
/// and any sum of them, by `slack = U(λ) − floor`. Inside a profit class a
/// solution may be assumed to take the `k` lightest items (swapping a taken
/// item for a lighter one of equal profit keeps the profit and the fit).
/// Reduced profits `p − λ·w_j` fall along the class, so with `k*` the
/// number of positive ones the class's loss is the sum of the `|k − k*|`
/// reduced profits between `k` and `k*`, monotone in `|k − k*|`: the `k`
/// with loss within the slack form a window around `k*`, everything
/// lighter than the window is forced in, everything heavier forced out.
/// Items priced at exactly zero add no loss and stay in the window.
///
/// All arithmetic is exact, in `i128` scaled by `lw`; operands that leave
/// that envelope (or `lw == 0`) fix nothing. So does floor 0 under
/// [`NO_MULTIPLIER`]: the slack is then the whole profit sum.
fn fix_outside_core(
    kept: &mut Vec<Item>,
    capacity: u128,
    floor: u64,
    (lp, lw): (u64, u64),
) -> Option<(u128, u128)> {
    let (lp, lw) = (i128::from(lp), i128::from(lw));
    // `Some` proves every product below in range, so `reduced` may use
    // plain arithmetic afterwards.
    let checked_reduced = |it: &Item| {
        i128::from(it.profit).checked_mul(lw)?.checked_sub(lp.checked_mul(it.weight.into())?)
    };
    let reduced = |it: &Item| i128::from(it.profit) * lw - lp * i128::from(it.weight);
    let scaled_slack = || {
        let mut upper = lp.checked_mul(i128::try_from(capacity).ok()?)?;
        for it in kept.iter() {
            upper = upper.checked_add(checked_reduced(it)?.max(0))?;
        }
        upper.checked_sub(i128::from(floor).checked_mul(lw)?)
    };
    let Some(slack) = (lw > 0).then(scaled_slack).flatten() else {
        return Some((0, 0));
    };
    if slack < 0 {
        return None; // even the relaxation stays below the floor
    }
    let (mut forced_profit, mut forced_weight) = (0u128, 0u128);
    let (mut out, mut start) = (0usize, 0usize);
    while start < kept.len() {
        let class = &kept[start..start + class_len(&kept[start..])];
        // `k*`, then the window's two ends, each walked outwards while the
        // loss accumulated on that side stays within the slack.
        let gain = class.partition_point(|it| reduced(it) > 0);
        let (mut lo, mut left) = (gain, slack);
        while lo > 0 && reduced(&class[lo - 1]) <= left {
            left -= reduced(&class[lo - 1]);
            lo -= 1;
        }
        let (mut hi, mut left) = (gain, slack);
        while hi < class.len() && -reduced(&class[hi]) <= left {
            left += reduced(&class[hi]);
            hi += 1;
        }
        for it in &class[..lo] {
            forced_profit += u128::from(it.profit);
            forced_weight += u128::from(it.weight);
        }
        let end = start + class.len();
        kept.copy_within(start + lo..start + hi, out);
        out += hi - lo;
        start = end;
    }
    kept.truncate(out);
    (forced_weight <= capacity).then_some((forced_profit, forced_weight))
}

/// The dominated-item prefilter over class-ordered `kept`: items whose
/// profit alone saturates the table collapse to the single lightest one
/// (no subset needs two), and every other profit class `p` keeps its
/// `ceil(cap / p)` lightest members. Exact for the cap-saturated DP: any
/// subset with (saturated) profit `q <= cap` takes at most `ceil(cap / p)`
/// items of class `p`, and swapping any member for a lighter same-profit
/// item never hurts.
fn reduce_items(kept: &mut Vec<Item>, cap: usize) {
    let cap64 = cap as u64;
    let saturating = kept.partition_point(|it| it.profit < cap64);
    let lightest = kept[saturating..].iter().copied().min_by_key(|it| it.weight);
    kept.truncate(saturating);
    let (mut out, mut start) = (0usize, 0usize);
    while start < kept.len() {
        let len = class_len(&kept[start..]);
        let keep =
            usize::try_from(cap64.div_ceil(kept[start].profit)).map_or(len, |k| k.min(len));
        kept.copy_within(start..start + keep, out);
        out += keep;
        start += len;
    }
    kept.truncate(out);
    kept.extend(lightest);
}

/// Clears states dominated by an equal-or-lighter state of higher profit;
/// afterwards finite entries are strictly increasing in weight. Returns the
/// highest finite index.
fn prune_frontier(dp: &mut [u128]) -> usize {
    let mut best = INF;
    let mut reach = 0usize;
    for q in (1..dp.len()).rev() {
        if dp[q] < best {
            best = dp[q];
            if reach == 0 {
                reach = q;
            }
        } else {
            dp[q] = INF;
        }
    }
    reach
}

/// Sequential DP fill over `items` into `dp` (which must be a pruned,
/// partially filled table with `dp[0] == 0`). States heavier than
/// `prune_limit` are discarded; with `stop_at` set, the fill returns as soon
/// as the saturated state is reachable within that budget (sound when the
/// caller only needs `best`, not the full frontier). The table is left
/// frontier-pruned.
fn dp_fill(dp: &mut [u128], items: &[Item], prune_limit: u128, stop_at: Option<u128>) {
    let cap = dp.len() - 1;
    let mut reach = prune_frontier(dp);
    for (k, it) in items.iter().enumerate() {
        let p = usize::try_from(it.profit).unwrap_or(cap).min(cap);
        let w = u128::from(it.weight);
        // Flat min-fold: saturating_add keeps INF states INF, and the
        // prune-limit compare rejects them without a dedicated branch.
        for q in (0..=reach).rev() {
            let nw = dp[q].saturating_add(w);
            let np = (q + p).min(cap);
            if nw <= prune_limit && nw < dp[np] {
                dp[np] = nw;
            }
        }
        // Upper bound on the new reach; tightened at each prune.
        reach = (reach + p).min(cap);
        if let Some(budget) = stop_at {
            if dp[cap] <= budget {
                break;
            }
        }
        if k % PRUNE_STRIDE == PRUNE_STRIDE - 1 {
            reach = prune_frontier(dp);
        }
    }
    prune_frontier(dp);
}

/// Minimum total items before the profit-class decomposition is worth its
/// convolutions.
const CLASS_MIN_ITEMS: usize = 4096;
/// The class path engages only when items bunch: at least this many items
/// per distinct profit value on average. Ticket vectors at scale are
/// exactly this shape (hundreds of thousands of 1- and 2-ticket parties,
/// a handful of whale values); all-distinct profit sets stay on the
/// per-item fill, where the class machinery would only add overhead.
const CLASS_MIN_BUNCHING: usize = 8;
/// Profit classes below this size are folded item-by-item instead of
/// through the Monge minimization — a k-item class costs `O(k * reach)`
/// per-item but `O(cap log cap)` through the convolution, so tiny classes
/// (whales are usually singletons) stay on the cheap side.
const CLASS_MONGE_MIN: usize = 32;
/// Stand-in for `INF` inside the Monge minimization. The monotone-argmin
/// property needs *exact* (non-saturating) arithmetic, so unreachable
/// states enter as this finite sentinel: far above any real weight sum
/// (which the caller's `prune_limit` bounds), far below overflow even
/// when two sentinels add.
const CLASS_INF: u128 = 1 << 110;

/// Profit-class decomposition of the DP fill (Axiotis–Tzamos style): items
/// sharing a profit `p` collapse into one *convex* step curve — any subset
/// taking `k` of them takes the `k` lightest, whose prefix-weight
/// increments are nondecreasing — and folding a whole class into the table
/// is then a min-plus convolution with a convex sequence. Such a
/// convolution is a Monge minimization (the arbitrary-table terms cancel
/// from the quadrangle inequality; convexity of the curve is exactly what
/// remains), so its argmin is monotone and divide-and-conquer evaluates it
/// in `O((cap/p + k) log)` per residue class mod `p` — `O(cap log cap)`
/// per profit class instead of `O(k * cap)`. Million-party ticket vectors
/// bunch a few hundred thousand items into a few hundred classes, turning
/// the full-table DP from seconds into tens of milliseconds.
///
/// `items` must be in class order and already through [`reduce_items`] for
/// this table's cap (so a class of [`CLASS_MONGE_MIN`] items or more has a
/// profit below the cap). Returns `false` (table untouched) when the input
/// does not bunch enough to pay for the convolutions; the caller falls
/// back to the per-item fill. When it runs, the resulting frontier-pruned
/// table is identical to the sequential fill's: both compute the exact
/// min-weight-per-profit function over the same subset space, and the
/// final domination prune is path-independent.
fn class_dp(
    dp: &mut [u128],
    items: &[Item],
    bufs: &mut ClassBufs,
    prune_limit: u128,
    stop_at: Option<u128>,
) -> bool {
    let cap = dp.len() - 1;
    if items.len() < CLASS_MIN_ITEMS || cap == 0 || prune_limit >= CLASS_INF {
        return false;
    }
    let distinct = 1 + items.windows(2).filter(|w| w[0].profit != w[1].profit).count();
    if distinct.saturating_mul(CLASS_MIN_BUNCHING) > items.len() {
        return false;
    }
    // Small classes fold item-by-item at the end; `dp_fill` also performs
    // the final domination prune.
    let ClassBufs { loose, f, g, wpfx } = bufs;
    loose.clear();
    let mut budget_met = false;
    let mut rest = items;
    while !rest.is_empty() {
        let (class, tail) = rest.split_at(class_len(rest));
        rest = tail;
        if class.len() < CLASS_MONGE_MIN {
            loose.extend_from_slice(class);
            continue;
        }
        // Prefix weights beyond the prune horizon can never participate.
        wpfx.clear();
        wpfx.push(0);
        let mut acc: u128 = 0;
        for it in class {
            acc += u128::from(it.weight);
            if acc > prune_limit {
                break;
            }
            wpfx.push(acc);
        }
        let k_max = wpfx.len() - 1;
        if k_max == 0 {
            continue; // even one item of this class overshoots the horizon
        }
        let p_us = class[0].profit as usize; // p < cap <= usize::MAX
        debug_assert!(p_us < cap, "class not reduced for this cap");
        let mut sat_min = INF;
        for r in 0..p_us {
            // Exact-profit entries of this residue: q = r + p*t < cap.
            let len_f = (cap - r).div_ceil(p_us);
            f.clear();
            f.extend((0..len_f).map(|t| {
                let v = dp[r + t * p_us];
                if v == INF {
                    CLASS_INF
                } else {
                    v
                }
            }));
            // Outputs j carry profit r + p*j; j >= len_f overshoots into
            // the saturated bucket.
            let out_len = len_f + k_max;
            g.clear();
            g.resize(out_len, CLASS_INF);
            monge_fill(f, wpfx, g, 0, out_len, 0, len_f - 1);
            for (j, &v) in g.iter().enumerate().take(len_f) {
                dp[r + j * p_us] = if v >= CLASS_INF || v > prune_limit { INF } else { v };
            }
            for &v in &g[len_f..] {
                if v < sat_min {
                    sat_min = v;
                }
            }
        }
        if sat_min <= prune_limit && sat_min < dp[cap] {
            dp[cap] = sat_min;
        }
        if let Some(budget) = stop_at {
            if dp[cap] <= budget {
                budget_met = true;
                break;
            }
        }
    }
    if budget_met {
        prune_frontier(dp);
    } else {
        dp_fill(dp, loose, prune_limit, stop_at);
    }
    true
}

/// Divide-and-conquer Monge minimization for one residue class:
/// `g[j] = min over i of f[i] + wpfx[j - i]` with `i` restricted to
/// `[j - k_max, j] ∩ [0, f.len() - 1]`. Convexity of `wpfx` makes the
/// leftmost argmin monotone in `j` (the quadrangle inequality cancels the
/// `f` terms exactly — which is why unreachable states are the finite
/// [`CLASS_INF`] rather than a saturating `INF`), so each level of the
/// recursion scans a window bounded by its parent's argmin.
fn monge_fill(
    f: &[u128],
    wpfx: &[u128],
    g: &mut [u128],
    jlo: usize,
    jhi: usize,
    ilo: usize,
    ihi: usize,
) {
    if jlo >= jhi {
        return;
    }
    let jm = jlo + (jhi - jlo) / 2;
    let k_max = wpfx.len() - 1;
    let lo = ilo.max(jm.saturating_sub(k_max));
    let hi = ihi.min(jm).min(f.len() - 1);
    let mut best = u128::MAX;
    let mut best_i = lo;
    for i in lo..=hi {
        let c = f[i] + wpfx[jm - i];
        if c < best {
            best = c;
            best_i = i;
        }
    }
    g[jm] = best;
    monge_fill(f, wpfx, g, jlo, jm, ilo, best_i);
    monge_fill(f, wpfx, g, jm + 1, jhi, best_i, ihi);
}

/// A positive-profit, positive-weight party in the ratio-sorted view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    profit: u64,
    weight: u64,
    party: u32,
}

/// Total order of the sorted view: ratio descending with exact
/// cross-multiplied comparisons, denser profit first on ties, then party.
/// Because equal ratio plus equal profit forces equal weight, this is
/// exactly the order the original stable ratio sort produced (ties kept
/// input order, and entries are pushed in party order) — which is what lets
/// [`SortedItems::splice`] target positions by binary search.
fn cmp_entry(a: &Entry, b: &Entry) -> Ordering {
    match cmp_mul(
        u128::from(b.profit),
        u128::from(a.weight),
        u128::from(a.profit),
        u128::from(b.weight),
    ) {
        Ordering::Equal => b.profit.cmp(&a.profit).then(a.party.cmp(&b.party)),
        ord => ord,
    }
}

/// A ratio-sorted item view with prefix sums, shared by every bound query
/// against the same candidate assignment.
///
/// The solver's oracle evaluates up to four bound queries per candidate
/// (two capacities × two bounds for Weight Separation); building this once
/// per candidate replaces one sort *per query* with one sort per candidate,
/// and [`SortedItems::rebuild`] recycles the allocations across the whole
/// binary search. Between epochs, [`SortedItems::splice`] updates only the
/// changed parties instead of re-sorting from scratch. Answers are
/// bit-identical to the one-shot free functions below, which delegate here.
#[derive(Debug, Default, Clone)]
pub struct SortedItems {
    /// Profit of zero-weight items: free under any capacity.
    free: u128,
    /// Positive-weight, positive-profit entries in descending ratio order.
    entries: Vec<Entry>,
    /// `prefix_profit[i]` = total profit of `entries[..i]`.
    prefix_profit: Vec<u128>,
    /// `prefix_weight[i]` = total weight of `entries[..i]` (strictly
    /// increasing: zero weights were split out).
    prefix_weight: Vec<u128>,
    /// Splice scratch, recycled across epochs.
    scratch: Vec<Entry>,
    splice_ins: Vec<Entry>,
    splice_rem: Vec<usize>,
}

impl SortedItems {
    /// Builds the sorted view for `items`.
    #[must_use]
    pub fn new(items: &[Item]) -> Self {
        let mut this = SortedItems::default();
        this.rebuild(items);
        this
    }

    /// Rebuilds the view in place for a new candidate, reusing allocations.
    ///
    /// # Panics
    ///
    /// Panics if `items.len()` exceeds `u32::MAX` parties.
    pub fn rebuild(&mut self, items: &[Item]) {
        self.free = 0;
        self.entries.clear();
        for (i, it) in items.iter().enumerate() {
            if it.profit == 0 {
                continue; // never helps
            }
            if it.weight == 0 {
                self.free += u128::from(it.profit);
            } else {
                let party = u32::try_from(i).expect("party count fits u32");
                self.entries.push(Entry { profit: it.profit, weight: it.weight, party });
            }
        }
        self.entries.sort_unstable_by(cmp_entry);
        self.rebuild_prefixes();
    }

    /// Incremental [`SortedItems::rebuild`]: `old_items` must be exactly the
    /// slice this view was last built from, and `changed` lists the indices
    /// where `new_items` may differ. The result is bit-identical to
    /// `rebuild(new_items)` at `O(n + k log n)` instead of `O(n log n)`.
    ///
    /// # Panics
    ///
    /// Panics if a changed old entry is not present in the view (the view
    /// was not built from `old_items`).
    pub fn splice(&mut self, old_items: &[Item], new_items: &[Item], changed: &[usize]) {
        debug_assert_eq!(old_items.len(), new_items.len());
        self.splice_rem.clear();
        self.splice_ins.clear();
        for &i in changed {
            let (old, new) = (old_items[i], new_items[i]);
            if old == new {
                continue;
            }
            let party = u32::try_from(i).expect("party count fits u32");
            if old.profit > 0 {
                if old.weight == 0 {
                    self.free -= u128::from(old.profit);
                } else {
                    let e = Entry { profit: old.profit, weight: old.weight, party };
                    let pos = self
                        .entries
                        .binary_search_by(|x| cmp_entry(x, &e))
                        .expect("changed old entry present in view");
                    self.splice_rem.push(pos);
                }
            }
            if new.profit > 0 {
                if new.weight == 0 {
                    self.free += u128::from(new.profit);
                } else {
                    self.splice_ins.push(Entry {
                        profit: new.profit,
                        weight: new.weight,
                        party,
                    });
                }
            }
        }
        self.splice_rem.sort_unstable();
        self.splice_ins.sort_unstable_by(cmp_entry);
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        out.reserve(self.entries.len() + self.splice_ins.len());
        let mut rem = self.splice_rem.iter().copied().peekable();
        let mut ins = self.splice_ins.iter().copied().peekable();
        for (idx, &e) in self.entries.iter().enumerate() {
            if rem.peek() == Some(&idx) {
                rem.next();
                continue;
            }
            while ins.peek().is_some_and(|x| cmp_entry(x, &e) == Ordering::Less) {
                out.push(ins.next().expect("peeked"));
            }
            out.push(e);
        }
        out.extend(ins);
        std::mem::swap(&mut self.entries, &mut out);
        self.scratch = out;
        self.rebuild_prefixes();
    }

    fn rebuild_prefixes(&mut self) {
        self.prefix_profit.clear();
        self.prefix_weight.clear();
        self.prefix_profit.push(0);
        self.prefix_weight.push(0);
        let (mut ap, mut aw) = (0u128, 0u128);
        for e in &self.entries {
            ap += u128::from(e.profit);
            aw += u128::from(e.weight);
            self.prefix_profit.push(ap);
            self.prefix_weight.push(aw);
        }
    }

    /// The best profit/weight ratio among positive-weight items, as a
    /// `(profit, weight)` pair — the slope bound certificates need.
    #[must_use]
    pub fn densest(&self) -> Option<(u64, u64)> {
        self.entries.first().map(|e| (e.profit, e.weight))
    }

    /// The Dantzig break ratio under `capacity`, as the `(profit, weight)`
    /// of the first item in ratio order that no longer fits: the multiplier
    /// at which the Lagrangian bound equals the LP bound, hence the tightest
    /// `lambda` for [`max_profit_dp_floor`]. [`NO_MULTIPLIER`] when
    /// everything fits.
    #[must_use]
    pub fn break_ratio(&self, capacity: u128) -> (u64, u64) {
        self.entries.get(self.cut(capacity)).map_or(NO_MULTIPLIER, |e| (e.profit, e.weight))
    }

    /// Number of leading sorted items whose cumulative weight fits within
    /// `capacity` — the Dantzig split point.
    fn cut(&self, capacity: u128) -> usize {
        // prefix_weight is strictly increasing with prefix_weight[0] = 0.
        self.prefix_weight.partition_point(|&w| w <= capacity) - 1
    }

    /// Whether the Dantzig fractional upper bound reaches `target` under
    /// `capacity` (`false` certifies the target unreachable).
    #[must_use]
    pub fn fractional_upper_bound_reaches(&self, capacity: u128, target: u64) -> bool {
        if target == 0 {
            return true;
        }
        if self.free >= u128::from(target) {
            return true;
        }
        let target = u128::from(target) - self.free;
        let cut = self.cut(capacity);
        let acc_profit = self.prefix_profit[cut];
        if acc_profit >= target {
            return true;
        }
        let Some(it) = self.entries.get(cut) else {
            return false; // everything fits and still falls short
        };
        // Fractional part of the breaking item: remaining capacity.
        let rem = capacity - self.prefix_weight[cut];
        // UB reaches target iff acc + profit*rem/w >= target
        //  iff profit*rem >= (target-acc)*w   (exact, widened).
        let need = target - acc_profit;
        cmp_mul(u128::from(it.profit), rem, need, u128::from(it.weight)) != Ordering::Less
    }

    /// Floor of the Dantzig fractional upper bound on the maximum profit
    /// under `capacity`.
    #[must_use]
    pub fn fractional_upper_bound_floor(&self, capacity: u128) -> u128 {
        let cut = self.cut(capacity);
        let acc_profit = self.free + self.prefix_profit[cut];
        let Some(it) = self.entries.get(cut) else {
            return acc_profit;
        };
        let rem = capacity - self.prefix_weight[cut];
        // floor(profit * rem / w); operands fit comfortably via widening.
        let frac =
            crate::wide::mul_div_floor(u128::from(it.profit), rem, u128::from(it.weight))
                .expect("profit * rem fits 256 bits and quotient <= profit");
        acc_profit + frac
    }

    /// Whether the greedy feasible packing (ratio-greedy plus best single
    /// item) reaches `target` under `capacity` (`true` certifies it
    /// reachable).
    #[must_use]
    pub fn greedy_lower_bound_reaches(&self, capacity: u128, target: u64) -> bool {
        self.greedy_witness(capacity, target).is_some()
    }

    /// Like [`SortedItems::greedy_lower_bound_reaches`], but returns the
    /// witness packing `(profit, weight)` — free profit included — when the
    /// target is reached. `Some` exactly when the boolean test is `true`;
    /// the pair is a concrete subset certificates can carry forward.
    #[must_use]
    pub fn greedy_witness(&self, capacity: u128, target: u64) -> Option<(u128, u128)> {
        if u128::from(target) <= self.free {
            return Some((self.free, 0));
        }
        let target = u128::from(target) - self.free;
        let mut acc_profit: u128 = 0;
        let mut acc_weight: u128 = 0;
        for e in &self.entries {
            let w = u128::from(e.weight);
            if acc_weight + w <= capacity {
                acc_weight += w;
                acc_profit += u128::from(e.profit);
                if acc_profit >= target {
                    return Some((self.free + acc_profit, acc_weight));
                }
            }
        }
        // Best single item is another classic feasible witness.
        self.entries
            .iter()
            .find(|e| u128::from(e.weight) <= capacity && u128::from(e.profit) >= target)
            .map(|e| (self.free + u128::from(e.profit), u128::from(e.weight)))
    }

    /// Profit of the greedy feasible packing under `capacity` — a certified
    /// lower bound on the optimum.
    #[must_use]
    pub fn greedy_lower_bound(&self, capacity: u128) -> u128 {
        let mut acc_profit: u128 = 0;
        let mut acc_weight: u128 = 0;
        for e in &self.entries {
            let w = u128::from(e.weight);
            if acc_weight + w <= capacity {
                acc_weight += w;
                acc_profit += u128::from(e.profit);
            }
        }
        let best_single = self
            .entries
            .iter()
            .filter(|e| u128::from(e.weight) <= capacity)
            .map(|e| u128::from(e.profit))
            .max()
            .unwrap_or(0);
        self.free + acc_profit.max(best_single)
    }

    /// The paper's three-valued quasilinear test combining both bounds.
    #[must_use]
    pub fn quick_test(&self, capacity: u128, target: u64) -> QuickOutcome {
        if !self.fractional_upper_bound_reaches(capacity, target) {
            QuickOutcome::CertainlyUnreachable
        } else if self.greedy_lower_bound_reaches(capacity, target) {
            QuickOutcome::CertainlyReachable
        } else {
            QuickOutcome::Uncertain
        }
    }
}

/// Whether the Dantzig fractional (LP-relaxation) upper bound reaches
/// `target` under `capacity`.
///
/// Returns `false` only when **no** subset within capacity can reach
/// `target` (the bound dominates the integral optimum), so `false` certifies
/// validity; `true` is inconclusive.
pub fn fractional_upper_bound_reaches(items: &[Item], capacity: u128, target: u64) -> bool {
    SortedItems::new(items).fractional_upper_bound_reaches(capacity, target)
}

/// Whether a simple feasible packing (ratio-greedy plus the best single
/// item) reaches `target` under `capacity`.
///
/// Returns `true` only when the target is certainly reachable (the packing
/// is itself a witness subset), so `true` certifies invalidity; `false` is
/// inconclusive.
pub fn greedy_lower_bound_reaches(items: &[Item], capacity: u128, target: u64) -> bool {
    SortedItems::new(items).greedy_lower_bound_reaches(capacity, target)
}

/// Floor of the Dantzig fractional (LP-relaxation) upper bound on the
/// maximum profit under `capacity`. Since the integral optimum is an integer
/// no greater than the LP bound, it is no greater than this floor either.
pub fn fractional_upper_bound_floor(items: &[Item], capacity: u128) -> u128 {
    SortedItems::new(items).fractional_upper_bound_floor(capacity)
}

/// Profit of a feasible greedy packing (ratio-greedy, improved by the best
/// single item) under `capacity` — a certified lower bound on the optimum.
pub fn greedy_lower_bound(items: &[Item], capacity: u128) -> u128 {
    SortedItems::new(items).greedy_lower_bound(capacity)
}

/// The paper's three-valued quasilinear test combining both bounds.
pub fn quick_test(items: &[Item], capacity: u128, target: u64) -> QuickOutcome {
    SortedItems::new(items).quick_test(capacity, target)
}

/// Exhaustive reference: maximum profit within capacity over all `2^n`
/// subsets. Only for tests and the tiny-`n` exact solver.
///
/// # Panics
///
/// Panics if `items.len() >= 64`.
pub fn max_profit_brute_force(items: &[Item], capacity: u128) -> u128 {
    assert!(items.len() < 64, "brute force limited to < 64 items");
    let n = items.len();
    let mut best = 0u128;
    for mask in 0u64..(1u64 << n) {
        let mut w: u128 = 0;
        let mut p: u128 = 0;
        for (i, it) in items.iter().enumerate() {
            if mask >> i & 1 == 1 {
                w += u128::from(it.weight);
                p += u128::from(it.profit);
            }
        }
        if w <= capacity && p > best {
            best = p;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::Family;
    use crate::problems::WeightRestriction;
    use crate::ratio::Ratio;
    use crate::solver::Swiper;
    use crate::verify::{items_of, strict_capacity, ticket_target};
    use crate::weights::Weights;
    use proptest::prelude::*;

    fn items(pairs: &[(u64, u64)]) -> Vec<Item> {
        pairs.iter().map(|&(profit, weight)| Item { profit, weight }).collect()
    }

    /// The pre-rework scalar DP, kept verbatim as a differential reference:
    /// no prefilter, no frontier pruning, no chunking.
    fn reference_scalar_dp(items: &[Item], capacity: u128, profit_cap: u64) -> u64 {
        let mut free: u128 = 0;
        let mut rest: Vec<Item> = Vec::new();
        for it in items {
            if it.profit == 0 {
                continue;
            }
            if it.weight == 0 {
                free += u128::from(it.profit);
            } else {
                rest.push(*it);
            }
        }
        let free = free.min(u128::from(profit_cap)) as u64;
        if free >= profit_cap {
            return profit_cap;
        }
        let cap = usize::try_from(profit_cap).expect("profit cap fits usize");
        let mut dp = vec![INF; cap + 1];
        dp[0] = 0;
        let mut best_reach: usize = 0;
        for it in &rest {
            let p = usize::try_from(it.profit).expect("profit fits usize").min(cap);
            let w = u128::from(it.weight);
            let hi = best_reach.min(cap);
            for q in (0..=hi).rev() {
                if dp[q] == INF {
                    continue;
                }
                let np = (q + p).min(cap);
                let nw = dp[q].saturating_add(w);
                if nw < dp[np] {
                    dp[np] = nw;
                    if np > best_reach {
                        best_reach = np;
                    }
                }
            }
        }
        let mut best = 0u64;
        for (p, &w) in dp.iter().enumerate() {
            if w <= capacity {
                best = best.max(p as u64);
            }
        }
        (best + free).min(profit_cap)
    }

    #[test]
    fn dp_simple() {
        let its = items(&[(6, 5), (5, 4), (5, 4)]);
        // capacity 8: best is 5+5 = 10
        assert_eq!(max_profit_dp(&its, 8, 16), 10);
        // capacity 5: best is 6
        assert_eq!(max_profit_dp(&its, 5, 16), 6);
        // capacity 3: nothing fits
        assert_eq!(max_profit_dp(&its, 3, 16), 0);
    }

    #[test]
    fn dp_saturates_at_cap() {
        let its = items(&[(10, 1), (10, 1)]);
        assert_eq!(max_profit_dp(&its, 2, 15), 15);
        assert_eq!(max_profit_dp(&its, 2, 100), 20);
    }

    #[test]
    fn dp_zero_weight_items_are_free() {
        let its = items(&[(3, 0), (4, 10)]);
        assert_eq!(max_profit_dp(&its, 0, 100), 3);
        assert_eq!(max_profit_dp(&its, 10, 100), 7);
    }

    #[test]
    fn dp_probe_frontier_is_exact_and_monotone() {
        let its = items(&[(6, 5), (5, 4), (5, 4), (3, 0)]);
        let mut scratch = DpScratch::default();
        let probe = max_profit_dp_probe(&mut scratch, &its, 8, 100, 1000);
        assert_eq!(probe.best, max_profit_dp(&its, 8, 100));
        // Strictly increasing in both coordinates, starting at the free
        // profit with zero weight.
        assert_eq!(probe.frontier[0], (3, 0));
        for w in probe.frontier.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1, "frontier not monotone: {w:?}");
        }
        // Each frontier weight is the brute-force min weight for its profit.
        for &(q, wmin) in &probe.frontier {
            let feasible = max_profit_brute_force(&its, wmin) >= u128::from(q);
            let below = wmin == 0 || max_profit_brute_force(&its, wmin - 1) < u128::from(q);
            assert!(feasible && below, "({q}, {wmin}) is not a tight frontier point");
        }
    }

    /// Deterministic xorshift stream for the bulk class-path tests.
    fn xorshift_stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Class order plus the dominated-item prefilter for `cap`: the state
    /// [`fill`] hands its items to [`class_dp`] / [`dp_fill`] in.
    fn class_ordered(mut its: Vec<Item>, cap: usize) -> Vec<Item> {
        its.sort_unstable_by_key(|it| (it.profit, it.weight));
        reduce_items(&mut its, cap);
        its
    }

    #[test]
    fn class_dp_matches_sequential_fill() {
        // A bunched instance that stays above the gate once reduced:
        // profits drawn from a small set (plus a saturating whale), weights
        // spread out. The class decomposition must engage and produce the
        // identical frontier-pruned table as one sequential per-item fill.
        let mut next = xorshift_stream(0x9E3779B97F4A7C15);
        let profits = [1u64, 1, 1, 2, 2, 3, 5, 9, 120];
        let mut its: Vec<Item> = (0..6000)
            .map(|_| Item {
                profit: profits[(next() % profits.len() as u64) as usize],
                weight: next() % 900 + 1,
            })
            .collect();
        its.push(Item { profit: 100_000, weight: 333 }); // saturates cap
        let cap = 4000usize;
        let its = class_ordered(its, cap);
        for (prune_limit, stop_at) in
            [(300_000u128, None), (300_000, Some(60_000u128)), (1_000_000, None)]
        {
            let mut seq = vec![INF; cap + 1];
            seq[0] = 0;
            dp_fill(&mut seq, &its, prune_limit, stop_at);
            let mut cls = vec![INF; cap + 1];
            cls[0] = 0;
            assert!(
                class_dp(&mut cls, &its, &mut ClassBufs::default(), prune_limit, stop_at),
                "bunched instance must take the class path"
            );
            if let Some(budget) = stop_at {
                // Early-exit tables are partial; only the saturated
                // bucket's budget verdict is contractual.
                assert_eq!(
                    seq[cap] <= budget,
                    cls[cap] <= budget,
                    "budget verdict diverged at prune_limit {prune_limit}"
                );
            } else {
                assert_eq!(seq, cls, "tables diverged at prune_limit {prune_limit}");
            }
        }
    }

    #[test]
    fn class_dp_declines_unbunched_input() {
        // All-distinct profits: the class path must decline and leave the
        // table untouched.
        let its: Vec<Item> =
            (0..5000).map(|i| Item { profit: i + 1, weight: i % 97 + 1 }).collect();
        let its = class_ordered(its, 6000);
        let mut dp = vec![INF; 6001];
        dp[0] = 0;
        assert!(!class_dp(&mut dp, &its, &mut ClassBufs::default(), 10_000, None));
        assert!(dp[1..].iter().all(|&w| w == INF));
    }

    #[test]
    fn splice_matches_rebuild() {
        let old = items(&[(5, 4), (0, 7), (3, 0), (9, 2), (5, 4), (1, 9)]);
        let mut new = old.clone();
        new[0] = Item { profit: 2, weight: 2 }; // ratio change
        new[2] = Item { profit: 0, weight: 5 }; // free profit removed
        new[5] = Item { profit: 4, weight: 0 }; // becomes free
        let mut spliced = SortedItems::new(&old);
        spliced.splice(&old, &new, &[0, 2, 5, 4]); // includes an unchanged index
        let rebuilt = SortedItems::new(&new);
        assert_eq!(spliced.free, rebuilt.free);
        assert_eq!(spliced.entries, rebuilt.entries);
        assert_eq!(spliced.prefix_profit, rebuilt.prefix_profit);
        assert_eq!(spliced.prefix_weight, rebuilt.prefix_weight);
    }

    #[test]
    fn greedy_witness_agrees_with_reaches_and_is_feasible() {
        let its = items(&[(6, 5), (5, 4), (5, 4), (2, 0)]);
        let sorted = SortedItems::new(&its);
        for target in 0u64..=20 {
            for cap in [0u128, 3, 8, 13] {
                match sorted.greedy_witness(cap, target) {
                    Some((p, w)) => {
                        assert!(sorted.greedy_lower_bound_reaches(cap, target));
                        assert!(p >= u128::from(target) && w <= cap);
                        assert!(max_profit_brute_force(&its, w) >= p, "witness not real");
                    }
                    None => assert!(!sorted.greedy_lower_bound_reaches(cap, target)),
                }
            }
        }
    }

    #[test]
    fn fractional_bound_dominates() {
        let its = items(&[(6, 5), (5, 4), (5, 4)]);
        // Exact max at capacity 8 is 10; LP bound is >= 10, so target 10 must
        // be "reachable" per the bound.
        assert!(fractional_upper_bound_reaches(&its, 8, 10));
        // target 12: LP bound = 5+5+6*0/...: capacity 8 fills 4+4, frac 0 of
        // item (6,5)? rem=0 -> bound 10 < 12.
        assert!(!fractional_upper_bound_reaches(&its, 8, 12));
    }

    #[test]
    fn greedy_is_feasible_witness() {
        let its = items(&[(6, 5), (5, 4), (5, 4)]);
        assert!(greedy_lower_bound_reaches(&its, 8, 10));
        assert!(!greedy_lower_bound_reaches(&its, 8, 11));
    }

    #[test]
    fn quick_test_three_values() {
        // A classic LP-gap instance: items (2,3),(2,3) capacity 5 target 4.
        // LP bound: 2 + 2*(2/3) = 10/3 >= 4? No -> actually 10/3 < 4, so
        // certainly unreachable.
        let its = items(&[(2, 3), (2, 3)]);
        assert_eq!(quick_test(&its, 5, 4), QuickOutcome::CertainlyUnreachable);
        // target 2: greedy takes one item -> reachable.
        assert_eq!(quick_test(&its, 5, 2), QuickOutcome::CertainlyReachable);
        // Uncertain gap: items (3,4),(3,4),(4,5), capacity 8, target 7.
        // greedy by ratio: (4,5) first (0.8 > 0.75): takes (4,5) w=5, then
        // (3,4) doesn't fit (9>8) -> greedy profit 4; best single 4 < 7.
        // LP: 4 + 3*(3/4) = 6.25 < 7 -> unreachable. Need a true gap case:
        // items (5,5),(4,4),(4,4) cap 8 target 8: LP: ratio 1 all:
        // 4+4=8 -> reaches; greedy 4+4=8 reaches -> CertainlyReachable.
        // Try (5,6),(5,6),(2,6) cap 12 target 10: LP: 5+5=10 reach.
        // greedy: 5+5=10 -> reachable. Hard to be uncertain with few items;
        // construct: (10,10),(9,6),(9,6) cap 12 target 18:
        //   ratios: 1.5,1.5,1.0 -> greedy: 9+9=18 -> reachable.
        // (7,7),(6,5),(6,5) cap 10 target 12: greedy: ratio 1.2: 6+6=12 ok.
        // Make greedy fail: (6,5),(6,5),(7,6) cap 11, target 13:
        //   ratios 1.2,1.2,1.1667: greedy 6+6=12 (w=10), (7,6) no fit; best
        //   single 7. LB says no. LP: 12 + 7*(1/6) = 13.1667 >= 13 -> maybe.
        //   Exact: 6+7=13 (w=11) -> actually reachable!
        let its = items(&[(6, 5), (6, 5), (7, 6)]);
        assert_eq!(quick_test(&its, 11, 13), QuickOutcome::Uncertain);
        assert_eq!(max_profit_dp(&its, 11, 100), 13);
    }

    #[test]
    fn brute_force_reference() {
        let its = items(&[(6, 5), (5, 4), (5, 4)]);
        assert_eq!(max_profit_brute_force(&its, 8), 10);
        assert_eq!(max_profit_brute_force(&its, 13), 16);
        assert_eq!(max_profit_brute_force(&its, 0), 0);
    }

    // --- Lagrangian core stage --------------------------------------------
    //
    // Verified by sabotage (each edit reverted afterwards), in
    // `fix_outside_core`: narrowing every window by one item — `lo + 1`
    // forced in, or `hi - 1` kept — fails all four tests below; `<` for
    // `<=` in the heavy-side walk (zero-priced ties forced out) fails
    // `core_stage_edges` and `floor_dp_matches_reference_and_brute_force`;
    // `<` for `<=` in the light-side walk (an item forced in whose loss
    // uses the slack up exactly) fails `core_stage_edges`.

    /// `(items, capacity, target)` of every member of a whale-skewed
    /// population's ticket family, within `span` totals of the solver's
    /// landing, that the quick test leaves `Uncertain` — the only inputs
    /// the solver ever hands the DP.
    fn uncertain_members(
        n: usize,
        seed: u64,
        p: &WeightRestriction,
        span: u64,
    ) -> Vec<(Vec<Item>, u128, u64)> {
        let w = Weights::whale_skewed(n, seed);
        let landing = Swiper::new().solve_restriction(&w, p).unwrap().total_tickets() as u64;
        let bound = p.ticket_bound(n as u64).unwrap();
        let family = Family::new(&w, p.family_constant(), bound).unwrap();
        let capacity = strict_capacity(p.alpha_w(), w.total()).unwrap();
        (landing.saturating_sub(span)..=(landing + span).min(bound))
            .filter_map(|total| {
                let its = items_of(&w, &family.assignment_with_total(total).unwrap());
                let target = ticket_target(p.alpha_n(), total.into()).unwrap() as u64;
                (quick_test(&its, capacity, target) == QuickOutcome::Uncertain)
                    .then_some((its, capacity, target))
            })
            .collect()
    }

    #[test]
    fn floor_dp_matches_full_table_on_near_flip_family_members() {
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let wq = WeightRestriction::new(Ratio::of(2, 3), Ratio::of(3, 4)).unwrap();
        let mut scratch = DpScratch::default();
        for (n, seed, p) in [(5_000, 1, wr), (20_000, 1, wr), (10_000, 1, wq)] {
            let members = uncertain_members(n, seed, &p, 40);
            assert!(!members.is_empty(), "no uncertain probe near the landing at n = {n}");
            for (its, capacity, target) in members {
                let total: u64 = its.iter().map(|it| it.profit).sum();
                let best = max_profit_dp(&its, capacity, total);
                let sorted = SortedItems::new(&its);
                let tight = sorted.break_ratio(capacity);
                let mut floor_dp = |cap, floor, lambda| {
                    max_profit_dp_floor(&mut scratch, &its, capacity, cap, floor, lambda)
                };
                // Decision form, as the restriction branch asks it: the
                // tight multiplier, then looser ones.
                let loose = [sorted.densest().unwrap(), (tight.0, tight.1.saturating_mul(2))];
                for lambda in [tight].into_iter().chain(loose) {
                    assert_eq!(
                        floor_dp(target, target, lambda).is_some(),
                        best >= target,
                        "decision at n = {n}, target {target}, lambda {lambda:?}"
                    );
                }
                // Optimum form, as the separation branch asks it: the quick
                // test's own bounds as floor and ceiling, then the tightest
                // floor there is, then one past it.
                let lb = sorted.greedy_lower_bound(capacity) as u64;
                let ub = sorted.fractional_upper_bound_floor(capacity) as u64;
                assert_eq!(floor_dp(ub, lb, tight), Some(best), "optimum at n = {n}");
                assert_eq!(floor_dp(ub, best, tight), Some(best));
                if best < ub {
                    assert_eq!(floor_dp(ub, best + 1, tight), None);
                }
            }
        }
    }

    #[test]
    fn core_stage_edges() {
        let mut scratch = DpScratch::default();
        let mut floor_dp = |its: &[Item], capacity: u128, cap, floor| {
            let lambda = SortedItems::new(its).break_ratio(capacity);
            max_profit_dp_floor(&mut scratch, its, capacity, cap, floor, lambda)
        };
        // Slack 0 with every item priced at exactly zero (all ratios tie at
        // lambda = 1, LP bound = capacity = floor): only the zero-loss items
        // can fill the capacity exactly, so they must stay in the window.
        let ties = items(&[(3, 3), (3, 3), (5, 5)]);
        assert_eq!(floor_dp(&ties, 8, 8, 8), Some(8));
        assert_eq!(floor_dp(&ties, 7, 7, 7), None, "no subset weighs exactly 7");
        // Slack below one ticket: the first (6,5) is forced in, the second
        // and the zero-priced (7,6) are the core. Exact optimum 13.
        let gap = items(&[(6, 5), (6, 5), (7, 6)]);
        assert_eq!(floor_dp(&gap, 11, 13, 13), Some(13));
        assert_eq!(floor_dp(&gap, 11, 20, 12), Some(13));
        // Floor above the optimum: refuted by the bound alone (LP 13.17 <
        // 14), and by the table where the bound cannot ((2,3),(2,3): LP
        // 3.33 admits 3, the optimum is 2).
        assert_eq!(floor_dp(&gap, 11, 14, 14), None);
        assert_eq!(floor_dp(&items(&[(2, 3), (2, 3)]), 5, 3, 3), None);
        // Zero-weight profit comes off the floor before anything is priced.
        let free = items(&[(3, 0), (6, 5), (6, 5), (7, 6)]);
        assert_eq!(floor_dp(&free, 11, 16, 16), Some(16));
        assert_eq!(floor_dp(&free, 11, 17, 17), None);
        assert_eq!(floor_dp(&free, 0, 3, 3), Some(3));
        // Every item fits: no break item, lambda 0, everything forced in.
        assert_eq!(SortedItems::new(&gap).break_ratio(16), NO_MULTIPLIER);
        assert_eq!(floor_dp(&gap, 16, 19, 19), Some(19));
        assert_eq!(floor_dp(&gap, 16, 20, 20), None);
        // Floors past the cap are read at the cap.
        assert_eq!(floor_dp(&gap, 11, 10, 99), Some(10));
    }

    #[test]
    fn core_stage_fixes_nothing_outside_the_i128_envelope() {
        // lp * capacity, profit * lw or lp * weight leave i128, or lambda
        // is no ratio at all: the stage must decline (not panic, not wrap)
        // and the table decide alone.
        let huge = items(&[(u64::MAX, u64::MAX / 2), (1 << 49, u64::MAX), (5, 7), (4, 7)]);
        let lambda = (1u64 << 50, 3u64);
        let mut kept = huge.clone();
        kept.sort_unstable_by_key(|it| (it.profit, it.weight));
        let before = kept.clone();
        for (capacity, lambda) in [
            (1u128 << 100, lambda),
            (14, (1, u64::MAX)),
            (14, (u64::MAX, u64::MAX)),
            (14, (1, 0)),
        ] {
            assert_eq!(fix_outside_core(&mut kept, capacity, 9, lambda), Some((0, 0)));
            assert_eq!(kept, before, "capacity {capacity}, lambda {lambda:?}");
        }
        let mut scratch = DpScratch::default();
        for (capacity, cap) in [(1u128 << 100, 20u64), (14, 9), (13, 9)] {
            assert_eq!(
                max_profit_dp_floor(&mut scratch, &huge, capacity, cap, cap, lambda),
                Some(max_profit_dp(&huge, capacity, cap)).filter(|&best| best >= cap),
                "capacity {capacity}, cap {cap}"
            );
        }
    }

    /// Expands `(profit, weight, selector)` draws into a whale-skewed item
    /// mix: three quarters small parties, one quarter order-of-magnitude
    /// whales.
    fn whale_items(pw: &[(u64, u64, u64)]) -> Vec<Item> {
        pw.iter()
            .map(|&(profit, weight, sel)| Item {
                profit,
                weight: if sel == 0 { 500 + weight * 90 } else { weight },
            })
            .collect()
    }

    proptest! {
        #[test]
        fn dp_matches_brute_force(
            pw in proptest::collection::vec((0u64..30, 0u64..50), 1..10),
            cap in 0u64..200,
        ) {
            let its = items(&pw);
            let total: u64 = pw.iter().map(|p| p.0).sum();
            let exact = max_profit_brute_force(&its, cap.into());
            let dp = max_profit_dp(&its, cap.into(), total.max(1));
            prop_assert_eq!(u128::from(dp), exact);
        }

        #[test]
        fn dp_matches_brute_force_and_old_scalar_on_whale_mixes(
            pw in proptest::collection::vec((0u64..30, 0u64..50, 0u64..4), 1..24),
            cap in 0u64..8000,
            pcap in 1u64..200,
        ) {
            let its = whale_items(&pw);
            let new = max_profit_dp(&its, cap.into(), pcap);
            let old = reference_scalar_dp(&its, cap.into(), pcap);
            prop_assert_eq!(new, old);
            if its.len() < 20 {
                let exact = max_profit_brute_force(&its, cap.into());
                prop_assert_eq!(u128::from(new), exact.min(u128::from(pcap)));
            }
        }

        /// The reduced kernel against both independent references, under
        /// the tight multiplier, an arbitrary one and none. Profits from a
        /// small set so classes hold several items and ratios tie.
        #[test]
        fn floor_dp_matches_reference_and_brute_force(
            pw in proptest::collection::vec((0u64..6, 0u64..40), 1..14),
            cap in 0u64..300,
            pcap in 1u64..60,
            floor in 0u64..70,
            lp in 0u64..12,
            lw in 0u64..60,
        ) {
            let its = items(&pw);
            let exact = reference_scalar_dp(&its, cap.into(), pcap);
            prop_assert_eq!(
                u128::from(exact),
                max_profit_brute_force(&its, cap.into()).min(pcap.into())
            );
            let want = (exact >= floor.min(pcap)).then_some(exact);
            let mut scratch = DpScratch::default();
            let tight = SortedItems::new(&its).break_ratio(cap.into());
            for lambda in [tight, (lp, lw), NO_MULTIPLIER] {
                let got =
                    max_profit_dp_floor(&mut scratch, &its, cap.into(), pcap, floor, lambda);
                prop_assert_eq!(got, want, "lambda {:?}", lambda);
            }
        }

        #[test]
        fn dp_probe_best_matches_plain_dp(
            pw in proptest::collection::vec((0u64..30, 0u64..50, 0u64..4), 1..24),
            cap in 0u64..8000,
            pcap in 1u64..200,
            slack in 0u128..500,
        ) {
            let its = whale_items(&pw);
            let mut scratch = DpScratch::default();
            let probe = max_profit_dp_probe(&mut scratch, &its, cap.into(), pcap, slack);
            prop_assert_eq!(probe.best, max_profit_dp(&its, cap.into(), pcap));
            // Frontier entries are real subsets (probe-side soundness).
            for &(q, w) in &probe.frontier {
                if its.len() < 20 {
                    prop_assert!(max_profit_brute_force(&its, w) >= u128::from(q));
                }
            }
        }

        #[test]
        fn splice_equals_rebuild_on_random_churn(
            pw in proptest::collection::vec((0u64..30, 0u64..60), 1..24),
            churn in proptest::collection::vec((0usize..24, 0u64..30, 0u64..60), 0..8),
        ) {
            let old = items(&pw);
            let mut new = old.clone();
            let mut changed: Vec<usize> = Vec::new();
            for (i, p, w) in churn {
                let i = i % old.len();
                new[i] = Item { profit: p, weight: w };
                changed.push(i);
            }
            changed.sort_unstable();
            changed.dedup();
            let mut spliced = SortedItems::new(&old);
            spliced.splice(&old, &new, &changed);
            let rebuilt = SortedItems::new(&new);
            prop_assert_eq!(spliced.free, rebuilt.free);
            prop_assert_eq!(spliced.entries, rebuilt.entries);
            prop_assert_eq!(spliced.prefix_weight, rebuilt.prefix_weight);
        }

        #[test]
        fn bounds_sandwich_exact(
            pw in proptest::collection::vec((0u64..30, 0u64..50), 1..10),
            cap in 0u64..200,
            target in 1u64..100,
        ) {
            let its = items(&pw);
            let exact = max_profit_brute_force(&its, cap.into());
            let reachable = exact >= u128::from(target);
            // Conservative: "unreachable" verdicts are always true verdicts.
            if !fractional_upper_bound_reaches(&its, cap.into(), target) {
                prop_assert!(!reachable);
            }
            // Liberal: "reachable" verdicts are always true verdicts.
            if greedy_lower_bound_reaches(&its, cap.into(), target) {
                prop_assert!(reachable);
            }
            // Quick test never contradicts the truth.
            match quick_test(&its, cap.into(), target) {
                QuickOutcome::CertainlyReachable => prop_assert!(reachable),
                QuickOutcome::CertainlyUnreachable => prop_assert!(!reachable),
                QuickOutcome::Uncertain => {}
            }
        }

        #[test]
        fn dp_profit_cap_is_a_saturation(
            pw in proptest::collection::vec((0u64..30, 0u64..50), 1..8),
            cap in 0u64..150,
            pcap in 1u64..40,
        ) {
            let its = items(&pw);
            let total: u64 = pw.iter().map(|p| p.0).sum();
            let full = max_profit_dp(&its, cap.into(), total.max(1));
            let capped = max_profit_dp(&its, cap.into(), pcap);
            prop_assert_eq!(capped, full.min(pcap));
        }
    }

    proptest! {
        // Few cases: each drives ~5k items through both the class path and
        // the quadratic scalar reference.
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Class-path pin at full-function granularity: a bunched input
        /// whose prefiltered size clears the gate (profit cap large enough
        /// that the per-class reduction leaves some 5 000 items) routes
        /// `max_profit_dp` through the class decomposition; value and
        /// probe frontier must match the pre-rework scalar reference.
        #[test]
        fn class_dp_matches_reference_on_bunched_inputs(
            seed in 1u64..u64::MAX,
            n in 6000usize..6800,
            cap in 2800u64..4200,
            whale_profit in 1u64..6000,
            slack in 0u128..5000,
        ) {
            let mut next = xorshift_stream(seed);
            let profits = [1u64, 1, 1, 1, 2, 2, 2, 3, 3, 7, 31, 150];
            let mut its: Vec<Item> = (0..n)
                .map(|_| Item {
                    profit: profits[(next() % profits.len() as u64) as usize],
                    weight: next() % 500,
                })
                .collect();
            its.push(Item { profit: whale_profit, weight: next() % 500 });
            let capacity = u128::from(next() % 60_000);
            let new = max_profit_dp(&its, capacity, cap);
            let old = reference_scalar_dp(&its, capacity, cap);
            prop_assert_eq!(new, old);
            let mut scratch = DpScratch::default();
            let probe = max_profit_dp_probe(&mut scratch, &its, capacity, cap, slack);
            prop_assert_eq!(probe.best, old);
            for w in probe.frontier.windows(2) {
                prop_assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
            }
        }
    }
}
