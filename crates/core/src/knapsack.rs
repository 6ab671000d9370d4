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
//!   (Kellerer–Pferschy–Pisinger, Lemma 2.3.2), `O(n * profit_cap)`.
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
//! * **Dominated-item prefilter.** Items heavier than the weight horizon are
//!   dropped outright; items whose profit saturates the cap collapse to the
//!   single lightest such item; and when the item count exceeds the harmonic
//!   bound `cap · (log cap + 2)`, each distinct profit class `p` is reduced
//!   to its `ceil(cap / p)` lightest members — any subset with profit at
//!   most `cap` uses at most that many items of class `p`, and an exchange
//!   argument lets it use the lightest ones. Million-item inputs shrink to
//!   `O(cap log cap)` items before the table is touched.
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
//!   `O(items · cap)` overall. This is what holds the near-flip decision
//!   DP at a million parties to tens of milliseconds.

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

/// Reusable buffer for [`max_profit_dp_with`]: callers running many DP
/// invocations (the solver's binary search, batch sweeps) keep one scratch
/// alive and avoid reallocating the `O(profit_cap)` table per call.
#[derive(Debug, Default, Clone)]
pub struct DpScratch {
    dp: Vec<u128>,
    kept: Vec<Item>,
}

/// Exact min-weight frontier produced by [`max_profit_dp_probe`].
///
/// `frontier` lists `(total profit, min weight)` pairs, strictly increasing
/// in both coordinates, including the trivial `(free profit, 0)` entry. For
/// any `q <= profit_cap + free`, the minimum weight of a subset with profit
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
///
/// # Panics
///
/// Panics if `profit_cap` does not fit in `usize` (bounded by
/// [`crate::problems::MAX_TICKET_BOUND`] upstream).
pub fn max_profit_dp(items: &[Item], capacity: u128, profit_cap: u64) -> u64 {
    max_profit_dp_with(&mut DpScratch::default(), items, capacity, profit_cap)
}

/// [`max_profit_dp`] reusing a caller-held scratch buffer across calls.
///
/// # Panics
///
/// Panics if `profit_cap` does not fit in `usize`.
pub fn max_profit_dp_with(
    scratch: &mut DpScratch,
    items: &[Item],
    capacity: u128,
    profit_cap: u64,
) -> u64 {
    let cap = usize::try_from(profit_cap).expect("profit cap fits usize");
    let free = split_free(&mut scratch.kept, items, capacity);
    if free >= u128::from(profit_cap) {
        return profit_cap;
    }
    let free = free as u64;
    reduce_items(&mut scratch.kept, cap);
    dp_table(&mut scratch.dp, &scratch.kept, cap, capacity, Some(capacity));
    // Highest finite frontier state within capacity.
    let mut best = 0u64;
    for (p, &w) in scratch.dp.iter().enumerate().rev() {
        if w <= capacity {
            best = p as u64;
            break;
        }
    }
    (best + free).min(profit_cap)
}

/// Certificate-grade variant of [`max_profit_dp`]: additionally returns the
/// exact min-weight frontier, explored out to `capacity + slack` so callers
/// can measure *how far* each profit level is from feasibility (the margin
/// behind delta-stable verdict certificates in [`crate::oracle`]).
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
    let cap = usize::try_from(profit_cap).expect("profit cap fits usize");
    let prune_limit = capacity.saturating_add(slack);
    let free = split_free(&mut scratch.kept, items, prune_limit);
    if free >= u128::from(profit_cap) {
        return DpProbe { best: profit_cap, frontier: vec![(profit_cap, 0)], prune_limit };
    }
    let free = free as u64;
    reduce_items(&mut scratch.kept, cap);
    dp_table(&mut scratch.dp, &scratch.kept, cap, prune_limit, None);
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
    DpProbe { best: (best + free).min(profit_cap), frontier, prune_limit }
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

/// The dominated-item prefilter: collapses cap-saturating items to the
/// single lightest one and, when worthwhile, keeps only the `ceil(cap / p)`
/// lightest items of each profit class `p`. Exact for the cap-saturated DP:
/// any subset with (saturated) profit `q <= cap` takes at most
/// `floor(cap / p)` items of class `p`, and swapping any member for a
/// lighter same-profit item never hurts.
fn reduce_items(kept: &mut Vec<Item>, cap: usize) {
    let cap64 = cap as u64;
    // Items whose profit alone saturates the table: only the lightest can
    // ever be preferable, and no subset needs two of them.
    let mut sat: Option<Item> = None;
    kept.retain(|it| {
        if it.profit >= cap64 {
            if sat.is_none_or(|s| it.weight < s.weight) {
                sat = Some(*it);
            }
            false
        } else {
            true
        }
    });
    // Harmonic bound on the reduced size; skip the sort when the input is
    // already at least that small.
    let log2 = usize::BITS - cap.leading_zeros();
    let bound = (cap as u128).saturating_mul(u128::from(log2) + 2);
    if (kept.len() as u128) > bound {
        kept.sort_unstable_by(|a, b| a.profit.cmp(&b.profit).then(a.weight.cmp(&b.weight)));
        let mut out = 0usize;
        let mut i = 0usize;
        while i < kept.len() {
            let p = kept[i].profit;
            let mut end = i + 1;
            while end < kept.len() && kept[end].profit == p {
                end += 1;
            }
            let keep = usize::try_from(cap64.div_ceil(p)).unwrap_or(usize::MAX).min(end - i);
            for j in i..i + keep {
                kept[out] = kept[j];
                out += 1;
            }
            i = end;
        }
        kept.truncate(out);
    }
    if let Some(s) = sat {
        kept.push(s);
    }
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
/// grouping sort.
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

/// Fills `dp` (resized and reset here) with the min-weight table for
/// `items`: the profit-class decomposition when the items bunch, the
/// sequential fill otherwise. Both produce identical frontier-pruned tables.
fn dp_table(
    dp: &mut Vec<u128>,
    items: &[Item],
    cap: usize,
    prune_limit: u128,
    stop_at: Option<u128>,
) {
    dp.clear();
    dp.resize(cap + 1, INF);
    dp[0] = 0;
    if !class_dp(dp, items, prune_limit, stop_at) {
        dp_fill(dp, items, prune_limit, stop_at);
    }
}

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
/// the near-flip decision DP from seconds into tens of milliseconds.
///
/// Returns `false` (table untouched beyond the reset) when the input does
/// not bunch enough to pay for the grouping sort; the caller falls back to
/// the per-item fill. When it runs, the resulting frontier-pruned table
/// is identical to the sequential fill's: both compute the exact
/// min-weight-per-profit function over the same subset space, and the
/// final domination prune is path-independent.
fn class_dp(dp: &mut [u128], items: &[Item], prune_limit: u128, stop_at: Option<u128>) -> bool {
    let cap = dp.len() - 1;
    if items.len() < CLASS_MIN_ITEMS || cap == 0 || prune_limit >= CLASS_INF {
        return false;
    }
    let mut sorted = items.to_vec();
    sorted.sort_unstable_by(|a, b| a.profit.cmp(&b.profit).then(a.weight.cmp(&b.weight)));
    let distinct = 1 + sorted.windows(2).filter(|w| w[0].profit != w[1].profit).count();
    if distinct.saturating_mul(CLASS_MIN_BUNCHING) > sorted.len() {
        return false;
    }
    let cap64 = cap as u64;
    // Small classes (and cap-saturating items) fold item-by-item at the
    // end; `dp_fill` also performs the final domination prune.
    let mut loose: Vec<Item> = Vec::new();
    let mut f: Vec<u128> = Vec::new();
    let mut g: Vec<u128> = Vec::new();
    let mut wpfx: Vec<u128> = Vec::new();
    let mut budget_met = false;
    let mut i = 0usize;
    while i < sorted.len() {
        let p = sorted[i].profit;
        let mut end = i + 1;
        while end < sorted.len() && sorted[end].profit == p {
            end += 1;
        }
        let class = &sorted[i..end];
        i = end;
        if p >= cap64 {
            // One such item alone saturates the table; only the lightest
            // (first — the class is weight-sorted) can matter.
            loose.push(class[0]);
            continue;
        }
        // A subset with (saturated) profit <= cap uses at most
        // ceil(cap / p) items of this class, and exchange keeps them the
        // lightest; prefix weights beyond the prune horizon can never
        // participate either.
        let k_cap = usize::try_from(cap64.div_ceil(p)).unwrap_or(usize::MAX);
        let k_use = k_cap.min(class.len());
        if k_use < CLASS_MONGE_MIN {
            loose.extend_from_slice(&class[..k_use]);
            continue;
        }
        wpfx.clear();
        wpfx.push(0);
        let mut acc: u128 = 0;
        for it in &class[..k_use] {
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
        let p_us = p as usize; // p < cap <= usize::MAX
        let mut sat_min = INF;
        for r in 0..p_us.min(cap) {
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
            monge_fill(&f, &wpfx, &mut g, 0, out_len, 0, len_f - 1);
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
        dp_fill(dp, &loose, prune_limit, stop_at);
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

    #[test]
    fn class_dp_matches_sequential_fill() {
        // A bunched instance well above the gate: profits drawn from a
        // small set (plus a saturating whale), weights spread out. The
        // class decomposition must engage and produce the identical
        // frontier-pruned table as one sequential per-item fill.
        let mut next = xorshift_stream(0x9E3779B97F4A7C15);
        let profits = [1u64, 1, 1, 2, 2, 3, 5, 9, 120];
        let mut its: Vec<Item> = (0..6000)
            .map(|_| Item {
                profit: profits[(next() % profits.len() as u64) as usize],
                weight: next() % 900 + 1,
            })
            .collect();
        its.push(Item { profit: 100_000, weight: 333 }); // saturates cap
        let cap = 400usize;
        for (prune_limit, stop_at) in
            [(40_000u128, None), (40_000, Some(9_000u128)), (120_000, None)]
        {
            let mut seq = vec![INF; cap + 1];
            seq[0] = 0;
            dp_fill(&mut seq, &its, prune_limit, stop_at);
            let mut cls = vec![INF; cap + 1];
            cls[0] = 0;
            assert!(
                class_dp(&mut cls, &its, prune_limit, stop_at),
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
        // table untouched past the reset.
        let its: Vec<Item> =
            (0..5000).map(|i| Item { profit: i + 1, weight: i % 97 + 1 }).collect();
        let mut dp = vec![INF; 301];
        dp[0] = 0;
        assert!(!class_dp(&mut dp, &its, 10_000, None));
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
        /// that the harmonic reduction keeps everything) routes
        /// `max_profit_dp` through the class decomposition; value and
        /// probe frontier must match the pre-rework scalar reference.
        #[test]
        fn class_dp_matches_reference_on_bunched_inputs(
            seed in 1u64..u64::MAX,
            n in 4400usize..5200,
            cap in 1100u64..2600,
            whale_profit in 1u64..4000,
            slack in 0u128..5000,
        ) {
            let mut next = xorshift_stream(seed);
            let profits = [1u64, 1, 2, 3, 7, 31, 150];
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
