//! Weighted sampling and the sampling-guided bracket estimate.
//!
//! Three pieces live here, all in service of weight-driven resource
//! allocation — the million-party solver and stake-weighted peer sampling
//! for gossip fanout:
//!
//! * [`AliasTable`] — Walker/Vose alias method over a [`Weights`] vector,
//!   built with **exact integer arithmetic** so every replica constructs
//!   the identical table: party `i` is drawn with probability exactly
//!   `w_i / W` in O(1) per draw after an O(n) build. This is the classic
//!   structure behind the parallel weighted-sampling line (Hübschle-Schneider
//!   & Sanders) referenced by the roadmap.
//! * [`WeightedReservoir`] — a streaming weighted reservoir sampler
//!   (Chao's probability-proportional-to-size scheme, the reservoir
//!   counterpart of the distributed weighted-sampling line of Jayaram et
//!   al.): offer `(item, weight)` pairs one by one, keep `k` of them with
//!   inclusion probability proportional to weight, O(1) state per slot,
//!   exact integer arithmetic over the same [`SplitMix64`] stream. The
//!   gossip overlay draws its active-view and fanout peers from this
//!   sampler and re-seeds it at `EpochEvent` boundaries, so heavy parties
//!   sit in proportionally many views.
//! * [`estimate_boundary_total`](crate::sampling) *(crate-internal)* — a
//!   statistical estimate of the ticket total at the solver's validity
//!   boundary, computed from a few thousand weight-proportional draws. The
//!   solver uses it only to place a *trust window* over its bisection —
//!   midpoints far outside the window get assumed verdicts, midpoints
//!   inside are probed exactly, and the assumed endpoints are re-verified
//!   before the answer is accepted (falling back to the full bisection on
//!   any contradiction) — so the estimate can be arbitrarily wrong without
//!   affecting correctness; a bad estimate only costs extra probes.
//!
//! The estimate simulates the solver's own quick test on the sample. A
//! weight-proportional draw carries weight-mass `W/m`, so the `m` draws
//! form an empirical weighted distribution of the population (the
//! streaming weighted-sampling idea of Jayaram et al.). At a candidate
//! scale `s` the family's tickets are `t(w) = floor(s·w + c)` — evaluated
//! *exactly* per draw, so the regime where most parties round to zero
//! tickets (every million-party solve: `T ≪ n`) is represented correctly —
//! giving two importance estimates: the family total
//! `T(s) ≈ (W/m)·Σ t(w_j)/w_j`, and the fractional adversary's take,
//! obtained by sorting draws by ticket density `t(w)/w` and letting each
//! capacity consume the densest mass first. Bisecting `s` on the predicate
//! "take < q·T(s)" lands within sampling error (a few percent at
//! [`ESTIMATE_DRAWS`]) of the true validity boundary.

use crate::weights::Weights;

/// Deterministic SplitMix64 — the sampler's only randomness source. Seeded
/// with a fixed constant by the solver so all replicas derive identical
/// estimates (and therefore identical probe sequences).
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value uniform in `[0, m)`. The modulo bias is at most `2^-64` for
    /// any `m` the sampler uses — irrelevant for an estimator; determinism
    /// is the property that matters.
    fn below(&mut self, m: u128) -> u128 {
        debug_assert!(m > 0);
        let x = (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64());
        x % m
    }
}

/// Streaming weighted reservoir sampler: keeps `k` of the offered items
/// with inclusion probability proportional to their weight (Chao's
/// probability-proportional-to-size reservoir). Determinism contract
/// matches [`AliasTable`]: all randomness comes from the caller's
/// [`SplitMix64`], and the per-slot probability bookkeeping uses only
/// IEEE-exact `f64` operations (`+ - * /`, `min`, total-order sort — no
/// transcendentals), so every replica offering the same stream with the
/// same seed keeps the identical reservoir.
///
/// Zero-weight items are skipped without consuming randomness — they can
/// never be included (callers that must reach zero-stake parties floor
/// their sampling weights at 1 before offering). Items whose weight
/// exceeds `total/k` are *overweight*: their inclusion probability clips
/// at 1, exactly as in the original scheme.
///
/// # Examples
///
/// ```
/// use swiper_core::sampling::{SplitMix64, WeightedReservoir};
///
/// let mut rng = SplitMix64::new(7);
/// let mut res = WeightedReservoir::new(2);
/// for (item, weight) in [(0, 90u64), (1, 5), (2, 5), (3, 900)] {
///     res.offer(item, weight, &mut rng);
/// }
/// let picked = res.items();
/// assert_eq!(picked.len(), 2);
/// assert!(picked.contains(&3), "the 90% whale is (almost) always kept");
/// ```
pub struct WeightedReservoir {
    k: usize,
    total: u128,
    /// `(item, weight, pi)` — `pi` is the item's current unconditional
    /// inclusion probability, maintained exactly by Chao's recursion.
    slots: Vec<(usize, u64, f64)>,
}

impl WeightedReservoir {
    /// An empty reservoir holding at most `k` items.
    #[must_use]
    pub fn new(k: usize) -> Self {
        WeightedReservoir { k, total: 0, slots: Vec::with_capacity(k) }
    }

    /// Offers one `(item, weight)` pair. Implements Chao's full update:
    /// each arrival re-solves the population fixpoint `Σ min(cap_i, λ·wᵢ)
    /// = k` (members capped at their stored probability, the new item at
    /// 1, the already-rejected mass entering linearly), accepts the new
    /// item with its fixpoint probability, and evicts a member chosen
    /// proportionally to its required probability *reduction* — not
    /// uniformly. The non-uniform eviction is what keeps inclusion exactly
    /// `k·w/W` through clip transitions: a naive `min(1, k·w/W)`-insert
    /// with uniform eviction drifts toward uniform sampling, because early
    /// prefixes clip almost everything and the error persists as a ratio.
    /// Zero-weight and zero-capacity offers are ignored and consume no
    /// randomness.
    pub fn offer(&mut self, item: usize, weight: u64, rng: &mut SplitMix64) {
        if weight == 0 || self.k == 0 {
            return;
        }
        self.total += u128::from(weight);
        if self.slots.len() < self.k {
            // While filling, everything seen is held with certainty.
            self.slots.push((item, weight, 1.0));
            return;
        }
        // New targets: λ solves Σ min(cap, λ·w) = k over the population —
        // the k members (cap = stored π), the new item (cap = 1), and the
        // absent mass (total weight seen minus what the candidates carry,
        // contributing λ·W_absent uncapped).
        let mut cands: Vec<(f64, f64)> =
            self.slots.iter().map(|&(_, w, pi)| (w as f64, pi)).collect();
        cands.push((weight as f64, 1.0));
        let carried: u128 = cands.iter().map(|&(w, _)| w as u128).sum();
        let absent = self.total.saturating_sub(carried) as f64;
        let lambda = waterfill(&cands, absent, self.k as f64);
        let targets: Vec<f64> = cands.iter().map(|&(w, cap)| (lambda * w).min(cap)).collect();
        // Accept the new item with its target probability. One rng draw
        // regardless of outcome; a second only on accept.
        let pi_new = targets[self.slots.len()];
        let accept = unit_f64(rng) < pi_new;
        // Each member keeps its reduced target; on accept the victim is
        // drawn with probability proportional to (π − π′)/π — the exact
        // reduction its marginal requires, conditioned on being present.
        if accept {
            let mass: Vec<f64> = self
                .slots
                .iter()
                .zip(&targets)
                .map(|(&(_, _, pi), &t)| if pi > t { (pi - t) / pi } else { 0.0 })
                .collect();
            let sum: f64 = mass.iter().sum();
            let evict = if sum > 0.0 {
                let mut x = unit_f64(rng) * sum;
                let mut pick = self.slots.len() - 1;
                for (ix, &m) in mass.iter().enumerate() {
                    if x < m {
                        pick = ix;
                        break;
                    }
                    x -= m;
                }
                pick
            } else {
                // Degenerate realization with no reducible member: fall
                // back to an arbitrary non-certain slot (one exists, else
                // Σπ would exceed k).
                self.slots.iter().position(|&(_, _, pi)| pi < 1.0).unwrap_or(0)
            };
            for (slot, &t) in self.slots.iter_mut().zip(&targets) {
                slot.2 = t;
            }
            self.slots[evict] = (item, weight, pi_new);
        } else {
            for (slot, &t) in self.slots.iter_mut().zip(&targets) {
                slot.2 = t;
            }
        }
    }

    /// The sampled items, ascending (sorted so consumers iterate in a
    /// replica-independent order).
    #[must_use]
    pub fn items(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.slots.iter().map(|&(item, _, _)| item).collect();
        out.sort_unstable();
        out
    }

    /// Items currently held (≤ `k`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the reservoir holds nothing yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// One-shot convenience: a stake-weighted sample of up to `k`
    /// distinct indices drawn from `weights`, skipping every index for
    /// which `skip` returns true. Indices are offered in ascending order
    /// (the determinism contract: same weights, same skips, same rng
    /// state — same sample) and returned ascending.
    #[must_use]
    pub fn sample_indices(
        weights: &[u64],
        k: usize,
        rng: &mut SplitMix64,
        mut skip: impl FnMut(usize) -> bool,
    ) -> Vec<usize> {
        let mut res = WeightedReservoir::new(k);
        for (i, &w) in weights.iter().enumerate() {
            if !skip(i) {
                res.offer(i, w, rng);
            }
        }
        res.items()
    }
}

/// A uniform draw in `[0, 1)` with 53 bits of precision — the standard
/// shift-and-scale construction, bit-deterministic everywhere.
fn unit_f64(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Solves `Σᵢ min(capᵢ, λ·wᵢ) + λ·absent = k` for λ ≥ 0. `f(λ)` is
/// piecewise-linear and increasing, so the walk over saturation
/// thresholds (sorted by `cap/w`) finds the segment containing `k`; when
/// even every cap together cannot reach `k`, λ is `+∞` and every
/// candidate sits at its cap.
fn waterfill(cands: &[(f64, f64)], absent: f64, k: f64) -> f64 {
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        let ta = cands[a].1 / cands[a].0;
        let tb = cands[b].1 / cands[b].0;
        ta.total_cmp(&tb).then(a.cmp(&b))
    });
    // `active` = weight still below its cap; `saturated` = cap mass already
    // pinned at its ceiling.
    let mut active: f64 = absent + cands.iter().map(|&(w, _)| w).sum::<f64>();
    let mut saturated = 0.0;
    for &ix in &order {
        let (w, cap) = cands[ix];
        if active > 0.0 {
            let lambda = (k - saturated) / active;
            if lambda <= cap / w {
                return lambda.max(0.0);
            }
        }
        saturated += cap;
        active -= w;
    }
    if active > 0.0 && k > saturated {
        return (k - saturated) / active;
    }
    f64::INFINITY
}

/// One alias slot: `keep` of the slot's mass stays with the owning party,
/// the remainder belongs to `alias`.
struct Slot {
    keep: u128,
    alias: u32,
}

/// Walker/Vose alias table over a weight vector: O(n) build, O(1)
/// weight-proportional draws, exact integer probabilities.
///
/// # Examples
///
/// ```
/// use swiper_core::sampling::{AliasTable, SplitMix64};
/// use swiper_core::Weights;
///
/// let weights = Weights::new(vec![90, 5, 5]).unwrap();
/// let table = AliasTable::new(&weights).unwrap();
/// let mut rng = SplitMix64::new(7);
/// let heavy = (0..1000).filter(|_| table.sample(&mut rng) == 0).count();
/// assert!(heavy > 800, "party 0 holds 90% of the weight: {heavy}");
/// ```
pub struct AliasTable {
    slots: Vec<Slot>,
    /// Mass held by each slot (= the total weight `W`).
    slot_mass: u128,
}

impl AliasTable {
    /// Builds the table; `None` when the vector is empty or all-zero
    /// (there is no distribution to sample).
    pub fn new(weights: &Weights) -> Option<Self> {
        let n = weights.len();
        let total = weights.total();
        if n == 0 || total == 0 {
            return None;
        }
        let n128 = n as u128;
        // Scaled mass per party; each of the n slots holds exactly W.
        let mut rem: Vec<u128> =
            weights.as_slice().iter().map(|&w| u128::from(w) * n128).collect();
        let mut slots: Vec<Slot> =
            (0..n).map(|i| Slot { keep: total, alias: i as u32 }).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &r) in rem.iter().enumerate() {
            if r < total {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(&l)) = (small.pop(), large.last()) {
            slots[s] = Slot { keep: rem[s], alias: l as u32 };
            rem[l] -= total - rem[s];
            if rem[l] < total {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers (rounding residue) keep their full slot.
        Some(AliasTable { slots, slot_mass: total })
    }

    /// Draws one party index with probability proportional to its weight.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let x = rng.below(self.slot_mass * self.slots.len() as u128);
        let k = (x / self.slot_mass) as usize;
        let r = x % self.slot_mass;
        let slot = &self.slots[k];
        if r < slot.keep {
            k
        } else {
            slot.alias as usize
        }
    }
}

/// Draws the sampler makes per estimate: enough to place the boundary
/// within a few percent on real stake distributions (whale-mix at n = 10⁶
/// lands within ~6% across seeds; the adversary-side noise is amplified
/// ~`qW/(qW - cap_sum)`-fold into the boundary, which is what the draw
/// count has to beat), cheap enough to be noise next to one exact probe.
pub(crate) const ESTIMATE_DRAWS: usize = 8192;

/// Parties at or above which a hintless solve consults the sampler. Both
/// sides are benchmarked (`solver_cold` solves at 10⁵ and 10⁶): at 10⁶ the
/// window saves three near-full-cost probes, at 10⁵ the estimate costs more
/// than the probes it would save.
pub(crate) const SAMPLING_MIN_PARTIES: usize = 1 << 18;

/// Fixed seed for the solver's estimates — every replica must derive the
/// same probe sequence from the same weight vector.
pub(crate) const ESTIMATE_SEED: u64 = 0x5317_9E57_1A7E_0001;

/// Statistical estimate of the total `T` at which the family flips valid,
/// for a check with fractional targets `q·T` against adversary capacities
/// `caps` and family constant `c` (see the module docs for the method).
/// `None` when no sensible estimate exists (degenerate weights or
/// parameters); the caller falls back to the cold bracket.
#[allow(clippy::too_many_arguments)] // crate-internal; mirrors the check-parameter tuple.
pub(crate) fn estimate_boundary_total(
    weights: &Weights,
    caps: &[u128],
    q_num: u128,
    q_den: u128,
    c_num: u128,
    c_den: u128,
    draws: usize,
    seed: u64,
) -> Option<u64> {
    let table = AliasTable::new(weights)?;
    if q_den == 0 || c_den == 0 {
        return None;
    }
    let wt = weights.total() as f64;
    let q = q_num as f64 / q_den as f64;
    let c = c_num as f64 / c_den as f64;
    let cap_sum: f64 = caps.iter().map(|&cap| cap as f64).sum();
    if q * wt <= cap_sum {
        return None; // capacity at/above the target slope: no finite boundary.
    }
    let mut rng = SplitMix64::new(seed);
    let m = draws.max(16);
    let drawn: Vec<u64> = (0..m).map(|_| weights.get(table.sample(&mut rng))).collect();
    // Each weight-proportional draw stands for weight-mass W/m of the
    // population: the count of parties it represents is (W/m)/w_j, so any
    // per-party statistic g(w) has the importance estimate (W/m)·Σ g(w_j)/w_j.
    let mass = wt / m as f64;

    // Simulate the quick test at scale `s` on the empirical distribution.
    // Returns (estimated family total, fractional adversary take summed
    // over all capacities).
    let mut dens: Vec<f64> = Vec::with_capacity(m);
    let eval = |s: f64, dens: &mut Vec<f64>| -> (f64, f64) {
        dens.clear();
        let mut t_hat = 0.0f64;
        for &w in &drawn {
            let wf = w as f64;
            // The family's exact per-party ticket rule — floors included,
            // so the `T ≪ n` regime (most parties at zero tickets) is
            // represented instead of averaged away.
            let t = (s * wf + c).floor();
            t_hat += (t / wf) * mass;
            dens.push(t / wf);
        }
        // Fractional adversary: each capacity independently consumes the
        // densest weight-mass first (draws all carry equal mass W/m).
        dens.sort_unstable_by(|a, b| b.total_cmp(a));
        let mut take = 0.0f64;
        for &cap in caps {
            let mut left = cap as f64;
            for &d in dens.iter() {
                if left <= 0.0 || d <= 0.0 {
                    break;
                }
                let grab = mass.min(left);
                take += d * grab;
                left -= grab;
            }
        }
        (t_hat, take)
    };
    let valid = |t_hat: f64, take: f64| take < q * t_hat;

    // Bracket the flip in `s`: valid(s) is (up to floor wiggle) monotone
    // because q·W > cap_sum makes the target outgrow the take.
    let (t0, a0) = eval(0.0, &mut dens);
    let finish = |t_hat: f64| -> Option<u64> {
        if !t_hat.is_finite() {
            return None;
        }
        if t_hat < 1.0 {
            return Some(1);
        }
        if t_hat >= u64::MAX as f64 {
            return None;
        }
        Some(t_hat as u64)
    };
    if valid(t0, a0) {
        return finish(t0);
    }
    let mut lo = 0.0f64;
    let mut hi = 1.0 / wt.max(1.0);
    let mut hi_total = f64::NAN;
    let mut bracketed = false;
    for _ in 0..200 {
        let (t, a) = eval(hi, &mut dens);
        if valid(t, a) {
            hi_total = t;
            bracketed = true;
            break;
        }
        lo = hi;
        hi *= 2.0;
    }
    if !bracketed {
        return None;
    }
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        let (t, a) = eval(mid, &mut dens);
        if valid(t, a) {
            hi = mid;
            hi_total = t;
        } else {
            lo = mid;
        }
    }
    finish(hi_total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_vectors_cannot_reach_the_table() {
        // All-zero vectors are rejected upstream by `Weights::new`; the
        // table's own `None` guard is defense in depth.
        assert!(Weights::new(vec![0, 0, 0]).is_err());
    }

    #[test]
    fn alias_table_is_deterministic_per_seed() {
        let w = Weights::new(vec![5, 1, 100, 17, 0, 9]).unwrap();
        let table = AliasTable::new(&w).unwrap();
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..64).map(|_| table.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43), "different seeds must diverge");
    }

    #[test]
    fn alias_table_matches_weights_in_frequency() {
        // Exact-probability check via full enumeration of slot masses:
        // summed keep/alias mass per party must equal w_i * n.
        let ws = vec![3u64, 0, 7, 90, 10, 10];
        let w = Weights::new(ws.clone()).unwrap();
        let table = AliasTable::new(&w).unwrap();
        let mut mass = vec![0u128; ws.len()];
        for (k, slot) in table.slots.iter().enumerate() {
            mass[k] += slot.keep;
            mass[slot.alias as usize] += table.slot_mass - slot.keep;
        }
        let n = ws.len() as u128;
        for (i, &wi) in ws.iter().enumerate() {
            assert_eq!(mass[i], u128::from(wi) * n, "party {i}");
        }
    }

    #[test]
    fn zero_weight_parties_are_never_drawn() {
        let w = Weights::new(vec![0, 50, 0, 50]).unwrap();
        let table = AliasTable::new(&w).unwrap();
        let mut rng = SplitMix64::new(1);
        for _ in 0..500 {
            let i = table.sample(&mut rng);
            assert!(i == 1 || i == 3, "drew zero-weight party {i}");
        }
    }

    #[test]
    fn reservoir_is_deterministic_per_seed_and_returns_sorted_distinct() {
        let ws = vec![5u64, 1, 100, 17, 3, 9, 40, 2];
        let draw = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            WeightedReservoir::sample_indices(&ws, 3, &mut rng, |i| i == 2)
        };
        let a = draw(42);
        assert_eq!(a, draw(42), "same seed, same sample");
        assert!((0..32).any(|s| draw(s) != a), "some seed out of 32 must diverge");
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|p| p[0] < p[1]), "sorted, distinct: {a:?}");
        assert!(!a.contains(&2), "skipped index must not be sampled");
    }

    #[test]
    fn reservoir_skips_zero_weight_items_and_caps_at_population() {
        let ws = vec![0u64, 50, 0, 50];
        let mut rng = SplitMix64::new(1);
        for _ in 0..200 {
            let picked = WeightedReservoir::sample_indices(&ws, 3, &mut rng, |_| false);
            assert_eq!(picked, vec![1, 3], "only the weighted parties are sampleable");
        }
        let mut res = WeightedReservoir::new(5);
        res.offer(7, 3, &mut rng);
        assert_eq!(res.len(), 1);
        assert!(!res.is_empty());
        assert_eq!(res.items(), vec![7]);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The satellite property: over many seeded draws, each party's
        /// inclusion frequency is proportional to its weight. A
        /// chi-square-style tolerance — every per-party relative
        /// deviation from the expected count must stay small — over
        /// random weight vectors and seeds.
        #[test]
        fn reservoir_inclusion_probability_tracks_weight(
                ws in proptest::collection::vec(1u64..64, 8..16),
                seed in any::<u64>(),
            ) {
                let n = ws.len();
                let k = 3usize;
                // Chao clipping makes heavily overweight parties (w >
                // W/k) sit at probability 1 instead of k·w/W; keep the
                // vector in the unclipped regime so the proportionality
                // claim is exact.
                let total: u128 = ws.iter().map(|&w| u128::from(w)).sum();
                prop_assume!(ws.iter().all(|&w| u128::from(w) * k as u128 * 10 < total * 9));
                let draws = 6000u64;
                let mut hits = vec![0u64; n];
                let mut rng = SplitMix64::new(seed);
                for _ in 0..draws {
                    for i in WeightedReservoir::sample_indices(&ws, k, &mut rng, |_| false) {
                        hits[i] += 1;
                    }
                }
                // E[hits_i] = draws · k · w_i / W; demand every party
                // within 25% relative + a small absolute slack (the
                // chi-square-style bound at this sample size).
                for (i, &w) in ws.iter().enumerate() {
                    let expect = draws as f64 * k as f64 * w as f64 / total as f64;
                    let got = hits[i] as f64;
                    let dev = (got - expect).abs();
                    prop_assert!(
                        dev <= expect * 0.25 + 12.0,
                        "party {i} (w={w}): {got} hits vs {expect:.1} expected"
                    );
                }
            }
    }

    /// Reweigh-at-boundary: re-running the sampler against a refreshed
    /// weight vector (the overlay's `EpochEvent` path) must follow the
    /// new stake — a party whose weight collapsed stops dominating views
    /// and the newly heavy party takes its place.
    #[test]
    fn reservoir_reweigh_follows_the_new_stake() {
        let before = vec![1000u64, 1, 1, 1, 1, 1, 1, 1];
        let after = vec![1u64, 1, 1, 1, 1, 1, 1, 1000];
        let count_in_views = |ws: &[u64], party: usize| -> usize {
            let mut rng = SplitMix64::new(99);
            (0..200)
                .filter(|_| {
                    WeightedReservoir::sample_indices(ws, 2, &mut rng, |_| false)
                        .contains(&party)
                })
                .count()
        };
        assert!(count_in_views(&before, 0) > 180, "whale dominates pre-boundary views");
        assert!(count_in_views(&after, 0) < 120, "collapsed whale loses its seats");
        assert!(count_in_views(&after, 7) > 180, "the new whale inherits them");
    }

    #[test]
    fn estimate_lands_near_the_true_boundary_on_skewed_weights() {
        use crate::problems::WeightRestriction;
        use crate::ratio::Ratio;
        use crate::solver::Swiper;

        // A lognormal-ish skewed vector, large enough for the estimator's
        // statistics to bite but cheap to solve exactly.
        let mut state = SplitMix64::new(9);
        let ws: Vec<u64> = (0..4000)
            .map(|_| 1 + (state.next_u64() % 1000) * (state.next_u64() % 97))
            .collect();
        let w = Weights::new(ws).unwrap();
        let p = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let exact = Swiper::new().solve_restriction(&w, &p).unwrap();
        let truth = exact.total_tickets() as f64;

        let caps = [crate::verify::strict_capacity(p.alpha_w(), w.total()).unwrap()];
        let an = p.alpha_n();
        let c = p.family_constant();
        let est = estimate_boundary_total(
            &w,
            &caps,
            an.num(),
            an.den(),
            c.num(),
            c.den(),
            ESTIMATE_DRAWS,
            ESTIMATE_SEED,
        )
        .unwrap() as f64;
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.25, "estimate {est} vs truth {truth} (rel err {rel:.3})");
    }
}
