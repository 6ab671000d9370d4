//! Synthetic weight-distribution generators.
//!
//! All generators are deterministic given their inputs (and seed, where
//! randomized); `rand_distr` is not available offline, so the classic
//! inverse-transform / Box–Muller constructions are implemented directly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swiper_core::Weights;

/// Equal weights — the theoretical worst case for weight reduction.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn equal(n: usize, weight: u64) -> Weights {
    Weights::new(vec![weight.max(1); n]).expect("n > 0 and positive weights")
}

/// One party holding `whale_share_percent`% of the total, the rest equal.
///
/// # Panics
///
/// Panics if `n == 0` or `whale_share_percent >= 100`.
pub fn one_whale(n: usize, whale_share_percent: u64) -> Weights {
    assert!(whale_share_percent < 100, "whale share must leave something for the rest");
    assert!(n > 0);
    let rest = 100 - whale_share_percent;
    let mut w = vec![0u64; n];
    // Scale so small parties hold at least 1.
    let unit = (n as u64 - 1).max(1);
    w[0] = whale_share_percent * unit * 100;
    for slot in w.iter_mut().skip(1) {
        *slot = rest * 100;
    }
    Weights::new(w).expect("non-zero total")
}

/// Zipf-like weights: `w_i` proportional to `1 / (i + 1)^exponent`,
/// scaled so the largest weight is `scale`. Deterministic.
///
/// # Panics
///
/// Panics if `n == 0` or `scale == 0`.
pub fn zipf(n: usize, exponent: f64, scale: u64) -> Weights {
    assert!(n > 0 && scale > 0);
    let w: Vec<u64> = (0..n)
        .map(|i| {
            let v = (scale as f64) / ((i + 1) as f64).powf(exponent);
            (v.round() as u64).max(1)
        })
        .collect();
    Weights::new(w).expect("positive weights")
}

/// Pareto-distributed weights via inverse-transform sampling:
/// `w = x_min / u^(1/alpha)`, clipped to `u64`. Seeded.
///
/// # Panics
///
/// Panics if `n == 0`, `alpha <= 0`, or `x_min == 0`.
pub fn pareto(n: usize, alpha: f64, x_min: u64, seed: u64) -> Weights {
    assert!(n > 0 && alpha > 0.0 && x_min > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<u64> = (0..n)
        .map(|_| {
            let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let v = (x_min as f64) / u.powf(1.0 / alpha);
            v.min(u64::MAX as f64 / 2.0).max(1.0) as u64
        })
        .collect();
    Weights::new(w).expect("positive weights")
}

/// Log-normal weights via Box–Muller. `mu`/`sigma` act on `ln w`. Seeded.
///
/// # Panics
///
/// Panics if `n == 0` or `sigma < 0`.
pub fn lognormal(n: usize, mu: f64, sigma: f64, seed: u64) -> Weights {
    Weights::new(lognormal_draws(n, mu, sigma, seed)).expect("positive weights")
}

/// The draws behind [`lognormal`], for generators that go on editing them.
fn lognormal_draws(n: usize, mu: f64, sigma: f64, seed: u64) -> Vec<u64> {
    assert!(n > 0 && sigma >= 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let v = (mu + sigma * z).exp();
            v.min(u64::MAX as f64 / 2.0).max(1.0) as u64
        })
        .collect()
}

/// Exponentially distributed weights (`-mean * ln u`). Seeded.
///
/// # Panics
///
/// Panics if `n == 0` or `mean <= 0`.
pub fn exponential(n: usize, mean: f64, seed: u64) -> Weights {
    assert!(n > 0 && mean > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<u64> = (0..n)
        .map(|_| {
            let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            ((-mean * u.ln()).max(1.0)).min(u64::MAX as f64 / 2.0) as u64
        })
        .collect();
    Weights::new(w).expect("positive weights")
}

/// Whale-skewed population: a small Zipf head of whales grafted onto a
/// log-normal body, then shuffled so the heavy parties are scattered
/// through the index space (adversarial for anything that assumes sorted
/// or clustered stake). This is the profile real validator sets show —
/// a few exchange-scale whales over a long retail tail — and the input
/// family the `solver_scale` bench sweeps. Deterministic per seed.
///
/// `whales` is clamped to `n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn whale_mix(n: usize, whales: usize, seed: u64) -> Weights {
    assert!(n > 0);
    let whales = whales.min(n);
    // Body: ln-stake centered at e^10 (~22k) with heavy spread.
    let mut w = lognormal_draws(n, 10.0, 1.5, seed);
    // Head: whale i holds ~whale_scale / (i+1)^0.8 — flat-ish Zipf, so
    // several parties are individually dominant.
    let body_total: u128 = w.iter().map(|&x| u128::from(x)).sum();
    let whale_scale = u64::try_from((body_total / 8).clamp(1, u128::from(u64::MAX / 4)))
        .expect("clamped to u64 range");
    for (i, slot) in w.iter_mut().take(whales).enumerate() {
        let v = (whale_scale as f64) / ((i + 1) as f64).powf(0.8);
        *slot = (v.round() as u64).max(1);
    }
    // Fisher–Yates with the same seeded stream, offset past the body draws.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for i in (1..w.len()).rev() {
        let j = rng.random_range(0..=i);
        w.swap(i, j);
    }
    Weights::new(w).expect("positive weights")
}

/// Rescales a weight vector so that the total is (approximately, up to
/// rounding with a guaranteed minimum of 1 per non-zero party) `target`.
///
/// # Panics
///
/// Panics if `target` is zero.
pub fn rescale_total(weights: &Weights, target: u128) -> Weights {
    assert!(target > 0, "target total must be positive");
    let current = weights.total();
    let scaled: Vec<u64> = weights
        .as_slice()
        .iter()
        .map(|&w| {
            if w == 0 {
                return 0;
            }
            let v = u128::from(w) * target / current;
            u64::try_from(v.max(1)).unwrap_or(u64::MAX)
        })
        .collect();
    Weights::new(scaled).expect("non-zero total preserved")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_is_flat() {
        let w = equal(10, 5);
        assert!(w.as_slice().iter().all(|&x| x == 5));
    }

    #[test]
    fn one_whale_dominates() {
        let w = one_whale(11, 60);
        let total = w.total();
        // Whale holds ~60%.
        let share = u128::from(w.get(0)) * 100 / total;
        assert!((59..=61).contains(&share), "share = {share}");
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let w = zipf(100, 1.0, 1_000_000);
        for i in 1..100 {
            assert!(w.get(i - 1) >= w.get(i));
        }
        assert_eq!(w.get(0), 1_000_000);
        assert_eq!(w.get(99), 10_000);
    }

    #[test]
    fn pareto_seeded_determinism() {
        let a = pareto(50, 1.2, 100, 7);
        let b = pareto(50, 1.2, 100, 7);
        let c = pareto(50, 1.2, 100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&w| w >= 100 || w >= 1));
    }

    #[test]
    fn lognormal_and_exponential_positive() {
        let l = lognormal(40, 10.0, 2.0, 3);
        let e = exponential(40, 1000.0, 3);
        assert!(l.as_slice().iter().all(|&w| w >= 1));
        assert!(e.as_slice().iter().all(|&w| w >= 1));
    }

    #[test]
    fn whale_mix_is_seeded_skewed_and_scattered() {
        let a = whale_mix(500, 8, 42);
        let b = whale_mix(500, 8, 42);
        let c = whale_mix(500, 8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The 8 whales should dominate: top-8 share well above a uniform
        // 8/500 slice.
        let mut sorted: Vec<u64> = a.as_slice().to_vec();
        sorted.sort_unstable_by(|x, y| y.cmp(x));
        let top: u128 = sorted.iter().take(8).map(|&x| u128::from(x)).sum();
        assert!(top * 4 > a.total(), "whale share too small: {top} of {}", a.total());
        // And scattered: the heaviest party should (for this seed) not sit
        // at index 0 where the unshuffled head would leave it.
        let max = a.as_slice().iter().max().unwrap();
        assert_ne!(a.get(0), *max);
        assert!(a.as_slice().iter().all(|&w| w >= 1));
    }

    #[test]
    fn rescale_hits_target_approximately() {
        let w = zipf(20, 1.0, 1000);
        let target: u128 = 1_000_000;
        let r = rescale_total(&w, target);
        let total = r.total();
        // Within 5% of the target (rounding + minimum-1 effects).
        assert!(total > target * 95 / 100 && total < target * 105 / 100, "total={total}");
    }

    #[test]
    fn rescale_preserves_zeroes_and_order() {
        let w = Weights::new(vec![0, 10, 100, 1000]).unwrap();
        let r = rescale_total(&w, 555_555);
        assert_eq!(r.get(0), 0);
        assert!(r.get(1) <= r.get(2) && r.get(2) <= r.get(3));
    }
}
