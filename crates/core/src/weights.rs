//! Party weight vectors.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// Weights of the `n` parties, indexed by party id `0..n`.
///
/// Weights are non-negative 64-bit integers. Real-valued weights (stake
/// denominated in tokens, estimated failure probabilities, ...) should be
/// quantized with [`Weights::from_floats`]; stake systems natively count in
/// integer base units, so `u64` is the natural domain. The *total* weight `W`
/// is tracked as `u128` so it cannot overflow.
///
/// The vector is shared: [`Weights::new`] keeps the caller's vector and a
/// clone bumps a reference count, so one epoch's snapshot flows through the
/// solver, its events and every quorum electorate without a copy. (A real
/// `serde` needs its `rc` feature for the `Arc`; see the offline shim.)
///
/// # Examples
///
/// ```
/// use swiper_core::Weights;
///
/// # fn main() -> Result<(), swiper_core::CoreError> {
/// let w = Weights::new(vec![10, 20, 30, 40])?;
/// assert_eq!(w.total(), 100);
/// assert_eq!(w.len(), 4);
/// assert_eq!(w.get(3), 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Weights {
    weights: Arc<Vec<u64>>,
    total: u128,
}

impl Weights {
    /// Creates a weight vector.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoParties`] when `weights` is empty.
    /// * [`CoreError::ZeroTotalWeight`] when all weights are zero — the
    ///   weight reduction problems require `W != 0`.
    pub fn new(weights: Vec<u64>) -> Result<Self, CoreError> {
        if weights.is_empty() {
            return Err(CoreError::NoParties);
        }
        let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
        if total == 0 {
            return Err(CoreError::ZeroTotalWeight);
        }
        Ok(Weights { weights: Arc::new(weights), total })
    }

    /// Quantizes real weights to `u64` by scaling so that the largest weight
    /// maps to `scale_max` (default-worthy choice: `u32::MAX`), preserving
    /// proportions to within one unit.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoParties`] for empty input.
    /// * [`CoreError::ZeroTotalWeight`] when no weight is positive/finite.
    pub fn from_floats(weights: &[f64], scale_max: u64) -> Result<Self, CoreError> {
        if weights.is_empty() {
            return Err(CoreError::NoParties);
        }
        let max =
            weights.iter().copied().filter(|w| w.is_finite() && *w > 0.0).fold(0.0, f64::max);
        if max <= 0.0 || scale_max == 0 {
            return Err(CoreError::ZeroTotalWeight);
        }
        let quantized: Vec<u64> = weights
            .iter()
            .map(|&w| {
                if !w.is_finite() || w <= 0.0 {
                    0
                } else {
                    // Round to nearest; clamp in case of FP edge effects.
                    ((w / max * scale_max as f64).round() as u64).min(scale_max)
                }
            })
            .collect();
        Weights::new(quantized)
    }

    /// Number of parties `n`.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when there are no parties (never constructible; kept for API
    /// completeness alongside [`Weights::len`]).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Weight of party `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> u64 {
        self.weights[i]
    }

    /// Total weight `W`.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Largest single weight.
    pub fn max(&self) -> u64 {
        *self.weights.iter().max().expect("non-empty by construction")
    }

    /// Index of a party holding the largest weight (first such party).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &w) in self.weights.iter().enumerate() {
            if w > self.weights[best] {
                best = i;
            }
        }
        best
    }

    /// Borrow the raw weights.
    pub fn as_slice(&self) -> &[u64] {
        &self.weights
    }

    /// 128-bit fingerprint of the weight vector, the same word-wise
    /// formula as `TicketAssignment::fingerprint` — the compact
    /// handle epoch machinery uses to detect stake drift (see
    /// `EpochEvent::prev_weights_fingerprint`). Deterministic across
    /// processes and replicas; guards against stale inputs, not
    /// adversarial ones.
    pub fn fingerprint(&self) -> u128 {
        crate::assignment::tickets_fingerprint(&self.weights)
    }

    /// Iterate over `(party, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.weights.iter().copied().enumerate()
    }

    /// Sum of the weights of the given subset of parties.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset_weight(&self, subset: &[usize]) -> u128 {
        subset.iter().map(|&i| u128::from(self.weights[i])).sum()
    }
}

impl AsRef<[u64]> for Weights {
    fn as_ref(&self) -> &[u64] {
        &self.weights
    }
}

impl TryFrom<Vec<u64>> for Weights {
    type Error = CoreError;

    fn try_from(v: Vec<u64>) -> Result<Self, Self::Error> {
        Weights::new(v)
    }
}

#[cfg(test)]
impl Weights {
    /// The population shape of `swiper_weights::gen::whale_mix` (which this
    /// crate cannot depend on) for in-crate tests: a log-normal retail body
    /// around e¹⁰ with a flat Zipf head of `max(8, n / 10⁴)` whales scattered
    /// through it. Ticket families over it bunch thousands of parties into
    /// a handful of small profit classes — the input the DP kernel's class
    /// machinery is built for and small random vectors never produce.
    pub(crate) fn whale_skewed(n: usize, seed: u64) -> Weights {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w: Vec<u64> = (0..n)
            .map(|_| {
                let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.random_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (10.0 + 1.5 * z).exp().max(1.0) as u64
            })
            .collect();
        let head = (w.iter().map(|&x| u128::from(x)).sum::<u128>() / 8) as f64;
        for i in 0..(n / 10_000).max(8).min(n) {
            let slot = rng.random_range(0..n);
            w[slot] = (head / ((i + 1) as f64).powf(0.8)).max(1.0) as u64;
        }
        Weights::new(w).expect("positive weights")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_zero() {
        assert!(matches!(Weights::new(vec![]), Err(CoreError::NoParties)));
        assert!(matches!(Weights::new(vec![0, 0]), Err(CoreError::ZeroTotalWeight)));
    }

    #[test]
    fn total_uses_u128() {
        let w = Weights::new(vec![u64::MAX, u64::MAX]).unwrap();
        assert_eq!(w.total(), 2 * u128::from(u64::MAX));
    }

    #[test]
    fn argmax_returns_first_maximum() {
        let w = Weights::new(vec![3, 7, 7, 1]).unwrap();
        assert_eq!(w.argmax(), 1);
        assert_eq!(w.max(), 7);
    }

    #[test]
    fn subset_weight_sums() {
        let w = Weights::new(vec![1, 2, 3, 4]).unwrap();
        assert_eq!(w.subset_weight(&[0, 3]), 5);
        assert_eq!(w.subset_weight(&[]), 0);
    }

    #[test]
    fn from_floats_preserves_proportions() {
        let w = Weights::from_floats(&[0.5, 1.0, 0.25], 1000).unwrap();
        assert_eq!(w.as_slice(), &[500, 1000, 250]);
    }

    #[test]
    fn from_floats_handles_junk() {
        let w = Weights::from_floats(&[f64::NAN, 1.0, -3.0, f64::INFINITY], 10).unwrap();
        assert_eq!(w.as_slice(), &[0, 10, 0, 0]);
        assert!(Weights::from_floats(&[0.0, -1.0], 10).is_err());
        assert!(Weights::from_floats(&[], 10).is_err());
    }
}
