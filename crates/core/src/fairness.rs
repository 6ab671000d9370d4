//! Expected fairness — the paper's first Section 9 future-work direction,
//! implemented.
//!
//! Weight reduction distorts relative weights: a party's ticket share can
//! deviate from its weight share (the SSLE fairness caveat of Section 4.4).
//! The proposed fix: *"in addition to deterministically assigned tickets,
//! allocate some small number of tickets randomly so that each party gets
//! exactly the same fraction of tickets as its fraction of weight in
//! expectation ... while still preserving safety and liveness
//! deterministically, i.e., even in the worst case, when all the 'random'
//! tickets are received by the adversary."*
//!
//! [`FairExtension`] computes the minimal number `R` of lottery tickets
//! and the exact per-party probabilities such that
//! `E[tickets_i] / (T + R) = w_i / W`, samples lotteries deterministically
//! from a seed (e.g. a randomness-beacon output), and
//! [`FairExtension::verify_worst_case`] checks the deterministic safety
//! property: Weight Restriction holds even if the adversary wins every
//! lottery ticket.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::assignment::TicketAssignment;
use crate::error::CoreError;
use crate::knapsack::{self, Item};
use crate::problems::WeightRestriction;
use crate::verify::{strict_capacity, ticket_target};
use crate::weights::Weights;

/// A fairness extension over a deterministic ticket assignment.
#[derive(Debug, Clone)]
pub struct FairExtension {
    weights: Weights,
    base: TicketAssignment,
    /// Number of lottery tickets.
    lottery: u64,
    /// Unnormalized per-party lottery weights `c_i = (T+R) w_i - t_i W`
    /// (each lottery ticket falls on party `i` with probability
    /// `c_i / (R W)`).
    cumulative: Vec<u128>,
    /// `sum c_i = R * W`.
    total_mass: u128,
}

impl FairExtension {
    /// Computes the minimal lottery size and the exact probabilities.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ZeroTotalWeight`] if a zero-weight party holds base
    ///   tickets (its expected share cannot be matched by adding tickets).
    /// * [`CoreError::ArithmeticOverflow`] on envelope overflow.
    pub fn new(weights: &Weights, base: &TicketAssignment) -> Result<Self, CoreError> {
        assert_eq!(weights.len(), base.len(), "weights/tickets length mismatch");
        let big_w = weights.total();
        let t = base.total();
        // Minimal R with (T+R) w_i >= t_i W for all i:
        // R >= t_i W / w_i - T, i.e. R = max_i ceil((t_i W - T w_i) / w_i).
        let mut lottery: u128 = 0;
        for (i, w) in weights.iter() {
            let ti = u128::from(base.get(i));
            if w == 0 {
                if ti > 0 {
                    return Err(CoreError::ZeroTotalWeight);
                }
                continue;
            }
            let need =
                ti.checked_mul(big_w).ok_or(CoreError::ArithmeticOverflow)?.saturating_sub(
                    t.checked_mul(u128::from(w)).ok_or(CoreError::ArithmeticOverflow)?,
                );
            let r_i = need.div_ceil(u128::from(w));
            lottery = lottery.max(r_i);
        }
        let lottery_u64 = u64::try_from(lottery).map_err(|_| CoreError::ArithmeticOverflow)?;
        // c_i = (T + R) w_i - t_i W  (all >= 0 by choice of R).
        let total_plus = t.checked_add(lottery).ok_or(CoreError::ArithmeticOverflow)?;
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc: u128 = 0;
        for (i, w) in weights.iter() {
            let c =
                total_plus.checked_mul(u128::from(w)).ok_or(CoreError::ArithmeticOverflow)?
                    - u128::from(base.get(i)) * big_w;
            acc = acc.checked_add(c).ok_or(CoreError::ArithmeticOverflow)?;
            cumulative.push(acc);
        }
        debug_assert_eq!(acc, lottery * big_w, "probability mass must be R * W");
        Ok(FairExtension {
            weights: weights.clone(),
            base: base.clone(),
            lottery: lottery_u64,
            cumulative,
            total_mass: acc,
        })
    }

    /// Number of lottery tickets `R`.
    pub fn lottery_tickets(&self) -> u64 {
        self.lottery
    }

    /// Combined total `T + R`.
    pub fn total(&self) -> u128 {
        self.base.total() + u128::from(self.lottery)
    }

    /// The exact expected ticket count of party `i`, as an exact fraction
    /// `(numerator, denominator)` over the combined total: equals
    /// `w_i (T + R) / W`, i.e. expected share = weight share.
    pub fn expected_tickets(&self, i: usize) -> (u128, u128) {
        (u128::from(self.weights.get(i)) * self.total(), self.weights.total())
    }

    /// Samples the lottery deterministically from `seed` (e.g. a beacon
    /// output), returning the combined assignment.
    pub fn sample(&self, seed: u64) -> TicketAssignment {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tickets: Vec<u64> = self.base.as_slice().to_vec();
        for _ in 0..self.lottery {
            if self.total_mass == 0 {
                break;
            }
            let draw = rng.random_range(0..self.total_mass);
            // First party whose cumulative mass exceeds the draw.
            let idx = self.cumulative.partition_point(|&c| c <= draw);
            tickets[idx] += 1;
        }
        TicketAssignment::new(tickets)
    }

    /// Deterministic worst-case safety check: Weight Restriction holds for
    /// the *combined* total even if the adversary receives **all** `R`
    /// lottery tickets — i.e. for every subset `S` with
    /// `w(S) < alpha_w W`: `t_base(S) + R < alpha_n (T + R)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::ArithmeticOverflow`] on envelope overflow.
    pub fn verify_worst_case(&self, params: &WeightRestriction) -> Result<bool, CoreError> {
        let capacity = strict_capacity(params.alpha_w(), self.weights.total())?;
        let target = ticket_target(params.alpha_n(), self.total())?;
        // Adversary holds R lottery tickets for free.
        let Some(base_target) = target.checked_sub(u128::from(self.lottery)) else {
            return Ok(false); // the lottery alone reaches the threshold
        };
        if base_target > self.base.total() {
            return Ok(true);
        }
        let base_target =
            u64::try_from(base_target).map_err(|_| CoreError::ArithmeticOverflow)?;
        let items: Vec<Item> = self
            .weights
            .as_slice()
            .iter()
            .zip(self.base.as_slice())
            .map(|(&weight, &profit)| Item { profit, weight })
            .collect();
        let reached = knapsack::max_profit_dp_floor(
            &mut knapsack::DpScratch::default(),
            &items,
            capacity,
            base_target,
            base_target,
            knapsack::SortedItems::new(&items).break_ratio(capacity),
        )
        .is_some();
        Ok(!reached)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::ratio::Ratio;
    use crate::solver::Swiper;
    use proptest::prelude::*;

    fn setup(ws: &[u64]) -> (Weights, TicketAssignment) {
        let weights = Weights::new(ws.to_vec()).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 2)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        (weights, sol.assignment)
    }

    #[test]
    fn expected_share_equals_weight_share_exactly() {
        let (weights, base) = setup(&[50, 30, 15, 5]);
        let fair = FairExtension::new(&weights, &base).unwrap();
        for i in 0..4 {
            let (num, den) = fair.expected_tickets(i);
            // E[t_i] / (T+R) = w_i / W  <=>  num / (den * (T+R)) = w_i / W.
            assert_eq!(num * weights.total(), u128::from(weights.get(i)) * fair.total() * den);
        }
    }

    #[test]
    fn empirical_mean_approaches_expectation() {
        let (weights, base) = setup(&[50, 30, 15, 5]);
        let fair = FairExtension::new(&weights, &base).unwrap();
        let rounds = 4000u64;
        let mut sums = [0u128; 4];
        for seed in 0..rounds {
            let combined = fair.sample(seed);
            assert_eq!(combined.total(), fair.total());
            for i in 0..4 {
                sums[i] += u128::from(combined.get(i));
            }
        }
        for i in 0..4 {
            let mean = sums[i] as f64 / rounds as f64;
            let expect = weights.get(i) as f64 / weights.total() as f64 * fair.total() as f64;
            assert!(
                (mean - expect).abs() < 0.15 * expect.max(1.0),
                "party {i}: mean {mean} vs expected {expect}"
            );
        }
    }

    #[test]
    fn zero_lottery_when_already_fair() {
        // Exactly proportional base assignment needs no lottery.
        let weights = Weights::new(vec![30, 20, 10]).unwrap();
        let base = TicketAssignment::new(vec![3, 2, 1]);
        let fair = FairExtension::new(&weights, &base).unwrap();
        assert_eq!(fair.lottery_tickets(), 0);
        assert_eq!(fair.sample(7), base);
    }

    #[test]
    fn zero_weight_party_with_tickets_rejected() {
        let weights = Weights::new(vec![10, 0]).unwrap();
        let base = TicketAssignment::new(vec![1, 1]);
        assert!(FairExtension::new(&weights, &base).is_err());
    }

    #[test]
    fn worst_case_safety_check() {
        let (weights, base) = setup(&[50, 30, 15, 5]);
        let fair = FairExtension::new(&weights, &base).unwrap();
        // The WR(1/4, 1/2) instance: is safety preserved even when all
        // lottery tickets land on the adversary? (May be true or false
        // depending on R; what must hold is consistency with the manual
        // computation.)
        let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 2)).unwrap();
        let verdict = fair.verify_worst_case(&params).unwrap();
        // Manual exhaustive check.
        let n = weights.len();
        let (aw, an) = (params.alpha_w(), params.alpha_n());
        let mut manual = true;
        for mask in 0u32..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
            let w = weights.subset_weight(&set);
            let light = w * aw.den() < aw.num() * weights.total();
            if light {
                let tk = base.subset_tickets(&set) + u128::from(fair.lottery_tickets());
                if tk * an.den() >= an.num() * fair.total() {
                    manual = false;
                }
            }
        }
        assert_eq!(verdict, manual);
    }

    #[test]
    fn lottery_grows_with_distortion() {
        // A deliberately unfair base (whale underrepresented) needs a
        // large lottery to rebalance.
        let weights = Weights::new(vec![90, 10]).unwrap();
        let skewed = TicketAssignment::new(vec![1, 1]); // whale has 50% of tickets, deserves 90%
        let fair = FairExtension::new(&weights, &skewed).unwrap();
        assert!(fair.lottery_tickets() >= 8, "R = {}", fair.lottery_tickets());
        let (num, den) = fair.expected_tickets(0);
        assert_eq!(num * 100, 90 * fair.total() * den);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn sampling_preserves_total_and_support(
            ws in proptest::collection::vec(1u64..1000, 2..8),
            seed in any::<u64>(),
        ) {
            let (weights, base) = {
                let weights = Weights::new(ws).unwrap();
                let params =
                    WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
                let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
                (weights, sol.assignment)
            };
            let fair = FairExtension::new(&weights, &base).unwrap();
            let combined = fair.sample(seed);
            prop_assert_eq!(combined.total(), fair.total());
            // Lottery tickets only land on positive-weight parties, and
            // nobody loses base tickets.
            for i in 0..weights.len() {
                prop_assert!(combined.get(i) >= base.get(i));
                if weights.get(i) == 0 {
                    prop_assert_eq!(combined.get(i), base.get(i));
                }
            }
        }
    }
}
