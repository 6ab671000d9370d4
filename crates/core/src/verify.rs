//! Exact validity checking of ticket assignments against the weight
//! reduction problem definitions (Section 2).
//!
//! A Weight Restriction assignment is *viable* iff `T != 0` and every subset
//! `S` with `w(S) < alpha_w * W` has `t(S) < alpha_n * T`. Deciding this is
//! a knapsack instance (Section 3.1); these functions build the instance
//! exactly (integer weights, rational thresholds) and delegate to
//! [`crate::knapsack`].

use crate::assignment::TicketAssignment;
use crate::error::CoreError;
use crate::knapsack::{self, Item};
use crate::problems::{WeightQualification, WeightRestriction, WeightSeparation};
use crate::ratio::Ratio;
use crate::weights::Weights;
use crate::wide::cmp_mul;

fn ceil_div(a: u128, b: u128) -> u128 {
    a / b + u128::from(!a.is_multiple_of(b))
}

/// Largest integer subset-weight strictly below `threshold * W`, i.e. the
/// knapsack capacity `floor((p*W - 1) / q)` for `threshold = p/q`.
pub(crate) fn strict_capacity(threshold: Ratio, total_weight: u128) -> Result<u128, CoreError> {
    let pw = threshold.num().checked_mul(total_weight).ok_or(CoreError::ArithmeticOverflow)?;
    // threshold > 0 and W > 0 imply pw >= 1.
    Ok((pw - 1) / threshold.den())
}

/// Smallest integer ticket count `k` with `k >= threshold * T`
/// (`ceil(p*T / q)` for `threshold = p/q`).
pub(crate) fn ticket_target(threshold: Ratio, total_tickets: u128) -> Result<u128, CoreError> {
    let pt = threshold.num().checked_mul(total_tickets).ok_or(CoreError::ArithmeticOverflow)?;
    Ok(ceil_div(pt, threshold.den()))
}

pub(crate) fn items_of(weights: &Weights, tickets: &TicketAssignment) -> Vec<Item> {
    weights
        .as_slice()
        .iter()
        .zip(tickets.as_slice())
        .map(|(&weight, &profit)| Item { profit, weight })
        .collect()
}

/// Exactly decides whether `tickets` is a valid Weight Restriction solution
/// for `weights` under `params` (Problem 1). Runs the DP knapsack, so the
/// cost is `O(n * T)`.
///
/// # Errors
///
/// [`CoreError::ArithmeticOverflow`] when the inputs exceed the supported
/// envelope.
pub fn verify_restriction(
    weights: &Weights,
    tickets: &TicketAssignment,
    params: &WeightRestriction,
) -> Result<bool, CoreError> {
    assert_eq!(weights.len(), tickets.len(), "weights/tickets length mismatch");
    let total = tickets.total();
    if total == 0 {
        return Ok(false); // viability requires T != 0
    }
    let capacity = strict_capacity(params.alpha_w(), weights.total())?;
    let target = ticket_target(params.alpha_n(), total)?;
    if target > total {
        return Ok(true); // unreachable by any subset
    }
    let target = u64::try_from(target).map_err(|_| CoreError::ArithmeticOverflow)?;
    let items = items_of(weights, tickets);
    let reached = knapsack::max_profit_dp(&items, capacity, target) >= target;
    Ok(!reached)
}

/// Exactly decides Weight Qualification validity (Problem 2) via the
/// Theorem 2.2 reduction `WQ(bw, bn) = WR(1-bw, 1-bn)`.
///
/// # Errors
///
/// See [`verify_restriction`].
pub fn verify_qualification(
    weights: &Weights,
    tickets: &TicketAssignment,
    params: &WeightQualification,
) -> Result<bool, CoreError> {
    verify_restriction(weights, tickets, &params.to_restriction())
}

/// Exactly decides Weight Separation validity (Problem 3):
/// `max{t(S1) : w(S1) < alpha W} < min{t(S2) : w(S2) > beta W}`, where the
/// right side equals `T - max{t(S) : w(S) < (1-beta) W}` by complementation.
///
/// # Errors
///
/// See [`verify_restriction`].
pub fn verify_separation(
    weights: &Weights,
    tickets: &TicketAssignment,
    params: &WeightSeparation,
) -> Result<bool, CoreError> {
    assert_eq!(weights.len(), tickets.len(), "weights/tickets length mismatch");
    let total = tickets.total();
    if total == 0 {
        return Ok(false);
    }
    let total_u64 = u64::try_from(total).map_err(|_| CoreError::ArithmeticOverflow)?;
    let items = items_of(weights, tickets);
    let cap_low = strict_capacity(params.alpha(), weights.total())?;
    let cap_high = strict_capacity(params.beta().one_minus()?, weights.total())?;
    let a = u128::from(knapsack::max_profit_dp(&items, cap_low, total_u64));
    let b = u128::from(knapsack::max_profit_dp(&items, cap_high, total_u64));
    // valid  <=>  a < total - b  <=>  a + b < total.
    Ok(a + b < total)
}

/// Brute-force Weight Restriction check over all `2^n` subsets — the literal
/// Problem 1 statement. Reference for tests and the tiny-`n` exact solver.
///
/// # Panics
///
/// Panics if `weights.len() >= 25` (exponential blowup guard).
pub fn verify_restriction_exhaustive(
    weights: &Weights,
    tickets: &TicketAssignment,
    params: &WeightRestriction,
) -> bool {
    let n = weights.len();
    assert!(n < 25, "exhaustive verification limited to n < 25");
    let total = tickets.total();
    if total == 0 {
        return false;
    }
    let (aw, an) = (params.alpha_w(), params.alpha_n());
    let big_w = weights.total();
    for mask in 0u32..(1u32 << n) {
        let mut w: u128 = 0;
        let mut t: u128 = 0;
        for i in 0..n {
            if mask >> i & 1 == 1 {
                w += u128::from(weights.get(i));
                t += u128::from(tickets.get(i));
            }
        }
        // w < aw*W  <=>  w*qw < pw*W ; violated when also t >= an*T.
        let under_weight = cmp_mul(w, aw.den(), aw.num(), big_w) == std::cmp::Ordering::Less;
        let over_tickets = cmp_mul(t, an.den(), an.num(), total) != std::cmp::Ordering::Less;
        if under_weight && over_tickets {
            return false;
        }
    }
    true
}

/// Brute-force Weight Qualification check, directly from Problem 2 (not via
/// the reduction — used to validate Theorem 2.2 in tests).
///
/// # Panics
///
/// Panics if `weights.len() >= 25`.
pub fn verify_qualification_exhaustive(
    weights: &Weights,
    tickets: &TicketAssignment,
    params: &WeightQualification,
) -> bool {
    let n = weights.len();
    assert!(n < 25, "exhaustive verification limited to n < 25");
    let total = tickets.total();
    if total == 0 {
        return false;
    }
    let (bw, bn) = (params.beta_w(), params.beta_n());
    let big_w = weights.total();
    for mask in 0u32..(1u32 << n) {
        let mut w: u128 = 0;
        let mut t: u128 = 0;
        for i in 0..n {
            if mask >> i & 1 == 1 {
                w += u128::from(weights.get(i));
                t += u128::from(tickets.get(i));
            }
        }
        let over_weight = cmp_mul(w, bw.den(), bw.num(), big_w) == std::cmp::Ordering::Greater;
        let under_tickets =
            cmp_mul(t, bn.den(), bn.num(), total) != std::cmp::Ordering::Greater;
        if over_weight && under_tickets {
            return false;
        }
    }
    true
}

/// Brute-force Weight Separation check over all subset pairs (via the two
/// extremal subsets rather than literally `4^n` pairs).
///
/// # Panics
///
/// Panics if `weights.len() >= 25`.
pub fn verify_separation_exhaustive(
    weights: &Weights,
    tickets: &TicketAssignment,
    params: &WeightSeparation,
) -> bool {
    let n = weights.len();
    assert!(n < 25, "exhaustive verification limited to n < 25");
    let total = tickets.total();
    if total == 0 {
        return false;
    }
    let big_w = weights.total();
    let (alpha, beta) = (params.alpha(), params.beta());
    // max tickets over light sets; min tickets over heavy sets.
    let mut max_light: Option<u128> = None;
    let mut min_heavy: Option<u128> = None;
    for mask in 0u32..(1u32 << n) {
        let mut w: u128 = 0;
        let mut t: u128 = 0;
        for i in 0..n {
            if mask >> i & 1 == 1 {
                w += u128::from(weights.get(i));
                t += u128::from(tickets.get(i));
            }
        }
        if cmp_mul(w, alpha.den(), alpha.num(), big_w) == std::cmp::Ordering::Less {
            max_light = Some(max_light.map_or(t, |m| m.max(t)));
        }
        if cmp_mul(w, beta.den(), beta.num(), big_w) == std::cmp::Ordering::Greater {
            min_heavy = Some(min_heavy.map_or(t, |m| m.min(t)));
        }
    }
    match (max_light, min_heavy) {
        (Some(a), Some(b)) => a < b,
        // No heavy set (beta*W unreachable) or no light set: vacuously true.
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn weights(ws: &[u64]) -> Weights {
        Weights::new(ws.to_vec()).unwrap()
    }

    #[test]
    fn capacity_is_strictly_below_threshold() {
        // W = 9, threshold 1/3: subsets of weight < 3, so capacity 2.
        assert_eq!(strict_capacity(Ratio::of(1, 3), 9).unwrap(), 2);
        // W = 10, threshold 1/2: capacity 4 (weight 5 is NOT < 5).
        assert_eq!(strict_capacity(Ratio::of(1, 2), 10).unwrap(), 4);
        // W = 7, threshold 1/2: 3.5 -> capacity 3.
        assert_eq!(strict_capacity(Ratio::of(1, 2), 7).unwrap(), 3);
    }

    #[test]
    fn target_is_ceiling() {
        // T = 9, threshold 1/3: t(S) >= 3 violates.
        assert_eq!(ticket_target(Ratio::of(1, 3), 9).unwrap(), 3);
        // T = 10, threshold 1/3: 10/3 -> 4.
        assert_eq!(ticket_target(Ratio::of(1, 3), 10).unwrap(), 4);
    }

    #[test]
    fn zero_total_is_invalid() {
        let w = weights(&[1, 2, 3]);
        let t = TicketAssignment::new(vec![0, 0, 0]);
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        assert!(!verify_restriction(&w, &t, &wr).unwrap());
        assert!(!verify_restriction_exhaustive(&w, &t, &wr));
    }

    #[test]
    fn proportional_assignment_is_valid() {
        // Tickets exactly proportional to weights can only shift rounding by
        // 0, so a generous gap validates.
        let w = weights(&[10, 20, 30, 40]);
        let t = TicketAssignment::new(vec![1, 2, 3, 4]);
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        assert!(verify_restriction(&w, &t, &wr).unwrap());
    }

    #[test]
    fn overweighting_a_small_party_is_invalid() {
        // Party 0 holds 1% of weight but 60% of tickets.
        let w = weights(&[1, 99]);
        let t = TicketAssignment::new(vec![6, 4]);
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        assert!(!verify_restriction(&w, &t, &wr).unwrap());
        assert!(!verify_restriction_exhaustive(&w, &t, &wr));
    }

    #[test]
    fn qualification_reduction_agrees_with_direct() {
        let w = weights(&[5, 1, 1, 1]);
        let wq = WeightQualification::new(Ratio::of(2, 3), Ratio::of(1, 2)).unwrap();
        for t in [vec![4u64, 1, 1, 1], vec![1, 1, 1, 1], vec![8, 0, 0, 0], vec![2, 2, 2, 2]] {
            let t = TicketAssignment::new(t);
            assert_eq!(
                verify_qualification(&w, &t, &wq).unwrap(),
                verify_qualification_exhaustive(&w, &t, &wq),
                "assignment {:?}",
                t.as_slice()
            );
        }
    }

    #[test]
    fn separation_valid_and_invalid() {
        let w = weights(&[40, 30, 20, 10]);
        let ws = WeightSeparation::new(Ratio::of(1, 4), Ratio::of(1, 2)).unwrap();
        // Proportional tickets with enough total separate well.
        let good = TicketAssignment::new(vec![8, 6, 4, 2]);
        assert!(verify_separation(&w, &good, &ws).unwrap());
        assert!(verify_separation_exhaustive(&w, &good, &ws));
        // All tickets to the lightest party: a light set can out-ticket a
        // heavy set.
        let bad = TicketAssignment::new(vec![0, 0, 0, 5]);
        assert!(!verify_separation(&w, &bad, &ws).unwrap());
        assert!(!verify_separation_exhaustive(&w, &bad, &ws));
    }

    #[test]
    fn single_party_always_valid_with_ticket() {
        let w = weights(&[7]);
        let t = TicketAssignment::new(vec![1]);
        let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        assert!(verify_restriction(&w, &t, &wr).unwrap());
        assert!(verify_restriction_exhaustive(&w, &t, &wr));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dp_verifier_matches_exhaustive_wr(
            pairs in proptest::collection::vec((0u64..20, 0u64..30), 1..9),
            pw in 1u128..6, pn in 2u128..7,
        ) {
            let (ws, ts): (Vec<u64>, Vec<u64>) = pairs.into_iter().unzip();
            prop_assume!(ws.iter().any(|&w| w > 0));
            let aw = Ratio::of(pw, 7);
            let an = Ratio::of(pn, 7);
            prop_assume!(aw < an && aw.is_proper() && an.is_proper());
            let w = Weights::new(ws).unwrap();
            let t = TicketAssignment::new(ts);
            let wr = WeightRestriction::new(aw, an).unwrap();
            prop_assert_eq!(
                verify_restriction(&w, &t, &wr).unwrap(),
                verify_restriction_exhaustive(&w, &t, &wr)
            );
        }

        #[test]
        fn dp_verifier_matches_exhaustive_ws(
            pairs in proptest::collection::vec((0u64..20, 0u64..20), 1..9),
            pa in 1u128..5, pb in 2u128..6,
        ) {
            let (ws_v, ts): (Vec<u64>, Vec<u64>) = pairs.into_iter().unzip();
            prop_assume!(ws_v.iter().any(|&w| w > 0));
            let alpha = Ratio::of(pa, 6);
            let beta = Ratio::of(pb, 6);
            prop_assume!(alpha < beta && alpha.is_proper() && beta.is_proper());
            let w = Weights::new(ws_v).unwrap();
            let t = TicketAssignment::new(ts);
            let ws = WeightSeparation::new(alpha, beta).unwrap();
            prop_assert_eq!(
                verify_separation(&w, &t, &ws).unwrap(),
                verify_separation_exhaustive(&w, &t, &ws)
            );
        }

        #[test]
        fn theorem_2_2_reduction_equivalence(
            pairs in proptest::collection::vec((0u64..20, 0u64..20), 1..9),
            pw in 2u128..6, pn in 1u128..5,
        ) {
            let (ws, ts): (Vec<u64>, Vec<u64>) = pairs.into_iter().unzip();
            prop_assume!(ws.iter().any(|&w| w > 0));
            let bw = Ratio::of(pw, 6);
            let bn = Ratio::of(pn, 6);
            prop_assume!(bn < bw && bw.is_proper() && bn.is_proper());
            let w = Weights::new(ws).unwrap();
            let t = TicketAssignment::new(ts);
            let wq = WeightQualification::new(bw, bn).unwrap();
            // Reduction-based == direct exhaustive WQ.
            prop_assert_eq!(
                verify_qualification(&w, &t, &wq).unwrap(),
                verify_qualification_exhaustive(&w, &t, &wq)
            );
        }
    }
}
