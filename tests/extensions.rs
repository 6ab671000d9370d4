//! Integration tests for the paper-extension features (§8–§9 directions):
//! expected fairness, the inverse budget problem, DKG-powered beacons and
//! validated agreement — crossing crate boundaries.

use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper::core::fairness::FairExtension;
use swiper::core::inverse::min_alpha_n_for_budget;
use swiper::core::verify_restriction;
use swiper::protocols::dkg;
use swiper::protocols::keys::TicketKeys;
use swiper::protocols::ssle::measure_elections;
use swiper::weights::{gen, snapshot};
use swiper::{Ratio, Swiper, WeightRestriction, Weights};

/// Fairness lottery over a bound member keeps SSLE chain quality intact
/// while shrinking the fairness gap.
#[test]
fn fairness_lottery_improves_ssle_fairness() {
    let weights = Weights::new(vec![290, 260, 180, 130, 80, 60]).unwrap();
    let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(3, 10)).unwrap();
    let bound = params.ticket_bound(6).unwrap();
    let base = Swiper::new().restriction_family_member(&weights, &params, bound).unwrap();
    assert!(verify_restriction(&weights, &base, &params).unwrap());

    // Fairness gap with the deterministic base alone.
    let det = measure_elections(&base, &weights, &[], 6000, 3);

    // With the lottery, each round's combined assignment drives the
    // election; measure the gap across rounds.
    let fair = FairExtension::new(&weights, &base).unwrap();
    let rounds = 6000u64;
    let mut wins = [0u64; 6];
    for round in 0..rounds {
        let combined = fair.sample(round);
        let stats = measure_elections(&combined, &weights, &[], 1, round);
        for (p, w) in stats.wins.iter().enumerate() {
            wins[p] += w;
        }
    }
    let total_w = weights.total() as f64;
    let gap = wins
        .iter()
        .enumerate()
        .map(|(p, &w)| (w as f64 / rounds as f64 - weights.get(p) as f64 / total_w).abs())
        .fold(0.0, f64::max);
    assert!(
        gap <= det.fairness_gap + 0.02,
        "lottery must not worsen fairness: {gap} vs {}",
        det.fairness_gap
    );
    // Worst-case safety of the extension holds for this configuration.
    assert!(fair.verify_worst_case(&params).unwrap());
}

/// The inverse solver's threshold is feasible and its neighbor below on
/// the grid is infeasible-or-over-budget for the tested instance.
#[test]
fn inverse_budget_boundary_is_meaningful() {
    let weights = gen::zipf(40, 1.0, 100_000);
    let aw = Ratio::of(1, 3);
    let solver = Swiper::new();
    let budget = 30u64;
    let sol = min_alpha_n_for_budget(&weights, aw, budget, 50, &solver).unwrap().unwrap();
    assert!(sol.assignment.total() <= u128::from(budget));
    let params = WeightRestriction::new(aw, sol.alpha_n).unwrap();
    assert!(verify_restriction(&weights, &sol.assignment, &params).unwrap());
}

/// A DKG-generated key drives a beacon round end to end, with shares
/// distributed by tickets.
#[test]
fn dkg_key_powers_weighted_beacon() {
    let weights = Weights::new(vec![30, 25, 20, 15, 10]).unwrap();
    let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
    let tickets = Swiper::new().solve_restriction(&weights, &params).unwrap().assignment;

    let mut rng = StdRng::seed_from_u64(11);
    let dkg_params = dkg::DkgParams::majority(&tickets, &mut rng);
    let dealings: Vec<dkg::Dealing> =
        (0..5).map(|d| dkg::deal(&dkg_params, d, &mut rng)).collect();
    let (pk, shares) = dkg::aggregate(&dkg_params, &dealings).unwrap();
    let keys = TicketKeys::over(&tickets, dkg_params.threshold, pk, shares);

    // Honest parties 1..5 (70% of weight) produce the beacon alone.
    let msg = b"dkg beacon round 9";
    let partials: Vec<_> = (1..5).flat_map(|p| keys.partials(p, msg)).collect();
    assert!(partials.len() >= keys.threshold(), "honest majority holds enough shares");
    assert!(keys.combine(msg, &partials).is_some());

    // Party 0 alone (30% < 1/3) cannot.
    assert!(keys.combine(msg, &keys.partials(0, msg)).is_none());
}

/// CSV snapshots round-trip into the solver pipeline.
#[test]
fn csv_snapshot_to_solution() {
    let csv = "validator,stake\nv0,5000000\nv1,3200000\nv2,1100000\nv3,400000\nv4,90000\n";
    let weights = snapshot::parse_csv(csv).unwrap();
    assert_eq!(weights.len(), 5);
    let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
    let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
    assert!(verify_restriction(&weights, &sol.assignment, &params).unwrap());
    // Serialize the weights back out and re-solve identically
    // (determinism across the I/O boundary).
    let back = snapshot::parse_csv(&snapshot::to_csv(&weights)).unwrap();
    let sol2 = Swiper::new().solve_restriction(&back, &params).unwrap();
    assert_eq!(sol.assignment, sol2.assignment);
}

/// Family members at or above the bound are always valid; far above the
/// bound they approach proportionality.
#[test]
fn family_members_above_bound_are_valid_and_proportional() {
    let weights = Weights::new(vec![500, 300, 120, 50, 20, 10]).unwrap();
    let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
    let bound = params.ticket_bound(6).unwrap();
    for total in [bound, bound + 7, 4 * bound] {
        let member = Swiper::new().restriction_family_member(&weights, &params, total).unwrap();
        assert_eq!(member.total(), u128::from(total));
        assert!(
            verify_restriction(&weights, &member, &params).unwrap(),
            "member at total {total} must be valid"
        );
    }
    // Proportionality: at 4x the bound, each party's ticket share is
    // within 2 percentage points of its weight share.
    let big = Swiper::new().restriction_family_member(&weights, &params, 4 * bound).unwrap();
    for (i, w) in weights.iter() {
        let tshare = big.get(i) as f64 / big.total() as f64;
        let wshare = w as f64 / weights.total() as f64;
        assert!((tshare - wshare).abs() < 0.02, "party {i}: {tshare} vs {wshare}");
    }
}
