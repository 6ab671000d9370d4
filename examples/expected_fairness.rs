//! Expected fairness (paper Section 9): rebalance the fairness distortion
//! of deterministic tickets with a small lottery so that every party's
//! expected ticket share equals its weight share exactly — while safety
//! holds even if the adversary wins every lottery ticket.
//!
//! ```text
//! cargo run -p swiper --release --example expected_fairness
//! ```

use swiper::core::fairness::FairExtension;
use swiper::{Ratio, Swiper, WeightRestriction, Weights};

fn main() {
    let weights = Weights::new(vec![290, 260, 180, 130, 80, 60]).unwrap();
    let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 2)).unwrap();
    let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
    println!(
        "deterministic holders (party, tickets): {:?} (T = {})",
        sol.assignment.nonzero().collect::<Vec<_>>(),
        sol.total_tickets()
    );

    // Deterministic tickets distort shares (the SSLE fairness problem).
    println!("\nshare distortion before the lottery:");
    for (i, w) in weights.iter() {
        let tshare = sol.assignment.get(i) as f64 / sol.total_tickets() as f64;
        let wshare = w as f64 / weights.total() as f64;
        println!(
            "  party {i}: weight {:5.1}%  tickets {:5.1}%  (gap {:+.1}%)",
            wshare * 100.0,
            tshare * 100.0,
            (tshare - wshare) * 100.0
        );
    }

    let fair = FairExtension::new(&weights, &sol.assignment).unwrap();
    println!(
        "\nlottery: {} extra tickets (combined total {})",
        fair.lottery_tickets(),
        fair.total()
    );

    // Empirically the expectation matches the weight share.
    let rounds = 10_000u64;
    let mut sums = vec![0u128; weights.len()];
    for seed in 0..rounds {
        let combined = fair.sample(seed);
        for (i, s) in sums.iter_mut().enumerate() {
            *s += u128::from(combined.get(i));
        }
    }
    println!("\nempirical mean ticket share over {rounds} lotteries:");
    for (i, w) in weights.iter() {
        let mean_share = sums[i] as f64 / rounds as f64 / fair.total() as f64;
        let wshare = w as f64 / weights.total() as f64;
        println!(
            "  party {i}: weight {:5.2}%  mean tickets {:5.2}%  (gap {:+.2}%)",
            wshare * 100.0,
            mean_share * 100.0,
            (mean_share - wshare) * 100.0
        );
    }

    // Worst case: the adversary wins every lottery ticket.
    let safe = fair.verify_worst_case(&params).unwrap();
    println!(
        "\nworst-case safety (adversary wins ALL {} lottery tickets): {}",
        fair.lottery_tickets(),
        if safe { "Weight Restriction still holds" } else { "would break with this tiny base" }
    );

    if !safe {
        // The paper conjectures fairness "can be done while still
        // preserving safety ... deterministically". The knob: use a
        // *larger* family member (the theoretical-bound member is valid by
        // Theorem 2.1 and nearly proportional), so the lottery stays a
        // tiny fraction of the total. A narrow alpha_n gap makes the bound
        // member big.
        let narrow = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(3, 10)).unwrap();
        let bound = narrow.ticket_bound(weights.len() as u64).unwrap();
        let base = Swiper::new().restriction_family_member(&weights, &narrow, bound).unwrap();
        let fair = FairExtension::new(&weights, &base).unwrap();
        let safe = fair.verify_worst_case(&narrow).unwrap();
        println!(
            "with the WR(1/4, 3/10) bound member: base T = {} ({:?}), lottery R = {}, worst case {}",
            base.total(),
            base.nonzero().collect::<Vec<_>>(),
            fair.lottery_tickets(),
            if safe { "SAFE - fairness and safety coexist" } else { "still breaks" }
        );
    }
}
