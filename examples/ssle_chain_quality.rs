//! Single secret leader election with the chain-quality relaxation (paper
//! Section 4.4): weight reduction keeps corrupt parties below an `f_n`
//! fraction of elections, but win frequencies track tickets — fairness is
//! *not* preserved (Section 9's open problem).
//!
//! ```text
//! cargo run --example ssle_chain_quality
//! ```

use swiper::protocols::ssle::{measure_elections, SsleInstance};
use swiper::weights::stats;
use swiper::{Ratio, Swiper, WeightRestriction, Weights};

fn main() {
    let weights = Weights::new(vec![420, 330, 160, 50, 25, 15]).unwrap();
    println!("stake shares: {:?} (gini {:.2})", weights.as_slice(), stats::gini(&weights));

    let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
    let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
    println!("WR(1/4, 1/3) holders: {:?}", sol.assignment.nonzero().collect::<Vec<_>>());

    // Corrupt coalition: the three smallest parties (90/1000 = 9% < 25%).
    let corrupt = vec![3usize, 4, 5];
    let stats = measure_elections(&sol.assignment, &weights, &corrupt, 20_000, 7);

    println!("\nelections: {} rounds", stats.rounds);
    for (party, wins) in stats.wins.iter().enumerate() {
        let freq = *wins as f64 / stats.rounds as f64;
        let share = weights.get(party) as f64 / weights.total() as f64;
        println!(
            "  party {party}: won {:5.1}% of rounds (stake share {:5.1}%){}",
            freq * 100.0,
            share * 100.0,
            if corrupt.contains(&party) { "  [corrupt]" } else { "" }
        );
    }
    println!(
        "\nchain quality: corrupt won {:.2}% < f_n = 33.3%  (guaranteed)",
        stats.corrupt_fraction * 100.0
    );
    println!(
        "fairness gap: {:.3} — win frequency deviates from stake share, the\n\
         price of discretized tickets (paper Section 9)",
        stats.fairness_gap
    );

    // Secrecy: only the elected party can open the winning commitment.
    let instance = SsleInstance::setup(&sol.assignment, 7);
    let beacon = swiper::crypto::hash::digest(b"epoch-randomness");
    let election = instance.elect(0, &beacon);
    let winner = instance.winner_party(&election);
    let proof = instance.prove(&election, winner).expect("winner can prove");
    assert!(instance.verify(&election, &proof));
    println!("\nround 0 winner: party {winner} (proof verifies; losers cannot prove)");
}
