//! Chain-quality experiment for the black-box SSLE (paper Section 4.4):
//! with corrupt weight below `f_w`, the fraction of elections won by
//! corrupt parties stays below `alpha = f_n` — while *fairness* (win
//! frequency proportional to weight) is visibly NOT preserved, the
//! limitation the paper discusses in Section 9.
//!
//! ```text
//! cargo run --release -p swiper-bench --bin chain_quality
//! ```

use swiper_bench::TextTable;
use swiper_core::{Ratio, Swiper, WeightRestriction, Weights};
use swiper_protocols::ssle::measure_elections;
use swiper_weights::gen;

fn main() {
    println!("SSLE chain quality under WR(f_w = 1/4, f_n = 1/3), 10_000 rounds\n");
    let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
    let rounds = 10_000u64;

    let mut table = TextTable::new(vec![
        "distribution",
        "corrupt set",
        "corrupt weight",
        "corrupt tickets",
        "corrupt wins",
        "bound (f_n)",
        "fairness gap",
    ]);

    let cases: Vec<(&str, Weights, Vec<usize>)> = vec![
        ("equal n=20", gen::equal(20, 5), (0..4).collect()), // 20% < 25%
        (
            "zipf n=50",
            gen::zipf(50, 1.0, 1_000_000),
            // Corrupt the dust tail: many parties, little weight.
            (25..50).collect(),
        ),
        ("whale+dust", gen::one_whale(30, 60), vec![1, 2, 3, 4, 5, 6]),
    ];

    for (name, weights, corrupt) in cases {
        let corrupt_weight = weights.subset_weight(&corrupt);
        let frac_weight = corrupt_weight as f64 / weights.total() as f64;
        assert!(
            frac_weight < 0.25,
            "{name}: corrupt set must stay below f_w = 1/4 ({frac_weight})"
        );
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        let corrupt_tickets = sol.assignment.subset_tickets(&corrupt);
        let frac_tickets = corrupt_tickets as f64 / sol.total_tickets() as f64;
        let stats = measure_elections(&sol.assignment, &weights, &corrupt, rounds, 0xC0DE);
        table.row(vec![
            name.to_string(),
            format!("{} parties", corrupt.len()),
            format!("{:.1}%", frac_weight * 100.0),
            format!("{:.1}%", frac_tickets * 100.0),
            format!("{:.1}%", stats.corrupt_fraction * 100.0),
            "33.3%".to_string(),
            format!("{:.3}", stats.fairness_gap),
        ]);
        assert!(
            stats.corrupt_fraction < 1.0 / 3.0,
            "{name}: chain quality violated ({})",
            stats.corrupt_fraction
        );
    }
    println!("{}", table.render());
    println!("chain quality holds (corrupt wins < f_n); the non-zero fairness gap");
    println!("shows win frequencies track tickets, not weight (Section 9).");
}
