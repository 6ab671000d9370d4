//! Quickstart: reduce real-looking stake weights to tickets and inspect
//! the guarantees.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use swiper::core::{verify_restriction, CoreError};
use swiper::{Mode, Ratio, Swiper, VirtualUsers, WeightRestriction, Weights};

fn main() -> Result<(), CoreError> {
    // A small proof-of-stake validator set (stake in tokens; no single
    // validator reaches the 1/3 corruption threshold).
    let stake = Weights::new(vec![
        950_000, 880_000, 610_000, 420_000, 220_000, 90_000, 55_000, 31_000, 9_000, 1_200,
    ])?;
    println!("validators: {}  total stake: {}", stake.len(), stake.total());

    // Goal (paper Section 4.1): run a nominal 1/2-threshold randomness
    // beacon while tolerating < 1/3 of *stake* being corrupt.
    let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2))?;

    for (label, mode) in [("full", Mode::Full), ("linear", Mode::Linear)] {
        let solution = Swiper::with_mode(mode).solve_restriction(&stake, &params)?;
        let holders: Vec<_> = solution.assignment.nonzero().collect();
        println!("\n[{label} mode] holders (party, tickets) = {holders:?}");
        println!(
            "  total T = {} (theoretical bound {}), holders = {}, max = {}",
            solution.total_tickets(),
            solution.ticket_bound,
            solution.assignment.holders(),
            solution.assignment.max_tickets(),
        );
        // The exact verifier replays the knapsack check.
        assert!(verify_restriction(&stake, &solution.assignment, &params)?);
        println!("  verified: every sub-1/3-stake coalition holds < 1/2 of tickets");

        // Hand out virtual users for the nominal protocol.
        let mapping = VirtualUsers::from_assignment(&solution.assignment)?;
        println!(
            "  virtual users: {} (validator 0 controls {:?})",
            mapping.total(),
            mapping.virtuals_of(0).collect::<Vec<_>>()
        );
    }
    Ok(())
}
