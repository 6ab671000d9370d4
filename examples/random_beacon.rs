//! Weighted randomness beacon (paper Section 4.1): Weight Restriction
//! deals threshold-signature shares to virtual users; each round the
//! parties exchange partials and hash the unique combined signature.
//!
//! ```text
//! cargo run --example random_beacon
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper::net::{Protocol, Simulation};
use swiper::protocols::beacon::{BeaconMsg, BeaconNode, BeaconSetup};
use swiper::{Ratio, Swiper, WeightRestriction, Weights};

fn main() {
    let weights = Weights::new(vec![500, 300, 120, 50, 20, 10]).unwrap();
    let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
    let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
    let setup =
        BeaconSetup::deal(&sol.assignment, Ratio::of(1, 2), &mut StdRng::seed_from_u64(42));
    println!(
        "holders (party, tickets) {:?} -> {} key shares, combine threshold {}",
        sol.assignment.nonzero().collect::<Vec<_>>(),
        sol.total_tickets(),
        setup.keys.threshold()
    );
    let mapping = setup.keys.mapping();
    println!(
        "share bundles per party: {:?}",
        (0..mapping.parties()).map(|p| mapping.tickets_of(p)).collect::<Vec<_>>()
    );

    for round in 1..=3u64 {
        let nodes: Vec<Box<dyn Protocol<Msg = BeaconMsg>>> = (0..weights.len())
            .map(|_| Box::new(BeaconNode::new(setup.clone(), round)) as _)
            .collect();
        let report = Simulation::new(nodes, round).run();
        let out = report.outputs[0].as_ref().expect("beacon output");
        // All parties agree on the round randomness.
        assert!(report.outputs.iter().all(|o| o.as_ref() == Some(out)));
        let hex: String = out.iter().take(16).map(|b| format!("{b:02x}")).collect();
        println!(
            "round {round}: randomness {hex}.. ({} messages, {} bytes)",
            report.metrics.total_messages(),
            report.metrics.total_bytes()
        );
    }
    println!("\nunpredictability: any coalition below 1/3 of stake holds fewer than");
    println!("half the shares (Weight Restriction), so it cannot combine the signature.");
}
