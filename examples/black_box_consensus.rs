//! The black-box transformation (paper Section 4.4): take a *nominal*
//! binary agreement implementation, hand each weighted party `t_i` virtual
//! identities via Weight Restriction, and run the wrapped protocol
//! unchanged — resilience `f_w = f_n - epsilon`.
//!
//! ```text
//! cargo run --example black_box_consensus
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper::net::{Protocol, Simulation};
use swiper::protocols::aba::{AbaMsg, AbaNode, AbaSetup};
use swiper::protocols::blackbox::{BlackBox, BlackBoxConfig, BlackBoxMsg};
use swiper::{Ratio, Swiper, WeightRestriction, Weights};

fn main() {
    // Weighted system: 5 parties with skewed but non-dominant stake (no
    // party can run a supermajority of virtual identities alone).
    let weights = Weights::new(vec![300, 250, 200, 150, 100]).unwrap();
    // f_w = 1/4 < f_n = 1/3: the epsilon resilience price of black-boxing.
    let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
    let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
    println!(
        "WR(1/4, 1/3) holders (party, tickets): {:?} -> {} virtual identities",
        sol.assignment.nonzero().collect::<Vec<_>>(),
        sol.total_tickets()
    );

    let config = BlackBoxConfig::new(weights, &sol.assignment, Ratio::of(1, 4));
    let total = config.virtual_count();

    // The nominal protocol: MMR-style binary agreement for `total` nodes.
    let setup = AbaSetup::nominal(total, 1, &mut StdRng::seed_from_u64(1));

    // Parties 0 and 2 propose `true`; the rest propose `false`.
    let inputs = [true, false, true, false, false];
    let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<AbaMsg>>>> = (0..5)
        .map(|party| {
            let s = setup.clone();
            let input = inputs[party];
            // Every virtual identity of a party inherits the party's input
            // (the problem-specific input mapping of Section 4.4).
            Box::new(BlackBox::new(config.clone(), party, move |_v, _roster| {
                AbaNode::new(s.clone(), input)
            })) as _
        })
        .collect();

    let report = Simulation::new(nodes, 99).run();
    for (party, out) in report.outputs.iter().enumerate() {
        println!(
            "party {party} (input {:5}) decided {:?}",
            inputs[party],
            out.as_ref().map(|o| o[0] == 1)
        );
    }
    assert!(report.agreement_among(&[0, 1, 2, 3, 4]), "agreement must hold");
    println!(
        "\nagreement across all weighted parties; {} simulator events, {} messages",
        report.events,
        report.metrics.total_messages()
    );
}
