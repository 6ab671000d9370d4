//! Weighted erasure-coded broadcast (paper Section 5.1): Weight
//! Qualification sizes the fragments, AVID disperses a blob across a
//! weighted validator set on the simulated network, and everyone
//! reconstructs — while a heavy party stays silent.
//!
//! ```text
//! cargo run --example weighted_broadcast
//! ```

use swiper::net::adversary::Silent;
use swiper::net::{Protocol, Simulation};
use swiper::protocols::avid::{AvidConfig, AvidMsg, AvidNode};
use swiper::protocols::bracha::{BrachaConfig, BrachaMsg, BrachaNode};
use swiper::{Ratio, Swiper, WeightQualification, Weights};

fn main() {
    let weights = Weights::new(vec![400, 250, 150, 100, 60, 40]).unwrap();
    let blob = vec![0xAB; 50_000];

    // WQ(beta_w = f_w = 1/3, beta_n = 1/4): fragments per ticket.
    let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
    let sol = Swiper::new().solve_qualification(&weights, &wq).unwrap();
    println!("WQ tickets: {:?} (T = {})", sol.assignment.as_slice(), sol.total_tickets());

    let config = AvidConfig::weighted(weights, &sol.assignment, Ratio::of(1, 4));
    println!("code: any {} of {} fragments reconstruct", config.k(), config.m());

    // Party 2 (150/1000 < 1/3 of weight) is silent.
    let mut nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> = Vec::new();
    nodes.push(Box::new(AvidNode::dealer(config.clone(), 0, blob.clone())));
    nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
    nodes.push(Box::new(Silent::new()));
    for _ in 3..6 {
        nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
    }
    let avid = Simulation::new(nodes, 7).run();
    for (i, out) in avid.outputs.iter().enumerate() {
        match out {
            Some(data) => println!("party {i}: delivered {} bytes", data.len()),
            None => println!("party {i}: (silent adversary)"),
        }
    }
    assert!(avid.outputs[1].as_deref() == Some(blob.as_slice()));

    // Baseline: Bracha RBC votes on digests and ships the blob once per
    // receiver, so its cost is the sender's upload, n * |M|. The AVID
    // dealer uploads n/k * |M| of fragments and then relays its own
    // tickets' fragments to everyone: with k = 2 and a whale dealer that
    // is *more* than Bracha's sender at this toy size — the dealer's edge
    // needs k to grow with n (`avid_beats_bracha_on_bytes`: n = 13, k = 5).
    let config = BrachaConfig::nominal(6);
    let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
    nodes.push(Box::new(BrachaNode::sender(config.clone(), 0, blob.clone())));
    for _ in 1..6 {
        nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
    }
    let bracha = Simulation::new(nodes, 7).run();

    println!(
        "\nsender upload: AVID dealer {} bytes vs Bracha sender {} bytes (ratio {:.2})",
        avid.metrics.bytes_sent_by(0),
        bracha.metrics.bytes_sent_by(0),
        avid.metrics.bytes_sent_by(0) as f64 / bracha.metrics.bytes_sent_by(0) as f64
    );
}
