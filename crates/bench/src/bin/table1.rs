//! Regenerates **Table 1**: worst-case communication/computation overhead
//! of the derived weighted protocols, analytically (from the theorems) and
//! — for the broadcast rows — *measured* on the simulator by running the
//! nominal and weighted protocols side by side on a worst-case (equal)
//! weight distribution.
//!
//! ```text
//! cargo run --release -p swiper-bench --bin table1
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper_bench::TextTable;
use swiper_core::{
    Instance, Ratio, Solution, Swiper, WeightQualification, WeightRestriction, Weights,
};
use swiper_net::{Protocol, Simulation};
use swiper_protocols::avid::{AvidConfig, AvidMsg, AvidNode};
use swiper_protocols::beacon::{BeaconMsg, BeaconNode, BeaconSetup};
use swiper_protocols::overhead;

fn main() {
    println!("Table 1 — worst-case overhead factors (analytic, tight bounds)\n");
    let mut table = TextTable::new(vec![
        "protocol",
        "reduction",
        "f_w",
        "f_n",
        "comm (ours)",
        "comp (ours)",
        "comm (paper)",
        "comp (paper)",
    ]);
    for row in overhead::table1() {
        table.row(vec![
            row.protocol.to_string(),
            row.reduction.to_string(),
            row.f_w.to_string(),
            row.f_n.to_string(),
            format!("x{:.2}", row.comm),
            format!("x{:.2}", row.comp),
            format!("x{:.2}", row.paper.0),
            format!("x{:.2}", row.paper.1),
        ]);
    }
    println!("{}", table.render());
    println!(
        "rows where ours < paper use the Theorem 2.1 bound with the optimized constant c\n"
    );

    // Both measured rows run on the same worst-case (equal) weight
    // distribution; their reductions are independent, so solve them as one
    // batch.
    let n = 10;
    let weights = Weights::new(vec![7; n]).unwrap();
    let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
    let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
    let solutions = Swiper::new()
        .solve_many(&[
            Instance::qualification(weights.clone(), wq),
            Instance::restriction(weights.clone(), wr),
        ])
        .unwrap();

    measured_broadcast_overhead(&weights, &solutions[0]);
    measured_beacon_overhead(&solutions[1]);
}

/// Measured AVID overhead: weighted vs nominal bytes on the simulator with
/// an equal-weight (worst-case) distribution.
fn measured_broadcast_overhead(weights: &Weights, sol: &Solution) {
    println!("Measured: erasure-coded broadcast (AVID), nominal vs weighted");
    let n = weights.len();
    let blob = vec![0x5A; 30_000];

    let nominal_cfg = AvidConfig::nominal(n);
    let nominal = run_avid(&nominal_cfg, n, &blob, 11);

    let weighted_cfg = AvidConfig::weighted(weights.clone(), &sol.assignment, Ratio::of(1, 4));
    let weighted = run_avid(&weighted_cfg, n, &blob, 11);

    let factor = weighted as f64 / nominal as f64;
    let mut t = TextTable::new(vec!["variant", "k", "m", "total bytes", "overhead"]);
    t.row(vec![
        "nominal".to_string(),
        nominal_cfg.k().to_string(),
        nominal_cfg.m().to_string(),
        nominal.to_string(),
        "x1.00".to_string(),
    ]);
    t.row(vec![
        "weighted (WQ 1/3 -> 1/4)".to_string(),
        weighted_cfg.k().to_string(),
        weighted_cfg.m().to_string(),
        weighted.to_string(),
        format!("x{factor:.2}"),
    ]);
    println!("{}", t.render());
    println!("paper bound: x1.33 comm — measured factor should sit at or below it\n");
}

fn run_avid(config: &AvidConfig, n: usize, blob: &[u8], seed: u64) -> u64 {
    let mut nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> = Vec::new();
    nodes.push(Box::new(AvidNode::dealer(config.clone(), 0, blob.to_vec())));
    for _ in 1..n {
        nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
    }
    let report = Simulation::new(nodes, seed).run();
    assert!(report.outputs.iter().all(|o| o.is_some()), "AVID must deliver");
    report.metrics.total_bytes()
}

/// Measured beacon overhead: share-message bytes, weighted vs nominal.
fn measured_beacon_overhead(sol: &Solution) {
    println!("Measured: randomness beacon (common coin), nominal vs weighted");
    let n = sol.assignment.len();
    let nominal_setup = BeaconSetup::nominal(n, Ratio::of(1, 2), &mut StdRng::seed_from_u64(1));
    let nominal = run_beacon(&nominal_setup, 7);

    let weighted_setup =
        BeaconSetup::deal(&sol.assignment, Ratio::of(1, 2), &mut StdRng::seed_from_u64(1));
    let total_tickets = sol.total_tickets();
    let weighted = run_beacon(&weighted_setup, 7);

    let factor = weighted as f64 / nominal as f64;
    let mut t = TextTable::new(vec!["variant", "shares", "total bytes", "overhead"]);
    t.row(vec!["nominal".to_string(), n.to_string(), nominal.to_string(), "x1.00".into()]);
    t.row(vec![
        "weighted (WR 1/3 -> 1/2)".to_string(),
        total_tickets.to_string(),
        weighted.to_string(),
        format!("x{factor:.2}"),
    ]);
    println!("{}", t.render());
    println!("paper bound: x1.33 — ticket inflation T/n <= 4/3 for WR(1/3, 1/2)");
}

fn run_beacon(setup: &BeaconSetup, seed: u64) -> u64 {
    let n = setup.keys.mapping().parties();
    let nodes: Vec<Box<dyn Protocol<Msg = BeaconMsg>>> =
        (0..n).map(|_| Box::new(BeaconNode::new(setup.clone(), 1)) as _).collect();
    let report = Simulation::new(nodes, seed).run();
    assert!(report.outputs.iter().all(|o| o.is_some()), "beacon must complete");
    report.metrics.total_bytes()
}
