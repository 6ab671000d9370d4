//! End-to-end broadcast benchmarks on the simulator: Bracha (payload once
//! per receiver, digest votes) vs AVID (erasure-coded), nominal vs
//! weighted — the measured counterpart of Table 1's broadcast rows.

use criterion::{criterion_group, criterion_main, Criterion};
use swiper_core::{Mode, Ratio, Swiper, WeightQualification, Weights};
use swiper_net::{Protocol, Simulation};
use swiper_protocols::avid::{AvidConfig, AvidMsg, AvidNode};
use swiper_protocols::bracha::{BrachaConfig, BrachaMsg, BrachaNode};

fn run_bracha(n: usize, blob: &[u8], seed: u64) -> u64 {
    let config = BrachaConfig::nominal(n);
    let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
    nodes.push(Box::new(BrachaNode::sender(config.clone(), 0, blob.to_vec())));
    for _ in 1..n {
        nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
    }
    Simulation::new(nodes, seed).run().metrics.total_bytes()
}

fn run_avid(config: &AvidConfig, n: usize, blob: &[u8], seed: u64) -> u64 {
    let mut nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> = Vec::new();
    nodes.push(Box::new(AvidNode::dealer(config.clone(), 0, blob.to_vec())));
    for _ in 1..n {
        nodes.push(Box::new(AvidNode::new(config.clone(), 0)));
    }
    Simulation::new(nodes, seed).run().metrics.total_bytes()
}

fn bench_broadcast(c: &mut Criterion) {
    let n = 10;
    let blob = vec![0x11u8; 16 * 1024];
    let mut group = c.benchmark_group("broadcast_16KiB_n10");
    group.sample_size(10);

    group.bench_function("bracha_nominal", |b| b.iter(|| run_bracha(n, &blob, 3)));

    let nominal = AvidConfig::nominal(n);
    group.bench_function("avid_nominal", |b| b.iter(|| run_avid(&nominal, n, &blob, 3)));

    // Weighted with the worst-case (equal) distribution.
    let weights = Weights::new(vec![5; n]).unwrap();
    let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
    let sol = Swiper::with_mode(Mode::Full).solve_qualification(&weights, &wq).unwrap();
    let weighted = AvidConfig::weighted(weights, &sol.assignment, Ratio::of(1, 4));
    group.bench_function("avid_weighted_equalw", |b| {
        b.iter(|| run_avid(&weighted, n, &blob, 3))
    });

    // Weighted with a skewed (organic-like) distribution: fewer tickets.
    let weights = Weights::new(vec![300, 200, 150, 100, 90, 60, 40, 30, 20, 10]).unwrap();
    let sol = Swiper::with_mode(Mode::Full).solve_qualification(&weights, &wq).unwrap();
    let weighted_skew = AvidConfig::weighted(weights, &sol.assignment, Ratio::of(1, 4));
    group.bench_function("avid_weighted_skewed", |b| {
        b.iter(|| run_avid(&weighted_skew, n, &blob, 3))
    });

    group.finish();

    // Print the byte-count comparison once (factors, not time).
    let b_bytes = run_bracha(n, &blob, 3);
    let a_bytes = run_avid(&nominal, n, &blob, 3);
    let w_bytes = run_avid(&weighted, n, &blob, 3);
    println!(
        "bytes: bracha={} avid_nominal={} avid_weighted={} (weighted/nominal = x{:.2}; paper bound x1.33)",
        b_bytes,
        a_bytes,
        w_bytes,
        w_bytes as f64 / a_bytes as f64
    );
}

criterion_group!(benches, bench_broadcast);
criterion_main!(benches);
