//! Randomness-beacon benchmarks: weighted (WR tickets) vs nominal share
//! signing and combination — the measured counterpart of Table 1's
//! RNG rows (x1.33 bound for WR(1/3, 1/2)).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use swiper_core::{Ratio, Swiper, WeightRestriction, Weights};
use swiper_protocols::beacon::BeaconSetup;

fn bench_beacon_rounds(c: &mut Criterion) {
    let n = 20;
    let mut group = c.benchmark_group("beacon_n20");
    group.sample_size(20);

    // Nominal: one share per party, threshold n/2.
    let nominal = BeaconSetup::nominal(n, Ratio::of(1, 2), &mut StdRng::seed_from_u64(1));
    group.bench_function("nominal_sign_and_combine", |b| {
        b.iter(|| sign_and_combine(black_box(&nominal), 9))
    });

    // Weighted on a skewed distribution.
    let weights = Weights::new((1..=n as u64).map(|i| i * i).collect()).unwrap();
    let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
    let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
    let weighted =
        BeaconSetup::deal(&sol.assignment, Ratio::of(1, 2), &mut StdRng::seed_from_u64(1));
    group.bench_function("weighted_sign_and_combine", |b| {
        b.iter(|| sign_and_combine(black_box(&weighted), 9))
    });

    group.finish();
}

fn sign_and_combine(setup: &BeaconSetup, round: u64) -> [u8; 32] {
    let tag = BeaconSetup::round_tag(round);
    let keys = &setup.keys;
    let mut partials: Vec<_> =
        (0..keys.mapping().parties()).flat_map(|p| keys.partials(p, &tag)).collect();
    partials.truncate(keys.threshold());
    let sig = keys.combine(&tag, &partials).expect("threshold met");
    *BeaconSetup::output_of(&sig).as_bytes()
}

criterion_group!(benches, bench_beacon_rounds);
criterion_main!(benches);
