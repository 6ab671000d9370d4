//! Knapsack machinery benchmarks: the exact DP against the quasilinear
//! bounds that Swiper's quick test uses to dodge it (Section 3.1).
//!
//! The solver only ever runs the DP on a family member the quick test
//! leaves *uncertain*, a few tickets either side of the flip, so that is
//! what the `dp_check` cells time: the last member a cold solve over a
//! whale-skewed population needed the DP for, re-checked through
//! [`FullOracle::check`] — the item view and quick test the solver pays on
//! every probe, then the floor-reduced DP. The bound cells time the quick
//! test's parts alone on the same WR member.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use swiper_core::knapsack::{
    fractional_upper_bound_reaches, greedy_lower_bound_reaches, quick_test, Item,
};
use swiper_core::oracle::{CheckParams, FamilyMember, ValidityOracle, Verdict};
use swiper_core::{
    CoreError, FullOracle, Instance, Ratio, SolveStats, Swiper, TicketAssignment,
    WeightQualification, WeightRestriction, WeightSeparation,
};
use swiper_weights::gen;

/// The exact oracle, remembering the last check it settled by the DP.
#[derive(Default)]
struct LastDpSettled {
    inner: FullOracle,
    last: Option<(TicketAssignment, CheckParams)>,
    stats: SolveStats,
}

impl ValidityOracle for LastDpSettled {
    fn check(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Result<Verdict, CoreError> {
        let verdict = self.inner.check(member, params)?;
        let settled = self.inner.take_stats();
        if settled.dp_invocations > 0 {
            self.last = Some((member.materialize(), *params));
        }
        self.stats.absorb(&settled);
        Ok(verdict)
    }

    fn take_stats(&mut self) -> SolveStats {
        std::mem::take(&mut self.stats)
    }
}

fn bench_dp_vs_bounds(c: &mut Criterion) {
    let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).expect("valid");
    let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).expect("valid");
    let ws = WeightSeparation::new(Ratio::of(1, 3), Ratio::of(1, 2)).expect("valid");
    let mut group = c.benchmark_group("knapsack");
    group.sample_size(20);
    for n in [10_000usize, 100_000] {
        // The populations `solver_scale` and `benchmark/` sweep.
        let w = gen::whale_mix(n, (n / 10_000).max(8), 1 ^ n as u64);
        for (shape, instance) in [
            ("WR", Instance::restriction(w.clone(), wr)),
            ("WQ", Instance::qualification(w.clone(), wq)),
            ("WS", Instance::separation(w.clone(), ws)),
        ] {
            let mut finder = LastDpSettled::default();
            Swiper::new().solve_instance_with(&mut finder, &instance).expect("solvable");
            let (tickets, params) =
                finder.last.unwrap_or_else(|| panic!("{shape} at n = {n} never ran the DP"));
            let member = FamilyMember::from((&w, &tickets));
            let total = member.total;
            let mut oracle = FullOracle::new();
            group.bench_function(BenchmarkId::new(format!("dp_check/{shape}"), n), |b| {
                b.iter(|| oracle.check(black_box(&member), &params))
            });
            let settled = oracle.take_stats();
            assert!(
                settled.dp_invocations > 0
                    && settled.settled_by_upper_bound + settled.settled_by_lower_bound == 0,
                "{shape} at n = {n}: the quick test settled the member"
            );
            // The quick test's parts alone, on the WR member.
            let ("WR", CheckParams::Restriction { capacity, alpha_n }) = (shape, params) else {
                continue;
            };
            let target = alpha_n.ceil_mul(total.into()).expect("in envelope") as u64;
            // The holders' items, as the oracle reads them.
            let items: Vec<Item> = member.nonzero().map(|(_, item)| item).collect();
            group.bench_with_input(BenchmarkId::new("upper_bound", n), &items, |b, its| {
                b.iter(|| fractional_upper_bound_reaches(black_box(its), capacity, target))
            });
            group.bench_with_input(BenchmarkId::new("lower_bound", n), &items, |b, its| {
                b.iter(|| greedy_lower_bound_reaches(black_box(its), capacity, target))
            });
            group.bench_with_input(BenchmarkId::new("quick_test", n), &items, |b, its| {
                b.iter(|| quick_test(black_box(its), capacity, target))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dp_vs_bounds);
criterion_main!(benches);
