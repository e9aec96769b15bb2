//! Benchmarks the exact selection engine on area-recovery-shaped
//! knapsacks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ilp::{solve_multiple_choice_knapsack, McItem};
use std::hint::black_box;

fn instance(groups: usize, items: usize) -> Vec<Vec<McItem>> {
    (0..groups)
        .map(|g| {
            (0..items)
                .map(|i| McItem {
                    value: ((g * 7 + i * 13) % 19) as f64,
                    weight: ((g * 5 + i * 3) % 11) as i64,
                })
                .collect()
        })
        .collect()
}

fn bench_ilp(c: &mut Criterion) {
    let mut group = c.benchmark_group("ilp");
    group.sample_size(10);
    for &g in &[8usize, 16, 26] {
        let groups = instance(g, 6);
        let cap = Some((g * 6) as i64);
        group.bench_with_input(BenchmarkId::new("mckp_engine", g), &groups, |b, gr| {
            b.iter(|| black_box(solve_multiple_choice_knapsack(gr, cap, &[])));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ilp);
criterion_main!(benches);
