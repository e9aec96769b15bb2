//! Micro-benchmarks for the flat-graph (CSR) hot paths at the paper's
//! scale points: lowering, Howard analysis and ordering refinement, each
//! at soc:1k and soc:10k.
//!
//! These are the paths the CSR refactor touches — per-node `Vec`
//! adjacency replaced by offset arrays in the lowering and the ratio
//! graph, a reused Howard scratch arena, and in-place swap evaluation in
//! refinement — so this suite is where a layout regression shows up
//! first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use sysgraph::lower_to_tmg;

const SIZES: [usize; 2] = [1_000, 10_000];

fn ordered_system(n: usize) -> sysgraph::SystemGraph {
    let soc = socgen::generate(socgen::SocGenConfig::sized(n, n * 3 / 2, 42));
    let mut sys = soc.system;
    let solution = chanorder::order_channels(&sys);
    solution.ordering.apply_to(&mut sys).expect("valid");
    sys
}

fn bench_lower(c: &mut Criterion) {
    let mut group = c.benchmark_group("flatgraph_lower");
    group.sample_size(10);
    for &n in &SIZES {
        let sys = ordered_system(n);
        group.bench_with_input(BenchmarkId::new("lower", n), &sys, |b, s| {
            b.iter(|| black_box(lower_to_tmg(s)));
        });
    }
    group.finish();
}

fn bench_howard(c: &mut Criterion) {
    let mut group = c.benchmark_group("flatgraph_howard");
    group.sample_size(10);
    for &n in &SIZES {
        let lowered = lower_to_tmg(&ordered_system(n));
        group.bench_with_input(BenchmarkId::new("howard", n), &lowered, |b, l| {
            b.iter(|| black_box(tmg::analyze(l.tmg())));
        });
    }
    group.finish();
}

fn bench_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("flatgraph_order");
    group.sample_size(10);
    for &n in &SIZES {
        let soc = socgen::generate(socgen::SocGenConfig::sized(n, n * 3 / 2, 42));
        group.bench_with_input(BenchmarkId::new("order", n), &soc.system, |b, s| {
            b.iter(|| black_box(chanorder::order_channels(s)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lower, bench_howard, bench_order);
criterion_main!(benches);
