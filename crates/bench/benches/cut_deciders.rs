//! Criterion bench for the cut deciders: the exhaustive RMT-cut search vs
//! the polynomial Z-CPA fixpoint decider, across instance sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rmt_core::cuts::{find_rmt_cut, zpp_cut_by_enumeration, zpp_cut_by_fixpoint};
use rmt_core::sampling::random_instance_nonadjacent;
use rmt_graph::generators::seeded;
use rmt_graph::ViewKind;
use std::hint::black_box;

fn bench_cuts(c: &mut Criterion) {
    let mut group = c.benchmark_group("cut_deciders");
    for &n in &[6usize, 8, 10, 12] {
        let mut rng = seeded(n as u64);
        let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
        group.bench_with_input(BenchmarkId::new("rmt_cut_exhaustive", n), &n, |b, _| {
            b.iter(|| black_box(find_rmt_cut(&inst, None)))
        });
        group.bench_with_input(BenchmarkId::new("zpp_enumeration", n), &n, |b, _| {
            b.iter(|| black_box(zpp_cut_by_enumeration(&inst)))
        });
        group.bench_with_input(BenchmarkId::new("zpp_fixpoint", n), &n, |b, _| {
            b.iter(|| black_box(zpp_cut_by_fixpoint(&inst, None)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cuts);
criterion_main!(benches);
