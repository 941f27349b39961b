//! Criterion bench for the separator-anchored cut search against the
//! exhaustive scan: fixed gallery instances plus the E13 ring+chords
//! family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rmt_core::cuts::{
    find_rmt_cut, find_rmt_cut_anchored, zpp_cut_by_enumeration, zpp_cut_by_enumeration_anchored,
};
use rmt_core::sampling::threshold_instance;
use rmt_core::{gallery, Instance};
use rmt_graph::generators::{self, seeded};
use rmt_graph::ViewKind;
use std::hint::black_box;

fn gallery_instances() -> Vec<(&'static str, Instance)> {
    vec![
        (
            "unsolvable_diamond",
            gallery::unsolvable_diamond(ViewKind::AdHoc),
        ),
        (
            "tolerant_diamond",
            gallery::tolerant_diamond(ViewKind::AdHoc),
        ),
        ("staggered_theta", gallery::staggered_theta(ViewKind::AdHoc)),
    ]
}

fn bench_gallery(c: &mut Criterion) {
    let mut group = c.benchmark_group("cut_search/gallery");
    for (name, inst) in gallery_instances() {
        group.bench_with_input(BenchmarkId::new("exhaustive", name), &inst, |b, inst| {
            b.iter(|| black_box(find_rmt_cut(inst, None)))
        });
        group.bench_with_input(BenchmarkId::new("anchored", name), &inst, |b, inst| {
            b.iter(|| black_box(find_rmt_cut_anchored(inst)))
        });
    }
    group.finish();
}

fn bench_ring_family(c: &mut Criterion) {
    let mut group = c.benchmark_group("cut_search/ring_chords");
    // Threshold 0: solvable, so both deciders run their full scan — the
    // worst case the anchoring is built for.
    for &n in &[12usize, 16] {
        let mut rng = seeded(0xE13);
        let g = generators::ring_with_chords(n, n / 4, &mut rng);
        let inst = threshold_instance(g, 0, ViewKind::AdHoc, 0, (n / 2) as u32);
        group.bench_with_input(BenchmarkId::new("exhaustive", n), &inst, |b, inst| {
            b.iter(|| black_box(find_rmt_cut(inst, None)))
        });
        group.bench_with_input(BenchmarkId::new("anchored", n), &inst, |b, inst| {
            b.iter(|| black_box(find_rmt_cut_anchored(inst)))
        });
        group.bench_with_input(BenchmarkId::new("zpp_exhaustive", n), &inst, |b, inst| {
            b.iter(|| black_box(zpp_cut_by_enumeration(inst)))
        });
        group.bench_with_input(BenchmarkId::new("zpp_anchored", n), &inst, |b, inst| {
            b.iter(|| black_box(zpp_cut_by_enumeration_anchored(inst)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gallery, bench_ring_family);
criterion_main!(benches);
