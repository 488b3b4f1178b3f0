//! Lower-bound and SDP timing: the exhaustive CSP search behind the exact
//! `R_s(n,2)` values, the pigeonhole certificate construction, the
//! Theorem 7 density witnesses (the `exact`, `pigeonhole` and `density`
//! sections of `repro lower`), and the SDP solve + rounding (`repro sdp`).
//!
//! `density_witness_n24` runs `worst_overlap_one_pair` with the `lower`
//! pipeline's arguments (`n = 24`, `T = 2²²`, shift stride 5, at most 128
//! shifts) and times one `∆(h, σ; T)` both period-folded and through the
//! per-slot `density::naive` reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdv_core::channel::ChannelSet;
use rdv_core::general::GeneralSchedule;
use rdv_lower::{density, exact, pigeonhole};
use rdv_sdp::{solve, OrientGraph, SdpConfig};
use std::hint::black_box;

fn bench_exact_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_rs_n2");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.sample_size(10);
    for n in [4u64, 6, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(exact::exact_rs_n2(n, 5, 1 << 24)))
        });
    }
    group.finish();
}

fn bench_pigeonhole(c: &mut Criterion) {
    let round_robin = |set: &ChannelSet| {
        rdv_core::schedule::CyclicSchedule::new(set.iter().collect()).expect("non-empty")
    };
    c.bench_function("pigeonhole_certify_n64_k3", |b| {
        b.iter(|| black_box(pigeonhole::certify(&round_robin, 64, 3, 2)))
    });
}

fn bench_density_witness(c: &mut Criterion) {
    const N: u64 = 24;
    const HORIZON: u64 = 1 << 22;
    let family = |set: &ChannelSet| GeneralSchedule::asynchronous(N, set.clone()).expect("valid");
    let mut group = c.benchmark_group("density_witness_n24");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.sample_size(10);
    for (k, l) in [(2usize, 2usize), (3, 3)] {
        group.bench_with_input(
            BenchmarkId::new("worst_overlap_one_pair", format!("k={k},l={l}")),
            &(k, l),
            |b, &(k, l)| {
                b.iter(|| {
                    black_box(density::worst_overlap_one_pair(
                        &family, N, k, l, HORIZON, 5, 128,
                    ))
                })
            },
        );
    }
    let s = family(&ChannelSet::new(1..=3).expect("non-empty"));
    group.bench_function("density/folded", |b| {
        b.iter(|| black_box(density::density(&s, 3, HORIZON)))
    });
    group.bench_function("density/naive", |b| {
        b.iter(|| black_box(density::naive::density(&s, 3, HORIZON)))
    });
    group.finish();
}

fn bench_sdp(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdp_solve");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.sample_size(10);
    for m in [6usize, 12, 20] {
        let edges: Vec<(u32, u32)> = (0..m as u32)
            .map(|i| (i % 7, (i % 7 + 1 + i / 7) % 8))
            .collect();
        let g = OrientGraph::new(8, edges).expect("valid");
        group.bench_with_input(BenchmarkId::from_parameter(m), &g, |b, g| {
            b.iter(|| black_box(solve(g, &SdpConfig::default())))
        });
    }
    group.finish();
}

criterion_group! {name = benches; config = Criterion::default().warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(900)).sample_size(10); targets = bench_exact_search, bench_pigeonhole, bench_density_witness, bench_sdp}
criterion_main!(benches);
