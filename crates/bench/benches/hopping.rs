//! Schedule evaluation throughput — the radio's per-slot budget at
//! runtime: per-slot `channel_at` calls vs the bulk `fill_channels` kernel
//! over the same 1024 slots.
//!
//! Both groups also carry the availability-aware family (ZOS, ACS hopping)
//! under the `light` fault plan at `(n, k) = (96, 8)` and `(256, 32)`:
//! there `channel_at` re-senses the plan every slot, while
//! `fill_channels` runs the segment kernel (`rdv_baselines::sensing`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdv_bench::{build, scenario};
use rdv_core::fault::FaultProfile;
use rdv_core::schedule::Schedule;
use rdv_sim::algo::{AgentCtx, DynSchedule};
use rdv_sim::Algorithm;
use std::hint::black_box;

/// The availability-aware schedules under the `light` plan, by row id.
fn sensed_schedules() -> Vec<(String, DynSchedule)> {
    let plan = FaultProfile::named("light")
        .expect("the light profile is committed")
        .plan(11, 4096);
    let ctx = AgentCtx {
        faults: Some(plan),
        ..AgentCtx::default()
    };
    let mut rows = Vec::new();
    for (n, k) in [(96u64, 8usize), (256, 32)] {
        let set = scenario(n, k).a;
        for algo in [Algorithm::Zos, Algorithm::AcsHopping] {
            let sched = algo.make(n, &set, &ctx).expect("valid agent");
            rows.push((format!("{algo}/light n={n} k={k}"), sched));
        }
    }
    rows
}

fn bench_hopping(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_at");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.sample_size(30);
    group.throughput(Throughput::Elements(1024));
    let n = 256u64;
    let sc = scenario(n, 4);
    for algo in [
        Algorithm::Ours,
        Algorithm::OursSymmetric,
        Algorithm::Crseq,
        Algorithm::JumpStay,
        Algorithm::Drds,
        Algorithm::Random,
        Algorithm::BeaconA,
    ] {
        let sched = build(algo, n, &sc.a);
        group.bench_with_input(
            BenchmarkId::from_parameter(algo.to_string()),
            &sched,
            |b, sched| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for t in 0..1024u64 {
                        acc ^= sched.channel_at(black_box(t)).get();
                    }
                    acc
                })
            },
        );
    }
    for (id, sched) in sensed_schedules() {
        group.bench_with_input(BenchmarkId::from_parameter(id), &sched, |b, sched| {
            b.iter(|| {
                let mut acc = 0u64;
                for t in 0..1024u64 {
                    acc ^= sched.channel_at(black_box(t)).get();
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_block_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("fill_channels");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.sample_size(30);
    group.throughput(Throughput::Elements(1024));
    let n = 256u64;
    let sc = scenario(n, 4);
    for algo in [
        Algorithm::Ours,
        Algorithm::OursSymmetric,
        Algorithm::Crseq,
        Algorithm::JumpStay,
        Algorithm::Drds,
    ] {
        let sched = build(algo, n, &sc.a);
        group.bench_with_input(
            BenchmarkId::from_parameter(algo.to_string()),
            &sched,
            |b, sched| {
                let mut buf = [0u64; 1024];
                b.iter(|| {
                    sched.fill_channels(black_box(0), &mut buf);
                    buf[1023]
                })
            },
        );
    }
    for (id, sched) in sensed_schedules() {
        group.bench_with_input(BenchmarkId::from_parameter(id), &sched, |b, sched| {
            let mut buf = [0u64; 1024];
            b.iter(|| {
                sched.fill_channels(black_box(0), &mut buf);
                buf[1023]
            })
        });
    }
    group.finish();
}

criterion_group! {name = benches; config = Criterion::default().warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(900)).sample_size(10); targets = bench_hopping, bench_block_fill}
criterion_main!(benches);
