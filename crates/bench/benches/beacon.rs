//! Beacon protocol timing: per-slot cost (min-wise hashing for A;
//! expander-walk replay for B) and end-to-end TTR measurement. Slot
//! counts are the beacon rows of `repro table1`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdv_beacon::{BeaconProtocolA, BeaconProtocolB, BeaconStream, MinwiseFamily};
use rdv_bench::scenario;
use rdv_core::schedule::Schedule;
use std::hint::black_box;

fn bench_minwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("minwise_argmin");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.sample_size(30);
    for k in [4usize, 16, 64] {
        let set = rdv_core::channel::ChannelSet::new((1..=k as u64).collect::<Vec<_>>())
            .expect("non-empty");
        let fam = MinwiseFamily::new(1024, 8);
        group.bench_with_input(BenchmarkId::from_parameter(k), &set, |b, set| {
            b.iter(|| fam.argmin(black_box(12345), set))
        });
    }
    group.finish();
}

fn bench_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("beacon_slot_eval");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.sample_size(20);
    let n = 256u64;
    let sc = scenario(n, 8);
    let beacon = BeaconStream::new(7);
    let a = BeaconProtocolA::new(beacon, n, sc.a.clone(), 0);
    let b_proto = BeaconProtocolB::new(beacon, n, sc.a.clone(), 0);
    group.bench_function("protocol_a", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for t in 0..64u64 {
                acc ^= a.channel_at(black_box(t)).get();
            }
            acc
        })
    });
    group.bench_function("protocol_b", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for t in 0..64u64 {
                acc ^= b_proto.channel_at(black_box(t)).get();
            }
            acc
        })
    });
    group.finish();
}

criterion_group! {name = benches; config = Criterion::default().warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(900)).sample_size(10); targets = bench_minwise, bench_protocols}
criterion_main!(benches);
