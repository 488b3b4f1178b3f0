//! Timed versions of the Table 1 cells: TTR **evaluation** cost per
//! algorithm at growing universe sizes. Schedules are built once outside
//! the timed closures (`prepare_pair`), so these numbers are pure kernel
//! cost; `construction.rs` tracks build cost separately. Slot-count tables
//! come from `repro table1` (`REPRO_table1.{json,md}`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdv_bench::{eval_ttr, prepare_pair, scenario};
use rdv_sim::workload;
use rdv_sim::Algorithm;
use std::hint::black_box;

fn bench_table1_asym(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_asym_cell");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.sample_size(10);
    for n in [16u64, 64] {
        let sc = scenario(n, 4);
        for algo in Algorithm::TABLE1 {
            let pair = prepare_pair(algo, n, &sc);
            group.bench_with_input(BenchmarkId::new(algo.to_string(), n), &pair, |b, pair| {
                b.iter(|| {
                    let mut worst = 0;
                    for shift in [0u64, 13, 97, 513] {
                        worst = worst.max(eval_ttr(pair, black_box(shift)));
                    }
                    worst
                })
            });
        }
    }
    group.finish();
}

fn bench_table1_sym(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_sym_cell");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.sample_size(10);
    let n = 64u64;
    let sc = workload::symmetric_pair(n, 4, 7).expect("fits");
    for algo in [
        Algorithm::OursSymmetric,
        Algorithm::Ours,
        Algorithm::JumpStay,
    ] {
        let pair = prepare_pair(algo, n, &sc);
        group.bench_with_input(
            BenchmarkId::from_parameter(algo.to_string()),
            &pair,
            |b, pair| {
                b.iter(|| {
                    let mut worst = 0;
                    for shift in [0u64, 1, 17, 255] {
                        worst = worst.max(eval_ttr(pair, black_box(shift)));
                    }
                    worst
                })
            },
        );
    }
    group.finish();
}

criterion_group! {name = benches; config = Criterion::default().warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(900)).sample_size(10); targets = bench_table1_asym, bench_table1_sym}
criterion_main!(benches);
