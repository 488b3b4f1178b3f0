//! Whole-grid nested-sweep orchestration: a scenario grid swept as the
//! former sequential outer loop (one per-cell pool submission per cell)
//! vs as **one task-tree submission** (`rdv_sim::sweep_pair_grid`), at
//! 1, 2, and 8 worker threads, plus the raw `pool::run_tree_barrier`
//! scheduling overhead on no-op tasks.
//!
//! On a single-core runner the tree's only win is amortizing per-cell
//! pool spawns; with real cores it additionally overlaps cells, so a slow
//! cell no longer serializes the grid (the `BENCH_tree.json` gate in
//! `bench_report --suite tree` tracks that whole-grid ratio across PRs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdv_sim::pool::{self, ParallelConfig, TreePath};
use rdv_sim::sweep::{sweep_pair_grid, sweep_pair_ttr, SweepCell, SweepConfig};
use rdv_sim::{workload, Algorithm};
use std::hint::black_box;

/// A small but uneven scenario grid: deterministic, randomized, and
/// wake-sensitive algorithms across two universe sizes and both timing
/// models — the shape of the artifact pipelines' outer loops.
fn grid(threads: usize) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for algo in [
        Algorithm::Ours,
        Algorithm::Crseq,
        Algorithm::JumpStay,
        Algorithm::Random,
        Algorithm::BeaconB,
    ] {
        for n in [16u64, 32] {
            let scenario = workload::adversarial_overlap_one(n, 4, 4).expect("fits");
            for sync in [true, false] {
                cells.push(SweepCell {
                    algorithm: algo,
                    n,
                    scenario: scenario.clone(),
                    cfg: SweepConfig {
                        shifts: if sync { 1 } else { 16 },
                        shift_stride: 13,
                        spread_over_period: !sync,
                        seeds: 3,
                        horizon_override: 0,
                        threads,
                    },
                });
            }
        }
    }
    cells
}

fn bench_grid_drivers(c: &mut Criterion) {
    let mut group = c.benchmark_group("task_tree_grid");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.sample_size(10);
    for threads in [1usize, 2, 8] {
        let cells = grid(threads);
        group.bench_with_input(
            BenchmarkId::new("sequential_outer_loop", threads),
            &cells,
            |b, cells| {
                b.iter(|| {
                    for cell in cells {
                        black_box(
                            sweep_pair_ttr(cell.algorithm, cell.n, &cell.scenario, &cell.cfg)
                                .expect("cell sweeps"),
                        );
                    }
                })
            },
        );
        let parallel = ParallelConfig::with_threads(threads);
        group.bench_with_input(
            BenchmarkId::new("one_tree_submission", threads),
            &cells,
            |b, cells| b.iter(|| black_box(sweep_pair_grid(cells.to_vec(), &parallel))),
        );
    }
    group.finish();
}

fn bench_tree_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("task_tree_overhead");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.sample_size(10);
    // 64 parents × 8 no-op children: pure scheduling cost of the tree —
    // expansion, child injection, the expansion barrier, path-ordered
    // merge.
    for threads in [1usize, 8] {
        let parallel = ParallelConfig::with_threads(threads);
        group.bench_with_input(
            BenchmarkId::new("noop_64x8", threads),
            &parallel,
            |b, parallel| {
                b.iter(|| {
                    black_box(pool::run_tree_barrier(
                        (0..64u64).collect::<Vec<_>>(),
                        parallel,
                        |_, p| (p, vec![p; 8]),
                        |path: TreePath, c: u64, _outputs: pool::ParentOutputs<'_, u64>| {
                            c ^ path.child as u64
                        },
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_grid_drivers, bench_tree_overhead);
criterion_main!(benches);
