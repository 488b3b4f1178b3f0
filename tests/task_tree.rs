//! The task-tree orchestrator contract (`pool::run_tree_barrier`, the one
//! scheduler under every sweep): parallel tree submissions must be
//! **indistinguishable** from the sequential two-nested-loops reference
//! for every tree shape — including empty parents, single-child parents,
//! and whole sweep grids — at every thread count, and a panicking task
//! (expansion or child) must propagate, with its own payload, instead of
//! deadlocking the pool.
//! `pool::quarantine` inverts that last clause: a quarantined task's panic
//! is *recorded* in its result slot and the rest of the grid completes.

use blind_rendezvous::sim::pool::{self, ParallelConfig, TaskPanic, TreePath};
use blind_rendezvous::sim::sweep::{sweep_pair_grid, sweep_pair_ttr, SweepCell};
use blind_rendezvous::sim::workload::{self, PairScenario};
use blind_rendezvous::sim::{Algorithm, SweepConfig, SweepError};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A per-path value every child mixes into its result, so a child landing
/// under the wrong `(parent, child)` path changes the output.
fn path_mix(parent: usize, child: usize) -> u64 {
    pool::stream_seed(pool::stream_seed(42, parent as u64), child as u64)
}

/// The sequential two-nested-loops reference: what a tree submission of
/// `shape` (each parent a list of child payloads) must produce, computed
/// with plain loops and no orchestrator.
fn reference(shape: &[Vec<u64>]) -> Vec<(u64, Vec<u64>)> {
    shape
        .iter()
        .enumerate()
        .map(|(pi, kids)| {
            let pr = kids.iter().fold(0u64, |a, &b| a.wrapping_add(b)) ^ pi as u64;
            let rs = kids
                .iter()
                .enumerate()
                .map(|(ci, &c)| c.wrapping_mul(3) ^ path_mix(pi, ci))
                .collect();
            (pr, rs)
        })
        .collect()
}

/// The same computation as [`reference`], submitted as a task tree.
fn via_tree(shape: Vec<Vec<u64>>, threads: usize) -> Vec<(u64, Vec<u64>)> {
    pool::run_tree_barrier(
        shape,
        &ParallelConfig::with_threads(threads),
        |pi, kids: Vec<u64>| {
            (
                kids.iter().fold(0u64, |a, &b| a.wrapping_add(b)) ^ pi as u64,
                kids,
            )
        },
        |path: TreePath, c: u64, _outputs: pool::ParentOutputs<'_, u64>| {
            c.wrapping_mul(3) ^ path_mix(path.parent, path.child)
        },
    )
}

#[test]
fn empty_single_child_and_mixed_shapes_match_reference() {
    let shapes: Vec<Vec<Vec<u64>>> = vec![
        vec![],                       // empty forest
        vec![vec![], vec![], vec![]], // only empty parents
        vec![vec![7]],                // one single-child parent
        vec![
            vec![9],
            vec![],
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            vec![],
            vec![42],
            vec![0],
        ],
    ];
    for shape in shapes {
        let expected = reference(&shape);
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                via_tree(shape.clone(), threads),
                expected,
                "shape {shape:?} diverged at {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn barrier_tree_equals_the_nested_loop_reference_for_random_shapes(
        shape in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..7), 0..14),
        threads in 1usize..9,
    ) {
        prop_assert_eq!(via_tree(shape.clone(), threads), reference(&shape));
    }
}

/// The string payload of a caught panic (what `panic!("…")` carries).
fn payload_str(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<opaque payload>")
}

#[test]
fn child_panic_propagates_without_deadlock() {
    for threads in [1usize, 2, 8] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool::run_tree_barrier(
                (0..16u64).collect::<Vec<_>>(),
                &ParallelConfig::with_threads(threads),
                |_, p| ((), vec![p; 4]),
                |path: TreePath, c: u64, _outputs: pool::ParentOutputs<'_, ()>| {
                    if path.parent == 7 && path.child == 2 {
                        panic!("child bomb");
                    }
                    c
                },
            );
        }));
        let payload = result.expect_err("the child panic must propagate to the caller");
        assert_eq!(payload_str(&*payload), "child bomb", "threads = {threads}");
    }
}

#[test]
fn expand_panic_propagates_without_deadlock() {
    for threads in [1usize, 2, 8] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool::run_tree_barrier(
                (0..16u64).collect::<Vec<_>>(),
                &ParallelConfig::with_threads(threads),
                |pi, p| {
                    if pi == 11 {
                        panic!("expansion bomb");
                    }
                    ((), vec![p])
                },
                |_path: TreePath, c: u64, _outputs: pool::ParentOutputs<'_, ()>| c,
            );
        }));
        let payload = result.expect_err("the expansion panic must propagate to the caller");
        assert_eq!(
            payload_str(&*payload),
            "expansion bomb",
            "threads = {threads}"
        );
    }
}

#[test]
fn barrier_expansion_panic_releases_the_barrier() {
    // Mirrors the barrier tests in `pool`: a fill-phase worker dying must
    // release the arrival barrier (drop-guard arrival) so its siblings
    // finish instead of deadlocking. As in the sequential reference, no
    // child runs after it — every child here reads the dead parent's
    // unpublished output and would panic with a message of its own — so
    // the caller catches the fill panic's payload.
    for threads in [1usize, 2, 8] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool::run_tree_barrier(
                (0..8u64).collect::<Vec<_>>(),
                &ParallelConfig::with_threads(threads),
                |pi, p| {
                    if pi == 3 {
                        panic!("fill bomb");
                    }
                    (p, vec![p])
                },
                |_path: TreePath, c: u64, outputs: pool::ParentOutputs<'_, u64>| c + outputs.get(3),
            );
        }));
        let payload = result.expect_err("the fill-phase panic must propagate to the caller");
        assert_eq!(payload_str(&*payload), "fill bomb", "threads = {threads}");
    }
}

#[test]
fn barrier_children_see_every_parent_output_at_every_thread_count() {
    // The pinning contract the engine's fill/resolve split rides on:
    // by the time any child runs, *all* parent outputs are published and
    // readable through `ParentOutputs`, regardless of thread count.
    for threads in [1usize, 2, 8] {
        let out = pool::run_tree_barrier(
            (0..10u64).collect::<Vec<_>>(),
            &ParallelConfig::with_threads(threads),
            |_pi, p| (p * p, vec![p]),
            |path: TreePath, c: u64, outputs: pool::ParentOutputs<'_, u64>| {
                let total: u64 = (0..outputs.len()).map(|i| *outputs.get(i)).sum();
                total + c + path.parent as u64
            },
        );
        // Sum of squares over 0..10 is 285; each parent carries one child.
        for (p, (square, kids)) in out.iter().enumerate() {
            assert_eq!(*square, (p * p) as u64, "at {threads} threads");
            assert_eq!(
                kids.as_slice(),
                &[285 + 2 * p as u64],
                "at {threads} threads"
            );
        }
    }
}

/// The grid cells the pipeline-shaped equivalence tests submit: several
/// algorithm classes (compiled-deterministic, long-period, randomized,
/// wake-sensitive) across two universes.
fn grid_cells() -> Vec<SweepCell> {
    let cfg = SweepConfig {
        shifts: 12,
        shift_stride: 7,
        spread_over_period: true,
        seeds: 3,
        horizon_override: 0,
        threads: 1,
    };
    let mut cells = Vec::new();
    for algo in [
        Algorithm::Ours,
        Algorithm::JumpStay,
        Algorithm::Random,
        Algorithm::BeaconB,
    ] {
        for n in [12u64, 16] {
            cells.push(SweepCell {
                algorithm: algo,
                n,
                scenario: workload::adversarial_overlap_one(n, 3, 3).expect("fits"),
                cfg,
            });
        }
    }
    cells
}

#[test]
fn grid_submission_matches_per_cell_sweeps_at_every_thread_count() {
    let cells = grid_cells();
    let per_cell: Vec<String> = cells
        .iter()
        .map(|c| {
            let sweep = sweep_pair_ttr(c.algorithm, c.n, &c.scenario, &c.cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", c.algorithm));
            serde_json::to_string(&sweep.to_json())
        })
        .collect();
    for threads in [1usize, 2, 8] {
        let grid: Vec<String> =
            sweep_pair_grid(cells.clone(), &ParallelConfig::with_threads(threads))
                .into_iter()
                .map(|r| serde_json::to_string(&r.expect("cell sweeps").to_json()))
                .collect();
        assert_eq!(
            grid, per_cell,
            "grid diverged from per-cell sweeps at {threads} threads"
        );
    }
}

#[test]
fn one_bad_cell_does_not_poison_its_grid_neighbors() {
    let mut cells = grid_cells();
    cells.insert(
        1,
        SweepCell {
            algorithm: Algorithm::Ours,
            n: 8,
            scenario: PairScenario {
                a: blind_rendezvous::prelude::ChannelSet::new(vec![1, 2]).expect("valid"),
                b: blind_rendezvous::prelude::ChannelSet::new(vec![3, 4]).expect("valid"),
            },
            cfg: cells[0].cfg,
        },
    );
    for threads in [1usize, 8] {
        let results = sweep_pair_grid(cells.clone(), &ParallelConfig::with_threads(threads));
        assert_eq!(results.len(), cells.len());
        assert_eq!(
            results[1].as_ref().err(),
            Some(&SweepError::DisjointSets),
            "the disjoint cell must fail typed, threads = {threads}"
        );
        for (i, r) in results.iter().enumerate() {
            if i != 1 {
                assert!(
                    r.is_ok(),
                    "cell {i} poisoned by its neighbor at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn quarantined_task_panics_are_recorded_not_propagated() {
    for threads in [1usize, 2, 8] {
        let results = pool::run_indexed(
            (0..16u64).collect::<Vec<_>>(),
            &ParallelConfig::with_threads(threads),
            |i, v| {
                pool::quarantine(|| {
                    if i == 5 {
                        panic!("cell bomb {i}");
                    }
                    v * 2
                })
            },
        );
        assert_eq!(results.len(), 16, "grid truncated at {threads} threads");
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                assert_eq!(
                    r.as_ref().err(),
                    Some(&TaskPanic {
                        message: "cell bomb 5".to_string()
                    }),
                    "poisoned cell not recorded at {threads} threads"
                );
            } else {
                assert_eq!(
                    r.as_ref().ok(),
                    Some(&(i as u64 * 2)),
                    "cell {i} poisoned by its neighbor at {threads} threads"
                );
            }
        }
    }
}
