//! Determinism contract of the shared-queue parallel orchestrator:
//! sweeps and simulations must be **bit-identical** at 1, 2, and 8 worker
//! threads, and the task-indexed RNG stream derivation must be
//! collision-free — the two properties that make parallel reproduction
//! runs trustworthy artifacts.

use blind_rendezvous::prelude::*;
use blind_rendezvous::sim::workload::{self, PairScenario};
use blind_rendezvous::sim::{pool, sweep_pair_ttr, ParallelConfig, SweepConfig};
use proptest::prelude::*;
use rdv_sim::algo::AgentCtx;
use rdv_sim::engine::{Agent, EngineConfig, PlanePolicy, ResolveMode};
use std::collections::HashSet;

/// Sweeps one scenario at a given thread count and returns the serialized
/// result — the byte string the determinism claims are stated over.
fn sweep_json(algo: Algorithm, n: u64, scenario: &PairScenario, threads: usize) -> String {
    let cfg = SweepConfig {
        shifts: 96,
        shift_stride: 5,
        spread_over_period: true,
        seeds: 4,
        horizon_override: 0,
        threads,
    };
    let sweep = sweep_pair_ttr(algo, n, scenario, &cfg)
        .unwrap_or_else(|e| panic!("{algo} at {threads} threads: {e}"));
    serde_json::to_string(&sweep.to_json())
}

#[test]
fn sweeps_are_bit_identical_at_1_2_and_8_threads() {
    // Every algorithm class: compiled-table deterministic (Ours), long-
    // period fallback (JumpStay), seeded-random (Random), and the
    // wake-sensitive beacon path that constructs schedules inside the
    // workers (BeaconB).
    let n = 16u64;
    let scenario = workload::adversarial_overlap_one(n, 3, 4).expect("fits");
    for algo in [
        Algorithm::Ours,
        Algorithm::OursSymmetric,
        Algorithm::JumpStay,
        Algorithm::Random,
        Algorithm::BeaconB,
    ] {
        let single = sweep_json(algo, n, &scenario, 1);
        for threads in [2usize, 8] {
            assert_eq!(
                single,
                sweep_json(algo, n, &scenario, threads),
                "{algo}: 1-thread vs {threads}-thread sweep JSON diverged"
            );
        }
    }
}

#[test]
fn multi_agent_simulation_is_thread_count_invariant() {
    let sets: [&[u64]; 6] = [
        &[1, 2, 9],
        &[2, 5],
        &[5, 9, 11],
        &[1, 11],
        &[3, 9],
        &[2, 3, 11],
    ];
    let agents: Vec<Agent> = sets
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let set = ChannelSet::new(s.iter().copied()).expect("valid");
            let ctx = AgentCtx {
                wake: (i as u64) * 137,
                agent_seed: i as u64,
                shared_seed: 7,
                faults: None,
            };
            Agent {
                schedule: Algorithm::Ours.make(12, &set, &ctx).expect("valid"),
                set,
                wake: ctx.wake,
                share_key: None,
            }
        })
        .collect();
    let sim = Simulation::new(agents);
    let horizon = 4_321u64;
    let single = sim.run_with(horizon, &ParallelConfig::with_threads(1));
    assert!(single.all_met(), "missed: {:?}", single.missed);
    for threads in [2usize, 8] {
        let multi = sim.run_with(horizon, &ParallelConfig::with_threads(threads));
        assert_eq!(single, multi, "simulation diverged at {threads} threads");
    }
    // The arena engine's determinism contract covers both resolution
    // modes and both row layouts: forced pair-major, forced bucket scan,
    // bit-plane and slotwise rows, and the per-pair reference engine must
    // all reproduce the single-thread report at every thread count.
    for mode in [ResolveMode::PairMajor, ResolveMode::BucketScan] {
        for plane in [PlanePolicy::Auto, PlanePolicy::Slotwise] {
            for threads in [1usize, 2, 8] {
                let report = sim.run_engine(
                    horizon,
                    &EngineConfig {
                        parallel: ParallelConfig::with_threads(threads),
                        mode,
                        plane,
                        faults: None,
                    },
                );
                assert_eq!(
                    single, report,
                    "{mode:?}/{plane:?} diverged at {threads} threads"
                );
            }
        }
    }
    for threads in [1usize, 2, 8] {
        let per_pair = sim.run_per_pair_reference(horizon, &ParallelConfig::with_threads(threads));
        assert_eq!(
            single, per_pair,
            "per-pair reference diverged at {threads} threads"
        );
    }
}

#[test]
fn task_indexed_streams_do_not_collide() {
    // All agent-seed streams a sweep can derive across 8192 seed slots —
    // stream 0 (agent A) and stream 1 (agent B) of each slot — must be
    // pairwise distinct, or two "independent" agents would hop identically.
    let mut seen = HashSet::new();
    for seed_slot in 0..8192u64 {
        for stream in 0..2u64 {
            assert!(
                seen.insert(pool::stream_seed(seed_slot, stream)),
                "stream collision at seed slot {seed_slot}, stream {stream}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stream_seed_is_injective_in_the_task_index(
        base in any::<u64>(),
        i in 0u64..100_000,
        j in 0u64..100_000,
    ) {
        if i != j {
            prop_assert_ne!(
                pool::stream_seed(base, i),
                pool::stream_seed(base, j),
                "collision under base {}", base
            );
        }
    }

    #[test]
    fn random_sweeps_stay_deterministic_across_thread_counts(
        n in 8u64..24,
        threads in 2usize..9,
    ) {
        let scenario = workload::adversarial_overlap_one(n, 3, 3).expect("fits");
        let single = sweep_json(Algorithm::Random, n, &scenario, 1);
        let multi = sweep_json(Algorithm::Random, n, &scenario, threads);
        prop_assert_eq!(single, multi);
    }
}
