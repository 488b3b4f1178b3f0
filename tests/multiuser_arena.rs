//! Correctness contract of the shared-arena multi-user engine: on random
//! populations with staggered wakes, off-block horizons and shared
//! schedule groups (whose tables may be period prefixes), both
//! resolution modes — pair-major and bucket scan — and both row layouts
//! — bit-plane and slotwise — must reproduce a naive per-slot reference
//! **bit-identically**, at 1, 2, and 8 worker threads, including the
//! universes whose channel ids exceed the plane budget (where the auto
//! layout must fall back to slotwise rows).

use blind_rendezvous::prelude::*;
use proptest::prelude::*;
use rdv_core::schedule::CyclicSchedule;
use rdv_sim::algo::AgentCtx;
use rdv_sim::engine::{
    Agent, EngineConfig, MissCause, MissedPair, PlanePolicy, ResolveMode, Simulation,
};
use rdv_sim::{workload, ParallelConfig};

/// A random population description: per agent, a channel set (within a
/// shared universe) and a wake slot. Sets are drawn from a pool of at
/// most three, so deterministic agents on one set form share-key groups
/// of two or more — the groups the engine compiles into shared tables.
fn population() -> impl Strategy<Value = (u64, Vec<(Vec<u64>, u64)>)> {
    (6u64..18).prop_flat_map(|n| {
        let set = proptest::collection::btree_set(1..=n, 1..=5)
            .prop_map(|set| set.into_iter().collect::<Vec<u64>>());
        let agent = (
            0usize..3,
            0u64..700, // staggered wakes, some beyond whole blocks
        );
        (
            Just(n),
            proptest::collection::vec(set, 1..=3),
            proptest::collection::vec(agent, 2..9),
        )
            .prop_map(|(n, pool, agents)| {
                let agents = agents
                    .into_iter()
                    .map(|(at, wake)| (pool[at % pool.len()].clone(), wake))
                    .collect();
                (n, agents)
            })
    })
}

fn build(n: u64, spec: &[(Vec<u64>, u64)]) -> Vec<Agent> {
    spec.iter()
        .enumerate()
        .map(|(i, (channels, wake))| {
            let set = ChannelSet::new(channels.iter().copied()).expect("non-empty");
            let ctx = AgentCtx {
                wake: *wake,
                agent_seed: i as u64,
                shared_seed: 5,
                faults: None,
            };
            // Mix a deterministic and a seeded-random algorithm across the
            // population so schedules differ in period structure. Only the
            // deterministic agents get share keys.
            let algo = if i % 3 == 2 {
                Algorithm::Random
            } else {
                Algorithm::Ours
            };
            Agent {
                schedule: algo.make(n, &set, &ctx).expect("valid agent"),
                share_key: workload::share_key(algo, n, &set),
                set,
                wake: *wake,
            }
        })
        .collect()
}

/// The same population shapes with every channel id shifted far above
/// the plane budget (`plane_bits > PLANE_BITS_BUDGET`), on cheap cyclic
/// schedules — the universe where the bit-plane layout must fall back to
/// slotwise rows.
fn build_above_plane_budget(spec: &[(Vec<u64>, u64)]) -> Vec<Agent> {
    const BASE: u64 = 1u64 << rdv_core::bitplane::PLANE_BITS_BUDGET;
    spec.iter()
        .enumerate()
        .map(|(i, (channels, wake))| {
            let shifted: Vec<u64> = channels.iter().map(|c| BASE + c).collect();
            let set = ChannelSet::new(shifted.iter().copied()).expect("non-empty");
            let mut period: Vec<Channel> = shifted.iter().map(|&c| Channel::new(c)).collect();
            let rot = i % period.len();
            period.rotate_left(rot);
            Agent {
                schedule: Box::new(CyclicSchedule::new(period).expect("non-empty")),
                set,
                wake: *wake,
                share_key: None,
            }
        })
        .collect()
}

/// Sorted `(pair, first-meeting slot)` entries, as `MeetingMap::as_slice`
/// lays them out.
type MetEntries = Vec<((usize, usize), u64)>;

/// The naive slot-by-slot reference: first co-channel slot of every
/// overlapping pair, scanned through `channel_at` one slot at a time.
fn reference(agents: &[Agent], horizon: u64) -> (MetEntries, Vec<MissedPair>) {
    let mut met = Vec::new();
    let mut missed = Vec::new();
    for i in 0..agents.len() {
        for j in i + 1..agents.len() {
            if !agents[i].set.overlaps(&agents[j].set) {
                continue;
            }
            let start = agents[i].wake.max(agents[j].wake);
            let first = (start..horizon).find(|&t| {
                agents[i].schedule.channel_at(t - agents[i].wake)
                    == agents[j].schedule.channel_at(t - agents[j].wake)
            });
            match first {
                Some(t) => met.push(((i, j), t)),
                // Fault-free runs can only miss by running out of horizon.
                None => missed.push(MissedPair {
                    pair: (i, j),
                    cause: MissCause::HorizonExhausted,
                }),
            }
        }
    }
    (met, missed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arena_modes_match_naive_reference_at_every_thread_count(
        (n, spec) in population(),
        horizon in 600u64..1500, // off-block horizons straddle 1–3 blocks
    ) {
        let agents = build(n, &spec);
        let sim = Simulation::new(agents);
        let (expected_met, expected_missed) = reference(sim.agents(), horizon);
        for mode in [ResolveMode::Auto, ResolveMode::PairMajor, ResolveMode::BucketScan] {
            for threads in [1usize, 2, 8] {
                for plane in [PlanePolicy::Auto, PlanePolicy::Slotwise] {
                    let cfg = EngineConfig {
                        parallel: ParallelConfig::with_threads(threads),
                        mode,
                        plane,
                        faults: None,
                    };
                    let report = sim.run_engine(horizon, &cfg);
                    prop_assert_eq!(
                        report.first_meeting.as_slice(),
                        expected_met.as_slice(),
                        "meetings diverged: mode {:?}, {} threads, {:?}", mode, threads, plane
                    );
                    prop_assert_eq!(
                        &report.missed,
                        &expected_missed,
                        "missed diverged: mode {:?}, {} threads, {:?}", mode, threads, plane
                    );
                    prop_assert_eq!(report.horizon, horizon);
                }
            }
        }
    }

    #[test]
    fn auto_layout_falls_back_bit_identically_above_the_plane_budget(
        (_n, spec) in population(),
        horizon in 600u64..1500,
    ) {
        // Same population shapes, but every channel id shifted above
        // 2^PLANE_BITS_BUDGET: the auto layout must decline to pack
        // planes (rather than widen past the budget) and still match
        // both the naive reference and the forced-slotwise engine.
        let agents = build_above_plane_budget(&spec);
        let sim = Simulation::new(agents);
        let (expected_met, expected_missed) = reference(sim.agents(), horizon);
        for mode in [ResolveMode::Auto, ResolveMode::PairMajor] {
            for plane in [PlanePolicy::Auto, PlanePolicy::Slotwise] {
                for threads in [1usize, 2, 8] {
                    let cfg = EngineConfig {
                        parallel: ParallelConfig::with_threads(threads),
                        mode,
                        plane,
                        faults: None,
                    };
                    let report = sim.run_engine(horizon, &cfg);
                    prop_assert_eq!(
                        report.first_meeting.as_slice(),
                        expected_met.as_slice(),
                        "meetings diverged: mode {:?}, {} threads, {:?}", mode, threads, plane
                    );
                    prop_assert_eq!(
                        &report.missed,
                        &expected_missed,
                        "missed diverged: mode {:?}, {} threads, {:?}", mode, threads, plane
                    );
                }
            }
        }
    }

    #[test]
    fn per_pair_reference_engine_agrees_with_arena(
        (n, spec) in population(),
        horizon in 600u64..1500,
    ) {
        let agents = build(n, &spec);
        let sim = Simulation::new(agents);
        let arena = sim.run(horizon);
        for threads in [1usize, 2, 8] {
            let per_pair = sim.run_per_pair_reference(horizon, &ParallelConfig::with_threads(threads));
            prop_assert_eq!(&arena, &per_pair, "per-pair engine diverged at {} threads", threads);
        }
    }
}
