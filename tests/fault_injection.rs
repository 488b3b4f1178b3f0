//! Determinism and correctness contract of the fault-injection layer: on
//! random populations under random seeded fault plans (channel outages ×
//! agent churn), every arena resolution mode at 1, 2, and 8 worker
//! threads, plus the per-pair reference engine, must reproduce a naive
//! slot-by-slot faulted reference **bit-identically** — including the
//! per-pair miss causes (`Departed` vs `HorizonExhausted`).

use blind_rendezvous::prelude::*;
use proptest::prelude::*;
use rdv_sim::algo::AgentCtx;
use rdv_sim::engine::{
    Agent, EngineConfig, MissCause, MissedPair, PlanePolicy, ResolveMode, Simulation,
};
use rdv_sim::{FaultPlan, InPlayWindow, ParallelConfig};

/// A random population description: per agent, a channel set (within a
/// shared universe) and a wake slot. Two regimes: small universes with
/// sets of up to 5 channels, and wide ones (`n` up to 300) with sets of
/// up to 32 channels, about half drawn from a stride-16 lattice whose ids
/// share their low bits — so the per-epoch outage masking sees more
/// distinct channels than any small cache, colliding on any low-bit index.
fn population() -> impl Strategy<Value = (u64, Vec<(Vec<u64>, u64)>)> {
    (0u8..2).prop_flat_map(|wide| {
        let (n_min, n_max, k_max) = if wide == 1 {
            (64u64, 300u64, 32usize)
        } else {
            (6, 17, 5)
        };
        (n_min..=n_max).prop_flat_map(move |n| {
            let channel = (0u8..2, 1..=n, 0..(n / 16).max(1), 1u64..=2).prop_map(
                move |(lattice, c, hi, lo)| {
                    if wide == 1 && lattice == 1 {
                        16 * hi + lo
                    } else {
                        c
                    }
                },
            );
            let agent = (
                proptest::collection::btree_set(channel, 1..=k_max),
                0u64..700, // staggered wakes, some beyond whole blocks
            )
                .prop_map(|(set, wake)| (set.into_iter().collect::<Vec<u64>>(), wake));
            (Just(n), proptest::collection::vec(agent, 2..9))
        })
    })
}

/// Fault plan knobs: seed, epoch length, and rates up to well past the
/// committed profiles (outage 40%, churn 50%).
fn plan_knobs() -> impl Strategy<Value = (u64, u64, u16, u16)> {
    (any::<u64>(), 1u64..128, 0u16..=400, 0u16..=500)
}

/// Builds the population, mixing oblivious and availability-aware
/// algorithms: the plan (when present) is threaded into every `AgentCtx`,
/// so the `Zos`/`AcsHopping` agents derive their hops from its sensed
/// channel sets while `Ours`/`Random` ignore it — and the naive reference
/// below must still agree bit-identically with every arena path.
fn build(n: u64, spec: &[(Vec<u64>, u64)], plan: Option<FaultPlan>) -> Vec<Agent> {
    const MIX: [Algorithm; 4] = [
        Algorithm::Ours,
        Algorithm::Zos,
        Algorithm::Random,
        Algorithm::AcsHopping,
    ];
    spec.iter()
        .enumerate()
        .map(|(i, (channels, wake))| {
            let set = ChannelSet::new(channels.iter().copied()).expect("non-empty");
            let ctx = AgentCtx {
                wake: *wake,
                agent_seed: i as u64,
                shared_seed: 5,
                faults: plan,
            };
            let algo = MIX[i % MIX.len()];
            Agent {
                schedule: algo.make(n, &set, &ctx).expect("valid agent"),
                set,
                wake: *wake,
                share_key: None,
            }
        })
        .collect()
}

type MetEntries = Vec<((usize, usize), u64)>;

/// The naive slot-by-slot faulted reference: a pair meets the first slot
/// `t` where both are in play (woken, arrived, not yet departed), hop the
/// same channel, and that channel is not blacked out at `t`. A missed
/// pair departed if some endpoint's departure (not the horizon) is what
/// ended its joint window.
fn faulted_reference(
    agents: &[Agent],
    horizon: u64,
    plan: &FaultPlan,
) -> (MetEntries, Vec<MissedPair>) {
    let mut met = Vec::new();
    let mut missed = Vec::new();
    for i in 0..agents.len() {
        for j in i + 1..agents.len() {
            if !agents[i].set.overlaps(&agents[j].set) {
                continue;
            }
            let (wi, wj) = (plan.agent_window(i), plan.agent_window(j));
            let start = agents[i]
                .wake
                .max(agents[j].wake)
                .max(wi.arrive)
                .max(wj.arrive);
            let end = horizon.min(wi.depart).min(wj.depart);
            let first = (start..end).find(|&t| {
                let c = agents[i].schedule.channel_at(t - agents[i].wake);
                c == agents[j].schedule.channel_at(t - agents[j].wake)
                    && plan.channel_available(c.into(), t)
            });
            match first {
                Some(t) => met.push(((i, j), t)),
                None => missed.push(MissedPair {
                    pair: (i, j),
                    cause: if wi.depart.min(wj.depart) < horizon {
                        MissCause::Departed
                    } else {
                        MissCause::HorizonExhausted
                    },
                }),
            }
        }
    }
    (met, missed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn faulted_arena_matches_naive_reference_at_every_thread_count(
        (n, spec) in population(),
        (seed, epoch, outage, churn) in plan_knobs(),
        horizon in 600u64..1500,
    ) {
        let plan = FaultPlan::new(seed, epoch, outage, churn, horizon);
        let agents = build(n, &spec, Some(plan));
        let sim = Simulation::new(agents);
        let (expected_met, expected_missed) = faulted_reference(sim.agents(), horizon, &plan);
        for mode in [ResolveMode::Auto, ResolveMode::PairMajor, ResolveMode::BucketScan] {
            for threads in [1usize, 2, 8] {
                // Both row layouts: the bit-plane kernel sees faulted
                // (zeroed) slots only through the shared masked-fill
                // helper, so it must agree with slotwise under any plan.
                for plane in [PlanePolicy::Auto, PlanePolicy::Slotwise] {
                    let cfg = EngineConfig {
                        parallel: ParallelConfig::with_threads(threads),
                        mode,
                        plane,
                        faults: Some(plan),
                    };
                    let report = sim.run_engine(horizon, &cfg);
                    prop_assert_eq!(
                        report.first_meeting.as_slice(),
                        expected_met.as_slice(),
                        "faulted meetings diverged: mode {:?}, {} threads, {:?}",
                        mode, threads, plane
                    );
                    prop_assert_eq!(
                        &report.missed,
                        &expected_missed,
                        "faulted misses diverged: mode {:?}, {} threads, {:?}",
                        mode, threads, plane
                    );
                }
            }
        }
    }

    #[test]
    fn faulted_per_pair_reference_engine_agrees_with_arena(
        (n, spec) in population(),
        (seed, epoch, outage, churn) in plan_knobs(),
        horizon in 600u64..1500,
    ) {
        let plan = FaultPlan::new(seed, epoch, outage, churn, horizon);
        let agents = build(n, &spec, Some(plan));
        let sim = Simulation::new(agents);
        let arena = sim.run_engine(
            horizon,
            &EngineConfig { faults: Some(plan), ..EngineConfig::default() },
        );
        for threads in [1usize, 2, 8] {
            let cfg = EngineConfig {
                parallel: ParallelConfig::with_threads(threads),
                mode: ResolveMode::Auto,
                plane: PlanePolicy::Auto,
                faults: Some(plan),
            };
            let per_pair = sim.run_per_pair_reference_with(horizon, &cfg);
            prop_assert_eq!(
                &arena, &per_pair,
                "faulted per-pair engine diverged at {} threads", threads
            );
        }
    }

    #[test]
    fn pre_arrival_slots_are_masked_on_every_fill_path(
        (n, spec) in population(),
        seed in any::<u64>(),
        epoch in 1u64..128,
        outage in 0u16..=400,
        horizon in 600u64..1500,
    ) {
        // Regression pin for the fill-path guard audit: the masked-row
        // fill zeroes departure and outage slots explicitly but relies on
        // the leading `[0, max(wake, arrive))` prefix being zeroed
        // *upstream* (the `lead` fill). Force heavy churn so late-arrival
        // windows (`arrive > 0`) are common, and assert on every resolve
        // mode × plane policy × thread count that no reported meeting
        // predates either endpoint's arrival — plus full agreement with
        // the naive reference, which starts each pair at
        // `max(wakes, arrivals)` by construction.
        let churn = 900u16;
        let plan = FaultPlan::new(seed, epoch, outage, churn, horizon);
        let agents = build(n, &spec, Some(plan));
        let sim = Simulation::new(agents);
        let late_arrivals = (0..sim.agents().len())
            .filter(|&a| plan.agent_window(a).arrive > 0)
            .count();
        let (expected_met, expected_missed) = faulted_reference(sim.agents(), horizon, &plan);
        for mode in [ResolveMode::Auto, ResolveMode::PairMajor, ResolveMode::BucketScan] {
            for plane in [PlanePolicy::Auto, PlanePolicy::Slotwise] {
                for threads in [1usize, 2, 8] {
                    let cfg = EngineConfig {
                        parallel: ParallelConfig::with_threads(threads),
                        mode,
                        plane,
                        faults: Some(plan),
                    };
                    let report = sim.run_engine(horizon, &cfg);
                    for &((i, j), t) in report.first_meeting.as_slice() {
                        let earliest = sim.agents()[i]
                            .wake
                            .max(sim.agents()[j].wake)
                            .max(plan.agent_window(i).arrive)
                            .max(plan.agent_window(j).arrive);
                        prop_assert!(
                            t >= earliest,
                            "pair ({i},{j}) met at {t} before arrival {earliest} \
                             (mode {:?}, {:?}, {} threads; {} late arrivals)",
                            mode, plane, threads, late_arrivals
                        );
                    }
                    prop_assert_eq!(
                        report.first_meeting.as_slice(),
                        expected_met.as_slice(),
                        "pre-arrival masking diverged: mode {:?}, {:?}, {} threads",
                        mode, plane, threads
                    );
                    prop_assert_eq!(&report.missed, &expected_missed);
                }
            }
        }
    }

    #[test]
    fn windows_and_masks_are_pure_functions_of_the_plan(
        (seed, epoch, outage, churn) in plan_knobs(),
        agent in 0usize..64,
        channel in 1u64..64,
        slot in 0u64..10_000,
    ) {
        let a = FaultPlan::new(seed, epoch, outage, churn, 4_096);
        let b = FaultPlan::new(seed, epoch, outage, churn, 4_096);
        prop_assert_eq!(a.agent_window(agent), b.agent_window(agent));
        prop_assert_eq!(
            a.channel_available(channel, slot),
            b.channel_available(channel, slot)
        );
        // Outage masks are epoch-constant: every slot of one epoch agrees.
        let epoch_start = (slot / epoch) * epoch;
        prop_assert_eq!(
            a.channel_available(channel, slot),
            a.channel_available(channel, epoch_start)
        );
        // Windows are well-formed half-open intervals.
        let w = a.agent_window(agent);
        prop_assert!(w.arrive < w.depart);
        if churn == 0 {
            prop_assert_eq!(w, InPlayWindow::ALWAYS);
        }
    }
}
