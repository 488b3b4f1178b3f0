//! Emits the machine-readable perf reports tracked across PRs and gated
//! in CI:
//!
//! * **`BENCH_kernel.json`** — slots/sec of the naive per-slot TTR path
//!   vs the block-compiled kernel on the worst-case exhaustive shift
//!   sweep (`verify::worst_async_ttr_exhaustive`).
//! * **`BENCH_multiuser.json`** — pair-slots/sec of the shared-arena
//!   multi-user engine vs the seed per-pair engine on clustered
//!   populations from 64 to 10k agents.
//! * **`BENCH_tree.json`** — whole-grid wall-clock of the smoke-tier
//!   `table1` measurement grid run as the former sequential outer loop
//!   (one per-cell pool submission per cell) vs as **one task-tree
//!   submission** (`rdv_sim::sweep_pair_grid`), at 8 requested worker
//!   threads.
//! * **`BENCH_faults.json`** — pair-slots/sec of the arena engine on the
//!   faulted grid (committed `light` profile), availability-aware
//!   ACS-hopping population vs the oblivious Thm-3 population under the
//!   same plan, with the worst faulted TTR of each side recorded as the
//!   speed/TTR trade. The gated column is the availability-aware
//!   throughput (`acs_pair_slots_per_sec`) — sensed-projection must not
//!   silently fall off the block-compiled path.
//!
//! ```text
//! cargo run --release --bin bench_report -- \
//!     [--suite kernel|multiuser|tree|faults|all] [--out-dir DIR] [--smoke] \
//!     [--min-arena-speedup X] [--min-tree-speedup X] \
//!     [--min-bitplane-speedup X] [--history LEDGER.jsonl]
//! ```
//!
//! `--smoke` trims repetitions for CI; the workloads are identical, so
//! smoke and full-tier throughputs are comparable. `--history` appends one
//! line per measured suite (commit, host fingerprint, tier, UTC timestamp,
//! throughput points by scenario) to the run ledger — the bench twin of
//! `repro --history`. `repro trend --history` gates those points against
//! their window median: it is the only throughput-regression gate.
//!
//! **Speedup floors.** Each `--min-*-speedup X` fails the run (exit 1)
//! when its ratio falls below X. `--min-arena-speedup` (arena vs per-pair
//! engine) and `--min-bitplane-speedup` (bit-plane vs slotwise pair
//! kernel, both forced pair-major) gate the dense multiuser cells, those
//! with at least `rdv_sim::engine::BUCKET_CROSSOVER` overlapping pairs per
//! agent. `--min-tree-speedup` gates the task tree vs the sequential outer
//! loop; both run on the same pool configuration, so the ratio is
//! machine-portable. The floors stay absolute: the ledger has no ratio
//! series to regress against.
//!
//! **Single-core honesty:** the floors compare parallel engines against
//! sequential references, so on a single-hardware-thread host they can
//! only measure the spawn-amortization floor (the committed
//! `BENCH_tree.json` with `host_threads: 1` and speedup ≈1.07 documents
//! the trap). When `available_parallelism() == 1` every floor is
//! *skipped with an explicit log line* instead of producing a number that
//! looks like a verdict.
//!
//! A bad argument (an unknown or repeated flag, a missing or unparsable
//! value, an unknown suite) prints a message and exits 2.

use blind_rendezvous::cli;
use blind_rendezvous::core::general::GeneralSchedule;
use blind_rendezvous::core::verify;
use blind_rendezvous::history::{self, HostFingerprint};
use blind_rendezvous::pipelines;
use blind_rendezvous::report::Tier;
use rdv_core::schedule::Schedule;
use rdv_sim::engine::{EngineConfig, MeetingReport, PlanePolicy, ResolveMode, Simulation};
use rdv_sim::sweep::{sweep_pair_grid, sweep_pair_ttr, SweepCell};
use rdv_sim::{workload, Algorithm, FaultProfile, PairSweep, ParallelConfig};
use serde_json::Value;
use std::time::Instant;

/// Fewest individually timed reps behind a [`time_reps`] median.
const MIN_TIMED_REPS: u32 = 5;

/// Median seconds per call: one warm-up, then individually timed reps —
/// at least `min_reps` of them, at least [`MIN_TIMED_REPS`], and at least
/// `min_secs` of wall clock. Unlike a mean over the loop, the median
/// ignores the few reps a busy host slows.
fn time_reps<F: FnMut()>(mut f: F, min_secs: f64, min_reps: u32) -> f64 {
    f();
    let mut reps = Vec::new();
    let start = Instant::now();
    loop {
        let rep = Instant::now();
        f();
        reps.push(rep.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() > min_secs
            && reps.len() >= min_reps.max(MIN_TIMED_REPS) as usize
        {
            break;
        }
    }
    history::median(&reps)
}

/// One timed call, no warm-up — for the population sizes where a single
/// run is seconds long and deterministic enough.
fn time_once<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// A freshly measured suite and its report.
struct Suite {
    /// The `bench` id written into the report (and its ledger entry).
    bench: &'static str,
    /// Output file name within `--out-dir`.
    file: &'static str,
    report: Value,
}

// ---------------------------------------------------------------- kernel

struct KernelCell {
    n: u64,
    swept_slots: u64,
    naive_slots_per_sec: f64,
    block_slots_per_sec: f64,
    speedup: f64,
}

fn measure_kernel(n: u64, smoke: bool) -> KernelCell {
    let k = 4usize;
    let sc = workload::adversarial_overlap_one(n, k, k).expect("parameters fit");
    let sa = GeneralSchedule::asynchronous(n, sc.a.clone()).expect("valid");
    let sb = GeneralSchedule::asynchronous(n, sc.b.clone()).expect("valid");
    let horizon = sa.ttr_bound(k) + 1;
    let period = sa.period_hint().expect("periodic");

    // Count the slots the sweep semantically evaluates (same for both
    // paths — the kernels are bit-identical; asserted below).
    let mut swept_slots = 0u64;
    for shift in 0..period {
        let later = verify::async_ttr(&sa, &sb, shift, horizon).expect("guaranteed rendezvous");
        let earlier = verify::async_ttr(&sb, &sa, shift, horizon).expect("guaranteed rendezvous");
        swept_slots += later + 1 + earlier + 1;
    }

    let naive_result = verify::naive::worst_async_ttr_exhaustive(&sa, &sb, horizon);
    let block_result = verify::worst_async_ttr_exhaustive(&sa, &sb, horizon);
    assert_eq!(naive_result, block_result, "kernel mismatch at n={n}");

    let (min_secs, min_reps) = if smoke { (0.05, 1) } else { (0.2, 3) };
    let naive_secs = time_reps(
        || {
            std::hint::black_box(verify::naive::worst_async_ttr_exhaustive(&sa, &sb, horizon));
        },
        min_secs,
        min_reps,
    );
    let block_secs = time_reps(
        || {
            std::hint::black_box(verify::worst_async_ttr_exhaustive(&sa, &sb, horizon));
        },
        min_secs,
        min_reps,
    );

    KernelCell {
        n,
        swept_slots,
        naive_slots_per_sec: swept_slots as f64 / naive_secs,
        block_slots_per_sec: swept_slots as f64 / block_secs,
        speedup: naive_secs / block_secs,
    }
}

fn kernel_suite(smoke: bool) -> Suite {
    let mut cells = Vec::new();
    for n in [16u64, 64, 256] {
        let cell = measure_kernel(n, smoke);
        println!(
            "kernel    n={:<6} slots/sweep={:<10} naive={:>12.0} slots/s   block={:>14.0} slots/s   speedup={:.1}x",
            cell.n, cell.swept_slots, cell.naive_slots_per_sec, cell.block_slots_per_sec, cell.speedup
        );
        cells.push(cell);
    }
    let report = Value::object([
        ("bench", Value::from("worst_async_ttr_exhaustive")),
        (
            "workload",
            Value::from("adversarial overlap-one pair, |A|=|B|=4, GeneralSchedule (Thm 3)"),
        ),
        ("unit", Value::from("schedule-evaluation slots per second")),
        (
            "scenarios",
            Value::Array(
                cells
                    .iter()
                    .map(|c| {
                        Value::object([
                            ("n", Value::from(c.n)),
                            ("swept_slots", Value::from(c.swept_slots)),
                            ("naive_slots_per_sec", Value::from(c.naive_slots_per_sec)),
                            ("block_slots_per_sec", Value::from(c.block_slots_per_sec)),
                            ("speedup", Value::from(c.speedup)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Suite {
        bench: "worst_async_ttr_exhaustive",
        file: "BENCH_kernel.json",
        report,
    }
}

// ------------------------------------------------------------- multiuser

struct MultiuserCell {
    n_agents: usize,
    universe: u64,
    k: usize,
    horizon: u64,
    overlapping_pairs: usize,
    missed_pairs: usize,
    pair_slots: u64,
    arena_secs: f64,
    arena_pair_slots_per_sec: f64,
    per_pair_slots_per_sec: Option<f64>,
    speedup: Option<f64>,
    bitplane_pair_slots_per_sec: Option<f64>,
    slotwise_pair_slots_per_sec: Option<f64>,
    bitplane_speedup: Option<f64>,
}

/// The semantic work of a run, identical for every engine: per
/// overlapping pair, the slots from the later wake to its first meeting
/// (inclusive) or to the horizon.
fn pair_slots(sim: &Simulation, report: &MeetingReport) -> u64 {
    let agents = sim.agents();
    let start = |i: usize, j: usize| agents[i].wake.max(agents[j].wake).min(report.horizon);
    let met: u64 = report
        .first_meeting
        .iter()
        .map(|((i, j), t)| t - start(i, j) + 1)
        .sum();
    let missed: u64 = report
        .missed
        .iter()
        .map(|m| {
            let (i, j) = m.pair;
            report.horizon - start(i, j)
        })
        .sum();
    met + missed
}

fn measure_multiuser(
    n_agents: usize,
    universe: u64,
    k: usize,
    horizon: u64,
    with_per_pair: bool,
    smoke: bool,
) -> MultiuserCell {
    let agents = workload::clustered_agents(Algorithm::Ours, universe, k, n_agents, 11, 256);
    let sim = Simulation::new(agents);
    let auto = EngineConfig::default();
    let report = sim.run_engine(horizon, &auto);
    // Both resolution modes must agree before anything is timed.
    for mode in [ResolveMode::PairMajor, ResolveMode::BucketScan] {
        let forced = EngineConfig {
            parallel: ParallelConfig::default(),
            mode,
            plane: PlanePolicy::Auto,
            faults: None,
        };
        assert_eq!(
            report,
            sim.run_engine(horizon, &forced),
            "arena modes diverged at n_agents={n_agents}"
        );
    }
    let slots = pair_slots(&sim, &report);

    let arena_secs = if with_per_pair {
        let (min_secs, min_reps) = if smoke { (0.05, 1) } else { (0.2, 3) };
        time_reps(
            || {
                std::hint::black_box(sim.run_engine(horizon, &auto));
            },
            min_secs,
            min_reps,
        )
    } else {
        // Large populations: one run is long and deterministic enough.
        time_once(|| {
            std::hint::black_box(sim.run_engine(horizon, &auto));
        })
    };

    let per_pair_secs = with_per_pair.then(|| {
        let cfg = ParallelConfig::default();
        assert_eq!(
            report,
            sim.run_per_pair_reference(horizon, &cfg),
            "per-pair engine diverged at n_agents={n_agents}"
        );
        if smoke {
            time_once(|| {
                std::hint::black_box(sim.run_per_pair_reference(horizon, &cfg));
            })
        } else {
            time_reps(
                || {
                    std::hint::black_box(sim.run_per_pair_reference(horizon, &cfg));
                },
                0.2,
                2,
            )
        }
    });

    // The bit-plane pair kernel vs its slotwise twin, both forced
    // pair-major so the ratio isolates the row layout (Auto mode may
    // pick the bucket scan, which is slotwise by construction). Both
    // layouts must reproduce the report before anything is timed.
    let bitplane = with_per_pair.then(|| {
        let planes = EngineConfig {
            parallel: ParallelConfig::default(),
            mode: ResolveMode::PairMajor,
            plane: PlanePolicy::Auto,
            faults: None,
        };
        let slotwise = EngineConfig {
            plane: PlanePolicy::Slotwise,
            ..planes
        };
        assert_eq!(
            report,
            sim.run_engine(horizon, &planes),
            "bit-plane layout diverged at n_agents={n_agents}"
        );
        assert_eq!(
            report,
            sim.run_engine(horizon, &slotwise),
            "slotwise layout diverged at n_agents={n_agents}"
        );
        let (min_secs, min_reps) = if smoke { (0.05, 1) } else { (0.2, 3) };
        let plane_secs = time_reps(
            || {
                std::hint::black_box(sim.run_engine(horizon, &planes));
            },
            min_secs,
            min_reps,
        );
        let slot_secs = time_reps(
            || {
                std::hint::black_box(sim.run_engine(horizon, &slotwise));
            },
            min_secs,
            min_reps,
        );
        (
            slots as f64 / plane_secs,
            slots as f64 / slot_secs,
            slot_secs / plane_secs,
        )
    });

    MultiuserCell {
        n_agents,
        universe,
        k,
        horizon,
        overlapping_pairs: report.first_meeting.len() + report.missed.len(),
        missed_pairs: report.missed.len(),
        pair_slots: slots,
        arena_secs,
        arena_pair_slots_per_sec: slots as f64 / arena_secs,
        per_pair_slots_per_sec: per_pair_secs.map(|s| slots as f64 / s),
        speedup: per_pair_secs.map(|s| s / arena_secs),
        bitplane_pair_slots_per_sec: bitplane.map(|b| b.0),
        slotwise_pair_slots_per_sec: bitplane.map(|b| b.1),
        bitplane_speedup: bitplane.map(|b| b.2),
    }
}

fn multiuser_suite(smoke: bool) -> Suite {
    // Population ladder: universes scale with the population so density
    // stays dense (dozens-to-hundreds of pending pairs per agent). The
    // per-pair baseline is only timed where its quadratic fill bill is
    // affordable; the 10k-agent cell is the CI-smoke-scale completion
    // proof.
    let grid: [(usize, u64, usize, u64, bool); 4] = [
        (64, 64, 8, 1 << 12, true),
        (512, 96, 24, 1 << 12, true),
        (4096, 512, 32, 1 << 11, false),
        (10_000, 1024, 64, 1 << 10, false),
    ];
    let mut cells = Vec::new();
    for (n_agents, universe, k, horizon, with_per_pair) in grid {
        let cell = measure_multiuser(n_agents, universe, k, horizon, with_per_pair, smoke);
        match (cell.per_pair_slots_per_sec, cell.speedup) {
            (Some(pp), Some(sp)) => println!(
                "multiuser n={:<6} pairs={:<8} per-pair={:>12.0} ps/s   arena={:>14.0} ps/s   speedup={:.1}x",
                cell.n_agents, cell.overlapping_pairs, pp, cell.arena_pair_slots_per_sec, sp
            ),
            _ => println!(
                "multiuser n={:<6} pairs={:<8} arena={:>14.0} ps/s   ({:.2}s wall)",
                cell.n_agents, cell.overlapping_pairs, cell.arena_pair_slots_per_sec, cell.arena_secs
            ),
        }
        if let (Some(bp), Some(sw), Some(sp)) = (
            cell.bitplane_pair_slots_per_sec,
            cell.slotwise_pair_slots_per_sec,
            cell.bitplane_speedup,
        ) {
            println!(
                "bitplane  n={:<6} pairs={:<8} slotwise={:>12.0} ps/s   planes={:>13.0} ps/s   speedup={:.1}x",
                cell.n_agents, cell.overlapping_pairs, sw, bp, sp
            );
        }
        cells.push(cell);
    }
    let report = Value::object([
        ("bench", Value::from("multiuser_arena_engine")),
        (
            "workload",
            Value::from(
                "clustered population (contiguous k-channel bands), GeneralSchedule (Thm 3), staggered wakes",
            ),
        ),
        (
            "unit",
            Value::from("pair-slots resolved per second (per pair: later wake to first meeting or horizon)"),
        ),
        (
            "scenarios",
            Value::Array(
                cells
                    .iter()
                    .map(|c| {
                        Value::object([
                            ("n_agents", Value::from(c.n_agents)),
                            ("universe", Value::from(c.universe)),
                            ("k", Value::from(c.k)),
                            ("horizon", Value::from(c.horizon)),
                            ("overlapping_pairs", Value::from(c.overlapping_pairs)),
                            ("missed_pairs", Value::from(c.missed_pairs)),
                            ("pair_slots", Value::from(c.pair_slots)),
                            ("arena_secs", Value::from(c.arena_secs)),
                            (
                                "arena_pair_slots_per_sec",
                                Value::from(c.arena_pair_slots_per_sec),
                            ),
                            (
                                "per_pair_slots_per_sec",
                                c.per_pair_slots_per_sec.map(Value::from).unwrap_or(Value::Null),
                            ),
                            ("speedup", c.speedup.map(Value::from).unwrap_or(Value::Null)),
                            (
                                "bitplane_pair_slots_per_sec",
                                c.bitplane_pair_slots_per_sec
                                    .map(Value::from)
                                    .unwrap_or(Value::Null),
                            ),
                            (
                                "slotwise_pair_slots_per_sec",
                                c.slotwise_pair_slots_per_sec
                                    .map(Value::from)
                                    .unwrap_or(Value::Null),
                            ),
                            (
                                "bitplane_speedup",
                                c.bitplane_speedup.map(Value::from).unwrap_or(Value::Null),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Suite {
        bench: "multiuser_arena_engine",
        file: "BENCH_multiuser.json",
        report,
    }
}

// ------------------------------------------------------------------ tree

/// Worker threads of the tree suite — fixed (not auto-detected) so the
/// committed report is comparable across machines, and matching the
/// acceptance bar the suite gates ("speedup at 8 threads").
const TREE_THREADS: usize = 8;

/// The whole-grid orchestration suite: the smoke-tier `table1` measurement
/// grid (the same cells, in the same order, as the artifact pipeline)
/// swept twice at [`TREE_THREADS`] requested workers — once as the former
/// **sequential outer loop**, one per-cell pool submission per cell, and
/// once as **one task-tree submission** where every cell is a parent and
/// all cells' chunk children share one queue on one pool. The two drivers
/// are asserted bit-identical before anything is timed; the gated number
/// is their wall-clock ratio.
fn tree_suite(smoke: bool) -> Suite {
    let cells = pipelines::table1_cells(Tier::Smoke, TREE_THREADS);
    let parallel = ParallelConfig::with_threads(TREE_THREADS);

    let sequential = |cells: &[SweepCell]| -> Vec<PairSweep> {
        cells
            .iter()
            .map(|c| {
                sweep_pair_ttr(c.algorithm, c.n, &c.scenario, &c.cfg)
                    .expect("smoke grid cells sweep")
            })
            .collect()
    };
    let tree = |cells: &[SweepCell]| -> Vec<PairSweep> {
        sweep_pair_grid(cells.to_vec(), &parallel)
            .into_iter()
            .map(|r| r.expect("smoke grid cells sweep"))
            .collect()
    };
    let seq_sweeps = sequential(&cells);
    let tree_sweeps = tree(&cells);
    assert_eq!(seq_sweeps.len(), tree_sweeps.len());
    for (s, t) in seq_sweeps.iter().zip(&tree_sweeps) {
        assert_eq!(
            serde_json::to_string(&s.to_json()),
            serde_json::to_string(&t.to_json()),
            "tree and sequential-outer-loop grids diverged"
        );
    }

    // The gated quantity is a ratio of two ~tens-of-ms measurements, so
    // give it a longer budget than the throughput suites even at the
    // smoke tier — one extra second buys a stable gate on noisy shared
    // runners.
    let (min_secs, min_reps) = if smoke { (0.5, 8) } else { (1.5, 15) };
    let seq_secs = time_reps(
        || {
            std::hint::black_box(sequential(&cells));
        },
        min_secs,
        min_reps,
    );
    let tree_secs = time_reps(
        || {
            std::hint::black_box(tree(&cells));
        },
        min_secs,
        min_reps,
    );
    let speedup = seq_secs / tree_secs;
    let n_cells = cells.len() as u64;
    println!(
        "tree      cells={:<6} seq={:>9.1} ms/grid   tree={:>9.1} ms/grid   speedup={speedup:.1}x",
        n_cells,
        seq_secs * 1e3,
        tree_secs * 1e3
    );
    let report = Value::object([
        ("bench", Value::from("task_tree_grid")),
        (
            "workload",
            Value::from(
                "smoke-tier table1 measurement grid (8 algorithms × sync/async × sym/asym × n \
                 ladder), 8 requested worker threads",
            ),
        ),
        (
            "unit",
            Value::from("grid cells swept per second (whole-grid wall clock)"),
        ),
        // The measured ratio is hardware-dependent: the tree's wall-clock
        // win comes from cross-cell load balancing, so single-core hosts only
        // see the spawn-amortization floor. `host_threads` records what
        // the machine could actually overlap.
        (
            "host_threads",
            Value::from(
                std::thread::available_parallelism()
                    .map(|v| v.get())
                    .unwrap_or(1),
            ),
        ),
        (
            "scenarios",
            Value::Array(vec![Value::object([
                ("cells", Value::from(n_cells)),
                ("threads", Value::from(TREE_THREADS)),
                ("seq_secs", Value::from(seq_secs)),
                ("tree_secs", Value::from(tree_secs)),
                ("seq_cells_per_sec", Value::from(n_cells as f64 / seq_secs)),
                (
                    "tree_cells_per_sec",
                    Value::from(n_cells as f64 / tree_secs),
                ),
                ("speedup", Value::from(speedup)),
            ])]),
        ),
    ]);
    Suite {
        bench: "task_tree_grid",
        file: "BENCH_tree.json",
        report,
    }
}

// ---------------------------------------------------------------- faults

struct FaultsCell {
    n_agents: usize,
    universe: u64,
    k: usize,
    horizon: u64,
    overlapping_pairs: usize,
    missed_pairs: usize,
    pair_slots: u64,
    acs_pair_slots_per_sec: f64,
    oblivious_pair_slots_per_sec: f64,
    acs_worst_ttr: u64,
    oblivious_worst_ttr: u64,
}

/// Worst faulted TTR among the pairs that met — the quality side of the
/// speed/TTR trade the faults suite records.
fn worst_ttr(sim: &Simulation, report: &MeetingReport) -> u64 {
    report
        .first_meeting
        .iter()
        .filter_map(|((i, j), _)| report.ttr(i, j, sim.agents()))
        .max()
        .unwrap_or(0)
}

fn measure_faults(
    n_agents: usize,
    universe: u64,
    k: usize,
    horizon: u64,
    smoke: bool,
) -> FaultsCell {
    // The committed `light` profile on a fixed seed: the same faulted grid
    // the repro pipeline sweeps, sized up for throughput timing. The
    // availability-aware population senses the plan (it is threaded into
    // every `AgentCtx`); the oblivious twin hops blind and only the
    // engine's meeting test sees the outage masks.
    let profile = *FaultProfile::named("light").expect("light profile is committed");
    let plan = profile.plan(11, horizon);
    let faulted = EngineConfig {
        faults: Some(plan),
        ..EngineConfig::default()
    };

    let acs_sim = Simulation::new(workload::clustered_agents_with_faults(
        Algorithm::AcsHopping,
        universe,
        k,
        n_agents,
        11,
        256,
        Some(plan),
    ));
    let acs_report = acs_sim.run_engine(horizon, &faulted);
    let oblivious_sim = Simulation::new(workload::clustered_agents(
        Algorithm::Ours,
        universe,
        k,
        n_agents,
        11,
        256,
    ));
    let oblivious_report = oblivious_sim.run_engine(horizon, &faulted);

    let slots = pair_slots(&acs_sim, &acs_report);
    let oblivious_slots = pair_slots(&oblivious_sim, &oblivious_report);
    let (min_secs, min_reps) = if smoke { (0.05, 1) } else { (0.2, 3) };
    let acs_secs = time_reps(
        || {
            std::hint::black_box(acs_sim.run_engine(horizon, &faulted));
        },
        min_secs,
        min_reps,
    );
    let oblivious_secs = time_reps(
        || {
            std::hint::black_box(oblivious_sim.run_engine(horizon, &faulted));
        },
        min_secs,
        min_reps,
    );

    FaultsCell {
        n_agents,
        universe,
        k,
        horizon,
        overlapping_pairs: acs_report.first_meeting.len() + acs_report.missed.len(),
        missed_pairs: acs_report.missed.len(),
        pair_slots: slots,
        acs_pair_slots_per_sec: slots as f64 / acs_secs,
        oblivious_pair_slots_per_sec: oblivious_slots as f64 / oblivious_secs,
        acs_worst_ttr: worst_ttr(&acs_sim, &acs_report),
        oblivious_worst_ttr: worst_ttr(&oblivious_sim, &oblivious_report),
    }
}

fn faults_suite(smoke: bool) -> Suite {
    let grid: [(usize, u64, usize, u64); 3] = [
        (64, 64, 8, 1 << 12),
        (512, 96, 24, 1 << 12),
        (2048, 256, 32, 1 << 11),
    ];
    let mut cells = Vec::new();
    for (n_agents, universe, k, horizon) in grid {
        let cell = measure_faults(n_agents, universe, k, horizon, smoke);
        println!(
            "faults    n={:<6} pairs={:<8} acs={:>14.0} ps/s   oblivious={:>13.0} ps/s   worstTTR acs={} vs obl={}",
            cell.n_agents,
            cell.overlapping_pairs,
            cell.acs_pair_slots_per_sec,
            cell.oblivious_pair_slots_per_sec,
            cell.acs_worst_ttr,
            cell.oblivious_worst_ttr
        );
        cells.push(cell);
    }
    let report = Value::object([
        ("bench", Value::from("faults_acs_engine")),
        (
            "workload",
            Value::from(
                "clustered population on the faulted grid (light profile: epoch 64, outage 50‰, \
                 churn 150‰), ACS-hopping sensed-projection vs oblivious GeneralSchedule (Thm 3) \
                 under the same plan",
            ),
        ),
        (
            "unit",
            Value::from(
                "pair-slots resolved per second (per pair: later wake to first meeting or horizon)",
            ),
        ),
        ("profile", Value::from("light")),
        (
            "scenarios",
            Value::Array(
                cells
                    .iter()
                    .map(|c| {
                        Value::object([
                            ("n_agents", Value::from(c.n_agents)),
                            ("universe", Value::from(c.universe)),
                            ("k", Value::from(c.k)),
                            ("horizon", Value::from(c.horizon)),
                            ("overlapping_pairs", Value::from(c.overlapping_pairs)),
                            ("missed_pairs", Value::from(c.missed_pairs)),
                            ("pair_slots", Value::from(c.pair_slots)),
                            (
                                "acs_pair_slots_per_sec",
                                Value::from(c.acs_pair_slots_per_sec),
                            ),
                            (
                                "oblivious_pair_slots_per_sec",
                                Value::from(c.oblivious_pair_slots_per_sec),
                            ),
                            ("acs_worst_ttr", Value::from(c.acs_worst_ttr)),
                            ("oblivious_worst_ttr", Value::from(c.oblivious_worst_ttr)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Suite {
        bench: "faults_acs_engine",
        file: "BENCH_faults.json",
        report,
    }
}

// ---------------------------------------------------------------- floors

/// An absolute speedup floor, `--<flag> X`: the run fails when a gated
/// scenario of suite `bench` reports `column` below X. In the message
/// templates `{k}` stands for the scenario's `key` value and `{x}` for
/// the measured speedup.
struct Floor {
    flag: &'static str,
    bench: &'static str,
    column: &'static str,
    key: &'static str,
    /// Gate only dense scenarios, `overlapping_pairs ≥ BUCKET_CROSSOVER ·
    /// n_agents` (`rdv_sim::engine::BUCKET_CROSSOVER` pending pairs per
    /// agent). Below the engine's bucket crossover the arena trades its
    /// fill sharing away and the resolve loop is not the bill being paid,
    /// so sparse cells document the ratio instead of gating it.
    dense_only: bool,
    /// Why a single-hardware-thread host skips this floor.
    single_core: &'static str,
    /// The progress line's subject.
    logged: &'static str,
    /// The failure line, before "below the X floor".
    failed: &'static str,
}

const FLOORS: [Floor; 3] = [
    Floor {
        flag: "--min-arena-speedup",
        bench: "multiuser_arena_engine",
        column: "speedup",
        key: "n_agents",
        dense_only: true,
        single_core: "the arena-vs-per-pair ratio would measure the spawn-amortization floor, \
                      not parallel speedup",
        logged: "arena speedup at n_agents={k}",
        failed: "arena speedup {x} at n_agents={k}",
    },
    Floor {
        flag: "--min-tree-speedup",
        bench: "task_tree_grid",
        column: "speedup",
        key: "cells",
        dense_only: false,
        single_core: "the tree-vs-sequential ratio would measure the spawn-amortization floor, \
                      not parallel speedup (see the committed BENCH_tree.json: host_threads 1, \
                      speedup ~1.07)",
        logged: "tree speedup over {k} cells",
        failed: "task-tree grid speedup {x} over the sequential outer loop",
    },
    Floor {
        flag: "--min-bitplane-speedup",
        bench: "multiuser_arena_engine",
        column: "bitplane_speedup",
        key: "n_agents",
        dense_only: true,
        single_core: "the floor is calibrated for multi-core CI where the parallel \
                      fill/resolve pipeline runs; the committed BENCH_multiuser.json records \
                      the single-core honest floor",
        logged: "bitplane speedup at n_agents={k}",
        failed: "bit-plane kernel speedup {x} at n_agents={k}",
    },
];

impl Floor {
    /// Checks every gated scenario of `report` against `min`, logging
    /// each one; returns the failure lines. Scenarios without the
    /// speedup column (the large cells time no reference) are skipped.
    fn check(&self, report: &Value, min: f64) -> Vec<String> {
        let scenarios = report.get("scenarios").and_then(Value::as_array);
        let mut failures = Vec::new();
        for sc in scenarios.into_iter().flatten() {
            let Some(speedup) = sc.get(self.column).and_then(Value::as_f64) else {
                continue;
            };
            let k = sc.get(self.key).and_then(Value::as_u64).unwrap_or(0);
            if self.dense_only {
                let pairs = sc
                    .get("overlapping_pairs")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                if pairs < rdv_sim::engine::BUCKET_CROSSOVER as u64 * k {
                    continue;
                }
            }
            let fill = |t: &str| {
                t.replace("{k}", &k.to_string())
                    .replace("{x}", &format!("{speedup:.1}x"))
            };
            println!("{}: {speedup:.1}x (floor {min}x)", fill(self.logged));
            if speedup < min {
                failures.push(format!("{} below the {min}x floor", fill(self.failed)));
            }
        }
        failures
    }
}

/// Prints a usage error and exits 2, the code `repro` uses for bad
/// arguments.
fn usage_error(msg: &dyn std::fmt::Display) -> ! {
    eprintln!("bench_report: {msg} (see the module docs for the flag list)");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value_flags: Vec<&'static str> = FLOORS
        .iter()
        .map(|f| f.flag)
        .chain(["--suite", "--out-dir", "--history"])
        .collect();
    let args = cli::parse(&argv, &value_flags, &["--smoke"]).unwrap_or_else(|e| usage_error(&e));
    if let Some(arg) = args.positionals.first() {
        usage_error(&cli::UsageError::Unrecognized(arg.clone()));
    }
    let mut floors: Vec<(&Floor, f64)> = FLOORS
        .iter()
        .filter_map(|f| {
            let v = args.value(f.flag)?;
            match v.parse::<f64>() {
                Ok(min) if min.is_finite() && min >= 0.0 => Some((f, min)),
                _ => usage_error(&format!(
                    "{} takes a finite, non-negative number (got {v})",
                    f.flag
                )),
            }
        })
        .collect();
    let history_path = args.value("--history");
    let suite_filter = args.value("--suite").unwrap_or("all");
    if !["kernel", "multiuser", "tree", "faults", "all"].contains(&suite_filter) {
        usage_error(&format!(
            "--suite takes kernel, multiuser, tree, faults, or all (got {suite_filter})"
        ));
    }
    let out_dir = args.value("--out-dir").unwrap_or(".");
    let smoke = args.has("--smoke");
    // Single-core honesty: a 1-hardware-thread host cannot overlap work,
    // so parallel-vs-sequential speedup ratios only measure the
    // spawn-amortization floor — not the quantity the floors gate. Skip
    // those gates loudly rather than fail (or trivially pass) them on a
    // number that means something else.
    let host_threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    if host_threads == 1 {
        for (floor, _) in floors.drain(..) {
            println!(
                "skipping {} gate: host_threads == 1, {}",
                floor.flag, floor.single_core
            );
        }
    }

    let wanted = |name: &str| suite_filter == name || suite_filter == "all";
    let mut suites = Vec::new();
    if wanted("kernel") {
        suites.push(kernel_suite(smoke));
    }
    if wanted("multiuser") {
        suites.push(multiuser_suite(smoke));
    }
    if wanted("tree") {
        suites.push(tree_suite(smoke));
    }
    if wanted("faults") {
        suites.push(faults_suite(smoke));
    }

    std::fs::create_dir_all(out_dir).unwrap_or_else(|e| panic!("creating {out_dir}: {e}"));
    for suite in &suites {
        let path = format!("{}/{}", out_dir.trim_end_matches('/'), suite.file);
        // Atomic commit: a crash mid-write must never leave a partial
        // BENCH_*.json for CI's bit-for-bit diff to trip over.
        let bytes = serde_json::to_string_pretty(&suite.report) + "\n";
        blind_rendezvous::report::commit_bytes(std::path::Path::new(&path), bytes.as_bytes())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    // Append every measured suite to the perf-trend ledger (one JSONL
    // line per suite) before any gate can exit — a regressing run is
    // exactly the generation the trajectory must record.
    if let Some(ledger) = history_path {
        let ledger = std::path::Path::new(ledger);
        let (commit, utc) = history::writer_context();
        let host = HostFingerprint::detect();
        let tier = if smoke { "smoke" } else { "full" };
        for suite in &suites {
            // The multiuser suite's bit-plane kernel rows ride along as
            // their own bench id so the ledger (and the dashboard it
            // feeds) tracks the kernel's throughput separately from the
            // auto-mode arena. No other suite has the column.
            let kernel_rows: Vec<Value> = suite
                .report
                .get("scenarios")
                .and_then(Value::as_array)
                .into_iter()
                .flatten()
                .filter(|s| {
                    s.get("bitplane_pair_slots_per_sec")
                        .and_then(Value::as_f64)
                        .is_some()
                })
                .cloned()
                .collect();
            let kernel_report = (!kernel_rows.is_empty()).then(|| {
                Value::object([
                    ("bench", Value::from("multiuser_bitplane_kernel")),
                    ("scenarios", Value::Array(kernel_rows)),
                ])
            });
            for report in std::iter::once(&suite.report).chain(&kernel_report) {
                let entry = history::entry_from_bench(report, tier, &commit, &host, &utc)
                    .unwrap_or_else(|e| panic!("history: suite {}: {e}", suite.bench));
                history::append(ledger, &entry)
                    .unwrap_or_else(|e| panic!("history: appending to {}: {e}", ledger.display()));
                println!(
                    "appended {} generation ({} points) to {}",
                    entry.source,
                    entry.rows.len(),
                    ledger.display()
                );
            }
        }
    }

    let failures: Vec<String> = floors
        .iter()
        .flat_map(|(floor, min)| {
            suites
                .iter()
                .filter(|s| s.bench == floor.bench)
                .flat_map(|s| floor.check(&s.report, *min))
        })
        .collect();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("PERF REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn one_slow_rep_does_not_move_the_median() {
        let mut calls = 0;
        let secs = time_reps(
            || {
                calls += 1;
                if calls == 3 {
                    std::thread::sleep(Duration::from_millis(250));
                }
            },
            0.0,
            1,
        );
        // Warm-up plus the MIN_TIMED_REPS floor, not the single rep asked.
        assert_eq!(calls, 1 + MIN_TIMED_REPS);
        // A mean over the loop would read ≥ 50 ms.
        assert!(secs < 0.01, "median moved to {secs} s");
    }
}
