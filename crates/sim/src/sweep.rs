//! Pairwise time-to-rendezvous sweeps — the engine behind the Table 1 and
//! lower-bound experiments.
//!
//! Sweeps are **task-tree submissions** onto the shared-queue
//! orchestrator ([`crate::pool::run_tree_barrier`]): each `(algorithm,
//! scenario)` cell is a parent task whose expansion validates the cell and
//! builds its one sweep plan — the shift list plus schedules built and
//! compiled **once** ([`PreparedSchedule`], shared read-only via `Arc`) —
//! and whose children are `(shift × seed)` sample chunks sized by
//! [`pool::chunk_size`]. The pair and lower-bound grids share that plan
//! and its chunk evaluation; they differ only in their shift-list rule and
//! in how they fold a cell's per-sample TTRs (a [`Summary`] for
//! [`PairSweep`], the worst witness for [`LowerBoundSweep`]).
//! [`sweep_pair_grid`] / [`sweep_lower_grid`] submit a whole grid of cells
//! as one tree — children of different cells share one queue, so a
//! slow cell no longer serializes an artifact run — while
//! [`sweep_pair_ttr`] / [`sweep_lower_bound`] are the single-cell special
//! cases. Every sample's randomness derives from its grid position
//! ([`pool::stream_seed`]), so a sweep's result is bit-identical at 1, 2,
//! or N threads (asserted by `tests/parallel_determinism.rs` and
//! `tests/task_tree.rs`).

use crate::algo::{AgentCtx, Algorithm, DynSchedule};
use crate::pool::{self, ParallelConfig};
use crate::stats::Summary;
use crate::workload::PairScenario;
use rdv_core::channel::ChannelSetError;
use rdv_core::compiled::PreparedSchedule;
use rdv_core::verify;
use serde_json::Value;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Number of relative wake-up shifts per scenario.
    pub shifts: u64,
    /// Stride between sampled shifts (1 = consecutive). Ignored when
    /// `spread_over_period` is set and the schedule reports a period.
    pub shift_stride: u64,
    /// Derive the stride from the schedule period so the sampled shifts
    /// cover one entire period — essential for worst-case (max) columns,
    /// since adversarial shifts of the `O(n²)`/`O(n³)` baselines live deep
    /// inside their periods.
    pub spread_over_period: bool,
    /// Seeds per scenario for randomized algorithms (ignored by
    /// deterministic ones, which run a single seed).
    pub seeds: u64,
    /// Simulation cut-off override (0 = use the algorithm default).
    pub horizon_override: u64,
    /// Worker threads for the parallel orchestrator (0 = auto-detect).
    /// Results are bit-identical for every value.
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            shifts: 32,
            shift_stride: 7,
            spread_over_period: true,
            seeds: 8,
            horizon_override: 0,
            threads: 0,
        }
    }
}

/// Why a sweep could not produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepError {
    /// A channel set failed validation (empty, zero channel, duplicate).
    InvalidSet(ChannelSetError),
    /// The two channel sets share no channel — rendezvous is impossible,
    /// and sweeping the full horizon for every shift would only burn time
    /// proving it.
    DisjointSets,
    /// The algorithm cannot be instantiated on the scenario (e.g. a set
    /// exceeding the universe `[n]`).
    Unsupported {
        /// The algorithm that refused.
        algorithm: Algorithm,
        /// The universe size it was asked for.
        n: u64,
    },
    /// Every `(shift, seed)` sample missed the horizon.
    NoSamples {
        /// How many samples failed.
        failures: usize,
    },
    /// Scenario parameters that can never produce a valid scenario
    /// (caught before any sampling).
    InvalidScenario {
        /// What the generator requires.
        reason: &'static str,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidSet(e) => write!(f, "invalid channel set: {e}"),
            SweepError::DisjointSets => {
                write!(f, "channel sets are disjoint; rendezvous is impossible")
            }
            SweepError::Unsupported { algorithm, n } => {
                write!(
                    f,
                    "{algorithm} cannot be instantiated on this scenario at n={n}"
                )
            }
            SweepError::NoSamples { failures } => {
                write!(f, "all {failures} samples missed the horizon")
            }
            SweepError::InvalidScenario { reason } => {
                write!(f, "invalid scenario parameters: {reason}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ChannelSetError> for SweepError {
    fn from(e: ChannelSetError) -> Self {
        SweepError::InvalidSet(e)
    }
}

/// The result of sweeping one `(algorithm, scenario)` cell.
#[derive(Debug, Clone)]
pub struct PairSweep {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Universe size.
    pub n: u64,
    /// `|A|`.
    pub k: usize,
    /// `|B|`.
    pub ell: usize,
    /// TTR summary over all (shift, seed) samples.
    pub summary: Summary,
    /// Number of samples that failed to rendezvous within the horizon.
    pub failures: usize,
    /// The horizon used.
    pub horizon: u64,
}

impl PairSweep {
    /// The sweep as a JSON object — the repro pipeline's artifact row, and
    /// the witness the cross-thread-count determinism tests compare
    /// byte-for-byte.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("algorithm", Value::from(self.algorithm.to_string())),
            ("n", Value::from(self.n)),
            ("k", Value::from(self.k)),
            ("ell", Value::from(self.ell)),
            ("count", Value::from(self.summary.count)),
            ("max", Value::from(self.summary.max)),
            ("mean", Value::from(self.summary.mean)),
            ("p50", Value::from(self.summary.p50)),
            ("p95", Value::from(self.summary.p95)),
            ("failures", Value::from(self.failures)),
            ("horizon", Value::from(self.horizon)),
        ])
    }
}

/// The deterministic per-seed agent contexts: RNG streams derive from the
/// seed's grid index via [`pool::stream_seed`], never from thread identity
/// or execution order.
fn seed_ctxs(seed: u64, wake_b: u64) -> (AgentCtx, AgentCtx) {
    (
        AgentCtx {
            wake: 0,
            agent_seed: pool::stream_seed(seed, 0),
            shared_seed: seed,
            faults: None,
        },
        AgentCtx {
            wake: wake_b,
            agent_seed: pool::stream_seed(seed, 1),
            shared_seed: seed,
            faults: None,
        },
    )
}

/// One `(algorithm, scenario)` cell of a sweep grid — a parent task of
/// the task-tree submissions [`sweep_pair_grid`] builds whole measurement
/// grids from.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The algorithm to sweep.
    pub algorithm: Algorithm,
    /// Universe size.
    pub n: u64,
    /// The scenario to sweep.
    pub scenario: PairScenario,
    /// Per-cell sweep parameters. `cfg.threads` is ignored inside a grid —
    /// the grid's [`ParallelConfig`] governs the one shared pool.
    pub cfg: SweepConfig,
}

/// A seed's hoisted schedule pair; `None` marks a seed whose schedules
/// could not be instantiated, which chunk evaluation counts as one
/// failure per swept shift (matching the historical per-sample
/// accounting).
type PreparedPair = Option<(PreparedSchedule<DynSchedule>, PreparedSchedule<DynSchedule>)>;

/// The validated, construction-hoisted state of one sweep cell: what the
/// cell's parent task computes when it expands, then shares read-only
/// (via `Arc`) with the cell's `(shift × seed)` chunk children. Both grids
/// build it; they differ only in the shift list they hand it and in how
/// they fold its per-sample outcomes.
struct SweepPlan {
    algorithm: Algorithm,
    n: u64,
    scenario: PairScenario,
    k: usize,
    ell: usize,
    horizon: u64,
    shifts: Vec<u64>,
    seeds: u64,
    prepared: Option<Vec<PreparedPair>>,
}

impl SweepPlan {
    /// Validates the cell, builds its shift list with `shift_rule` from
    /// the seed-0 schedule pair, and hoists schedule construction out of
    /// the `(shift × seed)` grid: for every algorithm whose schedule does
    /// not depend on the wake slot ([`Algorithm::wake_sensitive`] is false
    /// — all but the beacon protocols) both schedules are built **once per
    /// seed** and compiled to period tables when small enough. The beacon
    /// protocols, whose schedules listen to a globally-timed stream, keep
    /// the per-(shift, seed) construction (inside the chunk children, so
    /// it parallelizes too).
    ///
    /// `shift_rule` also returns whatever its grid derives from the same
    /// schedules (the lower grid's certified bound); deterministic
    /// algorithms sweep one seed whatever `seeds` asks for.
    fn new<X>(
        algorithm: Algorithm,
        n: u64,
        scenario: &PairScenario,
        horizon_override: u64,
        seeds: u64,
        shift_rule: impl FnOnce(&DynSchedule, &DynSchedule) -> (Vec<u64>, X),
    ) -> Result<(Self, X), SweepError> {
        if !scenario.a.overlaps(&scenario.b) {
            return Err(SweepError::DisjointSets);
        }
        let k = scenario.a.len();
        let ell = scenario.b.len();
        let horizon = if horizon_override > 0 {
            horizon_override
        } else {
            algorithm.horizon(n, k, ell)
        };
        let seeds = if algorithm.is_deterministic() {
            1
        } else {
            seeds.max(1)
        };
        let make = |seed| {
            let (ctx_a, ctx_b) = seed_ctxs(seed, 0);
            Some((
                algorithm.make(n, &scenario.a, &ctx_a)?,
                algorithm.make(n, &scenario.b, &ctx_b)?,
            ))
        };

        // Seed 0 doubles as the instantiation probe, so an impossible
        // scenario is a typed error instead of `shifts × seeds` silent
        // failures.
        let (sa, sb) = make(0).ok_or(SweepError::Unsupported { algorithm, n })?;
        let (shifts, extra) = shift_rule(&sa, &sb);
        if shifts.is_empty() {
            return Err(SweepError::InvalidScenario {
                reason: "shifts must be at least 1",
            });
        }
        let prepare = |(sa, sb)| (PreparedSchedule::new(sa), PreparedSchedule::new(sb));
        let prepared = (!algorithm.wake_sensitive()).then(|| {
            std::iter::once(Some(prepare((sa, sb))))
                .chain((1..seeds).map(|seed| make(seed).map(prepare)))
                .collect()
        });

        let plan = SweepPlan {
            algorithm,
            n,
            scenario: scenario.clone(),
            k,
            ell,
            horizon,
            shifts,
            seeds,
            prepared,
        };
        Ok((plan, extra))
    }

    /// Flat sample count (sample = shift-major, seed-minor).
    fn total_samples(&self) -> usize {
        self.shifts.len() * self.seeds as usize
    }

    /// Evaluates one chunk of the flat sample grid — a child task's work:
    /// each sample's TTR, `None` when it missed the horizon or its
    /// schedules could not be instantiated.
    fn eval_chunk(&self, range: Range<usize>) -> Vec<Option<u64>> {
        range
            .map(|sample| {
                let shift = self.shifts[sample / self.seeds as usize];
                let seed = (sample % self.seeds as usize) as u64;
                match &self.prepared {
                    Some(prepared) => {
                        let (sa, sb) = prepared[seed as usize].as_ref()?;
                        verify::async_ttr_prepared(sa, sb, shift, self.horizon)
                    }
                    None => {
                        let (ctx_a, ctx_b) = seed_ctxs(seed, shift);
                        let sa = self.algorithm.make(self.n, &self.scenario.a, &ctx_a)?;
                        let sb = self.algorithm.make(self.n, &self.scenario.b, &ctx_b)?;
                        verify::async_ttr(&sa, &sb, shift, self.horizon)
                    }
                }
            })
            .collect()
    }
}

/// Chunks a plan's flat samples into `(plan, range)` child tasks sized by
/// the workspace-wide [`pool::chunk_size`] policy. Chunk boundaries never
/// influence results — chunk outputs are concatenated back in child
/// order, reconstituting the sequential sample order exactly.
fn plan_chunks(plan: &Arc<SweepPlan>, threads: usize) -> Vec<(Arc<SweepPlan>, Range<usize>)> {
    let total = plan.total_samples();
    let chunk = pool::chunk_size(total, threads);
    (0..total)
        .step_by(chunk)
        .map(|start| (Arc::clone(plan), start..(start + chunk).min(total)))
        .collect()
}

/// Sweeps a whole grid of cells as **one task-tree submission**: every
/// cell is a parent task that expands (on a worker) into its validated
/// [`SweepPlan`] (built by `plan`) plus `(shift × seed)` chunk children,
/// all children are claimed from one shared queue regardless of which
/// cell they belong to, and `finish` folds each cell's per-sample
/// outcomes (in sample order) in submission order. A cell whose plan
/// fails is an `Err` in its own slot.
fn sweep_grid<Cell, X, Out>(
    cells: Vec<Cell>,
    parallel: &ParallelConfig,
    plan: impl Fn(Cell) -> Result<(SweepPlan, X), SweepError> + Sync,
    finish: impl Fn(&SweepPlan, X, Vec<Option<u64>>) -> Result<Out, SweepError>,
) -> Vec<Result<Out, SweepError>>
where
    Cell: Send,
    X: Send + Sync,
{
    let threads = parallel.requested_threads();
    pool::run_tree_barrier(
        cells,
        parallel,
        |_cell_index, cell| match plan(cell) {
            Ok((plan, extra)) => {
                let plan = Arc::new(plan);
                let kids = plan_chunks(&plan, threads);
                (Ok((plan, extra)), kids)
            }
            Err(e) => (Err(e), Vec::new()),
        },
        |_path, (plan, range): (Arc<SweepPlan>, Range<usize>), _parents| plan.eval_chunk(range),
    )
    .into_iter()
    .map(|(planned, parts)| planned.and_then(|(plan, extra)| finish(&plan, extra, parts.concat())))
    .collect()
}

/// Sweeps a whole grid of pair cells as **one task-tree submission** —
/// cells are parents, `(shift × seed)` chunks are children, and load
/// balancing crosses cells.
///
/// Equivalent to calling [`sweep_pair_ttr`] per cell in order — the
/// sequential outer loop the artifact pipelines used to run — but the
/// pool is spawned once and a slow cell no longer serializes the grid.
/// Cell failures are per-cell `Err`s: one impossible cell does not poison
/// its neighbors. `tests/task_tree.rs` pins the per-cell equivalence,
/// `tests/repro_determinism.rs` the bit-identical artifacts.
pub fn sweep_pair_grid(
    cells: Vec<SweepCell>,
    parallel: &ParallelConfig,
) -> Vec<Result<PairSweep, SweepError>> {
    sweep_grid(
        cells,
        parallel,
        |SweepCell {
             algorithm,
             n,
             scenario,
             cfg,
         }| {
            SweepPlan::new(
                algorithm,
                n,
                &scenario,
                cfg.horizon_override,
                cfg.seeds,
                |_, _| {
                    let stride = if cfg.spread_over_period {
                        // Probe one schedule for its period and spread
                        // shifts across it, with a prime-ish offset so we
                        // don't only sample period multiples.
                        algorithm
                            .make(n, &scenario.a, &AgentCtx::default())
                            .and_then(|s| s.period_hint())
                            .map(|p| (p / cfg.shifts.max(1)).max(1) | 1)
                            .unwrap_or(cfg.shift_stride.max(1))
                    } else {
                        cfg.shift_stride.max(1)
                    };
                    ((0..cfg.shifts).map(|i| i * stride).collect(), ())
                },
            )
        },
        |plan, (), outcomes| {
            let failures = outcomes.iter().filter(|o| o.is_none()).count();
            let samples: Vec<u64> = outcomes.into_iter().flatten().collect();
            let summary = Summary::of(&samples).ok_or(SweepError::NoSamples { failures })?;
            Ok(PairSweep {
                algorithm: plan.algorithm,
                n: plan.n,
                k: plan.k,
                ell: plan.ell,
                summary,
                failures,
                horizon: plan.horizon,
            })
        },
    )
}

/// Measures times-to-rendezvous for one algorithm on one scenario across
/// wake-up shifts (and seeds, for randomized algorithms) — the
/// single-cell case of [`sweep_pair_grid`].
///
/// Samples that miss the horizon are *counted* in `failures` and excluded
/// from the summary — for the deterministic algorithms a non-zero failure
/// count within their guarantee horizon indicates a bug and is asserted
/// against throughout the test suite.
///
/// Schedule construction is hoisted out of the `(shift × seed)` grid and
/// shared read-only across the pool's workers (see
/// `SweepPlan::new`).
///
/// # Errors
///
/// * [`SweepError::DisjointSets`] — the scenario's sets cannot rendezvous;
/// * [`SweepError::Unsupported`] — the algorithm refuses the scenario
///   (e.g. a channel exceeding the universe);
/// * [`SweepError::InvalidScenario`] — `cfg.shifts` is zero;
/// * [`SweepError::NoSamples`] — every sample missed the horizon.
pub fn sweep_pair_ttr(
    algorithm: Algorithm,
    n: u64,
    scenario: &PairScenario,
    cfg: &SweepConfig,
) -> Result<PairSweep, SweepError> {
    let parallel = ParallelConfig {
        threads: cfg.threads,
    };
    sweep_pair_grid(
        vec![SweepCell {
            algorithm,
            n,
            scenario: scenario.clone(),
            cfg: *cfg,
        }],
        &parallel,
    )
    .pop()
    .expect("one cell submitted, one result returned")
}

/// Parameters of a [`sweep_lower_bound`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerSweepConfig {
    /// Sweep shift `0` only (synchronous wake-up). The covering bound
    /// quantifies over shifts, so synchronous cells get the trivial bound.
    pub sync: bool,
    /// Sweep every shift in `[0, period_A)` when the period is at most
    /// this — the regime where `certified_bound ≤ witness_ttr` is a hard
    /// invariant rather than a sampled one.
    pub max_exhaustive_shifts: u64,
    /// Shifts to sample (spread over the period) when the period exceeds
    /// the exhaustive cap or is unknown.
    pub sampled_shifts: u64,
    /// Simulation cut-off override (0 = the algorithm default).
    pub horizon_override: u64,
    /// Worker threads (0 = auto-detect); results are bit-identical for
    /// every value.
    pub threads: usize,
}

impl Default for LowerSweepConfig {
    fn default() -> Self {
        LowerSweepConfig {
            sync: false,
            max_exhaustive_shifts: 1024,
            sampled_shifts: 64,
            horizon_override: 0,
            threads: 0,
        }
    }
}

/// One cell of the lower-bound reproduction grid: a certified lower bound
/// on the worst-over-shifts TTR plus the measured worst witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerBoundSweep {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Universe size.
    pub n: u64,
    /// `|A|`.
    pub k: usize,
    /// `|B|`.
    pub ell: usize,
    /// The certified lower bound ([`rdv_lower::best_bound`]'s covering
    /// argument; `0` when no bound applies).
    pub certified_bound: u64,
    /// What certified the bound.
    pub bound_kind: &'static str,
    /// Worst observed TTR over the swept shifts.
    pub witness_ttr: u64,
    /// The shift achieving `witness_ttr` (smallest such shift).
    pub witness_shift: u64,
    /// How many shifts were swept.
    pub shifts_swept: u64,
    /// Whether the sweep covered every shift in `[0, period_A)` — only
    /// then is `certified_bound ≤ witness_ttr` a certified invariant.
    pub exhaustive: bool,
    /// Shifts that missed the horizon (excluded from the witness).
    pub failures: usize,
    /// The horizon used.
    pub horizon: u64,
}

impl LowerBoundSweep {
    /// The cell as a JSON object — the `REPRO_lower` artifact row.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("algorithm", Value::from(self.algorithm.to_string())),
            ("n", Value::from(self.n)),
            ("k", Value::from(self.k)),
            ("ell", Value::from(self.ell)),
            ("lower", Value::from(self.certified_bound)),
            ("lower_kind", Value::from(self.bound_kind)),
            ("measured", Value::from(self.witness_ttr)),
            ("witness_shift", Value::from(self.witness_shift)),
            ("shifts_swept", Value::from(self.shifts_swept)),
            ("exhaustive", Value::from(self.exhaustive)),
            ("failures", Value::from(self.failures)),
            ("horizon", Value::from(self.horizon)),
        ])
    }

    /// Whether the lower slice of the sandwich invariant is *certified*
    /// to hold: either the sweep was not exhaustive (sampled witnesses
    /// may legitimately sit below the bound), some shift missed the
    /// horizon (the true worst case is even larger), or the bound is
    /// respected outright.
    pub fn lower_slice_ok(&self) -> bool {
        !self.exhaustive || self.failures > 0 || self.certified_bound <= self.witness_ttr
    }
}

/// One `(algorithm, scenario)` cell of a lower-bound grid — the
/// [`sweep_lower_grid`] counterpart of [`SweepCell`].
#[derive(Debug, Clone)]
pub struct LowerCell {
    /// The algorithm to measure.
    pub algorithm: Algorithm,
    /// Universe size.
    pub n: u64,
    /// The scenario to measure.
    pub scenario: PairScenario,
    /// Per-cell parameters. `cfg.threads` is ignored inside a grid — the
    /// grid's [`ParallelConfig`] governs the one shared pool.
    pub cfg: LowerSweepConfig,
}

/// Sweeps a whole lower-bound grid as one task-tree submission — the
/// [`sweep_pair_grid`] counterpart behind the `repro lower` pipeline's
/// measurement cells. Cells are parents, shift chunks are children, and
/// load balancing crosses cells.
pub fn sweep_lower_grid(
    cells: Vec<LowerCell>,
    parallel: &ParallelConfig,
) -> Vec<Result<LowerBoundSweep, SweepError>> {
    sweep_grid(
        cells,
        parallel,
        |LowerCell {
             algorithm,
             n,
             scenario,
             cfg,
         }| {
            SweepPlan::new(
                algorithm,
                n,
                &scenario,
                cfg.horizon_override,
                1,
                |sa, sb| {
                    // The certified lower bound for this concrete pair of
                    // schedules.
                    let (certified_bound, bound_kind) = if cfg.sync {
                        (0, "trivial (single alignment)")
                    } else if algorithm.wake_sensitive() {
                        (0, "none (wake-sensitive schedule)")
                    } else {
                        let bound = rdv_lower::best_bound(sa, sb);
                        if sa.period_hint().is_some() {
                            (bound, "covering (Thm 7 density argument)")
                        } else {
                            (bound, "none (aperiodic schedule)")
                        }
                    };
                    // The shift list: exhaustive over one period of σ_A when it
                    // fits, sampled with a period-spread stride otherwise.
                    let (shifts, exhaustive) = if cfg.sync {
                        (vec![0], false)
                    } else {
                        match sa.period_hint() {
                            Some(p) if p <= cfg.max_exhaustive_shifts => ((0..p).collect(), true),
                            hint => {
                                let count = cfg.sampled_shifts.max(1);
                                let stride = hint.map(|p| (p / count).max(1) | 1).unwrap_or(13);
                                ((0..count).map(|i| i * stride).collect(), false)
                            }
                        }
                    };
                    (shifts, (certified_bound, bound_kind, exhaustive))
                },
            )
        },
        |plan, (certified_bound, bound_kind, exhaustive), outcomes| {
            // The strict `>` fold keeps the smallest witness shift.
            let mut worst: Option<(u64, u64)> = None;
            let mut failures = 0usize;
            for (&shift, outcome) in plan.shifts.iter().zip(outcomes) {
                match outcome {
                    Some(ttr) if worst.is_none_or(|(w, _)| ttr > w) => worst = Some((ttr, shift)),
                    Some(_) => {}
                    None => failures += 1,
                }
            }
            let (witness_ttr, witness_shift) = worst.ok_or(SweepError::NoSamples { failures })?;
            Ok(LowerBoundSweep {
                algorithm: plan.algorithm,
                n: plan.n,
                k: plan.k,
                ell: plan.ell,
                certified_bound,
                bound_kind,
                witness_ttr,
                witness_shift,
                shifts_swept: plan.shifts.len() as u64,
                exhaustive,
                failures,
                horizon: plan.horizon,
            })
        },
    )
}

/// Measures one lower-bound cell: computes the certified covering bound
/// for the algorithm's concrete schedules on `scenario` and sweeps shifts
/// (exhaustively when the period fits the cap) for the worst measured
/// witness — the single-cell case of [`sweep_lower_grid`], and the unit
/// the `repro lower` pipeline's grid is built from.
///
/// Deterministic algorithms use their single seed-0 schedule; randomized
/// ones are measured on the seed-0 stream (the bound certifies that
/// concrete schedule, which is all a per-cell bound can mean for them).
/// Wake-sensitive algorithms (the beacons) rebuild schedules per shift
/// and carry no certified bound — their schedules change with the shift,
/// so no single covering argument applies.
///
/// # Errors
///
/// Same contract as [`sweep_pair_ttr`]: [`SweepError::DisjointSets`],
/// [`SweepError::Unsupported`], or [`SweepError::NoSamples`].
pub fn sweep_lower_bound(
    algorithm: Algorithm,
    n: u64,
    scenario: &PairScenario,
    cfg: &LowerSweepConfig,
) -> Result<LowerBoundSweep, SweepError> {
    let parallel = ParallelConfig {
        threads: cfg.threads,
    };
    sweep_lower_grid(
        vec![LowerCell {
            algorithm,
            n,
            scenario: scenario.clone(),
            cfg: *cfg,
        }],
        &parallel,
    )
    .pop()
    .expect("one cell submitted, one result returned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn ours_sweeps_clean_on_adversarial_pairs() {
        let scenario = workload::adversarial_overlap_one(16, 3, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 16,
            shift_stride: 11,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 0,
            threads: 0,
        };
        let sweep = sweep_pair_ttr(Algorithm::Ours, 16, &scenario, &cfg).unwrap();
        assert_eq!(sweep.failures, 0, "deterministic guarantee violated");
        assert!(sweep.summary.max <= sweep.horizon);
        assert_eq!(sweep.k, 3);
    }

    #[test]
    fn all_table1_algorithms_sweep_clean_small() {
        let n = 8u64;
        let scenario = workload::adversarial_overlap_one(n, 2, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 8,
            shift_stride: 13,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 0,
            threads: 0,
        };
        for algo in Algorithm::TABLE1 {
            let sweep = sweep_pair_ttr(algo, n, &scenario, &cfg)
                .unwrap_or_else(|e| panic!("{algo} failed: {e}"));
            assert_eq!(sweep.failures, 0, "{algo} missed its horizon");
        }
    }

    #[test]
    fn random_algorithm_uses_seeds() {
        let scenario = workload::adversarial_overlap_one(16, 3, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 4,
            shift_stride: 5,
            spread_over_period: false,
            seeds: 5,
            horizon_override: 0,
            threads: 0,
        };
        let sweep = sweep_pair_ttr(Algorithm::Random, 16, &scenario, &cfg).unwrap();
        assert_eq!(sweep.summary.count + sweep.failures, 4 * 5);
    }

    #[test]
    fn symmetric_wrapper_is_constant_time() {
        let scenario = workload::symmetric_pair(32, 5, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 24,
            shift_stride: 17,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 0,
            threads: 0,
        };
        let sweep = sweep_pair_ttr(Algorithm::OursSymmetric, 32, &scenario, &cfg).unwrap();
        assert_eq!(sweep.failures, 0);
        assert!(
            sweep.summary.max < 12,
            "symmetric TTR {} should be < 12",
            sweep.summary.max
        );
    }

    #[test]
    fn hoisted_sweep_matches_per_shift_construction() {
        // The hoisted/compiled parallel sweep must reproduce exactly the
        // samples a sequential per-(shift, seed) construction produces.
        let n = 16u64;
        let scenario = workload::adversarial_overlap_one(n, 3, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 12,
            shift_stride: 7,
            spread_over_period: false,
            seeds: 3,
            horizon_override: 0,
            threads: 0,
        };
        for algo in [
            Algorithm::Ours,
            Algorithm::OursSymmetric,
            Algorithm::Crseq,
            Algorithm::Drds,
            Algorithm::Random,
            Algorithm::BeaconA,
        ] {
            let sweep = sweep_pair_ttr(algo, n, &scenario, &cfg).unwrap();
            let horizon = algo.horizon(n, 3, 3);
            let seeds = if algo.is_deterministic() { 1 } else { 3 };
            let mut reference = Vec::new();
            let mut ref_failures = 0usize;
            for shift in (0..12u64).map(|i| i * 7) {
                for seed in 0..seeds {
                    let (ctx_a, ctx_b) = super::seed_ctxs(seed, shift);
                    let sa = algo.make(n, &scenario.a, &ctx_a).unwrap();
                    let sb = algo.make(n, &scenario.b, &ctx_b).unwrap();
                    match rdv_core::verify::naive::async_ttr(&sa, &sb, shift, horizon) {
                        Some(t) => reference.push(t),
                        None => ref_failures += 1,
                    }
                }
            }
            let ref_summary = crate::stats::Summary::of(&reference).unwrap();
            assert_eq!(sweep.failures, ref_failures, "{algo}");
            assert_eq!(sweep.summary.count, ref_summary.count, "{algo}");
            assert_eq!(sweep.summary.max, ref_summary.max, "{algo}");
            assert_eq!(sweep.summary.p50, ref_summary.p50, "{algo}");
            assert!(
                (sweep.summary.mean - ref_summary.mean).abs() < 1e-9,
                "{algo}"
            );
        }
    }

    #[test]
    fn horizon_override_respected() {
        let scenario = workload::adversarial_overlap_one(8, 2, 2).unwrap();
        let cfg = SweepConfig {
            shifts: 2,
            shift_stride: 1,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 5,
            threads: 0,
        };
        if let Ok(s) = sweep_pair_ttr(Algorithm::Ours, 8, &scenario, &cfg) {
            assert_eq!(s.horizon, 5);
            assert!(s.summary.max < 5);
        }
    }

    #[test]
    fn disjoint_sets_are_a_typed_error() {
        let scenario = PairScenario {
            a: rdv_core::channel::ChannelSet::new(vec![1, 2]).unwrap(),
            b: rdv_core::channel::ChannelSet::new(vec![3, 4]).unwrap(),
        };
        let err = sweep_pair_ttr(Algorithm::Ours, 8, &scenario, &SweepConfig::default())
            .expect_err("disjoint sets must not sweep");
        assert_eq!(err, SweepError::DisjointSets);
        assert!(err.to_string().contains("disjoint"));
    }

    #[test]
    fn oversized_set_is_a_typed_error() {
        // Channel 40 does not fit universe [8]: instantiation must fail
        // with a typed error instead of sweeping into silent failures.
        let scenario = PairScenario {
            a: rdv_core::channel::ChannelSet::new(vec![1, 40]).unwrap(),
            b: rdv_core::channel::ChannelSet::new(vec![1, 2]).unwrap(),
        };
        let err = sweep_pair_ttr(Algorithm::Ours, 8, &scenario, &SweepConfig::default())
            .expect_err("oversized set must not sweep");
        assert!(matches!(err, SweepError::Unsupported { n: 8, .. }), "{err}");
    }

    #[test]
    fn no_samples_is_a_typed_error() {
        // An overlapping pair with a horizon too short to ever meet: the
        // paper's parity trap ({1,2} cyclic vs itself at odd shift) is
        // overkill — a 1-slot horizon on a slow baseline suffices.
        let scenario = workload::adversarial_overlap_one(8, 4, 4).unwrap();
        let cfg = SweepConfig {
            shifts: 3,
            shift_stride: 1,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 1,
            threads: 0,
        };
        match sweep_pair_ttr(Algorithm::Crseq, 8, &scenario, &cfg) {
            Err(SweepError::NoSamples { failures }) => assert_eq!(failures, 3),
            other => {
                // A meeting at slot 0 for some shift is legitimate; then
                // the sweep must report the remaining misses as failures.
                let s = other.expect("either NoSamples or a partial sweep");
                assert!(s.failures > 0);
            }
        }
    }

    #[test]
    fn lower_bound_sweep_is_sandwiched_when_exhaustive() {
        let n = 12u64;
        let scenario = workload::adversarial_overlap_one(n, 3, 3).unwrap();
        let cfg = LowerSweepConfig {
            max_exhaustive_shifts: 1 << 14,
            ..LowerSweepConfig::default()
        };
        let cell = sweep_lower_bound(Algorithm::Ours, n, &scenario, &cfg).unwrap();
        assert!(cell.exhaustive, "period should fit the exhaustive cap");
        assert_eq!(cell.failures, 0);
        assert!(cell.lower_slice_ok());
        assert!(
            cell.certified_bound <= cell.witness_ttr,
            "covering bound {} exceeds exhaustive worst {}",
            cell.certified_bound,
            cell.witness_ttr
        );
        assert!(cell.witness_ttr <= cell.horizon);
    }

    #[test]
    fn lower_bound_sweep_sync_is_trivial() {
        let scenario = workload::adversarial_overlap_one(12, 3, 3).unwrap();
        let cfg = LowerSweepConfig {
            sync: true,
            ..LowerSweepConfig::default()
        };
        let cell = sweep_lower_bound(Algorithm::Ours, 12, &scenario, &cfg).unwrap();
        assert_eq!(cell.certified_bound, 0);
        assert_eq!(cell.shifts_swept, 1);
        assert!(!cell.exhaustive);
    }

    #[test]
    fn lower_bound_sweep_is_thread_count_invariant() {
        let scenario = workload::adversarial_overlap_one(16, 3, 4).unwrap();
        for algo in [Algorithm::Ours, Algorithm::Crseq, Algorithm::BeaconB] {
            let at = |threads| {
                let cfg = LowerSweepConfig {
                    max_exhaustive_shifts: 512,
                    sampled_shifts: 96,
                    threads,
                    ..LowerSweepConfig::default()
                };
                sweep_lower_bound(algo, 16, &scenario, &cfg)
                    .unwrap_or_else(|e| panic!("{algo}: {e}"))
            };
            let single = at(1);
            assert_eq!(single, at(2), "{algo} diverged at 2 threads");
            assert_eq!(single, at(8), "{algo} diverged at 8 threads");
        }
    }

    #[test]
    fn lower_bound_sweep_rejects_bad_scenarios() {
        let disjoint = PairScenario {
            a: rdv_core::channel::ChannelSet::new(vec![1, 2]).unwrap(),
            b: rdv_core::channel::ChannelSet::new(vec![3, 4]).unwrap(),
        };
        assert_eq!(
            sweep_lower_bound(Algorithm::Ours, 8, &disjoint, &LowerSweepConfig::default()),
            Err(SweepError::DisjointSets)
        );
        let oversized = PairScenario {
            a: rdv_core::channel::ChannelSet::new(vec![1, 40]).unwrap(),
            b: rdv_core::channel::ChannelSet::new(vec![1, 2]).unwrap(),
        };
        assert!(matches!(
            sweep_lower_bound(Algorithm::Ours, 8, &oversized, &LowerSweepConfig::default()),
            Err(SweepError::Unsupported { n: 8, .. })
        ));
    }

    #[test]
    fn sweep_json_is_stable_and_complete() {
        let scenario = workload::adversarial_overlap_one(16, 3, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 8,
            shift_stride: 3,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 0,
            threads: 0,
        };
        let sweep = sweep_pair_ttr(Algorithm::Ours, 16, &scenario, &cfg).unwrap();
        let json = serde_json::to_string(&sweep.to_json());
        for key in [
            "algorithm",
            "n",
            "k",
            "ell",
            "count",
            "max",
            "mean",
            "p50",
            "p95",
            "failures",
            "horizon",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
    }
}
