//! The measurement harness: a discrete-time multi-agent simulator and the
//! sweep machinery that regenerates the paper's evaluation.
//!
//! * [`algo`] — a uniform façade over every algorithm in the workspace
//!   (ours, the three deterministic baselines, random hopping, the two
//!   beacon protocols), so sweeps can be written once.
//! * [`workload`] — scenario generators: adversarial overlap-one pairs,
//!   random `k`-subsets, clustered spectrum, coalition (tiny sets in a huge
//!   universe), symmetric.
//! * [`engine`] — the multi-agent simulator: a shared-arena engine that
//!   fills each agent's schedule once per block (bit-plane-packed rows on
//!   plane-eligible universes) and resolves all pending pairs over the
//!   shared arena, with a density-adaptive bucket-scan resolution mode
//!   for dense populations.
//! * [`pool`] — the parallel orchestrator: one shared-queue scheduler
//!   behind a flat task list
//!   (`run_indexed`) and a barrier task tree (`run_tree_barrier`), which
//!   both nested sweep grids and the arena engine's fill/resolve split
//!   submit through, with bit-identical results at every thread count.
//! * [`sweep`] — pairwise worst/mean time-to-rendezvous sweeps over shifts
//!   and seeds: one sweep plan per cell behind both the pair and the
//!   lower-bound grids, submitted to [`pool`] as task trees (cells are
//!   parents, `(shift × seed)` chunks are children).
//! * [`stats`] — means, percentiles, and the log-log growth-exponent fits
//!   used to check the paper's asymptotic claims empirically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod engine;
pub mod pool;
pub mod stats;
pub mod sweep;
pub mod workload;

pub use algo::Algorithm;
pub use engine::{
    EngineConfig, MeetingMap, MeetingReport, MissCause, MissedPair, PlanePolicy, ResolveMode,
    Simulation,
};
pub use pool::{ParallelConfig, TaskPanic, TreePath};
pub use rdv_core::fault::{FaultPlan, FaultProfile, InPlayWindow};
pub use sweep::{
    sweep_lower_bound, sweep_lower_grid, sweep_pair_grid, sweep_pair_ttr, LowerBoundSweep,
    LowerCell, LowerSweepConfig, PairSweep, SweepCell, SweepConfig, SweepError,
};
