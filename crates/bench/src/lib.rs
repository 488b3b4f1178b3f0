//! Shared helpers for the criterion benches.
//!
//! The benches mirror the experiment index of DESIGN.md: each bench target
//! regenerates (a timed version of) one table or figure, and `ablations`
//! covers the design-choice studies DESIGN.md calls out. The slot-count
//! tables themselves are produced by the `repro` binary; the benches
//! measure the *computational* cost of generating and evaluating schedules,
//! which is what a downstream adopter of the library pays at runtime.
//!
//! Schedule **construction** and TTR **evaluation** are separate costs with
//! very different shapes (construction is dominated by codeword/coloring
//! setup, evaluation by the sweep kernels), so the helpers keep them apart:
//! [`build`] / [`prepare_pair`] construct, and [`eval_ttr`] evaluates a
//! pre-built pair. Timed bench closures should call [`eval_ttr`] on a pair
//! prepared *outside* the measurement loop unless they are explicitly
//! measuring construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rdv_core::channel::ChannelSet;
use rdv_sim::algo::{AgentCtx, Algorithm, DynSchedule};
use rdv_sim::workload::PairScenario;

/// The standard adversarial scenario used across benches.
pub fn scenario(n: u64, k: usize) -> PairScenario {
    rdv_sim::workload::adversarial_overlap_one(n, k, k).expect("parameters fit")
}

/// Builds a schedule for benching, panicking on invalid parameters.
pub fn build(algo: Algorithm, n: u64, set: &ChannelSet) -> DynSchedule {
    algo.make(n, set, &AgentCtx::default())
        .unwrap_or_else(|| panic!("{algo} failed to instantiate at n={n}"))
}

/// A pre-built schedule pair plus its rendezvous horizon — the input of
/// [`eval_ttr`], constructed once outside any timed closure.
pub struct PreparedPair {
    /// Agent A's schedule.
    pub sa: DynSchedule,
    /// Agent B's schedule.
    pub sb: DynSchedule,
    /// The algorithm's guarantee horizon for the scenario.
    pub horizon: u64,
}

/// Builds both schedules of a scenario once, for repeated evaluation.
pub fn prepare_pair(algo: Algorithm, n: u64, sc: &PairScenario) -> PreparedPair {
    PreparedPair {
        sa: build(algo, n, &sc.a),
        sb: build(algo, n, &sc.b),
        horizon: algo.horizon(n, sc.a.len(), sc.b.len()),
    }
}

/// Evaluates one asynchronous TTR on a pre-built pair — pure kernel cost,
/// no construction inside. Returns the horizon if the pair never meets.
pub fn eval_ttr(pair: &PreparedPair, shift: u64) -> u64 {
    rdv_core::verify::async_ttr(&pair.sa, &pair.sb, shift, pair.horizon).unwrap_or(pair.horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        let sc = scenario(16, 3);
        let s = build(Algorithm::Ours, 16, &sc.a);
        assert!(sc.a.contains(s.channel_at(0).get()));
        assert!(eval_ttr(&prepare_pair(Algorithm::Ours, 16, &sc), 7) < 10_000);
    }
}
