//! Theorem 7's density argument, made executable.
//!
//! The proof defines the occupancy density
//! `∆(h, σ; T) = |{t < T : σ(t) = h}| / T` and shows by an averaging
//! argument that some pair `A, B` with `A ∩ B = {h}` has
//! `k·∆(h, σ_A; R) + ℓ·∆(h, σ_B; r) ≤ 2`, from which a counting bound on
//! possible rendezvous slots forces an asynchronous rendezvous time of at
//! least `≈ kℓ`.
//!
//! This module computes `∆` exactly and searches pairs drawn from the
//! proof's distribution for concrete **witnesses**: overlap-one set pairs
//! and shifts whose time-to-rendezvous approaches (or exceeds) `kℓ`. Run
//! against *our* construction it quantifies how close Theorem 3's
//! `O(kℓ log log n)` schedules sit to the `Ω(kℓ)` barrier.
//!
//! # Period folding
//!
//! The witness horizon `T` (2²² slots in the pipelines) is orders of
//! magnitude longer than the schedules' periods, so [`density`] never walks
//! it. [`Schedule::period_hint`] is contractually a *true* period `P`
//! (`σ(t + P) = σ(t)` for all `t`), hence the hit count folds:
//!
//! ```text
//! hits(T) = ⌊T/P⌋ · hits(P) + hits(T mod P)
//! ```
//!
//! and one chunked [`Schedule::fill_channels`] pass over a single period
//! yields both terms. The count is the same integer the per-slot loop
//! produces, so the returned `f64` is bit-identical to
//! [`naive::density`], the reference the property tests compare against.

use crate::pigeonhole::ScheduleFamily;
use rdv_core::channel::ChannelSet;
use rdv_core::schedule::Schedule;
use rdv_core::verify;

/// Slots per `fill_channels` call of the counting kernel.
const CHUNK: usize = 512;

/// The number of slots `t ∈ [from, to)` with `σ(t) = h`, read through
/// chunked `fill_channels`.
fn count_hits<S: Schedule + ?Sized>(schedule: &S, h: u64, from: u64, to: u64) -> u64 {
    let mut buf = [0u64; CHUNK];
    let mut hits = 0u64;
    let mut t = from;
    while t < to {
        let len = (to - t).min(CHUNK as u64) as usize;
        schedule.fill_channels(t, &mut buf[..len]);
        hits += buf[..len].iter().filter(|&&c| c == h).count() as u64;
        t += len as u64;
    }
    hits
}

/// The density `∆(h, σ; T)`: the fraction of the first `T` slots spent on
/// channel `h`.
///
/// When the schedule reports a period `P < T`, the count is folded from one
/// period (`⌊T/P⌋ · hits(P) + hits(T mod P)`, see the module docs); this
/// relies on [`Schedule::period_hint`] being a true period. Aperiodic
/// schedules, and those with `P ≥ T`, are counted over `[0, T)` directly.
/// Either way the result is bit-identical to [`naive::density`].
///
/// # Panics
///
/// Panics if `T == 0`.
pub fn density<S: Schedule + ?Sized>(schedule: &S, h: u64, t: u64) -> f64 {
    assert!(t > 0, "density over an empty prefix is undefined");
    let hits = match schedule.period_hint() {
        Some(p) if p > 0 && p < t => {
            let rem = t % p;
            let head = count_hits(schedule, h, 0, rem);
            let tail = count_hits(schedule, h, rem, p);
            (t / p) * (head + tail) + head
        }
        _ => count_hits(schedule, h, 0, t),
    };
    hits as f64 / t as f64
}

/// Per-slot reference implementation of [`density`].
///
/// This is the original loop over [`Schedule::channel_at`]; it exists so
/// the property tests can assert the folded count is bit-identical.
pub mod naive {
    use rdv_core::schedule::Schedule;

    /// Per-slot reference for [`super::density`].
    ///
    /// # Panics
    ///
    /// Panics if `T == 0`.
    pub fn density<S: Schedule + ?Sized>(schedule: &S, h: u64, t: u64) -> f64 {
        assert!(t > 0, "density over an empty prefix is undefined");
        let hits = (0..t)
            .filter(|&s| schedule.channel_at(s).get() == h)
            .count();
        hits as f64 / t as f64
    }
}

/// A witness produced by [`worst_overlap_one_pair`].
#[derive(Debug, Clone)]
pub struct AsyncWitness {
    /// The first set (size `k`).
    pub a: ChannelSet,
    /// The second set (size `ℓ`), overlapping `a` in exactly one channel.
    pub b: ChannelSet,
    /// The unique common channel `h`.
    pub h: u64,
    /// The wake-up shift achieving the worst time-to-rendezvous.
    pub shift: u64,
    /// The worst observed time-to-rendezvous.
    pub ttr: u64,
    /// `ttr / (k·ℓ)` — how close the witness sits to the Ω(kℓ) barrier.
    pub barrier_ratio: f64,
    /// The densities `(∆(h, σ_A; T), ∆(h, σ_B; T))` over the sweep horizon.
    pub densities: (f64, f64),
}

/// Deterministically enumerates overlap-one pairs in the style of the
/// proof's random process (a size-`k` set, a shared channel `h`, and
/// `ℓ − 1` fresh channels), sweeps shifts, and returns the worst witness.
///
/// `shift_stride` controls the shift sweep granularity (1 = exhaustive over
/// one period of `A`'s schedule, capped at `max_shifts`).
///
/// Returns `None` if `k == 0` or `ℓ == 0` (no non-empty set to build),
/// `shift_stride == 0` (no shift sweep), `n < k + ℓ − 1` (no overlap-one
/// pair exists), or no rendezvous completes within `horizon` (which would
/// itself be a counterexample to the family's guarantee — callers should
/// treat it as a failed verification, not a missing witness).
pub fn worst_overlap_one_pair<F: ScheduleFamily>(
    family: &F,
    n: u64,
    k: usize,
    ell: usize,
    horizon: u64,
    shift_stride: u64,
    max_shifts: u64,
) -> Option<AsyncWitness> {
    if k == 0 || ell == 0 || shift_stride == 0 || n < (k + ell - 1) as u64 {
        return None;
    }
    let mut worst: Option<AsyncWitness> = None;
    // Deterministic pair enumeration: slide the shared channel h and pack
    // A below, B above. This covers the "spread" geometries the averaging
    // argument exploits (h rare in both schedules).
    for offset in 0..(n - (k + ell - 1) as u64 + 1).min(8) {
        let a_lo = offset + 1;
        let h = a_lo + k as u64 - 1;
        let a = ChannelSet::new(a_lo..=h).expect("contiguous");
        let b = ChannelSet::new(h..h + ell as u64).expect("contiguous");
        debug_assert_eq!(a.intersection(&b).len(), 1);
        let sa = family.schedule(&a);
        let sb = family.schedule(&b);
        let period = sa.period_hint().unwrap_or(horizon);
        let shifts = (0..period.min(max_shifts * shift_stride)).step_by(shift_stride as usize);
        let wc = verify::worst_async_ttr(&sa, &sb, shifts, horizon)?;
        let ratio = wc.ttr as f64 / (k * ell) as f64;
        let candidate = AsyncWitness {
            densities: (density(&sa, h, horizon), density(&sb, h, horizon)),
            a,
            b,
            h,
            shift: wc.shift,
            ttr: wc.ttr,
            barrier_ratio: ratio,
        };
        if worst.as_ref().is_none_or(|w| candidate.ttr > w.ttr) {
            worst = Some(candidate);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdv_core::channel::Channel;
    use rdv_core::general::GeneralSchedule;
    use rdv_core::schedule::CyclicSchedule;

    fn round_robin(set: &ChannelSet) -> CyclicSchedule {
        CyclicSchedule::new(set.iter().collect()).expect("non-empty")
    }

    #[test]
    fn density_counts_exactly() {
        let s = CyclicSchedule::new(vec![
            Channel::new(1),
            Channel::new(2),
            Channel::new(1),
            Channel::new(3),
        ])
        .unwrap();
        assert_eq!(density(&s, 1, 4), 0.5);
        assert_eq!(density(&s, 2, 4), 0.25);
        assert_eq!(density(&s, 9, 4), 0.0);
        assert_eq!(density(&s, 1, 2), 0.5);
    }

    #[test]
    #[should_panic(expected = "empty prefix")]
    fn zero_horizon_panics() {
        let s = CyclicSchedule::new(vec![Channel::new(1)]).unwrap();
        density(&s, 1, 0);
    }

    #[test]
    fn witness_against_round_robin() {
        // Round-robin schedules of coprime sizes drift into each other
        // quickly, but the overlap-one pair still yields a measurable
        // worst case ≥ 1 slot; the harness must find and verify it.
        let w =
            worst_overlap_one_pair(&round_robin, 16, 3, 4, 10_000, 1, 64).expect("witness exists");
        assert_eq!(w.a.intersection(&w.b).len(), 1);
        assert!(w.a.contains(w.h) && w.b.contains(w.h));
        assert!(w.ttr >= 1);
    }

    #[test]
    fn our_construction_sits_above_the_barrier() {
        // Theorem 7 says ANY family has a kℓ witness; Theorem 3's family
        // is O(kℓ log log n), so the worst witness should land within a
        // modest multiple of kℓ — and, being a lower-bound witness, the
        // observed worst case must be at least a constant fraction of kℓ.
        let n = 16u64;
        let family =
            |set: &ChannelSet| GeneralSchedule::asynchronous(n, set.clone()).expect("valid");
        let k = 3usize;
        let ell = 3usize;
        let horizon = 1 << 20;
        let w = worst_overlap_one_pair(&family, n, k, ell, horizon, 7, 64)
            .expect("construction must rendezvous");
        assert!(
            w.barrier_ratio >= 0.5,
            "worst witness {} suspiciously below the kℓ barrier ({})",
            w.ttr,
            w.barrier_ratio
        );
        // And the guarantee holds: within the Theorem 3 bound.
        let bound = family(&w.a).ttr_bound(ell);
        assert!(w.ttr <= bound, "ttr {} exceeds bound {bound}", w.ttr);
    }

    #[test]
    fn small_universe_rejected() {
        assert!(worst_overlap_one_pair(&round_robin, 3, 3, 3, 100, 1, 8).is_none());
    }

    #[test]
    fn empty_first_set_rejected() {
        assert!(worst_overlap_one_pair(&round_robin, 16, 0, 3, 100, 1, 8).is_none());
    }

    #[test]
    fn empty_second_set_rejected() {
        assert!(worst_overlap_one_pair(&round_robin, 16, 3, 0, 100, 1, 8).is_none());
    }

    #[test]
    fn zero_shift_stride_rejected() {
        assert!(worst_overlap_one_pair(&round_robin, 16, 3, 3, 100, 0, 8).is_none());
    }
}
