//! ACS hopping — interleaved jump/stay rendezvous projected onto the
//! *available channel set* (Yu, Liu, Leung, Chu, Lin; arXiv 1506.01136).
//! The second availability-aware baseline: like [`Zos`](crate::Zos) it
//! folds every hop onto the channels currently sensed as usable under
//! the run's [`FaultPlan`], but with a
//! different sequence shape — a slot-parity interleave of a fast jump
//! sweep and a slowly rotating stay channel.
//!
//! # Construction (reconstruction from the published description)
//!
//! Let `P` be the smallest prime `≥ max(n, 2)` (the universe prime — a
//! raw sequence over channel identities, so synchronized anonymous
//! agents play the same raw channel) and `f = t / 2P` the **frame**
//! index:
//!
//! * **even slots** advance a jump clock `u = t/2`; with stride
//!   `a = (f mod (P−1)) + 1`, slot `u mod P` of the frame plays residue
//!   `((u mod P)·a + f) mod P` — a stride-rotating sweep covering every
//!   residue each frame;
//! * **odd slots** park on residue `f mod P` — a stay channel rotating
//!   once per frame.
//!
//! Raw channel `residue + 1` is projected onto the **sensed** set of the
//! current plan epoch (licensed ∩ available, licensed-set fallback on
//! total blackout — see [`Sensing`]) by the rotating
//! [`projection`](crate::projection) rule, rotation = frame index; the
//! projection target is where the availability-awareness lives. The
//! parity interleave is the load-bearing feature: whatever two agents'
//! clock offset, either their jump sweeps align with differing strides
//! (distinct slopes over the residue line intersect), or one agent's
//! sweep scans the other's frame-long stay channel — the jump-meets-stay
//! argument of the available-channel-set family. As with the other
//! reconstructions the asymmetric guarantee is **empirical** here; rows
//! are recorded, never gated.
//!
//! With no (or a quiet) plan the sequence is exactly periodic and
//! block-compiles, provided its period `2P · lcm(P(P−1), m)` fits in
//! `u64` (`period_hint` is `None` past that, e.g. at `n = 2²²`); under an
//! active plan `period_hint` is `None`.
//!
//! [`channel_at`](Schedule::channel_at) is the per-slot definition above;
//! the bulk fill runs the shared segment kernel
//! ([`SensedFill`](crate::sensing)) instead. Within one frame the even
//! slots form one arithmetic lane (`r ← r + a mod P`) and the odd slots a
//! constant stay lane, so each segment — a frame cut by plan-epoch
//! boundaries — costs one sense (only when its epoch is new) and no
//! per-slot division.

use crate::projection::project_sensed;
use crate::sensing::{Lane, SensedFill, Sensing};
use rdv_core::channel::{Channel, ChannelSet};
use rdv_core::fault::FaultPlan;
use rdv_core::schedule::Schedule;
use rdv_numtheory::modular::{add_mod, mul_mod};
use rdv_numtheory::primes::next_prime_at_least;

/// An ACS-hopping schedule for one agent.
///
/// # Example
///
/// ```
/// use rdv_baselines::AcsHopping;
/// use rdv_core::channel::ChannelSet;
/// use rdv_core::schedule::Schedule;
///
/// let set = ChannelSet::new(vec![2, 3]).unwrap();
/// let s = AcsHopping::new(4, set.clone(), 0, None).unwrap();
/// assert!(set.contains(s.channel_at(17).get()));
/// ```
#[derive(Debug, Clone)]
pub struct AcsHopping {
    sensing: Sensing,
    n: u64,
    p: u64,
}

impl AcsHopping {
    /// Builds the schedule for `set` within universe `[n]`, waking at
    /// absolute slot `wake`, sensing `plan`'s availability masks (`None`
    /// or a quiet plan: hop the licensed set obliviously).
    ///
    /// Returns `None` if the set exceeds the universe or `n == 0`.
    pub fn new(n: u64, set: ChannelSet, wake: u64, plan: Option<FaultPlan>) -> Option<Self> {
        if n == 0 || set.max_channel().get() > n {
            return None;
        }
        Some(AcsHopping {
            sensing: Sensing::new(set, wake, plan),
            n,
            p: next_prime_at_least(n.max(2)),
        })
    }

    /// The universe prime `P ≥ n`.
    pub fn prime(&self) -> u64 {
        self.p
    }

    /// The channel for local slot `t` given the sensed set `s` of the
    /// epoch containing `t` (ascending, non-empty).
    fn channel_in(&self, t: u64, s: &[u64]) -> Channel {
        let p = self.p;
        let f = t / (2 * p);
        let residue = if t.is_multiple_of(2) {
            // Jump: a stride-rotating sweep on the halved clock.
            let u = t / 2;
            let a = (f % (p - 1)) + 1;
            (((u % p) as u128 * a as u128 + f as u128) % p as u128) as u64
        } else {
            // Stay: one residue per frame.
            f % p
        };
        project_sensed(residue + 1, self.n, s, f)
    }
}

impl Schedule for AcsHopping {
    fn channel_at(&self, t: u64) -> Channel {
        self.channel_in(t, &self.sensing.sensed_at(t))
    }

    fn period_hint(&self) -> Option<u64> {
        // Quiet case: the slot channel depends on the frame index f only
        // through (f mod (P−1), f mod P, f mod m) — stride, offset/stay,
        // and projection rotation — so the true period is
        // 2P · lcm(P(P−1), m).
        self.sensing.period(2, self.p)
    }

    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        // Segment-compiled twin of the slot-by-slot default (bit-identical):
        // within a frame the even slots are one arithmetic lane (stride a)
        // and the odd slots one stay lane; plan epochs only cut a frame
        // into segments that swap the sensed set under both lanes.
        let (p, frame) = (self.p, 2 * self.p);
        let mut kernel = SensedFill::new(&self.sensing, self.n, p);
        let (mut f, mut j) = (start / frame, start % frame);
        let (mut jump, mut stay) = self.frame_lanes(f, j);
        let mut i = 0usize;
        while i < out.len() {
            if j == frame {
                (f, j) = (f + 1, 0);
                (jump, stay) = self.frame_lanes(f, 0);
            }
            let len = kernel
                .sense(start + i as u64)
                .min(frame - j)
                .min((out.len() - i) as u64);
            let segment = &mut out[i..i + len as usize];
            let odd = (j % 2) as usize;
            kernel.project(segment, odd, 2, &mut jump);
            kernel.project(segment, 1 - odd, 2, &mut stay);
            i += len as usize;
            j += len;
        }
    }
}

impl AcsHopping {
    /// The jump and stay lanes of frame `f` from frame slot `j` on.
    fn frame_lanes(&self, f: u64, j: u64) -> (Lane, Lane) {
        let p = self.p;
        let (a, fp) = (f % (p - 1) + 1, f % p);
        // The first jump slot at or after j sits at clock u mod P = ⌈j/2⌉.
        let jump = add_mod(mul_mod(j.div_ceil(2), a, p), fp, p);
        let lane = |r, step| Lane {
            r,
            step,
            rotation: f,
        };
        (lane(jump, a), lane(fp, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdv_core::verify;

    fn set(channels: &[u64]) -> ChannelSet {
        ChannelSet::new(channels.iter().copied()).unwrap()
    }

    #[test]
    fn stays_in_set_and_deterministic() {
        let s = set(&[2, 9, 11]);
        let plan = FaultPlan::new(5, 32, 350, 0, 4096);
        for a in [
            AcsHopping::new(12, s.clone(), 0, None).unwrap(),
            AcsHopping::new(12, s.clone(), 91, Some(plan)).unwrap(),
        ] {
            for t in 0..3_000 {
                let ch = a.channel_at(t);
                assert!(s.contains(ch.get()));
                assert_eq!(ch, a.channel_at(t));
            }
        }
    }

    #[test]
    fn fill_matches_slot_by_slot_under_a_plan() {
        // A small and a wide universe; the P-relative starts cross phase
        // boundaries.
        let plan = FaultPlan::new(431, 48, 400, 0, 8192);
        for (n, channels) in [(8u64, vec![1u64, 4, 6, 7]), (70_000, vec![1, 4, 6, 69_999])] {
            let a = AcsHopping::new(n, set(&channels), 77, Some(plan)).unwrap();
            let p = a.prime();
            for start in [0u64, 1, 47, 48, 300, 511, 512, 1000, 2 * p - 5, 4 * p - 1] {
                let mut bulk = vec![0u64; 700];
                a.fill_channels(start, &mut bulk);
                for (i, &c) in bulk.iter().enumerate() {
                    assert_eq!(
                        c,
                        a.channel_at(start + i as u64).get(),
                        "n {n}, start {start}, offset {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn quiet_schedule_is_periodic_and_plan_drops_the_hint() {
        let s = set(&[2, 3, 5, 8]);
        let quiet = AcsHopping::new(8, s.clone(), 0, None).unwrap();
        let period = quiet.period_hint().expect("oblivious ACS is periodic");
        // n = 8 → P = 11, m = 4 → 2·11·lcm(110, 4) = 22·220 = 4840.
        assert_eq!(period, 4840);
        for t in 0..2 * period {
            assert_eq!(quiet.channel_at(t), quiet.channel_at(t + period));
        }
        let plan = FaultPlan::new(1, 64, 100, 0, 4096);
        assert!(AcsHopping::new(8, s, 0, Some(plan))
            .unwrap()
            .period_hint()
            .is_none());
    }

    #[test]
    fn period_hint_is_none_when_the_period_overflows() {
        // n = 2²² → P = 4 194 319; with m = 3 the period
        // 2P · lcm(P(P−1), 3) ≈ 1.5·10²⁰ does not fit in u64. A quiet plan
        // is dropped at construction, so it must agree with no plan.
        let s = set(&[1, 2, 3]);
        let quiet = FaultPlan::new(1, 64, 0, 0, 4096);
        for plan in [None, Some(quiet)] {
            let wide = AcsHopping::new(1 << 22, s.clone(), 0, plan).unwrap();
            assert_eq!(wide.period_hint(), None);
            // n = 2¹⁶ → P = 65 537: the period fits and is unchanged.
            let narrow = AcsHopping::new(1 << 16, s.clone(), 0, plan).unwrap();
            assert_eq!(narrow.period_hint(), Some(1_688_901_400_264_704));
        }
    }

    #[test]
    fn sensed_hops_avoid_blacked_out_channels_when_possible() {
        let licensed = set(&[1, 2, 3, 4, 5, 6]);
        let plan = FaultPlan::new(29, 32, 500, 0, 4096);
        let a = AcsHopping::new(6, licensed.clone(), 0, Some(plan)).unwrap();
        for t in 0..2_000u64 {
            let avail: Vec<u64> = licensed
                .as_slice()
                .iter()
                .copied()
                .filter(|&c| plan.channel_available(c, t))
                .collect();
            let c = a.channel_at(t).get();
            if !avail.is_empty() {
                assert!(avail.contains(&c), "slot {t}: hopped blacked-out {c}");
            }
        }
    }

    #[test]
    fn oblivious_pairs_rendezvous_under_every_small_shift() {
        let n = 6u64;
        let a = AcsHopping::new(n, set(&[1, 2, 3, 4]), 0, None).unwrap();
        let b = AcsHopping::new(n, set(&[3, 4, 5, 6]), 0, None).unwrap();
        let horizon = 4 * a.period_hint().unwrap();
        for shift in (0u64..64).chain([101, 211, 997]) {
            assert!(
                verify::async_ttr(&a, &b, shift, horizon).is_some(),
                "shift {shift}"
            );
        }
    }

    #[test]
    fn faulted_pairs_meet_on_available_channels() {
        let n = 8u64;
        let plan = FaultPlan::new(77, 64, 200, 0, 8192);
        let a = AcsHopping::new(n, set(&[1, 2, 3, 4]), 0, Some(plan)).unwrap();
        let b = AcsHopping::new(n, set(&[3, 4, 5, 6]), 9, Some(plan)).unwrap();
        let mut meetings = 0;
        for t in 9u64..4096 {
            let ca = a.channel_at(t);
            let cb = b.channel_at(t - 9);
            if ca == cb && plan.channel_available(ca.get(), t) {
                meetings += 1;
            }
        }
        assert!(meetings > 0, "no faulted meeting in 4096 slots");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(AcsHopping::new(3, set(&[4]), 0, None).is_none());
        assert!(AcsHopping::new(0, set(&[1]), 0, None).is_none());
    }
}
