//! ZOS — zig-zag/stay hopping projected onto the *sensed* channel set
//! (Lin, Yu, Liu, Leung, Chu; arXiv 1506.00744). The first of the two
//! availability-aware baselines: unlike the Table 1 constructions, which
//! hop a schedule derived from the licensed set alone, ZOS folds every
//! hop onto the channels currently sensed as available under the run's
//! [`FaultPlan`] outage masks.
//!
//! # Construction (reconstruction from the published description)
//!
//! Let `P` be the smallest prime `≥ max(n, 2)` (the *universe* prime — a
//! raw sequence over channel identities, like every other baseline here,
//! so two synchronized anonymous agents play the same raw channel and
//! anonymity can never phase-lock them apart). Time is cut into
//! **rounds** of `3P` slots; round `r` carries a stride
//! `a = (r mod (P−1)) + 1` and an offset `b = r mod P`, and plays three
//! `P`-slot segments over the residue line `[0, P)`:
//!
//! * **zig** (`j ∈ [0, P)`): residue `(j·a + b) mod P` — an ascending
//!   stride-`a` sweep covering every residue;
//! * **zag** (`j ∈ [P, 2P)`): the same sweep reversed,
//!   `((2P−1−j)·a + b) mod P`;
//! * **stay** (`j ∈ [2P, 3P)`): residue `b`, parked for a whole segment.
//!
//! Raw channel `residue + 1` is then projected onto the **sensed** set of
//! the current plan epoch (licensed ∩ available, whole licensed set on a
//! total blackout — see [`Sensing`]) by the rotating
//! [`projection`](crate::projection) rule, rotation = round index. That
//! projection target is where the availability-awareness lives: slots an
//! oblivious baseline would burn on a blacked-out channel are re-aimed at
//! a sensed one. Rotating the stride through every residue of `P−1`
//! gives the zig/zag sweeps of any two clock-offset agents differing
//! slopes (distinct slopes over the residue line intersect), while the
//! stay segments catch sweeps from agents whose rounds only partially
//! overlap — the sweep-vs-stay interplay the paper describes. The
//! asymmetric guarantee is **empirical** here (the reconstruction keeps
//! the frame structure, not the paper's proof); rows it produces are
//! recorded, never gated.
//!
//! With no (or a quiet) plan the sensed set never changes, the sequence
//! is exactly periodic, and the schedule block-compiles like any
//! oblivious baseline, provided its period `3P · lcm(P(P−1), m)` fits in
//! `u64` (`period_hint` is `None` past that, e.g. at `n = 2²²`). Under an
//! active plan the sensed set is re-derived per epoch and the sequence is
//! aperiodic (`period_hint` = `None`).
//!
//! [`channel_at`](Schedule::channel_at) is the per-slot definition above;
//! the bulk [`fill_channels`] runs the shared segment kernel
//! ([`SensedFill`](crate::sensing)) instead: each zig, zag or stay phase
//! is one arithmetic lane (step `+a`, `−a` or `0` mod `P`), so each
//! segment — a phase cut by plan-epoch boundaries — costs one sense (only
//! when its epoch is new) and no per-slot division.
//!
//! [`fill_channels`]: Schedule::fill_channels

use crate::projection::project_sensed;
use crate::sensing::{Lane, SensedFill, Sensing};
use rdv_core::channel::{Channel, ChannelSet};
use rdv_core::fault::FaultPlan;
use rdv_core::schedule::Schedule;
use rdv_numtheory::modular::{add_mod, mul_mod};
use rdv_numtheory::primes::next_prime_at_least;

/// A ZOS schedule for one agent.
///
/// # Example
///
/// ```
/// use rdv_baselines::Zos;
/// use rdv_core::channel::ChannelSet;
/// use rdv_core::schedule::Schedule;
///
/// let set = ChannelSet::new(vec![2, 3]).unwrap();
/// let s = Zos::new(4, set.clone(), 0, None).unwrap();
/// assert!(set.contains(s.channel_at(17).get()));
/// ```
#[derive(Debug, Clone)]
pub struct Zos {
    sensing: Sensing,
    n: u64,
    p: u64,
}

impl Zos {
    /// Builds the schedule for `set` within universe `[n]`, waking at
    /// absolute slot `wake`, sensing `plan`'s availability masks (`None`
    /// or a quiet plan: hop the licensed set obliviously).
    ///
    /// Returns `None` if the set exceeds the universe or `n == 0`.
    pub fn new(n: u64, set: ChannelSet, wake: u64, plan: Option<FaultPlan>) -> Option<Self> {
        if n == 0 || set.max_channel().get() > n {
            return None;
        }
        Some(Zos {
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
        let r = t / (3 * p);
        let j = t % (3 * p);
        let a = (r % (p - 1)) + 1;
        let b = r % p;
        // Residues computed in u128: j < 3P and a < P, so j·a can brush
        // u64 only for astronomically large universes, but the widening
        // is free and removes the cliff entirely.
        let residue = if j < p {
            // zig: ascending stride-a sweep.
            ((j as u128 * a as u128 + b as u128) % p as u128) as u64
        } else if j < 2 * p {
            // zag: the same sweep reversed.
            (((2 * p - 1 - j) as u128 * a as u128 + b as u128) % p as u128) as u64
        } else {
            // stay: parked on the round offset.
            b
        };
        project_sensed(residue + 1, self.n, s, r)
    }
}

impl Schedule for Zos {
    fn channel_at(&self, t: u64) -> Channel {
        self.channel_in(t, &self.sensing.sensed_at(t))
    }

    fn period_hint(&self) -> Option<u64> {
        // Quiet case: the slot channel depends on the round index r only
        // through (r mod (P−1), r mod P, r mod m) — stride, offset, and
        // projection rotation — so the true period is
        // 3P · lcm(P(P−1), m).
        self.sensing.period(3, self.p)
    }

    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        // Segment-compiled twin of the slot-by-slot default (bit-identical):
        // each zig, zag or stay phase is one arithmetic lane (step +a, −a
        // or 0); plan epochs only cut a phase into segments that swap the
        // sensed set under it.
        let p = self.p;
        let mut kernel = SensedFill::new(&self.sensing, self.n, p);
        let (mut round, mut j) = (start / (3 * p), start % (3 * p));
        let (mut lane, mut phase_end) = self.phase_lane(round, j);
        let mut i = 0usize;
        while i < out.len() {
            if j == phase_end {
                if j == 3 * p {
                    (round, j) = (round + 1, 0);
                }
                (lane, phase_end) = self.phase_lane(round, j);
            }
            let len = kernel
                .sense(start + i as u64)
                .min(phase_end - j)
                .min((out.len() - i) as u64);
            kernel.project(&mut out[i..i + len as usize], 0, 1, &mut lane);
            i += len as usize;
            j += len;
        }
    }
}

impl Zos {
    /// The residue lane of `round` from round slot `j` on, and the round
    /// slot where its zig, zag or stay phase ends.
    fn phase_lane(&self, round: u64, j: u64) -> (Lane, u64) {
        let p = self.p;
        let (a, b) = (round % (p - 1) + 1, round % p);
        let (r, step) = match j / p {
            0 => (add_mod(mul_mod(j, a, p), b, p), a),
            1 => (add_mod(mul_mod(2 * p - 1 - j, a, p), b, p), p - a),
            _ => (b, 0),
        };
        let lane = Lane {
            r,
            step,
            rotation: round,
        };
        (lane, (j / p + 1) * p)
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
        let plan = FaultPlan::new(7, 64, 300, 0, 4096);
        for z in [
            Zos::new(12, s.clone(), 0, None).unwrap(),
            Zos::new(12, s.clone(), 37, Some(plan)).unwrap(),
        ] {
            for t in 0..3_000 {
                let ch = z.channel_at(t);
                assert!(s.contains(ch.get()));
                assert_eq!(ch, z.channel_at(t));
            }
        }
    }

    #[test]
    fn fill_matches_slot_by_slot_under_a_plan() {
        // A small and a wide universe; the P-relative starts cross phase
        // boundaries.
        let plan = FaultPlan::new(99, 48, 400, 0, 8192);
        for (n, channels) in [(8u64, vec![1u64, 4, 6, 7]), (70_000, vec![1, 4, 6, 69_999])] {
            let z = Zos::new(n, set(&channels), 213, Some(plan)).unwrap();
            let p = z.prime();
            for start in [
                0u64,
                1,
                47,
                48,
                300,
                511,
                512,
                1000,
                p - 5,
                2 * p - 5,
                3 * p - 5,
            ] {
                let mut bulk = vec![0u64; 700];
                z.fill_channels(start, &mut bulk);
                for (i, &c) in bulk.iter().enumerate() {
                    assert_eq!(
                        c,
                        z.channel_at(start + i as u64).get(),
                        "n {n}, start {start}, offset {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn quiet_schedule_is_periodic_and_plan_drops_the_hint() {
        let s = set(&[2, 3, 5, 8]);
        let quiet = Zos::new(8, s.clone(), 0, None).unwrap();
        let period = quiet.period_hint().expect("oblivious ZOS is periodic");
        // n = 8 → P = 11, m = 4 → 3·11·lcm(110, 4) = 33·220 = 7260.
        assert_eq!(period, 7260);
        for t in 0..2 * period {
            assert_eq!(quiet.channel_at(t), quiet.channel_at(t + period));
        }
        let plan = FaultPlan::new(1, 64, 100, 0, 4096);
        assert!(Zos::new(8, s, 0, Some(plan))
            .unwrap()
            .period_hint()
            .is_none());
    }

    #[test]
    fn period_hint_is_none_when_the_period_overflows() {
        // n = 2²² → P = 4 194 319; with m = 3 the period
        // 3P · lcm(P(P−1), 3) ≈ 2.2·10²⁰ does not fit in u64. A quiet plan
        // is dropped at construction, so it must agree with no plan.
        let s = set(&[1, 2, 3]);
        let quiet = FaultPlan::new(1, 64, 0, 0, 4096);
        for plan in [None, Some(quiet)] {
            let wide = Zos::new(1 << 22, s.clone(), 0, plan).unwrap();
            assert_eq!(wide.period_hint(), None);
            // n = 2¹⁶ → P = 65 537: the period fits and is unchanged.
            let narrow = Zos::new(1 << 16, s.clone(), 0, plan).unwrap();
            assert_eq!(narrow.period_hint(), Some(2_533_352_100_397_056));
        }
    }

    #[test]
    fn sensed_hops_avoid_blacked_out_channels_when_possible() {
        let licensed = set(&[1, 2, 3, 4, 5, 6]);
        let plan = FaultPlan::new(23, 32, 500, 0, 4096);
        let z = Zos::new(6, licensed.clone(), 0, Some(plan)).unwrap();
        for t in 0..2_000u64 {
            let avail: Vec<u64> = licensed
                .as_slice()
                .iter()
                .copied()
                .filter(|&c| plan.channel_available(c, t))
                .collect();
            let c = z.channel_at(t).get();
            if !avail.is_empty() {
                assert!(avail.contains(&c), "slot {t}: hopped blacked-out {c}");
            }
        }
    }

    #[test]
    fn oblivious_pairs_rendezvous_under_every_small_shift() {
        // Fault-free sanity: overlapping sets meet, including the fully
        // synchronized (shift 0) anonymous case the raw universe sequence
        // exists to break.
        let n = 6u64;
        let a = Zos::new(n, set(&[1, 2, 3, 4]), 0, None).unwrap();
        let b = Zos::new(n, set(&[3, 4, 5, 6]), 0, None).unwrap();
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
        // Two agents sharing {3, 4} under a real outage plan: every
        // meeting the naive reference finds must be on a channel the plan
        // reports available at that absolute slot.
        let n = 8u64;
        let plan = FaultPlan::new(77, 64, 200, 0, 8192);
        let a = Zos::new(n, set(&[1, 2, 3, 4]), 0, Some(plan)).unwrap();
        let b = Zos::new(n, set(&[3, 4, 5, 6]), 9, Some(plan)).unwrap();
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
        assert!(Zos::new(3, set(&[4]), 0, None).is_none());
        assert!(Zos::new(0, set(&[1]), 0, None).is_none());
    }
}
