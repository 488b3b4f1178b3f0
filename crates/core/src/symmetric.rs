//! Section 3.2: the reduction that adds `O(1)` symmetric rendezvous to any
//! schedule family, at a constant-factor (12×) cost for asymmetric pairs.
//!
//! Each slot of the base schedule calling channel `c₁` is expanded into the
//! 12-slot block `(c₀ c₁ c₀ c₀ c₁ c₁)²`, where `c₀ = min A`. The pattern
//! `010011` has the property `010011 ◇₀ 010011`: *any* pair of rotations
//! realizes simultaneous `(0,0)` and `(1,1)` accesses. Two agents with the
//! same set share the same `c₀`, so whatever their relative wake-up shift
//! they hit `(c₀, c₀)` within a constant number of slots. For different
//! sets, the aligned `(1,1)` mini-slots replay the base schedules at a fixed
//! relative shift once per 12-slot block, preserving the base guarantee at
//! 12× the time (plus a constant).

use crate::channel::{Channel, ChannelSet};
use crate::schedule::Schedule;

/// The mini-slot pattern of Section 3.2: `0 → c₀`, `1 → c₁`, repeated twice
/// per base slot.
pub const PATTERN: [bool; 6] = [false, true, false, false, true, true];

/// Number of mini-slots per base slot.
pub const BLOWUP: u64 = 12;

/// A schedule wrapped with the symmetric `O(1)` pattern.
///
/// # Example
///
/// ```
/// use rdv_core::channel::ChannelSet;
/// use rdv_core::general::GeneralSchedule;
/// use rdv_core::symmetric::SymmetricWrapped;
/// use rdv_core::verify;
///
/// let set = ChannelSet::new(vec![5, 9, 23]).unwrap();
/// let base = GeneralSchedule::asynchronous(32, set.clone()).unwrap();
/// let a = SymmetricWrapped::new(base.clone(), &set);
/// let b = SymmetricWrapped::new(base, &set);
/// // Same set ⇒ rendezvous within a constant number of slots, any shift:
/// for shift in [0, 1, 5, 100, 12345] {
///     assert!(verify::async_ttr(&a, &b, shift, 24).is_some());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricWrapped<S> {
    inner: S,
    c0: Channel,
}

impl<S: Schedule> SymmetricWrapped<S> {
    /// Wraps `inner`, anchoring on `set`'s smallest channel.
    pub fn new(inner: S, set: &ChannelSet) -> Self {
        SymmetricWrapped {
            inner,
            c0: set.min_channel(),
        }
    }

    /// The wrapped schedule.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Provable bound on symmetric (same-set) asynchronous rendezvous: the
    /// difference set of the pattern's `0`-positions covers every residue
    /// mod 6, so an aligned `(c₀, c₀)` occurs within 6 mini-slots; one extra
    /// pattern period absorbs boundary effects.
    pub const SYMMETRIC_TTR_BOUND: u64 = 12;
}

impl<S: Schedule> Schedule for SymmetricWrapped<S> {
    fn channel_at(&self, t: u64) -> Channel {
        let base_slot = t / BLOWUP;
        let pos = (t % BLOWUP) % 6;
        if PATTERN[pos as usize] {
            self.inner.channel_at(base_slot)
        } else {
            self.c0
        }
    }

    fn period_hint(&self) -> Option<u64> {
        self.inner.period_hint().map(|p| p * BLOWUP)
    }

    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        // One inner-schedule evaluation per base slot (12 mini-slots)
        // instead of per mini-slot.
        let c0 = self.c0.get();
        let mut t = start;
        let mut filled = 0usize;
        while filled < out.len() {
            let base_slot = t / BLOWUP;
            let within = t % BLOWUP;
            let take = ((BLOWUP - within) as usize).min(out.len() - filled);
            let c1 = self.inner.channel_at(base_slot).get();
            for (x, slot) in out[filled..filled + take].iter_mut().enumerate() {
                let pos = ((within + x as u64) % 6) as usize;
                *slot = if PATTERN[pos] { c1 } else { c0 };
            }
            t += take as u64;
            filled += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::general::GeneralSchedule;
    use crate::schedule::{ConstantSchedule, CyclicSchedule};
    use crate::verify;

    fn set(channels: &[u64]) -> ChannelSet {
        ChannelSet::new(channels.iter().copied()).unwrap()
    }

    #[test]
    fn pattern_zero_positions_cover_all_residues() {
        // {0,2,3} − {0,2,3} = ℤ₆: the structural fact behind O(1).
        let zeros: Vec<i64> = PATTERN
            .iter()
            .enumerate()
            .filter(|(_, &b)| !b)
            .map(|(i, _)| i as i64)
            .collect();
        let mut residues = std::collections::HashSet::new();
        for &a in &zeros {
            for &b in &zeros {
                residues.insert((a - b).rem_euclid(6));
            }
        }
        assert_eq!(residues.len(), 6);
    }

    #[test]
    fn pattern_one_positions_cover_all_residues() {
        // {1,4,5} − {1,4,5} = ℤ₆: why asymmetric pairs still meet.
        let ones: Vec<i64> = PATTERN
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| i as i64)
            .collect();
        let mut residues = std::collections::HashSet::new();
        for &a in &ones {
            for &b in &ones {
                residues.insert((a - b).rem_euclid(6));
            }
        }
        assert_eq!(residues.len(), 6);
    }

    #[test]
    fn symmetric_rendezvous_constant_all_shifts() {
        let s = set(&[4, 9, 40, 41]);
        let base = GeneralSchedule::asynchronous(64, s.clone()).unwrap();
        let a = SymmetricWrapped::new(base.clone(), &s);
        let b = SymmetricWrapped::new(base, &s);
        // Exhaustive over a large range of shifts: TTR ≤ 12, constant.
        for shift in 0..500u64 {
            let ttr = verify::async_ttr(
                &a,
                &b,
                shift,
                2 * SymmetricWrapped::<GeneralSchedule>::SYMMETRIC_TTR_BOUND,
            )
            .expect("symmetric rendezvous");
            assert!(
                ttr < SymmetricWrapped::<GeneralSchedule>::SYMMETRIC_TTR_BOUND,
                "shift {shift}: ttr {ttr}"
            );
        }
    }

    #[test]
    fn symmetric_rendezvous_lands_on_anchor_or_shared() {
        let s = set(&[7, 13]);
        let base = GeneralSchedule::asynchronous(16, s.clone()).unwrap();
        let a = SymmetricWrapped::new(base.clone(), &s);
        let b = SymmetricWrapped::new(base, &s);
        for shift in 0..100u64 {
            let ttr = verify::async_ttr(&a, &b, shift, 24).unwrap();
            let c = b.channel_at(ttr);
            assert!(s.contains(c.get()));
        }
    }

    #[test]
    fn asymmetric_pairs_still_rendezvous_within_12x() {
        let n = 12;
        let sa = set(&[2, 5, 11]);
        let sb = set(&[5, 7]);
        let base_a = GeneralSchedule::asynchronous(n, sa.clone()).unwrap();
        let base_b = GeneralSchedule::asynchronous(n, sb.clone()).unwrap();
        let base_bound = base_a.ttr_bound(sb.len());
        let a = SymmetricWrapped::new(base_a, &sa);
        let b = SymmetricWrapped::new(base_b, &sb);
        let bound = BLOWUP * base_bound + 2 * BLOWUP;
        for shift in (0..a.period_hint().unwrap()).step_by(997) {
            let ttr = verify::async_ttr(&a, &b, shift, bound + 1);
            assert!(ttr.is_some_and(|x| x <= bound), "shift {shift}: {ttr:?}");
        }
    }

    #[test]
    fn wrapper_only_plays_set_channels() {
        let s = set(&[3, 8, 20]);
        let base = GeneralSchedule::asynchronous(32, s.clone()).unwrap();
        let w = SymmetricWrapped::new(base, &s);
        for t in 0..2_000 {
            assert!(s.contains(w.channel_at(t).get()));
        }
    }

    #[test]
    fn mini_slot_expansion_layout() {
        // One base slot = (c0 c1 c0 c0 c1 c1) twice.
        let inner = ConstantSchedule::new(Channel::new(9));
        let s = set(&[2, 9]);
        let w = SymmetricWrapped::new(inner, &s);
        let want = [2u64, 9, 2, 2, 9, 9, 2, 9, 2, 2, 9, 9];
        for (i, &c) in want.iter().enumerate() {
            assert_eq!(w.channel_at(i as u64).get(), c, "mini-slot {i}");
        }
    }

    #[test]
    fn period_hint_scales_by_12() {
        let inner = CyclicSchedule::new(vec![Channel::new(1), Channel::new(2)]).unwrap();
        let s = set(&[1, 2]);
        let w = SymmetricWrapped::new(inner, &s);
        assert_eq!(w.period_hint(), Some(24));
    }
}
