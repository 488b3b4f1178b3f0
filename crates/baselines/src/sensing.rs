//! Shared sensed-set machinery of the availability-aware family
//! ([`Zos`](crate::Zos), [`AcsHopping`](crate::AcsHopping)).
//!
//! The oblivious Table 1 constructions hop a schedule derived from the
//! *licensed* channel set alone; the availability-aware family instead
//! derives each hop from the channels the radio currently *senses* as
//! usable — the licensed set intersected with the fault plan's per-epoch
//! outage masks ([`FaultPlan::channel_available`]). [`Sensing`] packages
//! that lookup:
//!
//! * **Local vs absolute time.** Schedules run on the agent's local clock
//!   (`t` slots since wake), but spectrum availability is a property of
//!   the *absolute* slot; `Sensing` carries the agent's wake offset and
//!   performs the translation, so availability-aware schedules stay
//!   drop-in [`Schedule`](rdv_core::schedule::Schedule) implementations.
//! * **Quiet plans compile away.** A `None` or quiet plan senses the full
//!   licensed set forever, so availability-aware schedules are exactly
//!   periodic and block-compile like any oblivious schedule when nothing
//!   is faulted.
//! * **Never go dark.** If an epoch blacks out the *entire* licensed set,
//!   the radio keeps hopping the full set (those slots cannot produce a
//!   meeting anyway — the engine masks them — but the sequence position
//!   keeps advancing deterministically).
//!
//! # The segment kernel
//!
//! Both schedules define a hop per slot (`channel_at`, the oracle) as a
//! raw residue `r ∈ [0, P)` projected onto the sensed set with a rotation
//! ([`project_sensed`](crate::projection::project_sensed)). Their bulk
//! fills go through one kernel instead, `SensedFill`. Each phase of the
//! sequence (an ACS frame, a ZOS zig/zag/stay phase) holds the rotation
//! fixed and steps its residues arithmetically (`r ← r + d mod P`);
//! plan-epoch boundaries cut a phase into **segments** over which the
//! sensed set is constant too. Per segment the kernel senses at most
//! once — only when the epoch is new — into a reused buffer, then walks
//! the run with no division: the universe
//! fold `r mod n` is one conditional subtract (`P ≤ 2n` by Bertrand's
//! postulate) and the fallback index `(r + rotation) mod m` is carried
//! incrementally.

use rdv_core::channel::ChannelSet;
use rdv_core::fault::FaultPlan;
use rdv_numtheory::modular::gcd;

/// The availability context of one availability-aware schedule: the
/// agent's licensed set, its absolute wake slot, and the (optional) fault
/// plan whose outage masks it senses.
#[derive(Debug, Clone)]
pub struct Sensing {
    set: ChannelSet,
    wake: u64,
    plan: Option<FaultPlan>,
}

impl Sensing {
    /// Builds a sensing context. Quiet plans are dropped to `None` so a
    /// quiet-plan schedule is *observationally identical* to a plan-less
    /// one — including its `period_hint`, so it block-compiles.
    pub fn new(set: ChannelSet, wake: u64, plan: Option<FaultPlan>) -> Self {
        Sensing {
            set,
            wake,
            plan: plan.filter(|p| !p.is_quiet()),
        }
    }

    /// Whether a (non-quiet) fault plan is being sensed. With one, the
    /// masks are hashed per epoch and never repeat, so the schedule has
    /// no period.
    fn has_plan(&self) -> bool {
        self.plan.is_some()
    }

    /// The sensed channel set at local slot `t`: the licensed channels the
    /// plan reports available during the epoch containing absolute slot
    /// `wake + t`, in ascending channel order; the whole licensed set when
    /// there is no plan or everything is blacked out.
    pub fn sensed_at(&self, t: u64) -> Vec<u64> {
        let mut sensed = Vec::new();
        self.sense_into(self.epoch_at(t).map(|(epoch, _)| epoch), &mut sensed);
        sensed
    }

    /// The absolute plan epoch of local slot `t` and how many slots from
    /// `t` (inclusive) it lasts; `None` without a plan.
    fn epoch_at(&self, t: u64) -> Option<(u64, u64)> {
        self.plan.map(|plan| {
            let abs = self.wake.saturating_add(t);
            let len = plan.epoch_slots();
            (abs / len, len - abs % len)
        })
    }

    /// The true period of a schedule on this context whose rounds last
    /// `phase · P` slots and depend on the round index only through its
    /// residues mod `P − 1`, `P` and `m = |set|`: `phase · P · lcm(P(P−1),
    /// m)`. `None` under an active plan (the masks never repeat) or when
    /// the period does not fit in `u64`.
    pub fn period(&self, phase: u64, p: u64) -> Option<u64> {
        if self.has_plan() {
            return None;
        }
        let m = self.set.len() as u64;
        let rp = p.checked_mul(p - 1)?;
        let lcm = (rp / gcd(rp, m)).checked_mul(m)?;
        phase.checked_mul(p)?.checked_mul(lcm)
    }

    /// The sensed set of plan epoch `epoch` (`None` without a plan) into
    /// a reused buffer.
    fn sense_into(&self, epoch: Option<u64>, sensed: &mut Vec<u64>) {
        sensed.clear();
        let licensed = self.set.as_slice();
        if let (Some(plan), Some(epoch)) = (&self.plan, epoch) {
            sensed.extend(
                licensed
                    .iter()
                    .copied()
                    .filter(|&c| plan.available_in_epoch(c, epoch)),
            );
        }
        if sensed.is_empty() {
            sensed.extend_from_slice(licensed);
        }
    }
}

/// One arithmetic run of raw residues inside a phase of the sequence:
/// the residue of its next slot, its step mod `P` (0 for a stay), and
/// the projection rotation. A lane outlives the segments a plan epoch
/// cuts its phase into; only the sensed set under it changes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    pub(crate) r: u64,
    pub(crate) step: u64,
    pub(crate) rotation: u64,
}

/// The segment kernel of one bulk fill (see the module docs): the
/// schedule's sensing context and universe, plus the sensed set of the
/// last epoch sensed, reused across segments.
pub(crate) struct SensedFill<'a> {
    sensing: &'a Sensing,
    n: u64,
    p: u64,
    /// The sensed channels up to `expires`, ascending and non-empty once
    /// [`Self::sense`] has run.
    sensed: Vec<u64>,
    /// The first local slot past the epoch `sensed` was sensed in (0
    /// before the first sense, `u64::MAX` without a plan).
    expires: u64,
    /// `P mod |sensed|`.
    p_mod_m: u64,
}

impl<'a> SensedFill<'a> {
    /// A kernel for a schedule over universe `[n]` with universe prime
    /// `p ≥ n` (so `p ≤ 2n`).
    pub(crate) fn new(sensing: &'a Sensing, n: u64, p: u64) -> Self {
        debug_assert!(n <= p && p - n <= n, "universe prime out of range");
        SensedFill {
            sensing,
            n,
            p,
            sensed: Vec::with_capacity(sensing.set.len()),
            expires: 0,
            p_mod_m: 0,
        }
    }

    /// Makes the kernel's sensed set that of local slot `t` (no earlier
    /// than the previous call's), sensing only once `t` has left the last
    /// sensed epoch; returns how many slots from `t` (inclusive, ≥ 1)
    /// that set stays constant.
    pub(crate) fn sense(&mut self, t: u64) -> u64 {
        if t >= self.expires {
            let epoch = self.sensing.epoch_at(t);
            self.expires = epoch.map_or(u64::MAX, |(_, run)| t.saturating_add(run));
            self.sensing
                .sense_into(epoch.map(|(epoch, _)| epoch), &mut self.sensed);
            self.p_mod_m = self.p % self.sensed.len() as u64;
        }
        self.expires - t
    }

    /// Writes `lane`'s next slots into `out[first]`, `out[first +
    /// stride]`, … — each exactly `project_sensed(r + 1, n, sensed,
    /// rotation)` of its residue `r` — and advances the lane past them.
    pub(crate) fn project(&self, out: &mut [u64], first: usize, stride: usize, lane: &mut Lane) {
        let (p, m, p_m) = (self.p, self.sensed.len() as u64, self.p_mod_m);
        let Lane { mut r, step, .. } = *lane;
        // The fallback index (r + rotation) mod m, carried along.
        let mut pick = (r + lane.rotation) % m;
        if step == 0 {
            let channel = self.channel(r, pick);
            out.iter_mut()
                .skip(first)
                .step_by(stride)
                .for_each(|slot| *slot = channel);
            return;
        }
        let step_m = step % m;
        let mut x = first;
        while x < out.len() {
            out[x] = self.channel(r, pick);
            x += stride;
            // r + step wraps past P about step/P of the time at random,
            // so both updates are selects rather than branches. A wrap
            // takes P off r and so P mod m off the fallback index.
            let wrap = r >= p - step;
            r = if wrap { r - (p - step) } else { r + step };
            pick += step_m;
            pick = if pick >= m { pick - m } else { pick };
            let back = if wrap { p_m } else { 0 };
            pick = if pick >= back {
                pick - back
            } else {
                pick + m - back
            };
        }
        lane.r = r;
    }

    /// The projection of residue `r < P` with fallback index `pick`.
    #[inline]
    fn channel(&self, r: u64, pick: u64) -> u64 {
        let folded = if r >= self.n { r - self.n } else { r } + 1;
        if self.sensed.binary_search(&folded).is_ok() {
            folded
        } else {
            self.sensed[pick as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::project_sensed;

    fn set(channels: &[u64]) -> ChannelSet {
        ChannelSet::new(channels.iter().copied()).unwrap()
    }

    #[test]
    fn no_plan_senses_the_full_set_forever() {
        let s = Sensing::new(set(&[2, 5, 9]), 17, None);
        assert!(!s.has_plan());
        assert_eq!(s.sensed_at(0), vec![2, 5, 9]);
        assert_eq!(s.sensed_at(1_000_000), vec![2, 5, 9]);
        let mut k = SensedFill::new(&s, 9, 11);
        assert_eq!(k.sense(123), u64::MAX - 123);
    }

    #[test]
    fn quiet_plans_are_dropped() {
        let quiet = FaultPlan::new(7, 64, 0, 0, 4096);
        let s = Sensing::new(set(&[1, 2]), 0, Some(quiet));
        assert!(!s.has_plan());
    }

    #[test]
    fn sensed_set_matches_the_plan_and_is_epoch_stable() {
        let plan = FaultPlan::new(42, 64, 300, 0, 4096);
        let licensed = set(&[3, 4, 5, 6]);
        let wake = 100u64;
        let s = Sensing::new(licensed.clone(), wake, Some(plan));
        assert!(s.has_plan());
        let mut k = SensedFill::new(&s, 6, 7);
        for t in 0..1024u64 {
            let sensed = s.sensed_at(t);
            let abs = wake + t;
            let want: Vec<u64> = licensed
                .as_slice()
                .iter()
                .copied()
                .filter(|&c| plan.channel_available(c, abs))
                .collect();
            if want.is_empty() {
                assert_eq!(sensed, licensed.as_slice());
            } else {
                assert_eq!(sensed, want);
            }
            // The kernel senses the same set, constant over the run it
            // advertises, which ends exactly at an absolute epoch boundary.
            let run = k.sense(t);
            assert!(run >= 1);
            assert_eq!(k.sensed, sensed);
            assert_eq!(s.sensed_at(t + run - 1), sensed);
            assert_eq!((abs + run) % 64, 0);
        }
    }

    #[test]
    fn total_blackout_falls_back_to_the_licensed_set() {
        // outage 1000‰: every real channel is blacked out in every epoch.
        let plan = FaultPlan::new(9, 16, 1000, 0, 1024);
        let licensed = set(&[2, 7]);
        let s = Sensing::new(licensed.clone(), 0, Some(plan));
        assert_eq!(s.sensed_at(5), licensed.as_slice());
    }

    #[test]
    fn projected_runs_match_per_slot_projection() {
        // Every step (including the stay step 0), rotation and stride,
        // in small and wide universes; a lane resumed in a second call
        // continues where it stopped.
        for (n, p, channels) in [
            (10u64, 11u64, vec![1u64, 4, 6, 10]),
            (13, 13, vec![2, 3, 5, 7, 11, 13]),
            ((1 << 16) + 1, (1 << 16) + 3, vec![3, 65_537]),
        ] {
            let s = Sensing::new(set(&channels), 0, None);
            let mut k = SensedFill::new(&s, n, p);
            k.sense(0);
            for step in [0, 1, 2, p / 2, p - 1] {
                for (r, rotation) in [(0, 0), (p - 1, 5), (3, 1 << 40)] {
                    for (first, stride) in [(0usize, 1usize), (1, 2)] {
                        let mut lane = Lane { r, step, rotation };
                        let mut out = vec![0u64; 3 * p.min(40) as usize];
                        let half = out.len() / 2;
                        k.project(&mut out[..half], first, stride, &mut lane);
                        let resume = (first as i64 - half as i64).rem_euclid(stride as i64);
                        k.project(&mut out[half..], resume as usize, stride, &mut lane);
                        let mut residue = r;
                        for &got in out.iter().skip(first).step_by(stride) {
                            let want = project_sensed(residue + 1, n, &channels, rotation);
                            assert_eq!(got, want.get(), "n {n}, step {step}, r {residue}");
                            residue = (residue + step) % p;
                        }
                    }
                }
            }
        }
    }
}
