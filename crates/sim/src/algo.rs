//! A uniform façade over every rendezvous algorithm in the workspace.

use rdv_baselines::{AcsHopping, Crseq, Drds, JumpStay, RandomHopping, Zos};
use rdv_beacon::{BeaconProtocolA, BeaconProtocolB, BeaconStream};
use rdv_core::channel::ChannelSet;
use rdv_core::fault::FaultPlan;
use rdv_core::general::GeneralSchedule;
use rdv_core::schedule::Schedule;
use rdv_core::symmetric::SymmetricWrapped;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A schedule boxed for uniform handling across algorithms.
pub type DynSchedule = Box<dyn Schedule + Send + Sync>;

/// Per-agent context a factory may need.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgentCtx {
    /// Absolute wake slot (needed by the beacon protocols and the
    /// availability-aware family's local→absolute clock translation).
    pub wake: u64,
    /// Per-agent seed (needed by random hopping).
    pub agent_seed: u64,
    /// Shared experiment seed (beacon stream).
    pub shared_seed: u64,
    /// The run's fault plan, when the experiment injects one. The
    /// availability-aware family ([`Algorithm::Zos`],
    /// [`Algorithm::AcsHopping`]) derives its hops from the plan's
    /// sensed channel sets; every oblivious algorithm ignores it, so
    /// `None` (the default) reproduces the fault-free factories exactly.
    pub faults: Option<FaultPlan>,
}

/// Every algorithm the harness can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Theorem 3: the paper's `O(|A||B| log log n)` construction.
    Ours,
    /// Theorem 3 wrapped by Section 3.2's `O(1)`-symmetric pattern.
    OursSymmetric,
    /// Shin–Yang–Kim 2010 (`O(n²)`).
    Crseq,
    /// Lin–Liu–Chu–Leung 2011 (`O(n³)` asymmetric / `O(n)` symmetric).
    JumpStay,
    /// Gu–Hua–Wang–Lau 2013-style difference cover (`O(n²)`).
    Drds,
    /// The randomized strawman (`O(kℓ log n)` w.h.p.).
    Random,
    /// Section 5 protocol A (`O(log n (k+ℓ))` w.h.p., one-bit beacon).
    BeaconA,
    /// Section 5 protocol B (`O(k+ℓ+log n)` w.h.p., one-bit beacon).
    BeaconB,
    /// ZOS-style zig-zag/stay on the sensed channel set
    /// (arXiv 1506.00744; availability-aware, empirical).
    Zos,
    /// Interleaved jump/stay on the available channel set
    /// (arXiv 1506.01136; availability-aware, empirical).
    AcsHopping,
}

/// One arm per variant: this match stops compiling the moment a new
/// `Algorithm` variant exists, and the index it returns is checked (at
/// compile time, below) against [`Algorithm::ALL`] — so a variant that is
/// not also added to `ALL`, in declaration order, fails the build rather
/// than silently escaping the exhaustive sweeps and name checks.
const fn variant_index(a: Algorithm) -> usize {
    match a {
        Algorithm::Ours => 0,
        Algorithm::OursSymmetric => 1,
        Algorithm::Crseq => 2,
        Algorithm::JumpStay => 3,
        Algorithm::Drds => 4,
        Algorithm::Random => 5,
        Algorithm::BeaconA => 6,
        Algorithm::BeaconB => 7,
        Algorithm::Zos => 8,
        Algorithm::AcsHopping => 9,
    }
}

const _: () = {
    let mut i = 0;
    while i < Algorithm::ALL.len() {
        assert!(
            variant_index(Algorithm::ALL[i]) == i,
            "Algorithm::ALL must list every variant in declaration order"
        );
        i += 1;
    }
};

impl Algorithm {
    /// All deterministic, beacon-free algorithms (the Table 1 rows).
    pub const TABLE1: [Algorithm; 4] = [
        Algorithm::Crseq,
        Algorithm::JumpStay,
        Algorithm::Drds,
        Algorithm::Ours,
    ];

    /// Every variant, in declaration order — the exhaustive list behind
    /// name-uniqueness checks and whole-façade sweeps. Kept honest by the
    /// compile-time `variant_index` guard: adding a variant without
    /// extending this list does not compile.
    pub const ALL: [Algorithm; 10] = [
        Algorithm::Ours,
        Algorithm::OursSymmetric,
        Algorithm::Crseq,
        Algorithm::JumpStay,
        Algorithm::Drds,
        Algorithm::Random,
        Algorithm::BeaconA,
        Algorithm::BeaconB,
        Algorithm::Zos,
        Algorithm::AcsHopping,
    ];

    /// Whether the algorithm's guarantee is deterministic.
    pub fn is_deterministic(self) -> bool {
        !matches!(
            self,
            Algorithm::Random | Algorithm::BeaconA | Algorithm::BeaconB
        )
    }

    /// Whether the schedule consults [`AgentCtx::faults`] — the
    /// availability-aware family, which regenerates its hops from the
    /// plan's per-epoch sensed channel sets. Fault pipelines build these
    /// agents twice (a plan-less clean twin and a sensing faulted twin);
    /// for every other algorithm the two twins are the same object.
    pub fn availability_aware(self) -> bool {
        matches!(self, Algorithm::Zos | Algorithm::AcsHopping)
    }

    /// Whether [`Algorithm::make`] consumes `AgentCtx::wake` — i.e. the
    /// schedule itself depends on the absolute wake slot (the beacon
    /// protocols listen to a globally-timed beacon stream; the
    /// availability-aware family translates its local clock to absolute
    /// slots to sense per-epoch outage masks). Sweeps can hoist schedule
    /// construction out of the shift loop — and the arena can share
    /// compiled tables across agents — exactly when this is false.
    pub fn wake_sensitive(self) -> bool {
        matches!(
            self,
            Algorithm::BeaconA | Algorithm::BeaconB | Algorithm::Zos | Algorithm::AcsHopping
        )
    }

    /// Builds the schedule for an agent with channel `set` in universe
    /// `[n]`.
    ///
    /// Returns `None` if the algorithm cannot be instantiated for these
    /// parameters (e.g. a set exceeding the universe).
    pub fn make(self, n: u64, set: &ChannelSet, ctx: &AgentCtx) -> Option<DynSchedule> {
        if set.max_channel().get() > n {
            return None;
        }
        Some(match self {
            Algorithm::Ours => Box::new(GeneralSchedule::asynchronous(n, set.clone())?),
            Algorithm::OursSymmetric => {
                let base = GeneralSchedule::asynchronous(n, set.clone())?;
                Box::new(SymmetricWrapped::new(base, set))
            }
            Algorithm::Crseq => Box::new(Crseq::new(n, set.clone())?),
            Algorithm::JumpStay => Box::new(JumpStay::new(n, set.clone())?),
            Algorithm::Drds => Box::new(Drds::new(n, set.clone())?),
            Algorithm::Random => Box::new(RandomHopping::new(set.clone(), ctx.agent_seed)),
            Algorithm::BeaconA => Box::new(BeaconProtocolA::new(
                BeaconStream::new(ctx.shared_seed),
                n,
                set.clone(),
                ctx.wake,
            )),
            Algorithm::BeaconB => Box::new(BeaconProtocolB::new(
                BeaconStream::new(ctx.shared_seed),
                n,
                set.clone(),
                ctx.wake,
            )),
            Algorithm::Zos => Box::new(Zos::new(n, set.clone(), ctx.wake, ctx.faults)?),
            Algorithm::AcsHopping => {
                Box::new(AcsHopping::new(n, set.clone(), ctx.wake, ctx.faults)?)
            }
        })
    }

    /// A generous horizon within which the algorithm must rendezvous for
    /// overlapping sets (used as simulation cut-off).
    pub fn horizon(self, n: u64, k: usize, ell: usize) -> u64 {
        let n = n.max(2);
        // Each factor widens to u64 *before* the product/sum: `usize`
        // arithmetic would overflow first on 32-bit targets (and panic in
        // debug builds) for large k·ℓ.
        let kl = k as u64 * ell as u64;
        let k_plus_ell = k as u64 + ell as u64;
        match self {
            Algorithm::Ours => (9 * kl + 4) * 4 * 80,
            Algorithm::OursSymmetric => 12 * (9 * kl + 4) * 4 * 80 + 24,
            Algorithm::Crseq => 12 * n * n * (k.max(ell) as u64) + 64,
            Algorithm::JumpStay => 4 * n * n * n + 64 * n + 64,
            Algorithm::Drds => 10 * n * n + 64,
            Algorithm::Random => 64 * kl * u64::from(rdv_strings::log_sharp(n) + 1) + 1024,
            Algorithm::BeaconA => {
                256 * k_plus_ell * u64::from(rdv_strings::log_sharp(n) + 1) + 4096
            }
            Algorithm::BeaconB => 512 * (k_plus_ell + u64::from(rdv_strings::log_sharp(n))) + 8192,
            // Availability-aware reconstructions: round/frame sweeps over
            // the universe prime P ≤ 2n repeat offsets every O(P²) rounds,
            // so a Crseq-like quadratic-in-n cut-off is generous.
            Algorithm::Zos | Algorithm::AcsHopping => {
                12 * n * n * (k.max(ell) as u64) + 64 * n + 4096
            }
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Algorithm::Ours => "ours (Thm 3)",
            Algorithm::OursSymmetric => "ours+sym (§3.2)",
            Algorithm::Crseq => "CRSEQ [21]",
            Algorithm::JumpStay => "Jump-Stay [15]",
            Algorithm::Drds => "DRDS [9]",
            Algorithm::Random => "random (§1.2)",
            Algorithm::BeaconA => "beacon A (§5)",
            Algorithm::BeaconB => "beacon B (§5)",
            Algorithm::Zos => "ZOS [avail]",
            Algorithm::AcsHopping => "ACS-hop [avail]",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(channels: &[u64]) -> ChannelSet {
        ChannelSet::new(channels.iter().copied()).unwrap()
    }

    #[test]
    fn all_algorithms_instantiate() {
        let s = set(&[2, 7, 11]);
        let ctx = AgentCtx::default();
        for algo in Algorithm::ALL {
            let sched = algo.make(16, &s, &ctx).unwrap_or_else(|| {
                panic!("{algo} failed to instantiate");
            });
            for t in 0..100 {
                assert!(
                    s.contains(sched.channel_at(t).get()),
                    "{algo} left its set at slot {t}"
                );
            }
        }
    }

    #[test]
    fn availability_aware_factories_consume_the_plan() {
        // With a plan in the ctx, the availability-aware schedules differ
        // from their oblivious twins (they sense the masks) but still
        // never leave their licensed set; oblivious algorithms ignore the
        // plan entirely.
        let s = set(&[2, 7, 11]);
        let plan = FaultPlan::new(3, 32, 400, 0, 4096);
        let faulted_ctx = AgentCtx {
            faults: Some(plan),
            ..AgentCtx::default()
        };
        for algo in Algorithm::ALL {
            let quiet = algo.make(16, &s, &AgentCtx::default()).unwrap();
            let faulted = algo.make(16, &s, &faulted_ctx).unwrap();
            let diverges = (0..2_000).any(|t| quiet.channel_at(t) != faulted.channel_at(t));
            assert_eq!(
                diverges,
                algo.availability_aware(),
                "{algo}: plan sensitivity does not match availability_aware()"
            );
            for t in 0..500 {
                assert!(s.contains(faulted.channel_at(t).get()), "{algo} at {t}");
            }
        }
    }

    #[test]
    fn oversized_set_rejected() {
        let s = set(&[20]);
        assert!(Algorithm::Ours.make(16, &s, &AgentCtx::default()).is_none());
    }

    #[test]
    fn horizons_are_positive_and_ordered() {
        // JS's cubic horizon dominates the quadratic ones for large n.
        let n = 256;
        let h_js = Algorithm::JumpStay.horizon(n, 4, 4);
        let h_crseq = Algorithm::Crseq.horizon(n, 4, 4);
        let h_ours = Algorithm::Ours.horizon(n, 4, 4);
        assert!(h_js > h_crseq);
        assert!(h_crseq > h_ours);
    }

    #[test]
    fn display_names_unique() {
        // Over ALL variants (not just the Table 1 subset): artifact row
        // ids are keyed by display name, so a duplicate anywhere would
        // silently merge cells. ALL itself is compile-time exhaustive.
        let names: std::collections::HashSet<String> =
            Algorithm::ALL.iter().map(|a| a.to_string()).collect();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    #[test]
    fn horizon_widens_before_multiplying() {
        // Regression for the old `(k * ell) as u64` / `(k + ell) as u64`
        // forms, which multiplied (added) in `usize` *before* widening —
        // an overflow for large k·ℓ on 32-bit targets. k = ℓ = 70_000
        // makes k·ℓ ≈ 4.9e9 > 2³²; the widened math must survive it and
        // match the formulas exactly.
        let (k, ell) = (70_000usize, 70_000usize);
        let kl = 4_900_000_000u64;
        assert_eq!(Algorithm::Ours.horizon(16, k, ell), (9 * kl + 4) * 4 * 80);
        assert_eq!(
            Algorithm::Random.horizon(16, k, ell),
            64 * kl * u64::from(rdv_strings::log_sharp(16) + 1) + 1024
        );
        // Beacon horizons add before widening; push the sum past 2³².
        let (k, ell) = (3_000_000_000usize, 3_000_000_000usize);
        let sum = 6_000_000_000u64;
        assert_eq!(
            Algorithm::BeaconA.horizon(16, k, ell),
            256 * sum * u64::from(rdv_strings::log_sharp(16) + 1) + 4096
        );
        assert_eq!(
            Algorithm::BeaconB.horizon(16, k, ell),
            512 * (sum + u64::from(rdv_strings::log_sharp(16))) + 8192
        );
    }
}
