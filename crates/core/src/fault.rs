//! Deterministic fault injection: seeded channel outages and agent churn.
//!
//! The paper's model assumes a fixed channel universe and agents that stay
//! up for the whole horizon; the cognitive-radio setting it targets is
//! defined by the opposite — licensed (primary) users blacking out
//! channels mid-run and radios arriving and leaving. A [`FaultPlan`]
//! makes that disruption a first-class, *deterministic* experiment axis:
//!
//! * **Channel availability** — per-epoch outage masks. Time is cut into
//!   epochs of [`FaultPlan::epoch_slots`]; each `(channel, epoch)` pair is
//!   independently blacked out with probability `outage_per_mille / 1000`,
//!   drawn from a SplitMix64 hash of `(seed, channel, epoch)`. Epochs
//!   model primary-user activity and jamming bursts: an outage persists
//!   for the whole epoch, then the mask is redrawn.
//! * **Agent churn** — per-agent arrival/departure windows. Each agent is
//!   independently churned with probability `churn_per_mille / 1000`;
//!   churned agents get a seeded [`InPlayWindow`] scaled by the plan's
//!   horizon hint, outside of which they neither transmit nor listen.
//!
//! Every query is a pure function of `(plan, argument)` — no state, no
//! iteration order, no clock — so any simulation threading a plan through
//! is byte-identical across thread counts by construction, which is the
//! invariant the sweep orchestrator's determinism contract requires.

/// The SplitMix64 finalizer over `(base, stream)` — the same split-one-
/// seed-into-independent-streams mix the sweep orchestrator uses
/// (`rdv_sim::pool::stream_seed`), duplicated here because `rdv_core`
/// sits below the simulator in the crate DAG.
fn mix(base: u64, stream: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain-separation tags so the outage and churn streams of one seed can
/// never collide.
const OUTAGE_TAG: u64 = 0x4F55_5441_4745_0001; // "OUTAGE"
const CHURN_TAG: u64 = 0x4348_5552_4E00_0002; // "CHURN"

/// The half-open `[arrive, depart)` slot interval an agent is in play —
/// transmitting and listening — under a [`FaultPlan`]. Agents that are
/// not churned get the full line (`arrive = 0`, `depart = u64::MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InPlayWindow {
    /// First slot the agent is in play (absolute).
    pub arrive: u64,
    /// First slot the agent is gone (absolute, exclusive).
    pub depart: u64,
}

impl InPlayWindow {
    /// The whole timeline: an un-churned agent.
    pub const ALWAYS: InPlayWindow = InPlayWindow {
        arrive: 0,
        depart: u64::MAX,
    };

    /// Whether the agent is in play at `slot`.
    pub fn contains(&self, slot: u64) -> bool {
        (self.arrive..self.depart).contains(&slot)
    }
}

/// A seeded, deterministic fault plan: per-epoch channel outage masks plus
/// per-agent arrival/departure windows (see the module docs for the
/// model). All queries are pure functions of the plan and their
/// arguments, so faulted runs stay byte-identical across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    epoch_slots: u64,
    outage_per_mille: u16,
    churn_per_mille: u16,
    horizon_hint: u64,
}

impl FaultPlan {
    /// Builds a plan. Rates are in per-mille (clamped to `[0, 1000]`);
    /// `epoch_slots` is the outage-mask redraw period (clamped to ≥ 1);
    /// `horizon_hint` scales churned agents' arrival/departure windows
    /// (clamped to ≥ 1) and is typically the run horizon.
    pub fn new(
        seed: u64,
        epoch_slots: u64,
        outage_per_mille: u16,
        churn_per_mille: u16,
        horizon_hint: u64,
    ) -> Self {
        FaultPlan {
            seed,
            epoch_slots: epoch_slots.max(1),
            outage_per_mille: outage_per_mille.min(1000),
            churn_per_mille: churn_per_mille.min(1000),
            horizon_hint: horizon_hint.max(1),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Slots per outage-mask epoch.
    pub fn epoch_slots(&self) -> u64 {
        self.epoch_slots
    }

    /// Per-mille probability a `(channel, epoch)` is blacked out.
    pub fn outage_per_mille(&self) -> u16 {
        self.outage_per_mille
    }

    /// Per-mille probability an agent gets a bounded in-play window.
    pub fn churn_per_mille(&self) -> u16 {
        self.churn_per_mille
    }

    /// Whether the plan injects no faults at all — engines skip the
    /// masking paths entirely for quiet plans, so a quiet plan is
    /// observationally identical to no plan.
    pub fn is_quiet(&self) -> bool {
        self.outage_per_mille == 0 && self.churn_per_mille == 0
    }

    /// Whether `channel` is available (not blacked out) at `slot`: a pure
    /// hash of `(seed, channel, slot / epoch_slots)` against the outage
    /// rate. Channel `0` is the engines' no-meet sentinel, never a real
    /// channel; it is reported unavailable for defense in depth.
    pub fn channel_available(&self, channel: u64, slot: u64) -> bool {
        self.available_in_epoch(channel, slot / self.epoch_slots)
    }

    /// [`Self::channel_available`] for every slot of outage epoch `epoch`
    /// (slots `[epoch · epoch_slots, (epoch + 1) · epoch_slots)`), for
    /// callers that walk time one epoch at a time.
    pub fn available_in_epoch(&self, channel: u64, epoch: u64) -> bool {
        if channel == 0 {
            return false;
        }
        if self.outage_per_mille == 0 {
            return true;
        }
        mix(mix(self.seed ^ OUTAGE_TAG, channel), epoch) % 1000 >= self.outage_per_mille as u64
    }

    /// The in-play window of agent `agent`: [`InPlayWindow::ALWAYS`] for
    /// un-churned agents; churned agents arrive within the first half of
    /// the horizon hint and stay up for a seeded span of at most one
    /// hint, so roughly half of them also depart before the horizon.
    pub fn agent_window(&self, agent: usize) -> InPlayWindow {
        if self.churn_per_mille == 0 {
            return InPlayWindow::ALWAYS;
        }
        let h = mix(self.seed ^ CHURN_TAG, agent as u64);
        if h % 1000 >= self.churn_per_mille as u64 {
            return InPlayWindow::ALWAYS;
        }
        let arrive = mix(h, 1) % (self.horizon_hint / 2 + 1);
        let span = 1 + mix(h, 2) % self.horizon_hint;
        InPlayWindow {
            arrive,
            depart: arrive.saturating_add(span),
        }
    }
}

/// A named fault profile — the CLI-facing presets behind
/// `repro table1 --faults <profile>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultProfile {
    /// The CLI name.
    pub name: &'static str,
    /// Outage-mask redraw period.
    pub epoch_slots: u64,
    /// Per-mille channel outage rate.
    pub outage_per_mille: u16,
    /// Per-mille agent churn rate.
    pub churn_per_mille: u16,
}

/// Every named profile, mildest first.
pub const PROFILES: &[FaultProfile] = &[
    FaultProfile {
        name: "light",
        epoch_slots: 64,
        outage_per_mille: 50,
        churn_per_mille: 150,
    },
    FaultProfile {
        name: "heavy",
        epoch_slots: 32,
        outage_per_mille: 250,
        churn_per_mille: 400,
    },
];

impl FaultProfile {
    /// Looks up a profile by CLI name.
    pub fn named(name: &str) -> Option<&'static FaultProfile> {
        PROFILES.iter().find(|p| p.name == name)
    }

    /// Instantiates the profile as a concrete plan.
    pub fn plan(&self, seed: u64, horizon_hint: u64) -> FaultPlan {
        FaultPlan::new(
            seed,
            self.epoch_slots,
            self.outage_per_mille,
            self.churn_per_mille,
            horizon_hint,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_is_deterministic_and_epoch_stable() {
        let p = FaultPlan::new(42, 64, 200, 0, 4096);
        for channel in 1..=32u64 {
            for slot in 0..256u64 {
                let a = p.channel_available(channel, slot);
                assert_eq!(a, p.channel_available(channel, slot), "pure function");
                // The whole epoch agrees with its first slot.
                let epoch_start = (slot / 64) * 64;
                assert_eq!(a, p.channel_available(channel, epoch_start));
                assert_eq!(a, p.available_in_epoch(channel, slot / 64));
            }
        }
    }

    #[test]
    fn outage_rate_zero_never_blocks_real_channels() {
        let p = FaultPlan::new(7, 16, 0, 500, 1000);
        assert!((1..=100).all(|c| p.channel_available(c, 12345)));
        // The sentinel channel is never available.
        assert!(!p.channel_available(0, 0));
    }

    #[test]
    fn outage_rate_is_roughly_honored() {
        let p = FaultPlan::new(3, 1, 250, 0, 1);
        let blocked = (1..=1000u64)
            .flat_map(|c| (0..100u64).map(move |t| (c, t)))
            .filter(|&(c, t)| !p.channel_available(c, t))
            .count();
        // 25% ± generous slack over 100k draws.
        assert!((20_000..30_000).contains(&blocked), "blocked = {blocked}");
    }

    #[test]
    fn churn_zero_means_everyone_always_in_play() {
        let p = FaultPlan::new(9, 64, 100, 0, 4096);
        assert!((0..64).all(|a| p.agent_window(a) == InPlayWindow::ALWAYS));
        assert!(p.agent_window(0).contains(u64::MAX - 1));
    }

    #[test]
    fn churned_windows_are_nonempty_and_deterministic() {
        let p = FaultPlan::new(11, 64, 0, 1000, 4096);
        for a in 0..64usize {
            let w = p.agent_window(a);
            assert_eq!(w, p.agent_window(a));
            assert!(w.arrive < w.depart, "agent {a}: empty window {w:?}");
            assert!(w.arrive <= 2048, "arrival in the first half of the hint");
            assert!(w.contains(w.arrive) && !w.contains(w.depart));
        }
    }

    #[test]
    fn quiet_plans_know_they_are_quiet() {
        assert!(FaultPlan::new(1, 64, 0, 0, 100).is_quiet());
        assert!(!FaultPlan::new(1, 64, 1, 0, 100).is_quiet());
        assert!(!FaultPlan::new(1, 64, 0, 1, 100).is_quiet());
    }

    #[test]
    fn construction_clamps_degenerate_parameters() {
        let p = FaultPlan::new(5, 0, 2000, 1500, 0);
        assert_eq!(p.epoch_slots(), 1);
        assert_eq!(p.outage_per_mille(), 1000);
        assert_eq!(p.churn_per_mille(), 1000);
        // horizon_hint clamps to 1, so windows stay well-formed.
        let w = p.agent_window(0);
        assert!(w.arrive < w.depart);
    }

    #[test]
    fn named_profiles_resolve() {
        assert!(FaultProfile::named("light").is_some());
        assert!(FaultProfile::named("heavy").is_some());
        assert!(FaultProfile::named("nope").is_none());
        let plan = FaultProfile::named("light").unwrap().plan(42, 4096);
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.outage_per_mille(), 50);
        assert!(!plan.is_quiet());
    }

    #[test]
    fn distinct_seeds_give_distinct_masks() {
        let a = FaultPlan::new(1, 1, 500, 0, 1);
        let b = FaultPlan::new(2, 1, 500, 0, 1);
        let differs = (1..=64u64)
            .flat_map(|c| (0..64u64).map(move |t| (c, t)))
            .any(|(c, t)| a.channel_available(c, t) != b.channel_available(c, t));
        assert!(differs, "two seeds produced identical outage masks");
    }
}
