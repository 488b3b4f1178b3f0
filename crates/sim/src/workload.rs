//! Scenario generators.

use crate::algo::{AgentCtx, Algorithm};
use crate::engine::Agent;
use crate::sweep::SweepError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rdv_core::channel::ChannelSet;
use std::collections::HashSet;

/// A pair of channel sets to be rendezvoused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairScenario {
    /// First agent's set.
    pub a: ChannelSet,
    /// Second agent's set.
    pub b: ChannelSet,
}

impl PairScenario {
    /// Validates two raw channel collections into a sweepable scenario.
    ///
    /// # Errors
    ///
    /// * [`SweepError::InvalidSet`] if either collection is empty, contains
    ///   channel `0`, or contains duplicates;
    /// * [`SweepError::DisjointSets`] if the validated sets share no
    ///   channel (such a pair can never rendezvous, so sweeping it is
    ///   always a caller bug).
    pub fn try_new(
        a: impl IntoIterator<Item = u64>,
        b: impl IntoIterator<Item = u64>,
    ) -> Result<Self, SweepError> {
        let a = ChannelSet::new(a)?;
        let b = ChannelSet::new(b)?;
        if !a.overlaps(&b) {
            return Err(SweepError::DisjointSets);
        }
        Ok(PairScenario { a, b })
    }
}

/// The adversarial geometry of Theorem 7: `|A| = k`, `|B| = ℓ`,
/// `|A ∩ B| = 1`, with the shared channel placed at the boundary.
///
/// Returns `None` if `n < k + ℓ − 1`.
pub fn adversarial_overlap_one(n: u64, k: usize, ell: usize) -> Option<PairScenario> {
    if n < (k + ell - 1) as u64 {
        return None;
    }
    let h = k as u64;
    let a = ChannelSet::new(1..=h).expect("contiguous non-empty");
    let b = ChannelSet::new(h..h + ell as u64).expect("contiguous non-empty");
    Some(PairScenario { a, b })
}

/// Uniformly random size-`k` and size-`ℓ` subsets, resampled until they
/// overlap (deterministic given the seed).
///
/// Returns `None` if `k > n` or `ell > n`.
pub fn random_overlapping_pair(n: u64, k: usize, ell: usize, seed: u64) -> Option<PairScenario> {
    if k as u64 > n || ell as u64 > n {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let universe: Vec<u64> = (1..=n).collect();
    loop {
        let mut u = universe.clone();
        u.shuffle(&mut rng);
        let a = ChannelSet::new(u[..k].iter().copied()).expect("non-empty");
        u.shuffle(&mut rng);
        let b = ChannelSet::new(u[..ell].iter().copied()).expect("non-empty");
        if a.overlaps(&b) {
            return Some(PairScenario { a, b });
        }
    }
}

/// The symmetric scenario: both agents own the same set (random size-`k`).
pub fn symmetric_pair(n: u64, k: usize, seed: u64) -> Option<PairScenario> {
    if k as u64 > n {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut u: Vec<u64> = (1..=n).collect();
    u.shuffle(&mut rng);
    let a = ChannelSet::new(u[..k].iter().copied()).expect("non-empty");
    Some(PairScenario { b: a.clone(), a })
}

/// The "coalition" scenario of the paper's introduction: a huge universe
/// (`n` in the millions) with two small sets sharing a designated band.
///
/// `band` channels around the middle of the spectrum are common; each set
/// additionally gets `k − band` private channels scattered by seed, with
/// the two private pools kept disjoint so exactly the band is shared.
///
/// Both private pools come from one sample of `2(k − band)` distinct
/// indices into the usable spectrum (Floyd's algorithm: exactly one draw
/// per index, whatever `k/n`), mapped around the avoided band, shuffled
/// and split in half — so every feasible parameter set terminates after a
/// fixed number of draws.
///
/// # Errors
///
/// [`SweepError::InvalidScenario`] if `band == 0`, `band > k`, or
/// `2k > n`.
pub fn coalition_pair(
    n: u64,
    k: usize,
    band: usize,
    seed: u64,
) -> Result<PairScenario, SweepError> {
    if band == 0 || band > k || (2 * k) as u64 > n {
        return Err(SweepError::InvalidScenario {
            reason: "coalition needs 0 < band ≤ k and 2k ≤ n",
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mid = n / 2;
    // The avoided region is mid..=mid+band (one more than the shared
    // band, matching the original geometry).
    let avoided = band as u64 + 1;
    let private_per_side = k - band;
    let picks = 2 * private_per_side;
    // `2k ≤ n` and `band ≥ 1` guarantee the spectrum outside the avoided
    // region can host both private pools: 2(k − band) ≤ n − 2band ≤
    // n − band − 1 = usable.
    let usable = n - avoided;
    debug_assert!(picks as u64 <= usable);
    // Floyd's sample of `picks` distinct indices in [0, usable); index `i`
    // is channel `i + 1` below the avoided region and `i + 1 + avoided`
    // above it.
    let mut taken = HashSet::with_capacity(picks);
    let mut private = Vec::with_capacity(picks);
    for j in usable - picks as u64..usable {
        let t = rng.gen_range(0..=j);
        let i = if taken.insert(t) {
            t
        } else {
            taken.insert(j);
            j
        };
        private.push(if i + 1 < mid { i + 1 } else { i + 1 + avoided });
    }
    private.shuffle(&mut rng);
    let (pa, pb) = private.split_at(private_per_side);
    let shared = (0..band as u64).map(|i| mid + i);
    let a = ChannelSet::new(shared.clone().chain(pa.iter().copied()))
        .map_err(SweepError::InvalidSet)?;
    let b = ChannelSet::new(shared.chain(pb.iter().copied())).map_err(SweepError::InvalidSet)?;
    Ok(PairScenario { a, b })
}

/// A clustered-spectrum population: `count` agents, each owning a
/// contiguous block of `k` channels starting at a seeded position — models
/// devices camped on neighboring bands (TV white space style).
pub fn clustered_population(n: u64, k: usize, count: usize, seed: u64) -> Vec<ChannelSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let start = rng.gen_range(1..=n - k as u64 + 1);
            ChannelSet::new(start..start + k as u64).expect("contiguous non-empty")
        })
        .collect()
}

/// The schedule-sharing key for an `(algorithm, universe, channel set)`
/// triple — a stable FNV-1a fold, safe to hand to [`Agent::share_key`]
/// exactly when the algorithm's schedule is a pure function of those
/// three: deterministic (no per-agent seed) and wake-insensitive (no
/// beacon clock). The universe size is part of the key because every
/// construction shapes its schedule around `n` (word lengths, primes,
/// periods), so equal sets in different universes must not share.
/// Returns `None` for seeded or wake-sensitive algorithms, so callers
/// can thread it through unconditionally.
pub fn share_key(algo: Algorithm, n: u64, set: &ChannelSet) -> Option<u64> {
    if !algo.is_deterministic() || algo.wake_sensitive() {
        return None;
    }
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET ^ (algo as u64).wrapping_mul(PRIME);
    h = (h ^ n).wrapping_mul(PRIME);
    for &c in set.as_slice() {
        h = (h ^ c).wrapping_mul(PRIME);
    }
    Some(h)
}

/// A ready-to-simulate clustered population: [`clustered_population`]
/// channel sets turned into agents running `algo`, with wake slots
/// staggered over `[0, max_wake)` — the standard multi-user workload of
/// the engine benches and the `BENCH_multiuser.json` report.
///
/// Deterministic wake-insensitive algorithms get [`share_key`]s, so the
/// arena engine compiles one schedule table per *distinct* channel set —
/// clustered populations repeat sets heavily (`n − k + 1` possible
/// blocks), collapsing the compile path for large `count`.
///
/// # Panics
///
/// Panics if the parameters do not fit the universe (`k > n`) or the
/// algorithm cannot be instantiated on a generated set.
pub fn clustered_agents(
    algo: Algorithm,
    n: u64,
    k: usize,
    count: usize,
    seed: u64,
    max_wake: u64,
) -> Vec<Agent> {
    clustered_agents_with_faults(algo, n, k, count, seed, max_wake, None)
}

/// [`clustered_agents`], with an optional fault plan threaded into every
/// agent's [`AgentCtx`]: the availability-aware family
/// ([`Algorithm::availability_aware`]) derives its hops from the plan's
/// sensed channel sets, so its faulted population differs from its clean
/// one; every oblivious algorithm ignores the plan, so `None` reproduces
/// [`clustered_agents`] exactly. Availability-aware algorithms are
/// wake-sensitive (sensing runs on the absolute clock), so [`share_key`]
/// already refuses to share their schedules across different wakes.
///
/// # Panics
///
/// Panics if the parameters do not fit the universe (`k > n`) or the
/// algorithm cannot be instantiated on a generated set.
pub fn clustered_agents_with_faults(
    algo: Algorithm,
    n: u64,
    k: usize,
    count: usize,
    seed: u64,
    max_wake: u64,
    faults: Option<rdv_core::fault::FaultPlan>,
) -> Vec<Agent> {
    clustered_population(n, k, count, seed)
        .into_iter()
        .enumerate()
        .map(|(i, set)| {
            let ctx = AgentCtx {
                wake: (i as u64).wrapping_mul(37) % max_wake.max(1),
                agent_seed: i as u64,
                shared_seed: seed,
                faults,
            };
            Agent {
                schedule: algo
                    .make(n, &set, &ctx)
                    .unwrap_or_else(|| panic!("{algo} cannot be instantiated at n={n}, k={k}")),
                share_key: share_key(algo, n, &set),
                set,
                wake: ctx.wake,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdv_core::schedule::Schedule;

    #[test]
    fn adversarial_geometry() {
        let s = adversarial_overlap_one(16, 3, 4).unwrap();
        assert_eq!(s.a.len(), 3);
        assert_eq!(s.b.len(), 4);
        assert_eq!(s.a.intersection(&s.b).len(), 1);
        assert!(adversarial_overlap_one(4, 3, 4).is_none());
    }

    #[test]
    fn random_pairs_overlap_and_are_deterministic() {
        let x = random_overlapping_pair(32, 4, 5, 7).unwrap();
        let y = random_overlapping_pair(32, 4, 5, 7).unwrap();
        assert_eq!(x, y);
        assert!(x.a.overlaps(&x.b));
        assert_eq!(x.a.len(), 4);
        assert_eq!(x.b.len(), 5);
    }

    #[test]
    fn symmetric_pairs_are_equal() {
        let s = symmetric_pair(20, 6, 3).unwrap();
        assert_eq!(s.a, s.b);
        assert_eq!(s.a.len(), 6);
        assert!(symmetric_pair(4, 6, 3).is_none());
    }

    #[test]
    fn coalition_band_is_shared() {
        let s = coalition_pair(1 << 20, 5, 2, 11).unwrap();
        assert_eq!(s.a.len(), 5);
        assert_eq!(s.b.len(), 5);
        let common = s.a.intersection(&s.b);
        assert_eq!(common.len(), 2, "exactly the band is shared");
        // Determinism: the same seed reproduces the scenario.
        assert_eq!(s, coalition_pair(1 << 20, 5, 2, 11).unwrap());
        assert_ne!(s, coalition_pair(1 << 20, 5, 2, 12).unwrap());
    }

    #[test]
    fn coalition_dense_parameters_terminate_exactly() {
        // 2k == n (dense: the private pools fill the usable spectrum) and
        // n = 2⁴⁰ (sparse): one sampler serves both, deterministically,
        // with the band still the only shared channels.
        for (n, k, band) in [(16u64, 8usize, 3usize), (1 << 40, 5, 2), (1 << 40, 64, 2)] {
            for seed in 0..32 {
                let s = coalition_pair(n, k, band, seed).expect("feasible coalition");
                assert_eq!(s, coalition_pair(n, k, band, seed).expect("same draw"));
                assert_eq!(s.a.len(), k);
                assert_eq!(s.b.len(), k);
                assert!(s.a.max_channel().get() <= n && s.b.max_channel().get() <= n);
                assert_eq!(
                    s.a.intersection(&s.b).len(),
                    band,
                    "n={n} k={k} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn clustered_blocks_are_contiguous() {
        let pop = clustered_population(100, 4, 10, 5);
        assert_eq!(pop.len(), 10);
        for set in &pop {
            let s = set.as_slice();
            assert_eq!(s.len(), 4);
            assert!(s.windows(2).all(|w| w[1] == w[0] + 1));
        }
    }

    #[test]
    fn degenerate_parameters_rejected() {
        assert!(random_overlapping_pair(3, 5, 2, 0).is_none());
        // band > k, band == 0, 2k > n: typed parameter errors.
        for (n, k, band) in [(10, 3, 4), (10, 3, 0), (10, 6, 2)] {
            assert!(matches!(
                coalition_pair(n, k, band, 0),
                Err(SweepError::InvalidScenario { .. })
            ));
        }
    }

    #[test]
    fn clustered_agents_build_and_stagger() {
        let agents = clustered_agents(Algorithm::Ours, 64, 4, 10, 3, 100);
        assert_eq!(agents.len(), 10);
        assert!(agents.iter().all(|a| a.wake < 100));
        assert!(agents.iter().any(|a| a.wake != 0));
        for a in &agents {
            assert!(a.set.contains(a.schedule.channel_at(0).get()));
        }
    }

    #[test]
    fn try_new_surfaces_typed_errors() {
        use rdv_core::channel::ChannelSetError;
        assert!(PairScenario::try_new(vec![1, 2], vec![2, 3]).is_ok());
        assert_eq!(
            PairScenario::try_new(vec![], vec![1]),
            Err(SweepError::InvalidSet(ChannelSetError::Empty))
        );
        assert_eq!(
            PairScenario::try_new(vec![1, 0], vec![1]),
            Err(SweepError::InvalidSet(ChannelSetError::ZeroChannel))
        );
        assert_eq!(
            PairScenario::try_new(vec![1, 2], vec![3, 4]),
            Err(SweepError::DisjointSets)
        );
    }
}
