//! The two beacon rendezvous protocols of Section 5.
//!
//! **Protocol A** (`O(log n (k + ℓ))` w.h.p.): at each slot `t`, the last
//! `d·log♯n` beacon bits determine a fresh hash function `π_t` from the
//! min-wise family; the agent hops on `argmin_{a ∈ S} π_t(a)`. At slots a
//! window-width apart the permutations are independent, and by the
//! min-wise property each independent draw rendezvouses two overlapping
//! agents with probability `≥ |S_i ∩ S_j| / (2(|S_i|+|S_j|))`.
//!
//! **Protocol B** (`O(k + ℓ + log n)` w.h.p.): instead of paying `Θ(log n)`
//! fresh bits per permutation, the seed walks the Gabber–Galil expander:
//! `Θ(log n)` bits choose the start vertex, then each slot consumes 3 bits
//! to take one step; the visited vertex labels seed the hash functions.
//! By the expander-walk Chernoff bound the hit probability per step remains
//! `Ω(1/(k+ℓ))` after a `Θ(log n)`-step burn-in, giving the additive bound.
//!
//! Both protocols are exposed as [`Schedule`]s whose `channel_at(t)` is the
//! agent's *local* slot; the agent's absolute wake slot anchors it to the
//! shared beacon stream.

use crate::expander::GabberGalil;
use crate::minwise::MinwiseFamily;
use crate::model::BeaconStream;
use rdv_core::channel::{Channel, ChannelSet};
use rdv_core::schedule::Schedule;
use rdv_strings::log_sharp;

/// Protocol A: sliding-window re-seeded min-wise hopping.
///
/// # Example
///
/// ```
/// use rdv_beacon::{BeaconProtocolA, BeaconStream};
/// use rdv_core::channel::ChannelSet;
/// use rdv_core::schedule::Schedule;
///
/// let beacon = BeaconStream::new(7);
/// let set = ChannelSet::new(vec![2, 9]).unwrap();
/// let a = BeaconProtocolA::new(beacon, 16, set.clone(), 0);
/// assert!(set.contains(a.channel_at(3).get()));
/// ```
#[derive(Debug, Clone)]
pub struct BeaconProtocolA {
    beacon: BeaconStream,
    family: MinwiseFamily,
    set: ChannelSet,
    wake: u64,
    window: u32,
}

impl BeaconProtocolA {
    /// Creates the protocol-A schedule for an agent with the given channel
    /// `set`, waking at absolute slot `wake`, in universe `[n]`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(beacon: BeaconStream, n: u64, set: ChannelSet, wake: u64) -> Self {
        let window = (2 * log_sharp(n.max(2)) + 8).min(64);
        BeaconProtocolA {
            beacon,
            family: MinwiseFamily::new(n, 8),
            set,
            wake,
            window,
        }
    }

    /// The agent's absolute wake slot.
    pub fn wake(&self) -> u64 {
        self.wake
    }
}

impl Schedule for BeaconProtocolA {
    fn channel_at(&self, t: u64) -> Channel {
        let abs = self.wake + t;
        let seed = self.beacon.window(abs + 1, self.window);
        self.family.argmin(seed, &self.set)
    }
}

/// Protocol B: expander-walk seeded min-wise hopping.
#[derive(Debug, Clone)]
pub struct BeaconProtocolB {
    beacon: BeaconStream,
    family: MinwiseFamily,
    graph: GabberGalil,
    set: ChannelSet,
    wake: u64,
    /// Walk restart interval (absolute slots), `Θ(log n)`-aligned so all
    /// agents agree on walk segments regardless of wake time.
    segment: u64,
}

impl BeaconProtocolB {
    /// Creates the protocol-B schedule for an agent with the given channel
    /// `set`, waking at absolute slot `wake`, in universe `[n]`.
    ///
    /// The expander walk restarts at fixed absolute slots every
    /// `segment = 8·(log♯n + 4)` slots; a restart burns one 64-bit window
    /// into a start vertex and each subsequent slot consumes one 3-bit
    /// symbol. Restarting keeps the walk state computable in `O(segment)`
    /// regardless of how late an agent joins, while costing only a constant
    /// factor over the paper's single-walk description.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(beacon: BeaconStream, n: u64, set: ChannelSet, wake: u64) -> Self {
        let side = rdv_numtheory::primes::next_prime_at_least((n * n).max(64));
        BeaconProtocolB {
            beacon,
            family: MinwiseFamily::new(n, 8),
            graph: GabberGalil::new(side),
            set,
            wake,
            segment: 8 * (u64::from(log_sharp(n.max(2))) + 4),
        }
    }

    /// The walk restart interval in slots.
    pub fn segment(&self) -> u64 {
        self.segment
    }

    /// The agent's absolute wake slot.
    pub fn wake(&self) -> u64 {
        self.wake
    }

    /// The walk vertex at absolute slot `abs`.
    fn vertex_at(&self, abs: u64) -> (u64, u64) {
        let seg_start = abs - abs % self.segment;
        let seed = self.beacon.window(seg_start + 1, 64);
        let mut v = self.graph.vertex_from_seed(seed);
        // One 3-bit step per slot since the segment start; symbols are
        // drawn from a per-segment region of the stream so steps never
        // reuse seed bits.
        for s in 0..abs - seg_start {
            let sym = self.beacon.symbol3(seg_start.wrapping_mul(7) + s);
            v = self.graph.step(v, sym % 8);
        }
        v
    }
}

impl Schedule for BeaconProtocolB {
    fn channel_at(&self, t: u64) -> Channel {
        let abs = self.wake + t;
        let seed = self.graph.label(self.vertex_at(abs));
        self.family.argmin(seed, &self.set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdv_core::verify;

    fn set(channels: &[u64]) -> ChannelSet {
        ChannelSet::new(channels.iter().copied()).unwrap()
    }

    /// Median TTR over seeded trials for a protocol constructor.
    fn median_ttr<F, S>(make: F, trials: u64, horizon: u64) -> u64
    where
        F: Fn(u64) -> (S, S, u64),
        S: Schedule,
    {
        let mut ttrs: Vec<u64> = (0..trials)
            .map(|seed| {
                let (a, b, shift) = make(seed);
                verify::async_ttr(&a, &b, shift, horizon).unwrap_or(horizon)
            })
            .collect();
        ttrs.sort_unstable();
        ttrs[ttrs.len() / 2]
    }

    #[test]
    fn protocol_a_stays_in_set() {
        let b = BeaconStream::new(5);
        let s = set(&[4, 9, 23]);
        let a = BeaconProtocolA::new(b, 32, s.clone(), 3);
        for t in 0..500 {
            assert!(s.contains(a.channel_at(t).get()));
        }
    }

    #[test]
    fn protocol_b_stays_in_set() {
        let b = BeaconStream::new(5);
        let s = set(&[4, 9, 23]);
        let p = BeaconProtocolB::new(b, 32, s.clone(), 11);
        for t in 0..300 {
            assert!(s.contains(p.channel_at(t).get()));
        }
    }

    #[test]
    fn shared_beacon_same_global_view() {
        // Agents with the same set and same beacon hop identically at the
        // same absolute slot regardless of wake time.
        let b = BeaconStream::new(42);
        let s = set(&[1, 7, 13]);
        let early = BeaconProtocolA::new(b, 16, s.clone(), 0);
        let late = BeaconProtocolA::new(b, 16, s.clone(), 10);
        for t in 0..200u64 {
            assert_eq!(early.channel_at(t + 10), late.channel_at(t));
        }
    }

    #[test]
    fn protocol_a_rendezvous_whp() {
        // k = ℓ = 3, n = 64: bound scale log n (k+ℓ) ≈ 36; give a
        // generous horizon and check the *median* over trials is small.
        let n = 64u64;
        let med = median_ttr(
            |seed| {
                let beacon = BeaconStream::new(seed);
                let a = BeaconProtocolA::new(beacon, n, set(&[3, 17, 40]), 0);
                let b = BeaconProtocolA::new(beacon, n, set(&[17, 40, 52]), seed % 50);
                (a, b, seed % 50)
            },
            60,
            5_000,
        );
        assert!(med <= 60, "median TTR {med} too large for protocol A");
    }

    #[test]
    fn protocol_b_rendezvous_whp() {
        let n = 64u64;
        let med = median_ttr(
            |seed| {
                let beacon = BeaconStream::new(seed.wrapping_add(1000));
                let a = BeaconProtocolB::new(beacon, n, set(&[3, 17, 40]), 0);
                let b = BeaconProtocolB::new(beacon, n, set(&[17, 40, 52]), seed % 50);
                (a, b, seed % 50)
            },
            60,
            5_000,
        );
        assert!(med <= 120, "median TTR {med} too large for protocol B");
    }

    #[test]
    fn wake_offsets_consistent() {
        // The Schedule contract: channel_at(t) is local time; two protocol-B
        // agents waking at different times still share walk segments.
        let b = BeaconStream::new(9);
        let s = set(&[2, 5]);
        let x = BeaconProtocolB::new(b, 8, s.clone(), 0);
        let y = BeaconProtocolB::new(b, 8, s.clone(), 25);
        for t in 0..100u64 {
            assert_eq!(x.channel_at(t + 25), y.channel_at(t));
        }
    }

    #[test]
    fn disjoint_sets_never_meet() {
        let beacon = BeaconStream::new(77);
        let a = BeaconProtocolA::new(beacon, 16, set(&[1, 2]), 0);
        let b = BeaconProtocolA::new(beacon, 16, set(&[3, 4]), 0);
        assert_eq!(verify::async_ttr(&a, &b, 0, 2_000), None);
    }

    #[test]
    fn protocol_b_walk_advances() {
        // The walk visits many distinct vertices within a segment.
        let b = BeaconStream::new(3);
        let p = BeaconProtocolB::new(b, 16, set(&[1, 2, 3]), 0);
        let mut seen = std::collections::HashSet::new();
        for abs in 0..p.segment() {
            seen.insert(p.vertex_at(abs));
        }
        assert!(seen.len() as u64 > p.segment() / 2, "walk too repetitive");
    }
}
