//! Theorem 3: the general `n`-schedule with `O(|A||B| log log n)`
//! asynchronous rendezvous.
//!
//! The schedule for a set `A = {a₀ < … < a_{k-1}}` picks the two smallest
//! distinct primes `p < q` in `[k, 3k]` and runs a sequence of *epochs*. In
//! epoch `r` the agent plays the Theorem 1 size-two schedule for the pair
//! `{a_i, a_j}` with `i ≡ r (mod p)` and `j ≡ r (mod q)` (indices that fall
//! outside `{0, …, k−1}` are replaced by `0`; if `i = j`, the epoch sits on
//! the single channel `a_i`). For asynchrony each epoch plays its pair
//! codeword **twice** (the paper's epoch doubling), so any two overlapping
//! epochs share a window of at least one full codeword period.
//!
//! Correctness sketch (the tests verify it exhaustively for small `n`): for
//! agents `A`, `B` with common channel `c = a_x = b_y`, pick a *helpful*
//! prime pair `p ∈ A`'s primes, `q' ∈ B`'s primes with `p ≠ q'`. Epochs
//! `r ≡ x (mod p)` of `A` put `c` into `A`'s pair, epochs `s ≡ y (mod q')`
//! of `B` put `c` into `B`'s; the CRT aligns some `r` with `s = r − µ`
//! within `p·q'` epochs, and within that epoch the `◇` properties of the
//! codewords produce a simultaneous hit on `c`.

use crate::channel::{Channel, ChannelSet};
use crate::pair::PairFamily;
use crate::schedule::Schedule;
use rdv_numtheory::two_primes_for_set_size;
use rdv_strings::Bits;

/// Which timing model the schedule is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Epochs are doubled codewords; guarantees hold under arbitrary
    /// relative wake-up shifts.
    Asynchronous,
    /// Epochs are single synchronous codewords (`C`-words); guarantees hold
    /// only when both agents start at the same slot. Roughly half the epoch
    /// length.
    Synchronous,
}

/// The Theorem 3 general schedule for one channel set.
///
/// # Example
///
/// ```
/// use rdv_core::channel::ChannelSet;
/// use rdv_core::general::GeneralSchedule;
/// use rdv_core::schedule::Schedule;
///
/// let set = ChannelSet::new(vec![2, 11, 29, 30]).unwrap();
/// let s = GeneralSchedule::asynchronous(32, set.clone()).unwrap();
/// // The schedule only ever hops on channels from its own set:
/// assert!((0..1000).all(|t| set.contains(s.channel_at(t).get())));
/// ```
#[derive(Debug, Clone)]
pub struct GeneralSchedule {
    set: ChannelSet,
    n: u64,
    p: u64,
    q: u64,
    mode: Mode,
    /// Codewords indexed by Ramsey color (asynchronous `R`-words or
    /// synchronous `C`-words depending on `mode`).
    words: WordTable,
    /// Length of one codeword.
    word_len: u64,
    /// Slots per epoch: `2 × word_len` (async) or `word_len` (sync).
    epoch_len: u64,
}

#[derive(Debug, Clone)]
struct WordTable {
    family: PairFamily,
    mode: Mode,
}

impl WordTable {
    fn word(&self, lo: u64, hi: u64) -> &Bits {
        match self.mode {
            Mode::Asynchronous => self.family.async_word(lo, hi),
            Mode::Synchronous => self.family.sync_word(lo, hi),
        }
    }
}

impl GeneralSchedule {
    /// Builds the asynchronous-model schedule (the paper's headline
    /// construction) for `set` within universe `[n]`.
    ///
    /// Returns `None` if `n < 2` or the set contains channels above `n`.
    pub fn asynchronous(n: u64, set: ChannelSet) -> Option<Self> {
        Self::with_mode(n, set, Mode::Asynchronous)
    }

    /// Builds the synchronous-model variant (single, `C`-word epochs).
    ///
    /// Returns `None` if `n < 2` or the set contains channels above `n`.
    pub fn synchronous(n: u64, set: ChannelSet) -> Option<Self> {
        Self::with_mode(n, set, Mode::Synchronous)
    }

    /// Builds a schedule in the given [`Mode`].
    fn with_mode(n: u64, set: ChannelSet, mode: Mode) -> Option<Self> {
        if set.max_channel().get() > n {
            return None;
        }
        let family = PairFamily::new(n)?;
        let (p, q) = two_primes_for_set_size(set.len() as u64);
        let word_len = match mode {
            Mode::Asynchronous => family.period(),
            Mode::Synchronous => family.sync_length(),
        };
        let epoch_len = match mode {
            Mode::Asynchronous => 2 * word_len,
            Mode::Synchronous => word_len,
        };
        Some(GeneralSchedule {
            set,
            n,
            p,
            q,
            mode,
            words: WordTable { family, mode },
            word_len,
            epoch_len,
        })
    }

    /// The agent's channel set.
    pub fn set(&self) -> &ChannelSet {
        &self.set
    }

    /// The universe size `n`.
    pub fn universe(&self) -> u64 {
        self.n
    }

    /// The timing mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The two primes `(p, q)` in `[k, 3k]` chosen for this set.
    pub fn primes(&self) -> (u64, u64) {
        (self.p, self.q)
    }

    /// The pair of channel indices `(i, j)` active in epoch `r`, after the
    /// out-of-range replacement rule.
    fn epoch_indices(&self, r: u64) -> (usize, usize) {
        let k = self.set.len() as u64;
        let mut i = r % self.p;
        let mut j = r % self.q;
        if i >= k {
            i = 0;
        }
        if j >= k {
            j = 0;
        }
        (i as usize, j as usize)
    }

    /// Provable upper bound on the asynchronous time-to-rendezvous between
    /// this schedule and one built for a set of size `other_k`, measured
    /// from the moment both agents are awake.
    ///
    /// Derivation: with helpful primes `p ≤ 3k`, `q' ≤ 3·other_k`, the CRT
    /// gives a helpful epoch within `p·q'` epochs of the alignment offset
    /// `µ`, costing at most `(p·q' + 2)` epochs of `2L` slots each.
    pub fn ttr_bound(&self, other_k: usize) -> u64 {
        let (op, oq) = two_primes_for_set_size(other_k as u64);
        // Worst helpful pair: maximize p·q' over p ∈ {p,q}, q' ∈ {op,oq},
        // p ≠ q'.
        let mut worst = 0u64;
        for &mine in &[self.p, self.q] {
            for &theirs in &[op, oq] {
                if mine != theirs {
                    worst = worst.max(mine * theirs);
                }
            }
        }
        (worst + 2) * self.epoch_len
    }
}

impl Schedule for GeneralSchedule {
    fn channel_at(&self, t: u64) -> Channel {
        let r = t / self.epoch_len;
        let within = t % self.epoch_len;
        let off = within % self.word_len;
        let (i, j) = self.epoch_indices(r);
        if i == j {
            return self.set.channel(i);
        }
        let (lo_i, hi_i) = if i < j { (i, j) } else { (j, i) };
        let lo = self.set.channel(lo_i).get();
        let hi = self.set.channel(hi_i).get();
        let word = self.words.word(lo, hi);
        if word.get_cyclic(off) {
            Channel::new(hi)
        } else {
            Channel::new(lo)
        }
    }

    fn period_hint(&self) -> Option<u64> {
        // The epoch pair pattern repeats every p·q epochs.
        Some(self.p * self.q * self.epoch_len)
    }

    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        // One epoch-index/word lookup per epoch instead of per slot: the
        // inner loop is a branch on one codeword bit with a wrapping
        // counter — no division, no modulo, no table walk.
        let mut t = start;
        let mut filled = 0usize;
        while filled < out.len() {
            let r = t / self.epoch_len;
            let within = t % self.epoch_len;
            let take = ((self.epoch_len - within) as usize).min(out.len() - filled);
            let dst = &mut out[filled..filled + take];
            let (i, j) = self.epoch_indices(r);
            if i == j {
                dst.fill(self.set.channel(i).get());
            } else {
                let (lo_i, hi_i) = if i < j { (i, j) } else { (j, i) };
                let lo = self.set.channel(lo_i).get();
                let hi = self.set.channel(hi_i).get();
                let word = self.words.word(lo, hi);
                let mut off = within % self.word_len;
                for slot in dst.iter_mut() {
                    *slot = if word.get(off as usize) { hi } else { lo };
                    off += 1;
                    if off == self.word_len {
                        off = 0;
                    }
                }
            }
            t += take as u64;
            filled += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::fingerprint;
    use crate::verify;

    fn set(channels: &[u64]) -> ChannelSet {
        ChannelSet::new(channels.iter().copied()).unwrap()
    }

    /// Enumerate all non-empty subsets of {1..n} for tiny n.
    fn all_subsets(n: u64) -> Vec<ChannelSet> {
        (1u64..(1 << n))
            .map(|mask| ChannelSet::new((1..=n).filter(|c| mask >> (c - 1) & 1 == 1)).unwrap())
            .collect()
    }

    #[test]
    fn exhaustive_async_rendezvous_n5() {
        // Every overlapping pair of subsets of [5], every relative shift
        // over one full period of A: rendezvous within the provable bound.
        let n = 5;
        let subsets = all_subsets(n);
        for a in &subsets {
            let sa = GeneralSchedule::asynchronous(n, a.clone()).unwrap();
            let pa = sa.period_hint().unwrap();
            for b in &subsets {
                if !a.overlaps(b) {
                    continue;
                }
                let sb = GeneralSchedule::asynchronous(n, b.clone()).unwrap();
                let bound = sa.ttr_bound(b.len());
                let step = (pa / 8).max(1) as usize;
                for shift in (0..pa).step_by(step) {
                    let ttr = verify::async_ttr(&sa, &sb, shift, bound + 1);
                    assert!(
                        ttr.is_some_and(|x| x <= bound),
                        "A={a}, B={b}, shift={shift}: ttr {ttr:?} exceeds bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn exhaustive_sync_rendezvous_n5() {
        let n = 5;
        let subsets = all_subsets(n);
        for a in &subsets {
            let sa = GeneralSchedule::synchronous(n, a.clone()).unwrap();
            for b in &subsets {
                if !a.overlaps(b) {
                    continue;
                }
                let sb = GeneralSchedule::synchronous(n, b.clone()).unwrap();
                let (p, _) = sa.primes();
                let (q, _) = sb.primes();
                let bound = (9 * (a.len() * b.len()) as u64 + 2) * sa.epoch_len.max(sb.epoch_len);
                let ttr = verify::sync_ttr(&sa, &sb, bound + 1);
                assert!(
                    ttr.is_some(),
                    "A={a}, B={b} (primes {p},{q}): no sync rendezvous within {bound}"
                );
            }
        }
    }

    #[test]
    fn random_pairs_rendezvous_n24() {
        // Deterministic pseudo-random subset pairs of a larger universe.
        let n = 24u64;
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let mask_a = (next() % (1 << n)).max(1);
            let mask_b = (next() % (1 << n)).max(1);
            let a = ChannelSet::new((1..=n).filter(|c| mask_a >> (c - 1) & 1 == 1)).unwrap();
            let b = ChannelSet::new((1..=n).filter(|c| mask_b >> (c - 1) & 1 == 1)).unwrap();
            if !a.overlaps(&b) {
                continue;
            }
            let sa = GeneralSchedule::asynchronous(n, a.clone()).unwrap();
            let sb = GeneralSchedule::asynchronous(n, b.clone()).unwrap();
            let bound = sa.ttr_bound(b.len());
            let shift = next() % sa.period_hint().unwrap();
            let ttr = verify::async_ttr(&sa, &sb, shift, bound + 1);
            assert!(
                ttr.is_some_and(|x| x <= bound),
                "trial {trial}: A={a} B={b} shift={shift}"
            );
        }
    }

    #[test]
    fn schedule_stays_in_set() {
        let n = 100;
        let s = set(&[7, 19, 42, 77, 99]);
        let sched = GeneralSchedule::asynchronous(n, s.clone()).unwrap();
        for t in 0..5_000 {
            assert!(s.contains(sched.channel_at(t).get()), "slot {t}");
        }
    }

    #[test]
    fn singleton_set_is_constant() {
        let sched = GeneralSchedule::asynchronous(10, set(&[6])).unwrap();
        for t in 0..100 {
            assert_eq!(sched.channel_at(t).get(), 6);
        }
    }

    #[test]
    fn anonymity_same_set_same_schedule() {
        // Two constructions from differently-ordered channel lists agree.
        let a = GeneralSchedule::asynchronous(50, set(&[5, 30, 12])).unwrap();
        let b =
            GeneralSchedule::asynchronous(50, ChannelSet::new(vec![30, 12, 5]).unwrap()).unwrap();
        assert_eq!(fingerprint(&a, 10_000), fingerprint(&b, 10_000));
    }

    #[test]
    fn determinism_across_constructions() {
        let mk = || GeneralSchedule::asynchronous(64, set(&[3, 9, 27, 54])).unwrap();
        assert_eq!(fingerprint(&mk(), 10_000), fingerprint(&mk(), 10_000));
    }

    #[test]
    fn primes_match_theorem() {
        for k in 1..=40usize {
            let channels: Vec<u64> = (1..=k as u64).collect();
            let s = GeneralSchedule::asynchronous(64, set(&channels)).unwrap();
            let (p, q) = s.primes();
            assert!(p as usize >= k && q as usize >= k && p < q);
            assert!(q as usize <= 3 * k);
        }
    }

    #[test]
    fn epoch_structure_doubles_word() {
        let s = GeneralSchedule::asynchronous(32, set(&[1, 9, 17])).unwrap();
        let e = s.epoch_len;
        // Within one epoch the two halves are identical (σ_r σ_r).
        for r in 0..20u64 {
            for off in 0..e / 2 {
                assert_eq!(
                    s.channel_at(r * e + off),
                    s.channel_at(r * e + e / 2 + off),
                    "epoch {r} halves differ at {off}"
                );
            }
        }
    }

    #[test]
    fn rejects_out_of_universe() {
        assert!(GeneralSchedule::asynchronous(8, set(&[9])).is_none());
        assert!(GeneralSchedule::asynchronous(1, set(&[1])).is_none());
    }

    #[test]
    fn ttr_bound_is_o_of_kl_loglogn() {
        // Bound divided by (k·ℓ) should grow only with log log n.
        let s = GeneralSchedule::asynchronous(1 << 20, set(&[1, 2, 3, 4])).unwrap();
        let bound = s.ttr_bound(4);
        let kl = 16u64;
        // 3k·3ℓ = 9kℓ epochs of 2L slots, L ≤ 40 for n = 2^20.
        assert!(bound <= 9 * kl * 2 * 48 + 4 * 2 * 48, "bound {bound}");
    }

    #[test]
    fn symmetric_same_set_rendezvous() {
        // A = B: still guaranteed (epoch patterns identical, ◇₀ applies).
        let a = set(&[4, 8, 15, 16, 23]);
        let sa = GeneralSchedule::asynchronous(42, a.clone()).unwrap();
        let sb = GeneralSchedule::asynchronous(42, a).unwrap();
        for shift in [0u64, 1, 7, 100, 1234] {
            assert!(
                verify::async_ttr(&sa, &sb, shift, sa.ttr_bound(5) + 1).is_some(),
                "shift {shift}"
            );
        }
    }
}
