//! Theorem 1: `O(log log n)` rendezvous schedules for channel sets of
//! size two.
//!
//! The schedule for a pair `{a, b}` (with `a < b`) is the cyclic binary
//! string `R(χ(a,b)₂)`, where `χ` is the 2-Ramsey edge coloring of Lemma 2
//! and `R` is the balanced/strictly-Catalan/2-maximal code of `rdv-strings`.
//! A `0` hops on the smaller channel, a `1` on the larger.
//!
//! Correctness (all relative wake-up shifts, i.e. the asynchronous model):
//!
//! * If the two pairs share their smallest or largest element, rendezvous
//!   needs a simultaneous `(0,0)` or `(1,1)` — given by `R(x) ◇₀ R(y)`,
//!   which holds for *every* pair of codewords.
//! * If the pairs form a directed 2-path (the shared element is the larger
//!   of one and the smaller of the other), rendezvous needs `(1,0)`/`(0,1)`
//!   — given by `R(x) ◇₁ R(y)`, which holds whenever `x ≠ y`; the Ramsey
//!   coloring guarantees exactly this for 2-paths.
//!
//! The period is `log♯ log♯ n + O(log log log n)` slots, so any two size-two
//! agents rendezvous within `O(log log n)` slots of both being awake.

use crate::channel::Channel;
use crate::schedule::Schedule;
use rdv_ramsey::PosetColoring;
use rdv_strings::cmap::CCode;
use rdv_strings::rmap::RCode;
use rdv_strings::Bits;

/// The family of Theorem 1 pair schedules for a fixed universe `[n]`.
///
/// Construct once per universe; schedules for individual pairs are cheap
/// lookups into the per-color codeword table (the palette has only
/// `log♯ n` colors).
///
/// # Example
///
/// ```
/// use rdv_core::pair::PairFamily;
/// use rdv_core::schedule::Schedule;
///
/// let fam = PairFamily::new(1 << 32).unwrap();
/// let s = fam.schedule(7, 1234).unwrap();
/// // Doubly-logarithmic period even for a 4-billion-channel universe:
/// assert!(s.period_hint().unwrap() < 64);
/// ```
#[derive(Debug, Clone)]
pub struct PairFamily {
    n: u64,
    coloring: PosetColoring,
    rcode: RCode,
    ccode: CCode,
    /// Asynchronous codewords indexed by color.
    async_words: Vec<Bits>,
    /// Synchronous codewords indexed by color.
    sync_words: Vec<Bits>,
}

impl PairFamily {
    /// Creates the family for universe `[n]`.
    ///
    /// Returns `None` if `n < 2` (no pairs exist).
    pub fn new(n: u64) -> Option<Self> {
        if n < 2 {
            return None;
        }
        let coloring = PosetColoring::new(n);
        let width = coloring.color_width() as usize;
        let rcode = RCode::new(width);
        let ccode = CCode::new(width);
        let palette = coloring.palette_size();
        let mut async_words = Vec::with_capacity(palette as usize);
        let mut sync_words = Vec::with_capacity(palette as usize);
        for color in 0..palette {
            let x = Bits::encode_int(color as u64, width as u32);
            async_words.push(rcode.encode(&x).into_bits());
            sync_words.push(ccode.encode(&x));
        }
        Some(PairFamily {
            n,
            coloring,
            rcode,
            ccode,
            async_words,
            sync_words,
        })
    }

    /// The universe size.
    pub fn universe(&self) -> u64 {
        self.n
    }

    /// Period of every asynchronous pair schedule — the paper's
    /// `O(log log n)` quantity.
    pub fn period(&self) -> u64 {
        self.rcode.output_len() as u64
    }

    /// Length of every synchronous codeword.
    pub fn sync_length(&self) -> u64 {
        self.ccode.output_len() as u64
    }

    /// The asynchronous codeword `R(χ(a,b)₂)` for a pair `a < b`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ a < b ≤ n`.
    pub fn async_word(&self, a: u64, b: u64) -> &Bits {
        &self.async_words[self.coloring.color(a, b) as usize]
    }

    /// The synchronous codeword `C(χ(a,b)₂)` for a pair `a < b`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ a < b ≤ n`.
    pub fn sync_word(&self, a: u64, b: u64) -> &Bits {
        &self.sync_words[self.coloring.color(a, b) as usize]
    }

    /// The asynchronous cyclic schedule for the pair `{a, b}`.
    ///
    /// Returns `None` unless `1 ≤ a, b ≤ n` and `a ≠ b` (order-insensitive).
    pub fn schedule(&self, a: u64, b: u64) -> Option<PairSchedule> {
        if a == b || a == 0 || b == 0 || a > self.n || b > self.n {
            return None;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        Some(PairSchedule {
            lo: Channel::new(lo),
            hi: Channel::new(hi),
            word: self.async_word(lo, hi).clone(),
        })
    }

    /// Provable upper bound on the asynchronous time-to-rendezvous of any
    /// two overlapping pair schedules from this family: one full period.
    pub fn ttr_bound(&self) -> u64 {
        self.period()
    }
}

/// A Theorem 1 pair schedule: a cyclic codeword over two channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSchedule {
    lo: Channel,
    hi: Channel,
    word: Bits,
}

impl PairSchedule {
    /// The smaller channel (hopped on `0` symbols).
    pub fn lo(&self) -> Channel {
        self.lo
    }

    /// The larger channel (hopped on `1` symbols).
    pub fn hi(&self) -> Channel {
        self.hi
    }

    /// The underlying cyclic codeword.
    pub fn word(&self) -> &Bits {
        &self.word
    }
}

impl Schedule for PairSchedule {
    fn channel_at(&self, t: u64) -> Channel {
        if self.word.get_cyclic(t) {
            self.hi
        } else {
            self.lo
        }
    }

    fn period_hint(&self) -> Option<u64> {
        Some(self.word.len() as u64)
    }

    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        let (lo, hi) = (self.lo.get(), self.hi.get());
        let wl = self.word.len() as u64;
        let mut off = start % wl;
        for slot in out.iter_mut() {
            *slot = if self.word.get(off as usize) { hi } else { lo };
            off += 1;
            if off == wl {
                off = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    /// All unordered overlapping pairs of 2-subsets of [n].
    fn overlapping_pairs(n: u64) -> Vec<((u64, u64), (u64, u64))> {
        let mut sets = Vec::new();
        for a in 1..=n {
            for b in a + 1..=n {
                sets.push((a, b));
            }
        }
        let mut out = Vec::new();
        for (i, &s) in sets.iter().enumerate() {
            for &t in &sets[i..] {
                let shared = [s.0, s.1].iter().filter(|c| [t.0, t.1].contains(c)).count();
                if shared > 0 {
                    out.push((s, t));
                }
            }
        }
        out
    }

    #[test]
    fn all_overlapping_pairs_rendezvous_all_shifts_n8() {
        let fam = PairFamily::new(8).unwrap();
        let period = fam.period();
        for (s, t) in overlapping_pairs(8) {
            let sa = fam.schedule(s.0, s.1).unwrap();
            let sb = fam.schedule(t.0, t.1).unwrap();
            for shift in 0..period {
                let ttr = verify::async_ttr(&sa, &sb, shift, 2 * period);
                assert!(
                    ttr.is_some_and(|x| x < period),
                    "pair {s:?} vs {t:?} at shift {shift}: ttr {ttr:?} ≥ period {period}"
                );
            }
        }
    }

    #[test]
    fn all_overlapping_pairs_rendezvous_all_shifts_n16() {
        let fam = PairFamily::new(16).unwrap();
        let period = fam.period();
        for (s, t) in overlapping_pairs(16) {
            let sa = fam.schedule(s.0, s.1).unwrap();
            let sb = fam.schedule(t.0, t.1).unwrap();
            for shift in (0..period).step_by(3) {
                assert!(
                    verify::async_ttr(&sa, &sb, shift, 2 * period).is_some(),
                    "pair {s:?} vs {t:?} at shift {shift}"
                );
            }
        }
    }

    #[test]
    fn identical_sets_rendezvous() {
        let fam = PairFamily::new(32).unwrap();
        let s = fam.schedule(4, 29).unwrap();
        for shift in 0..fam.period() {
            let ttr = verify::async_ttr(&s, &s, shift, 2 * fam.period());
            assert!(ttr.is_some(), "self-rendezvous failed at shift {shift}");
        }
    }

    #[test]
    fn disjoint_pairs_never_meet() {
        let fam = PairFamily::new(8).unwrap();
        let sa = fam.schedule(1, 2).unwrap();
        let sb = fam.schedule(3, 4).unwrap();
        assert_eq!(verify::async_ttr(&sa, &sb, 0, 10_000), None);
    }

    #[test]
    fn period_is_doubly_logarithmic() {
        // Period grows like log log n: tabulate over enormous universes.
        let mut last = 0;
        for (n, budget) in [
            (4u64, 48u64),
            (256, 48),
            (1 << 16, 56),
            (1 << 32, 64),
            (1 << 62, 72),
        ] {
            let fam = PairFamily::new(n).unwrap();
            assert!(
                fam.period() <= budget,
                "n = 2^{}: period {} > {budget}",
                n.trailing_zeros(),
                fam.period()
            );
            assert!(fam.period() >= last, "period should be monotone-ish");
            last = 0; // only enforce the budget, growth can plateau
        }
    }

    #[test]
    fn schedule_only_uses_its_channels() {
        let fam = PairFamily::new(64).unwrap();
        let s = fam.schedule(5, 17).unwrap();
        for t in 0..200 {
            let c = s.channel_at(t).get();
            assert!(c == 5 || c == 17);
        }
    }

    #[test]
    fn schedule_rejects_bad_inputs() {
        let fam = PairFamily::new(8).unwrap();
        assert!(fam.schedule(3, 3).is_none());
        assert!(fam.schedule(0, 3).is_none());
        assert!(fam.schedule(3, 9).is_none());
        assert!(fam.new_like_order_insensitive());
    }

    impl PairFamily {
        fn new_like_order_insensitive(&self) -> bool {
            self.schedule(5, 2) == self.schedule(2, 5)
        }
    }

    #[test]
    fn family_rejects_tiny_universe() {
        assert!(PairFamily::new(0).is_none());
        assert!(PairFamily::new(1).is_none());
        assert!(PairFamily::new(2).is_some());
    }

    #[test]
    fn sync_words_same_length() {
        let fam = PairFamily::new(64).unwrap();
        let len = fam.sync_word(1, 2).len();
        assert_eq!(fam.sync_word(30, 64).len(), len);
        assert_eq!(len as u64, fam.sync_length());
    }
}
