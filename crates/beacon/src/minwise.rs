//! ε-min-wise independent permutation families.
//!
//! Definition 1 of the paper: a family `R ⊆ S_n` is ε-min-wise independent
//! if for every `A ⊆ [n]` and `a ∈ A`,
//! `Pr_{π∈R}[π(a) = min π(A)] ≥ (1 − ε)/|A|`.
//!
//! Indyk \[11\] showed that `t`-wise independent hash families with
//! `t = O(log 1/ε)` are ε-min-wise independent and representable in
//! `O(log n · log 1/ε)` bits. We realize the family as degree-`(t−1)`
//! polynomials over a prime field `F_q` with `q ≥ n²` (the square keeps
//! collision probability negligible; ties are broken by channel number, and
//! the paper's protocols only need the *argmin*, not a full permutation).

use rdv_core::channel::{Channel, ChannelSet};
use rdv_numtheory::field::{Poly, PrimeField};

/// A seeded family of (approximately) min-wise independent hash functions.
///
/// # Example
///
/// ```
/// use rdv_beacon::MinwiseFamily;
/// use rdv_core::channel::ChannelSet;
///
/// let fam = MinwiseFamily::new(64, 8);
/// let set = ChannelSet::new(vec![3, 17, 40]).unwrap();
/// let c = fam.argmin(12345, &set);
/// assert!(set.contains(c.get()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinwiseFamily {
    field: PrimeField,
    degree: usize,
    n: u64,
}

impl MinwiseFamily {
    /// Creates a family for universe `[n]` with `t`-wise independence
    /// (`t = degree`); `t = 8` comfortably achieves ε = 1/2, the value
    /// Section 5 uses.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `degree == 0`.
    pub fn new(n: u64, degree: usize) -> Self {
        assert!(n > 0, "empty universe");
        assert!(degree > 0, "degree must be positive");
        MinwiseFamily {
            field: PrimeField::at_least((n * n).max(257)),
            degree,
            n,
        }
    }

    /// The universe size.
    pub fn universe(&self) -> u64 {
        self.n
    }

    /// The independence level `t`.
    pub fn independence(&self) -> usize {
        self.degree
    }

    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The polynomial for a given seed.
    fn poly(&self, seed: u64) -> Poly {
        let coeffs = (0..self.degree as u64)
            .map(|i| Self::mix(seed.wrapping_add(i.wrapping_mul(0xA076_1D64_78BD_642F))));
        Poly::new(self.field, coeffs)
    }

    /// The hash value `π_seed(a)`; lower is "earlier" in the permutation.
    ///
    /// Ties between channels are broken by channel number, so the induced
    /// ordering is a total order for every seed.
    pub fn rank(&self, seed: u64, channel: u64) -> (u64, u64) {
        (self.poly(seed).eval(channel), channel)
    }

    /// The channel of `set` with minimal rank — the paper's
    /// `argmin_{a ∈ S} π_t(a)` hop rule.
    ///
    /// # Panics
    ///
    /// Never panics for a valid [`ChannelSet`] (they are non-empty).
    pub fn argmin(&self, seed: u64, set: &ChannelSet) -> Channel {
        set.iter()
            .min_by_key(|c| self.rank(seed, c.get()))
            .expect("channel sets are non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmin_is_in_set() {
        let fam = MinwiseFamily::new(32, 8);
        let set = ChannelSet::new(vec![5, 9, 28]).unwrap();
        for seed in 0..200u64 {
            assert!(set.contains(fam.argmin(seed, &set).get()));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let fam = MinwiseFamily::new(16, 8);
        let set = ChannelSet::new(vec![1, 2, 3]).unwrap();
        assert_eq!(fam.argmin(7, &set), fam.argmin(7, &set));
    }

    #[test]
    fn epsilon_minwise_empirically() {
        // Definition 1 with ε = 1/2: every element of every sampled set is
        // the argmin with probability ≥ (1 − ε)/|A| = 1/(2|A|).
        let n = 64u64;
        let fam = MinwiseFamily::new(n, 8);
        let sets = [
            vec![1u64, 2],
            vec![3, 17, 40],
            vec![5, 6, 7, 8],
            vec![1, 9, 25, 49, 63],
            vec![2, 4, 8, 16, 32, 64],
        ];
        let trials = 4_000u64;
        for raw in &sets {
            let set = ChannelSet::new(raw.clone()).unwrap();
            let k = set.len() as u64;
            for target in set.iter() {
                let wins = (0..trials)
                    .filter(|&s| fam.argmin(s.wrapping_mul(0x9E37), &set) == target)
                    .count() as u64;
                let lower = trials / (2 * k); // (1−ε)/|A| with ε = 1/2
                assert!(
                    wins >= lower,
                    "channel {target} of {set}: {wins}/{trials} < {lower}"
                );
            }
        }
    }

    #[test]
    fn shared_seed_shared_view() {
        // The rendezvous mechanism: two overlapping sets agree on the
        // global argmin whenever it lies in the intersection.
        let fam = MinwiseFamily::new(32, 8);
        let a = ChannelSet::new(vec![3, 9, 17]).unwrap();
        let b = ChannelSet::new(vec![9, 17, 25]).unwrap();
        let union = ChannelSet::new(vec![3, 9, 17, 25]).unwrap();
        let mut hits = 0u32;
        let trials = 2_000;
        for seed in 0..trials {
            let g = fam.argmin(seed, &union);
            if a.contains(g.get()) && b.contains(g.get()) {
                assert_eq!(fam.argmin(seed, &a), g);
                assert_eq!(fam.argmin(seed, &b), g);
                hits += 1;
            }
        }
        // Equation (8): the global argmin lands in the (2-element)
        // intersection with probability ≥ |A∩B| / (2(|A|+|B|)) = 1/6.
        assert!(u64::from(hits) >= trials / 6, "hits = {hits}");
    }

    #[test]
    fn field_is_large_enough() {
        let fam = MinwiseFamily::new(100, 8);
        assert!(fam.field.order() >= 100 * 100);
        assert_eq!(fam.independence(), 8);
    }

    #[test]
    #[should_panic(expected = "empty universe")]
    fn zero_universe_rejected() {
        MinwiseFamily::new(0, 4);
    }
}
