//! The "graph" `G_z` of a binary string (Figures 1 and 2 of the paper).
//!
//! For a string `z`, the paper defines `G_z : {0, …, |z|} → ℤ` by
//! `G_z(0) = 0` and `G_z(k) = Σ_{i≤k} (2 z_i − 1)`: the lattice walk in which
//! every `1` steps northeast and every `0` steps southeast.
//!
//! Balanced strings return to height 0; *Catalan* strings additionally never
//! go negative; *strictly Catalan* strings stay strictly positive on the
//! interior. For cyclic arguments the paper counts maxima/minima over one
//! period, i.e. over walk positions `0 ≤ i < |z|` — under that convention a
//! strictly Catalan string is 1-minimal with its unique minimum at `i = 0`,
//! exactly as stated in Section 3.

use crate::Bits;

/// The walk `G_z` of a string together with derived statistics.
///
/// # Example
///
/// ```
/// use rdv_strings::{Bits, walk::Walk};
///
/// let z: Bits = "110001".parse().unwrap(); // Figure 1b of the paper
/// let w = Walk::new(&z);
/// assert!(w.is_balanced());
/// assert_eq!(w.max_value(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walk {
    /// Heights `G_z(0), …, G_z(|z|)` (length `|z| + 1`).
    heights: Vec<i64>,
}

impl Walk {
    /// Computes the walk of `z`.
    pub fn new(z: &Bits) -> Self {
        let mut heights = Vec::with_capacity(z.len() + 1);
        let mut h = 0i64;
        heights.push(h);
        for bit in z.iter() {
            h += if bit { 1 } else { -1 };
            heights.push(h);
        }
        Walk { heights }
    }

    /// The heights `G_z(0), …, G_z(|z|)`.
    pub fn heights(&self) -> &[i64] {
        &self.heights
    }

    /// `G_z(k)`.
    ///
    /// # Panics
    ///
    /// Panics if `k > |z|`.
    pub fn height(&self, k: usize) -> i64 {
        self.heights[k]
    }

    /// Length of the underlying string.
    pub fn len(&self) -> usize {
        self.heights.len() - 1
    }

    /// Whether the underlying string is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Final height `G_z(|z|)`; zero exactly for balanced strings.
    pub fn final_height(&self) -> i64 {
        *self.heights.last().expect("walk always has height 0")
    }

    /// Whether `wt(z) = |z| / 2`, i.e. the walk returns to zero.
    pub fn is_balanced(&self) -> bool {
        self.final_height() == 0
    }

    /// Whether `z` is balanced and `G_z` is never negative.
    pub fn is_catalan(&self) -> bool {
        self.is_balanced() && self.heights.iter().all(|&h| h >= 0)
    }

    /// Whether `z` is balanced and `G_z(i) > 0` for all `0 < i < |z|`.
    pub fn is_strictly_catalan(&self) -> bool {
        if !self.is_balanced() || self.len() < 2 {
            return false;
        }
        self.heights[1..self.len()].iter().all(|&h| h > 0)
    }

    /// Maximum height over one period (`0 ≤ i < |z|`).
    ///
    /// # Panics
    ///
    /// Panics on an empty string.
    pub fn max_value(&self) -> i64 {
        *self.heights[..self.len().max(1)]
            .iter()
            .max()
            .expect("non-empty walk")
    }

    /// Minimum height over one period (`0 ≤ i < |z|`).
    ///
    /// # Panics
    ///
    /// Panics on an empty string.
    fn min_value(&self) -> i64 {
        *self.heights[..self.len().max(1)]
            .iter()
            .min()
            .expect("non-empty walk")
    }

    /// Number of positions `0 ≤ i < |z|` at which `G_z` attains its maximum.
    ///
    /// A string is *t-maximal* when this equals `t`.
    pub fn maximal_count(&self) -> usize {
        let m = self.max_value();
        self.heights[..self.len()]
            .iter()
            .filter(|&&h| h == m)
            .count()
    }

    /// Number of positions `0 ≤ i < |z|` at which `G_z` attains its minimum.
    ///
    /// A string is *t-minimal* when this equals `t`.
    pub fn minimal_count(&self) -> usize {
        let m = self.min_value();
        self.heights[..self.len()]
            .iter()
            .filter(|&&h| h == m)
            .count()
    }

    /// The smallest position `0 ≤ i < |z|` with `G_z(i) = max`.
    pub fn first_max_position(&self) -> usize {
        let m = self.max_value();
        self.heights[..self.len()]
            .iter()
            .position(|&h| h == m)
            .expect("maximum exists")
    }
}

/// The smallest rotation `c` such that `S^c z` is Catalan.
///
/// By the cycle lemma every balanced string has at least one Catalan
/// rotation; this returns the least such shift.
///
/// # Errors
///
/// Returns `None` if `z` is empty or not balanced.
pub fn catalan_rotation(z: &Bits) -> Option<usize> {
    if z.is_empty() {
        return None;
    }
    let w = Walk::new(z);
    if !w.is_balanced() {
        return None;
    }
    // S^c z is Catalan iff G attains its minimum at position c (taking the
    // smallest such c makes the choice canonical): rotating so the walk
    // starts at a global minimum keeps all partial sums non-negative.
    let min = w.min_value();
    (0..z.len()).find(|&c| w.height(c) == min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Bits {
        s.parse().unwrap()
    }

    #[test]
    fn figure_1a_walk() {
        // Figure 1a: the graph of 11010 ends at height +1.
        let w = Walk::new(&bits("11010"));
        assert_eq!(w.heights(), &[0, 1, 2, 1, 2, 1]);
        assert!(!w.is_balanced());
    }

    #[test]
    fn figure_1b_balanced() {
        // Figure 1b: 110001 is balanced.
        let w = Walk::new(&bits("110001"));
        assert_eq!(w.final_height(), 0);
        assert!(w.is_balanced());
        assert!(!w.is_catalan()); // dips to -1 before the final 1
    }

    #[test]
    fn catalan_examples() {
        assert!(Walk::new(&bits("10")).is_catalan());
        assert!(Walk::new(&bits("1100")).is_catalan());
        assert!(Walk::new(&bits("1010")).is_catalan());
        assert!(!Walk::new(&bits("0110")).is_catalan());
        assert!(!Walk::new(&bits("10100")).is_catalan()); // not balanced
    }

    #[test]
    fn strictly_catalan_examples() {
        assert!(Walk::new(&bits("10")).is_strictly_catalan());
        assert!(Walk::new(&bits("1100")).is_strictly_catalan());
        assert!(!Walk::new(&bits("1010")).is_strictly_catalan()); // touches 0 at i=2
        assert!(Walk::new(&bits("110100")).is_strictly_catalan());
        assert!(!Walk::new(&bits("")).is_strictly_catalan());
    }

    #[test]
    fn strictly_catalan_is_one_minimal_at_zero() {
        for s in ["10", "1100", "110100", "11101000"] {
            let z = bits(s);
            let w = Walk::new(&z);
            assert!(w.is_strictly_catalan(), "{s}");
            assert_eq!(w.minimal_count(), 1, "{s} should be 1-minimal");
            assert_eq!(w.min_value(), 0);
            assert_eq!(w.height(0), 0);
        }
    }

    #[test]
    fn nontrivial_shift_of_strictly_catalan_not_strictly_catalan() {
        let z = bits("110100");
        for c in 1..z.len() {
            let shifted = z.cyclic_shift(c);
            assert!(
                !Walk::new(&shifted).is_strictly_catalan(),
                "shift {c} of {z} should not be strictly Catalan"
            );
            // ... but every shift is still 1-minimal (the paper's key fact).
            assert_eq!(Walk::new(&shifted).minimal_count(), 1, "shift {c}");
        }
    }

    #[test]
    fn maximal_count_shift_invariant() {
        let z = bits("1101001010");
        let base = Walk::new(&z).maximal_count();
        for c in 0..z.len() {
            assert_eq!(
                Walk::new(&z.cyclic_shift(c)).maximal_count(),
                base,
                "shift {c}"
            );
        }
    }

    #[test]
    fn minimal_count_shift_invariant() {
        let z = bits("1101001010");
        let base = Walk::new(&z).minimal_count();
        for c in 0..z.len() {
            assert_eq!(
                Walk::new(&z.cyclic_shift(c)).minimal_count(),
                base,
                "shift {c}"
            );
        }
    }

    #[test]
    fn complement_swaps_max_and_min_counts() {
        // The paper: z is k-maximal iff z̄ is k-minimal.
        for s in ["1100", "110100", "101010", "100110", "11010010"] {
            let z = bits(s);
            let w = Walk::new(&z);
            let wc = Walk::new(&z.complement());
            assert_eq!(w.maximal_count(), wc.minimal_count(), "{s}");
            assert_eq!(w.minimal_count(), wc.maximal_count(), "{s}");
        }
    }

    #[test]
    fn catalan_rotation_produces_catalan() {
        for s in ["0110", "0011", "010101", "001011", "110001"] {
            let z = bits(s);
            let c = catalan_rotation(&z).expect("balanced");
            assert!(
                Walk::new(&z.cyclic_shift(c)).is_catalan(),
                "rotation {c} of {s}"
            );
            // Minimality of the chosen rotation.
            for earlier in 0..c {
                assert!(
                    !Walk::new(&z.cyclic_shift(earlier)).is_catalan(),
                    "rotation {earlier} of {s} should not be Catalan"
                );
            }
        }
    }

    #[test]
    fn catalan_rotation_rejects_unbalanced() {
        assert_eq!(catalan_rotation(&bits("110")), None);
        assert_eq!(catalan_rotation(&bits("")), None);
    }

    #[test]
    fn bracketing_catalan_gives_strictly_catalan() {
        // Remark from the paper: if z is Catalan, 1 ∘ z ∘ 0 is strictly Catalan.
        for s in ["", "10", "1100", "1010", "101100"] {
            let z = bits(s);
            assert!(Walk::new(&z).is_catalan() || s.is_empty());
            let bracketed: Bits = format!("1{s}0").parse().unwrap();
            assert!(Walk::new(&bracketed).is_strictly_catalan(), "1 ∘ {s} ∘ 0");
        }
    }

    #[test]
    fn first_max_position_is_first() {
        let z = bits("101100");
        let w = Walk::new(&z);
        assert_eq!(w.max_value(), 2);
        assert_eq!(w.first_max_position(), 4);
    }
}
