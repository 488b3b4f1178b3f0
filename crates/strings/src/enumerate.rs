//! Enumeration of the string classes of Section 3.
//!
//! These enumerators power exhaustive tests elsewhere in the workspace, and
//! their own tests pin the combinatorial predicates to textbook sequences:
//! balanced strings of length `2m` are counted by `C(2m, m)`, Catalan
//! strings by the Catalan numbers `C_m`, and strictly Catalan strings of
//! length `2m` by `C_{m−1}` (strip the forced `1…0` bracket).

use crate::walk::Walk;
use crate::Bits;

/// All binary strings of the given length, in numeric order.
///
/// # Panics
///
/// Panics if `len > 30` (enumeration blow-up guard).
pub fn all_strings(len: usize) -> Vec<Bits> {
    assert!(len <= 30, "enumeration limited to length 30");
    (0u64..(1 << len))
        .map(|v| Bits::encode_int(v, len as u32))
        .collect()
}

/// All balanced strings of the given (even) length.
pub fn balanced_strings(len: usize) -> Vec<Bits> {
    all_strings(len)
        .into_iter()
        .filter(|b| Walk::new(b).is_balanced())
        .collect()
}

/// All Catalan strings of the given (even) length.
pub fn catalan_strings(len: usize) -> Vec<Bits> {
    all_strings(len)
        .into_iter()
        .filter(|b| Walk::new(b).is_catalan())
        .collect()
}

/// All strictly Catalan strings of the given (even) length.
pub fn strictly_catalan_strings(len: usize) -> Vec<Bits> {
    all_strings(len)
        .into_iter()
        .filter(|b| Walk::new(b).is_strictly_catalan())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// OEIS A000984: the central binomial coefficients `C(2m, m)`.
    const CENTRAL_BINOMIALS: [u64; 7] = [1, 2, 6, 20, 70, 252, 924];
    /// OEIS A000108: the Catalan numbers `C_m`.
    const CATALAN_NUMBERS: [u64; 7] = [1, 1, 2, 5, 14, 42, 132];

    #[test]
    fn balanced_counts_are_central_binomials() {
        for (m, &want) in CENTRAL_BINOMIALS.iter().enumerate() {
            assert_eq!(
                balanced_strings(2 * m).len() as u64,
                want,
                "balanced strings of length {}",
                2 * m
            );
        }
    }

    #[test]
    fn catalan_counts_are_catalan_numbers() {
        for (m, &want) in CATALAN_NUMBERS.iter().enumerate() {
            assert_eq!(
                catalan_strings(2 * m).len() as u64,
                want,
                "Catalan strings of length {}",
                2 * m
            );
        }
    }

    #[test]
    fn strictly_catalan_counts_shift_by_one() {
        // 1 ∘ z ∘ 0 with z Catalan ⇒ count at length 2m is C_{m−1}.
        for m in 1..=6usize {
            assert_eq!(
                strictly_catalan_strings(2 * m).len() as u64,
                CATALAN_NUMBERS[m - 1],
                "strictly Catalan strings of length {}",
                2 * m
            );
        }
    }

    #[test]
    fn odd_lengths_have_no_balanced_strings() {
        for len in [1usize, 3, 5, 7] {
            assert!(balanced_strings(len).is_empty());
            assert!(catalan_strings(len).is_empty());
            assert!(strictly_catalan_strings(len).is_empty());
        }
    }

    #[test]
    fn every_balanced_string_has_a_catalan_rotation() {
        // The cycle-lemma fact the U map relies on, exhaustively.
        use crate::walk::catalan_rotation;
        for z in balanced_strings(10) {
            let c = catalan_rotation(&z).expect("balanced");
            assert!(Walk::new(&z.cyclic_shift(c)).is_catalan(), "{z}");
        }
    }

    #[test]
    fn catalan_rotations_are_unique_iff_strictly_catalan_after_bracketing() {
        // A strictly Catalan string has exactly ONE Catalan rotation
        // (itself): the uniqueness behind the ◇₁ argument.
        for z in strictly_catalan_strings(10) {
            let catalan_rots = (0..z.len())
                .filter(|&c| Walk::new(&z.cyclic_shift(c)).is_catalan())
                .count();
            assert_eq!(catalan_rots, 1, "{z} has {catalan_rots} Catalan rotations");
        }
    }

    #[test]
    #[should_panic(expected = "limited to length 30")]
    fn enumeration_guard() {
        all_strings(31);
    }
}
