//! The rendezvous conditions of Section 3: `♦₀`, `♦₁` and their cyclic
//! closures `◇₀`, `◇₁`.
//!
//! For schedules of size-two channel sets written as binary strings, the
//! paper identifies two sufficient conditions for rendezvous between strings
//! `r` and `s` of a common length `ℓ`:
//!
//! * `r ♦₁ s` — condition (1): both `(0,1)` and `(1,0)` occur among the
//!   aligned pairs `(r_t, s_t)`; sufficient when the two channel sets form a
//!   directed path of length two (they share an element that is the larger
//!   of one set and the smaller of the other).
//! * `r ♦₀ s` — condition (2): both `(0,0)` and `(1,1)` occur among the
//!   aligned pairs; sufficient when the sets share their smallest or largest
//!   element.
//!
//! The cyclic closures quantify over all relative rotations (condition (5)):
//! `r ◇ᵦ s ⇔ Sⁱr ♦ᵦ Sʲs` for all `i, j`, which for equal-length strings
//! reduces to `r ♦ᵦ Sᵈs` for all relative shifts `d`.

use crate::Bits;

/// Which aligned tuples are required for rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiamondKind {
    /// `♦₀`: requires `(0,0)` and `(1,1)` — sets sharing an extreme element.
    Same,
    /// `♦₁`: requires `(0,1)` and `(1,0)` — sets forming a 2-path.
    Path,
}

/// Whether `r ♦₁ s`: both `(0,1)` and `(1,0)` occur among aligned pairs.
///
/// # Panics
///
/// Panics if the strings have different lengths.
pub fn diamond_path(r: &Bits, s: &Bits) -> bool {
    assert_eq!(r.len(), s.len(), "♦ requires equal-length strings");
    let mut saw_01 = false;
    let mut saw_10 = false;
    for (a, b) in r.iter().zip(s.iter()) {
        match (a, b) {
            (false, true) => saw_01 = true,
            (true, false) => saw_10 = true,
            _ => {}
        }
        if saw_01 && saw_10 {
            return true;
        }
    }
    false
}

/// Whether `r ♦₀ s`: both `(0,0)` and `(1,1)` occur among aligned pairs.
///
/// # Panics
///
/// Panics if the strings have different lengths.
pub fn diamond_same(r: &Bits, s: &Bits) -> bool {
    assert_eq!(r.len(), s.len(), "♦ requires equal-length strings");
    let mut saw_00 = false;
    let mut saw_11 = false;
    for (a, b) in r.iter().zip(s.iter()) {
        match (a, b) {
            (false, false) => saw_00 = true,
            (true, true) => saw_11 = true,
            _ => {}
        }
        if saw_00 && saw_11 {
            return true;
        }
    }
    false
}

/// Whether `r ♦ s` for the given kind.
pub fn diamond(kind: DiamondKind, r: &Bits, s: &Bits) -> bool {
    match kind {
        DiamondKind::Same => diamond_same(r, s),
        DiamondKind::Path => diamond_path(r, s),
    }
}

/// Whether `r ◇₁ s`: `Sⁱr ♦₁ Sʲs` for all rotations `i, j`.
///
/// # Panics
///
/// Panics if the strings have different lengths or are empty.
pub fn rhombus_path(r: &Bits, s: &Bits) -> bool {
    rhombus(DiamondKind::Path, r, s)
}

/// Whether `r ◇₀ s`: `Sⁱr ♦₀ Sʲs` for all rotations `i, j`.
///
/// # Panics
///
/// Panics if the strings have different lengths or are empty.
pub fn rhombus_same(r: &Bits, s: &Bits) -> bool {
    rhombus(DiamondKind::Same, r, s)
}

/// Whether `r ◇ s` for the given kind (all relative rotations).
///
/// # Panics
///
/// Panics if the strings have different lengths or are empty.
fn rhombus(kind: DiamondKind, r: &Bits, s: &Bits) -> bool {
    assert_eq!(r.len(), s.len(), "◇ requires equal-length strings");
    assert!(!r.is_empty(), "◇ is undefined on empty strings");
    (0..s.len()).all(|d| diamond(kind, r, &s.cyclic_shift(d)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Bits {
        s.parse().unwrap()
    }

    #[test]
    fn diamond_path_basic() {
        assert!(diamond_path(&bits("01"), &bits("10")));
        assert!(!diamond_path(&bits("01"), &bits("01")));
        assert!(!diamond_path(&bits("00"), &bits("01")));
        assert!(diamond_path(&bits("0011"), &bits("0110")));
    }

    #[test]
    fn diamond_same_basic() {
        assert!(diamond_same(&bits("01"), &bits("01")));
        assert!(!diamond_same(&bits("01"), &bits("10")));
        assert!(!diamond_same(&bits("0011"), &bits("1100")));
        assert!(diamond_same(&bits("0011"), &bits("0110")));
    }

    #[test]
    fn complements_fail_diamond_same() {
        // (0,0)/(1,1) never occur between a string and its complement.
        for s in ["0101", "0011", "100110"] {
            let r = bits(s);
            assert!(!diamond_same(&r, &r.complement()), "{s}");
        }
    }

    #[test]
    fn equal_strings_fail_diamond_path() {
        for s in ["0101", "0011", "100110"] {
            let r = bits(s);
            assert!(!diamond_path(&r, &r), "{s}");
        }
    }

    #[test]
    fn paper_symmetric_pattern_rhombus_same() {
        // Section 3.2: 010011 ◇₀ 010011 (any pair of rotations of the
        // pattern yields simultaneous (0,0) and (1,1) accesses).
        let p = bits("010011");
        assert!(rhombus_same(&p, &p));
    }

    #[test]
    fn rhombus_path_requires_all_shifts() {
        // 0101 vs 1010: aligned gives both tuples, but the shift-by-one
        // alignment makes them equal, which kills (0,1)/(1,0).
        let r = bits("0101");
        let s = bits("1010");
        assert!(diamond_path(&r, &s));
        assert!(!rhombus_path(&r, &s));
    }

    #[test]
    fn rhombus_reduces_to_relative_shift() {
        // Exhaustive check that ∀i,j alignment equals ∀d single-sided shifts.
        let r = bits("110100");
        let s = bits("101010");
        let all_pairs =
            (0..6).all(|i| (0..6).all(|j| diamond_path(&r.cyclic_shift(i), &s.cyclic_shift(j))));
        assert_eq!(all_pairs, rhombus_path(&r, &s));
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        diamond_path(&bits("01"), &bits("010"));
    }
}
