//! The 2-Ramsey edge coloring of Lemma 2.
//!
//! Associate with each channel `k ∈ [n]` the bit set `X_k` of its (0-indexed)
//! binary encoding, using the 0-indexed value `k − 1` so the palette is
//! exactly `{0, …, log♯ n − 1}`. For `a < b` the set `X_b \ X_a` is
//! non-empty (a number cannot be a strict sub-mask of a smaller number), so
//! the edge `(a, b)` may be colored with its smallest element. If `(a, b)`
//! and `(b, c)` form a directed path, `χ(a, b) ∈ X_b` while
//! `χ(b, c) ∉ X_b` — the two colors differ, which is the 2-Ramsey property.

use rdv_strings::log_sharp;

/// The 2-Ramsey edge coloring of the linear poset `L_n`.
///
/// # Example
///
/// ```
/// use rdv_ramsey::PosetColoring;
///
/// let chi = PosetColoring::new(16);
/// assert!(chi.palette_size() <= 4);
/// // No monochromatic directed 2-path:
/// assert_ne!(chi.color(3, 7), chi.color(7, 12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PosetColoring {
    n: u64,
}

impl PosetColoring {
    /// Creates the coloring for universe `[n] = {1, …, n}`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (no edges exist below two channels).
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "the linear poset needs at least two channels");
        PosetColoring { n }
    }

    /// The universe size `n`.
    pub fn universe(&self) -> u64 {
        self.n
    }

    /// Size of the palette: `log♯ n` (colors are `0..palette_size`).
    pub fn palette_size(&self) -> u32 {
        log_sharp(self.n).max(1)
    }

    /// The color of the directed edge `(a, b)`.
    ///
    /// Returns the smallest bit position set in `b − 1` but not in `a − 1`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ a < b ≤ n`.
    pub fn color(&self, a: u64, b: u64) -> u32 {
        assert!(
            1 <= a && a < b && b <= self.n,
            "edge ({a}, {b}) not in L_{}",
            self.n
        );
        let xa = a - 1;
        let xb = b - 1;
        let diff = xb & !xa;
        debug_assert!(diff != 0, "X_b \\ X_a must be non-empty for a < b");
        diff.trailing_zeros()
    }

    /// The fixed width of encoded colors: `max(1, log♯ log♯ n)`.
    pub fn color_width(&self) -> u32 {
        log_sharp(self.palette_size() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_monochromatic_two_path_exhaustive() {
        for n in [2u64, 3, 5, 8, 16, 33, 64] {
            let chi = PosetColoring::new(n);
            for a in 1..=n {
                for b in a + 1..=n {
                    for c in b + 1..=n {
                        assert_ne!(
                            chi.color(a, b),
                            chi.color(b, c),
                            "monochromatic path {a}→{b}→{c} in L_{n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn palette_is_log_sharp() {
        for (n, palette) in [
            (2u64, 1u32),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (16, 4),
            (17, 5),
        ] {
            let chi = PosetColoring::new(n);
            assert_eq!(chi.palette_size(), palette, "n = {n}");
            // Every used color is inside the palette.
            for a in 1..=n {
                for b in a + 1..=n {
                    assert!(chi.color(a, b) < palette, "color({a},{b}) escapes palette");
                }
            }
        }
    }

    #[test]
    fn color_is_in_xb_minus_xa() {
        let chi = PosetColoring::new(32);
        for a in 1..=32u64 {
            for b in a + 1..=32 {
                let c = chi.color(a, b);
                assert_eq!((b - 1) >> c & 1, 1, "color bit set in b-1");
                assert_eq!((a - 1) >> c & 1, 0, "color bit clear in a-1");
            }
        }
    }

    #[test]
    fn huge_universe_palette_is_tiny() {
        // The entire point of the construction: for n = 2⁶², six bits of
        // color suffice (log♯ log♯ n = 6).
        let chi = PosetColoring::new(1 << 62);
        assert_eq!(chi.palette_size(), 62);
        assert_eq!(chi.color_width(), 6);
    }

    #[test]
    #[should_panic(expected = "not in L_")]
    fn rejects_non_edges() {
        PosetColoring::new(8).color(5, 5);
    }

    #[test]
    #[should_panic(expected = "at least two channels")]
    fn rejects_tiny_universe() {
        PosetColoring::new(1);
    }
}
