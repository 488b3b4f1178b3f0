//! The synchronous pair code `C(x) = 01 ∘ x ∘ ¬wt(x)₂` of Theorem 1.
//!
//! `C` satisfies, for equal-length inputs,
//!
//! * `x = y ⇒ C(x) ♦₀ C(y)` — the common `01` prefix contributes `(0,0)`
//!   and `(1,1)` (indeed `♦₀` holds for *all* pairs);
//! * `x ≠ y ⇒ C(x) ♦₁ C(y)` — if the weights agree, distinct strings of
//!   equal weight realize both `(0,1)` and `(1,0)` in the payload; if the
//!   weights differ, the payload supplies one tuple and the weight fields
//!   supply the other.
//!
//! # Erratum relative to the paper
//!
//! The paper writes the weight field as the plain canonical encoding
//! `wt(x)₂`. That version is incorrect: for `x = 100`, `y = 111` the
//! payload pairs are `(1,1),(0,1),(0,1)` and the weight encodings are
//! `01` vs `11`, so the tuple `(1,0)` never occurs and property (4) fails.
//! When `wt(x) < wt(y)` the payload guarantees `(0,1)`, so the weight field
//! must guarantee `(1,0)` — which requires an *order-reversing* encoding of
//! the weight. We therefore store the bitwise complement `¬wt(x)₂`: if
//! `wt(x) < wt(y)`, the most significant differing bit of the two weights
//! has a `0` in `wt(x)₂` and a `1` in `wt(y)₂`, hence a `1`/`0` in the
//! complemented fields — exactly the `(1,0)` tuple needed (and
//! symmetrically for `wt(x) > wt(y)`). The exhaustive tests below verify
//! both properties for all pairs up to length 7, and
//! `tests::paper_version_counterexample` pins the counterexample.
//!
//! The paper also notes the naive alternative `x ↦ 01 ∘ x ∘ x̄`, which has
//! the same properties at twice the payload length; it is provided as
//! [`naive_encode`], and its test pins that remark.

use crate::{log_sharp, Bits};

/// The synchronous pair code for color strings of a fixed length.
///
/// # Example
///
/// ```
/// use rdv_strings::{Bits, cmap::CCode, diamond};
///
/// let code = CCode::new(3);
/// let a = code.encode(&Bits::encode_int(0b101, 3));
/// let b = code.encode(&Bits::encode_int(0b011, 3));
/// assert!(diamond::diamond_path(&a, &b));
/// assert!(diamond::diamond_same(&a, &b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CCode {
    input_len: usize,
}

impl CCode {
    /// Creates the code for inputs of exactly `input_len` bits.
    pub fn new(input_len: usize) -> Self {
        CCode { input_len }
    }

    /// The input length this code accepts.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Width of the weight field: weights range over `0..=input_len`.
    fn weight_width(&self) -> u32 {
        log_sharp(self.input_len as u64 + 1)
    }

    /// Length of every codeword: `input_len + log♯(input_len + 1) + 2`.
    pub fn output_len(&self) -> usize {
        self.input_len + self.weight_width() as usize + 2
    }

    /// Encodes `x` as `01 ∘ x ∘ ¬wt(x)₂` (see the module-level erratum).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_len()`.
    pub fn encode(&self, x: &Bits) -> Bits {
        assert_eq!(
            x.len(),
            self.input_len,
            "CCode configured for length {}, got {}",
            self.input_len,
            x.len()
        );
        let mut out = Bits::with_capacity(self.output_len());
        out.push(false);
        out.push(true);
        out.extend_bits(x);
        let field = Bits::encode_int(x.weight() as u64, self.weight_width()).complement();
        out.extend_bits(&field);
        out
    }

    /// Decodes a codeword, verifying the prefix and the weight field.
    ///
    /// Returns `None` for malformed codewords.
    pub fn decode(&self, c: &Bits) -> Option<Bits> {
        if c.len() != self.output_len() {
            return None;
        }
        if c.get(0) || !c.get(1) {
            return None;
        }
        let x = c.slice(2, 2 + self.input_len);
        let wt = c
            .slice(2 + self.input_len, c.len())
            .complement()
            .decode_int();
        if wt as usize != x.weight() {
            return None;
        }
        Some(x)
    }
}

/// The naive alternative `x ↦ 01 ∘ x ∘ x̄` mentioned in the paper
/// ("It is easy to check that the map x ↦ 01 ∘ x ∘ x̄ … has the desired
/// properties"). It spends `2 + 2|x|` bits where [`CCode::output_len`]
/// spends `2 + |x| + log♯(|x| + 1)`; its test checks both diamond
/// properties.
pub fn naive_encode(x: &Bits) -> Bits {
    let mut out = Bits::with_capacity(2 + 2 * x.len());
    out.push(false);
    out.push(true);
    out.extend_bits(x);
    out.extend_bits(&x.complement());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diamond::{diamond_path, diamond_same};

    fn all_strings(len: usize) -> impl Iterator<Item = Bits> {
        (0u64..(1 << len)).map(move |v| Bits::encode_int(v, len as u32))
    }

    #[test]
    fn property_three_diamond_same_for_all_pairs() {
        // x = y ⇒ C(x) ♦₀ C(y); in fact the 01 prefix gives it for all pairs.
        for len in 1..=7usize {
            let code = CCode::new(len);
            for x in all_strings(len) {
                for y in all_strings(len) {
                    assert!(
                        diamond_same(&code.encode(&x), &code.encode(&y)),
                        "C({x}) ♦₀ C({y}) failed"
                    );
                }
            }
        }
    }

    #[test]
    fn property_four_diamond_path_for_distinct_pairs() {
        // x ≠ y ⇒ C(x) ♦₁ C(y).
        for len in 1..=7usize {
            let code = CCode::new(len);
            for x in all_strings(len) {
                for y in all_strings(len) {
                    if x != y {
                        assert!(
                            diamond_path(&code.encode(&x), &code.encode(&y)),
                            "C({x}) ♦₁ C({y}) failed"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn naive_encode_has_both_properties() {
        for len in 1..=6usize {
            for x in all_strings(len) {
                for y in all_strings(len) {
                    assert!(diamond_same(&naive_encode(&x), &naive_encode(&y)));
                    if x != y {
                        assert!(diamond_path(&naive_encode(&x), &naive_encode(&y)));
                    }
                }
            }
        }
    }

    #[test]
    fn lean_code_is_shorter_than_naive() {
        for len in [8usize, 16, 64, 256] {
            let lean = CCode::new(len).output_len();
            let naive = 2 + 2 * len;
            assert!(lean < naive, "len {len}: lean {lean} vs naive {naive}");
        }
    }

    #[test]
    fn output_length_matches_paper() {
        // ℓ + log♯(ℓ+1) + 2 — the paper states ℓ + log♯ ℓ + 2 for its
        // (off-by-rounding) weight range; ours differs by at most one bit.
        for len in 1..=64usize {
            let code = CCode::new(len);
            assert!(code.output_len() <= len + log_sharp(len as u64) as usize + 3);
        }
    }

    #[test]
    fn paper_version_counterexample() {
        // The paper's literal `01 ∘ x ∘ wt(x)₂` fails property (4) on
        // x = 100, y = 111: no aligned (1,0) tuple exists. This test pins
        // the counterexample that motivates the complemented weight field.
        let x: Bits = "100".parse().unwrap();
        let y: Bits = "111".parse().unwrap();
        let paper = |x: &Bits| {
            let mut out: Bits = "01".parse().unwrap();
            out.extend_bits(x);
            out.extend_bits(&Bits::encode_int(x.weight() as u64, 2));
            out
        };
        assert!(
            !diamond_path(&paper(&x), &paper(&y)),
            "paper version unexpectedly works"
        );
        // Our corrected code handles it.
        let code = CCode::new(3);
        assert!(diamond_path(&code.encode(&x), &code.encode(&y)));
    }

    #[test]
    fn roundtrip() {
        let code = CCode::new(5);
        for x in all_strings(5) {
            assert_eq!(code.decode(&code.encode(&x)), Some(x));
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        let code = CCode::new(4);
        let good = code.encode(&"1010".parse().unwrap());
        let mut bad = good.clone();
        bad.set(0, true); // break the 01 prefix
        assert_eq!(code.decode(&bad), None);
        let mut bad_wt = good.clone();
        let n = bad_wt.len();
        let b = bad_wt.get(n - 1);
        bad_wt.set(n - 1, !b); // corrupt the weight field
        assert_eq!(code.decode(&bad_wt), None);
        assert_eq!(code.decode(&good.slice(0, n - 1)), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::diamond::{diamond_path, diamond_same};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_cmap_properties(
            v in proptest::collection::vec(any::<bool>(), 1..48),
            w in proptest::collection::vec(any::<bool>(), 1..48),
        ) {
            // Pad to a common length so the code applies.
            let len = v.len().max(w.len());
            let mut v = v; v.resize(len, false);
            let mut w = w; w.resize(len, false);
            let x = Bits::from_bools(&v);
            let y = Bits::from_bools(&w);
            let code = CCode::new(len);
            let cx = code.encode(&x);
            let cy = code.encode(&y);
            prop_assert!(diamond_same(&cx, &cy));
            if x != y {
                prop_assert!(diamond_path(&cx, &cy));
            }
            prop_assert_eq!(code.decode(&cx), Some(x));
        }
    }
}
