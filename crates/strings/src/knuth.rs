//! The Knuth balancing map `K(x)` (Knuth, *Efficient balanced codes*, IEEE
//! Trans. Information Theory, 1986).
//!
//! `K` is an efficient injective map carrying arbitrary binary strings to
//! *balanced* strings (equal numbers of `0`s and `1`s). Knuth's key
//! observation: complementing the first `i` bits of `x` changes the weight by
//! `±1` at each step and sweeps from `wt(x)` to `|x| − wt(x)`, so some prefix
//! length `i` hits weight exactly `|x|/2`. Appending a short (balanced)
//! encoding of `i` makes the map invertible.
//!
//! Our realization pads odd-length inputs with a single `0`, flips the
//! minimal balancing prefix `i`, and appends `e ∘ ē` where `e` is the
//! `log♯(m+1)`-bit canonical encoding of `i`. The output length is
//! `m + 2·log♯(m+1) (+1 if |x| was odd)`, i.e. `|x| + O(log |x|)` — the same
//! asymptotics the paper uses (it quotes Knuth's slightly leaner
//! `|x| + log♯|x| + ½ log♯ log♯ |x|` bound; the constant does not affect any
//! theorem).

use crate::{log_sharp, Bits};

/// The Knuth balancing code for inputs of a fixed length.
///
/// The decoder needs to know the input length, so the code is parameterized
/// by it; all rendezvous constructions operate on fixed-width color strings.
///
/// # Example
///
/// ```
/// use rdv_strings::{Bits, knuth::KnuthCode};
///
/// let code = KnuthCode::new(5);
/// let x: Bits = "11111".parse().unwrap();
/// let k = code.encode(&x);
/// assert_eq!(k.weight() * 2, k.len()); // balanced
/// assert_eq!(code.decode(&k), Some(x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KnuthCode {
    input_len: usize,
}

impl KnuthCode {
    /// Creates the code for inputs of exactly `input_len` bits.
    pub fn new(input_len: usize) -> Self {
        KnuthCode { input_len }
    }

    /// The input length this code accepts.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Length of the (even) padded payload.
    fn padded_len(&self) -> usize {
        self.input_len + self.input_len % 2
    }

    /// Width of the prefix-index encoding: `i` ranges over `0..=padded_len`.
    fn index_width(&self) -> u32 {
        log_sharp(self.padded_len() as u64 + 1)
    }

    /// Length of every codeword produced by [`encode`](Self::encode).
    ///
    /// Always even, and `≤ input_len + 1 + 2·log♯(input_len + 2)`.
    pub fn output_len(&self) -> usize {
        self.padded_len() + 2 * self.index_width() as usize
    }

    /// Encodes `x` into a balanced string.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_len()`.
    pub fn encode(&self, x: &Bits) -> Bits {
        assert_eq!(
            x.len(),
            self.input_len,
            "KnuthCode configured for length {}, got {}",
            self.input_len,
            x.len()
        );
        let mut padded = x.clone();
        if self.input_len % 2 == 1 {
            padded.push(false);
        }
        let m = padded.len();
        let target = (m / 2) as i64;
        // Weight of flip_prefix(i) changes by ±1 as i increments, from wt(x)
        // to m - wt(x); the target m/2 always lies between them.
        let mut weight = padded.weight() as i64;
        let mut i = 0usize;
        while weight != target {
            debug_assert!(i < m, "balancing prefix must exist");
            weight += if padded.get(i) { -1 } else { 1 };
            i += 1;
        }
        let flipped = padded.flip_prefix(i);
        debug_assert_eq!(flipped.weight() * 2, m);
        let e = Bits::encode_int(i as u64, self.index_width());
        let mut out = flipped;
        out.extend_bits(&e);
        out.extend_bits(&e.complement());
        debug_assert_eq!(out.len(), self.output_len());
        debug_assert_eq!(out.weight() * 2, out.len());
        out
    }

    /// Decodes a codeword back to the original string.
    ///
    /// Returns `None` if `k` is not a well-formed codeword of this code
    /// (wrong length, corrupted index block, or out-of-range prefix index).
    pub fn decode(&self, k: &Bits) -> Option<Bits> {
        if k.len() != self.output_len() {
            return None;
        }
        let m = self.padded_len();
        let w = self.index_width() as usize;
        let payload = k.slice(0, m);
        let e = k.slice(m, m + w);
        let ebar = k.slice(m + w, m + 2 * w);
        if ebar != e.complement() {
            return None;
        }
        let i = e.decode_int() as usize;
        if i > m {
            return None;
        }
        let unflipped = payload.flip_prefix(i);
        Some(unflipped.slice(0, self.input_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::Walk;

    fn all_strings(len: usize) -> impl Iterator<Item = Bits> {
        (0u64..(1 << len)).map(move |v| Bits::encode_int(v, len as u32))
    }

    #[test]
    fn encode_is_balanced_exhaustive_small() {
        for len in 0..=10 {
            let code = KnuthCode::new(len);
            for x in all_strings(len) {
                let k = code.encode(&x);
                assert!(
                    Walk::new(&k).is_balanced() || k.is_empty(),
                    "K({x}) = {k} not balanced"
                );
                assert_eq!(k.len(), code.output_len());
            }
        }
    }

    #[test]
    fn roundtrip_exhaustive_small() {
        for len in 0..=10 {
            let code = KnuthCode::new(len);
            for x in all_strings(len) {
                let k = code.encode(&x);
                assert_eq!(code.decode(&k), Some(x.clone()), "roundtrip of {x}");
            }
        }
    }

    #[test]
    fn injective_exhaustive_small() {
        for len in 0..=8 {
            let code = KnuthCode::new(len);
            let mut seen = std::collections::HashSet::new();
            for x in all_strings(len) {
                assert!(seen.insert(code.encode(&x)), "collision at {x}");
            }
        }
    }

    #[test]
    fn output_length_bound() {
        for len in 0..=256 {
            let code = KnuthCode::new(len);
            let bound = len + 1 + 2 * log_sharp(len as u64 + 2) as usize;
            assert!(
                code.output_len() <= bound,
                "len {len}: {} > {bound}",
                code.output_len()
            );
            assert_eq!(code.output_len() % 2, 0, "even output");
        }
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let code = KnuthCode::new(6);
        assert_eq!(code.decode(&Bits::repeat(false, 3)), None);
    }

    #[test]
    fn decode_rejects_corrupt_index_block() {
        let code = KnuthCode::new(6);
        let x: Bits = "101011".parse().unwrap();
        let mut k = code.encode(&x);
        // Corrupt the last bit: ē no longer matches e.
        let last = k.len() - 1;
        let bit = k.get(last);
        k.set(last, !bit);
        assert_eq!(code.decode(&k), None);
    }

    #[test]
    fn fixed_vectors() {
        // All-ones input of even length: flipping the first m/2 bits balances.
        let code = KnuthCode::new(4);
        let k = code.encode(&"1111".parse().unwrap());
        // i = 2, payload = 0011, e = encode(2, log♯5 = 3) = 010, ē = 101.
        assert_eq!(k.to_string(), "0011010101");
    }

    #[test]
    fn odd_lengths_pad_correctly() {
        let code = KnuthCode::new(3);
        for x in all_strings(3) {
            let k = code.encode(&x);
            assert_eq!(k.len(), code.output_len());
            assert_eq!(code.decode(&k).as_ref(), Some(&x));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::walk::Walk;
    use proptest::prelude::*;

    fn bits_strategy(max_len: usize) -> impl Strategy<Value = Bits> {
        proptest::collection::vec(any::<bool>(), 0..=max_len).prop_map(|v| Bits::from_bools(&v))
    }

    proptest! {
        #[test]
        fn prop_balanced_and_invertible(x in bits_strategy(200)) {
            let code = KnuthCode::new(x.len());
            let k = code.encode(&x);
            prop_assert!(k.is_empty() || Walk::new(&k).is_balanced());
            prop_assert_eq!(code.decode(&k), Some(x));
        }

        #[test]
        fn prop_length_is_input_plus_logarithmic(x in bits_strategy(500)) {
            let code = KnuthCode::new(x.len());
            let k = code.encode(&x);
            prop_assert!(k.len() <= x.len() + 1 + 2 * crate::log_sharp(x.len() as u64 + 2) as usize);
        }
    }
}
