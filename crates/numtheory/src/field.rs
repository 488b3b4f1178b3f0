//! Prime fields `F_p` and polynomials over them.
//!
//! Degree-`(t−1)` polynomials with uniformly random coefficients form a
//! `t`-wise independent hash family — the classical construction behind
//! Indyk's ε-min-wise independent permutation families (Section 5 of the
//! paper uses these through [`rdv-beacon`](https://crates.io)).

use crate::modular::{add_mod, inv_mod, mul_mod, pow_mod, sub_mod};
use crate::primes::next_prime_at_least;

/// A prime field `F_p`.
///
/// # Example
///
/// ```
/// use rdv_numtheory::field::PrimeField;
/// let f = PrimeField::new(97);
/// assert_eq!(f.mul(50, 2), 3);
/// assert_eq!(f.inv(3).unwrap(), 65); // 3 · 65 = 195 = 2·97 + 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrimeField {
    p: u64,
}

impl PrimeField {
    /// Creates `F_p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not prime.
    pub fn new(p: u64) -> Self {
        assert!(crate::primes::is_prime(p), "{p} is not prime");
        PrimeField { p }
    }

    /// The field with the smallest prime order `≥ n`.
    pub fn at_least(n: u64) -> Self {
        PrimeField {
            p: next_prime_at_least(n),
        }
    }

    /// The field's order.
    pub fn order(&self) -> u64 {
        self.p
    }

    /// Canonical representative of `x`.
    fn reduce(&self, x: u64) -> u64 {
        x % self.p
    }

    /// Field addition.
    pub fn add(&self, a: u64, b: u64) -> u64 {
        add_mod(a, b, self.p)
    }

    /// Field subtraction.
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        sub_mod(a, b, self.p)
    }

    /// Field multiplication.
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        mul_mod(a, b, self.p)
    }

    /// Field exponentiation.
    pub fn pow(&self, a: u64, e: u64) -> u64 {
        pow_mod(a, e, self.p)
    }

    /// Multiplicative inverse, `None` for zero.
    pub fn inv(&self, a: u64) -> Option<u64> {
        if a.is_multiple_of(self.p) {
            None
        } else {
            inv_mod(a % self.p, self.p)
        }
    }
}

/// A polynomial over a [`PrimeField`], coefficients in increasing degree.
///
/// Evaluating a random polynomial of degree `< t` at distinct points yields
/// `t`-wise independent values — the hash-family backbone of the beacon
/// protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    field: PrimeField,
    /// Coefficients `c₀ + c₁x + c₂x² + …`, each reduced mod p.
    coeffs: Vec<u64>,
}

impl Poly {
    /// Creates a polynomial from coefficients (constant term first).
    pub fn new(field: PrimeField, coeffs: impl IntoIterator<Item = u64>) -> Self {
        let coeffs = coeffs.into_iter().map(|c| field.reduce(c)).collect();
        Poly { field, coeffs }
    }

    /// The underlying field.
    pub fn field(&self) -> PrimeField {
        self.field
    }

    /// Horner evaluation at `x`.
    pub fn eval(&self, x: u64) -> u64 {
        let x = self.field.reduce(x);
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = self.field.add(self.field.mul(acc, x), c);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_operations() {
        let f = PrimeField::new(7);
        assert_eq!(f.add(5, 4), 2);
        assert_eq!(f.sub(2, 5), 4);
        assert_eq!(f.mul(3, 5), 1);
        assert_eq!(f.pow(3, 6), 1);
        assert_eq!(f.inv(0), None);
        for a in 1..7 {
            assert_eq!(f.mul(a, f.inv(a).unwrap()), 1);
        }
    }

    #[test]
    #[should_panic(expected = "not prime")]
    fn non_prime_order_rejected() {
        PrimeField::new(12);
    }

    #[test]
    fn at_least_picks_next_prime() {
        assert_eq!(PrimeField::at_least(10).order(), 11);
        assert_eq!(PrimeField::at_least(11).order(), 11);
        assert_eq!(PrimeField::at_least(1).order(), 2);
    }

    #[test]
    fn poly_eval_matches_naive() {
        let f = PrimeField::new(101);
        let p = Poly::new(f, [3, 0, 5, 7]); // 3 + 5x² + 7x³
        for x in 0..101 {
            let naive = (3 + 5 * x * x + 7 * x * x * x) % 101;
            assert_eq!(p.eval(x), naive, "x = {x}");
        }
    }

    #[test]
    fn poly_constant_and_empty() {
        let f = PrimeField::new(13);
        assert_eq!(Poly::new(f, []).eval(5), 0);
        assert_eq!(Poly::new(f, [9]).eval(12345), 9);
    }

    #[test]
    fn degree_one_is_pairwise_independent_bijection() {
        // x ↦ a·x + b with a ≠ 0 permutes F_p.
        let f = PrimeField::new(17);
        for a in 1..17u64 {
            for b in 0..3u64 {
                let p = Poly::new(f, [b, a]);
                let mut seen = std::collections::HashSet::new();
                for x in 0..17 {
                    assert!(seen.insert(p.eval(x)));
                }
            }
        }
    }

    #[test]
    fn random_cubics_are_4wise_uniform_on_a_sample() {
        // Statistical sanity check of t-wise independence: over all degree<4
        // polynomials mod 5, the joint distribution of evaluations at 4
        // distinct points is exactly uniform.
        let f = PrimeField::new(5);
        let pts = [0u64, 1, 2, 3];
        let mut counts = std::collections::HashMap::new();
        for c0 in 0..5u64 {
            for c1 in 0..5u64 {
                for c2 in 0..5u64 {
                    for c3 in 0..5u64 {
                        let p = Poly::new(f, [c0, c1, c2, c3]);
                        let key: Vec<u64> = pts.iter().map(|&x| p.eval(x)).collect();
                        *counts.entry(key).or_insert(0u32) += 1;
                    }
                }
            }
        }
        assert_eq!(counts.len(), 625);
        assert!(
            counts.values().all(|&c| c == 1),
            "evaluation map is a bijection"
        );
    }
}
