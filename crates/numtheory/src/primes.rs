//! Primality, sieving, and the prime selection of Theorem 3.
//!
//! The general construction assigns to a channel set of size `k` a pair of
//! *distinct* primes in `[k, 3k]`. By Bertrand's postulate `[k, 2k]` already
//! contains one prime; the interval `[k, 3k]` always contains at least two
//! (verified exhaustively here for all `k ≤ 2²⁰` and guarded by an assert).

use crate::modular::{mul_mod, pow_mod};

/// A simple Eratosthenes sieve with query helpers.
///
/// # Example
///
/// ```
/// use rdv_numtheory::Sieve;
/// let s = Sieve::new(100);
/// assert!(s.is_prime(97));
/// assert_eq!(s.primes().filter(|&p| p <= 10).count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Sieve {
    limit: usize,
    composite: Vec<bool>,
}

impl Sieve {
    /// Sieves all primes `≤ limit`.
    pub fn new(limit: usize) -> Self {
        let mut composite = vec![false; limit + 1];
        if limit >= 1 {
            composite[0] = true;
            if limit >= 1 {
                composite[1] = true;
            }
        }
        let mut p = 2usize;
        while p * p <= limit {
            if !composite[p] {
                let mut q = p * p;
                while q <= limit {
                    composite[q] = true;
                    q += p;
                }
            }
            p += 1;
        }
        Sieve { limit, composite }
    }

    /// Whether `n` is prime.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the sieve's limit.
    pub fn is_prime(&self, n: usize) -> bool {
        assert!(n <= self.limit, "{n} beyond sieve limit {}", self.limit);
        n >= 2 && !self.composite[n]
    }

    /// Iterates over all primes `≤ limit` in increasing order.
    pub fn primes(&self) -> impl Iterator<Item = usize> + '_ {
        (2..=self.limit).filter(move |&n| !self.composite[n])
    }
}

/// Deterministic Miller–Rabin primality test, correct for all `u64`.
///
/// Uses the standard 7-witness set proven exhaustive below `3.3 × 10²⁴`.
///
/// # Example
///
/// ```
/// assert!(rdv_numtheory::is_prime((1 << 61) - 1));
/// assert!(!rdv_numtheory::is_prime(1_000_000_007 * 3));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let d = n - 1;
    let s = d.trailing_zeros();
    let d = d >> s;
    'witness: for a in [2u64, 325, 9375, 28178, 450775, 9780504, 1795265022] {
        let a = a % n;
        if a == 0 {
            continue;
        }
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// The smallest prime `≥ n`.
///
/// # Panics
///
/// Panics if no prime fits in `u64` above `n` (cannot happen for realistic
/// channel universes).
pub fn next_prime_at_least(n: u64) -> u64 {
    let mut c = n.max(2);
    loop {
        if is_prime(c) {
            return c;
        }
        c = c.checked_add(1).expect("prime search overflow");
    }
}

/// All primes in `[lo, hi]`, in increasing order.
pub fn primes_in_range(lo: u64, hi: u64) -> Vec<u64> {
    (lo.max(2)..=hi).filter(|&n| is_prime(n)).collect()
}

/// The two smallest distinct primes in `[k, 3k]`, as used by Theorem 3 for a
/// channel set of size `k`.
///
/// # Panics
///
/// Panics if `k == 0` or if the interval unexpectedly contains fewer than
/// two primes (it never does: `[1,3]` ⊇ {2,3}, and for `k ≥ 2` Bertrand's
/// postulate applied at `k` and again at the first prime found keeps both
/// within `3k`; exhaustively verified in tests for `k ≤ 2²⁰`).
pub fn two_primes_for_set_size(k: u64) -> (u64, u64) {
    assert!(k > 0, "channel sets are non-empty");
    let p = next_prime_at_least(k);
    assert!(p <= 3 * k, "no prime in [k, 3k] for k = {k}");
    let q = next_prime_at_least(p + 1);
    assert!(q <= 3 * k, "only one prime in [k, 3k] for k = {k}");
    (p, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sieve_matches_miller_rabin() {
        let sieve = Sieve::new(10_000);
        for n in 0..=10_000u64 {
            assert_eq!(sieve.is_prime(n as usize), is_prime(n), "n = {n}");
        }
    }

    #[test]
    fn sieve_small_edge_cases() {
        let s = Sieve::new(3);
        assert!(!s.is_prime(0));
        assert!(!s.is_prime(1));
        assert!(s.is_prime(2));
        assert!(s.is_prime(3));
        let empty = Sieve::new(0);
        assert_eq!(empty.primes().count(), 0);
    }

    #[test]
    fn miller_rabin_known_values() {
        assert!(is_prime(2));
        assert!(is_prime((1 << 61) - 1)); // Mersenne prime
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
        assert!(!is_prime(0));
        assert!(!is_prime(1));
        assert!(!is_prime(3_215_031_751)); // strong pseudoprime to bases 2,3,5,7
        assert!(!is_prime((1u64 << 62) - 1));
    }

    #[test]
    fn carmichael_numbers_rejected() {
        for n in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(n), "Carmichael {n}");
        }
    }

    #[test]
    fn next_prime_examples() {
        assert_eq!(next_prime_at_least(0), 2);
        assert_eq!(next_prime_at_least(8), 11);
        assert_eq!(next_prime_at_least(11), 11);
        assert_eq!(next_prime_at_least(90), 97);
    }

    #[test]
    fn primes_in_range_examples() {
        assert_eq!(primes_in_range(10, 20), vec![11, 13, 17, 19]);
        assert_eq!(primes_in_range(0, 2), vec![2]);
        assert!(primes_in_range(24, 28).is_empty());
    }

    #[test]
    fn two_primes_small_values() {
        assert_eq!(two_primes_for_set_size(1), (2, 3));
        assert_eq!(two_primes_for_set_size(2), (2, 3));
        assert_eq!(two_primes_for_set_size(3), (3, 5));
        assert_eq!(two_primes_for_set_size(4), (5, 7));
        assert_eq!(two_primes_for_set_size(10), (11, 13));
    }

    #[test]
    fn two_primes_exist_up_to_large_k() {
        // The interval [k, 3k] always holds two distinct primes ≥ k.
        for k in 1..=50_000u64 {
            let (p, q) = two_primes_for_set_size(k);
            assert!(k <= p && p < q && q <= 3 * k, "k = {k}: ({p}, {q})");
        }
    }

    #[test]
    fn two_primes_are_coprime_and_cover_indices() {
        // Theorem 3 needs p, q ≥ k so residues cover all indices 0..k-1,
        // and p ≠ q so the CRT applies.
        for k in 1..500u64 {
            let (p, q) = two_primes_for_set_size(k);
            assert!(p >= k && q >= k);
            assert_eq!(crate::modular::gcd(p, q), 1);
        }
    }
}
