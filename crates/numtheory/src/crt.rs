//! The Chinese Remainder Theorem solver used by Theorem 3's epoch analysis.
//!
//! The general construction guarantees a "helpful" epoch `r` with
//! `r ≡ x (mod p)` and `r ≡ y' (mod q)` for distinct primes `p, q`; the CRT
//! bounds the first such epoch by `p·q`, which is where the `O(|A||B|)`
//! factor of the rendezvous time comes from.

use crate::modular::{extended_gcd, gcd, mul_mod};

/// Solves `r ≡ a (mod m)`, `r ≡ b (mod n)` for coprime moduli.
///
/// Returns the unique solution in `[0, m·n)`, or `None` if the moduli are
/// not coprime (or zero) or `m·n` overflows `u64`.
///
/// # Example
///
/// ```
/// use rdv_numtheory::crt_pair;
/// let r = crt_pair(2, 5, 3, 7).unwrap();
/// assert_eq!(r % 5, 2);
/// assert_eq!(r % 7, 3);
/// assert!(r < 35);
/// ```
pub fn crt_pair(a: u64, m: u64, b: u64, n: u64) -> Option<u64> {
    if m == 0 || n == 0 || gcd(m, n) != 1 {
        return None;
    }
    let modulus = m.checked_mul(n)?;
    // r = a + m * t where t ≡ (b - a) / m (mod n).
    let (_, m_inv, _) = extended_gcd(m as i128, n as i128);
    let m_inv = m_inv.rem_euclid(n as i128) as u64;
    let diff = (b % n + n - a % n) % n;
    let t = mul_mod(diff, m_inv, n);
    let r = (a % modulus + mul_mod(m % modulus, t, modulus)) % modulus;
    debug_assert_eq!(r % m, a % m);
    debug_assert_eq!(r % n, b % n);
    Some(r)
}

/// The first epoch index `r ≥ start` with `r ≡ x (mod p)` and
/// `r ≡ y (mod q)` — the exact quantity Theorem 3's proof bounds.
///
/// Returns `None` when `p` and `q` are not coprime.
pub fn first_helpful_epoch(x: u64, p: u64, y: u64, q: u64, start: u64) -> Option<u64> {
    let base = crt_pair(x, p, y, q)?;
    let period = p * q;
    if base >= start {
        // Smallest representative ≥ start of the residue class.
        let k = (start.saturating_sub(base)).div_ceil(period);
        Some(base + k * period)
    } else {
        let k = (start - base).div_ceil(period);
        Some(base + k * period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crt_pair_exhaustive_small() {
        for (m, n) in [(3u64, 5u64), (2, 7), (5, 7), (11, 13), (1, 9)] {
            for a in 0..m {
                for b in 0..n {
                    let r = crt_pair(a, m, b, n).unwrap();
                    assert_eq!(r % m, a);
                    assert_eq!(r % n, b);
                    assert!(r < m * n);
                }
            }
        }
    }

    #[test]
    fn crt_pair_rejects_common_factor() {
        assert_eq!(crt_pair(1, 6, 2, 4), None);
        assert_eq!(crt_pair(0, 0, 0, 5), None);
    }

    #[test]
    fn first_helpful_epoch_bounds() {
        // The first helpful epoch at or after `start` is < start + p·q.
        for (p, q) in [(5u64, 7u64), (2, 3), (11, 13)] {
            for x in 0..p {
                for y in 0..q {
                    for start in [0u64, 1, 17, 100] {
                        let r = first_helpful_epoch(x, p, y, q, start).unwrap();
                        assert!(r >= start);
                        assert!(r < start + p * q, "r={r}, start={start}, pq={}", p * q);
                        assert_eq!(r % p, x);
                        assert_eq!(r % q, y);
                    }
                }
            }
        }
    }

    #[test]
    fn large_moduli_no_overflow() {
        let m = 4_294_967_291u64; // prime < 2³²
        let n = 4_294_967_279u64; // prime < 2³²
        let r = crt_pair(123, m, 456, n).unwrap();
        assert_eq!(r % m, 123);
        assert_eq!(r % n, 456);
    }
}
