//! Summary statistics and growth-exponent fitting.

/// Summary of a sample of times-to-rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
}

impl Summary {
    /// Summarizes a non-empty sample.
    ///
    /// Returns `None` on an empty sample.
    pub fn of(samples: &[u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let sum: u128 = sorted.iter().map(|&x| x as u128).sum();
        Some(Summary {
            count: sorted.len(),
            max: *sorted.last().expect("non-empty"),
            mean: sum as f64 / sorted.len() as f64,
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
        })
    }
}

/// The `q`-th percentile of a sorted sample (nearest-rank).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q ∉ [0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Least-squares slope and intercept of `y` on `x`.
///
/// Returns `None` with fewer than two points or zero variance in `x`.
fn linear_fit(x: &[f64], y: &[f64]) -> Option<(f64, f64)> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|xi| (xi - mx) * (xi - mx)).sum();
    if sxx.abs() < 1e-12 {
        return None;
    }
    let sxy: f64 = x.iter().zip(y).map(|(xi, yi)| (xi - mx) * (yi - my)).sum();
    let slope = sxy / sxx;
    Some((slope, my - slope * mx))
}

/// Fits `ttr ≈ c·nᵉ` over a sweep of `(n, ttr)` points and returns the
/// exponent `e` — the quantity that distinguishes `O(n²)` baselines (`e≈2`)
/// from the paper's construction (`e≈0` at fixed `k`).
///
/// Zero TTRs are clamped to 1 before the log transform. Returns `None`
/// with fewer than two points.
pub fn growth_exponent(points: &[(u64, u64)]) -> Option<f64> {
    let x: Vec<f64> = points.iter().map(|&(n, _)| (n as f64).ln()).collect();
    let y: Vec<f64> = points
        .iter()
        .map(|&(_, t)| (t.max(1) as f64).ln())
        .collect();
    linear_fit(&x, &y).map(|(slope, _)| slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[5, 1, 3, 2, 4]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.max, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.p50, 3);
        assert_eq!(s.p95, 5);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [10u64, 20, 30, 40];
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&v, 0.25), 10);
        assert_eq!(percentile(&v, 0.5), 20);
        assert_eq!(percentile(&v, 1.0), 40);
    }

    #[test]
    fn linear_fit_exact_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let (slope, intercept) = linear_fit(&x, &y).unwrap();
        assert!((slope - 2.0).abs() < 1e-9);
        assert!((intercept - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert_eq!(linear_fit(&[1.0], &[2.0]), None);
        assert_eq!(linear_fit(&[2.0, 2.0], &[1.0, 5.0]), None);
    }

    #[test]
    fn growth_exponent_quadratic() {
        let pts: Vec<(u64, u64)> = [8u64, 16, 32, 64, 128]
            .iter()
            .map(|&n| (n, 3 * n * n))
            .collect();
        let e = growth_exponent(&pts).unwrap();
        assert!((e - 2.0).abs() < 0.01, "exponent {e}");
    }

    #[test]
    fn growth_exponent_flat() {
        let pts: Vec<(u64, u64)> = [8u64, 16, 32, 64].iter().map(|&n| (n, 17)).collect();
        let e = growth_exponent(&pts).unwrap();
        assert!(e.abs() < 0.01, "exponent {e}");
    }

    #[test]
    fn growth_exponent_handles_zero_ttr() {
        let pts = [(8u64, 0u64), (16, 0), (32, 0)];
        let e = growth_exponent(&pts).unwrap();
        assert!(e.abs() < 1e-9);
    }
}
