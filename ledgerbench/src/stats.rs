//! Exact order statistics and binomial bounds.
//!
//! Percentiles here are always taken from sorted raw samples (nearest
//! rank), never from bucketed histograms, so a reported p99 is a value
//! some request actually saw.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending slice:
/// the smallest sample with at least `q·n` samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the two middle values for even
/// counts).
///
/// # Panics
/// Panics on an empty slice or a NaN value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Standard-normal quantile for a two-sided 99.9% interval.
pub const Z_999: f64 = 3.290_526_731_491_926;

/// Lower end of the Wilson score interval for `successes` out of `n`
/// trials at normal quantile `z` (0 when `n == 0`).
pub fn wilson_lower(successes: u64, n: u64, z: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let centre = p + z2 / (2.0 * n);
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (centre - half) / (1.0 + z2 / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_one_to_hundred() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 0.999), 100);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.001), 1);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        assert_eq!(percentile_sorted(&[7u64], 0.5), 7);
        assert_eq!(percentile_sorted(&[7u64], 0.99), 7);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn wilson_matches_published_values() {
        // 80/100 at 95%: the textbook Wilson interval is [0.7112, 0.8666].
        let lo = wilson_lower(80, 100, 1.959_963_984_540_054);
        assert!((lo - 0.7112).abs() < 1e-4, "got {lo}");
        // All successes: lower bound n / (n + z²).
        let lo = wilson_lower(10, 10, 2.0);
        assert!((lo - 10.0 / 14.0).abs() < 1e-12, "got {lo}");
        assert_eq!(wilson_lower(0, 0, Z_999), 0.0);
        assert_eq!(wilson_lower(0, 50, Z_999), 0.0);
    }

    #[test]
    fn wilson_lower_separates_chsh_from_classical_at_scale() {
        // cos²(π/8) ≈ 0.8536 over 10⁵ rounds sits far above 3/4 at 99.9%.
        // Half-width ≈ 3.29·√(0.8536·0.1464/10⁵) ≈ 0.0037.
        let lo = wilson_lower(85_355, 100_000, Z_999);
        assert!((lo - 0.8498).abs() < 2e-4 && lo > 0.75, "got {lo}");
        // 0.76 over 1000 rounds does not clear 3/4 at 99.9%.
        assert!(wilson_lower(760, 1000, Z_999) < 0.75);
    }
}
