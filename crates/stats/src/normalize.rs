//! Measure normalization schemes.
//!
//! Section 3.1: *"The overall source quality is thus obtained as a
//! weighted average of the different measures that are normalized by
//! considering benchmarks derived from the assessment of well-known,
//! highly-ranked sources."* [`benchmark_relative`] is that scheme;
//! [`z_scores`] standardizes the search engine's static signals.

// Checked indexing only: every re-blend calls `z_scores`.
#![warn(clippy::indexing_slicing)]

/// Scales `value` against a benchmark ceiling: `min(value / benchmark, 1)`.
///
/// The benchmark is typically the value observed on a well-known,
/// highly-ranked source; anything at or above the benchmark saturates
/// at 1. Non-positive benchmarks map everything positive to 1.
pub fn benchmark_relative(value: f64, benchmark: f64) -> f64 {
    if !value.is_finite() || value <= 0.0 {
        return 0.0;
    }
    if benchmark <= 0.0 || !benchmark.is_finite() {
        return 1.0;
    }
    (value / benchmark).min(1.0)
}

/// Z-score standardization (population standard deviation). Constant
/// samples map to all zeros.
pub fn z_scores(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let sd = var.sqrt();
    if sd == 0.0 {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|&x| (x - mean) / sd).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_relative_saturates() {
        assert_eq!(benchmark_relative(50.0, 100.0), 0.5);
        assert_eq!(benchmark_relative(100.0, 100.0), 1.0);
        assert_eq!(benchmark_relative(250.0, 100.0), 1.0);
        assert_eq!(benchmark_relative(0.0, 100.0), 0.0);
        assert_eq!(benchmark_relative(-3.0, 100.0), 0.0);
        assert_eq!(benchmark_relative(5.0, 0.0), 1.0);
        assert_eq!(benchmark_relative(f64::NAN, 10.0), 0.0);
    }

    #[test]
    fn z_scores_have_zero_mean_unit_sd() {
        let z = z_scores(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        let var: f64 = z.iter().map(|x| x * x).sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_scores_constant_sample() {
        assert_eq!(z_scores(&[7.0, 7.0, 7.0]), vec![0.0, 0.0, 0.0]);
    }

    mod proptests {
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn benchmark_relative_in_unit_interval(
                v in -1e6f64..1e6, b in -1e6f64..1e6
            ) {
                let out = super::benchmark_relative(v, b);
                prop_assert!((0.0..=1.0).contains(&out));
            }
        }
    }
}
