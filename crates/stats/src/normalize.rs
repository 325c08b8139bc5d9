//! Measure normalization schemes.
//!
//! Section 3.1: *"The overall source quality is thus obtained as a
//! weighted average of the different measures that are normalized by
//! considering benchmarks derived from the assessment of well-known,
//! highly-ranked sources."* [`benchmark_relative`] is that scheme;
//! min-max and z-score are provided as the ablation alternatives
//! benchmarked in `obs-bench`.

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

/// Min-max scaling of a whole sample into `[0, 1]`. Constant samples
/// map to 0.5 (no information).
pub fn min_max(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if hi - lo <= 0.0 {
        return vec![0.5; xs.len()];
    }
    xs.iter().map(|&x| (x - lo) / (hi - lo)).collect()
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

/// Winsorized min-max: clips to the `[p, 1−p]` quantiles before
/// scaling, so a single outlier source cannot flatten everyone else.
pub fn robust_min_max(xs: &[f64], p: f64) -> Vec<f64> {
    let p = p.clamp(0.0, 0.5);
    // Both quantiles are `None` exactly when `xs` is empty.
    let (Some(lo), Some(hi)) = (
        crate::desc::quantile(xs, p),
        crate::desc::quantile(xs, 1.0 - p),
    ) else {
        return Vec::new();
    };
    if hi - lo <= 0.0 {
        return vec![0.5; xs.len()];
    }
    xs.iter()
        .map(|&x| ((x - lo) / (hi - lo)).clamp(0.0, 1.0))
        .collect()
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
    fn min_max_maps_extremes() {
        let v = min_max(&[2.0, 4.0, 6.0]);
        assert_eq!(v, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn min_max_constant_sample() {
        assert_eq!(min_max(&[3.0, 3.0]), vec![0.5, 0.5]);
        assert!(min_max(&[]).is_empty());
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

    #[test]
    fn robust_min_max_tames_outliers() {
        let mut xs = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        xs.push(10_000.0);
        let plain = min_max(&xs);
        // p = 0.15 puts the upper clip inside the ordinary values
        // (interpolated 0.85-quantile of n=10 is below the outlier).
        let robust = robust_min_max(&xs, 0.15);
        // With plain scaling every ordinary value is squashed near 0.
        assert!(plain[8] < 0.001);
        // Robust scaling keeps the ordinary values spread out.
        assert!(robust[8] > 0.9);
        assert_eq!(robust[9], 1.0);
    }

    mod proptests {
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn min_max_stays_in_unit_interval(
                xs in proptest::collection::vec(-1e6f64..1e6, 1..100)
            ) {
                for v in super::min_max(&xs) {
                    prop_assert!((0.0..=1.0).contains(&v));
                }
            }

            #[test]
            fn benchmark_relative_in_unit_interval(
                v in -1e6f64..1e6, b in -1e6f64..1e6
            ) {
                let out = super::benchmark_relative(v, b);
                prop_assert!((0.0..=1.0).contains(&out));
            }

            #[test]
            fn robust_min_max_in_unit_interval(
                xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                p in 0.0f64..0.4
            ) {
                for v in super::robust_min_max(&xs, p) {
                    prop_assert!((0.0..=1.0).contains(&v));
                }
            }
        }
    }
}
