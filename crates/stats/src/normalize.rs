//! Measure normalization schemes.
//!
//! Section 3.1: *"The overall source quality is thus obtained as a
//! weighted average of the different measures that are normalized by
//! considering benchmarks derived from the assessment of well-known,
//! highly-ranked sources."* [`benchmark_relative`] is that scheme.

// Checked indexing only: every quality measure is normalized here.
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
