//! Ordinary least squares with coefficient significance tests.
//!
//! Table 3 of the paper reports, for each principal component, the
//! *direction* of its relation with Google rank and a significance
//! level ("positive (sig < 0.001)"). [`Ols`] produces exactly those
//! ingredients: coefficients, two-sided t-test p-values, and the
//! conventional significance buckets.

use crate::dist::{FisherF, StudentT};
use crate::matrix::Matrix;
use crate::StatsError;

/// Conventional significance buckets used in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Significance {
    /// p < 0.001
    P001,
    /// p < 0.01
    P01,
    /// p < 0.05
    P05,
    /// p ≥ 0.05
    NotSignificant,
}

impl Significance {
    /// Buckets a p-value.
    pub fn of(p: f64) -> Self {
        if p < 0.001 {
            Significance::P001
        } else if p < 0.01 {
            Significance::P01
        } else if p < 0.05 {
            Significance::P05
        } else {
            Significance::NotSignificant
        }
    }

    /// The paper's rendering ("sig < 0.001", …).
    pub fn label(self) -> &'static str {
        match self {
            Significance::P001 => "sig < 0.001",
            Significance::P01 => "sig < 0.010",
            Significance::P05 => "sig < 0.050",
            Significance::NotSignificant => "n.s.",
        }
    }

    /// Whether the bucket clears the 0.05 bar.
    pub fn is_significant(self) -> bool {
        self != Significance::NotSignificant
    }
}

impl std::fmt::Display for Significance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fitted OLS model. Coefficient 0 is the intercept; coefficient
/// `j ≥ 1` belongs to predictor `j − 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ols {
    /// `[intercept, b1, …, bp]`.
    pub coefficients: Vec<f64>,
    /// Standard errors, aligned with `coefficients`.
    pub std_errors: Vec<f64>,
    /// t statistics, aligned with `coefficients`.
    pub t_stats: Vec<f64>,
    /// Two-sided p-values, aligned with `coefficients`.
    pub p_values: Vec<f64>,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Adjusted R².
    pub adj_r_squared: f64,
    /// Overall F statistic (model vs. intercept-only).
    pub f_statistic: f64,
    /// p-value of the overall F test.
    pub f_p_value: f64,
    /// Residual degrees of freedom (n − p − 1).
    pub df_residual: usize,
    /// Residuals, in input order.
    pub residuals: Vec<f64>,
}

impl Ols {
    /// Number of predictors (excluding intercept).
    pub fn predictors(&self) -> usize {
        self.coefficients.len() - 1
    }

    /// Slope of predictor `j` (0-based).
    pub fn slope(&self, j: usize) -> f64 {
        self.coefficients[j + 1]
    }

    /// Two-sided p-value of predictor `j` (0-based).
    pub fn slope_p(&self, j: usize) -> f64 {
        self.p_values[j + 1]
    }

    /// Significance bucket of predictor `j` (0-based).
    pub fn slope_significance(&self, j: usize) -> Significance {
        Significance::of(self.slope_p(j))
    }
}

/// Fits `y ~ 1 + X` where `predictors` holds the columns of `X`.
pub fn ols(y: &[f64], predictors: &[Vec<f64>]) -> Result<Ols, StatsError> {
    let n = y.len();
    let p = predictors.len();
    for col in predictors {
        if col.len() != n {
            return Err(StatsError::DimensionMismatch {
                context: "ols",
                left: n,
                right: col.len(),
            });
        }
    }
    if n < p + 2 {
        return Err(StatsError::NotEnoughData {
            context: "ols",
            needed: p + 2,
            got: n,
        });
    }

    // Design matrix with intercept column.
    let x = Matrix::from_fn(
        n,
        p + 1,
        |i, j| if j == 0 { 1.0 } else { predictors[j - 1][i] },
    );
    let xt = x.transpose();
    let xtx = xt.mul(&x)?;
    let xtx_inv = xtx
        .inverse()
        .map_err(|_| StatsError::Singular("ols: collinear predictors"))?;
    let xty = xt.mul_vec(y)?;
    let beta = xtx_inv.mul_vec(&xty)?;

    let fitted = x.mul_vec(&beta)?;
    let residuals: Vec<f64> = y.iter().zip(&fitted).map(|(a, b)| a - b).collect();
    let rss: f64 = residuals.iter().map(|r| r * r).sum();
    let y_mean = y.iter().sum::<f64>() / n as f64;
    let tss: f64 = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum();
    if tss == 0.0 {
        return Err(StatsError::Singular("ols: constant response"));
    }

    let df_residual = n - p - 1;
    let sigma2 = rss / df_residual as f64;
    let t_dist = StudentT::new(df_residual as f64)?;

    let mut std_errors = Vec::with_capacity(p + 1);
    let mut t_stats = Vec::with_capacity(p + 1);
    let mut p_values = Vec::with_capacity(p + 1);
    for j in 0..=p {
        let se = (sigma2 * xtx_inv[(j, j)]).max(0.0).sqrt();
        std_errors.push(se);
        let t = if se > 0.0 {
            beta[j] / se
        } else {
            f64::INFINITY
        };
        t_stats.push(t);
        p_values.push(if se > 0.0 { t_dist.two_sided_p(t) } else { 0.0 });
    }

    let r_squared = 1.0 - rss / tss;
    let adj_r_squared = 1.0 - (1.0 - r_squared) * ((n - 1) as f64 / df_residual as f64);
    let (f_statistic, f_p_value) = if p == 0 {
        (0.0, 1.0)
    } else if rss <= f64::EPSILON * tss {
        (f64::INFINITY, 0.0)
    } else {
        let f = ((tss - rss) / p as f64) / sigma2;
        (f, FisherF::new(p as f64, df_residual as f64)?.sf(f))
    };

    Ok(Ols {
        coefficients: beta,
        std_errors,
        t_stats,
        p_values,
        r_squared,
        adj_r_squared,
        f_statistic,
        f_p_value,
        df_residual,
        residuals,
    })
}

/// Fits the one-predictor model `y ~ 1 + x`.
pub fn simple_regression(x: &[f64], y: &[f64]) -> Result<Ols, StatsError> {
    ols(y, &[x.to_vec()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn exact_linear_fit() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 2.0).collect();
        let fit = simple_regression(&x, &y).unwrap();
        close(fit.coefficients[0], 2.0, 1e-9);
        close(fit.coefficients[1], 3.0, 1e-9);
        close(fit.r_squared, 1.0, 1e-12);
        assert!(fit.residuals.iter().all(|r| r.abs() < 1e-9));
    }

    #[test]
    fn known_regression_hand_computed() {
        // x = 1..5, y = (2,4,5,4,5): Sxx = 10, Sxy = 6 → slope 0.6,
        // intercept 2.2, RSS = 2.4, σ² = 0.8, se(slope) = √0.08,
        // t = 0.6/√0.08 = 2.12132, two-sided p(df=3) = 0.124017,
        // R² = 1 − 2.4/6 = 0.6.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 4.0, 5.0, 4.0, 5.0];
        let fit = simple_regression(&x, &y).unwrap();
        close(fit.coefficients[0], 2.2, 1e-9);
        close(fit.coefficients[1], 0.6, 1e-9);
        close(fit.std_errors[1], 0.08f64.sqrt(), 1e-9);
        close(fit.t_stats[1], 2.121_320_34, 1e-7);
        close(fit.p_values[1], 0.124_027, 5e-5);
        close(fit.r_squared, 0.6, 1e-9);
    }

    #[test]
    fn multiple_regression_recovers_plane() {
        // y = 1 + 2a − 3b, no noise.
        let a: Vec<f64> = (0..20).map(|i| (i % 7) as f64).collect();
        let b: Vec<f64> = (0..20).map(|i| ((i * 3) % 5) as f64).collect();
        let y: Vec<f64> = a
            .iter()
            .zip(&b)
            .map(|(&ai, &bi)| 1.0 + 2.0 * ai - 3.0 * bi)
            .collect();
        let fit = ols(&y, &[a, b]).unwrap();
        close(fit.coefficients[0], 1.0, 1e-8);
        close(fit.slope(0), 2.0, 1e-8);
        close(fit.slope(1), -3.0, 1e-8);
        assert_eq!(fit.predictors(), 2);
    }

    #[test]
    fn collinear_predictors_are_rejected() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let b: Vec<f64> = a.iter().map(|v| 2.0 * v).collect();
        let y = vec![1.0, 2.0, 2.5, 4.0, 5.5];
        assert!(matches!(ols(&y, &[a, b]), Err(StatsError::Singular(_))));
    }

    #[test]
    fn constant_response_is_rejected() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert!(matches!(
            simple_regression(&x, &[5.0, 5.0, 5.0, 5.0]),
            Err(StatsError::Singular(_))
        ));
    }

    #[test]
    fn too_few_observations() {
        assert!(matches!(
            simple_regression(&[1.0, 2.0], &[1.0, 2.0]),
            Err(StatsError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn f_test_matches_t_test_for_single_predictor() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [1.1, 2.3, 2.8, 4.5, 4.9, 6.2];
        let fit = simple_regression(&x, &y).unwrap();
        // F = t² and same p-value for one predictor.
        close(fit.f_statistic, fit.t_stats[1] * fit.t_stats[1], 1e-9);
        close(fit.f_p_value, fit.p_values[1], 1e-9);
    }

    #[test]
    fn significance_buckets() {
        assert_eq!(Significance::of(0.0005), Significance::P001);
        assert_eq!(Significance::of(0.005), Significance::P01);
        assert_eq!(Significance::of(0.03), Significance::P05);
        assert_eq!(Significance::of(0.2), Significance::NotSignificant);
        assert!(Significance::of(0.03).is_significant());
        assert!(!Significance::of(0.5).is_significant());
        assert_eq!(Significance::P001.label(), "sig < 0.001");
    }

    #[test]
    fn residuals_are_orthogonal_to_predictors() {
        let x = [1.0, 2.0, 4.0, 5.0, 7.0, 8.0];
        let y = [2.0, 3.0, 3.5, 6.0, 7.0, 7.5];
        let fit = simple_regression(&x, &y).unwrap();
        let dot: f64 = fit.residuals.iter().zip(&x).map(|(r, v)| r * v).sum();
        close(dot, 0.0, 1e-8);
        let sum: f64 = fit.residuals.iter().sum();
        close(sum, 0.0, 1e-8);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn r_squared_in_unit_interval_and_residuals_centered(
                points in proptest::collection::vec(
                    (-100.0f64..100.0, -100.0f64..100.0), 4..50
                )
            ) {
                let x: Vec<f64> = points.iter().map(|p| p.0).collect();
                let y: Vec<f64> = points.iter().map(|p| p.1).collect();
                if let Ok(fit) = simple_regression(&x, &y) {
                    prop_assert!(fit.r_squared >= -1e-9);
                    prop_assert!(fit.r_squared <= 1.0 + 1e-9);
                    let sum: f64 = fit.residuals.iter().sum();
                    prop_assert!(sum.abs() < 1e-5 * (1.0 + y.iter().map(|v| v.abs()).sum::<f64>()));
                }
            }
        }
    }
}
