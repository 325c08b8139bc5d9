//! Probability distributions used to convert statistics to p-values.

use crate::special::{beta_inc, normal_cdf};
use crate::StatsError;

/// Student's t distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    /// Degrees of freedom (> 0).
    pub df: f64,
}

impl StudentT {
    /// Creates the distribution; [`StatsError::NonPositiveDf`] unless
    /// `df > 0`, which a NaN df is not.
    pub fn new(df: f64) -> Result<Self, StatsError> {
        let t = (df > 0.0).then_some(StudentT { df });
        t.ok_or(StatsError::NonPositiveDf("StudentT"))
    }

    /// Cumulative distribution function `P(T ≤ t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        let x = self.df / (self.df + t * t);
        let tail = 0.5 * beta_inc(0.5 * self.df, 0.5, x);
        if t >= 0.0 {
            1.0 - tail
        } else {
            tail
        }
    }

    /// Two-sided p-value `P(|T| ≥ |t|)`.
    pub fn two_sided_p(&self, t: f64) -> f64 {
        let x = self.df / (self.df + t * t);
        beta_inc(0.5 * self.df, 0.5, x).clamp(0.0, 1.0)
    }
}

/// Fisher–Snedecor F distribution with `(df1, df2)` degrees of
/// freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FisherF {
    /// Numerator degrees of freedom.
    pub df1: f64,
    /// Denominator degrees of freedom.
    pub df2: f64,
}

impl FisherF {
    /// Creates the distribution; [`StatsError::NonPositiveDf`] unless
    /// both `df1 > 0` and `df2 > 0`, which a NaN df is not.
    pub fn new(df1: f64, df2: f64) -> Result<Self, StatsError> {
        let f = (df1 > 0.0 && df2 > 0.0).then_some(FisherF { df1, df2 });
        f.ok_or(StatsError::NonPositiveDf("FisherF"))
    }

    /// Cumulative distribution function `P(F ≤ f)`.
    pub fn cdf(&self, f: f64) -> f64 {
        if f <= 0.0 {
            return 0.0;
        }
        beta_inc(
            0.5 * self.df1,
            0.5 * self.df2,
            self.df1 * f / (self.df1 * f + self.df2),
        )
    }

    /// Survival function `P(F ≥ f)` — the ANOVA / regression p-value.
    pub fn sf(&self, f: f64) -> f64 {
        if f <= 0.0 {
            return 1.0;
        }
        beta_inc(
            0.5 * self.df2,
            0.5 * self.df1,
            self.df2 / (self.df2 + self.df1 * f),
        )
        .clamp(0.0, 1.0)
    }
}

/// Standard normal distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StdNormal;

impl StdNormal {
    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        normal_cdf(x)
    }

    /// Two-sided p-value `P(|Z| ≥ |z|)`.
    pub fn two_sided_p(&self, z: f64) -> f64 {
        (2.0 * (1.0 - normal_cdf(z.abs()))).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn t_cdf_is_symmetric_around_zero() {
        let t = StudentT::new(7.0).unwrap();
        close(t.cdf(0.0), 0.5, 1e-12);
        for v in [0.5, 1.3, 2.7] {
            close(t.cdf(v) + t.cdf(-v), 1.0, 1e-12);
        }
    }

    #[test]
    fn t_critical_values_match_tables() {
        // t_{0.975, 10} = 2.228139; t_{0.95, 10} = 1.812461
        let t = StudentT::new(10.0).unwrap();
        close(t.cdf(2.228_139), 0.975, 1e-5);
        close(t.cdf(1.812_461), 0.95, 1e-5);
        // t_{0.975, 1} = 12.7062
        let t1 = StudentT::new(1.0).unwrap();
        close(t1.cdf(12.706_2), 0.975, 1e-4);
    }

    #[test]
    fn t_two_sided_p_matches_tables() {
        let t = StudentT::new(10.0).unwrap();
        close(t.two_sided_p(2.228_139), 0.05, 1e-5);
        close(t.two_sided_p(-2.228_139), 0.05, 1e-5);
        close(t.two_sided_p(0.0), 1.0, 1e-12);
    }

    #[test]
    fn t_approaches_normal_for_large_df() {
        let t = StudentT::new(1e6).unwrap();
        let n = StdNormal;
        for v in [-2.0, -0.5, 0.0, 1.0, 2.5] {
            close(t.cdf(v), n.cdf(v), 1e-4);
        }
    }

    #[test]
    fn f_critical_values_match_tables() {
        // F_{0.95}(1, 10) = 4.9646
        close(FisherF::new(1.0, 10.0).unwrap().sf(4.964_6), 0.05, 1e-4);
        // F_{0.95}(2, 20) = 3.4928
        close(FisherF::new(2.0, 20.0).unwrap().sf(3.492_8), 0.05, 1e-4);
        // F_{0.99}(3, 30) = 4.5097
        close(FisherF::new(3.0, 30.0).unwrap().sf(4.509_7), 0.01, 1e-4);
    }

    #[test]
    fn f_cdf_plus_sf_is_one() {
        let f = FisherF::new(3.0, 12.0).unwrap();
        for v in [0.1, 0.5, 1.0, 2.0, 5.0] {
            close(f.cdf(v) + f.sf(v), 1.0, 1e-10);
        }
    }

    #[test]
    fn f_of_t_squared_matches_t_two_sided() {
        // If T ~ t(df) then T² ~ F(1, df): P(F ≥ t²) = two-sided t p.
        let t = StudentT::new(15.0).unwrap();
        let f = FisherF::new(1.0, 15.0).unwrap();
        for v in [0.5, 1.0, 2.0, 3.0] {
            close(f.sf(v * v), t.two_sided_p(v), 1e-10);
        }
    }

    #[test]
    fn normal_two_sided() {
        let n = StdNormal;
        close(n.two_sided_p(1.959_964), 0.05, 1e-4);
        close(n.two_sided_p(0.0), 1.0, 1e-12);
    }

    #[test]
    fn t_and_f_refuse_zero_negative_and_nan_df() {
        for bad in [0.0, -1.0, -0.5, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(
                StudentT::new(bad),
                Err(StatsError::NonPositiveDf("StudentT"))
            );
            let refused = Err(StatsError::NonPositiveDf("FisherF"));
            assert_eq!(FisherF::new(bad, 10.0), refused);
            assert_eq!(FisherF::new(3.0, bad), refused);
            assert_eq!(FisherF::new(bad, bad), refused);
        }
    }
}
