//! Errors raised by statistical routines.

/// Errors raised by the statistics substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// Two inputs were expected to have the same length/shape.
    DimensionMismatch {
        /// What was being computed.
        context: &'static str,
        /// First dimension observed.
        left: usize,
        /// Second dimension observed.
        right: usize,
    },
    /// The input is too small for the requested statistic.
    NotEnoughData {
        /// What was being computed.
        context: &'static str,
        /// Observations required.
        needed: usize,
        /// Observations provided.
        got: usize,
    },
    /// A linear system was singular (collinear regressors, zero
    /// variance, …).
    Singular(&'static str),
    /// An iterative algorithm failed to converge.
    NoConvergence(&'static str),
    /// A distribution was asked for with degrees of freedom that are
    /// not positive (zero, negative or NaN).
    NonPositiveDf(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::DimensionMismatch {
                context,
                left,
                right,
            } => {
                write!(f, "{context}: dimension mismatch ({left} vs {right})")
            }
            StatsError::NotEnoughData {
                context,
                needed,
                got,
            } => {
                write!(
                    f,
                    "{context}: needs at least {needed} observations, got {got}"
                )
            }
            StatsError::Singular(context) => write!(f, "{context}: singular system"),
            StatsError::NoConvergence(context) => write!(f, "{context}: did not converge"),
            StatsError::NonPositiveDf(context) => {
                write!(f, "{context}: degrees of freedom must be positive")
            }
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_context() {
        let e = StatsError::DimensionMismatch {
            context: "pearson",
            left: 3,
            right: 4,
        };
        assert!(e.to_string().contains("pearson"));
        assert!(e.to_string().contains("3 vs 4"));
        let e = StatsError::NotEnoughData {
            context: "anova",
            needed: 2,
            got: 1,
        };
        assert!(e.to_string().contains("at least 2"));
    }
}
