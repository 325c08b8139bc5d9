//! # obs-stats — self-contained statistics substrate
//!
//! The paper validates its quality model with an SPSS-style toolbox:
//! Kendall tau rank correlation (Section 4.1), principal-component
//! factor analysis and linear regressions with significance levels
//! (Table 3), and one-way ANOVA with Bonferroni post-hoc paired
//! comparisons (Table 4). No statistics crate is available offline, so
//! this crate implements the whole chain from special functions up:
//!
//! * [`special`] — log-gamma, regularized incomplete beta, `erf`;
//! * [`dist`] — Student-t, Fisher F and normal distributions (CDFs and
//!   tail probabilities used to turn statistics into p-values);
//! * [`desc`] — descriptive statistics;
//! * [`matrix`] — a small dense row-major matrix;
//! * [`rank`] — average ranks with tie handling;
//! * [`correlation`] — Pearson, Spearman, Kendall tau-b (Knight's
//!   O(n log n) algorithm);
//! * [`regression`] — OLS with coefficient t-tests, R², F-test;
//! * [`eigen`] — cyclic Jacobi eigendecomposition of symmetric
//!   matrices;
//! * [`pca`] — correlation-matrix PCA with varimax rotation and
//!   Kaiser component retention;
//! * [`anova`] — one-way ANOVA and Bonferroni-adjusted pairwise
//!   comparisons;
//! * [`normalize`] — benchmark-relative scaling
//!   (the paper normalizes measures against "benchmarks derived from
//!   the assessment of well-known, highly-ranked sources").
//!
//! Every algorithm is validated against closed-form cases in unit
//! tests and against brute-force reference implementations in
//! property tests.

#![warn(missing_docs)]
// Panic-freedom to the serving path's standard, though obs_live does
// not link this crate: runtime code returns errors instead of
// panicking, and a waiver is an `#[expect]` with a reason.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod anova;
pub mod correlation;
pub mod desc;
pub mod dist;
pub mod eigen;
mod error;
pub mod matrix;
pub mod normalize;
pub mod pca;
pub mod rank;
pub mod regression;
pub mod special;

pub use anova::{bonferroni_pairwise, one_way_anova, AnovaResult, PairwiseComparison};
pub use correlation::{kendall_tau_b, pearson, spearman};
pub use desc::Summary;
pub use error::StatsError;
pub use matrix::Matrix;
pub use pca::{Pca, PcaOptions};
pub use rank::{average_ranks, Direction};
pub use regression::{ols, simple_regression, Ols};
