//! # obs-experiments — regenerating every table and figure
//!
//! One module per experiment, each with a `run` entry point returning
//! a typed report that renders the paper's corresponding artifact:
//!
//! * [`e1_ranking`] — Section 4.1: quality re-ranking vs the search
//!   baseline (Kendall tau per measure, displacement statistics);
//! * [`e2_components`] — Table 3: PCA componentization of the ten
//!   domain-independent measures + regressions against the baseline
//!   rank;
//! * [`e3_anova`] — Table 4: ANOVA + Bonferroni paired differences by
//!   Twitter account kind;
//! * [`e4_catalog`] — Tables 1 and 2: the measure catalogs evaluated
//!   on a live world;
//! * [`e5_mashup`] — Figure 1: the sentiment-analysis mashup, built,
//!   executed and interacted with;
//! * [`e6_sentiment`] — Section 6's quality-weighted sentiment claim.
//!
//! [`fixtures`] builds the standard worlds at two scales: `Full`
//! (paper-sized, used by the binaries) and `Quick` (CI
//! friendly, used by tests).

#![warn(missing_docs)]

pub mod e1_ranking;
pub mod e2_components;
pub mod e3_anova;
pub mod e4_catalog;
pub mod e5_mashup;
pub mod e6_sentiment;
pub mod fixtures;
pub mod render;

pub use fixtures::{RankingFixture, Scale, SentimentFixture};
pub use render::TextTable;
