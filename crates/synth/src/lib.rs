//! # obs-synth — deterministic synthetic Web 2.0 world generation
//!
//! The paper's experiments ran against the live 2011 Web: 2 000+
//! blogs/forums crawled behind 100+ Google queries, Alexa traffic
//! panels, and Twitaholic's 813 most-influential London Twitter
//! accounts. None of that is reachable (or reproducible) today, so
//! this crate builds the closest synthetic equivalent:
//!
//! * a seeded, self-contained PRNG ([`rng::Rng64`], xoshiro256++) so
//!   worlds are bit-reproducible across platforms and `rand` version
//!   bumps;
//! * heavy-tailed samplers ([`rng`]) — Zipf, log-normal, Pareto,
//!   Poisson — matching the participation skew of real Web 2.0 data;
//! * a category-keyed text generator ([`text`]) that produces posts
//!   and comments with controllable topicality and sentiment, so the
//!   relevance measures and the sentiment services have real text to
//!   chew on;
//! * the world generator ([`world`]): sources of five kinds with
//!   latent *popularity*, *engagement* and *stickiness* factors (the
//!   three constructs the paper's Table 3 componentization recovers),
//!   audiences, discussions, comments and interaction streams;
//! * the Twitter population ([`twitter`]) calibrated to the paper's
//!   Section 4.2 description (813 accounts, mentions/retweets from 0
//!   to ~84 000, ≈4 orders of magnitude of spread);
//! * a query workload generator ([`queries`]) for the Section 4.1
//!   ranking study.

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

pub mod names;
pub mod queries;
pub mod rng;
pub mod text;
pub mod twitter;
pub mod world;

pub use queries::{Query, QueryWorkload};
pub use rng::Rng64;
pub use text::TextGenerator;
pub use twitter::{TwitterAccount, TwitterConfig, TwitterPopulation};
pub use world::{SourceLatent, UserLatent, World, WorldConfig};
