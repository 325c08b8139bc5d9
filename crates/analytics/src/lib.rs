//! # obs-analytics — simulated third-party analytics panels
//!
//! The paper sources several measures from public analytics services:
//! Alexa (traffic rank, daily visitors, daily page views, average
//! time on site, bounce rate, new discussions per day), inbound link
//! counts, and Feedburner feed-subscription counts (Table 1). Those
//! services are gone or unreachable, so this crate simulates them on
//! top of the synthetic world's latent factors:
//!
//! * [`visits`] — a panel-style visit log: per-source browsing
//!   sessions with page counts and dwell times, sampled from the
//!   source's *popularity* (session volume) and *stickiness* (session
//!   depth/length);
//! * [`panel`] — the [`AlexaPanel`]: aggregates
//!   the visit log into exactly the metrics the paper reads off
//!   Alexa;
//! * [`links`] — a preferential-attachment inbound [`LinkGraph`]
//!   (popular sources attract links, topically close sources link
//!   more), feeding both the authority measure and the search
//!   baseline's PageRank;
//! * [`pagerank`](mod@pagerank) — PageRank over the link graph, with
//!   a convergence-aware early exit;
//! * [`feeds`] — the [`FeedRegistry`]
//!   (Feedburner substitute) for feed-subscription counts.
//!
//! The search baseline (`obs_search`) takes plain per-source inputs
//! and links none of these simulators: `From<&AlexaPanel>` builds its
//! [`Traffic`](obs_search::Traffic) and `From<&LinkGraph>` its
//! [`PageRank`](obs_search::PageRank), so
//! `SearchEngine::build(&corpus, &panel, &links, weights)` reads
//! straight off the simulated panels.

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

pub mod feeds;
pub mod links;
pub mod pagerank;
pub mod panel;
pub mod visits;

pub use feeds::FeedRegistry;
pub use links::LinkGraph;
pub use pagerank::{pagerank, pagerank_converged, PagerankRun};
pub use panel::{AlexaPanel, SourceTraffic};
pub use visits::{VisitLog, VisitSession};
