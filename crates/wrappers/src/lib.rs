//! # obs-wrappers — heterogeneous source APIs and the uniform wrapper layer
//!
//! Section 5 of the paper builds mashups out of *data services*:
//! "wrappers defined on top of the filtered authoritative sources to
//! enable the access to their contents". Every real Web 2.0 source
//! speaks a different dialect — blogs expose permalinked posts with
//! comment trails and ISO dates, forums expose numbered threads with
//! quoted replies and epoch seconds, microblogs expose cursor-paged
//! timelines with millisecond timestamps, review sites expose
//! star-rated reviews per venue, wikis expose revisioned articles.
//!
//! This crate reproduces that heterogeneity honestly:
//!
//! * [`native`] — five *deliberately incompatible* per-kind APIs, each
//!   with its own record shapes, id schemes, date formats, pagination
//!   contract and rate limits, all backed by the shared corpus;
//! * [`observation`] — the uniform content model
//!   ([`ContentItem`], [`SourceObservation`]) every wrapper maps into;
//! * [`service`] — the [`DataService`] trait and one adapter per
//!   native API (field mapping, date parsing, id resolution);
//! * [`rate`] — a token-bucket rate limiter shared by the native APIs;
//! * [`fault`] — deterministic fault injection for resilience tests;
//! * [`latency`] — a real-time round-trip decorator modelling the
//!   network-bound nature of live crawls (what parallel sweeps
//!   overlap);
//! * [`crawler`] — an incremental crawl driver with retry/backoff,
//!   per-source cursors, and a multi-source sweep that optionally
//!   fans per-source crawls across worker threads
//!   ([`CrawlerConfig::workers`]);
//! * [`metrics`] — crawl-side instruments ([`CrawlMetrics`]):
//!   per-source fetch latency, items/pages/denial/retry counters,
//!   sweep wall clock.

#![warn(missing_docs)]
// Panic-freedom on the serving path (obs_live and every crate it
// links): runtime code returns errors instead of panicking, and a
// waiver is an `#[expect]` with a reason.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod crawler;
mod error;
pub mod fault;
pub mod latency;
pub mod metrics;
pub mod native;
pub mod observation;
pub mod rate;
pub mod service;

pub use crawler::{CrawlReport, Crawler, CrawlerConfig, HighWaterMarks, SweepReport};
pub use error::WrapperError;
pub use fault::FaultPlan;
pub use latency::SimulatedLatency;
pub use metrics::CrawlMetrics;
pub use observation::{ContentItem, InteractionCounts, ItemKind, SourceObservation};
pub use rate::{RateDenied, TokenBucket};
pub use service::{service_for, Cursor, DataService, Page, ServiceDescriptor};
