//! # obs-search — the general-purpose search baseline
//!
//! Section 4.1 compares the quality-based ranking against "the
//! well-affirmed source ranking computed by Google" (2011-era).
//! Google is not reproducible, so this crate implements a baseline
//! engine with the ranking *philosophy* the paper measures: content
//! relevance plus traffic/link authority, with the era's documented
//! tilt **against** heavily user-generated, slow-consumption pages
//! (the 2011 "content-farm"/freshness updates) — which is exactly the
//! empirical relation Table 3 reports (traffic: positive;
//! participation: negative; time-on-site: negative).
//!
//! * [`token`] — tokenizer shared with the sentiment services;
//! * [`index`] — an inverted index over opening posts, maintainable
//!   in place through [`CorpusDelta`](obs_model::CorpusDelta)
//!   change-sets, with one tombstone sweep per batch;
//! * [`score`] — BM25 document scoring;
//! * [`pagerank`](mod@pagerank) — PageRank over the inter-source
//!   link graph, with a convergence-aware early exit;
//! * [`blend`] — the [`StaticBlend`]: query-independent signal
//!   standardization and weighting, shared between a single engine
//!   and a sharded serving layer's one global blend;
//! * [`scatter`] — scatter-gather query evaluation over partitioned
//!   indexes ([`ScatterStats`], [`merge_partials`],
//!   [`scatter_query`]), bit-identical to the single-index scorer;
//! * [`trace`](mod@trace) — query-path metrics: [`SearchMetrics`]
//!   turns the plan's [`ScatterTrace`] phase hooks into latency
//!   histograms on an injectable clock;
//! * [`engine`] — the [`SearchEngine`]: per-source signal blending,
//!   top-k query evaluation, and incremental refresh via
//!   [`apply_delta`](engine::SearchEngine::apply_delta).

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

pub mod blend;
pub mod engine;
pub mod index;
pub mod pagerank;
pub mod scatter;
pub mod score;
pub mod token;
pub mod trace;

pub use blend::{BlendWeights, StaticBlend};
pub use engine::{SearchEngine, SearchHit};
pub use index::InvertedIndex;
pub use pagerank::{pagerank, pagerank_converged, PagerankRun};
pub use scatter::{
    merge_partials, normalize_query, scatter_query, scatter_query_traced, scatter_query_unpruned,
    NopTrace, ScatterStats, ScatterTrace, SourcePartial,
};
pub use token::tokenize;
pub use trace::{QueryTimer, SearchMetrics};
