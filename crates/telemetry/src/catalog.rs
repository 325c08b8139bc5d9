//! The instrument catalog: the one place an instrument family is
//! named.
//!
//! Every family the workspace exports is a `pub const`
//! [`InstrumentSpec`] here — name, kind, label keys and help text —
//! and every registration goes through one
//! ([`Registry::counter`](crate::Registry::counter) and friends take
//! `&'static InstrumentSpec`, not a name). The text exposition reads
//! its `# HELP` / `# TYPE` lines from the spec, so the code, the
//! exposition and [`CATALOG`] cannot disagree. The facade's
//! `instrument_catalog` tests pin the rest: every catalog family is
//! exposed by the serving stack (and nothing else is), and the
//! ARCHITECTURE.md table matches [`CATALOG`] row for row.

/// What kind of instrument a family is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrumentKind {
    /// A monotone [`Counter`](crate::Counter).
    Counter,
    /// A [`Gauge`](crate::Gauge).
    Gauge,
    /// A [`Histogram`](crate::Histogram).
    Histogram,
}

impl InstrumentKind {
    /// The kind as the catalog documents it: `counter`, `gauge` or
    /// `histogram`.
    pub fn name(self) -> &'static str {
        match self {
            InstrumentKind::Counter => "counter",
            InstrumentKind::Gauge => "gauge",
            InstrumentKind::Histogram => "histogram",
        }
    }

    /// The `# TYPE` the text exposition declares. A histogram renders
    /// as quantile samples plus `_count` / `_sum`, i.e. a `summary`.
    pub fn exposition_type(self) -> &'static str {
        match self {
            InstrumentKind::Histogram => "summary",
            other => other.name(),
        }
    }
}

/// One instrument family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrumentSpec {
    /// Family name, e.g. `live_shard_commit_ns`.
    pub name: &'static str,
    /// Instrument kind.
    pub kind: InstrumentKind,
    /// Label keys a series of this family may carry. A family can
    /// also export an unlabeled aggregate (`crawl_fetch_ns`).
    pub labels: &'static [&'static str],
    /// The `# HELP` text.
    pub help: &'static str,
}

/// Defines one `pub const` spec per family, documented by its help
/// text, and [`CATALOG`] listing every spec so defined.
macro_rules! catalog {
    ($($spec:ident: $name:literal, $kind:ident, [$($label:literal),*], $help:literal;)*) => {
        $(
            #[doc = $help]
            pub const $spec: InstrumentSpec = InstrumentSpec {
                name: $name,
                kind: InstrumentKind::$kind,
                labels: &[$($label),*],
                help: $help,
            };
        )*
        /// Every instrument family the workspace exports.
        pub const CATALOG: &[&InstrumentSpec] = &[$(&$spec),*];
    };
}

catalog! {
    CRAWL_FETCH_NS: "crawl_fetch_ns", Histogram, ["source"],
        "Fetch round-trip latency in ns, aggregate and per source.";
    CRAWL_PAGES_TOTAL: "crawl_pages_total", Counter, [],
        "Pages fetched.";
    CRAWL_ITEMS_TOTAL: "crawl_items_total", Counter, [],
        "Items observed by finished crawls.";
    CRAWL_RATE_DENIALS_TOTAL: "crawl_rate_denials_total", Counter, [],
        "Rate-limit waits taken.";
    CRAWL_RETRIES_TOTAL: "crawl_retries_total", Counter, [],
        "Transient-failure retries.";
    CRAWL_SWEEP_NS: "crawl_sweep_ns", Histogram, [],
        "Wall clock of a multi-source crawl sweep in ns, failures included.";
    LIVE_INGEST_STAGE_NS: "live_ingest_stage_ns", Histogram, ["shard", "stage"],
        "Shard commit stage latency in ns (journal_fsync, apply, publish).";
    LIVE_INGEST_BATCH_DELTAS: "live_ingest_batch_deltas", Histogram, [],
        "Records per committed shard sub-batch (group-commit size).";
    LIVE_MARK_ROLLBACKS_TOTAL: "live_mark_rollbacks_total", Counter, [],
        "Sweeps whose refused shards rolled high-water marks back.";
    LIVE_SHARD_COMMIT_NS: "live_shard_commit_ns", Histogram, ["shard"],
        "Whole shard commit latency in ns.";
    LIVE_COMMIT_COPIED_BYTES: "live_commit_copied_bytes", Histogram, ["shard"],
        "Index bytes a shard commit copies: detached flat tables plus un-shared posting lists.";
    LIVE_COMMIT_RECYCLED_TOTAL: "live_commit_recycled_total", Counter, ["shard"],
        "Shard commits whose detach reused the superseded epoch's index storage.";
    LIVE_SHARD_COMMITS_TOTAL: "live_shard_commits_total", Counter, ["shard"],
        "Committed shard sub-batches.";
    LIVE_SHARD_FAILURES_TOTAL: "live_shard_failures_total", Counter, ["shard"],
        "Refused, retracted shard sub-batches.";
    LIVE_COMMIT_FANOUT_SHARDS: "live_commit_fanout_shards", Histogram, [],
        "Non-empty shards per routed burst.";
    LIVE_CHECKPOINTS_TOTAL: "live_checkpoints_total", Counter, ["outcome"],
        "Checkpoint images the commit policy attempted, by outcome (written, failed).";
    LIVE_QUERY_CACHE_HITS_TOTAL: "live_query_cache_hits_total", Counter, [],
        "Queries answered from the snapshot-keyed result cache.";
    LIVE_QUERY_CACHE_MISSES_TOTAL: "live_query_cache_misses_total", Counter, [],
        "Queries that missed the result cache and ran the scatter plan.";
    LIVE_QUERY_CACHE_FILLS_TOTAL: "live_query_cache_fills_total", Counter, [],
        "Result-cache entries written after a miss.";
    LIVE_QUERY_CACHE_EVICTIONS_TOTAL: "live_query_cache_evictions_total", Counter, [],
        "Result-cache entries evicted past capacity.";
    SEARCH_QUERY_NS: "search_query_ns", Histogram, [],
        "Whole scatter-plan query latency in ns.";
    SEARCH_GATHER_NS: "search_gather_ns", Histogram, [],
        "Global statistics gather latency in ns.";
    SEARCH_PARTIAL_NS: "search_partial_ns", Histogram, ["shard"],
        "Per-shard partial_query latency in ns.";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<&str> = CATALOG.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), CATALOG.len());
    }
}
