//! Crawl-side metrics: per-source fetch latency and sweep counters.
//!
//! [`CrawlMetrics`] owns the crawl path's instruments:
//!
//! * `crawl_fetch_ns` — every `DataService::fetch` round-trip, both
//!   as one unlabeled aggregate and per source
//!   (`crawl_fetch_ns{source="…"}`, registered lazily the first time
//!   a source is crawled);
//! * `crawl_pages_total` / `crawl_items_total` — pages fetched and
//!   items observed;
//! * `crawl_rate_denials_total` — rate-limit waits taken;
//! * `crawl_retries_total` — transient-failure retries;
//! * `crawl_sweep_ns` — wall clock of a whole multi-source sweep
//!   (sequential or parallel), recorded for failed sweeps too.
//!
//! The handles are lock-free; the registry mutex is only touched
//! when a *new* source's fetch histogram is first registered
//! (once per source per crawl call, not per fetch). An
//! `Arc<CrawlMetrics>` is shared freely with parallel sweep workers
//! — recording from N threads is the design point. Per-fetch
//! latencies are real wall-clock nanoseconds from the registry's
//! [`TelemetryClock`](obs_telemetry::TelemetryClock) — *not* the
//! simulated [`Clock`](obs_model::Clock) the crawler advances across
//! rate-limit waits — so they measure what the process actually
//! spent, which is what a latency decorator inflates and a parallel
//! sweep overlaps.

use obs_model::SourceId;
use obs_telemetry::{catalog, Counter, Histogram, Registry, Stopwatch};
use std::sync::Arc;

/// Lock-free instrument handles for the crawl path.
#[derive(Debug, Clone)]
pub struct CrawlMetrics {
    registry: Arc<Registry>,
    fetch_ns: Histogram,
    pages: Counter,
    items: Counter,
    rate_denials: Counter,
    retries: Counter,
    sweep_ns: Histogram,
}

impl CrawlMetrics {
    /// Registers the crawl instruments in `registry`.
    pub fn new(registry: &Arc<Registry>) -> CrawlMetrics {
        CrawlMetrics {
            registry: Arc::clone(registry),
            fetch_ns: registry.histogram(&catalog::CRAWL_FETCH_NS),
            pages: registry.counter(&catalog::CRAWL_PAGES_TOTAL),
            items: registry.counter(&catalog::CRAWL_ITEMS_TOTAL),
            rate_denials: registry.counter(&catalog::CRAWL_RATE_DENIALS_TOTAL),
            retries: registry.counter(&catalog::CRAWL_RETRIES_TOTAL),
            sweep_ns: registry.histogram(&catalog::CRAWL_SWEEP_NS),
        }
    }

    /// A stopwatch on the registry clock.
    pub fn stopwatch(&self) -> Stopwatch {
        self.registry.stopwatch()
    }

    /// The per-source fetch-latency histogram for `source`,
    /// registering it on first use. Call once per crawl, not per
    /// fetch — this takes the registry lock.
    pub fn fetch_hist(&self, source: SourceId) -> Histogram {
        self.registry
            .histogram_with(&catalog::CRAWL_FETCH_NS, &[("source", &source.to_string())])
    }

    /// Records one fetch round-trip into the aggregate and the
    /// caller's per-source histogram.
    pub fn record_fetch(&self, per_source: &Histogram, ns: u64) {
        self.fetch_ns.record(ns);
        per_source.record(ns);
    }

    /// Counts a successfully fetched page.
    pub fn page_fetched(&self) {
        self.pages.inc();
    }

    /// Counts items observed by a finished crawl.
    pub fn items_observed(&self, n: u64) {
        self.items.add(n);
    }

    /// Counts a rate-limit wait.
    pub fn rate_denied(&self) {
        self.rate_denials.inc();
    }

    /// Counts a transient-failure retry.
    pub fn retried(&self) {
        self.retries.inc();
    }

    /// Records one sweep's wall clock.
    pub fn sweep_finished(&self, ns: u64) {
        self.sweep_ns.record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_telemetry::ManualClock;

    #[test]
    fn fetch_records_into_aggregate_and_per_source() {
        let registry = Arc::new(Registry::with_clock(Arc::new(ManualClock::new())));
        let metrics = CrawlMetrics::new(&registry);
        let s7 = metrics.fetch_hist(SourceId::new(7));
        metrics.record_fetch(&s7, 120);
        metrics.record_fetch(&s7, 80);
        let s9 = metrics.fetch_hist(SourceId::new(9));
        metrics.record_fetch(&s9, 40);

        assert_eq!(metrics.fetch_ns.snapshot().count(), 3);
        assert_eq!(metrics.fetch_ns.snapshot().sum(), 240);
        assert_eq!(s7.snapshot().count(), 2);
        assert_eq!(s9.snapshot().sum(), 40);
        // Re-registration returns the same series.
        assert_eq!(metrics.fetch_hist(SourceId::new(7)).snapshot().count(), 2);
    }

    #[test]
    fn counters_expose_under_documented_names() {
        let registry = Arc::new(Registry::new());
        let metrics = CrawlMetrics::new(&registry);
        metrics.page_fetched();
        metrics.items_observed(12);
        metrics.rate_denied();
        metrics.retried();
        metrics.sweep_finished(1_000);
        let text = registry.render_text();
        for needle in [
            "crawl_pages_total 1",
            "crawl_items_total 12",
            "crawl_rate_denials_total 1",
            "crawl_retries_total 1",
            "crawl_sweep_ns_count 1",
            "crawl_fetch_ns_count 0",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
