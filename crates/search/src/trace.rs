//! Query-path metrics: the timing side of [`ScatterTrace`].
//!
//! [`scatter`](crate::scatter) bans the wall clock
//! (`clippy::disallowed_types`), so the plan itself never reads a
//! clock — it only announces phase boundaries through
//! [`ScatterTrace`] hooks. This module is the clocked other half:
//! [`SearchMetrics`] owns the histograms and the injectable
//! [`TelemetryClock`](obs_telemetry::TelemetryClock), and
//! [`QueryTimer`] turns hook invocations into recorded durations:
//!
//! * `search_query_ns` — whole-plan latency (normalize → merge);
//! * `search_gather_ns` — the global statistics gather;
//! * `search_partial_ns{shard}` — each shard's `partial_query`.
//!
//! Shards are scored sequentially inside the plan, so the interval
//! between consecutive hooks attributes cleanly to exactly one
//! shard.

use crate::scatter::ScatterTrace;
use obs_telemetry::{catalog, Histogram, Registry, SharedClock};

/// Lock-free handles for the query path's instruments; cheap to
/// clone (every handle is an `Arc`), one per reader.
#[derive(Debug, Clone)]
pub struct SearchMetrics {
    clock: SharedClock,
    query_ns: Histogram,
    gather_ns: Histogram,
    partial_ns: Vec<Histogram>,
}

impl SearchMetrics {
    /// Registers the query-path instruments for `shards` shards in
    /// `registry` (pass 1 for an unsharded engine).
    pub fn new(registry: &Registry, shards: usize) -> SearchMetrics {
        SearchMetrics {
            clock: registry.clock_handle(),
            query_ns: registry.histogram(&catalog::SEARCH_QUERY_NS),
            gather_ns: registry.histogram(&catalog::SEARCH_GATHER_NS),
            partial_ns: (0..shards)
                .map(|i| {
                    registry
                        .histogram_with(&catalog::SEARCH_PARTIAL_NS, &[("shard", &i.to_string())])
                })
                .collect(),
        }
    }

    /// Starts a timer for one query; pass it to
    /// [`scatter_query_traced`](crate::scatter_query_traced).
    pub fn trace(&self) -> QueryTimer<'_> {
        let now = self.clock.now_ns();
        QueryTimer {
            metrics: self,
            start: now,
            last: now,
        }
    }

    /// Snapshot of the whole-plan latency histogram.
    pub fn query_snapshot(&self) -> obs_telemetry::HistogramSnapshot {
        self.query_ns.snapshot()
    }
}

/// One query's stage timer: records the gather, each shard's scoring
/// and the whole plan into [`SearchMetrics`] as the plan announces
/// its phase boundaries.
#[derive(Debug)]
pub struct QueryTimer<'m> {
    metrics: &'m SearchMetrics,
    start: u64,
    last: u64,
}

impl ScatterTrace for QueryTimer<'_> {
    fn gathered(&mut self) {
        let now = self.metrics.clock.now_ns();
        self.metrics.gather_ns.record(now.saturating_sub(self.last));
        self.last = now;
    }

    fn shard_scored(&mut self, shard: usize, _partials: usize) {
        let now = self.metrics.clock.now_ns();
        if let Some(hist) = self.metrics.partial_ns.get(shard) {
            hist.record(now.saturating_sub(self.last));
        }
        self.last = now;
    }

    fn merged(&mut self, _hits: usize) {
        let now = self.metrics.clock.now_ns();
        self.metrics.query_ns.record(now.saturating_sub(self.start));
        self.last = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_telemetry::ManualClock;
    use std::sync::Arc;

    #[test]
    fn timer_attributes_stages_to_the_right_histograms() {
        let clock = Arc::new(ManualClock::new());
        let registry = Registry::with_clock(clock.clone());
        let metrics = SearchMetrics::new(&registry, 2);

        let mut timer = metrics.trace();
        clock.advance(100); // gather
        timer.gathered();
        clock.advance(40); // shard 0
        timer.shard_scored(0, 3);
        clock.advance(60); // shard 1
        timer.shard_scored(1, 1);
        clock.advance(25); // merge
        timer.merged(4);

        assert_eq!(metrics.gather_ns.snapshot().sum(), 100);
        assert_eq!(metrics.partial_ns[0].snapshot().sum(), 40);
        assert_eq!(metrics.partial_ns[1].snapshot().sum(), 60);
        assert_eq!(metrics.query_ns.snapshot().sum(), 225);
    }

    #[test]
    fn out_of_range_shard_is_ignored_not_panicked() {
        let registry = Registry::new();
        let metrics = SearchMetrics::new(&registry, 1);
        let mut timer = metrics.trace();
        timer.shard_scored(7, 1); // no histogram 7: dropped
        timer.merged(0);
        assert_eq!(metrics.query_snapshot().count(), 1);
    }
}
