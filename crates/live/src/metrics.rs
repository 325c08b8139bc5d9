//! Serving-layer metrics: commit pipeline stages and per-shard
//! health.
//!
//! This module is the clocked half of the serving layer's
//! observability. [`shard`](crate::shard) bans the wall clock
//! (`clippy::disallowed_types`: the router and commit order must
//! replay identically), so it never reads a clock itself — it hands
//! closures to
//! [`ShardMetrics::time_shard_commit`], which lives here and owns
//! the [`TelemetryClock`](obs_telemetry::TelemetryClock). Its
//! instruments are specs in [`obs_telemetry::catalog`]. A shard
//! journals and fsyncs its sub-batch in one
//! [`DeltaJournal::append_batch`](crate::DeltaJournal::append_batch)
//! call (that's the group-commit point), so the first [`Stage`] is
//! the fused `stage="journal_fsync"`. It runs on its own thread
//! beside `apply`, so each is timed on the thread that runs it
//! ([`StageTimer`]); `publish` follows once both are done.

use crate::error::LiveError;
use obs_search::{Detach, SearchMetrics};
use obs_telemetry::{catalog, Counter, Histogram, Registry, SharedClock};

/// One stage of a shard commit. The first two overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The sub-batch's journal records written and fsynced together.
    JournalFsync,
    /// The batched apply to the shard's private engine.
    Apply,
    /// The new snapshot swapped in for readers.
    Publish,
}

/// Times the [`Stage`]s of one shard commit, each over exactly the
/// closure that runs it, on whichever thread runs it. Handed out by
/// [`ShardMetrics::time_shard_commit`]; an uninstrumented commit's
/// times nothing.
#[derive(Debug, Clone, Copy)]
pub struct StageTimer<'a> {
    stages: Option<(&'a SharedClock, &'a [Histogram; 3])>,
}

impl StageTimer<'_> {
    /// The timer of an uninstrumented commit.
    pub(crate) const OFF: StageTimer<'static> = StageTimer { stages: None };

    /// Runs `f` as `stage`, recording its duration.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let Some((clock, stages)) = self.stages else {
            return f();
        };
        let start = clock.now_ns();
        let out = f();
        stages[stage as usize].record(clock.now_ns().saturating_sub(start));
        out
    }
}

/// Instrument handles for a
/// [`ShardedLiveService`](crate::ShardedLiveService): per-shard
/// commit latency, stage split, outcome counters, detach size and
/// recycled detaches, group-commit batch sizes, commit fan-out
/// width, the shared
/// mark-rollback counter, checkpoint outcomes, and the query path's [`SearchMetrics`] for its
/// [`ShardedReader`](crate::ShardedReader). Cheap to clone;
/// recording is lock-free.
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    clock: SharedClock,
    commit_ns: Vec<Histogram>,
    /// Per shard, one histogram per [`Stage`] (indexed by its
    /// discriminant).
    stage_ns: Vec<[Histogram; 3]>,
    commits: Vec<Counter>,
    failures: Vec<Counter>,
    copied_bytes: Vec<Histogram>,
    recycled: Vec<Counter>,
    batch_deltas: Histogram,
    pub(crate) fanout: Histogram,
    pub(crate) rollbacks: Counter,
    /// Checkpoint attempts: written, failed.
    checkpoints: [Counter; 2],
    search: SearchMetrics,
}

impl ShardMetrics {
    /// Registers per-shard instruments for `shards` shards in
    /// `registry`.
    pub fn new(registry: &Registry, shards: usize) -> ShardMetrics {
        let stage = |shard: &str, stage: &str| {
            registry.histogram_with(
                &catalog::LIVE_INGEST_STAGE_NS,
                &[("shard", shard), ("stage", stage)],
            )
        };
        let per_shard = |spec| {
            (0..shards)
                .map(|i| registry.counter_with(spec, &[("shard", &i.to_string())]))
                .collect()
        };
        let per_shard_histogram = |spec| {
            (0..shards)
                .map(|i| registry.histogram_with(spec, &[("shard", &i.to_string())]))
                .collect()
        };
        ShardMetrics {
            clock: registry.clock_handle(),
            commit_ns: per_shard_histogram(&catalog::LIVE_SHARD_COMMIT_NS),
            stage_ns: (0..shards)
                .map(|i| {
                    let i = i.to_string();
                    [
                        stage(&i, "journal_fsync"),
                        stage(&i, "apply"),
                        stage(&i, "publish"),
                    ]
                })
                .collect(),
            commits: per_shard(&catalog::LIVE_SHARD_COMMITS_TOTAL),
            failures: per_shard(&catalog::LIVE_SHARD_FAILURES_TOTAL),
            copied_bytes: per_shard_histogram(&catalog::LIVE_COMMIT_COPIED_BYTES),
            recycled: per_shard(&catalog::LIVE_COMMIT_RECYCLED_TOTAL),
            batch_deltas: registry.histogram(&catalog::LIVE_INGEST_BATCH_DELTAS),
            fanout: registry.histogram(&catalog::LIVE_COMMIT_FANOUT_SHARDS),
            rollbacks: registry.counter(&catalog::LIVE_MARK_ROLLBACKS_TOTAL),
            checkpoints: ["written", "failed"].map(|outcome| {
                registry.counter_with(&catalog::LIVE_CHECKPOINTS_TOTAL, &[("outcome", outcome)])
            }),
            search: SearchMetrics::new(registry, shards),
        }
    }

    /// The query-path metrics a [`ShardedReader`](crate::ShardedReader)
    /// built from the instrumented service records into.
    pub fn search(&self) -> &SearchMetrics {
        &self.search
    }

    /// Runs one shard's commit of a `deltas`-record sub-batch under
    /// the latency/outcome instruments — the clock boundary the
    /// replay-checked shard module calls instead of reading
    /// time itself. The commit closure gets a [`StageTimer`] to run
    /// each [`Stage`] through; a successful commit also records its
    /// batch size. A shard index beyond the registered range still
    /// runs the closure; it just records nothing per shard.
    pub fn time_shard_commit<T>(
        &self,
        shard: usize,
        deltas: usize,
        commit: impl FnOnce(StageTimer<'_>) -> Result<T, LiveError>,
    ) -> Result<T, LiveError> {
        let start = self.clock.now_ns();
        let stages = self.stage_ns.get(shard).map(|s| (&self.clock, s));
        let outcome = commit(StageTimer { stages });
        let elapsed = self.clock.now_ns().saturating_sub(start);
        if let Some(hist) = self.commit_ns.get(shard) {
            hist.record(elapsed);
        }
        let column = match &outcome {
            Ok(_) => {
                self.batch_deltas.record(deltas as u64);
                &self.commits
            }
            Err(_) => &self.failures,
        };
        if let Some(counter) = column.get(shard) {
            counter.inc();
        }
        outcome
    }

    /// Records what a committed shard's apply copied and whether its
    /// detach went into the superseded epoch's storage.
    pub(crate) fn record_detach(&self, shard: usize, detach: Detach) {
        if let Some(hist) = self.copied_bytes.get(shard) {
            hist.record(detach.copied as u64);
        }
        if let Some(counter) = self.recycled.get(shard).filter(|_| detach.recycled) {
            counter.inc();
        }
    }

    /// Records one checkpoint attempt of the commit policy.
    pub(crate) fn record_checkpoint(&self, written: bool) {
        let [ok, failed] = &self.checkpoints;
        if written { ok } else { failed }.inc();
    }

    /// Checkpoint attempts `(written, failed)` so far.
    pub fn checkpoint_counts(&self) -> (u64, u64) {
        let [written, failed] = &self.checkpoints;
        (written.get(), failed.get())
    }

    /// Per-shard commit counts `(shard, commits, failures)` — the
    /// balance view the examples print.
    pub fn commit_counts(&self) -> Vec<(usize, u64, u64)> {
        self.commits
            .iter()
            .zip(&self.failures)
            .enumerate()
            .map(|(i, (c, f))| (i, c.get(), f.get()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_telemetry::ManualClock;
    use std::sync::Arc;

    #[test]
    fn shard_commit_timer_splits_outcomes_and_stages_per_shard() {
        let clock = Arc::new(ManualClock::new());
        let registry = Registry::with_clock(clock.clone());
        let metrics = ShardMetrics::new(&registry, 2);

        // Each stage records its own span, not the time since the
        // previous one: the 20 ns between stages count only toward
        // the whole commit.
        let ok: Result<u32, LiveError> = metrics.time_shard_commit(0, 4, |timer| {
            timer.time(Stage::JournalFsync, || clock.advance(300));
            clock.advance(20);
            timer.time(Stage::Apply, || clock.advance(150));
            timer.time(Stage::Publish, || clock.advance(50));
            Ok(7)
        });
        assert_eq!(ok.ok(), Some(7));
        let err: Result<(), LiveError> = metrics.time_shard_commit(1, 3, |_| {
            clock.advance(900);
            Err(LiveError::NoShards)
        });
        assert!(err.is_err());

        assert_eq!(metrics.commit_counts(), vec![(0, 1, 0), (1, 0, 1)]);
        assert_eq!(metrics.commit_ns[0].snapshot().sum(), 520);
        assert_eq!(metrics.commit_ns[1].snapshot().sum(), 900);
        let stage_sums: Vec<u64> = metrics.stage_ns[0]
            .iter()
            .map(|h| h.snapshot().sum())
            .collect();
        assert_eq!(stage_sums, vec![300, 150, 50]);
        // Only the committed batch counts toward the batch sizes.
        assert_eq!(metrics.batch_deltas.snapshot().sum(), 4);
        let text = registry.render_text();
        assert!(text.contains("live_ingest_stage_ns_count{shard=\"0\",stage=\"apply\"} 1"));
        assert!(text.contains("live_ingest_stage_ns_count{shard=\"1\",stage=\"apply\"} 0"));
    }

    #[test]
    fn out_of_range_shard_still_commits() {
        let registry = Registry::new();
        let metrics = ShardMetrics::new(&registry, 1);
        let ok: Result<u32, LiveError> =
            metrics.time_shard_commit(9, 1, |timer| Ok(timer.time(Stage::Apply, || 1)));
        assert_eq!(ok.ok(), Some(1));
        assert_eq!(metrics.commit_counts(), vec![(0, 0, 0)]);
    }
}
