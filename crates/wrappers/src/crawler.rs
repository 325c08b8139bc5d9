//! The incremental crawl driver.
//!
//! Drives a [`DataService`] to exhaustion while honouring rate limits
//! (waiting on the simulation clock) and retrying transient failures
//! with exponential backoff. Supports incremental re-crawls through a
//! per-source high-water mark, which is how the paper's platform kept
//! its source snapshots fresh without re-reading history.

use crate::error::WrapperError;
use crate::metrics::CrawlMetrics;
use crate::observation::SourceObservation;
use crate::service::{Cursor, DataService};
use obs_model::{Clock, CorpusDelta, Duration, SourceId, Timestamp};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-source incremental-crawl cursors: the publish instant of the
/// newest item each source has ever yielded. A tick loop keeps one
/// of these across ticks so every [`Crawler::crawl_tick`] call only
/// surfaces content the loop has not seen yet.
///
/// The mark is also the unit of crawl-side atomicity: when a tick's
/// delta fails to persist, the mark is rolled back to its pre-tick
/// reading so the unpersisted content stays observable for a retry.
///
/// ```
/// use obs_model::{SourceId, Timestamp};
/// use obs_wrappers::HighWaterMarks;
///
/// let mut marks = HighWaterMarks::new();
/// let source = SourceId::new(7);
///
/// // A tick observed content up to day 3…
/// let before = marks.since(source);
/// marks.advance(source, Timestamp::from_days(3));
/// assert_eq!(marks.since(source), Some(Timestamp::from_days(3)));
///
/// // …but persisting it failed: roll back so a retry re-observes.
/// marks.rollback(source, before);
/// assert_eq!(marks.since(source), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HighWaterMarks {
    marks: HashMap<SourceId, Timestamp>,
}

impl HighWaterMarks {
    /// No source observed yet.
    pub fn new() -> HighWaterMarks {
        HighWaterMarks::default()
    }

    /// The high-water mark of a source, if it has one.
    pub fn since(&self, source: SourceId) -> Option<Timestamp> {
        self.marks.get(&source).copied()
    }

    /// Raises a source's mark to `observed` (never lowers it).
    pub fn advance(&mut self, source: SourceId, observed: Timestamp) {
        let mark = self.marks.entry(source).or_insert(observed);
        if observed > *mark {
            *mark = observed;
        }
    }

    /// Restores a source's mark to an earlier reading of
    /// [`HighWaterMarks::since`] — the failure-path primitive. When a
    /// tick crawls (advancing the mark) but then fails to persist
    /// what it observed, rolling the mark back is what lets a retry
    /// re-observe the otherwise-lost items.
    pub fn rollback(&mut self, source: SourceId, to: Option<Timestamp>) {
        match to {
            Some(mark) => {
                self.marks.insert(source, mark);
            }
            None => {
                self.marks.remove(&source);
            }
        }
    }

    /// Rolls the listed sources back to their readings in `baseline`
    /// — the batched form of [`HighWaterMarks::rollback`], for
    /// persistence layers with **per-partition** failure domains. A
    /// sharded service that commits a sweep's deltas shard by shard
    /// rolls back only the sources routed to the shards that refused,
    /// leaving the marks of successfully committed sources advanced.
    ///
    /// ```
    /// use obs_model::{SourceId, Timestamp};
    /// use obs_wrappers::HighWaterMarks;
    ///
    /// let mut marks = HighWaterMarks::new();
    /// marks.advance(SourceId::new(1), Timestamp::from_days(1));
    /// let baseline = marks.clone();
    ///
    /// // A sweep advances two sources, but source 1 and 2 landed in
    /// // a shard whose commit failed…
    /// marks.advance(SourceId::new(1), Timestamp::from_days(5));
    /// marks.advance(SourceId::new(2), Timestamp::from_days(5));
    ///
    /// // …so exactly those roll back to their pre-sweep readings.
    /// marks.rollback_many([SourceId::new(1), SourceId::new(2)], &baseline);
    /// assert_eq!(marks.since(SourceId::new(1)), Some(Timestamp::from_days(1)));
    /// assert_eq!(marks.since(SourceId::new(2)), None);
    /// ```
    pub fn rollback_many(
        &mut self,
        sources: impl IntoIterator<Item = SourceId>,
        baseline: &HighWaterMarks,
    ) {
        for source in sources {
            self.rollback(source, baseline.since(source));
        }
    }

    /// Number of sources with a mark.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Whether no source has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }
}

/// Crawl policy.
///
/// ```
/// use obs_wrappers::{Crawler, CrawlerConfig};
///
/// // A sweep that fans per-source crawls out across 4 workers.
/// let crawler = Crawler::new(CrawlerConfig {
///     workers: 4,
///     ..CrawlerConfig::default()
/// });
/// assert_eq!(crawler.config().workers, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrawlerConfig {
    /// Maximum consecutive retries of a transient failure before
    /// giving up.
    pub max_retries: u32,
    /// Base backoff after a transient failure, in simulated seconds;
    /// doubles per consecutive retry.
    pub backoff_secs: u64,
    /// Hard cap on fetched pages (runaway-cursor guard).
    pub max_pages: usize,
    /// Worker threads a [`Crawler::crawl_sweep`] fans per-source
    /// crawls across: the service list splits into this many
    /// contiguous chunks, one scoped thread each. `1` (the default)
    /// crawls every service in order on one worker. The burst a
    /// sweep returns is byte-for-byte identical either way — see
    /// [`Crawler::crawl_sweep`] for the determinism contract.
    pub workers: usize,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            max_retries: 5,
            backoff_secs: 30,
            max_pages: 100_000,
            workers: 1,
        }
    }
}

/// What a crawl did, for logs and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrawlReport {
    /// Pages fetched successfully.
    pub pages: usize,
    /// Items collected.
    pub items: usize,
    /// Transient-failure retries performed.
    pub retries: u32,
    /// Rate-limit waits performed.
    pub rate_limit_waits: u32,
    /// Total simulated seconds spent waiting.
    pub waited_secs: u64,
}

impl CrawlReport {
    /// Folds another report's counters into this one (sweep
    /// aggregation).
    pub fn absorb(&mut self, other: CrawlReport) {
        self.pages += other.pages;
        self.items += other.items;
        self.retries += other.retries;
        self.rate_limit_waits += other.rate_limit_waits;
        self.waited_secs += other.waited_secs;
    }
}

/// What a multi-source sweep did, for logs and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepReport {
    /// Services crawled.
    pub sources: usize,
    /// Services whose tick yielded fresh (non-empty) content.
    pub fresh_sources: usize,
    /// Aggregate of every per-source crawl report.
    pub crawl: CrawlReport,
}

/// The crawl driver.
#[derive(Debug, Clone, Default)]
pub struct Crawler {
    config: CrawlerConfig,
    metrics: Option<Arc<CrawlMetrics>>,
}

impl Crawler {
    /// Creates a driver with the given policy.
    pub fn new(config: CrawlerConfig) -> Self {
        Crawler {
            config,
            metrics: None,
        }
    }

    /// Attaches crawl metrics: every subsequent crawl records
    /// per-fetch latency (aggregate + per source), page/item
    /// counts, rate denials, retries and sweep wall clock into the
    /// metrics' registry. Parallel sweep workers share the same
    /// handles — recording is lock-free.
    pub fn with_metrics(mut self, metrics: Arc<CrawlMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The policy this driver runs under.
    pub fn config(&self) -> &CrawlerConfig {
        &self.config
    }

    /// Fully crawls a service, advancing `clock` across waits.
    pub fn crawl(
        &self,
        service: &mut dyn DataService,
        clock: &mut Clock,
    ) -> Result<(SourceObservation, CrawlReport), WrapperError> {
        self.crawl_since(service, clock, None)
    }

    /// Crawls only items published strictly after `since` (the
    /// incremental mode). The full pagination is still walked — the
    /// native APIs don't support server-side time filters, exactly
    /// like their real counterparts mostly didn't — but the
    /// observation contains only fresh items.
    pub fn crawl_since(
        &self,
        service: &mut dyn DataService,
        clock: &mut Clock,
        since: Option<Timestamp>,
    ) -> Result<(SourceObservation, CrawlReport), WrapperError> {
        let mut report = CrawlReport::default();
        let mut items = Vec::new();
        let mut cursor: Option<Cursor> = None;
        let mut consecutive_retries = 0u32;
        // Register the per-source fetch histogram once per crawl,
        // not per fetch — only this line can take the registry lock.
        let timing = self
            .metrics
            .as_deref()
            .map(|m| (m, m.fetch_hist(service.descriptor().source)));

        while report.pages < self.config.max_pages {
            // Every fetch outcome is timed — a rate denial or a
            // transient failure costs a round-trip too.
            let fetched = match &timing {
                Some((m, per_source)) => {
                    let mut watch = m.stopwatch();
                    let fetched = service.fetch(clock.now(), cursor);
                    m.record_fetch(per_source, watch.lap_ns());
                    fetched
                }
                None => service.fetch(clock.now(), cursor),
            };
            match fetched {
                Ok(page) => {
                    consecutive_retries = 0;
                    report.pages += 1;
                    if let Some((m, _)) = &timing {
                        m.page_fetched();
                    }
                    for item in page.items {
                        if since.is_none_or(|s| item.published > s) {
                            items.push(item);
                        }
                    }
                    match page.next {
                        Some(next) => cursor = Some(next),
                        None => break,
                    }
                }
                Err(WrapperError::RateLimited { retry_after_secs }) => {
                    report.rate_limit_waits += 1;
                    report.waited_secs += retry_after_secs;
                    if let Some((m, _)) = &timing {
                        m.rate_denied();
                    }
                    clock.advance(Duration(retry_after_secs.max(1)));
                }
                Err(e @ WrapperError::Transient(_)) => {
                    if consecutive_retries >= self.config.max_retries {
                        return Err(e);
                    }
                    let backoff = self.config.backoff_secs << consecutive_retries;
                    consecutive_retries += 1;
                    report.retries += 1;
                    report.waited_secs += backoff;
                    if let Some((m, _)) = &timing {
                        m.retried();
                    }
                    clock.advance(Duration(backoff));
                }
                Err(fatal) => return Err(fatal),
            }
        }

        report.items = items.len();
        if let Some((m, _)) = &timing {
            m.items_observed(items.len() as u64);
        }
        Ok((
            SourceObservation {
                source: service.descriptor().source,
                items,
            },
            report,
        ))
    }

    /// One incremental crawl *tick*: crawls items published strictly
    /// after `since` and returns them as the [`CorpusDelta`] they
    /// imply, ready for
    /// `SearchEngine::apply_delta` /
    /// `InvertedIndex::apply_delta` — the path that keeps a live
    /// index fresh without a rebuild.
    ///
    /// The delta's document text is what the wrappers observed: body
    /// plus tags, without the discussion title (the uniform item
    /// model carries none). When exact parity with a from-scratch
    /// corpus build matters, re-derive the text for the observed post
    /// ids with `CorpusDelta::for_posts` — see
    /// `examples/live_index.rs`.
    pub fn crawl_delta(
        &self,
        service: &mut dyn DataService,
        clock: &mut Clock,
        since: Option<Timestamp>,
    ) -> Result<(CorpusDelta, CrawlReport), WrapperError> {
        let (observation, report) = self.crawl_since(service, clock, since)?;
        Ok((observation.to_delta(), report))
    }

    /// One tick of a *stateful* crawl loop: crawls the service since
    /// its recorded high-water mark, advances the mark to the newest
    /// item observed, and returns the [`CorpusDelta`] the tick
    /// implies. Calling this repeatedly with the same `marks` yields
    /// each piece of content exactly once — the contract a journaled
    /// serving layer needs (re-observing an item would re-journal
    /// and double-count it).
    pub fn crawl_tick(
        &self,
        service: &mut dyn DataService,
        clock: &mut Clock,
        marks: &mut HighWaterMarks,
    ) -> Result<(CorpusDelta, CrawlReport), WrapperError> {
        let source = service.descriptor().source;
        let (observation, report) = self.crawl_since(service, clock, marks.since(source))?;
        if let Some(newest) = observation.items.iter().map(|i| i.published).max() {
            marks.advance(source, newest);
        }
        Ok((observation.to_delta(), report))
    }

    /// One sweep over *every* registered service: a
    /// [`Crawler::crawl_tick`] per service, returning the non-empty
    /// per-source deltas of the whole burst (in service order) plus
    /// an aggregate [`SweepReport`]. This is the producer side of
    /// group-commit ingestion — the caller persists the burst under
    /// one fsync and applies it in one amortized pass (one index
    /// detach, one tombstone sweep, one signal re-blend; see
    /// `SearchEngine::apply_deltas`), or folds it into a single
    /// shippable delta with
    /// [`CorpusDelta::coalesce`](obs_model::CorpusDelta::coalesce).
    ///
    /// The per-source crawls fan out across up to
    /// [`CrawlerConfig::workers`] scoped worker threads, one
    /// contiguous chunk of services each, and the results are joined
    /// back **in service order**. Each worker runs
    /// [`Crawler::crawl_tick`] over its chunk on a private clock and a
    /// private copy of the pre-sweep marks. The burst is identical at
    /// every worker count, down to the byte: the native APIs serve
    /// content independently of the polling instant (only rate
    /// metering reads the clock, and every bucket starts full), so
    /// each worker observes exactly the items a one-worker sweep
    /// would have, and the slot-ordered join reassembles the
    /// identical burst. The workspace property suite pins this down
    /// to byte-identical journals and bit-identical BM25 maps.
    ///
    /// The sweep runs as one chunk when `workers <= 1`, when there is
    /// one service, or when two services wrap the same source: a
    /// repeated source must see its own earlier advance (the first
    /// tick's mark advance is what makes the second tick empty), and
    /// only the worker that crawls both holds it.
    ///
    /// All-or-nothing on the crawl side too: marks merge into `marks`
    /// through [`HighWaterMarks::advance`] only after every worker
    /// has succeeded, and the clock moves only then. If any service's
    /// tick fails, no mark moves and the clock is left at the sweep
    /// start, at every worker count. None of the burst was persisted,
    /// so all of it must stay observable for the retry. A worker
    /// that *panics* cannot poison the others: workers share no
    /// mutable state, every sibling is joined before the panic is
    /// resumed on the caller's thread, and the marks are untouched.
    ///
    /// Two caveats on the *failure* path (the success path is
    /// byte-deterministic regardless): when exactly one service
    /// fails, the sweep returns that error at every worker count;
    /// with several failing at once, which one is surfaced depends on
    /// worker timing (once a failure is observed, siblings stop
    /// starting new crawls rather than finish doomed work). And
    /// per-service *internal* state after a failed sweep — token-
    /// bucket levels, fault-plan counters — is unspecified: a
    /// many-worker sweep may have crawled services a one-worker sweep
    /// would never have reached. Equivalence is defined over the
    /// sweep's outputs: burst, marks, reports, and (single-failure)
    /// error.
    ///
    /// A successful sweep advances `clock` by the *maximum* of the
    /// workers' simulated waits — concurrent waits overlap, so one
    /// worker costs the sum of its services' waits. The per-source
    /// [`CrawlReport`]s, and therefore the aggregate
    /// [`SweepReport`], are identical at every worker count *when
    /// every token bucket is full at the sweep start* — a
    /// freshly-opened service list, or persistent services given
    /// enough simulated idle time to refill. Across back-to-back
    /// sweeps over persistent, still-depleted services different
    /// worker counts enter the next sweep at different simulated
    /// instants (sum vs max), so the *wait accounting*
    /// (`rate_limit_waits`, `waited_secs`) may diverge; the burst,
    /// marks and journal bytes are identical regardless, because
    /// rate denials never change which items a crawl ultimately
    /// observes.
    pub fn crawl_sweep(
        &self,
        services: &mut [Box<dyn DataService + '_>],
        clock: &mut Clock,
        marks: &mut HighWaterMarks,
    ) -> Result<(Vec<CorpusDelta>, SweepReport), WrapperError> {
        // Sweep wall clock is recorded for failed sweeps too: an
        // operator watching `crawl_sweep_ns` p99 wants to see the
        // cost of retried sweeps, not just the ones that landed.
        let mut watch = self.metrics.as_deref().map(CrawlMetrics::stopwatch);
        let outcome = self.sweep_chunks(services, clock, marks);
        if let (Some(m), Some(w)) = (self.metrics.as_deref(), watch.as_mut()) {
            m.sweep_finished(w.lap_ns());
        }
        outcome
    }

    fn sweep_chunks(
        &self,
        services: &mut [Box<dyn DataService + '_>],
        clock: &mut Clock,
        marks: &mut HighWaterMarks,
    ) -> Result<(Vec<CorpusDelta>, SweepReport), WrapperError> {
        let mut seen = std::collections::HashSet::new();
        let distinct = services.iter().all(|s| seen.insert(s.descriptor().source));
        let workers = if distinct {
            self.config.workers.clamp(1, services.len().max(1))
        } else {
            1
        };
        let chunk_len = services.len().div_ceil(workers).max(1);
        let start = clock.now();
        let pre_sweep = &*marks;
        // Workers share this one clone by reference (`&Crawler` is
        // `Copy` into the move closures), so an attached
        // `CrawlMetrics` is shared too, not duplicated per worker.
        let crawler = self.clone();
        let crawler = &crawler;

        // One worker per contiguous chunk of services. Results come
        // back through the join handles — workers share no mutable
        // state, so a panicking or failing worker cannot poison a
        // sibling. The failure flag is advisory: once any worker
        // fails, siblings stop *starting* services (the sweep is
        // doomed, so further crawls are wasted work and — behind a
        // latency decorator — wasted wall clock). Services a worker
        // already started or skipped may still end up with different
        // bucket/fault-counter state than a one-worker sweep would
        // have left, which is why equivalence is defined over the
        // sweep's *outputs* (burst, marks, error), and why callers
        // that retry after a failure should treat per-service
        // internal state as unspecified.
        let failed = std::sync::atomic::AtomicBool::new(false);
        type Chunk = (Vec<(CorpusDelta, CrawlReport)>, HighWaterMarks, Timestamp);
        let joined: Vec<std::thread::Result<Result<Chunk, WrapperError>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = services
                    .chunks_mut(chunk_len)
                    .map(|chunk| {
                        let failed = &failed;
                        scope.spawn(move || {
                            let mut local_clock = Clock::starting_at(start);
                            let mut local_marks = pre_sweep.clone();
                            let mut ticks = Vec::with_capacity(chunk.len());
                            for service in chunk.iter_mut() {
                                if failed.load(std::sync::atomic::Ordering::Relaxed) {
                                    break;
                                }
                                match crawler.crawl_tick(
                                    service.as_mut(),
                                    &mut local_clock,
                                    &mut local_marks,
                                ) {
                                    Ok(tick) => ticks.push(tick),
                                    Err(e) => {
                                        // A chunk stops at its first
                                        // failing service.
                                        failed.store(true, std::sync::atomic::Ordering::Relaxed);
                                        return Err(e);
                                    }
                                }
                            }
                            Ok((ticks, local_marks, local_clock.now()))
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });

        // Every worker is joined by now; only then is a panic
        // resumed, so no sibling was abandoned mid-crawl.
        let mut outcomes = Vec::with_capacity(joined.len());
        for outcome in joined {
            match outcome {
                Ok(chunk) => outcomes.push(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        // The first error in service order (the one a one-worker
        // sweep would have hit first among the services it reached)
        // is returned with the marks and the clock untouched.
        let chunks = outcomes.into_iter().collect::<Result<Vec<Chunk>, _>>()?;

        // Slot-ordered join: chunks are contiguous, so draining them
        // in spawn order reassembles the burst in service order.
        let mut deltas = Vec::new();
        let mut sweep = SweepReport::default();
        let mut end = start;
        for (ticks, local_marks, worker_end) in chunks {
            end = end.max(worker_end);
            for (source, mark) in local_marks.marks {
                marks.advance(source, mark);
            }
            for (delta, report) in ticks {
                sweep.sources += 1;
                sweep.crawl.absorb(report);
                if !delta.is_empty() {
                    sweep.fresh_sources += 1;
                    deltas.push(delta);
                }
            }
        }
        // Concurrent simulated waits overlap, so the sweep costs the
        // slowest worker, not the sum of all of them.
        if end > start {
            clock.advance(end.since(start));
        }
        Ok((deltas, sweep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::native::blog::{BlogApi, PAGE_SIZE};
    use crate::rate::TokenBucket;
    use crate::service::{service_for, BlogService};
    use obs_model::SourceKind;
    use obs_synth::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::small(202))
    }

    #[test]
    fn full_crawl_matches_ground_truth() {
        let w = world();
        let crawler = Crawler::default();
        for s in w.corpus.sources() {
            let mut clock = Clock::starting_at(w.now);
            let mut service = service_for(&w.corpus, s.id, w.now).unwrap();
            let (obs, report) = crawler.crawl(service.as_mut(), &mut clock).unwrap();
            let expected: usize = w
                .corpus
                .discussions_of_source(s.id)
                .iter()
                .map(|&d| 1 + w.corpus.comments_of_discussion(d).len())
                .sum();
            assert_eq!(obs.len(), expected);
            assert_eq!(report.items, expected);
            assert!(report.pages >= 1);
        }
    }

    #[test]
    fn incremental_crawl_filters_old_items() {
        let w = world();
        let crawler = Crawler::default();
        let s = w
            .corpus
            .sources()
            .iter()
            .find(|s| !w.corpus.discussions_of_source(s.id).is_empty())
            .unwrap();
        let mut clock = Clock::starting_at(w.now);
        let mut service = service_for(&w.corpus, s.id, w.now).unwrap();
        let (full, _) = crawler.crawl(service.as_mut(), &mut clock).unwrap();

        let midpoint = Timestamp(w.now.seconds() / 2);
        let mut service2 = service_for(&w.corpus, s.id, w.now).unwrap();
        let mut clock2 = Clock::starting_at(w.now);
        let (fresh, _) = crawler
            .crawl_since(service2.as_mut(), &mut clock2, Some(midpoint))
            .unwrap();

        assert!(fresh.len() <= full.len());
        for item in &fresh.items {
            assert!(item.published > midpoint);
        }
        // Old + fresh partition the full crawl.
        let old = full
            .items
            .iter()
            .filter(|i| i.published <= midpoint)
            .count();
        assert_eq!(old + fresh.len(), full.len());
    }

    #[test]
    fn crawl_delta_carries_fresh_posts_and_engagement() {
        let w = world();
        let crawler = Crawler::default();
        let s = w
            .corpus
            .sources()
            .iter()
            .find(|s| !w.corpus.discussions_of_source(s.id).is_empty())
            .unwrap();
        let mut clock = Clock::starting_at(w.now);
        let mut service = service_for(&w.corpus, s.id, w.now).unwrap();
        let (delta, report) = crawler
            .crawl_delta(service.as_mut(), &mut clock, None)
            .unwrap();
        let discussions = w.corpus.discussions_of_source(s.id).len();
        let comments: usize = w
            .corpus
            .discussions_of_source(s.id)
            .iter()
            .map(|&d| w.corpus.comments_of_discussion(d).len())
            .sum();
        assert_eq!(delta.added.len(), discussions);
        assert!(delta.removed.is_empty());
        assert_eq!(report.items, discussions + comments);
        // Engagement folds into a single per-source entry.
        assert_eq!(delta.engagement.len(), 1);
        assert_eq!(delta.engagement[0].source, s.id);
        assert_eq!(delta.engagement[0].discussions, discussions as i64);
        assert_eq!(delta.engagement[0].comments, comments as i64);
        // Every added doc carries indexable text.
        for d in &delta.added {
            assert_eq!(d.source, s.id);
            assert!(!d.text.is_empty());
        }
    }

    #[test]
    fn crawl_delta_since_midpoint_is_a_subset() {
        let w = world();
        let crawler = Crawler::default();
        let s = w
            .corpus
            .sources()
            .iter()
            .find(|s| !w.corpus.discussions_of_source(s.id).is_empty())
            .unwrap();
        let mut clock = Clock::starting_at(w.now);
        let mut service = service_for(&w.corpus, s.id, w.now).unwrap();
        let (full, _) = crawler
            .crawl_delta(service.as_mut(), &mut clock, None)
            .unwrap();
        let midpoint = Timestamp(w.now.seconds() / 2);
        let mut clock2 = Clock::starting_at(w.now);
        let mut service2 = service_for(&w.corpus, s.id, w.now).unwrap();
        let (fresh, _) = crawler
            .crawl_delta(service2.as_mut(), &mut clock2, Some(midpoint))
            .unwrap();
        assert!(fresh.added.len() <= full.added.len());
        for d in &fresh.added {
            assert!(
                full.added.iter().any(|f| f.post == d.post),
                "{} not in the full delta",
                d.post
            );
        }
    }

    #[test]
    fn crawl_tick_observes_each_item_exactly_once() {
        let w = world();
        let crawler = Crawler::default();
        let s = w
            .corpus
            .sources()
            .iter()
            .find(|s| !w.corpus.discussions_of_source(s.id).is_empty())
            .unwrap();
        let mut marks = HighWaterMarks::new();
        assert!(marks.is_empty());

        // First tick sees the whole source…
        let mut clock = Clock::starting_at(w.now);
        let mut service = service_for(&w.corpus, s.id, w.now).unwrap();
        let (first, _) = crawler
            .crawl_tick(service.as_mut(), &mut clock, &mut marks)
            .unwrap();
        assert!(!first.is_empty());
        assert_eq!(marks.len(), 1);
        let mark = marks.since(s.id).expect("mark recorded");

        // …the second tick, nothing new (no content was published in
        // between), and the mark stays put.
        let mut service2 = service_for(&w.corpus, s.id, w.now).unwrap();
        let (second, _) = crawler
            .crawl_tick(service2.as_mut(), &mut clock, &mut marks)
            .unwrap();
        assert!(second.is_empty(), "tick 2 re-observed content");
        assert_eq!(marks.since(s.id), Some(mark));
    }

    #[test]
    fn high_water_marks_never_regress() {
        let mut marks = HighWaterMarks::new();
        let s = obs_model::SourceId::new(3);
        marks.advance(s, Timestamp::from_days(10));
        marks.advance(s, Timestamp::from_days(4));
        assert_eq!(marks.since(s), Some(Timestamp::from_days(10)));
        marks.advance(s, Timestamp::from_days(12));
        assert_eq!(marks.since(s), Some(Timestamp::from_days(12)));
        assert_eq!(marks.since(obs_model::SourceId::new(9)), None);
    }

    #[test]
    fn rollback_restores_a_previous_reading() {
        let mut marks = HighWaterMarks::new();
        let s = obs_model::SourceId::new(3);

        // Roll back to an earlier mark after a failed persist.
        marks.advance(s, Timestamp::from_days(10));
        let before = marks.since(s);
        marks.advance(s, Timestamp::from_days(20));
        marks.rollback(s, before);
        assert_eq!(marks.since(s), Some(Timestamp::from_days(10)));

        // Roll back to "never observed".
        marks.rollback(s, None);
        assert_eq!(marks.since(s), None);
        assert!(marks.is_empty());
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        // A content-heavy world so the blog spans several pages and
        // the every-2nd-call fault plan is guaranteed to fire.
        let w = World::generate(WorldConfig {
            mean_discussions_per_source: 40.0,
            ..WorldConfig::small(202)
        });
        let blog = w
            .corpus
            .sources()
            .iter()
            .filter(|s| s.kind == SourceKind::Blog)
            .max_by_key(|s| w.corpus.discussions_of_source(s.id).len())
            .expect("a blog");
        assert!(
            w.corpus.discussions_of_source(blog.id).len() > 10,
            "blog must span multiple pages"
        );
        let api = BlogApi::open(&w.corpus, blog.id, w.now)
            .unwrap()
            .with_faults(FaultPlan::every(2));
        let mut service = BlogService::open(&w.corpus, blog.id, w.now)
            .unwrap()
            .with_api(api);
        let mut clock = Clock::starting_at(w.now);
        let crawler = Crawler::default();
        let (obs, report) = crawler.crawl(&mut service, &mut clock).unwrap();
        assert!(report.retries > 0, "faults must have been retried");
        assert!(!obs.is_empty());
    }

    #[test]
    fn persistent_faults_exhaust_retries() {
        let w = world();
        let blog = w
            .corpus
            .sources()
            .iter()
            .find(|s| s.kind == SourceKind::Blog)
            .expect("a blog");
        let api = BlogApi::open(&w.corpus, blog.id, w.now)
            .unwrap()
            .with_faults(FaultPlan::every(1)); // always fail
        let mut service = BlogService::open(&w.corpus, blog.id, w.now)
            .unwrap()
            .with_api(api);
        let mut clock = Clock::starting_at(w.now);
        let crawler = Crawler::new(CrawlerConfig {
            max_retries: 3,
            ..CrawlerConfig::default()
        });
        let err = crawler.crawl(&mut service, &mut clock).unwrap_err();
        assert!(matches!(err, WrapperError::Transient(_)));
    }

    #[test]
    fn zero_rate_service_fails_fast_instead_of_waiting_forever() {
        // Regression: `TokenBucket::try_take` used to encode "never
        // refills" as a u64::MAX wait; the crawler advanced its
        // clock by that wait, overflowing Timestamp arithmetic. A
        // zero-rate service must surface a hard error instead.
        let w = World::generate(WorldConfig {
            mean_discussions_per_source: 40.0,
            ..WorldConfig::small(202)
        });
        let blog = w
            .corpus
            .sources()
            .iter()
            .filter(|s| s.kind == SourceKind::Blog)
            .max_by_key(|s| w.corpus.discussions_of_source(s.id).len())
            .expect("a blog");
        assert!(
            w.corpus.discussions_of_source(blog.id).len() > PAGE_SIZE,
            "blog must need more fetches than the one-token burst"
        );
        let api = BlogApi::open(&w.corpus, blog.id, w.now)
            .unwrap()
            .with_rate_limit(TokenBucket::new(1, 0, w.now));
        let mut service = BlogService::open(&w.corpus, blog.id, w.now)
            .unwrap()
            .with_api(api);
        let mut clock = Clock::starting_at(w.now);
        let crawler = Crawler::default();
        let err = crawler.crawl(&mut service, &mut clock).unwrap_err();
        assert_eq!(err, WrapperError::RateLimitExhausted);
        assert!(!err.is_retryable());
        // No simulated time was burned "waiting out" a limit that
        // never lifts.
        assert_eq!(clock.now(), w.now);
    }

    #[test]
    fn crawl_sweep_ticks_every_service_exactly_once() {
        let w = world();
        let crawler = Crawler::default();
        let mut marks = HighWaterMarks::new();
        let mut services: Vec<Box<dyn DataService + '_>> = w
            .corpus
            .sources()
            .iter()
            .map(|s| service_for(&w.corpus, s.id, w.now).unwrap())
            .collect();
        let mut clock = Clock::starting_at(w.now);
        let (deltas, sweep) = crawler
            .crawl_sweep(&mut services, &mut clock, &mut marks)
            .unwrap();
        assert_eq!(sweep.sources, w.corpus.sources().len());
        assert_eq!(sweep.fresh_sources, deltas.len());
        assert!(deltas.iter().all(|d| !d.is_empty()));
        // The burst covers the whole corpus: one added doc per
        // discussion, across all sources.
        let total_added: usize = deltas.iter().map(|d| d.added.len()).sum();
        let expected: usize = w
            .corpus
            .sources()
            .iter()
            .map(|s| w.corpus.discussions_of_source(s.id).len())
            .sum();
        assert_eq!(total_added, expected);

        // A second sweep observes nothing new anywhere.
        let (again, sweep2) = crawler
            .crawl_sweep(&mut services, &mut clock, &mut marks)
            .unwrap();
        assert!(again.is_empty());
        assert_eq!(sweep2.fresh_sources, 0);
        assert_eq!(sweep2.sources, w.corpus.sources().len());
    }

    #[test]
    fn failed_sweep_rolls_back_every_advanced_mark() {
        let w = world();
        let blogs: Vec<_> = w
            .corpus
            .sources()
            .iter()
            .filter(|s| {
                s.kind == SourceKind::Blog && !w.corpus.discussions_of_source(s.id).is_empty()
            })
            .collect();
        assert!(blogs.len() >= 2, "world needs two content-bearing blogs");
        let (good, bad) = (blogs[0].id, blogs[1].id);

        let bad_api = BlogApi::open(&w.corpus, bad, w.now)
            .unwrap()
            .with_faults(FaultPlan::every(1)); // always fail
        let mut services: Vec<Box<dyn DataService + '_>> = vec![
            service_for(&w.corpus, good, w.now).unwrap(),
            Box::new(
                BlogService::open(&w.corpus, bad, w.now)
                    .unwrap()
                    .with_api(bad_api),
            ),
        ];
        let crawler = Crawler::new(CrawlerConfig {
            max_retries: 2,
            ..CrawlerConfig::default()
        });
        let mut marks = HighWaterMarks::new();
        let mut clock = Clock::starting_at(w.now);
        let err = crawler
            .crawl_sweep(&mut services, &mut clock, &mut marks)
            .unwrap_err();
        assert!(matches!(err, WrapperError::Transient(_)));
        // The good service's tick advanced its mark before the bad
        // one failed; nothing of the sweep was persisted, so the
        // whole burst must stay observable for a retry.
        assert!(marks.is_empty(), "marks survived a failed sweep: {marks:?}");
        // The one-worker sweep, too, leaves the clock at the sweep
        // start.
        assert_eq!(clock.now(), w.now);
    }

    #[test]
    fn parallel_sweep_burst_is_identical_to_sequential() {
        let w = world();
        let sequential = Crawler::default();
        for workers in [2, 3, 8, 64] {
            let parallel = Crawler::new(CrawlerConfig {
                workers,
                ..CrawlerConfig::default()
            });

            let mut seq_services: Vec<Box<dyn DataService + '_>> = w
                .corpus
                .sources()
                .iter()
                .map(|s| service_for(&w.corpus, s.id, w.now).unwrap())
                .collect();
            let mut seq_marks = HighWaterMarks::new();
            let mut seq_clock = Clock::starting_at(w.now);
            let (seq_deltas, seq_report) = sequential
                .crawl_sweep(&mut seq_services, &mut seq_clock, &mut seq_marks)
                .unwrap();

            let mut par_services: Vec<Box<dyn DataService + '_>> = w
                .corpus
                .sources()
                .iter()
                .map(|s| service_for(&w.corpus, s.id, w.now).unwrap())
                .collect();
            let mut par_marks = HighWaterMarks::new();
            let mut par_clock = Clock::starting_at(w.now);
            let (par_deltas, par_report) = parallel
                .crawl_sweep(&mut par_services, &mut par_clock, &mut par_marks)
                .unwrap();

            // Same burst in the same order, same aggregate report,
            // same post-sweep marks — worker count is invisible in
            // everything but wall clock.
            assert_eq!(seq_deltas, par_deltas, "workers = {workers}");
            assert_eq!(seq_report, par_report, "workers = {workers}");
            assert_eq!(seq_marks, par_marks, "workers = {workers}");

            // A second parallel sweep observes nothing new.
            let (again, report2) = parallel
                .crawl_sweep(&mut par_services, &mut par_clock, &mut par_marks)
                .unwrap();
            assert!(again.is_empty());
            assert_eq!(report2.fresh_sources, 0);
        }
    }

    #[test]
    fn duplicate_source_services_keep_sequential_semantics_at_any_worker_count() {
        // Two services over the same source: only the first may
        // yield content (its tick advances the shared mark). A
        // parallel sweep pre-reads marks and would observe the
        // backlog twice, so it must detect the duplicate and fall
        // back to the sequential path.
        let w = world();
        let s = w
            .corpus
            .sources()
            .iter()
            .find(|s| !w.corpus.discussions_of_source(s.id).is_empty())
            .unwrap();
        for workers in [1, 4] {
            let mut services: Vec<Box<dyn DataService + '_>> = vec![
                service_for(&w.corpus, s.id, w.now).unwrap(),
                service_for(&w.corpus, s.id, w.now).unwrap(),
            ];
            let crawler = Crawler::new(CrawlerConfig {
                workers,
                ..CrawlerConfig::default()
            });
            let mut marks = HighWaterMarks::new();
            let mut clock = Clock::starting_at(w.now);
            let (deltas, sweep) = crawler
                .crawl_sweep(&mut services, &mut clock, &mut marks)
                .unwrap();
            assert_eq!(
                deltas.len(),
                1,
                "workers = {workers}: the duplicate service re-observed the backlog"
            );
            assert_eq!(sweep.sources, 2);
            assert_eq!(sweep.fresh_sources, 1);
        }
    }

    #[test]
    fn failed_parallel_sweep_advances_no_mark() {
        let w = world();
        let blogs: Vec<_> = w
            .corpus
            .sources()
            .iter()
            .filter(|s| {
                s.kind == SourceKind::Blog && !w.corpus.discussions_of_source(s.id).is_empty()
            })
            .collect();
        assert!(blogs.len() >= 2, "world needs two content-bearing blogs");
        let (good, bad) = (blogs[0].id, blogs[1].id);

        let bad_api = BlogApi::open(&w.corpus, bad, w.now)
            .unwrap()
            .with_faults(FaultPlan::every(1)); // always fail
        let mut services: Vec<Box<dyn DataService + '_>> = vec![
            service_for(&w.corpus, good, w.now).unwrap(),
            Box::new(
                BlogService::open(&w.corpus, bad, w.now)
                    .unwrap()
                    .with_api(bad_api),
            ),
        ];
        let crawler = Crawler::new(CrawlerConfig {
            max_retries: 2,
            workers: 2,
            ..CrawlerConfig::default()
        });
        let mut marks = HighWaterMarks::new();
        let mut clock = Clock::starting_at(w.now);
        let err = crawler
            .crawl_sweep(&mut services, &mut clock, &mut marks)
            .unwrap_err();
        assert!(matches!(err, WrapperError::Transient(_)));
        // The good service's worker crawled to completion, but marks
        // only advance after every worker succeeds: nothing of the
        // burst was persisted, so all of it stays observable.
        assert!(marks.is_empty(), "marks survived a failed sweep: {marks:?}");
        // The failed sweep leaves the clock at the sweep start.
        assert_eq!(clock.now(), w.now);
    }

    /// A service whose fetch panics — a worker crash, not an error.
    struct PanickingService {
        descriptor: crate::service::ServiceDescriptor,
    }

    impl DataService for PanickingService {
        fn descriptor(&self) -> &crate::service::ServiceDescriptor {
            &self.descriptor
        }

        fn fetch(
            &mut self,
            _now: Timestamp,
            _cursor: Option<Cursor>,
        ) -> Result<crate::service::Page, WrapperError> {
            panic!("worker crash injected by test");
        }
    }

    #[test]
    fn panicked_worker_is_resumed_after_siblings_join_and_marks_stay_put() {
        let w = world();
        let mut services: Vec<Box<dyn DataService + '_>> = w
            .corpus
            .sources()
            .iter()
            .map(|s| service_for(&w.corpus, s.id, w.now).unwrap())
            .collect();
        services.push(Box::new(PanickingService {
            descriptor: crate::service::ServiceDescriptor {
                // A source id no real service in the sweep wraps —
                // a duplicate would run the sweep as one chunk.
                source: SourceId::new(9_999),
                kind: SourceKind::Blog,
                name: "doomed".to_owned(),
            },
        }));
        let crawler = Crawler::new(CrawlerConfig {
            workers: 4,
            ..CrawlerConfig::default()
        });
        let mut marks = HighWaterMarks::new();
        let mut clock = Clock::starting_at(w.now);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crawler.crawl_sweep(&mut services, &mut clock, &mut marks)
        }));
        // The panic propagates to the caller (after every sibling
        // worker was joined), and no mark moved.
        assert!(outcome.is_err(), "worker panic must surface");
        assert!(marks.is_empty(), "marks survived a panicked sweep");
    }

    #[test]
    fn metrics_record_fetches_items_and_sweeps() {
        let w = world();
        let registry = Arc::new(obs_telemetry::Registry::new());
        let metrics = Arc::new(crate::metrics::CrawlMetrics::new(&registry));
        let crawler = Crawler::new(CrawlerConfig {
            workers: 3,
            ..CrawlerConfig::default()
        })
        .with_metrics(Arc::clone(&metrics));

        let mut services: Vec<Box<dyn DataService + '_>> = w
            .corpus
            .sources()
            .iter()
            .map(|s| service_for(&w.corpus, s.id, w.now).unwrap())
            .collect();
        let mut marks = HighWaterMarks::new();
        let mut clock = Clock::starting_at(w.now);
        let (_, sweep) = crawler
            .crawl_sweep(&mut services, &mut clock, &mut marks)
            .unwrap();

        let text = registry.render_text();
        assert!(
            text.contains(&format!("crawl_pages_total {}", sweep.crawl.pages)),
            "page counter mismatch in:\n{text}"
        );
        assert!(
            text.contains(&format!("crawl_items_total {}", sweep.crawl.items)),
            "item counter mismatch in:\n{text}"
        );
        // Every fetch was timed: at least one round-trip per page,
        // in the aggregate and split per source.
        let fetches: u64 = text
            .lines()
            .find_map(|line| line.strip_prefix("crawl_fetch_ns_count "))
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(fetches >= sweep.crawl.pages as u64);
        assert!(text.contains("crawl_fetch_ns{source="));
        assert!(text.contains("crawl_sweep_ns_count 1"));

        // An uninstrumented crawler leaves a fresh registry silent.
        let silent = Arc::new(obs_telemetry::Registry::new());
        assert_eq!(silent.render_text(), "");
    }

    #[test]
    fn rate_limits_advance_the_clock_not_fail() {
        let w = World::generate(WorldConfig {
            mean_discussions_per_source: 60.0,
            ..WorldConfig::small(203)
        });
        let blog = w
            .corpus
            .sources()
            .iter()
            .filter(|s| s.kind == SourceKind::Blog)
            .max_by_key(|s| w.corpus.discussions_of_source(s.id).len())
            .expect("a blog");
        let mut clock = Clock::starting_at(w.now);
        let mut service = service_for(&w.corpus, blog.id, w.now).unwrap();
        let crawler = Crawler::default();
        let (_, report) = crawler.crawl(service.as_mut(), &mut clock).unwrap();
        // A large blog needs > 30 pages, which exceeds the burst.
        if report.pages > 30 {
            assert!(report.rate_limit_waits > 0);
            assert!(clock.now() > w.now);
        }
    }
}
