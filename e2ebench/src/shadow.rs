//! Per-layer attribution for the traced run.
//!
//! The program keeps its layers behind one `ingest_batch` or `query`
//! call, so the traced run times the same work again through each
//! layer's public functions, on shadow copies of the state: a clone of
//! the router, of a shard's index and blend, a second `LiveWriter`, a
//! scratch journal in the same directory. Every timing is a span and a
//! sample in [`Layers`].

use crate::inputs::{CRAWL_ROUND_TRIP_MS, CRAWL_WORKERS, SHARDS, TOP_K};
use crate::stack::Check;
use crate::trace::Tracer;
use crate::Samples;
use obs_live::{CacheMetrics, DeltaJournal, LiveWriter, ShardedLiveService, ShardedReader};
use obs_model::{Clock, Corpus, CorpusDelta, SourceId, Timestamp};
use obs_search::{merge_partials, normalize_query, InvertedIndex, ScatterStats, SearchEngine};
use obs_wrappers::{
    service_for, Crawler, CrawlerConfig, DataService, HighWaterMarks, SimulatedLatency, SweepReport,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::time::Duration;

/// Samples per per-layer metric name.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Per-stage times of one shadowed burst on its slowest shard, the one
/// that bounds the parallel commit.
#[derive(Default)]
pub struct CommitStages {
    pub detach_ms: f64,
    pub apply_ms: f64,
    pub reblend_ms: f64,
    pub append_ms: f64,
    pub drop_ms: f64,
}

/// Times `burst` through the commit path's layers, against the state
/// it is about to commit onto.
pub fn commit(
    service: &ShardedLiveService,
    burst: &[CorpusDelta],
    journal: &mut DeltaJournal,
    tracer: &mut Tracer,
    layers: &mut Layers,
    check: &mut Check,
    req: u64,
) -> CommitStages {
    let span = tracer.open("shadow.commit", req);
    let mut router = service.router().clone();
    let (routed, ns) = tracer.time("live.shard.route", req, || {
        burst.iter().map(|d| router.route(d)).collect::<Vec<_>>()
    });
    layers.add("live.shard.route_us", ns / 1e3);
    let mut per_shard: Vec<Vec<CorpusDelta>> = vec![Vec::new(); SHARDS];
    for subs in routed {
        for (shard, sub) in subs.into_iter().enumerate() {
            if !sub.is_empty() {
                per_shard[shard].push(sub);
            }
        }
    }
    layers.add(
        "live.shard.fanout",
        per_shard.iter().filter(|b| !b.is_empty()).count() as f64,
    );
    for delta in burst {
        let (_, ns) = tracer.time("model.encode", req, || serde_json::to_string(delta));
        layers.add("model.encode_us", ns / 1e3);
    }

    let mut slowest = CommitStages::default();
    for (shard, batch) in per_shard.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
        let refs: Vec<&CorpusDelta> = batch.iter().collect();
        let before = std::fs::metadata(journal.path()).map_or(0, |m| m.len());
        let (appended, append_ns) = tracer.time("live.journal.append_batch", req, || {
            journal.append_batch(&refs)
        });
        check.result("scratch journal append", appended);
        let after = std::fs::metadata(journal.path()).map_or(0, |m| m.len());
        layers.add("live.journal.append_batch_ms", append_ns / 1e6);
        layers.add(
            "live.journal.bytes_per_delta",
            after.saturating_sub(before) as f64 / refs.len() as f64,
        );

        let engine = service.shard_engine(shard);
        let (mut index, detach_ns) =
            tracer.time("search.index.detach", req, || engine.index().clone());
        let (_, apply_ns) = tracer.time("search.index.apply", req, || {
            for delta in batch {
                index.apply_delta(delta);
            }
        });
        // Freeing the superseded copy: what the live publish pays when
        // it drops the last reference to the previous epoch.
        let (_, drop_ns) = tracer.time("search.index.drop", req, || drop(index));
        let mut blend = engine.blend().clone();
        let (_, reblend_ns) = tracer.time("search.blend.reblend", req, || {
            let mut touched = false;
            for delta in batch {
                touched |= blend.apply_engagement(&delta.engagement);
            }
            if touched {
                blend.reblend();
            }
        });
        layers.add("search.index.detach_ms", detach_ns / 1e6);
        layers.add("search.index.apply_us", apply_ns / 1e3);
        layers.add("search.blend.reblend_us", reblend_ns / 1e3);
        layers.add("search.index.drop_ms", drop_ns / 1e6);

        // A writer whose state is already published, so its apply
        // pays the copy-on-write detach the live writer pays.
        let mut writer = LiveWriter::new(engine.clone(), 0);
        let (_, ns) = tracer.time("live.snapshot.apply_batch", req, || {
            writer.apply_batch(1, &refs)
        });
        layers.add("live.snapshot.apply_batch_ms", ns / 1e6);
        let (_, ns) = tracer.time("live.snapshot.publish", req, || writer.publish());
        layers.add("live.snapshot.publish_us", ns / 1e3);
        let reader = writer.reader();
        let (_, ns) = tracer.time("live.snapshot.acquire", req, || reader.snapshot());
        layers.add("live.snapshot.acquire_ns", ns);

        let total =
            |s: &CommitStages| s.detach_ms + s.apply_ms + s.reblend_ms + s.append_ms + s.drop_ms;
        let stages = CommitStages {
            detach_ms: detach_ns / 1e6,
            apply_ms: apply_ns / 1e6,
            reblend_ms: reblend_ns / 1e6,
            append_ms: append_ns / 1e6,
            drop_ms: drop_ns / 1e6,
        };
        if total(&stages) > total(&slowest) {
            slowest = stages;
        }
    }
    tracer.close(span);
    slowest
}

/// Times one cache-missing query's scatter plan stage by stage over
/// the shard engines (the state the reader just pinned: the traced run
/// has no writer racing it).
pub fn query(
    service: &ShardedLiveService,
    reader: &ShardedReader,
    terms: &[String],
    tracer: &mut Tracer,
    layers: &mut Layers,
    req: u64,
) {
    let span = tracer.open("shadow.query", req);
    let normalized: Vec<String> = normalize_query(terms)
        .into_iter()
        .map(|t| t.into_owned())
        .collect();
    let engines: Vec<&SearchEngine> = (0..SHARDS).map(|i| service.shard_engine(i)).collect();
    let indexes: Vec<&InvertedIndex> = engines.iter().map(|e| e.index()).collect();
    let (stats, ns) = tracer.time("search.scatter.gather", req, || {
        ScatterStats::gather(&indexes, &normalized)
    });
    layers.add("search.scatter.gather_us", ns / 1e3);
    let mut partials = Vec::new();
    let (mut pruned_ns, mut unpruned_ns) = (0.0, 0.0);
    for engine in &engines {
        let (p, ns) = tracer.time("search.engine.partial", req, || {
            engine.partial_query(&normalized, &stats)
        });
        pruned_ns += ns;
        partials.extend(p);
        let (_, ns) = tracer.time("search.engine.partial_unpruned", req, || {
            engine.partial_query_unpruned(&normalized, &stats)
        });
        unpruned_ns += ns;
    }
    layers.add("search.engine.partial_us", pruned_ns / 1e3);
    layers.add("search.engine.partial_unpruned_us", unpruned_ns / 1e3);
    layers.add("search.scatter.partials", partials.len() as f64);
    let distinct: BTreeSet<&str> = normalized.iter().map(String::as_str).collect();
    let postings: usize = distinct
        .iter()
        .flat_map(|t| indexes.iter().map(move |i| i.postings(t).len()))
        .sum();
    layers.add("search.scatter.postings", postings as f64);
    let statics: HashMap<SourceId, f64> = partials
        .iter()
        .map(|p| (p.source, reader.static_score(p.source)))
        .collect();
    let weights = *engines[0].weights();
    let (_, ns) = tracer.time("search.scatter.merge", req, || {
        merge_partials(partials, |s| statics[&s], &weights, TOP_K)
    });
    layers.add("search.scatter.merge_us", ns / 1e3);
    tracer.close(span);
}

/// Request ids of queries, apart from those of bursts and crawl cycles.
pub const QUERY_REQUESTS: u64 = 1 << 40;

/// One traced query: a timed pin, then the real query, split by its
/// cache outcome; a miss also has its scatter plan shadowed. Returns
/// the real query's microseconds.
pub fn ask(
    service: &ShardedLiveService,
    reader: &ShardedReader,
    cache: &CacheMetrics,
    terms: &[String],
    tracer: &mut Tracer,
    layers: &mut Layers,
    q: u64,
) -> f64 {
    let req = QUERY_REQUESTS | q;
    let span = tracer.open("query", req);
    let (pin, ns) = tracer.time("live.shard.pin", req, || reader.pin());
    drop(pin);
    layers.add("live.shard.pin_ns", ns);
    let hits = cache.hits();
    let (_, ns) = tracer.time("live.shard.query", req, || reader.query(terms, TOP_K));
    let us = ns / 1e3;
    if cache.hits() > hits {
        layers.add("live.cache.hit_us", us);
    } else {
        layers.add("live.cache.miss_us", us);
        query(service, reader, terms, tracer, layers, req);
    }
    tracer.close(span);
    us
}

/// Cache counters: hits, misses, fills, evictions.
pub fn cache_counts(cache: &CacheMetrics) -> [u64; 4] {
    [
        cache.hits(),
        cache.misses(),
        cache.fills(),
        cache.evictions(),
    ]
}

/// Records what the cache did between two [`cache_counts`] readings:
/// into `samples` always, into `layers` when traced.
pub fn record_cache(
    samples: &mut Samples,
    layers: Option<&mut Layers>,
    before: [u64; 4],
    after: [u64; 4],
) {
    let [hits, misses, fills, evictions] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
    samples.cache_hits += hits;
    samples.cache_asks += hits + misses;
    if let Some(layers) = layers {
        let asked = (hits + misses) as f64;
        layers.add(
            "live.cache.hit_ratio",
            if asked > 0.0 {
                hits as f64 / asked
            } else {
                0.0
            },
        );
        layers.add("live.cache.fills", fills as f64);
        layers.add("live.cache.evictions", evictions as f64);
    }
}

/// Records the size of the served index, and the gate's repeated asks
/// as hit times when the replay itself saw no cache hit.
pub fn record_served(layers: &mut Layers, service: &ShardedLiveService, gate_repeat_us: Vec<f64>) {
    if layers.get("live.cache.hit_us").is_empty() {
        for us in gate_repeat_us {
            layers.add("live.cache.hit_us", us);
        }
    }
    let (docs, vocabulary) = (0..SHARDS)
        .map(|i| service.shard_engine(i))
        .fold((0, 0), |(d, v), e| {
            (d + e.doc_count(), v + e.index().vocabulary_size())
        });
    layers.add("search.index.docs", docs as f64);
    layers.add("search.index.vocabulary", vocabulary as f64);
}

/// Times a replay of every shard's journal (the read half of recovery).
pub fn replay(dir: &Path, tracer: &mut Tracer, layers: &mut Layers, req: u64) {
    let span = tracer.open("shadow.replay", req);
    for shard in 0..SHARDS {
        let path = ShardedLiveService::shard_journal_path(dir, shard);
        let (_, _) = tracer.time("live.journal.replay_path", req, || {
            DeltaJournal::replay_path(&path)
        });
    }
    layers.add("live.journal.replay_ms", tracer.close(span) / 1e6);
}

/// The crawler the workloads sweep with.
pub fn crawler() -> Crawler {
    Crawler::new(CrawlerConfig {
        workers: CRAWL_WORKERS,
        ..CrawlerConfig::default()
    })
}

/// One service per source, each behind the simulated round trip.
pub fn services<'a>(
    corpus: &'a Corpus,
    sources: impl IntoIterator<Item = SourceId>,
    now: Timestamp,
) -> Vec<Box<dyn DataService + 'a>> {
    sources
        .into_iter()
        .map(|s| {
            Box::new(SimulatedLatency::wrap(
                service_for(corpus, s, now).expect("corpus source has a service"),
                Duration::from_millis(CRAWL_ROUND_TRIP_MS),
            )) as Box<dyn DataService + 'a>
        })
        .collect()
}

pub fn record_sweep(layers: &mut Layers, report: &SweepReport, sweep_ns: f64) {
    let crawl = report.crawl;
    layers.add("wrappers.sweep_ms", sweep_ns / 1e6);
    layers.add(
        "wrappers.fetches",
        (crawl.pages + crawl.rate_limit_waits as usize + crawl.retries as usize) as f64,
    );
    layers.add("wrappers.items", crawl.items as f64);
    layers.add("wrappers.rate_limit_waits", crawl.rate_limit_waits as f64);
    layers.add("wrappers.retries", crawl.retries as f64);
}

/// Times the crawl that would have produced a re-crawl burst: a full
/// sweep of the burst's sources through their wrappers.
pub fn recrawl(
    corpus: &Corpus,
    now: Timestamp,
    burst: &[CorpusDelta],
    tracer: &mut Tracer,
    layers: &mut Layers,
    check: &mut Check,
    req: u64,
) {
    let sources: BTreeSet<SourceId> = burst
        .iter()
        .flat_map(|d| d.added.iter().map(|a| a.source))
        .collect();
    let mut services = services(corpus, sources, now);
    let mut clock = Clock::starting_at(now);
    let mut marks = HighWaterMarks::new();
    let crawler = crawler();
    let (swept, ns) = tracer.time("wrappers.crawl_sweep", req, || {
        crawler.crawl_sweep(&mut services, &mut clock, &mut marks)
    });
    if let Some((_, report)) = check.result("re-crawl sweep", swept) {
        record_sweep(layers, &report, ns);
    }
}
