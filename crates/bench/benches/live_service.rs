//! The serving-layer costs: what does it take to keep answering
//! queries while content streams in?
//!
//! Per corpus scale (~10k and ~100k docs), against a one-shard
//! service whose first commits loaded the corpus:
//!
//! * `publish_only` — swapping a new snapshot into the store (the
//!   reader-visible step of an update tick);
//! * `ingest_1_doc` — the full durable tick: journal append + fsync,
//!   copy-on-write `apply_delta`, publish (two of them: a removal
//!   and a re-add, so the engine state is identical across
//!   iterations);
//! * `ingest_batch_8` / `ingest_batch_64` — the same churn pushed
//!   through one group commit: N journal records under a single
//!   fsync, one amortized in-order apply, one publish. Divide by the batch
//!   size and compare against `ingest_1_doc / 2` for the per-delta
//!   amortization (the batch-64 target is ≥5× at 100k docs);
//! * `snapshot_acquire` — what a reader pays to pin an epoch (the
//!   shard snapshot plus the global blend);
//! * `query_baseline` / `query_under_writes` — the same probe query
//!   against an idle engine and against one absorbing a continuous
//!   write stream from a background thread. The serving claim is
//!   that these two are the same order of magnitude: readers never
//!   wait on writes.
//!
//! Plus the crawl fan-out (`live_service_sweep` group, a 16-source
//! corpus behind a simulated 2 ms network round-trip per fetch —
//! crawling real Web 2.0 sources is latency-bound, which is exactly
//! what worker threads overlap):
//!
//! * `sweep_sequential` — a full `crawl_sweep` with 1 worker;
//! * `sweep_parallel_{2,4,8}` — the same sweep fanned across N
//!   workers. The burst is byte-identical in every configuration
//!   (proptest-enforced at the workspace level); only the wall
//!   clock changes. The target is ≥2× throughput at 4 workers.
//!
//! Plus the sharded topology (`live_service_shard` group, the same
//! ~100k-doc corpus behind 1/2/4/8 shards):
//!
//! * `ingest_batch_64_shards_{n}` — whole-corpus churn routed across
//!   every shard: N shards each detach 1/N of the index, in parallel;
//! * `ingest_batch_32_1src_shards_{n}` — churn confined to one
//!   source, i.e. one shard: the write amplification a burst pays is
//!   O(shard), not O(corpus), so throughput scales with the shard
//!   count (target ≥3× at 4 shards vs 1);
//! * `query_scatter_shards_{n}` — the scatter-gather query plan
//!   (gather exact global stats, score each shard, merge top-k). The
//!   merge is bit-identical to the unsharded scorer; the target is
//!   total overhead under 2× `query_baseline`;
//! * `smoke_ingest_shards_8` / `smoke_query_shards_8` — a 1M-doc
//!   synthetic corpus (LCG-keyed short documents) across 8 shards,
//!   smoke-scale evidence the topology holds an order of magnitude
//!   past the study corpus.
//!
//! Plus the cached serving throughput (`live_service_qps` group, see
//! [`bench_qps`]): reader fleets of 16/32 threads driving a
//! zipf-weighted query mix against the 4-shard topology with the
//! snapshot-keyed query cache detached, cold and warm — the ≥10×
//! warm-vs-single-thread claim, with merged-latency p99s.
//!
//! Unlike the other targets this one also *persists* its numbers:
//! the measurements recorded by the criterion shim are written to
//! `BENCH_live.json` at the workspace root, giving the repo a
//! machine-readable perf baseline to track across PRs.

use criterion::{black_box, criterion_group, Criterion};
use obs_analytics::{AlexaPanel, LinkGraph};
use obs_live::{LiveWriter, ShardedLiveService};
use obs_model::{document_text, CorpusDelta, PostId, SourceId};
use obs_search::{BlendWeights, SearchEngine};
use obs_synth::{World, WorldConfig};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A ranking-style world with roughly `posts` opening posts (same
/// sizing rule as the `index_maintenance` target).
fn world_with_posts(posts: usize, seed: u64) -> World {
    World::generate(WorldConfig {
        sources: (posts as f64 / 5.7).ceil() as usize,
        users: 4_000,
        mean_discussions_per_source: 20.0,
        mean_comments_per_discussion: 1.0,
        interaction_rate: 0.05,
        comment_bodies: false,
        ..WorldConfig::ranking_study(seed)
    })
}

/// Probe terms guaranteed to hit: the tags of an indexed post.
fn probe_terms(world: &World) -> Vec<String> {
    let post = world
        .corpus
        .posts()
        .iter()
        .find(|p| !p.tags.is_empty())
        .expect("tagged post");
    post.tags.iter().map(|t| t.as_str().to_owned()).collect()
}

fn bench_scale(c: &mut Criterion, label: &str, world: &World) {
    let panel = AlexaPanel::simulate(world, 1);
    let links = LinkGraph::simulate(world, 2);
    let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let docs = engine.doc_count();
    let probe = probe_terms(world);

    // The churned document: the last post, removed and re-added so
    // every iteration pair leaves the engine where it started.
    let last = PostId::new(world.corpus.posts().len() as u32 - 1);
    let removal = CorpusDelta::for_removals(&world.corpus, &[last]).expect("last post resolves");
    let readd = CorpusDelta::for_posts(&world.corpus, &[last]).expect("last post resolves");

    let mut group = c.benchmark_group(format!("live_service_{label}"));
    group.sample_size(10);

    group.bench_function(format!("publish_only/{docs}_docs"), |b| {
        let writer = LiveWriter::new(engine.clone(), 0);
        b.iter(|| writer.publish());
    });

    // One shard, seeded empty: the corpus streams in as the first
    // commits.
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = engine.clone();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).expect("posts resolve"));
    let dir = temp_shard_dir(label);
    let mut service = ShardedLiveService::start(&seed, 1, &dir).expect("journal in temp dir");
    for burst in all
        .chunks(512)
        .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).expect("posts resolve"))
        .collect::<Vec<_>>()
        .chunks(64)
    {
        service.ingest_batch(burst).expect("load ingest");
    }
    assert_eq!(service.doc_count(), docs);
    group.bench_function(format!("ingest_1_doc/{docs}_docs"), |b| {
        b.iter(|| {
            service.ingest(black_box(&removal)).expect("ingest");
            service.ingest(black_box(&readd)).expect("ingest");
        })
    });

    // Group-commit churn: remove/re-add pairs over distinct posts,
    // so a batch of B deltas nets out to the starting engine every
    // iteration while paying one fsync + one amortized apply + one
    // publish for the burst. Compare (batch time / B) against
    // (ingest_1_doc / 2) for the per-delta amortization.
    let churn_posts: Vec<PostId> = (0..32)
        .map(|i| PostId::new(world.corpus.posts().len() as u32 - 1 - i))
        .collect();
    let batch_64: Vec<CorpusDelta> = churn_posts
        .iter()
        .flat_map(|&p| {
            [
                CorpusDelta::for_removals(&world.corpus, &[p]).expect("churn post resolves"),
                CorpusDelta::for_posts(&world.corpus, &[p]).expect("churn post resolves"),
            ]
        })
        .collect();
    let batch_8: Vec<CorpusDelta> = batch_64[..8].to_vec();
    group.bench_function(format!("ingest_batch_8/{docs}_docs"), |b| {
        b.iter(|| {
            service.ingest_batch(black_box(&batch_8)).expect("ingest");
        })
    });
    group.bench_function(format!("ingest_batch_64/{docs}_docs"), |b| {
        b.iter(|| {
            service.ingest_batch(black_box(&batch_64)).expect("ingest");
        })
    });

    let reader = service.reader();
    group.bench_function(format!("snapshot_acquire/{docs}_docs"), |b| {
        b.iter(|| black_box(reader.pin()))
    });
    group.bench_function(format!("query_baseline/{docs}_docs"), |b| {
        b.iter(|| black_box(reader.query(&probe, 20)))
    });

    // Reader throughput while a writer thread streams deltas through
    // journal → apply → publish as fast as it can.
    let stop = Arc::new(AtomicBool::new(false));
    let writer_stop = Arc::clone(&stop);
    let (writer_removal, writer_readd) = (removal.clone(), readd.clone());
    let writer = std::thread::spawn(move || {
        let mut service = service;
        let mut writes = 0u64;
        while !writer_stop.load(Ordering::Relaxed) {
            service.ingest(&writer_removal).expect("ingest");
            service.ingest(&writer_readd).expect("ingest");
            writes += 2;
        }
        writes
    });
    group.bench_function(format!("query_under_writes/{docs}_docs"), |b| {
        b.iter(|| black_box(reader.query(&probe, 20)))
    });
    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().expect("writer thread");
    println!("  (writer sustained {writes} journaled ingests during the contended bench)");
    group.finish();
    drop(reader);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sweep throughput against worker count: 16 sources, each fetch
/// charged a simulated network round trip. Every iteration resets
/// the high-water marks so the sweep re-crawls the whole corpus —
/// the measured unit is "one full multi-source collection pass".
fn bench_sweep(c: &mut Criterion) {
    use obs_wrappers::{service_for, Crawler, CrawlerConfig, DataService, HighWaterMarks};
    use std::time::Duration;

    let world = World::generate(WorldConfig {
        sources: 16,
        users: 500,
        mean_discussions_per_source: 20.0,
        mean_comments_per_discussion: 1.0,
        interaction_rate: 0.05,
        comment_bodies: false,
        ..WorldConfig::ranking_study(44)
    });
    let round_trip = Duration::from_millis(2);

    let mut group = c.benchmark_group("live_service_sweep");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let label = if workers == 1 {
            "sweep_sequential".to_owned()
        } else {
            format!("sweep_parallel_{workers}")
        };
        let crawler = Crawler::new(CrawlerConfig {
            workers,
            ..CrawlerConfig::default()
        });
        // Services persist across iterations (their token buckets
        // meter on *simulated* time); only the marks reset, so every
        // iteration pays the full latency-bound crawl. A day of
        // simulated idle time per iteration refills every bucket to
        // burst, so all four labels sweep under identical full-bucket
        // pressure — without it the sequential label would bank more
        // refill time (sum of waits vs max) and the comparison would
        // partly measure bucket starvation instead of worker overlap.
        let mut services: Vec<Box<dyn DataService + '_>> = world
            .corpus
            .sources()
            .iter()
            .map(|s| {
                Box::new(obs_wrappers::SimulatedLatency::wrap(
                    service_for(&world.corpus, s.id, world.now).unwrap(),
                    round_trip,
                )) as Box<dyn DataService + '_>
            })
            .collect();
        let mut clock = obs_model::Clock::starting_at(world.now);
        group.bench_function(format!("{label}/16_sources"), |b| {
            b.iter(|| {
                clock.advance(obs_model::Duration(86_400));
                let mut marks = HighWaterMarks::new();
                let (deltas, report) = crawler
                    .crawl_sweep(&mut services, &mut clock, &mut marks)
                    .expect("sweep");
                assert_eq!(report.sources, 16);
                black_box((deltas, report))
            })
        });
    }
    group.finish();
}

fn temp_shard_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "obs_live_bench_shards_{}_{}_{}",
        std::process::id(),
        tag,
        n
    ))
}

/// The sharded topology against the same ~100k-doc corpus: routed
/// churn (whole-corpus and single-source) plus scatter-gather
/// queries, at 1/2/4/8 shards.
fn bench_shard(c: &mut Criterion, world: &World) {
    let panel = AlexaPanel::simulate(world, 1);
    let links = LinkGraph::simulate(world, 2);
    let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let docs = engine.doc_count();
    let probe = probe_terms(world);

    // The sharded seed: the engine's static signals with zero
    // documents; the corpus streams back in as routed deltas.
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = engine.clone();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).expect("posts resolve"));
    let load: Vec<CorpusDelta> = all
        .chunks(512)
        .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).expect("posts resolve"))
        .collect();

    // Whole-corpus churn: remove/re-add pairs over consecutive posts
    // (hash-spread across every shard), netting out to the starting
    // engine each iteration.
    let churn_posts: Vec<PostId> = (0..32)
        .map(|i| PostId::new(world.corpus.posts().len() as u32 - 1 - i))
        .collect();
    let batch_64: Vec<CorpusDelta> = churn_posts
        .iter()
        .flat_map(|&p| {
            [
                CorpusDelta::for_removals(&world.corpus, &[p]).expect("churn post resolves"),
                CorpusDelta::for_posts(&world.corpus, &[p]).expect("churn post resolves"),
            ]
        })
        .collect();

    // Single-source churn: every touched post belongs to one source,
    // so the burst routes to exactly one shard — the write
    // amplification is O(shard), which is the scaling claim.
    let one_source: Vec<PostId> = {
        let mut by_source: std::collections::HashMap<SourceId, Vec<PostId>> =
            std::collections::HashMap::new();
        let mut found = None;
        for p in &all {
            let (source, _) = document_text(&world.corpus, *p).expect("post resolves");
            let posts = by_source.entry(source).or_default();
            posts.push(*p);
            if posts.len() >= 16 {
                found = Some(source);
                break;
            }
        }
        let source = found.expect("some source hosts 16 posts");
        by_source.remove(&source).expect("collected")
    };
    let batch_1src: Vec<CorpusDelta> = one_source
        .iter()
        .flat_map(|&p| {
            [
                CorpusDelta::for_removals(&world.corpus, &[p]).expect("churn post resolves"),
                CorpusDelta::for_posts(&world.corpus, &[p]).expect("churn post resolves"),
            ]
        })
        .collect();

    let mut group = c.benchmark_group("live_service_shard");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let dir = temp_shard_dir(&format!("{shards}"));
        let mut service =
            ShardedLiveService::start(&seed, shards, &dir).expect("journals in temp dir");
        for burst in load.chunks(64) {
            service.ingest_batch(burst).expect("load ingest");
        }
        assert_eq!(service.doc_count(), docs);

        group.bench_function(
            format!("ingest_batch_64_shards_{shards}/{docs}_docs"),
            |b| b.iter(|| service.ingest_batch(black_box(&batch_64)).expect("ingest")),
        );
        group.bench_function(
            format!("ingest_batch_32_1src_shards_{shards}/{docs}_docs"),
            |b| {
                b.iter(|| {
                    service
                        .ingest_batch(black_box(&batch_1src))
                        .expect("ingest")
                })
            },
        );
        let reader = service.reader();
        group.bench_function(format!("query_scatter_shards_{shards}/{docs}_docs"), |b| {
            b.iter(|| black_box(reader.query(&probe, 20)))
        });
        drop(reader);
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

/// Smoke scale: a synthetic 1M-document corpus (LCG-keyed short
/// documents over a 4096-term vocabulary) across 8 shards. Not a
/// comparison target — evidence the sharded topology keeps serving
/// an order of magnitude past the study corpus.
fn bench_shard_smoke(c: &mut Criterion) {
    const DOCS: u32 = 1_000_000;
    const SHARDS: usize = 8;

    // A tiny real world supplies the analytics-derived seed; the
    // synthetic documents ride on sources unknown to the blend
    // (static score 0), which is fine for a smoke label.
    let world = world_with_posts(1_000, 45);
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = engine.clone();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).expect("posts resolve"));

    let doc_text = |i: u32| {
        // Keyed off a multiplicative hash so term collisions spread;
        // ~244 documents share each t-term.
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        format!(
            "t{} t{} t{} filler{}",
            h % 4096,
            (h >> 12) % 4096,
            (h >> 24) % 4096,
            h % 17
        )
    };
    let dir = temp_shard_dir("smoke_1m");
    let mut service = ShardedLiveService::start(&seed, SHARDS, &dir).expect("journals in temp dir");
    let mut next = 0u32;
    while next < DOCS {
        // One burst: 61 deltas of 8192 documents under one publish
        // per shard.
        let mut burst = Vec::with_capacity(61);
        for _ in 0..61 {
            if next >= DOCS {
                break;
            }
            let mut delta = CorpusDelta::new();
            let end = (next + 8192).min(DOCS);
            for i in next..end {
                delta.add_doc(
                    PostId::new(1_000_000 + i),
                    SourceId::new(10_000 + i % 65_536),
                    doc_text(i),
                );
            }
            next = end;
            burst.push(delta);
        }
        service.ingest_batch(&burst).expect("smoke load");
    }
    assert_eq!(service.doc_count(), DOCS as usize);

    // Churn confined to one synthetic source (ids congruent mod
    // 65 536 share a source, hence a shard).
    let churn: Vec<CorpusDelta> = (0..16u32)
        .flat_map(|k| {
            let i = k * 65_536; // all on SourceId 10_000
            let post = PostId::new(1_000_000 + i);
            let mut removal = CorpusDelta::new();
            removal.remove_doc(post);
            let mut readd = CorpusDelta::new();
            readd.add_doc(post, SourceId::new(10_000), doc_text(i));
            [removal, readd]
        })
        .collect();
    let probe: Vec<String> = vec!["t7".into(), "t13".into()];

    let mut group = c.benchmark_group("live_service_shard");
    group.sample_size(10);
    group.bench_function(format!("smoke_ingest_shards_{SHARDS}/{DOCS}_docs"), |b| {
        b.iter(|| service.ingest_batch(black_box(&churn)).expect("ingest"))
    });
    let reader = service.reader();
    group.bench_function(format!("smoke_query_shards_{SHARDS}/{DOCS}_docs"), |b| {
        b.iter(|| black_box(reader.query(&probe, 20)))
    });
    group.finish();
    drop(reader);
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

/// Multi-reader QPS under the snapshot-keyed query cache
/// (`live_service_qps` group, the ~100k-doc corpus behind 4 shards):
///
/// * `readers_16_nocache` — 16 reader threads hammering the scatter
///   plan directly, a zipf-weighted mix over ~64 tag-derived
///   queries: the throughput floor;
/// * `readers_16_cold` — the same storm through a freshly attached
///   (empty) [`QueryCache`]: every key's first ask pays the plan plus
///   the fill, repeats within the lane already hit;
/// * `readers_16_warm` / `readers_32_warm` — the steady state: no
///   ingest between lanes, so every epoch key is resident and
///   queries are served from the cache. The serving claim is ≥10×
///   the single-thread `query_baseline` throughput at 16 readers.
///
/// These lanes time themselves (one wall clock across the thread
/// fleet, per-query latencies merged for p99) and export through
/// [`criterion::record_measurement`]: `mean_ns` is wall time divided
/// by total queries, so QPS = 1e9 / mean_ns.
fn bench_qps(world: &World) {
    use obs_live::{CacheMetrics, QueryCache, ShardedReader};
    use obs_telemetry::Registry;
    use std::time::Instant;

    const SHARDS: usize = 4;

    let panel = AlexaPanel::simulate(world, 1);
    let links = LinkGraph::simulate(world, 2);
    let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let docs = engine.doc_count();
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = engine.clone();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).expect("posts resolve"));
    let dir = temp_shard_dir("qps");
    let mut service = ShardedLiveService::start(&seed, SHARDS, &dir).expect("journals in temp dir");
    for burst in all
        .chunks(512)
        .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).expect("posts resolve"))
        .collect::<Vec<_>>()
        .chunks(64)
    {
        service.ingest_batch(burst).expect("load ingest");
    }
    assert_eq!(service.doc_count(), docs);

    // ~64 two-tag queries drawn from the corpus vocabulary, ranked by
    // first appearance; the zipf CDF (weight ∝ 1/rank) concentrates
    // the mix on the head the way production query logs do.
    let mut tags: Vec<String> = Vec::new();
    for post in world.corpus.posts() {
        for tag in &post.tags {
            let t = tag.as_str().to_owned();
            if !tags.contains(&t) {
                tags.push(t);
            }
        }
        if tags.len() >= 65 {
            break;
        }
    }
    assert!(tags.len() >= 8, "corpus too tag-poor for a query mix");
    let pool: Vec<Vec<String>> = (0..tags.len() - 1)
        .map(|i| vec![tags[i].clone(), tags[(i * 7 + 1) % tags.len()].clone()])
        .collect();
    let cdf: Vec<f64> = {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..pool.len())
            .map(|rank| {
                acc += 1.0 / (rank as f64 + 1.0);
                acc
            })
            .collect();
        for v in cdf.iter_mut() {
            *v /= acc;
        }
        cdf
    };

    // One lane: `readers` threads, each sampling `per_thread` queries
    // from the zipf mix through its own LCG stream. Returns the
    // wall-clock mean per query (ns).
    let lane = |label: &str, reader: &ShardedReader, readers: usize, per_thread: usize| -> u128 {
        let start = Instant::now();
        let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|t| {
                    let reader = reader.clone();
                    let pool = &pool;
                    let cdf = &cdf;
                    scope.spawn(move || {
                        let mut state = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5;
                        let mut lat = Vec::with_capacity(per_thread);
                        for _ in 0..per_thread {
                            state = state
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695_040_888_963_407);
                            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                            let pick = cdf.partition_point(|&c| c < u).min(pool.len() - 1);
                            let t0 = Instant::now();
                            black_box(reader.query(&pool[pick], 10));
                            lat.push(t0.elapsed().as_nanos() as u64);
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        });
        let wall = start.elapsed().as_nanos();
        let mut merged: Vec<u64> = latencies.into_iter().flatten().collect();
        merged.sort_unstable();
        let total = merged.len();
        let mean_ns = wall / total as u128;
        let p99_ns = merged[(total * 99).div_ceil(100).max(1) - 1] as u128;
        criterion::record_measurement(criterion::Measurement {
            label: format!("live_service_qps/{label}/{docs}_docs"),
            min_ns: merged[0] as u128,
            mean_ns,
            p99_ns,
            samples: total,
        });
        println!(
            "  ({label}: {:.0} queries/s across {readers} readers)",
            1e9 / mean_ns as f64
        );
        mean_ns
    };

    println!("\nbenchmark group: live_service_qps");
    // Single-thread uncached reference, same mix — the denominator of
    // the ≥10× claim (mirrors `query_baseline` but on this topology).
    let plain = service.reader();
    let baseline_mean = lane("readers_1_nocache", &plain, 1, 256);
    lane("readers_16_nocache", &plain, 16, 128);

    // Attach the cache: the cold lane fills it, the warm lanes serve
    // from it (no ingest in between, so every epoch key stays live).
    let registry = Registry::new();
    let cache_metrics = CacheMetrics::new(&registry);
    let service =
        service.with_query_cache(QueryCache::new(4096).with_metrics(cache_metrics.clone()));
    let cached = service.reader();
    lane("readers_16_cold", &cached, 16, 256);
    let warm_mean = lane("readers_16_warm", &cached, 16, 1024);
    lane("readers_32_warm", &cached, 32, 1024);
    println!(
        "  (cache: {} hits, {} misses, {} fills; warm speedup vs 1-thread uncached: {:.1}x)",
        cache_metrics.hits(),
        cache_metrics.misses(),
        cache_metrics.fills(),
        baseline_mean as f64 / warm_mean as f64
    );

    drop((plain, cached, service));
    std::fs::remove_dir_all(&dir).ok();
}

/// The telemetry tax (`telemetry_overhead` group): what a serving
/// thread pays per recording (`counter_inc`, `histogram_record` —
/// one Relaxed atomic RMW each, target well under 50 ns), what a
/// metrics scraper pays to walk a populated registry
/// (`registry_snapshot`), and what full instrumentation adds to a
/// scatter-gather query over the ~10k-doc corpus at 2 shards
/// (`query_instrumented_2shards` vs `query_plain_2shards`, target
/// <5% apart).
fn bench_telemetry(c: &mut Criterion, world: &World) {
    use obs_live::ShardMetrics;
    use obs_telemetry::{Counter, Histogram, Registry};

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);

    let counter = Counter::new();
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));

    // A striding value so every iteration lands in a different
    // bucket — the worst case for cache-friendly recording.
    let hist = Histogram::new();
    let mut v = 1u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(black_box(v >> 16));
        })
    });

    // A registry populated the way the examples populate it: the
    // full sharded instrument set at 4 shards, everything recorded
    // at least once so no series shortcuts to empty.
    let registry = Registry::new();
    let metrics = ShardMetrics::new(&registry, 4);
    for shard in 0..4usize {
        let _unused: Result<(), obs_live::LiveError> =
            metrics.time_shard_commit(shard, 1, |_| Ok(()));
    }
    group.bench_function("registry_snapshot", |b| {
        b.iter(|| black_box(registry.snapshot()))
    });

    // The same scatter-gather query with and without stage tracing.
    let panel = AlexaPanel::simulate(world, 1);
    let links = LinkGraph::simulate(world, 2);
    let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let docs = engine.doc_count();
    let probe = probe_terms(world);
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = engine.clone();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).expect("posts resolve"));
    let dir = temp_shard_dir("telemetry");
    let mut service = ShardedLiveService::start(&seed, 2, &dir).expect("journals in temp dir");
    for burst in all
        .chunks(512)
        .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).expect("posts resolve"))
        .collect::<Vec<_>>()
        .chunks(64)
    {
        service.ingest_batch(burst).expect("load ingest");
    }
    assert_eq!(service.doc_count(), docs);

    let plain = service.reader();
    group.bench_function(format!("query_plain_2shards/{docs}_docs"), |b| {
        b.iter(|| black_box(plain.query(&probe, 20)))
    });
    let service = service.with_metrics(ShardMetrics::new(&registry, 2));
    let instrumented = service.reader();
    group.bench_function(format!("query_instrumented_2shards/{docs}_docs"), |b| {
        b.iter(|| black_box(instrumented.query(&probe, 20)))
    });
    group.finish();
    drop((plain, instrumented, service));
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_live_service(c: &mut Criterion) {
    let small = world_with_posts(10_000, 42);
    bench_scale(c, "10k", &small);
    bench_telemetry(c, &small);
    let large = world_with_posts(100_000, 43);
    bench_scale(c, "100k", &large);
    bench_shard(c, &large);
    bench_qps(&large);
    bench_shard_smoke(c);
    bench_sweep(c);
}

criterion_group!(benches, bench_live_service);

/// Writes the baseline `BENCH_live.json` at the workspace root from
/// the measurements the criterion shim recorded during this run.
fn write_baseline() {
    let measurements = criterion::take_measurements();
    if measurements.is_empty() {
        return;
    }
    let entries: Vec<Value> = measurements
        .iter()
        .map(|m| {
            json!({
                "label": (m.label.as_str()),
                "min_ns": (m.min_ns as u64),
                "mean_ns": (m.mean_ns as u64),
                "p99_ns": (m.p99_ns as u64),
                "samples": m.samples,
            })
        })
        .collect();
    let doc = json!({
        "bench": "live_service",
        "schema": 2,
        "unit": "ns/iter",
        "note": "written by `cargo bench -p obs_bench --bench live_service`; \
                 shim-timed wall clock, good for order-of-magnitude tracking",
        "measurements": (Value::Array(entries)),
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_live.json");
    let text = serde_json::to_string_pretty(&doc).expect("baseline serializes");
    match std::fs::write(&path, text + "\n") {
        Ok(()) => println!("\nwrote perf baseline: {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}

fn main() {
    benches();
    write_baseline();
}
