//! The costs of the serving layer that the end-to-end benchmark
//! (`e2ebench/`, gated by `BENCHMARK.json`) cannot see on its own:
//!
//! * the telemetry tax (`telemetry_overhead` group, see
//!   [`bench_telemetry`]): per-recording costs, a registry walk, and
//!   one scatter-gather query with and without instrumentation;
//! * the crawl fan-out (`live_service_sweep` group, a 16-source
//!   corpus behind a simulated 2 ms network round-trip per fetch —
//!   crawling real Web 2.0 sources is latency-bound, which is exactly
//!   what worker threads overlap; e2ebench crawls with a fixed 2
//!   workers):
//!   * `sweep_sequential` — a full `crawl_sweep` with 1 worker;
//!   * `sweep_parallel_{2,4,8}` — the same sweep fanned across N
//!     workers. The burst is byte-identical in every configuration
//!     (proptest-enforced at the workspace level); only the wall
//!     clock changes. The target is ≥2× throughput at 4 workers;
//! * the 1M-doc smoke (`live_service_shard` group,
//!   `smoke_ingest_shards_8` / `smoke_query_shards_8`): a synthetic
//!   corpus across 8 shards, smoke-scale evidence the topology holds
//!   an order of magnitude past the study corpus.
//!
//! Unlike the other targets this one also *persists* its numbers:
//! the measurements recorded by the criterion shim are written to
//! `BENCH_live.json` at the workspace root, stamped with the
//! machine's available parallelism.

use criterion::{black_box, criterion_group, Criterion};
use obs_analytics::{AlexaPanel, LinkGraph};
use obs_live::ShardedLiveService;
use obs_model::{CorpusDelta, PostId, SourceId};
use obs_search::{BlendWeights, SearchEngine};
use obs_synth::{World, WorldConfig};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    bench_telemetry(c, &world_with_posts(10_000, 42));
    bench_shard_smoke(c);
    bench_sweep(c);
}

criterion_group!(benches, bench_live_service);

/// Writes the baseline `BENCH_live.json` at the workspace root from
/// the measurements the criterion shim recorded during this run,
/// stamped with the host's available parallelism (`nproc`): on a
/// 2-core host a multi-worker lane measures oversubscription, not
/// scaling.
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
        "schema": 3,
        "nproc": (std::thread::available_parallelism().map_or(0, |n| n.get())),
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
