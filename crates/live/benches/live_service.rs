//! The costs of the serving layer that the end-to-end benchmark
//! (`e2ebench/`, gated by `BENCHMARK.json`) cannot see on its own:
//!
//! * the telemetry tax (`telemetry_overhead` lanes, see
//!   [`bench_telemetry`]): per-recording costs, a registry walk, and
//!   one scatter-gather query with and without instrumentation;
//! * the crawl fan-out (`live_service_sweep` lanes, a 16-source
//!   corpus behind a simulated 2 ms network round-trip per fetch —
//!   crawling real Web 2.0 sources is latency-bound, which is exactly
//!   what worker threads overlap; e2ebench crawls with a fixed 2
//!   workers):
//!   * `sweep_sequential` — a full `crawl_sweep` with 1 worker;
//!   * `sweep_parallel_{2,4,8}` — the same sweep fanned across N
//!     workers. The burst is byte-identical in every configuration
//!     (proptest-enforced at the workspace level); only the wall
//!     clock changes. The target is ≥2× throughput at 4 workers;
//! * the 1M-doc smoke (`live_service_shard` lanes,
//!   `smoke_ingest_shards_8` / `smoke_query_shards_8`): a synthetic
//!   corpus across 8 shards, smoke-scale evidence the topology holds
//!   an order of magnitude past the study corpus.
//!
//! Run with `cargo bench -p obs_live --bench live_service`. The
//! measurements are written to `BENCH_live.json` at the workspace
//! root, stamped with the machine's available parallelism.

use obs_analytics::{AlexaPanel, LinkGraph};
use obs_live::ShardedLiveService;
use obs_model::{CorpusDelta, PostId, SourceId};
use obs_search::{BlendWeights, SearchEngine};
use obs_synth::{World, WorldConfig};
use serde_json::{json, Value};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A labelled routine behind a timing loop: given `iters`, it runs
/// the routine that many times and returns the elapsed wall clock.
type Lane<'a> = (String, Box<dyn FnMut(u32) -> Duration + 'a>);

/// Wraps `routine` in a [`Lane`]'s timing loop.
fn lane<'a, O>(label: impl Into<String>, mut routine: impl FnMut() -> O + 'a) -> Lane<'a> {
    let time = move |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        start.elapsed()
    };
    (label.into(), Box::new(time))
}

/// Times `lanes` over `samples` rounds and appends one measurement
/// per lane to `out`. Each lane first runs once as an unrecorded
/// warm-up; a lane whose warm-up took under 10 µs runs 100
/// iterations per sample, any other one. Every round takes one
/// sample of each lane, in alternating order, so host drift hits all
/// lanes alike. Reported per iteration: min, mean and nearest-rank
/// p99 over the samples.
fn sample(out: &mut Vec<Value>, samples: usize, mut lanes: Vec<Lane<'_>>) {
    let iters: Vec<u32> = lanes
        .iter_mut()
        .map(|(_, run)| {
            if run(1) < Duration::from_micros(10) {
                100
            } else {
                1
            }
        })
        .collect();
    let mut times = vec![Vec::with_capacity(samples); lanes.len()];
    let mut order: Vec<usize> = (0..lanes.len()).collect();
    for _ in 0..samples {
        for &i in &order {
            times[i].push(lanes[i].1(iters[i]) / iters[i]);
        }
        order.reverse();
    }
    for (((label, _), mut t), iters) in lanes.into_iter().zip(times).zip(iters) {
        t.sort_unstable();
        let (min, p99) = (t[0], t[(samples * 99).div_ceil(100) - 1]);
        let mean = t.iter().sum::<Duration>() / samples as u32;
        println!(
            "{label:<58} min {min:>11.2?} mean {mean:>11.2?} p99 {p99:>11.2?} \
             ({samples} x {iters})"
        );
        out.push(json!({
            "label": label,
            "min_ns": (min.as_nanos() as u64),
            "mean_ns": (mean.as_nanos() as u64),
            "p99_ns": (p99.as_nanos() as u64),
            "samples": samples,
        }));
    }
}

/// A ranking-style world with roughly `posts` opening posts (about
/// 5.7 per source).
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
fn bench_sweep(out: &mut Vec<Value>) {
    use obs_wrappers::{service_for, Crawler, CrawlerConfig, DataService, HighWaterMarks};

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
        let sweep = || {
            clock.advance(obs_model::Duration(86_400));
            let mut marks = HighWaterMarks::new();
            let (deltas, report) = crawler
                .crawl_sweep(&mut services, &mut clock, &mut marks)
                .expect("sweep");
            assert_eq!(report.sources, 16);
            (deltas, report)
        };
        let label = format!("live_service_sweep/{label}/16_sources");
        sample(out, 10, vec![lane(label, sweep)]);
    }
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
fn bench_shard_smoke(out: &mut Vec<Value>) {
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

    let ingest = || service.ingest_batch(black_box(&churn)).expect("ingest");
    let label = format!("live_service_shard/smoke_ingest_shards_{SHARDS}/{DOCS}_docs");
    sample(out, 10, vec![lane(label, ingest)]);
    let reader = service.reader();
    let label = format!("live_service_shard/smoke_query_shards_{SHARDS}/{DOCS}_docs");
    sample(out, 10, vec![lane(label, || reader.query(&probe, 20))]);
    drop(reader);
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

/// The telemetry tax (`telemetry_overhead` lanes): what a serving
/// thread pays per recording (`counter_inc`, `histogram_record` —
/// one Relaxed atomic RMW each, target well under 50 ns), what a
/// metrics scraper pays to walk a populated registry
/// (`registry_snapshot`), and what full instrumentation adds to a
/// scatter-gather query over the ~10k-doc corpus at 2 shards
/// (`query_instrumented_2shards` vs `query_plain_2shards`, sampled
/// interleaved, target <5% apart).
fn bench_telemetry(out: &mut Vec<Value>, world: &World) {
    use obs_live::ShardMetrics;
    use obs_telemetry::{Counter, Histogram, Registry};

    let counter = Counter::new();
    let label = "telemetry_overhead/counter_inc";
    sample(out, 10, vec![lane(label, || counter.inc())]);

    // A striding value so every iteration lands in a different
    // bucket — the worst case for cache-friendly recording.
    let hist = Histogram::new();
    let mut v = 1u64;
    let record = || {
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        hist.record(black_box(v >> 16));
    };
    sample(
        out,
        10,
        vec![lane("telemetry_overhead/histogram_record", record)],
    );

    // A registry populated the way the examples populate it: the
    // full sharded instrument set at 4 shards, everything recorded
    // at least once so no series shortcuts to empty.
    let registry = Registry::new();
    let metrics = ShardMetrics::new(&registry, 4);
    for shard in 0..4usize {
        let _unused: Result<(), obs_live::LiveError> =
            metrics.time_shard_commit(shard, 1, |_| Ok(()));
    }
    let label = "telemetry_overhead/registry_snapshot";
    sample(out, 10, vec![lane(label, || registry.snapshot())]);

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

    // A query is slow enough to be timed once per sample, so ten
    // samples let one scheduler hiccup set the min; the <5% budget
    // needs a min over many more, taken alternately from both lanes.
    let plain = service.reader();
    let service = service.with_metrics(ShardMetrics::new(&registry, 2));
    let instrumented = service.reader();
    let lanes = vec![
        lane(
            format!("telemetry_overhead/query_plain_2shards/{docs}_docs"),
            || plain.query(&probe, 20),
        ),
        lane(
            format!("telemetry_overhead/query_instrumented_2shards/{docs}_docs"),
            || instrumented.query(&probe, 20),
        ),
    ];
    sample(out, 200, lanes);
    drop((plain, instrumented, service));
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes `BENCH_live.json` at the workspace root, stamped with the
/// host's available parallelism (`nproc`): on a 2-core host a
/// multi-worker lane measures oversubscription, not scaling.
fn write_baseline(measurements: Vec<Value>) {
    let doc = json!({
        "bench": "live_service",
        "schema": 3,
        "nproc": (std::thread::available_parallelism().map_or(0, |n| n.get())),
        "unit": "ns/iter",
        "note": "written by `cargo bench -p obs_live --bench live_service`; \
                 wall clock of one run, good for order-of-magnitude tracking",
        "measurements": (Value::Array(measurements)),
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_live.json");
    let text = serde_json::to_string_pretty(&doc).expect("baseline serializes");
    match std::fs::write(&path, text + "\n") {
        Ok(()) => println!("\nwrote perf baseline: {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}

fn main() {
    let mut measurements = Vec::new();
    bench_telemetry(&mut measurements, &world_with_posts(10_000, 42));
    bench_shard_smoke(&mut measurements);
    bench_sweep(&mut measurements);
    write_baseline(measurements);
}
