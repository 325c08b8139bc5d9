//! Sharded serving: the corpus split across four shards behind one
//! scatter-gather query plan, with per-shard crash recovery.
//!
//! The demo builds an engine for the whole corpus, then replays the
//! same content into two topologies side by side: a one-shard and a
//! four-shard [`ShardedLiveService`] (hash of
//! the source id picks the shard; each shard owns its own journal,
//! writer and snapshot store, and the routed sub-batches of a burst
//! commit in parallel under per-shard group commits). Queries fan
//! out over every shard, gather exact global statistics, and merge
//! the per-shard top-k — the demo asserts the merged rankings are
//! **bit-identical** to the one-shard service's, not merely close.
//!
//! Then the sharded service is dropped mid-flight — a crash — and
//! rebuilt with [`ShardedLiveService::recover`]: every shard replays
//! its *own* journal, so the recovery cost is proportional to the
//! largest shard, not the corpus. The recovered rankings are
//! compared against the pre-crash ones: identical again.
//!
//! The sharded service runs instrumented
//! ([`ShardMetrics`]): every routed burst records its fan-out width
//! and per-shard commit latency/outcome, and every scatter-gather
//! query records its gather, per-shard scoring and whole-plan
//! timings. A snapshot-keyed [`QueryCache`] rides along with its own
//! hit/miss/fill/eviction counters — the demo repeats a query so the
//! hit path shows up in the exposition. The demo ends with the
//! registry's text exposition.
//!
//! ```sh
//! cargo run --release --example sharded_live
//! ```

use informing_observers::analytics::{AlexaPanel, LinkGraph};
use informing_observers::live::{CacheMetrics, QueryCache, ShardMetrics, ShardedLiveService};
use informing_observers::model::{CorpusDelta, PostId};
use informing_observers::search::{BlendWeights, SearchEngine};
use informing_observers::synth::{World, WorldConfig};
use informing_observers::telemetry::Registry;

const SHARDS: usize = 4;

fn main() {
    let world = World::generate(WorldConfig {
        sources: 120,
        users: 600,
        ..WorldConfig::ranking_study(7)
    });
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());

    // The sharded seed carries the analytics-derived static signals
    // but zero documents: an existing index cannot be partitioned
    // after the fact, so the corpus streams in as routed deltas.
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = engine.clone();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
    println!(
        "corpus: {} docs across {} sources, replayed into 1 and {} shards",
        all.len(),
        world.corpus.sources().len(),
        SHARDS
    );

    let base = std::env::temp_dir().join(format!("sharded_live_example_{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let flat_dir = base.join("flat");
    let shard_dir = base.join("shards");

    let registry = Registry::new();
    let metrics = ShardMetrics::new(&registry, SHARDS);
    let cache_metrics = CacheMetrics::new(&registry);
    let mut flat = ShardedLiveService::start(&seed, 1, &flat_dir).unwrap();
    let mut sharded = ShardedLiveService::start(&seed, SHARDS, &shard_dir)
        .unwrap()
        .with_metrics(metrics.clone())
        .with_query_cache(QueryCache::new(128).with_metrics(cache_metrics.clone()));

    // The same burst stream through both topologies: chunks of posts
    // as deltas, group-committed sixteen at a time. In the sharded
    // service each burst is routed and committed per shard, in
    // parallel, under one fsync per touched shard.
    let deltas: Vec<CorpusDelta> = all
        .chunks(64)
        .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).unwrap())
        .collect();
    for burst in deltas.chunks(16) {
        flat.ingest_batch(burst).unwrap();
        sharded.ingest_batch(burst).unwrap();
    }
    let per_shard: Vec<usize> = (0..SHARDS)
        .map(|i| sharded.shard_engine(i).doc_count())
        .collect();
    println!(
        "ingested: sharded doc counts per shard {per_shard:?} (total {}), one shard {}",
        sharded.doc_count(),
        flat.doc_count()
    );

    // Scatter-gather vs single index: bit-identical rankings. The
    // first ask fills the snapshot-keyed query cache, the second is
    // served from it — same epochs, same entry, same bits.
    let probe: Vec<String> = vec!["museum".into(), "festival".into(), "market".into()];
    let reader = sharded.reader();
    let sharded_hits = reader.query(&probe, 10);
    assert_eq!(sharded_hits, reader.query(&probe, 10));
    assert_eq!(
        cache_metrics.hits(),
        1,
        "the repeat ask must be a cache hit"
    );
    let flat_hits = flat.reader().query(&probe, 10);
    assert_eq!(
        sharded_hits, flat_hits,
        "scatter-gather must reproduce the one-shard ranking bit for bit"
    );
    println!("\ntop sources, identical from both topologies:");
    for hit in &sharded_hits {
        println!(
            "  #{:<2} {}  score {:.4}",
            hit.position, hit.source, hit.score
        );
    }

    // Crash: the sharded service is dropped without ceremony. Every
    // shard then recovers from its own journal.
    let pre_seqs = sharded.seqs();
    drop(sharded);
    let (recovered, reports) = ShardedLiveService::recover(&seed, SHARDS, &shard_dir).unwrap();
    println!("\nrecovered {} shards independently:", reports.len());
    for (i, report) in reports.iter().enumerate() {
        println!(
            "  shard {i}: image at seq {}, replayed {} records to seq {} (torn tail: {})",
            report.checkpoint_seq, report.replayed, report.recovered_seq, report.torn_tail_dropped
        );
    }
    assert_eq!(recovered.seqs(), pre_seqs);
    assert_eq!(
        recovered.reader().query(&probe, 10),
        flat_hits,
        "per-shard recovery must land on the identical ranking"
    );
    println!("post-recovery rankings: bit-identical to pre-crash. ✓");

    // What the instrumented run measured: commit balance across the
    // shards, then the registry's full text exposition.
    println!("\ncommit balance (shard, commits, failures):");
    for (shard, commits, failures) in metrics.commit_counts() {
        println!("  shard {shard}: {commits} commits, {failures} failures");
    }
    println!("\n== metrics exposition ==");
    for line in registry.render_text().lines() {
        println!("{line}");
    }

    std::fs::remove_dir_all(&base).ok();
}
