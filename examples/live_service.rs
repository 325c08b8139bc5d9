//! Live serving: readers query while crawl ticks stream in, and a
//! crash is survived by replaying the delta journal.
//!
//! The demo starts a one-shard [`ShardedLiveService`] from an empty
//! seed and commits the content up to the midpoint of history as its
//! boot state; the next commit writes a durable checkpoint image of
//! that state and compacts the journal behind it. Three reader threads then hammer the service with
//! queries while the main thread sweeps the sources in
//! group-committed bursts ([`ShardedLiveService::tick_sweep`]): each
//! burst crawls a batch of sources — fanned across **4 worker
//! threads** (`CrawlerConfig::workers`), joined back in source order
//! so the burst is byte-identical to a sequential crawl — journals
//! every fresh per-source delta under **one** fsync, applies them in
//! one amortized copy-on-write pass, and publishes one immutable
//! snapshot. Readers never block on an in-flight apply; they just
//! keep observing monotonically newer epochs — one per burst, never
//! a mid-burst state.
//!
//! Finally the service is dropped without ceremony — a crash — and
//! [`ShardedLiveService::recover`] rebuilds it from the last
//! checkpoint image plus the journal tail past it. The recovered
//! rankings are compared against the pre-crash service:
//! bit-identical.
//!
//! The whole run is instrumented through one
//! [`Registry`](informing_observers::telemetry::Registry): the
//! crawler records per-fetch latency and item counts
//! ([`CrawlMetrics`]), the service records per-stage commit timings,
//! group-commit batch sizes and commit outcomes ([`ShardMetrics`]),
//! and the demo ends with the registry's text exposition instead of
//! hand-rolled timers.
//!
//! ```sh
//! cargo run --release --example live_service
//! ```

use informing_observers::analytics::{AlexaPanel, LinkGraph};
use informing_observers::live::{ShardMetrics, ShardedLiveService};
use informing_observers::model::{Clock, CorpusDelta, PostId, Timestamp};
use informing_observers::search::{BlendWeights, SearchEngine};
use informing_observers::synth::{World, WorldConfig};
use informing_observers::telemetry::Registry;
use informing_observers::wrappers::{
    service_for, CrawlMetrics, Crawler, CrawlerConfig, DataService, HighWaterMarks,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    let world = World::generate(WorldConfig {
        sources: 120,
        users: 600,
        ..WorldConfig::ranking_study(7)
    });
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());

    // The seed carries the static signals over an empty index; the
    // content up to the midpoint is the "state at boot".
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = engine.clone();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
    let midpoint = Timestamp(world.now.seconds() / 2);
    let (recent, boot): (Vec<PostId>, Vec<PostId>) = all
        .iter()
        .partition(|&&p| world.corpus.post(p).unwrap().published > midpoint);

    let journal_dir = std::env::temp_dir().join(format!("obs_live_example_{}", std::process::id()));
    let registry = Arc::new(Registry::new());
    let metrics = ShardMetrics::new(&registry, 1);
    let mut service = ShardedLiveService::start(&seed, 1, &journal_dir)
        .expect("journal in temp dir")
        .with_metrics(metrics.clone());
    service
        .ingest(&CorpusDelta::for_posts(&world.corpus, &boot).unwrap())
        .expect("boot commit");
    // The next commit finds the journal holding more bytes than the
    // last image (none yet), so it first images the boot state and
    // compacts the journal through it.
    let boot_seq = service.seqs()[0];
    println!(
        "boot state: {} docs indexed, {} posts still unobserved",
        service.doc_count(),
        recent.len()
    );

    // Three reader threads query continuously while the writer works.
    let stop = Arc::new(AtomicBool::new(false));
    let queries_served = Arc::new(AtomicU64::new(0));
    let epochs_seen = Arc::new(AtomicU64::new(0));
    let terms = vec!["duomo".to_owned(), "rooftop".to_owned()];
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let reader = service.reader();
            let stop = Arc::clone(&stop);
            let queries = Arc::clone(&queries_served);
            let epochs = Arc::clone(&epochs_seen);
            let terms = terms.clone();
            scope.spawn(move || {
                let mut last_seqs = reader.pin().seqs();
                while !stop.load(Ordering::Relaxed) {
                    let pin = reader.pin();
                    if pin.seqs() != last_seqs {
                        last_seqs = pin.seqs();
                        epochs.fetch_add(1, Ordering::Relaxed);
                    }
                    let hits = reader.query_pinned(&pin, &terms, 10);
                    assert!(hits.len() <= 10);
                    queries.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // The writer: the sources swept in group-committed bursts
        // of 15, each burst's crawls fanned across 4 worker threads,
        // high-water marks seeded at the midpoint. Every burst
        // journals its fresh per-source deltas under one fsync,
        // applies them in one amortized pass and publishes one
        // snapshot.
        let crawler = Crawler::new(CrawlerConfig {
            workers: 4,
            ..CrawlerConfig::default()
        })
        .with_metrics(Arc::new(CrawlMetrics::new(&registry)));
        let mut marks = HighWaterMarks::new();
        for source in world.corpus.sources() {
            marks.advance(source.id, midpoint);
        }
        let mut sweeps = 0usize;
        let mut publishes = 0usize;
        for sources in world.corpus.sources().chunks(15) {
            let mut services: Vec<Box<dyn DataService + '_>> = sources
                .iter()
                .map(|s| service_for(&world.corpus, s.id, world.now).unwrap())
                .collect();
            let mut clock = Clock::starting_at(world.now);
            let before = service.seqs();
            service
                .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
                .expect("sweep");
            sweeps += 1;
            // A burst with no fresh content publishes nothing.
            if service.seqs() != before {
                publishes += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        println!(
            "writer group-committed {} journaled deltas across {sweeps} sweeps \
             of 4 crawl workers each ({publishes} published snapshots instead \
             of one per delta)",
            service.seqs()[0] - boot_seq,
        );
    });
    println!(
        "final seq {} while 3 readers served {} queries and observed {} epoch \
         changes — no reader ever blocked, none saw a mid-burst state",
        service.seqs()[0],
        queries_served.load(Ordering::Relaxed),
        epochs_seen.load(Ordering::Relaxed),
    );

    // Remember the pre-crash rankings, then crash.
    let pre_hits = service.reader().query(&terms, 10);
    let (images, failed) = metrics.checkpoint_counts();
    drop(service); // no shutdown, no checkpoint flush — a kill

    let (recovered, reports) =
        ShardedLiveService::recover(&seed, 1, &journal_dir).expect("image and journal load");
    println!(
        "recovered from crash: the last of {images} checkpoint images ({failed} failed) \
         covers seq {}, and {} deltas replayed past it (torn tail: {})",
        reports[0].checkpoint_seq, reports[0].replayed, reports[0].torn_tail_dropped,
    );
    let post_hits = recovered.reader().query(&terms, 10);

    println!(
        "\n{:<4} {:<28} {:>12} {:>12}",
        "pos", "source", "pre-crash", "recovered"
    );
    for (a, b) in pre_hits.iter().zip(&post_hits) {
        let name = &world.corpus.source(a.source).unwrap().name;
        println!(
            "{:<4} {:<28} {:>12.4} {:>12.4}",
            a.position, name, a.score, b.score
        );
    }
    println!(
        "\nrankings bit-identical after recovery: {}",
        pre_hits == post_hits
    );

    // Everything the run measured, straight from the registry — the
    // per-source crawl series are elided to keep the dump short.
    println!("\n== metrics exposition (per-source series elided) ==");
    for line in registry.render_text().lines() {
        if !line.contains("source=\"") {
            println!("{line}");
        }
    }
    std::fs::remove_dir_all(&journal_dir).ok();
}
