//! Cross-crate property tests: pipeline invariants that must hold for
//! any seed, exercised through the public facade.

use informing_observers::analytics::{AlexaPanel, FeedRegistry, LinkGraph};
use informing_observers::live::{DeltaJournal, ShardRouter, ShardedLiveService};
use informing_observers::model::{
    document_text, Clock, CorpusDelta, EngagementDelta, PostId, SourceId, Timestamp,
};
use informing_observers::quality::{
    assess_source, influence_profiles, Benchmarks, SourceContext, Weights,
};
use informing_observers::search::score::{bm25_scores, Bm25Params};
use informing_observers::search::{
    scatter_query, scatter_query_unpruned, tokenize, BlendWeights, InvertedIndex, SearchEngine,
};
use informing_observers::synth::{TwitterConfig, TwitterPopulation, World, WorldConfig};
use informing_observers::wrappers::{service_for, Crawler};
use proptest::prelude::*;

/// A tiny world config keyed by seed, fast enough for proptest.
fn tiny_world(seed: u64) -> World {
    World::generate(WorldConfig {
        sources: 8,
        users: 60,
        categories: 6,
        days: 40,
        mean_discussions_per_source: 5.0,
        mean_comments_per_discussion: 3.0,
        ..WorldConfig::small(seed)
    })
}

/// Deterministic pseudo-shuffle: orders ids by a seed-keyed hash.
fn permuted_posts(world: &World, seed: u64) -> Vec<PostId> {
    let mut posts: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    posts.sort_by_key(|p| (p.raw() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed);
    posts
}

/// Every distinct term of every indexed document, plus one absent
/// term, so equivalence checks cover the whole vocabulary.
fn probe_terms(world: &World) -> Vec<String> {
    let mut terms: Vec<String> = world
        .corpus
        .posts()
        .iter()
        .filter_map(|p| document_text(&world.corpus, p.id).ok())
        .flat_map(|(_, text)| tokenize(&text))
        .collect();
    terms.sort_unstable();
    terms.dedup();
    terms.push("zzz-never-indexed".to_owned());
    terms
}

/// `engine` with every document removed: its static signals over an
/// empty index, the seed every live service starts from.
fn empty_seed(world: &World, engine: &SearchEngine) -> SearchEngine {
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = engine.clone();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
    seed
}

/// Posts published up to the midpoint of history, as one delta: the
/// "state at boot" a live service ingests as its first commit.
fn boot_delta(world: &World) -> CorpusDelta {
    let midpoint = Timestamp(world.now.seconds() / 2);
    let old: Vec<PostId> = world
        .corpus
        .posts()
        .iter()
        .filter(|p| p.published <= midpoint)
        .map(|p| p.id)
        .collect();
    CorpusDelta::for_posts(&world.corpus, &old).unwrap()
}

/// A fresh scratch directory for one proptest case.
fn case_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("obs_live_{tag}_{}_{seed}", std::process::id()))
}

/// Appends to the journal at `path` a real frame cut short, as a
/// crash mid-append leaves it: the one record of a probe journal,
/// without the file header every journal starts with and without its
/// last byte.
fn append_torn_frame(path: &std::path::Path) {
    use std::io::Write;
    let probe = path.with_extension("probe");
    drop(DeltaJournal::create(&probe).unwrap());
    let header = std::fs::read(&probe).unwrap().len();
    let mut journal = DeltaJournal::create(&probe).unwrap();
    let mut delta = CorpusDelta::new();
    delta.add_doc(
        PostId::new(u32::MAX),
        SourceId::new(0),
        "torn before its fsync",
    );
    journal.append_batch(&[&delta]).unwrap();
    let frame = std::fs::read(&probe).unwrap();
    std::fs::remove_file(&probe).ok();
    let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
    file.write_all(&frame[header..frame.len() - 1]).unwrap();
}

/// An arbitrary delta drawn from `seed`: ids anywhere up to
/// `u32::MAX`, counts up to the `i64` extremes, empty, ASCII and
/// non-ASCII text.
fn arbitrary_delta(seed: u64) -> CorpusDelta {
    const TEXTS: [&str; 6] = [
        "",
        "duomo",
        "caffè ☕ Brera",
        "\u{0}\u{7f}\u{80}",
        "𝄞ß",
        "a b  c",
    ];
    const IDS: [u32; 5] = [0, 1, 127, 128, u32::MAX];
    const COUNTS: [i64; 6] = [0, 1, -1, 63, i64::MIN, i64::MAX];
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let pick_id = |r: u64| match r % 3 {
        0 => IDS[(r >> 8) as usize % IDS.len()],
        _ => (r >> 16) as u32,
    };
    let mut delta = CorpusDelta::new();
    for _ in 0..next() % 5 {
        let (post, source) = (pick_id(next()), pick_id(next()));
        let text: String = (0..next() % 3)
            .map(|_| TEXTS[next() as usize % TEXTS.len()])
            .collect();
        delta.add_doc(PostId::new(post), SourceId::new(source), text);
    }
    for _ in 0..next() % 4 {
        delta.remove_doc(PostId::new(pick_id(next())));
    }
    for _ in 0..next() % 4 {
        let count = |r: u64| match r % 2 {
            0 => COUNTS[(r >> 8) as usize % COUNTS.len()],
            _ => r as i64,
        };
        let (discussions, comments) = (count(next()), count(next()));
        // Pushed directly: `note_engagement` would sum (and could
        // overflow) the extremes of a repeated source.
        delta.engagement.push(EngagementDelta {
            source: SourceId::new(pick_id(next())),
            discussions,
            comments,
        });
    }
    delta
}

fn encoded(delta: &CorpusDelta) -> Vec<u8> {
    let mut bytes = Vec::new();
    delta.encode_into(&mut bytes);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn delta_codec_roundtrips_canonically(seed in any::<u64>()) {
        let delta = arbitrary_delta(seed);
        let bytes = encoded(&delta);
        let decoded = CorpusDelta::decode(&bytes);
        prop_assert_eq!(&decoded, &Ok(delta));
        // Canonical: what decodes re-encodes to exactly its bytes.
        if let Ok(decoded) = decoded {
            prop_assert_eq!(encoded(&decoded), bytes);
        }
    }

    #[test]
    fn damaged_delta_bytes_fail_to_decode_without_panicking(
        seed in any::<u64>(),
        noise in proptest::collection::vec(any::<u8>(), 0..48),
        flip in any::<u64>(),
    ) {
        let bytes = encoded(&arbitrary_delta(seed));
        // Every strict prefix is truncated: the encoding is
        // self-delimiting.
        for cut in 0..bytes.len() {
            prop_assert!(CorpusDelta::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
        // A flipped bit or arbitrary bytes may spell another delta,
        // but only in its one canonical encoding; anything else errs.
        let mut flipped = bytes.clone();
        let bit = flip as usize % (8 * bytes.len());
        flipped[bit / 8] ^= 1 << (bit % 8);
        for candidate in [flipped, noise] {
            if let Ok(decoded) = CorpusDelta::decode(&candidate) {
                prop_assert_eq!(encoded(&decoded), candidate);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_adds_are_order_independent(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let fresh = InvertedIndex::build(&world.corpus);

        // Stream the same documents in a seed-permuted order, split
        // into two deltas.
        let posts = permuted_posts(&world, seed);
        let mut incremental = InvertedIndex::default();
        let (first, second) = posts.split_at(posts.len() / 2);
        incremental.apply_delta(&CorpusDelta::for_posts(&world.corpus, first).unwrap());
        incremental.apply_delta(&CorpusDelta::for_posts(&world.corpus, second).unwrap());

        prop_assert_eq!(fresh.doc_count(), incremental.doc_count());
        prop_assert_eq!(fresh.vocabulary_size(), incremental.vocabulary_size());
        prop_assert_eq!(fresh.avg_doc_length(), incremental.avg_doc_length());
        let terms = probe_terms(&world);
        for t in &terms {
            prop_assert_eq!(fresh.doc_frequency(t), incremental.doc_frequency(t), "{}", t);
        }
        // Query results — not just statistics — must be identical.
        let scores_fresh = bm25_scores(&fresh, &terms, Bm25Params::default());
        let scores_inc = bm25_scores(&incremental, &terms, Bm25Params::default());
        prop_assert_eq!(scores_fresh, scores_inc);
    }

    #[test]
    fn add_then_remove_equals_never_added(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let posts = permuted_posts(&world, seed);
        // Half the documents are transient: added, then removed.
        let (kept, transient) = posts.split_at(posts.len() / 2);

        // One burst churns them remove → re-add → remove: the last
        // removal tombstones rows re-added in the same batch, before
        // its single sweep.
        let removal = CorpusDelta::for_removals(&world.corpus, transient).unwrap();
        let readd = CorpusDelta::for_posts(&world.corpus, transient).unwrap();
        let mut churned = InvertedIndex::build(&world.corpus);
        churned.apply_deltas([&removal, &readd, &removal]);

        let mut pristine = InvertedIndex::default();
        pristine.apply_delta(&CorpusDelta::for_posts(&world.corpus, kept).unwrap());

        prop_assert_eq!(churned.doc_count(), pristine.doc_count());
        prop_assert_eq!(churned.vocabulary_size(), pristine.vocabulary_size());
        prop_assert_eq!(churned.avg_doc_length(), pristine.avg_doc_length());
        let terms = probe_terms(&world);
        for t in &terms {
            prop_assert_eq!(churned.doc_frequency(t), pristine.doc_frequency(t), "{}", t);
        }
        let scores_churned = bm25_scores(&churned, &terms, Bm25Params::default());
        let scores_pristine = bm25_scores(&pristine, &terms, Bm25Params::default());
        prop_assert_eq!(scores_churned, scores_pristine);
    }

    #[test]
    fn journal_recovery_equals_from_scratch_build(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let scratch =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());

        // The seed carries the static signals over an empty index;
        // the content up to the midpoint of history streams in as the
        // first commit, then the recent posts as journaled deltas, in
        // a seed-permuted order.
        let midpoint = Timestamp(world.now.seconds() / 2);
        let recent: Vec<PostId> = permuted_posts(&world, seed)
            .into_iter()
            .filter(|&p| world.corpus.post(p).unwrap().published > midpoint)
            .collect();
        prop_assert!(!recent.is_empty());
        let seed_engine = empty_seed(&world, &scratch);

        let dir = case_dir("prop", seed);
        {
            // The doomed service: journal the boot state and three
            // batches, then "crash" (dropped with no shutdown grace),
            // then a torn final record appears as a crash mid-append
            // would leave it.
            let mut doomed = ShardedLiveService::start(&seed_engine, 1, &dir).unwrap();
            doomed.ingest(&boot_delta(&world)).unwrap();
            for chunk in recent.chunks(recent.len().div_ceil(3)) {
                let delta = CorpusDelta::for_posts(&world.corpus, chunk).unwrap();
                doomed.ingest(&delta).unwrap();
            }
        }
        append_torn_frame(&ShardedLiveService::shard_journal_path(&dir, 0));

        // Recovery from the journal must reproduce the from-scratch
        // build exactly: identical BM25 score maps over the whole
        // vocabulary, identical static scores, identical rankings.
        let (recovered, reports) = ShardedLiveService::recover(&seed_engine, 1, &dir).unwrap();
        let report = reports[0];
        prop_assert!(report.torn_tail_dropped);
        prop_assert_eq!(report.replayed as u64, report.recovered_seq);
        let engine = recovered.shard_engine(0);
        let reader = recovered.reader();
        prop_assert_eq!(engine.doc_count(), scratch.doc_count());
        let terms = probe_terms(&world);
        let scores_recovered = bm25_scores(engine.index(), &terms, Bm25Params::default());
        let scores_scratch = bm25_scores(scratch.index(), &terms, Bm25Params::default());
        prop_assert_eq!(scores_recovered, scores_scratch);
        for s in world.corpus.sources() {
            prop_assert_eq!(reader.static_score(s.id), scratch.static_score(s.id));
        }
        prop_assert_eq!(reader.query(&terms, 20), scratch.query(&terms, 20));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_ingest_and_recovery_equal_sequential_ingest(seed in 0u64..10_000) {
        // Group-commit equivalence, end to end: ingesting a burst
        // through one `ingest_batch` (one fsync, one amortized
        // in-order apply, one publish) must leave a journal *byte-identical*
        // to one-at-a-time `ingest`, an engine bit-identical down to
        // BM25 score maps — and replaying the batched journal must
        // land on that same engine again.
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let scratch =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());

        let midpoint = Timestamp(world.now.seconds() / 2);
        let recent: Vec<PostId> = permuted_posts(&world, seed)
            .into_iter()
            .filter(|&p| world.corpus.post(p).unwrap().published > midpoint)
            .collect();
        prop_assert!(!recent.is_empty());
        let seed_engine = empty_seed(&world, &scratch);
        let boot = boot_delta(&world);

        // The burst: each chunk becomes one delta, and right after
        // the first chunk lands, its first post is removed and then
        // re-added — so coalescing exercises the cancellation rule
        // (a later removal cancels the earlier add; remove-then-add
        // is update semantics) on a post that is actually present.
        let mut deltas: Vec<CorpusDelta> = recent
            .chunks(recent.len().div_ceil(5))
            .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).unwrap())
            .collect();
        deltas.insert(
            1,
            CorpusDelta::for_removals(&world.corpus, &recent[..1]).unwrap(),
        );
        deltas.insert(
            2,
            CorpusDelta::for_posts(&world.corpus, &recent[..1]).unwrap(),
        );

        // Both services boot from the same state, committed first.
        let dir_seq = case_dir("batch_prop_seq", seed);
        let dir_batch = case_dir("batch_prop_grp", seed);
        let mut sequential = ShardedLiveService::start(&seed_engine, 1, &dir_seq).unwrap();
        sequential.ingest(&boot).unwrap();
        for delta in &deltas {
            sequential.ingest(delta).unwrap();
        }
        let mut batched = ShardedLiveService::start(&seed_engine, 1, &dir_batch).unwrap();
        batched.ingest(&boot).unwrap();
        batched.ingest_batch(&deltas).unwrap();

        prop_assert_eq!(batched.seqs(), sequential.seqs());
        prop_assert_eq!(
            std::fs::read(ShardedLiveService::shard_journal_path(&dir_batch, 0)).unwrap(),
            std::fs::read(ShardedLiveService::shard_journal_path(&dir_seq, 0)).unwrap(),
            "batched journal must be byte-identical to the sequential one"
        );

        let terms = probe_terms(&world);
        let (a, b) = (sequential.shard_engine(0), batched.shard_engine(0));
        let (ra, rb) = (sequential.reader(), batched.reader());
        prop_assert_eq!(a.doc_count(), b.doc_count());
        prop_assert_eq!(
            bm25_scores(a.index(), &terms, Bm25Params::default()),
            bm25_scores(b.index(), &terms, Bm25Params::default())
        );
        for s in world.corpus.sources() {
            prop_assert_eq!(ra.static_score(s.id), rb.static_score(s.id));
        }
        let hits = ra.query(&terms, 20);
        prop_assert_eq!(&rb.query(&terms, 20), &hits);
        drop((rb, batched)); // crash the batched service with no grace

        // Replaying the batched journal (one record per delta, one
        // at a time) reproduces the same engine once more.
        let (recovered, reports) = ShardedLiveService::recover(&seed_engine, 1, &dir_batch).unwrap();
        prop_assert!(!reports[0].torn_tail_dropped);
        prop_assert_eq!(reports[0].replayed, deltas.len() + usize::from(!boot.is_empty()));
        prop_assert_eq!(recovered.seqs(), sequential.seqs());
        prop_assert_eq!(
            bm25_scores(recovered.shard_engine(0).index(), &terms, Bm25Params::default()),
            bm25_scores(a.index(), &terms, Bm25Params::default())
        );
        prop_assert_eq!(recovered.reader().query(&terms, 20), hits);
        std::fs::remove_dir_all(&dir_seq).ok();
        std::fs::remove_dir_all(&dir_batch).ok();
    }

    #[test]
    fn parallel_sweep_equals_sequential_sweep(seed in 0u64..10_000, workers in 2usize..6) {
        // The crawl fan-out must be invisible in everything durable:
        // a parallel `tick_sweep` and a sequential one, fed the same
        // world, must produce byte-identical journals, bit-identical
        // BM25 maps / static scores / rankings, and identical
        // high-water marks — including when crawls fail transiently
        // (retried to success), fail fatally, or the journal's fsync
        // refuses the batch.
        use informing_observers::wrappers::native::{blog, forum, microblog, review, wiki};
        use informing_observers::wrappers::service::{
            BlogService, ForumService, MicroblogService, ReviewService, WikiService,
        };
        use informing_observers::wrappers::{
            CrawlerConfig, DataService, FaultPlan, HighWaterMarks,
        };
        use obs_model::SourceKind;

        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let scratch =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        let midpoint = Timestamp(world.now.seconds() / 2);
        prop_assert!(world.corpus.posts().iter().any(|p| p.published > midpoint));
        let seed_engine = empty_seed(&world, &scratch);
        let boot = boot_delta(&world);
        // The fault target: the seed-keyed "middle" source, whatever
        // its kind (kinds are a random mix, so no kind is
        // guaranteed to exist).
        let target = world.corpus.sources()[world.corpus.sources().len() / 2].id;

        // Builds the target's service with a fault plan installed on
        // its native API, for any source kind.
        let faulted = |plan: FaultPlan| -> Box<dyn DataService + '_> {
            let (corpus, now) = (&world.corpus, world.now);
            let kind = corpus.source(target).unwrap().kind;
            match kind {
                SourceKind::Blog => Box::new(
                    BlogService::open(corpus, target, now).unwrap().with_api(
                        blog::BlogApi::open(corpus, target, now)
                            .unwrap()
                            .with_faults(plan),
                    ),
                ),
                SourceKind::Forum => Box::new(
                    ForumService::open(corpus, target, now).unwrap().with_api(
                        forum::ForumApi::open(corpus, target, now)
                            .unwrap()
                            .with_faults(plan),
                    ),
                ),
                SourceKind::Microblog => Box::new(
                    MicroblogService::open(corpus, target, now)
                        .unwrap()
                        .with_api(
                            microblog::MicroblogApi::open(corpus, target, now)
                                .unwrap()
                                .with_faults(plan),
                        ),
                ),
                SourceKind::ReviewSite => Box::new(
                    ReviewService::open(corpus, target, now).unwrap().with_api(
                        review::ReviewApi::open(corpus, target, now)
                            .unwrap()
                            .with_faults(plan),
                    ),
                ),
                SourceKind::Wiki => Box::new(
                    WikiService::open(corpus, target, now).unwrap().with_api(
                        wiki::WikiApi::open(corpus, target, now)
                            .unwrap()
                            .with_faults(plan),
                    ),
                ),
            }
        };

        // Service lists are rebuilt per variant (fault plans and
        // token buckets carry per-instance state). `faults` injects
        // the plan on the target source; with a *transient* plan and
        // retry budget to spare, both sweep modes retry it to the
        // same success.
        let build_services = |faults: Option<FaultPlan>| -> Vec<Box<dyn DataService + '_>> {
            world
                .corpus
                .sources()
                .iter()
                .map(|s| -> Box<dyn DataService + '_> {
                    match &faults {
                        Some(plan) if s.id == target => faulted(plan.clone()),
                        _ => service_for(&world.corpus, s.id, world.now).unwrap(),
                    }
                })
                .collect()
        };

        let tag = std::process::id();
        let run = |variant: &str, crawler_workers: usize| {
            let dir = std::env::temp_dir().join(format!(
                "obs_live_par_prop_{variant}_{tag}_{seed}_{crawler_workers}"
            ));
            let path = ShardedLiveService::shard_journal_path(&dir, 0);
            let crawler = Crawler::new(CrawlerConfig {
                workers: crawler_workers,
                max_retries: 2,
                ..CrawlerConfig::default()
            });
            // One shard: a refused fsync refuses the whole burst, so
            // every participating mark rolls back.
            let mut service = ShardedLiveService::start(&seed_engine, 1, &dir).unwrap();
            service.ingest(&boot).unwrap();
            let mut marks = HighWaterMarks::new();
            for source in world.corpus.sources() {
                marks.advance(source.id, midpoint);
            }
            let pre_sweep = marks.clone();

            // Phase 1 — a fatally-failing blog (faults every call,
            // beyond the retry budget): the sweep errors and no mark
            // moves, in either mode.
            let mut services = build_services(Some(FaultPlan::every(1)));
            let mut clock = Clock::starting_at(world.now);
            let fatal = service
                .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
                .expect_err("a blog failing every call must fail the sweep");
            assert_eq!(marks, pre_sweep, "failed sweep moved a mark");

            // Phase 2 — the journal refuses the batch: every crawl
            // succeeds, fsync fails, every mark rolls back.
            let mut services = build_services(None);
            let mut clock = Clock::starting_at(world.now);
            service.inject_journal_sync_failures(0, 1);
            let refused = service
                .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
                .expect_err("injected fsync failure must refuse the batch");
            assert_eq!(marks, pre_sweep, "refused batch left a mark advanced");
            let journal_after_refusal = std::fs::read(&path).unwrap();

            // Phase 3 — transient faults on the target. Depending on
            // how many native calls the target's adapter makes per
            // fetch, the retry budget may or may not absorb them;
            // either way both sweep modes must land on the same
            // outcome (and all-or-nothing holds: an error leaves the
            // marks at pre-sweep, a success lands the full burst).
            let mut services = build_services(Some(FaultPlan::every(2)));
            let mut clock = Clock::starting_at(world.now);
            let transient =
                service.tick_sweep(&crawler, &mut services, &mut clock, &mut marks);
            if transient.is_err() {
                assert_eq!(marks, pre_sweep, "failed transient sweep moved a mark");
            }

            // Phase 4 — a clean sweep: always succeeds, catching up
            // whatever phase 3 did not land (possibly nothing).
            let mut services = build_services(None);
            let mut clock = Clock::starting_at(world.now);
            let report = service
                .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
                .expect("clean sweep must succeed");
            let seq = service.seqs();
            (
                service,
                dir,
                format!("{fatal:?}"),
                format!("{refused:?}"),
                journal_after_refusal,
                format!("{transient:?}"),
                seq,
                report,
                marks,
            )
        };

        let (
            seq_service,
            seq_dir,
            seq_fatal,
            seq_refused,
            seq_jr,
            seq_transient,
            seq_seq,
            seq_report,
            seq_marks,
        ) = run("seq", 1);
        let (
            par_service,
            par_dir,
            par_fatal,
            par_refused,
            par_jr,
            par_transient,
            par_seq,
            par_report,
            par_marks,
        ) = run("par", workers);

        // Failures are equivalent too: same errors (and the same
        // transient outcome, whichever way it went), same (lack of)
        // journal bytes after the refused batch.
        prop_assert_eq!(seq_fatal, par_fatal);
        prop_assert_eq!(seq_refused, par_refused);
        prop_assert_eq!(seq_jr, par_jr);
        prop_assert_eq!(seq_transient, par_transient);

        // The successful sweep: same sequence, same report, same
        // marks, byte-identical journals, bit-identical engines.
        prop_assert_eq!(seq_seq, par_seq);
        prop_assert_eq!(seq_report, par_report);
        prop_assert_eq!(seq_marks, par_marks);
        prop_assert_eq!(
            std::fs::read(ShardedLiveService::shard_journal_path(&par_dir, 0)).unwrap(),
            std::fs::read(ShardedLiveService::shard_journal_path(&seq_dir, 0)).unwrap(),
            "parallel sweep journal must be byte-identical to the sequential one"
        );
        let terms = probe_terms(&world);
        let (a, b) = (seq_service.shard_engine(0), par_service.shard_engine(0));
        let (ra, rb) = (seq_service.reader(), par_service.reader());
        prop_assert_eq!(a.doc_count(), b.doc_count());
        prop_assert_eq!(
            bm25_scores(a.index(), &terms, Bm25Params::default()),
            bm25_scores(b.index(), &terms, Bm25Params::default())
        );
        for s in world.corpus.sources() {
            prop_assert_eq!(ra.static_score(s.id), rb.static_score(s.id));
        }
        prop_assert_eq!(ra.query(&terms, 20), rb.query(&terms, 20));
        std::fs::remove_dir_all(&seq_dir).ok();
        std::fs::remove_dir_all(&par_dir).ok();
    }

    #[test]
    fn crawls_always_match_ground_truth(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let crawler = Crawler::default();
        for source in world.corpus.sources() {
            let mut service = service_for(&world.corpus, source.id, world.now).unwrap();
            let mut clock = Clock::starting_at(world.now);
            let (obs, _) = crawler.crawl(service.as_mut(), &mut clock).unwrap();
            let expected: usize = world
                .corpus
                .discussions_of_source(source.id)
                .iter()
                .map(|&d| 1 + world.corpus.comments_of_discussion(d).len())
                .sum();
            prop_assert_eq!(obs.len(), expected);
        }
    }

    #[test]
    fn quality_scores_are_always_unit_bounded(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let feeds = FeedRegistry::simulate(&world, seed ^ 2);
        let di = world.tourism_di();
        let ctx = SourceContext::new(&world.corpus, &panel, &links, &feeds, &di, world.now);
        let weights = Weights::uniform();
        let benchmarks = Benchmarks::for_sources(&ctx, 0.9);
        for s in world.corpus.sources() {
            let score = assess_source(&ctx, s.id, &weights, &benchmarks);
            prop_assert!((0.0..=1.0).contains(&score.overall));
            for m in &score.measures {
                prop_assert!((0.0..=1.0).contains(&m.normalized), "{}", m.id);
                prop_assert!(m.raw.is_finite());
            }
        }
    }

    #[test]
    fn influence_profiles_are_always_consistent(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let feeds = FeedRegistry::simulate(&world, seed ^ 2);
        let di = world.open_di();
        let ctx = SourceContext::new(&world.corpus, &panel, &links, &feeds, &di, world.now);
        let profiles = influence_profiles(&ctx);
        for p in &profiles {
            prop_assert!(p.emissions > 0);
            prop_assert!(p.received_relative <= p.received_absolute + 1e-12);
            prop_assert!((0.0..=1.0).contains(&p.combined_score));
        }
        // Sorted descending.
        for w in profiles.windows(2) {
            prop_assert!(w[0].combined_score >= w[1].combined_score);
        }
    }

    #[test]
    fn sharded_ingest_and_query_equal_unsharded(seed in 0u64..10_000, shards in 2usize..5) {
        // Sharding must be invisible in everything observable: the
        // same delta stream pushed through one unsharded engine, a
        // 1-shard service and an N-shard service must yield
        // bit-identical rankings and static scores, a 1-shard journal
        // byte-identical to a bare journal fed the same bursts,
        // per-shard journals byte-identical to a reference router
        // feeding plain journals — and recovering a killed N-shard
        // service must land back on the same rankings, shard by
        // shard. At every shard count, checkpointing mid-stream,
        // compacting, crashing with a torn tail and recovering from
        // the checkpoint must land on the uninterrupted run too.
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let scratch =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());

        // The seed: static signals intact, zero documents.
        let seed_engine = empty_seed(&world, &scratch);
        prop_assert_eq!(seed_engine.doc_count(), 0);

        // The stream: seed-permuted posts as multi-post deltas,
        // ingested in bursts of three deltas.
        let posts = permuted_posts(&world, seed);
        let deltas: Vec<CorpusDelta> = posts
            .chunks(posts.len().div_ceil(6).max(1))
            .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).unwrap())
            .collect();
        let bursts: Vec<&[CorpusDelta]> = deltas.chunks(3).collect();

        let base = case_dir(&format!("shard_prop_{shards}"), seed);
        let path_flat = base.join("flat.journal");
        std::fs::create_dir_all(&base).unwrap();
        let dir_one = base.join("one");
        let dir_many = base.join("many");
        let dir_ref = base.join("reference");
        std::fs::create_dir_all(&dir_ref).unwrap();

        let mut flat = seed_engine.clone();
        let mut flat_journal = DeltaJournal::create(&path_flat).unwrap();
        let mut one = ShardedLiveService::start(&seed_engine, 1, &dir_one).unwrap();
        let mut many = ShardedLiveService::start(&seed_engine, shards, &dir_many).unwrap();
        // Reference journals fed by a bare router, mirroring the
        // burst grouping of `ingest_batch`.
        let mut ref_router = ShardRouter::new(shards).unwrap();
        let mut ref_journals: Vec<DeltaJournal> = (0..shards)
            .map(|i| {
                DeltaJournal::create(dir_ref.join(format!("shard-{i}.journal"))).unwrap()
            })
            .collect();

        for burst in &bursts {
            flat.apply_deltas(burst.iter());
            let fresh: Vec<&CorpusDelta> = burst.iter().filter(|d| !d.is_empty()).collect();
            flat_journal.append_batch(&fresh).unwrap();
            one.ingest_batch(burst).unwrap();
            many.ingest_batch(burst).unwrap();
            let mut routed: Vec<Vec<CorpusDelta>> = vec![Vec::new(); shards];
            for delta in burst.iter() {
                for (shard, sub) in ref_router.route(delta).into_iter().enumerate() {
                    if !sub.is_empty() {
                        routed[shard].push(sub);
                    }
                }
            }
            for (journal, batch) in ref_journals.iter_mut().zip(&routed) {
                let refs: Vec<&CorpusDelta> = batch.iter().collect();
                journal.append_batch(&refs).unwrap();
            }
        }
        drop((flat_journal, ref_journals));

        // Rankings and static scores: bit-identical across all three
        // topologies, and identical to the scratch build (the stream
        // replays the full corpus).
        let terms = probe_terms(&world);
        let hits = flat.query(&terms, 20);
        prop_assert_eq!(&one.reader().query(&terms, 20), &hits);
        prop_assert_eq!(&many.reader().query(&terms, 20), &hits);
        prop_assert_eq!(&scratch.query(&terms, 20), &hits);
        prop_assert_eq!(many.doc_count(), scratch.doc_count());
        let many_reader = many.reader();
        for s in world.corpus.sources() {
            prop_assert_eq!(many_reader.static_score(s.id), flat.static_score(s.id));
        }

        // Journal bytes: one shard ≡ a bare journal; N shards ≡ the
        // reference router's journals, shard by shard.
        prop_assert_eq!(
            std::fs::read(ShardedLiveService::shard_journal_path(&dir_one, 0)).unwrap(),
            std::fs::read(&path_flat).unwrap(),
            "a 1-shard service must journal byte-identically to a bare journal"
        );
        for i in 0..shards {
            prop_assert_eq!(
                std::fs::read(ShardedLiveService::shard_journal_path(&dir_many, i)).unwrap(),
                std::fs::read(dir_ref.join(format!("shard-{i}.journal"))).unwrap(),
                "shard {} journal must match the reference routing", i
            );
        }

        // Kill the N-shard service (no shutdown grace) and recover
        // every shard from its own journal: same per-shard engines,
        // same global rankings.
        let pre_seqs = many.seqs();
        let pre_shard_docs: Vec<usize> =
            (0..shards).map(|i| many.shard_engine(i).doc_count()).collect();
        let pre_shard_scores: Vec<_> = (0..shards)
            .map(|i| bm25_scores(many.shard_engine(i).index(), &terms, Bm25Params::default()))
            .collect();
        drop((many_reader, many));
        let (recovered, reports) =
            ShardedLiveService::recover(&seed_engine, shards, &dir_many).unwrap();
        prop_assert_eq!(recovered.seqs(), pre_seqs);
        for (i, report) in reports.iter().enumerate() {
            prop_assert!(!report.torn_tail_dropped);
            prop_assert_eq!(report.recovered_seq, recovered.seqs()[i]);
            prop_assert_eq!(recovered.shard_engine(i).doc_count(), pre_shard_docs[i]);
            prop_assert_eq!(
                bm25_scores(recovered.shard_engine(i).index(), &terms, Bm25Params::default()),
                pre_shard_scores[i].clone(),
                "shard {} must recover its exact pre-crash index", i
            );
        }
        prop_assert_eq!(recovered.reader().query(&terms, 20), hits.clone());

        // Checkpoint mid-stream, compact, crash with a torn tail on
        // every journal, recover from the checkpoint: the result is
        // the uninterrupted run, for every shard count. A bare
        // router fed the same bursts gives the uninterrupted
        // per-shard sequences and post homes.
        for n in 1..=4usize {
            let dir = base.join(format!("checkpointed-{n}"));
            let mut service = ShardedLiveService::start(&seed_engine, n, &dir).unwrap();
            let mut router = ShardRouter::new(n).unwrap();
            let mut seqs = vec![0u64; n];
            let mut checkpoint = None;
            for (b, burst) in bursts.iter().enumerate() {
                if b == bursts.len() / 2 {
                    let taken = service.checkpoint();
                    service.compact_through(&taken).unwrap();
                    checkpoint = Some(taken);
                }
                service.ingest_batch(burst).unwrap();
                for delta in burst.iter() {
                    for (shard, sub) in router.route(delta).iter().enumerate() {
                        seqs[shard] += u64::from(!sub.is_empty());
                    }
                }
            }
            prop_assert_eq!(service.seqs(), seqs.clone());
            drop(service);
            for i in 0..n {
                append_torn_frame(&ShardedLiveService::shard_journal_path(&dir, i));
            }

            let checkpoint = checkpoint.unwrap();
            let (restored, reports) =
                ShardedLiveService::recover_from(checkpoint.clone(), &dir).unwrap();
            prop_assert_eq!(restored.seqs(), seqs.clone());
            for (i, report) in reports.iter().enumerate() {
                prop_assert!(report.torn_tail_dropped);
                prop_assert_eq!(report.skipped, 0, "compaction dropped the covered prefix");
                prop_assert_eq!(report.replayed as u64, seqs[i] - checkpoint.seqs()[i]);
            }
            let reader = restored.reader();
            prop_assert_eq!(&reader.query(&terms, 20), &hits);
            for s in world.corpus.sources() {
                prop_assert_eq!(reader.static_score(s.id), flat.static_score(s.id));
            }
            for p in world.corpus.posts() {
                prop_assert_eq!(
                    restored.router().home_of(p.id),
                    router.home_of(p.id),
                    "post {:?} homed differently after recovery at {} shards", p.id, n
                );
            }
        }

        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn repeated_recrawls_equal_fresh_build(seed in 0u64..10_000) {
        // Observers re-crawl the same sources over and over. Each
        // re-crawl removes a source's posts and re-adds them, leaving
        // their old forward-index words dead until a sweep compacts
        // the arena. 48 rounds, each re-crawling half the sources
        // through a 2-shard service, cross that compaction many
        // times. Every probe query must still answer bit-identically
        // to a freshly ingested service, before and after recovery,
        // and no shard's index may outgrow twice the fresh one's,
        // which it would without compaction. A reader pins the
        // published epochs across every other re-crawl, so the
        // commits alternate between detaching into the superseded
        // epoch and copying afresh beside a pinned one.
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let scratch =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        let seed_engine = empty_seed(&world, &scratch);
        let posts: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
        let everything = CorpusDelta::for_posts(&world.corpus, &posts).unwrap();
        let by_source: Vec<Vec<PostId>> = world
            .corpus
            .sources()
            .iter()
            .map(|s| {
                posts
                    .iter()
                    .copied()
                    .filter(|&p| document_text(&world.corpus, p).unwrap().0 == s.id)
                    .collect()
            })
            .filter(|mine: &Vec<PostId>| !mine.is_empty())
            .collect();

        let base = case_dir("recrawl", seed);
        let mut fresh = ShardedLiveService::start(&seed_engine, 2, base.join("fresh")).unwrap();
        fresh.ingest(&everything).unwrap();
        let dir = base.join("recrawled");
        let mut service = ShardedLiveService::start(&seed_engine, 2, &dir).unwrap();
        service.ingest(&everything).unwrap();
        let vocab = probe_terms(&world);
        let reader = service.reader();
        for round in 0..48 {
            let recrawl: Vec<CorpusDelta> = by_source
                .iter()
                .enumerate()
                .filter(|(i, _)| (i + round) % 2 == 0)
                .flat_map(|(_, mine)| {
                    [
                        CorpusDelta::for_removals(&world.corpus, mine).unwrap(),
                        CorpusDelta::for_posts(&world.corpus, mine).unwrap(),
                    ]
                })
                .collect();
            let pinned = (round % 2 == 1).then(|| {
                let pin = reader.pin();
                let hits = reader.query_uncached(&pin, &vocab, 20);
                (pin, hits)
            });
            service.ingest_batch(&recrawl).unwrap();
            if let Some((pin, hits)) = pinned {
                prop_assert_eq!(reader.query_uncached(&pin, &vocab, 20), hits);
            }
        }
        for i in 0..2 {
            let (held, built) = (service.shard_engine(i).index(), fresh.shard_engine(i).index());
            prop_assert_eq!(held.doc_count(), built.doc_count());
            prop_assert!(
                held.heap_bytes() <= 2 * built.heap_bytes(),
                "shard {} holds {} bytes against a fresh build's {}",
                i, held.heap_bytes(), built.heap_bytes()
            );
        }

        // The whole vocabulary at once, then small queries over it.
        let mut queries: Vec<Vec<String>> = vec![vocab.clone()];
        queries.extend(vocab.windows(3).step_by(5).map(<[String]>::to_vec));
        let answers = |service: &ShardedLiveService| -> Vec<Vec<(SourceId, usize, u64)>> {
            let reader = service.reader();
            queries
                .iter()
                .map(|q| {
                    reader
                        .query(q, 20)
                        .iter()
                        .map(|h| (h.source, h.position, h.score.to_bits()))
                        .collect()
                })
                .collect()
        };
        let expected = answers(&fresh);
        prop_assert!(expected.iter().any(|hits| !hits.is_empty()));
        prop_assert_eq!(&answers(&service), &expected);
        drop(service);
        let (recovered, _) = ShardedLiveService::recover(&seed_engine, 2, &dir).unwrap();
        prop_assert_eq!(&answers(&recovered), &expected);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn dense_query_equals_reference_query(
        seed in 0u64..10_000,
        shards in 1usize..4,
        k in 1usize..40,
        content_w in 0.0f64..8.0,
        depth_w in 0.0f64..4.0,
    ) {
        // The dense fast path (`partial_query` behind
        // `scatter_query`) scores term-at-a-time over the doc table
        // with per-thread scratch, and the merge selects the top k
        // before sorting. Both must be invisible: for any corpus,
        // shard count, cutoff and blend weighting, `scatter_query`
        // must return bit-identical hits AND scores to the reference
        // `scatter_query_unpruned` oracle — which stays callable as a
        // public API precisely so this comparison is possible.
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let scratch =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());

        // Partition the corpus into shard engines the same way the
        // serving layer routes: by `SourceId::shard`.
        let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
        let mut empty = scratch.clone();
        empty.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
        let mut engines: Vec<SearchEngine> = vec![empty; shards];
        for (shard, engine) in engines.iter_mut().enumerate() {
            let mine: Vec<PostId> = all
                .iter()
                .copied()
                .filter(|&pid| {
                    let (source, _) = document_text(&world.corpus, pid).unwrap();
                    source.shard(shards) == shard
                })
                .collect();
            if !mine.is_empty() {
                engine.apply_delta(&CorpusDelta::for_posts(&world.corpus, &mine).unwrap());
            }
        }
        let refs: Vec<&SearchEngine> = engines.iter().collect();
        let weights = BlendWeights {
            content: content_w,
            depth: depth_w,
            ..BlendWeights::default()
        };
        let static_score = |s| scratch.static_score(s);

        // The whole vocabulary at once (every list in play) and small
        // realistic queries.
        let vocab = probe_terms(&world);
        let mut queries: Vec<Vec<String>> = vec![vocab.clone()];
        for window in vocab.windows(3).step_by(7) {
            queries.push(window.to_vec());
        }
        for terms in &queries {
            let dense = scatter_query(&refs, terms, k, static_score, &weights);
            let oracle = scatter_query_unpruned(&refs, terms, k, static_score, &weights);
            prop_assert_eq!(
                &dense, &oracle,
                "dense ranking diverged (shards={}, k={}, terms={})",
                shards, k, terms.len()
            );
            // Bit-identical scores, not merely equal ordering.
            for (p, o) in dense.iter().zip(&oracle) {
                prop_assert_eq!(p.score.to_bits(), o.score.to_bits());
            }
        }
    }

    #[test]
    fn twitter_population_bounds_hold_for_any_seed(seed in 0u64..10_000) {
        let pop = TwitterPopulation::generate(TwitterConfig {
            seed,
            ..TwitterConfig::default()
        });
        prop_assert_eq!(pop.accounts.len(), 813);
        for a in &pop.accounts {
            prop_assert!(a.tweets >= 1);
            prop_assert!(a.mentions_received <= 84_000);
            prop_assert!(a.retweets_received <= 84_000);
        }
    }
}
