//! The engine through its public API: query ordering and
//! tokenization, delta application (and its inverse), copy-on-write
//! sharing between clones, the static blend's signal directions, and
//! the dense scorer against the reference scorer.
//!
//! An integration test because the engines are built from
//! `obs_analytics`' simulated panels, and `obs_analytics` links this
//! crate's library, not its unit-test build.

use obs_analytics::{AlexaPanel, LinkGraph};
use obs_model::{PostId, SourceId};
use obs_search::{normalize_query, BlendWeights, ScatterStats, SearchEngine, SourcePartial};
use obs_synth::{QueryWorkload, World, WorldConfig};

fn engine() -> (World, SearchEngine) {
    let world = World::generate(WorldConfig {
        sources: 120,
        users: 500,
        ..WorldConfig::small(1001)
    });
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    (world, engine)
}

#[test]
fn queries_return_ordered_hits() {
    let (world, engine) = engine();
    let workload = QueryWorkload::generate(7, 20, world.config.categories);
    let mut any_results = false;
    for q in &workload.queries {
        let hits = engine.query(&q.terms, 20);
        assert!(hits.len() <= 20);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
            assert_eq!(w[0].position + 1, w[1].position);
        }
        if !hits.is_empty() {
            any_results = true;
            assert_eq!(hits[0].position, 1);
        }
    }
    assert!(any_results, "workload found nothing at all");
}

#[test]
fn hits_match_query_content() {
    let (world, engine) = engine();
    // Query a term we know exists: take it from a post.
    let post = world
        .corpus
        .posts()
        .iter()
        .find(|p| !p.tags.is_empty())
        .expect("tagged post");
    let term = post.tags[0].as_str().to_owned();
    let hits = engine.query(std::slice::from_ref(&term), 50);
    let source = world.corpus.discussion(post.discussion).unwrap().source;
    assert!(
        hits.iter().any(|h| h.source == source),
        "source of a matching post must be retrievable"
    );
}

#[test]
fn raw_queries_are_tokenized_like_the_index() {
    let (world, engine) = engine();
    let post = world
        .corpus
        .posts()
        .iter()
        .find(|p| !p.tags.is_empty())
        .expect("tagged post");
    let term = post.tags[0].as_str();
    // Uppercased, punctuated, stopword-padded — must match what
    // the bare lowercase term matches.
    let raw = format!("The {}!", term.to_uppercase());
    let clean = engine.query(&[term.to_owned()], 50);
    let messy = engine.query(&[raw], 50);
    assert!(!clean.is_empty());
    assert_eq!(clean, messy);
}

#[test]
fn duplicate_query_terms_do_not_inflate_scores() {
    let (world, engine) = engine();
    let post = world
        .corpus
        .posts()
        .iter()
        .find(|p| !p.tags.is_empty())
        .expect("tagged post");
    let term = post.tags[0].as_str().to_owned();
    let once = engine.query(std::slice::from_ref(&term), 50);
    let twice = engine.query(&[term.clone(), term], 50);
    assert_eq!(once, twice);
}

#[test]
// Removing recent posts then streaming them back in must
// converge to the untouched engine, bit for bit.
fn delta_and_inverse_restore_rankings_exactly() {
    let (world, engine) = engine();
    let mut live = engine.clone();
    let recent: Vec<PostId> = world
        .corpus
        .posts()
        .iter()
        .filter(|p| p.published.seconds() > world.now.seconds() / 2)
        .map(|p| p.id)
        .collect();
    assert!(!recent.is_empty(), "world has no recent posts");

    let removal = obs_model::CorpusDelta::for_removals(&world.corpus, &recent).unwrap();
    live.apply_delta(&removal);
    assert_eq!(live.doc_count(), engine.doc_count() - recent.len());

    let readd = obs_model::CorpusDelta::for_posts(&world.corpus, &recent).unwrap();
    live.apply_delta(&readd);
    assert_eq!(live.doc_count(), engine.doc_count());

    let workload = QueryWorkload::generate(7, 20, world.config.categories);
    for q in &workload.queries {
        assert_eq!(live.query(&q.terms, 20), engine.query(&q.terms, 20));
    }
    for s in world.corpus.sources() {
        assert_eq!(live.static_score(s.id), engine.static_score(s.id));
    }
}

#[test]
fn apply_deltas_equals_sequential_applies_even_through_the_clamp() {
    let (world, engine) = engine();
    let recent: Vec<PostId> = world
        .corpus
        .posts()
        .iter()
        .rev()
        .take(6)
        .map(|p| p.id)
        .collect();
    // A deliberately *inconsistent* burst: the same posts removed
    // twice in a row, driving some source's engagement counters
    // into the zero clamp mid-burst, then re-added. Summing the
    // burst's engagement first would miss the intermediate clamp;
    // in-order application must not.
    let deltas = vec![
        obs_model::CorpusDelta::for_removals(&world.corpus, &recent).unwrap(),
        obs_model::CorpusDelta::for_removals(&world.corpus, &recent).unwrap(),
        obs_model::CorpusDelta::for_posts(&world.corpus, &recent).unwrap(),
    ];

    let mut sequential = engine.clone();
    for delta in &deltas {
        sequential.apply_delta(delta);
    }
    let mut batched = engine.clone();
    batched.apply_deltas(deltas.iter());

    assert_eq!(batched.doc_count(), sequential.doc_count());
    for s in world.corpus.sources() {
        assert_eq!(batched.static_score(s.id), sequential.static_score(s.id));
    }
    let probe = vec!["duomo".to_owned(), "rooftop".to_owned()];
    assert_eq!(batched.query(&probe, 50), sequential.query(&probe, 50));
    // The batch detached the shared index exactly as a sequence
    // of applies would have: the original is untouched.
    assert!(!batched.shares_index_with(&engine));
    assert_eq!(engine.doc_count(), batched.doc_count());
}

#[test]
fn engagement_applied_to_a_clone_leaves_the_original_blend_alone() {
    let (world, engine) = engine();
    let scores = |e: &SearchEngine| -> Vec<f64> {
        let sources = world.corpus.sources().iter();
        sources.map(|s| e.static_score(s.id)).collect()
    };
    let before = scores(&engine);
    let recent: Vec<PostId> = world
        .corpus
        .posts()
        .iter()
        .rev()
        .take(6)
        .map(|p| p.id)
        .collect();
    let removal = obs_model::CorpusDelta::for_removals(&world.corpus, &recent).unwrap();
    assert!(!removal.engagement.is_empty());

    let mut live = engine.clone();
    live.apply_delta(&removal);
    assert_ne!(scores(&live), before);
    assert_eq!(scores(&engine), before);

    // The document half alone leaves even the clone's blend as is.
    let mut documents_only = engine.clone();
    documents_only.apply_documents_into(&mut None, [&removal]);
    assert_eq!(documents_only.doc_count(), live.doc_count());
    assert_eq!(scores(&documents_only), before);
}

#[test]
fn delta_for_unseen_source_grows_the_signal_vectors() {
    let (world, mut engine) = engine();
    let unseen = SourceId::new(world.corpus.sources().len() as u32 + 5);
    let mut delta = obs_model::CorpusDelta::new();
    delta.add_doc(PostId::new(900_000), unseen, "brand new source post");
    delta.note_engagement(unseen, 1, 0);
    engine.apply_delta(&delta);
    assert!(engine.static_score(unseen).is_finite());
    let hits = engine.query(&["brand".to_owned()], 10);
    assert!(hits.iter().any(|h| h.source == unseen));
}

#[test]
fn traffic_lifts_static_score() {
    let (world, engine) = engine();
    let panel = AlexaPanel::simulate(&world, 1);
    // Compare top-traffic vs bottom-traffic source static scores.
    let mut by_rank: Vec<(usize, SourceId)> = world
        .corpus
        .sources()
        .iter()
        .map(|s| (panel.traffic(s.id).unwrap().traffic_rank, s.id))
        .collect();
    by_rank.sort_unstable();
    let best = by_rank.first().unwrap().1;
    let worst = by_rank.last().unwrap().1;
    assert!(engine.static_score(best) > engine.static_score(worst));
}

#[test]
fn participation_penalty_depresses_engaged_sources() {
    let (world, _) = engine();
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let with_penalty = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let without_penalty = SearchEngine::build(
        &world.corpus,
        &panel,
        &links,
        BlendWeights {
            participation_penalty: 0.0,
            ..BlendWeights::default()
        },
    );
    // The most engaged source must lose static score under the
    // penalty relative to the penalty-free blend.
    let most_engaged = world
        .source_latents
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.engagement.total_cmp(&b.1.engagement))
        .map(|(i, _)| SourceId::new(i as u32))
        .unwrap();
    assert!(with_penalty.static_score(most_engaged) < without_penalty.static_score(most_engaged));
}

#[test]
fn empty_query_returns_nothing() {
    let (_, engine) = engine();
    assert!(engine.query::<String>(&[], 10).is_empty());
    // Stopword-only queries normalize to nothing.
    assert!(engine.query(&["the".to_owned()], 10).is_empty());
}

#[test]
fn borrowed_and_owned_queries_agree() {
    let (world, engine) = engine();
    let post = world
        .corpus
        .posts()
        .iter()
        .find(|p| !p.tags.is_empty())
        .expect("tagged post");
    let term = post.tags[0].as_str();
    // &str terms take the borrow fast path; String terms took the
    // original path. Results must be identical.
    let borrowed = engine.query(&[term], 50);
    let owned = engine.query(&[term.to_owned()], 50);
    assert!(!borrowed.is_empty());
    assert_eq!(borrowed, owned);
}

#[test]
fn clones_share_index_until_mutated() {
    let (world, engine) = engine();
    let snapshot = engine.clone();
    assert!(snapshot.shares_index_with(&engine));

    // Mutating a clone detaches it (copy-on-write) and leaves the
    // original untouched.
    let mut live = engine.clone();
    let last = world.corpus.posts().last().unwrap().id;
    let removal = obs_model::CorpusDelta::for_removals(&world.corpus, &[last]).unwrap();
    live.apply_delta(&removal);
    assert!(!live.shares_index_with(&engine));
    assert!(snapshot.shares_index_with(&engine));
    assert_eq!(snapshot.doc_count(), engine.doc_count());
    assert_eq!(live.doc_count(), engine.doc_count() - 1);
}

#[test]
fn engine_is_deterministic() {
    let (world, engine) = engine();
    let q = vec!["duomo".to_owned()];
    let a = engine.query(&q, 20);
    let b = engine.query(&q, 20);
    assert_eq!(a, b);
    assert!(engine.doc_count() > 0);
    let _ = world;
}

#[test]
fn dense_partial_matches_reference_on_random_corpora() {
    // Dense partials must equal the reference's to the bit. Engines
    // of different sizes take turns on this one thread, so scratch
    // left dirty or sized for another engine would show; the last
    // has just freed ordinals in a removal burst. The facade
    // proptest widens this to sharded topologies.
    let mut engines = Vec::new();
    let mut burst = None;
    for (seed, sources) in [(1001u64, 40usize), (2002, 90), (3003, 15)] {
        let world = World::generate(WorldConfig {
            sources,
            users: 300,
            ..WorldConfig::small(seed)
        });
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        let workload = QueryWorkload::generate(seed, 25, world.config.categories);
        if burst.is_none() {
            let mut burst_engine = engine.clone();
            let removed: Vec<PostId> = world
                .corpus
                .posts()
                .iter()
                .step_by(3)
                .map(|p| p.id)
                .collect();
            let delta = obs_model::CorpusDelta::for_removals(&world.corpus, &removed);
            burst_engine.apply_delta(&delta.unwrap());
            assert!(!burst_engine.index().free_ordinals().is_empty());
            burst = Some((burst_engine, workload.clone()));
        }
        engines.push((engine, workload));
    }
    engines.extend(burst);

    let bits = |partials: Vec<SourcePartial>| {
        let mut v: Vec<_> = (partials.iter())
            .map(|p| (p.source, p.matches, p.best.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    for i in 0..25 {
        for (engine, workload) in &engines {
            let normalized = normalize_query(&workload.queries[i].terms);
            let stats = ScatterStats::gather(&[engine.index()], &normalized);
            assert_eq!(
                bits(engine.partial_query(&normalized, &stats)),
                bits(engine.partial_query_unpruned(&normalized, &stats)),
                "query {i}"
            );
        }
    }
}
