//! Full index rebuild vs. incremental delta maintenance.
//!
//! The serving question behind `obs_search`'s delta API: when a
//! crawl tick observes one new post, what does it cost to make it
//! queryable? The build-once answer re-tokenizes the whole corpus;
//! the incremental answer applies one delta. The contrast is
//! measured at ~10k and ~100k indexed documents; incrementally
//! absorbing a single document should beat the rebuild by several
//! orders of magnitude (the acceptance bar is 10×).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use obs_analytics::{AlexaPanel, LinkGraph};
use obs_model::{CorpusDelta, PostId};
use obs_search::{BlendWeights, InvertedIndex, SearchEngine};
use obs_synth::{World, WorldConfig};
use std::hint::black_box;

/// A ranking-style world with roughly `posts` opening posts. The
/// generator's per-source latents damp the requested mean to about
/// 5.7 effective discussions per source, hence the divisor.
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

fn bench_scale(c: &mut Criterion, label: &str, world: &World) {
    let corpus = &world.corpus;
    let baseline = InvertedIndex::build(corpus);
    let docs = baseline.doc_count();
    // The replayed document: the last post, removed from the
    // baseline so each incremental iteration genuinely adds it.
    let last = PostId::new(corpus.posts().len() as u32 - 1);
    let delta = CorpusDelta::for_posts(corpus, &[last]).expect("last post resolves");
    let mut stale = baseline.clone();
    stale.remove_document(last);

    let mut group = c.benchmark_group(format!("index_maintenance_{label}"));
    group.sample_size(10);

    group.bench_function(format!("full_rebuild/{docs}_docs"), |b| {
        b.iter(|| black_box(InvertedIndex::build(corpus)))
    });
    group.bench_function(format!("incremental_add_1/{docs}_docs"), |b| {
        b.iter_batched(
            || stale.clone(),
            |mut index| {
                index.apply_delta(black_box(&delta));
                index
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function(format!("incremental_remove_1/{docs}_docs"), |b| {
        b.iter_batched(
            || baseline.clone(),
            |mut index| {
                index.remove_document(black_box(last));
                index
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_index_maintenance(c: &mut Criterion) {
    let small = world_with_posts(10_000, 42);
    bench_scale(c, "10k", &small);
    let large = world_with_posts(100_000, 43);
    bench_scale(c, "100k", &large);
}

fn bench_engine_delta(c: &mut Criterion) {
    let world = world_with_posts(10_000, 42);
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let last = PostId::new(world.corpus.posts().len() as u32 - 1);
    let removal = CorpusDelta::for_removals(&world.corpus, &[last]).expect("last post resolves");
    let readd = CorpusDelta::for_posts(&world.corpus, &[last]).expect("last post resolves");
    let mut stale = engine.clone();
    stale.apply_delta(&removal);

    let mut group = c.benchmark_group("engine_maintenance_10k");
    group.sample_size(10);
    group.bench_function("full_rebuild", |b| {
        b.iter(|| {
            black_box(SearchEngine::build(
                &world.corpus,
                &panel,
                &links,
                BlendWeights::default(),
            ))
        })
    });
    group.bench_function("apply_delta_1_doc", |b| {
        b.iter_batched(
            || stale.clone(),
            |mut engine| {
                engine.apply_delta(black_box(&readd));
                engine
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_index_maintenance, bench_engine_delta);
criterion_main!(benches);
