//! The deployed serving stack, built and checked only through public
//! APIs: a 2-shard `ShardedLiveService` with `ShardMetrics` attached
//! and a 1024-entry `QueryCache`, as `examples/sharded_live.rs` runs it.

use crate::cpus::Spread;
use crate::inputs::{CACHE_ENTRIES, GATE_STRIDE, SHARDS, TOP_K};
use crate::shadow::Layers;
use crate::trace::Tracer;
use obs_analytics::{AlexaPanel, LinkGraph};
use obs_live::{CacheMetrics, LiveError, QueryCache, ShardMetrics, ShardedLiveService};
use obs_model::{CorpusDelta, PostId};
use obs_search::{scatter_query_unpruned, BlendWeights, SearchEngine, SearchHit};
use obs_synth::World;
use obs_telemetry::Registry;
use std::fmt::Debug;
use std::path::Path;
use std::time::Instant;

/// Operations attempted and failed, with the first few failures.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Check {
    pub fn pass(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
        ok
    }

    pub fn result<T, E: Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.pass(false, || format!("{what}: {e:?}"));
                None
            }
        }
    }
}

/// Bit-identical rankings: same sources, positions and score bits.
pub fn same_hits(a: &[SearchHit], b: &[SearchHit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.source == y.source
                && x.position == y.position
                && x.score.to_bits() == y.score.to_bits()
        })
}

pub struct Stack {
    pub service: ShardedLiveService,
    pub cache: CacheMetrics,
    _registry: Registry,
}

/// The sharded seed: `world`'s analytics-derived static signals over
/// an index with every document removed again.
pub fn seed_engine(world: &World) -> SearchEngine {
    let panel = AlexaPanel::simulate(world, 1);
    let links = LinkGraph::simulate(world, 2);
    let mut engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    engine.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).expect("posts resolve"));
    engine
}

pub fn start(seed: &SearchEngine, dir: &Path) -> Result<Stack, LiveError> {
    let registry = Registry::new();
    let cache = CacheMetrics::new(&registry);
    let service = ShardedLiveService::start(seed, SHARDS, dir)?
        .with_metrics(ShardMetrics::new(&registry, SHARDS))
        .with_query_cache(QueryCache::new(CACHE_ENTRIES).with_metrics(cache.clone()));
    Ok(Stack {
        service,
        cache,
        _registry: registry,
    })
}

/// The correctness gate on a live service. For every
/// `GATE_STRIDE`-th pool query, on one pin: the cached answer, a
/// repeated (cache-hit) ask, the uncached plan and the unpruned
/// scatter over the shard engines must agree bit for bit. The doc
/// count must be `expected_docs`. Returns the answers and how long
/// each repeated ask took (µs).
pub fn gate(
    service: &ShardedLiveService,
    pool: &[Vec<String>],
    expected_docs: usize,
    check: &mut Check,
) -> (Vec<Vec<SearchHit>>, Vec<f64>) {
    let reader = service.reader();
    let engines: Vec<&SearchEngine> = (0..service.shards())
        .map(|i| service.shard_engine(i))
        .collect();
    let weights = *engines[0].weights();
    let mut repeat_us = Vec::new();
    let answers = pool
        .iter()
        .step_by(GATE_STRIDE)
        .map(|terms| {
            let pin = reader.pin();
            let cached = reader.query_pinned(&pin, terms, TOP_K);
            let t0 = Instant::now();
            let repeat = reader.query_pinned(&pin, terms, TOP_K);
            repeat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let uncached = reader.query_uncached(&pin, terms, TOP_K);
            let oracle = scatter_query_unpruned(
                &engines,
                terms,
                TOP_K,
                |s| reader.static_score(s),
                &weights,
            );
            for (other, what) in [
                (&repeat, "repeated"),
                (&uncached, "uncached"),
                (&oracle, "unpruned"),
            ] {
                check.pass(same_hits(&cached, other), || {
                    format!("{terms:?}: cached != {what}")
                });
            }
            cached
        })
        .collect();
    for (docs, what) in [
        (service.doc_count(), "service"),
        (reader.doc_count(), "reader"),
    ] {
        check.pass(docs == expected_docs, || {
            format!("{what} doc_count {docs} != {expected_docs}")
        });
    }
    (answers, repeat_us)
}

/// Crashes the stack (drops it without shutdown) and recovers it
/// `times` times from its journals, the attempts spread over the CPUs. Every recovered service must
/// answer the gate sample exactly as `answers` and hold
/// `expected_docs`. Returns each recovery's seconds.
#[allow(clippy::too_many_arguments)]
pub fn crash_and_recover(
    stack: Stack,
    seed: &SearchEngine,
    dir: &Path,
    pool: &[Vec<String>],
    answers: &[Vec<SearchHit>],
    expected_docs: usize,
    times: usize,
    check: &mut Check,
    mut trace: Option<(&mut Tracer, &mut Layers)>,
) -> Vec<f64> {
    if let Some((_, layers)) = trace.as_mut() {
        let records: usize = (0..SHARDS).map(|i| stack.service.journal_len(i)).sum();
        layers.add("live.journal.records", records as f64);
    }
    drop(stack);
    let mut secs = Vec::with_capacity(times);
    // Recovery spawns no threads, so, like the readers, it can be moved
    // over the CPUs: each attempt runs on the next one in turn.
    let mut spread = Spread::new(1);
    for attempt in 0..times {
        spread.tick();
        let span = trace
            .as_mut()
            .map(|(t, _)| t.open("recover", attempt as u64));
        let t0 = Instant::now();
        let recovered = ShardedLiveService::recover(seed, SHARDS, dir);
        secs.push(t0.elapsed().as_secs_f64());
        if let (Some((tracer, layers)), Some(span)) = (trace.as_mut(), span) {
            tracer.close(span);
            crate::shadow::replay(dir, tracer, layers, attempt as u64);
        }
        let Some((service, _)) = check.result("recover", recovered) else {
            continue;
        };
        let reader = service.reader();
        for (terms, expected) in pool.iter().step_by(GATE_STRIDE).zip(answers) {
            let got = reader.query(terms, TOP_K);
            check.pass(same_hits(&got, expected), || {
                format!("{terms:?}: recovered != pre-crash")
            });
        }
        let docs = service.doc_count();
        check.pass(docs == expected_docs, || {
            format!("recovered doc_count {docs} != {expected_docs}")
        });
    }
    secs
}
