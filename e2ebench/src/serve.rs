//! `serve_zipf` and `ingest_churn`: a closed-loop reader against the
//! ~30k-doc study corpus and an open-loop writer that commits re-crawl
//! bursts on a fixed schedule, both driven from one thread. The
//! workloads differ in how queries are drawn from the pool (zipf or
//! uniform) and in the sources per burst.

use crate::cpus::Spread;
use crate::inputs::{
    churn_bursts, load_deltas, query_pool, query_sequence, study_world, Rng, LOAD_BURST_DELTAS,
    TOP_K,
};
use crate::shadow::{self, CommitStages};
use crate::stack::{self, Stack};
use crate::{ms, Run, QUERY_GROUP};
use obs_live::DeltaJournal;
use obs_synth::World;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct ServeSpec {
    /// Writer bursts per second.
    pub burst_hz: f64,
    /// Sources re-crawled per burst.
    pub sources_per_burst: std::ops::RangeInclusive<usize>,
    /// Queries drawn zipf by pool rank (else uniform).
    pub zipf: bool,
}

pub const SERVE_ZIPF: ServeSpec = ServeSpec {
    // Four a second, so that a 45 s run's commit p90 rests on at least
    // ten commits beyond it; the draw's head still refills the cache
    // between publishes.
    burst_hz: 4.0,
    sources_per_burst: 1..=1,
    zipf: true,
};

pub const INGEST_CHURN: ServeSpec = ServeSpec {
    burst_hz: 4.0,
    // Two to four sources: about 29% of bursts touch one shard, the
    // rest both. With one to four the split is near 50%, and the
    // median commit jumps between the two modes from run to run.
    sources_per_burst: 2..=4,
    zipf: false,
};

pub const STUDY_POSTS: usize = 30_000;
/// Even, so that with 2 CPUs each runs half of the set-ups.
const SETUPS: usize = 8;
/// Even, so that with 2 CPUs each runs half of the recoveries.
const RECOVERIES: usize = 8;
/// The untimed start of the schedule.
const WARMUP: Duration = Duration::from_secs(3);
/// Fewest queries run between two bursts, so that a writer behind
/// schedule still leaves the reader some turns.
const QUERIES_PER_BURST: usize = 8;
/// Length of the pre-drawn query sequence (cycled if a run outlasts it).
const SEQUENCE: usize = 1 << 20;

pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, run: &mut Run, work: &Path) {
    let mut rng = Rng::new(seed, 1);
    let world = study_world(STUDY_POSTS);
    let pool = query_pool(&world);
    let sequence = query_sequence(&mut rng, pool.len(), spec.zipf, SEQUENCE);
    let count = (seconds * spec.burst_hz).ceil() as usize + 1;
    let bursts = churn_bursts(&world, &mut rng, count, spec.sources_per_burst.clone());
    let load = load_deltas(&world);
    let docs = world.corpus.posts().len();
    run.stamp("docs", docs);
    run.stamp("sources", world.corpus.sources().len());
    run.stamp("pool_queries", pool.len());
    run.stamp("query_draw", if spec.zipf { "zipf" } else { "uniform" });
    run.stamp("writer_bursts_per_s", spec.burst_hz);
    run.stamp("sources_per_burst", format!("{:?}", spec.sources_per_burst));
    run.stamp("recrawl_max_posts", crate::inputs::RECRAWL_MAX_POSTS);
    let burst_docs: Vec<f64> = bursts
        .iter()
        .map(|b| b.iter().map(|d| d.added.len()).sum::<usize>() as f64)
        .collect();
    run.stamp(
        "docs_per_burst_mean",
        crate::stats::mean(&burst_docs).unwrap_or(0.0),
    );

    let dir = work.join("service");
    let mut built = None;
    // Set-ups run on each CPU in turn; the bulk load's per-shard
    // threads may use every CPU.
    let mut spread = Spread::new(1);
    for rep in 0..SETUPS {
        // The previous set-up is dropped first, like a restart.
        drop(built.take());
        std::fs::remove_dir_all(&dir).ok();
        let span = run.open("setup", rep as u64);
        let t0 = Instant::now();
        let engine = stack::seed_engine(&world);
        let Some(mut stack) = run.check.result("start", stack::start(&engine, &dir)) else {
            return;
        };
        let fill = Instant::now();
        spread.unpinned(|| {
            for burst in load.chunks(LOAD_BURST_DELTAS) {
                run.check
                    .result("bulk load ingest_batch", stack.service.ingest_batch(burst));
            }
        });
        run.samples.backfill_s.push(fill.elapsed().as_secs_f64());
        run.samples.setup_s.push(t0.elapsed().as_secs_f64());
        run.close(span);
        built = Some((stack, engine));
        spread.tick();
    }
    drop(spread);
    let (mut stack, engine) = built.expect("at least one set-up");

    let period = Duration::from_secs_f64(1.0 / spec.burst_hz);
    // Warm-up: the schedule's start, run untraced and then forgotten
    // but for its checks. The first commits after the bulk load take
    // two to three times as long as the rest.
    let tracer = run.tracer.take();
    drive(
        &mut stack, &world, &pool, &sequence, &bursts, period, WARMUP, run, &dir,
    );
    run.tracer = tracer;
    run.samples.forget_load();
    let length = Duration::from_secs_f64(seconds);
    drive(
        &mut stack, &world, &pool, &sequence, &bursts, period, length, run, &dir,
    );

    let (answers, repeat_us) = stack::gate(&stack.service, &pool, docs, &mut run.check);
    if run.tracer.is_some() {
        shadow::record_served(&mut run.layers, &stack.service, repeat_us);
    }
    let trace = run.tracer.as_mut().map(|t| (t, &mut run.layers));
    run.samples.recover_s = stack::crash_and_recover(
        stack,
        &engine,
        &dir,
        &pool,
        &answers,
        docs,
        RECOVERIES,
        &mut run.check,
        trace,
    );
}

/// Runs the schedule on this thread: a due burst goes first, otherwise
/// the next query runs, and at least [`QUERIES_PER_BURST`] queries run
/// between two bursts. One load thread, so that the reader never
/// competes with a commit's per-shard threads for the two CPUs.
///
/// Traced, each burst is also re-crawled through the wrappers and its
/// commit shadowed layer by layer before the real `ingest_batch`, and
/// each query goes through [`shadow::ask`].
#[allow(clippy::too_many_arguments)]
fn drive(
    stack: &mut Stack,
    world: &World,
    pool: &[Vec<String>],
    sequence: &[u32],
    bursts: &[Vec<obs_model::CorpusDelta>],
    period: Duration,
    length: Duration,
    run: &mut Run,
    dir: &Path,
) {
    let mut journal = None;
    if run.tracer.is_some() {
        let created = DeltaJournal::create(dir.join("shadow.journal"));
        let Some(created) = run.check.result("scratch journal", created) else {
            return;
        };
        journal = Some(created);
    }
    let Run {
        samples,
        layers,
        tracer,
        check,
        ..
    } = run;
    let reader = stack.service.reader();
    let cache0 = shadow::cache_counts(&stack.cache);
    let mut spread = Spread::new(QUERY_GROUP);
    let start = Instant::now();
    let deadline = start + length;
    let (mut next_burst, mut queries, mut queries_since_burst) =
        (0usize, 0usize, QUERIES_PER_BURST);
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let due = start + period * next_burst as u32;
        if next_burst < bursts.len()
            && due < deadline
            && now >= due
            && queries_since_burst >= QUERIES_PER_BURST
        {
            let (burst, req) = (&bursts[next_burst], next_burst as u64);
            samples.send_lag_ms.push(ms(now - due));
            let service = &mut stack.service;
            let (commit_ms, stages) =
                spread.unpinned(|| match (tracer.as_mut(), journal.as_mut()) {
                    (Some(tracer), Some(journal)) => {
                        let span = tracer.open("burst", req);
                        shadow::recrawl(
                            &world.corpus,
                            world.now,
                            burst,
                            tracer,
                            layers,
                            check,
                            req,
                        );
                        let stages =
                            shadow::commit(service, burst, journal, tracer, layers, check, req);
                        let (outcome, ns) = tracer.time("live.shard.ingest_batch", req, || {
                            service.ingest_batch(burst)
                        });
                        tracer.close(span);
                        check.result("ingest_batch", outcome);
                        (ns / 1e6, Some(stages))
                    }
                    _ => {
                        let sent = Instant::now();
                        let outcome = service.ingest_batch(burst);
                        let commit_ms = ms(sent.elapsed());
                        check.result("ingest_batch", outcome);
                        (commit_ms, None)
                    }
                });
            let visible_ms = ms(due.elapsed());
            match stages {
                Some(stages) => record_commit(layers, samples, commit_ms, visible_ms, &stages),
                None => {
                    samples.commit_ms.push(commit_ms);
                    samples.visible_ms.push(visible_ms);
                }
            }
            next_burst += 1;
            queries_since_burst = 0;
            continue;
        }
        let terms = &pool[sequence[queries % sequence.len()] as usize];
        let us = match tracer.as_mut() {
            Some(tracer) => shadow::ask(
                &stack.service,
                &reader,
                &stack.cache,
                terms,
                tracer,
                layers,
                queries as u64,
            ),
            None => {
                let t0 = Instant::now();
                std::hint::black_box(reader.query(terms, TOP_K));
                t0.elapsed().as_secs_f64() * 1e6
            }
        };
        samples.query_us.push(us);
        spread.tick();
        check.attempted += 1;
        queries += 1;
        queries_since_burst += 1;
    }
    drop(spread);
    let traced = tracer.is_some();
    shadow::record_cache(
        samples,
        traced.then_some(layers),
        cache0,
        shadow::cache_counts(&stack.cache),
    );
    if let Some(journal) = journal {
        std::fs::remove_file(journal.path()).ok();
    }
}

/// One traced commit: the end-to-end samples, the layer sample, and
/// the stage times the attribution summary divides by it.
pub fn record_commit(
    layers: &mut shadow::Layers,
    samples: &mut crate::Samples,
    commit_ms: f64,
    visible_ms: f64,
    stages: &CommitStages,
) {
    samples.commit_ms.push(commit_ms);
    samples.visible_ms.push(visible_ms);
    layers.add("live.shard.commit_ms", commit_ms);
    layers.add("attr.commit_ms", commit_ms);
    layers.add("attr.detach_ms", stages.detach_ms);
    layers.add("attr.apply_ms", stages.apply_ms);
    layers.add("attr.reblend_ms", stages.reblend_ms);
    layers.add("attr.append_ms", stages.append_ms);
    layers.add("attr.drop_ms", stages.drop_ms);
}
