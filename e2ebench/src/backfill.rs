//! `backfill_crawl`: crawl cycles over a ~10k-doc world, one service
//! per source behind the simulated round trip, swept by a 2-worker
//! crawler. Each cycle starts an empty service, sweeps until a sweep
//! finds nothing fresh, asks a fixed number of queries of the filled
//! service, then crashes and recovers it.
//!
//! A sweep's burst is committed with `ingest_batch` in chunks of
//! [`SWEEP_CHUNK_DELTAS`] sources, as a crawler streaming its results
//! would, so that the commit is timed apart from the crawl and a run
//! has hundreds of commits, not one per cycle.

use crate::cpus::Spread;
use crate::inputs::{
    crawl_world, query_pool, query_sequence, Rng, CRAWL_ROUND_TRIP_MS, CRAWL_WORKERS, TOP_K,
};
use crate::serve::record_commit;
use crate::shadow::{self, CommitStages};
use crate::stack;
use crate::{ms, Run, QUERY_GROUP};
use obs_live::DeltaJournal;
use obs_model::{Clock, Duration as SimDuration};
use obs_wrappers::HighWaterMarks;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups, run on each of the 2 CPUs in turn.
const SETUPS: usize = 16;
/// Queries asked of each filled service: whole groups, so that every
/// group's wall time is reads only.
const READS_PER_CYCLE: usize = 2 * QUERY_GROUP;
/// Sources' deltas per `ingest_batch` of a sweep.
const SWEEP_CHUNK_DELTAS: usize = 16;
/// Crawl orders drawn per run, used by cycles in turn: the chunks a
/// sweep commits differ from cycle to cycle, so a run's commit tail
/// does not rest on one seed's handful of chunks.
const CRAWL_ORDERS: usize = 64;
/// Recoveries after each cycle's crash: one on each of the 2 CPUs.
const RECOVERIES_PER_CYCLE: usize = 2;
/// Request ids of crawl cycles, apart from bursts and queries.
const CYCLE_REQUESTS: u64 = 1 << 41;

pub fn run(seed: u64, seconds: f64, run: &mut Run, work: &Path) {
    let mut rng = Rng::new(seed, 2);
    let world = crawl_world();
    let pool = query_pool(&world);
    let sequence = query_sequence(&mut rng, pool.len(), false, 1 << 16);
    let sources: Vec<_> = world.corpus.sources().iter().map(|s| s.id).collect();
    let crawl_orders: Vec<Vec<_>> = (0..CRAWL_ORDERS)
        .map(|_| {
            let mut order = sources.clone();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    let docs = world.corpus.posts().len();
    run.stamp("docs", docs);
    run.stamp("sources", world.corpus.sources().len());
    run.stamp("pool_queries", pool.len());
    run.stamp("crawl_round_trip_ms", CRAWL_ROUND_TRIP_MS);
    run.stamp("crawl_workers", CRAWL_WORKERS);
    run.stamp("reads_per_cycle", READS_PER_CYCLE);
    run.stamp("sweep_chunk_deltas", SWEEP_CHUNK_DELTAS);

    let mut engine = None;
    let mut spread = Spread::new(1);
    for rep in 0..SETUPS {
        drop(engine.take());
        let span = run.open("setup", rep as u64);
        let t0 = Instant::now();
        engine = Some(stack::seed_engine(&world));
        run.samples.setup_s.push(t0.elapsed().as_secs_f64());
        run.close(span);
        spread.tick();
    }
    drop(spread);
    let engine = engine.expect("at least one set-up");

    let crawler = shadow::crawler();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut cycle = 0usize;
    while cycle == 0 || Instant::now() < deadline {
        let req = CYCLE_REQUESTS | cycle as u64;
        let dir = work.join(format!("crawl-{cycle}"));
        std::fs::remove_dir_all(&dir).ok();
        let order = &crawl_orders[cycle % CRAWL_ORDERS];
        let mut services = shadow::services(&world.corpus, order.iter().copied(), world.now);
        let Some(mut stack) = run.check.result("start", stack::start(&engine, &dir)) else {
            return;
        };
        let mut journal = match run.tracer {
            Some(_) => run.check.result(
                "scratch journal",
                DeltaJournal::create(dir.join("shadow.journal")),
            ),
            None => None,
        };
        let span = run.open("cycle", req);
        let mut marks = HighWaterMarks::new();
        let mut clock = Clock::starting_at(world.now);
        let fill = Instant::now();
        let mut filled = fill;
        let mut due = fill;
        loop {
            let sent = Instant::now();
            run.samples.send_lag_ms.push(ms(sent - due));
            let sweep_span = run.open("wrappers.crawl_sweep", req);
            let t0 = Instant::now();
            let swept = crawler.crawl_sweep(&mut services, &mut clock, &mut marks);
            let sweep_ns = t0.elapsed().as_nanos() as f64;
            run.close(sweep_span);
            let Some((deltas, report)) = run.check.result("crawl_sweep", swept) else {
                break;
            };
            if run.tracer.is_some() {
                shadow::record_sweep(&mut run.layers, &report, sweep_ns);
            }
            if deltas.is_empty() {
                break;
            }
            for chunk in deltas.chunks(SWEEP_CHUNK_DELTAS) {
                let stages = match (run.tracer.as_mut(), journal.as_mut()) {
                    (Some(tracer), Some(journal)) => shadow::commit(
                        &stack.service,
                        chunk,
                        journal,
                        tracer,
                        &mut run.layers,
                        &mut run.check,
                        req,
                    ),
                    _ => CommitStages::default(),
                };
                let commit_span = run.open("live.shard.ingest_batch", req);
                let c0 = Instant::now();
                let outcome = stack.service.ingest_batch(chunk);
                let done = Instant::now();
                run.close(commit_span);
                run.check.result("ingest_batch", outcome);
                if run.tracer.is_some() {
                    record_commit(
                        &mut run.layers,
                        &mut run.samples,
                        ms(done - c0),
                        ms(done - sent),
                        &stages,
                    );
                } else {
                    run.samples.commit_ms.push(ms(done - c0));
                    run.samples.visible_ms.push(ms(done - sent));
                }
                filled = done;
            }
            // A day of simulated idle time refills every token bucket.
            clock.advance(SimDuration(86_400));
            due = Instant::now();
        }
        run.samples.backfill_s.push((filled - fill).as_secs_f64());
        if let Some(journal) = journal {
            std::fs::remove_file(journal.path()).ok();
        }

        let reader = stack.service.reader();
        let cache0 = shadow::cache_counts(&stack.cache);
        let mut spread = Spread::new(QUERY_GROUP);
        for i in 0..READS_PER_CYCLE {
            let n = cycle * READS_PER_CYCLE + i;
            let terms = &pool[sequence[n % sequence.len()] as usize];
            let us = match run.tracer.as_mut() {
                Some(tracer) => shadow::ask(
                    &stack.service,
                    &reader,
                    &stack.cache,
                    terms,
                    tracer,
                    &mut run.layers,
                    n as u64,
                ),
                None => {
                    let q0 = Instant::now();
                    std::hint::black_box(reader.query(terms, TOP_K));
                    q0.elapsed().as_secs_f64() * 1e6
                }
            };
            run.samples.query_us.push(us);
            spread.tick();
        }
        drop(spread);
        run.check.attempted += READS_PER_CYCLE as u64;
        drop(reader);
        run.close(span);

        let (answers, repeat_us) = stack::gate(&stack.service, &pool, docs, &mut run.check);
        let layers = run.tracer.is_some().then_some(&mut run.layers);
        shadow::record_cache(
            &mut run.samples,
            layers,
            cache0,
            shadow::cache_counts(&stack.cache),
        );
        if run.tracer.is_some() {
            shadow::record_served(&mut run.layers, &stack.service, repeat_us);
        }
        let trace = run.tracer.as_mut().map(|t| (t, &mut run.layers));
        let secs = stack::crash_and_recover(
            stack,
            &engine,
            &dir,
            &pool,
            &answers,
            docs,
            RECOVERIES_PER_CYCLE,
            &mut run.check,
            trace,
        );
        run.samples.recover_s.extend(secs);
        std::fs::remove_dir_all(&dir).ok();
        cycle += 1;
    }
    run.stamp("cycles", cycle);
}
