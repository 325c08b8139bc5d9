//! Concurrent correctness of the serving layer, at one shard and at
//! two.
//!
//! N reader threads pin the served state while one writer ingests a
//! known sequence of bursts. The test is deterministic in what it
//! *asserts* (not in thread interleaving, which is the point): the
//! expected engine of every shard after every burst is precomputed
//! by routing the same bursts onto scratch engines, and the expected
//! global blend by applying them to one unsharded engine. Every pin
//! any reader takes — whichever commit it races with — must show
//! each shard at one of its burst boundaries, with sequences that
//! never regress, and must answer a probe query exactly as the
//! scatter plan over those precomputed shard engines does under one
//! of the published blends (the blend has its own epoch cell, so a
//! pin may pair a shard snapshot with the blend of an adjacent
//! burst; blends never regress either). A torn read (half-applied
//! burst) fails these checks.
//!
//! Run this under `--release` too: races hide in debug timings (CI
//! does — see the test job).

use obs_analytics::{AlexaPanel, LinkGraph};
use obs_live::{ShardRouter, ShardedLiveService, ShardedReader};
use obs_model::{CorpusDelta, PostId, Timestamp};
use obs_search::{scatter_query, BlendWeights, SearchEngine, SearchHit, StaticBlend};
use obs_synth::{World, WorldConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str, shards: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "obs_live_conc_{}_{}_{}",
        std::process::id(),
        tag,
        shards
    ))
}

const PROBE: [&str; 4] = ["duomo", "rooftop", "castle", "gardens"];

/// A world, its full build, the empty seed, the content up to the
/// midpoint as one load delta, and the recent posts as `chunks`
/// deltas.
struct Fixture {
    full: SearchEngine,
    seed: SearchEngine,
    load: CorpusDelta,
    recent: Vec<CorpusDelta>,
}

fn fixture(world_seed: u64, chunks: usize) -> Fixture {
    let world = World::generate(WorldConfig {
        sources: 60,
        users: 300,
        ..WorldConfig::small(world_seed)
    });
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let full = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let midpoint = Timestamp(world.now.seconds() / 2);
    let (recent, old): (Vec<_>, Vec<_>) = world
        .corpus
        .posts()
        .iter()
        .partition(|p| p.published > midpoint);
    let recent: Vec<PostId> = recent.iter().map(|p| p.id).collect();
    let old: Vec<PostId> = old.iter().map(|p| p.id).collect();
    assert!(recent.len() >= 16, "world too small: {}", recent.len());
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = full.clone();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
    Fixture {
        load: CorpusDelta::for_posts(&world.corpus, &old).unwrap(),
        recent: recent
            .chunks(recent.len().div_ceil(chunks))
            .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).unwrap())
            .collect(),
        full,
        seed,
    }
}

/// The expected state after every burst (index 0 = genesis).
struct Trajectory {
    /// Per shard, its `(seq, engine)` after each burst.
    shards: Vec<Vec<(u64, SearchEngine)>>,
    /// The global blend after each burst.
    blends: Vec<StaticBlend>,
}

impl Trajectory {
    fn new(seed: &SearchEngine, shards: usize, bursts: &[&[CorpusDelta]]) -> Trajectory {
        let mut router = ShardRouter::new(shards).unwrap();
        let mut engines = vec![(0u64, seed.clone()); shards];
        let mut flat = seed.clone();
        let mut trajectory = Trajectory {
            shards: vec![vec![(0, seed.clone())]; shards],
            blends: vec![seed.blend().clone()],
        };
        for burst in bursts {
            let mut routed = vec![Vec::new(); shards];
            for delta in burst.iter().filter(|d| !d.is_empty()) {
                for (shard, sub) in router.route(delta).into_iter().enumerate() {
                    if !sub.is_empty() {
                        routed[shard].push(sub);
                    }
                }
            }
            for (shard, batch) in routed.iter().enumerate() {
                let (seq, engine) = &mut engines[shard];
                engine.apply_deltas(batch.iter());
                *seq += batch.len() as u64;
                trajectory.shards[shard].push((*seq, engine.clone()));
            }
            flat.apply_deltas(burst.iter());
            trajectory.blends.push(flat.blend().clone());
        }
        trajectory
    }

    /// Final per-shard sequences.
    fn final_seqs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.last().unwrap().0).collect()
    }

    /// The oracle answer over the shard states at `bursts` (one burst
    /// index per shard) under the blend after burst `blend`.
    fn answer(&self, bursts: &[usize], blend: usize) -> Vec<SearchHit> {
        let engines: Vec<&SearchEngine> = bursts
            .iter()
            .enumerate()
            .map(|(shard, &b)| &self.shards[shard][b].1)
            .collect();
        let blend = &self.blends[blend];
        scatter_query(&engines, &PROBE, 20, |s| blend.score(s), blend.weights())
    }
}

/// One reader's loop: pins until every shard shows its final
/// sequence, validating each pin against the trajectory. Returns the
/// number of pins checked.
fn validate_pins(reader: &ShardedReader, trajectory: &Trajectory, reader_id: usize) -> u64 {
    let final_seqs = trajectory.final_seqs();
    let mut last_seqs = vec![0u64; final_seqs.len()];
    let mut last_blend = 0usize;
    let mut checked = 0;
    loop {
        let pin = reader.pin();
        let seqs = pin.seqs();
        let bursts: Vec<usize> = seqs
            .iter()
            .enumerate()
            .map(|(shard, &seq)| {
                assert!(
                    seq >= last_seqs[shard],
                    "reader {reader_id}: shard {shard} regressed {} -> {seq}",
                    last_seqs[shard]
                );
                trajectory.shards[shard]
                    .iter()
                    .position(|(s, _)| *s == seq)
                    .unwrap_or_else(|| {
                        panic!("reader {reader_id}: shard {shard} served mid-burst seq {seq}")
                    })
            })
            .collect();
        last_seqs = seqs;
        let got = reader.query_pinned(&pin, &PROBE, 20);
        last_blend = (last_blend..trajectory.blends.len())
            .find(|&blend| trajectory.answer(&bursts, blend) == got)
            .unwrap_or_else(|| {
                panic!("reader {reader_id}: torn answer at shard bursts {bursts:?}")
            });
        checked += 1;
        if last_seqs == final_seqs {
            return checked;
        }
    }
}

/// Starts a `shards`-shard service with the fixture's load delta
/// committed, then races 4 validating readers against `write`, which
/// must commit exactly `bursts` (the load is burst 0).
fn race_readers(
    fx: &Fixture,
    shards: usize,
    tag: &str,
    bursts: &[&[CorpusDelta]],
    write: impl FnOnce(&mut ShardedLiveService),
) {
    let load = [fx.load.clone()];
    let mut all_bursts: Vec<&[CorpusDelta]> = vec![&load];
    all_bursts.extend_from_slice(bursts);
    let trajectory = Trajectory::new(&fx.seed, shards, &all_bursts);

    let dir = temp_dir(tag, shards);
    let mut service = ShardedLiveService::start(&fx.seed, shards, &dir).unwrap();
    service.ingest(&fx.load).unwrap();
    let pins_checked = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|reader_id| {
                let reader = service.reader();
                let trajectory = &trajectory;
                let checked = &pins_checked;
                scope.spawn(move || {
                    let n = validate_pins(&reader, trajectory, reader_id);
                    checked.fetch_add(n, Ordering::Relaxed);
                })
            })
            .collect();
        write(&mut service);
        for handle in readers {
            handle.join().expect("reader thread panicked");
        }
    });

    // Every reader ran to the final sequences.
    assert!(pins_checked.load(Ordering::Relaxed) >= 4);
    assert_eq!(service.seqs(), trajectory.final_seqs());
    assert_eq!(service.doc_count(), fx.full.doc_count());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn readers_never_observe_torn_or_regressing_pins() {
    let fx = fixture(7007, 16);
    let bursts: Vec<&[CorpusDelta]> = fx.recent.chunks(1).collect();
    for shards in [1, 2] {
        // The writer: journal ∥ apply → publish, one delta at a time.
        race_readers(&fx, shards, "torn", &bursts, |service| {
            for delta in &fx.recent {
                service.ingest(delta).unwrap();
            }
        });
    }
}

#[test]
fn readers_racing_batched_ingest_observe_only_batch_boundaries() {
    // Group-commit ingestion publishes once per *batch*: the states
    // "inside" a batch must never be served. 16 deltas, committed 4
    // at a time, so the trajectory has 4 bursts past the load.
    let fx = fixture(7009, 16);
    let bursts: Vec<&[CorpusDelta]> = fx.recent.chunks(4).collect();
    for shards in [1, 2] {
        race_readers(&fx, shards, "batch_boundaries", &bursts, |service| {
            // The middle batch suffers an injected fsync failure on
            // every shard first — readers must be none the wiser, and
            // the retry must succeed transparently.
            for (i, batch) in bursts.iter().enumerate() {
                if i == bursts.len() / 2 {
                    let seqs = service.seqs();
                    let lens: Vec<usize> = (0..shards).map(|s| service.journal_len(s)).collect();
                    for shard in 0..shards {
                        service.inject_journal_sync_failures(shard, 1);
                    }
                    service
                        .ingest_batch(batch)
                        .expect_err("injected fsync failure must surface");
                    assert_eq!(service.seqs(), seqs);
                    let after: Vec<usize> = (0..shards).map(|s| service.journal_len(s)).collect();
                    assert_eq!(after, lens);
                }
                service.ingest_batch(batch).unwrap();
            }
        });
    }
}

#[test]
fn failed_batch_sync_is_never_replayed_by_recovery() {
    // The all-or-nothing contract, end to end: a batch whose fsync
    // failed must leave no trace — not in the served pins, not in the
    // journal files, not in what recover() replays.
    let fx = fixture(7010, 8);
    let (first_half, second_half) = fx.recent.split_at(fx.recent.len() / 2);
    for shards in [1, 2] {
        let dir = temp_dir("no_replay", shards);
        let mut service = ShardedLiveService::start(&fx.seed, shards, &dir).unwrap();
        service.ingest(&fx.load).unwrap();
        service.ingest_batch(first_half).unwrap();
        let reader = service.reader();
        let committed_seqs = service.seqs();
        let committed_hits = reader.query(&PROBE, 20);

        for shard in 0..shards {
            service.inject_journal_sync_failures(shard, 1);
        }
        service
            .ingest_batch(second_half)
            .expect_err("injected fsync failure must surface");
        // Served state: untouched, down to the query results.
        let pin = reader.pin();
        assert_eq!(pin.seqs(), committed_seqs);
        assert_eq!(reader.query_pinned(&pin, &PROBE, 20), committed_hits);

        // Crash right here (drop without shutdown): recovery must
        // replay exactly the committed records and nothing of the
        // failed batch.
        drop((reader, service));
        let (mut recovered, reports) = ShardedLiveService::recover(&fx.seed, shards, &dir).unwrap();
        for (report, seq) in reports.iter().zip(&committed_seqs) {
            assert_eq!(report.checkpoint_seq + report.replayed as u64, *seq);
            assert!(!report.torn_tail_dropped, "retraction must be clean");
        }
        assert_eq!(recovered.seqs(), committed_seqs);
        assert_eq!(recovered.reader().query(&PROBE, 20), committed_hits);

        // And the recovered service continues the stream where the
        // acknowledged prefix ended.
        recovered.ingest_batch(second_half).unwrap();
        assert_eq!(recovered.doc_count(), fx.full.doc_count());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn writer_throughput_is_not_gated_by_slow_readers() {
    // A reader that *holds* a pin for the whole run must not stop the
    // writer from publishing: old epochs stay alive, new ones keep
    // flowing.
    let fx = fixture(7008, 1);
    let doc = &fx.load.added[0];
    let mut removal = CorpusDelta::new();
    removal.remove_doc(doc.post);
    let mut readd = CorpusDelta::new();
    readd.add_doc(doc.post, doc.source, doc.text.clone());

    for shards in [1, 2] {
        let dir = temp_dir("epochs", shards);
        let mut service = ShardedLiveService::start(&fx.seed, shards, &dir).unwrap();
        service.ingest(&fx.load).unwrap();
        service.ingest_batch(&fx.recent).unwrap();
        let reader = service.reader();

        let pinned = reader.pin(); // held across all writes
        let pinned_seqs = pinned.seqs();
        let pinned_hits = reader.query_uncached(&pinned, &PROBE, 20);
        let home = service.router().home_of(doc.post).unwrap();

        for _ in 0..25 {
            service.ingest(&removal).unwrap();
            service.ingest(&readd).unwrap();
        }

        // The pinned epochs are untouched by 50 published snapshots…
        assert_eq!(pinned.seqs(), pinned_seqs);
        assert_eq!(reader.query_uncached(&pinned, &PROBE, 20), pinned_hits);
        // …and the current epoch of the post's shard has moved on.
        let current = reader.pin().seqs();
        assert_eq!(current[home], pinned_seqs[home] + 50);
        assert_eq!(reader.doc_count(), fx.full.doc_count());
        std::fs::remove_dir_all(&dir).ok();
    }
}
