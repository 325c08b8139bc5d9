//! The live service: N journal + writer + snapshot columns behind
//! one router and one scatter-gather query plan. One shard is
//! simply N = 1.
//!
//! Every shard owns its own [`SearchEngine`] + [`DeltaJournal`] +
//! [`SnapshotStore`] and enforces the ordering that makes crashes
//! safe: **journal (fsync) ∥ apply → publish**. The journal append
//! runs on a scoped thread while the writer applies the same records'
//! documents to its private engine; only the publish waits for both,
//! so each journal is a superset of every snapshot its shard
//! published. A refused fsync resets the writer to the published
//! snapshot's engine, which is the pre-commit state because every
//! commit publishes.
//! Routing by source id ([`SourceId::shard`]) makes a commit's
//! copy-on-write detach and fsync per-shard; routed sub-batches
//! commit in parallel, and recovery replays each journal on its own,
//! past that shard's sequence in a [`Checkpoint`]:
//!
//! ```text
//!                 ┌► shard 0: journal (fsync) ∥ apply ─► publish
//! deltas ─ route ─┼► shard 1: journal (fsync) ∥ apply ─► publish
//!  (by source id) └► shard 2: journal (fsync) ∥ apply ─► publish
//!                                │ (parallel, one thread per busy shard)
//!            engagement of committed shards ─► global StaticBlend
//!                                              └► blend publish
//! ```
//!
//! Queries fan out with the scatter-gather plan
//! ([`obs_search::scatter_query`]): gather exact global statistics
//! across shard snapshots, score each shard against them, merge
//! top-k — **bit-identical to the unsharded scorer** because every
//! BM25 statistic is an exact integer sum and a source lives wholly
//! in one shard. The one piece of state that cannot be partitioned —
//! the z-score-standardized static blend — stays global: each commit
//! folds every committed shard's engagement into a copy of the one
//! published [`StaticBlend`] ([`StaticBlend::absorb`], the unsharded
//! engine's code path) and publishes it through its own epoch cell
//! beside the shard snapshots. Shard engines keep the seed's blend.
//!
//! Shards are **independent failure domains**: a refused fsync
//! retracts only that shard's sub-batch
//! ([`LiveError::ShardCommit`]), committed shards stay committed,
//! and [`ShardedLiveService::tick_sweep`] rolls back the high-water
//! marks of exactly the sources routed to the failed shards
//! ([`HighWaterMarks::rollback_many`]).

// Replay determinism (clippy.toml bans hash-ordered containers and
// the wall clock here): routing decides which journal a delta lands
// in, so the same delta stream must route identically on every node
// and on every recovery replay.
#![warn(clippy::disallowed_types)]

use crate::cache::QueryCache;
use crate::error::LiveError;
use crate::journal::DeltaJournal;
use crate::metrics::{ShardMetrics, Stage, StageTimer};
use crate::snapshot::{EngineSnapshot, LiveWriter, SnapshotReader, SnapshotStore};
use obs_model::{Clock, CorpusDelta, PostId, SourceId};
use obs_search::{
    scatter_query, scatter_query_traced, SearchEngine, SearchHit, SearchMetrics, StaticBlend,
};
use obs_wrappers::{Crawler, DataService, HighWaterMarks, SweepReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Routes change-sets to shards by source id.
///
/// Documents and engagement route to [`SourceId::shard`] — a pure
/// function of the id, so a source's whole history lands in one
/// shard, which is what makes per-source aggregation (best score,
/// match count, engagement order) exact under scatter-gather.
/// Removals carry only a [`PostId`], so the router keeps a
/// post → shard registry fed by the adds it routes; removing a post
/// it never saw broadcasts to every shard, where removing an absent
/// document is a safe no-op.
///
/// With one shard, routing is the identity: the single sub-delta
/// reproduces the input delta exactly, so a 1-shard service journals
/// byte-for-byte what a bare journal fed the same bursts holds.
///
/// ```
/// use obs_live::ShardRouter;
/// use obs_model::{CorpusDelta, PostId, SourceId};
///
/// let mut router = ShardRouter::new(4)?;
/// let mut delta = CorpusDelta::new();
/// delta.add_doc(PostId::new(0), SourceId::new(3), "duomo rooftop");
/// delta.add_doc(PostId::new(1), SourceId::new(9), "castle gardens");
/// delta.note_engagement(SourceId::new(3), 1, 2);
///
/// let routed = router.route(&delta);
/// assert_eq!(routed.len(), 4);
///
/// // Every document landed in its source's shard, engagement
/// // beside it.
/// let home = SourceId::new(3).shard(4);
/// assert_eq!(routed[home].added[0].post, PostId::new(0));
/// assert_eq!(routed[home].engagement[0].source, SourceId::new(3));
///
/// // A later removal follows the registry back to the same shard.
/// let mut removal = CorpusDelta::new();
/// removal.remove_doc(PostId::new(0));
/// let routed = router.route(&removal);
/// assert_eq!(routed[home].removed, vec![PostId::new(0)]);
/// # Ok::<(), obs_live::LiveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: usize,
    /// Which shard each live post's document went to — consulted
    /// (and cleared) by removals, which carry no source id. Grows
    /// O(live posts); rebuilt from the journals on recovery.
    /// BTreeMap so iteration (debug dumps, future rebalancing) is
    /// ordered the same on every node and replay.
    homes: BTreeMap<PostId, usize>,
}

impl ShardRouter {
    /// A router over `shards` partitions; [`LiveError::NoShards`] if
    /// `shards` is zero.
    pub fn new(shards: usize) -> Result<ShardRouter, LiveError> {
        if shards == 0 {
            return Err(LiveError::NoShards);
        }
        Ok(ShardRouter {
            shards,
            homes: BTreeMap::new(),
        })
    }

    /// Number of shards routed across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard a source's documents and engagement route to.
    pub fn shard_of(&self, source: SourceId) -> usize {
        source.shard(self.shards)
    }

    /// The shard currently housing a post (`None` once removed or
    /// never added through this router).
    pub fn home_of(&self, post: PostId) -> Option<usize> {
        self.homes.get(&post).copied()
    }

    /// Splits one delta into per-shard sub-deltas (index = shard),
    /// updating the post registry. Within each sub-delta the
    /// removals-before-adds apply order and the relative order of
    /// entries are preserved, so per-shard application reproduces
    /// the unsharded application of the original delta restricted to
    /// that shard's sources. Assumes the documented
    /// [`CorpusDelta`] invariant of at most one engagement entry per
    /// source.
    pub fn route(&mut self, delta: &CorpusDelta) -> Vec<CorpusDelta> {
        self.route_logged(delta, &mut Vec::new())
    }

    /// [`ShardRouter::route`], appending `(home, post)` for every
    /// removal it routes home to `unhomed`, so the homes a refused
    /// shard never journaled away can be restored
    /// ([`ShardRouter::rehome`]).
    fn route_logged(
        &mut self,
        delta: &CorpusDelta,
        unhomed: &mut Vec<(usize, PostId)>,
    ) -> Vec<CorpusDelta> {
        let mut routed = vec![CorpusDelta::new(); self.shards];
        for &post in &delta.removed {
            match self.homes.remove(&post) {
                Some(home) => {
                    unhomed.push((home, post));
                    routed[home].remove_doc(post);
                }
                // Unknown post: broadcast. Whichever shard holds it
                // removes it; for the rest it is a no-op.
                None => {
                    for sub in routed.iter_mut() {
                        sub.remove_doc(post);
                    }
                }
            }
        }
        for doc in &delta.added {
            let home = self.shard_of(doc.source);
            self.homes.insert(doc.post, home);
            routed[home].add_doc(doc.post, doc.source, doc.text.clone());
        }
        for e in &delta.engagement {
            routed[self.shard_of(e.source)].note_engagement(e.source, e.discussions, e.comments);
        }
        routed
    }

    /// Restores the homes `route_logged` cleared for removals routed
    /// to a shard for which `refused` holds: that shard journaled
    /// nothing, so its posts are still there.
    fn rehome(&mut self, unhomed: &[(usize, PostId)], refused: impl Fn(usize) -> bool) {
        for &(shard, post) in unhomed {
            if refused(shard) {
                self.homes.insert(post, shard);
            }
        }
    }

    /// Registry hook for recovery replay: records that `post`'s
    /// document lives in `shard`.
    fn note_home(&mut self, post: PostId, shard: usize) {
        self.homes.insert(post, shard);
    }

    /// Registry hook for recovery replay: `shard` journaled a removal
    /// of `post`. Only the post's home forgets it — a broadcast
    /// removal lands in every shard's journal, and replaying it from
    /// a shard that never held the post must not unhome it.
    fn forget(&mut self, post: PostId, shard: usize) {
        if self.homes.get(&post) == Some(&shard) {
            self.homes.remove(&post);
        }
    }
}

/// One shard's moving parts: its journal and its writer/snapshot
/// pair. Commit order inside a shard is the service invariant:
/// journal (fsync) ∥ apply → publish.
#[derive(Debug)]
struct Shard {
    writer: LiveWriter,
    journal: DeltaJournal,
}

/// What one shard commit's copy-on-write detach did.
#[derive(Debug, Clone, Copy, Default)]
struct Detach {
    /// Index bytes copied: the last publish shares the writer's
    /// index, so every apply detaches it.
    copied: usize,
    /// Whether the copy went into the superseded epoch's storage.
    recycled: bool,
}

impl Shard {
    /// Group-commits this shard's sub-batch: all records under one
    /// fsync ([`DeltaJournal::append_batch`], all-or-nothing) on a
    /// scoped thread, beside one batched apply on this one, then one
    /// published snapshot once both succeeded, each [`Stage`] timed
    /// through `timer`. If the append fails, the journal has
    /// truncated the batch back out and the writer is reset to the
    /// published snapshot, so the retry re-claims the same sequences.
    /// (The apply fails only on a sequence mismatch, applying
    /// nothing.) An empty batch touches nothing and copies nothing.
    fn commit(&mut self, deltas: &[CorpusDelta], timer: StageTimer) -> Result<Detach, LiveError> {
        if deltas.is_empty() {
            return Ok(Detach::default());
        }
        let refs: Vec<&CorpusDelta> = deltas.iter().collect();
        let first = self.journal.next_seq();
        let copied = self.writer.engine().index().heap_bytes();
        let Shard { writer, journal } = self;
        let (journaled, applied) = std::thread::scope(|scope| {
            let journaling =
                scope.spawn(|| timer.time(Stage::JournalFsync, || journal.append_batch(&refs)));
            let applied = timer.time(Stage::Apply, || writer.apply_batch(first, &refs));
            #[expect(
                clippy::expect_used,
                reason = "join only errs if the journal thread panicked; re-raising that panic is the designed propagation"
            )]
            let journaled = journaling.join().expect("journal append thread panicked");
            (journaled, applied)
        });
        match journaled.map_err(LiveError::from).and(applied) {
            Ok(recycled) => {
                timer.time(Stage::Publish, || writer.publish());
                Ok(Detach { copied, recycled })
            }
            Err(error) => {
                writer.reset_to_published();
                Err(error)
            }
        }
    }
}

/// What a failed multi-shard commit needs to surface internally: the
/// first failing shard and error, plus every source whose routed
/// content was refused (for mark rollback).
struct FailedCommit {
    shard: usize,
    error: LiveError,
    refused_sources: Vec<SourceId>,
}

impl FailedCommit {
    fn into_error(self) -> LiveError {
        LiveError::ShardCommit {
            shard: self.shard,
            cause: Box::new(self.error),
        }
    }
}

/// What [`ShardedLiveService::recover_from`] did for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Journal records replayed into the checkpoint engine.
    pub replayed: usize,
    /// Records skipped because the checkpoint already covered them.
    pub skipped: usize,
    /// Whether a truncated final record was dropped (torn tail).
    pub torn_tail_dropped: bool,
    /// Sequence the recovered shard resumed at.
    pub recovered_seq: u64,
}

/// A consistent capture of a whole service: every shard's engine and
/// the sequence it covers, the published static blend and the
/// router's post registry. Cheap to take — engine indexes are shared
/// copy-on-write — and the only state recovery needs besides the
/// journals: feed it to [`ShardedLiveService::recover_from`], and
/// once it is safely stored, to
/// [`ShardedLiveService::compact_through`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    shards: Vec<(SearchEngine, u64)>,
    blend: Arc<StaticBlend>,
    router: ShardRouter,
}

impl Checkpoint {
    /// The state before the first delta: for each of `shards` shards,
    /// the empty `seed`'s shared blend and parameters over a fresh
    /// empty index at sequence 0 (not a clone of the seed's index,
    /// whose rows and tables may be sized for a whole corpus); a copy
    /// of `seed`'s blend to publish and an empty registry.
    fn genesis(seed: &SearchEngine, shards: usize) -> Result<Checkpoint, LiveError> {
        let router = ShardRouter::new(shards)?;
        if seed.doc_count() > 0 {
            return Err(LiveError::NonEmptySeed {
                docs: seed.doc_count(),
            });
        }
        Ok(Checkpoint {
            shards: vec![(seed.without_documents(), 0); shards],
            blend: Arc::new(seed.blend().clone()),
            router,
        })
    }

    /// The sequence each shard's engine covers, in shard order.
    pub fn seqs(&self) -> Vec<u64> {
        self.shards.iter().map(|(_, seq)| *seq).collect()
    }
}

/// The live service: N independent journal + writer + snapshot
/// columns behind one router, one global static blend and one
/// scatter-gather query plan. One shard is the unsharded case.
///
/// Construction starts from an **empty** seed engine (carrying the
/// analytics-derived static signals but zero documents) and grows
/// every shard from the delta stream — an existing index cannot be
/// partitioned after the fact. Sharding is invisible in answers:
/// rankings and static scores are bit-identical for every shard
/// count (proptest-pinned at the workspace level).
#[derive(Debug)]
pub struct ShardedLiveService {
    router: ShardRouter,
    shards: Vec<Shard>,
    /// The one global blend, absorbing every committed shard's
    /// engagement in arrival order: each commit publishes a re-blended
    /// copy.
    blend_cell: Arc<SnapshotStore<StaticBlend>>,
    /// Per-shard commit instruments. This module bans the wall clock
    /// (`clippy::disallowed_types`), so all timing happens inside
    /// [`ShardMetrics`] (the `metrics` module) — the shard path only
    /// hands it closures and plan facts, never reads a clock.
    metrics: Option<ShardMetrics>,
    /// Snapshot-keyed result cache shared by every reader this
    /// service hands out. Lives in the
    /// [`cache`](crate::cache) module for the same reason as the
    /// metrics: this module only holds the handle and calls methods.
    query_cache: Option<Arc<QueryCache>>,
}

impl ShardedLiveService {
    /// The journal path of shard `shard` under `dir`.
    pub fn shard_journal_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.journal"))
    }

    /// Starts a fresh service: `shards` journal files
    /// (`shard-{i}.journal`) created (truncated) under `dir` — the
    /// directory is created if missing — and recovered, as
    /// [`ShardedLiveService::recover`] does, into shards that hold
    /// `seed`'s blend and parameters over an empty index at sequence
    /// 0. The published blend starts as a copy of `seed`'s.
    ///
    /// Fails with [`LiveError::NoShards`] for zero shards and with
    /// [`LiveError::NonEmptySeed`] if `seed` already indexes
    /// documents — existing documents cannot be partitioned after
    /// the fact; ingest them as deltas instead.
    pub fn start(
        seed: &SearchEngine,
        shards: usize,
        dir: impl AsRef<Path>,
    ) -> Result<ShardedLiveService, LiveError> {
        let genesis = Checkpoint::genesis(seed, shards)?;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(crate::journal::JournalError::Io)?;
        for i in 0..shards {
            DeltaJournal::create(Self::shard_journal_path(dir, i))?;
        }
        Ok(Self::recover_from(genesis, dir)?.0)
    }

    /// Attaches per-shard commit and query instruments (see
    /// [`ShardMetrics`]): subsequent routed commits record per-shard
    /// latency, stage split, outcome counters, batch sizes and
    /// fan-out width, and readers built by
    /// [`ShardedLiveService::reader`] record scatter-gather stage
    /// timings. The uninstrumented service records nothing.
    pub fn with_metrics(mut self, metrics: ShardMetrics) -> ShardedLiveService {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a snapshot-keyed [`QueryCache`] (see
    /// [`cache`](crate::cache)): every reader built by
    /// [`ShardedLiveService::reader`] from now on shares it, and a
    /// repeated query over unchanged epochs is answered from the
    /// cached ranking instead of re-running the scatter plan. Epoch
    /// publication invalidates for free — entries are keyed to the
    /// snapshot `Arc` pointers a publish swaps out — so cached and
    /// uncached readers are observably identical (pinned by the
    /// cache-transparency concurrency suite). The uncached service
    /// caches nothing.
    pub fn with_query_cache(mut self, cache: QueryCache) -> ShardedLiveService {
        self.query_cache = Some(Arc::new(cache));
        self
    }

    /// Rebuilds the pre-crash service from the journals under `dir`
    /// alone: [`ShardedLiveService::recover_from`] the state before
    /// the first delta (`shards` empty shards over `seed`'s blend).
    /// Fails as [`ShardedLiveService::start`] does on a bad seed or
    /// shard count.
    pub fn recover(
        seed: &SearchEngine,
        shards: usize,
        dir: impl AsRef<Path>,
    ) -> Result<(ShardedLiveService, Vec<RecoveryReport>), LiveError> {
        Self::recover_from(Checkpoint::genesis(seed, shards)?, dir)
    }

    /// Rebuilds the pre-crash service by replaying **each shard's own
    /// journal** (healing any torn tail) past that shard's sequence
    /// in `checkpoint` — shards recover independently, so the cost of
    /// a crash is proportional to the largest shard, not the corpus.
    /// The router's post registry and the published blend continue
    /// from the checkpoint's through the replayed records (one
    /// re-blend for every shard's engagement); the per-shard reports
    /// come back in shard order.
    ///
    /// Fails with [`LiveError::CheckpointGap`] if compaction dropped
    /// records a shard's checkpoint does not cover. A fully compacted
    /// journal carries no position of its own, so each journal
    /// resumes after its recovered sequence.
    pub fn recover_from(
        checkpoint: Checkpoint,
        dir: impl AsRef<Path>,
    ) -> Result<(ShardedLiveService, Vec<RecoveryReport>), LiveError> {
        let dir = dir.as_ref();
        let Checkpoint {
            shards: columns,
            mut blend,
            mut router,
        } = checkpoint;
        let mut engagement = Vec::new();
        let mut shards = Vec::with_capacity(columns.len());
        let mut reports = Vec::with_capacity(columns.len());
        for (i, (engine, checkpoint_seq)) in columns.into_iter().enumerate() {
            let (mut journal, replay) = DeltaJournal::open(Self::shard_journal_path(dir, i))?;
            if let Some(first) = replay.records.first() {
                if first.seq > checkpoint_seq + 1 {
                    return Err(LiveError::CheckpointGap {
                        checkpoint_seq,
                        journal_first_seq: first.seq,
                    });
                }
            }
            let skipped = replay.records.partition_point(|r| r.seq <= checkpoint_seq);
            let mut tail = Vec::with_capacity(replay.records.len() - skipped);
            for record in &replay.records[skipped..] {
                // Registry rebuild mirrors routing order: removals
                // before adds, so a remove-then-readd inside one
                // delta leaves the post homed.
                for &post in &record.delta.removed {
                    router.forget(post, i);
                }
                for doc in &record.delta.added {
                    router.note_home(doc.post, i);
                }
                engagement.extend_from_slice(&record.delta.engagement);
                tail.push(&record.delta);
            }
            // The whole tail is one batch, as a group commit applies
            // it: one index detach.
            let mut writer = LiveWriter::new(engine, checkpoint_seq);
            writer.apply_batch(checkpoint_seq + 1, &tail)?;
            writer.publish();
            reports.push(RecoveryReport {
                replayed: tail.len(),
                skipped,
                torn_tail_dropped: replay.torn_tail_dropped,
                recovered_seq: writer.seq(),
            });
            journal.resume_at(writer.seq() + 1);
            shards.push(Shard { writer, journal });
        }
        StaticBlend::absorb(&mut blend, &engagement);
        let service = ShardedLiveService {
            router,
            shards,
            blend_cell: Arc::new(SnapshotStore::new(Arc::unwrap_or_clone(blend))),
            metrics: None,
            query_cache: None,
        };
        Ok((service, reports))
    }

    /// Captures a [`Checkpoint`] of the committed state.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            shards: self
                .shards
                .iter()
                .map(|s| (s.writer.engine().clone(), s.writer.seq()))
                .collect(),
            blend: self.blend_cell.load(),
            router: self.router.clone(),
        }
    }

    /// Compacts every shard's journal through the sequence
    /// `checkpoint` covers for it. Only legal once `checkpoint` is
    /// stored outside the journals: recovery from an older
    /// checkpoint fails with [`LiveError::CheckpointGap`] afterwards.
    /// Returns the number of records dropped across all shards.
    pub fn compact_through(&mut self, checkpoint: &Checkpoint) -> Result<usize, LiveError> {
        let mut dropped = 0;
        for (shard, (_, seq)) in self.shards.iter_mut().zip(&checkpoint.shards) {
            dropped += shard.journal.compact_through(*seq)?;
        }
        Ok(dropped)
    }

    /// Ingests one delta through the routed path (see
    /// [`ShardedLiveService::ingest_batch`]).
    pub fn ingest(&mut self, delta: &CorpusDelta) -> Result<(), LiveError> {
        self.ingest_batch(std::slice::from_ref(delta))
    }

    /// Ingests a burst of deltas: routes every delta into per-shard
    /// sub-deltas, then commits each shard's sub-batch **in
    /// parallel** (the last non-empty shard on the calling thread, a
    /// scoped thread for each other non-empty shard), each as
    /// its own group commit — per-shard journal records under one
    /// per-shard fsync, one batched apply of the documents, one
    /// published snapshot. Engagement of every *committed* shard is
    /// then folded into a copy of the published blend (in arrival
    /// order per source — exact, since a source maps to one shard),
    /// which is re-standardized and published once.
    ///
    /// Failure is per-shard, not all-or-nothing across shards: a
    /// shard whose fsync is refused retracts its own sub-batch
    /// ([`DeltaJournal::append_batch`] semantics) while the other
    /// shards' commits stand. The error is
    /// [`LiveError::ShardCommit`] naming the first failed shard;
    /// sweep callers additionally get the refused sources' marks
    /// rolled back (see [`ShardedLiveService::tick_sweep`]), and a
    /// removal a refused shard never journaled keeps its post's home,
    /// so the retry still routes home.
    ///
    /// Empty deltas are skipped: they journal nothing and burn no
    /// sequence number, and an all-empty batch publishes nothing.
    pub fn ingest_batch(&mut self, deltas: &[CorpusDelta]) -> Result<(), LiveError> {
        self.commit_routed(deltas).map_err(FailedCommit::into_error)
    }

    /// The shared ingest core: route, parallel per-shard commit,
    /// blend absorption for committed shards.
    fn commit_routed(&mut self, deltas: &[CorpusDelta]) -> Result<(), FailedCommit> {
        let mut routed: Vec<Vec<CorpusDelta>> = vec![Vec::new(); self.shards.len()];
        let mut unhomed = Vec::new();
        for delta in deltas {
            if delta.is_empty() {
                continue;
            }
            let subs = self.router.route_logged(delta, &mut unhomed);
            for (shard, sub) in subs.into_iter().enumerate() {
                if !sub.is_empty() {
                    routed[shard].push(sub);
                }
            }
        }
        let metrics = self.metrics.as_ref();
        if let Some(m) = metrics {
            m.fanout
                .record(routed.iter().filter(|b| !b.is_empty()).count() as u64);
        }
        let commit = |i: usize, shard: &mut Shard, batch: &[CorpusDelta]| match metrics {
            Some(m) => m
                .time_shard_commit(i, batch.len(), |timer| shard.commit(batch, timer))
                .map(|detach| m.record_detach(i, detach.copied, detach.recycled)),
            None => shard.commit(batch, StageTimer::OFF).map(drop),
        };
        let mut outcomes: Vec<Result<(), LiveError>> = routed.iter().map(|_| Ok(())).collect();
        std::thread::scope(|scope| {
            let mut busy: Vec<_> = self
                .shards
                .iter_mut()
                .zip(&routed)
                .enumerate()
                .filter(|(_, (_, batch))| !batch.is_empty())
                .collect();
            // The last busy shard commits on this thread; only the
            // others pay a thread spawn.
            let inline = busy.pop();
            let spawned: Vec<_> = busy
                .into_iter()
                .map(|(i, (shard, batch))| (i, scope.spawn(move || commit(i, shard, batch))))
                .collect();
            if let Some((i, (shard, batch))) = inline {
                outcomes[i] = commit(i, shard, batch);
            }
            for (i, handle) in spawned {
                #[expect(
                    clippy::expect_used,
                    reason = "join only errs if the commit thread panicked; re-raising that panic is the designed propagation"
                )]
                let outcome = handle.join().expect("shard commit thread panicked");
                outcomes[i] = outcome;
            }
        });

        let mut failed: Option<(usize, LiveError)> = None;
        let mut refused = vec![false; outcomes.len()];
        let mut refused_sources: Vec<SourceId> = Vec::new();
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            if let Err(error) = outcome {
                refused[shard] = true;
                for sub in &routed[shard] {
                    refused_sources.extend(sub.added.iter().map(|d| d.source));
                    refused_sources.extend(sub.engagement.iter().map(|e| e.source));
                }
                if failed.is_none() {
                    failed = Some((shard, error));
                }
            }
        }
        let committed = routed.iter().zip(&refused).filter(|(_, &r)| !r);
        let engagement = committed
            .flat_map(|(batch, _)| batch)
            .flat_map(|d| &d.engagement);
        let mut blend = self.blend_cell.load();
        if StaticBlend::absorb(&mut blend, engagement) {
            drop(self.blend_cell.publish(blend));
        }
        match failed {
            None => Ok(()),
            Some((shard, error)) => {
                self.router.rehome(&unhomed, |s| refused[s]);
                refused_sources.sort_unstable();
                refused_sources.dedup();
                Err(FailedCommit {
                    shard,
                    error,
                    refused_sources,
                })
            }
        }
    }

    /// One sweep tick over every registered service: crawls each
    /// source since its high-water mark
    /// ([`Crawler::crawl_sweep`], fanned across
    /// `CrawlerConfig::workers` threads and joined back in service
    /// order, so the burst is byte-identical to a sequential crawl),
    /// routes the burst and commits every shard's slice in parallel
    /// — one fsync, one apply and one published snapshot per touched
    /// shard, however many sources had fresh content.
    ///
    /// Failure rollback is **per shard**: if some shards refuse
    /// their slice, only the sources routed to those shards get
    /// their marks rolled back to the pre-sweep readings
    /// ([`HighWaterMarks::rollback_many`]) — sources whose shard
    /// committed keep their advanced marks, because their content
    /// *is* durable; with one shard, every participating mark rolls
    /// back. A crawl-layer failure advances no mark (the crawler
    /// restores the marks itself) and journals nothing.
    pub fn tick_sweep(
        &mut self,
        crawler: &Crawler,
        services: &mut [Box<dyn DataService + '_>],
        clock: &mut Clock,
        marks: &mut HighWaterMarks,
    ) -> Result<SweepReport, LiveError> {
        let pre_sweep = marks.clone();
        let (deltas, report) = crawler.crawl_sweep(services, clock, marks)?;
        match self.commit_routed(&deltas) {
            Ok(()) => Ok(report),
            Err(failure) => {
                marks.rollback_many(failure.refused_sources.iter().copied(), &pre_sweep);
                if let Some(m) = &self.metrics {
                    m.rollbacks.inc();
                }
                Err(failure.into_error())
            }
        }
    }

    /// A scatter-gather reader over every shard's snapshot store and
    /// the global blend. Cloneable, `Send`, never blocks on an
    /// in-flight commit.
    pub fn reader(&self) -> ShardedReader {
        ShardedReader {
            readers: self.shards.iter().map(|s| s.writer.reader()).collect(),
            blend: Arc::clone(&self.blend_cell),
            metrics: self.metrics.as_ref().map(|m| m.search().clone()),
            cache: self.query_cache.clone(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard sequence of the last applied delta (0 before the
    /// first), in shard order.
    pub fn seqs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.writer.seq()).collect()
    }

    /// Total documents across every shard.
    pub fn doc_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.writer.engine().doc_count())
            .sum()
    }

    /// Number of records in one shard's journal.
    pub fn journal_len(&self, shard: usize) -> usize {
        self.shards[shard].journal.len()
    }

    /// One shard's private engine state (diagnostics and equivalence
    /// tests; readers should go through
    /// [`ShardedLiveService::reader`]).
    pub fn shard_engine(&self, shard: usize) -> &SearchEngine {
        self.shards[shard].writer.engine()
    }

    /// The router (diagnostics: shard count, source → shard, post
    /// homes).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Arms the next `n` fsyncs of one shard's journal to fail
    /// deterministically — per-shard durability fault injection for
    /// tests.
    pub fn inject_journal_sync_failures(&mut self, shard: usize, n: u32) {
        self.shards[shard].journal.inject_sync_failures(n);
    }
}

/// A cloneable reader handle fanning queries across every shard.
///
/// Each query takes one snapshot per shard plus the current global
/// blend, then runs the scatter-gather plan
/// ([`obs_search::scatter_query`]) entirely outside any lock. Shard
/// snapshots are acquired independently, so a reader racing a
/// commit may see some shards one burst newer than others — the
/// cross-shard analogue of snapshot staleness, bounded by one burst.
#[derive(Debug, Clone)]
pub struct ShardedReader {
    readers: Vec<SnapshotReader>,
    blend: Arc<SnapshotStore<StaticBlend>>,
    /// Query-path instruments inherited from the service's
    /// [`ShardMetrics`]; the timing itself lives behind
    /// [`SearchMetrics`] so this replay module stays clock-free.
    metrics: Option<SearchMetrics>,
    /// Snapshot-keyed result cache inherited from
    /// [`ShardedLiveService::with_query_cache`]; `None` means every
    /// query runs the scatter plan.
    cache: Option<Arc<QueryCache>>,
}

/// One consistent view of the serving state: a snapshot `Arc` per
/// shard plus the global blend `Arc`, pinned together at one instant
/// by [`ShardedReader::pin`].
///
/// Everything downstream of a pin — the scatter plan, the cache key,
/// the cache-transparency contract — is a pure function of this
/// struct, so a caller holding one can compare cached and uncached
/// evaluations of the *same* epochs even while commits race ahead.
#[derive(Debug, Clone)]
pub struct PinnedShards {
    snapshots: Vec<Arc<EngineSnapshot>>,
    blend: Arc<StaticBlend>,
}

impl PinnedShards {
    /// Per-shard snapshot sequences, in shard order.
    pub fn seqs(&self) -> Vec<u64> {
        self.snapshots.iter().map(|s| s.seq()).collect()
    }
}

impl ShardedReader {
    /// Pins the current epoch set: one snapshot per shard plus the
    /// current global blend, each acquired under its store's
    /// one-clone lock. Snapshots are acquired independently, so a
    /// pin racing a commit may see some shards one burst newer than
    /// others — the documented cross-shard staleness bound.
    pub fn pin(&self) -> PinnedShards {
        PinnedShards {
            snapshots: self.readers.iter().map(|r| r.snapshot()).collect(),
            blend: self.blend.load(),
        }
    }

    /// Evaluates a query across all shards, returning the top `k`
    /// sources — bit-identical to an unsharded engine holding the
    /// same documents (term normalization, scoring and tie-breaking
    /// included). Pins the current epochs and delegates to
    /// [`ShardedReader::query_pinned`], so a cached reader consults
    /// the cache under the pinned key.
    pub fn query<S: AsRef<str>>(&self, terms: &[S], k: usize) -> Vec<SearchHit> {
        let pinned = self.pin();
        self.query_pinned(&pinned, terms, k)
    }

    /// Evaluates a query against an explicit pinned view. With a
    /// cache attached, the result is served from (or filled into)
    /// the entry keyed by exactly these snapshot epochs — by the
    /// cache-transparency invariant it is bit-identical to
    /// [`ShardedReader::query_uncached`] on the same pin.
    pub fn query_pinned<S: AsRef<str>>(
        &self,
        pinned: &PinnedShards,
        terms: &[S],
        k: usize,
    ) -> Vec<SearchHit> {
        match &self.cache {
            Some(cache) => {
                cache.query_or_compute(&pinned.snapshots, &pinned.blend, terms, k, |normalized| {
                    self.run_plan(pinned, normalized, k)
                })
            }
            None => self.run_plan(pinned, terms, k),
        }
    }

    /// Evaluates a query against a pinned view, always running the
    /// full scatter plan and never touching the cache — the oracle
    /// side of the cache-transparency contract.
    pub fn query_uncached<S: AsRef<str>>(
        &self,
        pinned: &PinnedShards,
        terms: &[S],
        k: usize,
    ) -> Vec<SearchHit> {
        self.run_plan(pinned, terms, k)
    }

    /// The scatter-gather plan over a pinned view, instrumented when
    /// the service carries [`SearchMetrics`].
    fn run_plan<S: AsRef<str>>(
        &self,
        pinned: &PinnedShards,
        terms: &[S],
        k: usize,
    ) -> Vec<SearchHit> {
        let engines: Vec<&SearchEngine> = pinned.snapshots.iter().map(|s| s.engine()).collect();
        let blend = &pinned.blend;
        match &self.metrics {
            Some(m) => {
                let mut timer = m.trace();
                scatter_query_traced(
                    &engines,
                    terms,
                    k,
                    |s| blend.score(s),
                    blend.weights(),
                    &mut timer,
                )
            }
            None => scatter_query(&engines, terms, k, |s| blend.score(s), blend.weights()),
        }
    }

    /// Per-shard snapshot sequences, in shard order.
    pub fn seqs(&self) -> Vec<u64> {
        self.readers.iter().map(|r| r.snapshot().seq()).collect()
    }

    /// Total documents across the current shard snapshots.
    pub fn doc_count(&self) -> usize {
        self.readers
            .iter()
            .map(|r| r.snapshot().engine().doc_count())
            .sum()
    }

    /// The current global static score of a source (diagnostics and
    /// equivalence tests).
    pub fn static_score(&self, source: SourceId) -> f64 {
        self.blend.load().score(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_analytics::{AlexaPanel, LinkGraph};
    use obs_search::BlendWeights;
    use obs_synth::{World, WorldConfig};
    use obs_wrappers::service_for;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "obs_live_shard_{}_{}_{}",
            std::process::id(),
            tag,
            n
        ))
    }

    /// A world, its full engine, and that engine's static signals over
    /// an empty index — the service seed.
    fn world_and_engine(seed: u64) -> (World, SearchEngine, SearchEngine) {
        let world = World::generate(WorldConfig::small(seed));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
        let mut empty = engine.clone();
        empty.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
        assert_eq!(empty.doc_count(), 0);
        (world, engine, empty)
    }

    /// The full post history as a stream of multi-post deltas.
    fn delta_stream(world: &World, chunk: usize) -> Vec<CorpusDelta> {
        let posts: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
        posts
            .chunks(chunk)
            .map(|c| CorpusDelta::for_posts(&world.corpus, c).unwrap())
            .collect()
    }

    /// Every source's crawl service, for sweep tests.
    fn services(world: &World) -> Vec<Box<dyn DataService + '_>> {
        world
            .corpus
            .sources()
            .iter()
            .map(|s| service_for(&world.corpus, s.id, world.now).unwrap())
            .collect()
    }

    fn journal_bytes(dir: &Path, shard: usize) -> Vec<u8> {
        std::fs::read(ShardedLiveService::shard_journal_path(dir, shard)).unwrap()
    }

    fn cleanup(dir: &Path) {
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn router_sends_docs_engagement_and_removals_to_the_source_shard() {
        let mut router = ShardRouter::new(4).unwrap();
        let source = SourceId::new(11);
        let home = router.shard_of(source);
        let mut delta = CorpusDelta::new();
        delta.add_doc(PostId::new(5), source, "duomo rooftop");
        delta.note_engagement(source, 2, 3);

        let routed = router.route(&delta);
        assert_eq!(routed.len(), 4);
        for (i, sub) in routed.iter().enumerate() {
            if i == home {
                assert_eq!(sub.added.len(), 1);
                assert_eq!(sub.engagement.len(), 1);
            } else {
                assert!(sub.is_empty(), "shard {i} got foreign content");
            }
        }
        assert_eq!(router.home_of(PostId::new(5)), Some(home));

        // The removal follows the registry, then clears it.
        let mut removal = CorpusDelta::new();
        removal.remove_doc(PostId::new(5));
        let routed = router.route(&removal);
        assert_eq!(routed[home].removed, vec![PostId::new(5)]);
        assert_eq!(router.home_of(PostId::new(5)), None);

        // Unknown posts broadcast to every shard.
        let mut unknown = CorpusDelta::new();
        unknown.remove_doc(PostId::new(999));
        let routed = router.route(&unknown);
        for sub in &routed {
            assert_eq!(sub.removed, vec![PostId::new(999)]);
        }
    }

    #[test]
    fn a_router_over_zero_shards_is_refused() {
        assert!(matches!(ShardRouter::new(0), Err(LiveError::NoShards)));
    }

    #[test]
    fn single_shard_routing_is_the_identity() {
        let mut router = ShardRouter::new(1).unwrap();
        let mut delta = CorpusDelta::new();
        delta.remove_doc(PostId::new(9));
        delta.add_doc(PostId::new(1), SourceId::new(3), "duomo");
        delta.add_doc(PostId::new(2), SourceId::new(8), "castle");
        delta.note_engagement(SourceId::new(3), 1, 1);
        delta.note_engagement(SourceId::new(8), 2, 0);
        let routed = router.route(&delta);
        assert_eq!(routed.len(), 1);
        assert_eq!(routed[0], delta);
    }

    #[test]
    fn service_matches_one_engine_applying_the_same_bursts() {
        let (world, engine, seed) = world_and_engine(601);
        let stream = delta_stream(&world, 7);
        let probe: Vec<String> = vec!["duomo".into(), "rooftop".into(), "castle".into()];

        // The unsharded reference: one engine, one batched apply per
        // burst.
        let mut flat = seed.clone();
        for batch in stream.chunks(4) {
            flat.apply_deltas(batch.iter());
        }
        assert_eq!(flat.doc_count(), engine.doc_count());

        for shards in [1, 3] {
            let dir = temp_dir("matches");
            let mut service = ShardedLiveService::start(&seed, shards, &dir).unwrap();
            for batch in stream.chunks(4) {
                service.ingest_batch(batch).unwrap();
            }
            assert_eq!(service.doc_count(), flat.doc_count());
            let reader = service.reader();
            assert_eq!(reader.query(&probe, 50), flat.query(&probe, 50));
            for s in world.corpus.sources() {
                assert_eq!(reader.static_score(s.id), flat.static_score(s.id));
            }
            cleanup(&dir);
        }
    }

    #[test]
    fn instrumented_service_records_shard_commits_stages_fanout_and_queries() {
        use obs_telemetry::Registry;

        let (world, _, seed) = world_and_engine(608);
        let stream = delta_stream(&world, 7);
        let dir = temp_dir("metrics");
        let registry = Registry::new();
        let metrics = ShardMetrics::new(&registry, 3);
        let mut service = ShardedLiveService::start(&seed, 3, &dir)
            .unwrap()
            .with_metrics(metrics.clone());

        // A shard a burst commits to copies the index it held before.
        let mut bursts = 0u64;
        let mut copied = [0usize; 3];
        for batch in stream.chunks(4) {
            let seqs = service.seqs();
            let held: Vec<usize> = (0..3)
                .map(|i| service.shard_engine(i).index().heap_bytes())
                .collect();
            service.ingest_batch(batch).unwrap();
            for i in 0..3 {
                if service.seqs()[i] != seqs[i] {
                    copied[i] += held[i];
                }
            }
            bursts += 1;
        }
        // Every routed commit recorded an outcome: commit totals
        // across shards equal the fan-out histogram's running sum.
        let counts = metrics.commit_counts();
        let committed: u64 = counts.iter().map(|(_, c, _)| c).sum();
        assert!(committed > 0, "no shard commits recorded");
        assert_eq!(counts.iter().map(|(_, _, f)| f).sum::<u64>(), 0);
        let fanout = metrics.fanout.snapshot();
        assert_eq!(fanout.count(), bursts);
        assert_eq!(fanout.sum(), committed);

        // The instrumented reader answers identically and records
        // query-path timings.
        let reader = service.reader();
        let probe: Vec<String> = vec!["duomo".into(), "castle".into()];
        let hits = reader.query(&probe, 20);
        assert_eq!(hits, service.reader().query(&probe, 20));
        assert_eq!(metrics.search().query_snapshot().count(), 2);

        // Every shard commit staged all three laps, and the batch
        // sizes add up to the records journaled.
        let text = registry.render_text();
        for (shard, commits, _) in &counts {
            for stage in ["journal_fsync", "apply", "publish"] {
                let series = format!(
                    "live_ingest_stage_ns_count{{shard=\"{shard}\",stage=\"{stage}\"}} {commits}"
                );
                assert!(text.contains(&series), "missing {series}");
            }
        }
        let journaled: usize = (0..3).map(|i| service.journal_len(i)).sum();
        assert!(text.contains(&format!("live_ingest_batch_deltas_sum {journaled}")));
        assert!(text.contains("live_shard_commit_ns_count{shard=\"0\"}"));
        assert!(copied.iter().sum::<usize>() > 0);
        for (shard, bytes) in copied.iter().enumerate() {
            let series = format!("live_commit_copied_bytes_sum{{shard=\"{shard}\"}} {bytes}");
            assert!(text.contains(&series), "missing {series}");
        }
        assert!(text.contains("live_commit_fanout_shards_count"));
        assert!(text.contains("search_query_ns_count 2"));

        // A per-shard fsync failure lands in that shard's failure
        // column; the probe delta targets a source homed on shard 0.
        let source = (0..100)
            .map(SourceId::new)
            .find(|s| service.router().shard_of(*s) == 0)
            .unwrap();
        let mut probe_delta = CorpusDelta::new();
        probe_delta.add_doc(PostId::new(999_999), source, "metrics probe");
        service.inject_journal_sync_failures(0, 1);
        assert!(service.ingest_batch(&[probe_delta]).is_err());
        let counts = metrics.commit_counts();
        assert_eq!(counts[0].2, 1, "shard 0 failure not recorded: {counts:?}");
        cleanup(&dir);
    }

    #[test]
    fn one_shard_journals_byte_identically_to_a_bare_journal() {
        let (world, _, seed) = world_and_engine(602);
        let stream = delta_stream(&world, 5);

        let dir = temp_dir("bytes");
        let mut service = ShardedLiveService::start(&seed, 1, &dir).unwrap();
        let bare_path = dir.join("bare.journal");
        let mut bare = DeltaJournal::create(&bare_path).unwrap();
        for batch in stream.chunks(3) {
            service.ingest_batch(batch).unwrap();
            let refs: Vec<&CorpusDelta> = batch.iter().collect();
            bare.append_batch(&refs).unwrap();
        }
        assert_eq!(
            journal_bytes(&dir, 0),
            std::fs::read(&bare_path).unwrap(),
            "1-shard journal must be byte-identical"
        );
        cleanup(&dir);
    }

    #[test]
    fn empty_and_refused_batches_leave_journal_and_snapshot_untouched() {
        let (world, engine, seed) = world_and_engine(511);
        let stream = delta_stream(&world, world.corpus.posts().len().div_ceil(6));
        assert!(stream.len() >= 4, "world too small");
        let dir = temp_dir("untouched");
        let mut service = ShardedLiveService::start(&seed, 1, &dir).unwrap();
        let reader = service.reader();
        service.ingest(&stream[0]).unwrap();
        let bytes = journal_bytes(&dir, 0);

        // An all-empty batch journals, syncs and publishes nothing.
        service
            .ingest_batch(&[CorpusDelta::new(), CorpusDelta::new()])
            .unwrap();
        assert_eq!(service.seqs(), vec![1]);
        assert_eq!(journal_bytes(&dir, 0), bytes);

        // Empty deltas inside a batch burn no sequence number.
        let sparse = vec![
            CorpusDelta::new(),
            stream[1].clone(),
            CorpusDelta::new(),
            stream[2].clone(),
        ];
        service.ingest_batch(&sparse).unwrap();
        assert_eq!(service.seqs(), vec![3]);
        assert_eq!(service.journal_len(0), 3);

        // A refused fsync leaves no trace: not in the journal, the
        // engine or the served snapshot.
        let bytes = journal_bytes(&dir, 0);
        let docs = service.doc_count();
        service.inject_journal_sync_failures(0, 1);
        let err = service.ingest_batch(&stream[3..]).unwrap_err();
        match err {
            LiveError::ShardCommit {
                shard: 0,
                ref cause,
            } => {
                assert!(matches!(**cause, LiveError::Journal(_)), "{cause:?}");
            }
            other => panic!("expected ShardCommit, got {other:?}"),
        }
        assert_eq!(journal_bytes(&dir, 0), bytes);
        assert_eq!(service.journal_len(0), 3);
        assert_eq!(service.seqs(), vec![3]);
        assert_eq!(reader.seqs(), vec![3]);
        assert_eq!(service.doc_count(), docs);

        // The retry claims the exact sequences the refused batch had
        // staged.
        service.ingest_batch(&stream[3..]).unwrap();
        assert_eq!(service.seqs(), vec![stream.len() as u64]);
        assert_eq!(reader.seqs(), service.seqs());
        assert_eq!(service.doc_count(), engine.doc_count());
        cleanup(&dir);
    }

    #[test]
    fn failed_shard_leaves_other_shards_committed() {
        let (world, engine, seed) = world_and_engine(603);
        let stream = delta_stream(&world, 6);
        let dir = temp_dir("partial_failure");
        let mut service = ShardedLiveService::start(&seed, 2, &dir).unwrap();
        service.ingest_batch(&stream[..2]).unwrap();
        let seqs_before = service.seqs();
        let docs_before = service.doc_count();

        // The next burst routes content to both shards; shard 0's
        // fsync is refused.
        service.inject_journal_sync_failures(0, 1);
        let err = service.ingest_batch(&stream[2..]).unwrap_err();
        match err {
            LiveError::ShardCommit { shard, ref cause } => {
                assert_eq!(shard, 0);
                assert!(matches!(**cause, LiveError::Journal(_)), "{cause:?}");
            }
            other => panic!("expected ShardCommit, got {other:?}"),
        }
        // Shard 0 rolled its slice back; shard 1's commit stands.
        let seqs_after = service.seqs();
        assert_eq!(seqs_after[0], seqs_before[0]);
        assert!(seqs_after[1] > seqs_before[1], "healthy shard must commit");
        assert!(service.doc_count() > docs_before);
        assert!(service.doc_count() < engine.doc_count());
        cleanup(&dir);
    }

    #[test]
    fn refused_removal_keeps_its_home_and_recovery_rebuilds_every_home() {
        let (world, _, seed) = world_and_engine(609);
        let dir = temp_dir("homes");
        let mut service = ShardedLiveService::start(&seed, 3, &dir).unwrap();
        let source_on = |shard: usize| {
            world
                .corpus
                .sources()
                .iter()
                .map(|s| s.id)
                .find(|&s| s.shard(3) == shard)
                .unwrap()
        };
        let (post, stranger) = (PostId::new(900_001), PostId::new(900_002));
        let mut setup = CorpusDelta::new();
        setup.add_doc(post, source_on(0), "duomo rooftop");
        setup.add_doc(PostId::new(900_003), source_on(1), "castle gardens");
        setup.add_doc(PostId::new(900_004), source_on(2), "harbour walk");
        service.ingest(&setup).unwrap();
        let lens = |s: &ShardedLiveService| (0..3).map(|i| s.journal_len(i)).collect::<Vec<_>>();
        assert_eq!(lens(&service), vec![1, 1, 1]);

        // The home shard refuses the removal: the post keeps its
        // home, so the retry routes to that shard alone instead of
        // journaling a broadcast no-op on every shard.
        let mut removal = CorpusDelta::new();
        removal.remove_doc(post);
        service.inject_journal_sync_failures(0, 1);
        assert!(service.ingest(&removal).is_err());
        assert_eq!(service.router().home_of(post), Some(0));
        service.ingest(&removal).unwrap();
        assert_eq!(lens(&service), vec![2, 1, 1]);
        assert_eq!(service.router().home_of(post), None);

        // A removal of a post never seen broadcasts to every shard;
        // replaying it from a shard that does not house the post
        // must not unhome the post's later add.
        let mut unknown = CorpusDelta::new();
        unknown.remove_doc(stranger);
        service.ingest(&unknown).unwrap();
        assert_eq!(lens(&service), vec![3, 2, 2]);
        let mut readd = CorpusDelta::new();
        readd.add_doc(post, source_on(0), "duomo rooftop");
        readd.add_doc(stranger, source_on(0), "piazza");
        service.ingest(&readd).unwrap();
        let homes = [post, stranger].map(|p| service.router().home_of(p));
        assert_eq!(homes, [Some(0), Some(0)]);
        drop(service); // killed

        let (recovered, _) = ShardedLiveService::recover(&seed, 3, &dir).unwrap();
        assert_eq!(
            [post, stranger].map(|p| recovered.router().home_of(p)),
            homes
        );
        cleanup(&dir);
    }

    #[test]
    fn tick_sweep_group_commits_the_whole_crawl_burst() {
        let (world, engine, seed) = world_and_engine(512);
        let dir = temp_dir("sweep");
        let mut service = ShardedLiveService::start(&seed, 1, &dir).unwrap();
        let crawler = Crawler::default();
        let mut marks = HighWaterMarks::new();
        let mut services = services(&world);
        let mut clock = Clock::starting_at(world.now);

        let report = service
            .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
            .unwrap();
        assert_eq!(report.sources, world.corpus.sources().len());
        assert!(report.fresh_sources > 0, "no source had fresh content");
        // One record per fresh source, one published snapshot for the
        // whole burst, and the engine caught all the way up.
        assert_eq!(service.seqs(), vec![report.fresh_sources as u64]);
        assert_eq!(service.journal_len(0), report.fresh_sources);
        assert_eq!(service.reader().seqs(), service.seqs());
        assert_eq!(service.doc_count(), engine.doc_count());

        // A sweep over caught-up sources observes nothing and leaves
        // the journal byte-identical.
        let bytes = journal_bytes(&dir, 0);
        let report = service
            .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
            .unwrap();
        assert_eq!(report.fresh_sources, 0);
        assert_eq!(journal_bytes(&dir, 0), bytes);
        cleanup(&dir);
    }

    #[test]
    fn sharded_sweep_rolls_back_only_the_failed_shards_sources() {
        let (world, engine, seed) = world_and_engine(604);
        let dir = temp_dir("sweep_rollback");
        let mut service = ShardedLiveService::start(&seed, 2, &dir).unwrap();
        let crawler = Crawler::default();
        let mut marks = HighWaterMarks::new();
        let pre_sweep = marks.clone();
        let mut services = services(&world);
        let mut clock = Clock::starting_at(world.now);

        // Both shards host sources in any non-trivial world.
        let shard_of = |s: SourceId| s.shard(2);
        assert!(world.corpus.sources().iter().any(|s| shard_of(s.id) == 0));
        assert!(world.corpus.sources().iter().any(|s| shard_of(s.id) == 1));

        service.inject_journal_sync_failures(1, 1);
        let err = service
            .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
            .unwrap_err();
        assert!(
            matches!(err, LiveError::ShardCommit { shard: 1, .. }),
            "{err:?}"
        );
        // Every mark still advanced belongs to the committed shard
        // (sources with no observed items never get a mark at all),
        // and the committed shard did keep some.
        let mut committed_kept = 0;
        for source in world.corpus.sources() {
            if shard_of(source.id) == 1 {
                // Refused shard: back to the pre-sweep reading.
                assert_eq!(marks.since(source.id), pre_sweep.since(source.id));
            } else if marks.since(source.id).is_some() {
                committed_kept += 1;
            }
        }
        assert!(committed_kept > 0, "committed shard must keep its marks");

        // The retry re-observes only the refused sources and lands
        // the full corpus.
        let report = service
            .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
            .unwrap();
        assert!(report.fresh_sources > 0);
        assert_eq!(service.doc_count(), engine.doc_count());
        let extra = service
            .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
            .unwrap();
        assert_eq!(extra.fresh_sources, 0, "sweep must have converged");
        cleanup(&dir);
    }

    #[test]
    fn per_shard_recovery_restores_rankings_and_routing() {
        let (world, _, seed) = world_and_engine(605);
        let stream = delta_stream(&world, 4);
        let probe: Vec<String> = vec!["duomo".into(), "gardens".into()];
        let dir = temp_dir("recovery");

        let (pre_hits, pre_seqs, pre_docs) = {
            let mut doomed = ShardedLiveService::start(&seed, 3, &dir).unwrap();
            for batch in stream.chunks(2) {
                doomed.ingest_batch(batch).unwrap();
            }
            let reader = doomed.reader();
            (reader.query(&probe, 50), doomed.seqs(), doomed.doc_count())
        }; // killed here — no shutdown, no checkpoint

        let (recovered, reports) = ShardedLiveService::recover(&seed, 3, &dir).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(recovered.seqs(), pre_seqs);
        assert_eq!(recovered.doc_count(), pre_docs);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.recovered_seq, pre_seqs[i]);
            assert_eq!(report.replayed as u64, pre_seqs[i]);
            assert_eq!(report.skipped, 0);
            assert!(!report.torn_tail_dropped);
        }
        assert_eq!(recovered.reader().query(&probe, 50), pre_hits);

        // The rebuilt registry still routes removals home: removing
        // a known post lands in exactly one shard.
        let mut service = recovered;
        let post = world.corpus.posts().first().unwrap().id;
        let mut removal = CorpusDelta::new();
        removal.remove_doc(post);
        let docs = service.doc_count();
        let seqs = service.seqs();
        service.ingest(&removal).unwrap();
        assert_eq!(service.doc_count(), docs - 1);
        let moved = (0..3).filter(|&i| service.seqs()[i] != seqs[i]).count();
        assert_eq!(moved, 1);
        cleanup(&dir);
    }

    #[test]
    fn recover_from_mid_stream_checkpoint_skips_covered_prefix() {
        let (world, engine, seed) = world_and_engine(503);
        let stream = delta_stream(&world, 5);
        let (head, tail) = stream.split_at(stream.len() / 2);
        let probe: Vec<String> = vec!["duomo".into(), "gardens".into()];
        let dir = temp_dir("checkpointed");

        let mut service = ShardedLiveService::start(&seed, 2, &dir).unwrap();
        for batch in head.chunks(3) {
            service.ingest_batch(batch).unwrap();
        }
        let checkpoint = service.checkpoint();
        assert_eq!(checkpoint.seqs(), service.seqs());
        for batch in tail.chunks(3) {
            service.ingest_batch(batch).unwrap();
        }
        let expected_hits = service.reader().query(&probe, 50);
        let expected_seqs = service.seqs();
        let homes = |s: &ShardedLiveService| -> Vec<Option<usize>> {
            let posts = world.corpus.posts().iter();
            posts.map(|p| s.router().home_of(p.id)).collect()
        };
        let expected_homes = homes(&service);
        drop(service);

        let (recovered, reports) =
            ShardedLiveService::recover_from(checkpoint.clone(), &dir).unwrap();
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.skipped as u64, checkpoint.seqs()[i]);
            assert_eq!(
                report.replayed as u64,
                expected_seqs[i] - checkpoint.seqs()[i]
            );
            assert_eq!(report.recovered_seq, expected_seqs[i]);
        }
        assert_eq!(recovered.doc_count(), engine.doc_count());
        let reader = recovered.reader();
        assert_eq!(reader.query(&probe, 50), expected_hits);
        for s in world.corpus.sources() {
            assert_eq!(reader.static_score(s.id), engine.static_score(s.id));
        }
        assert_eq!(homes(&recovered), expected_homes);
        cleanup(&dir);
    }

    #[test]
    fn compaction_after_checkpoint_still_recovers() {
        let (world, engine, seed) = world_and_engine(504);
        let stream = delta_stream(&world, 5);
        let dir = temp_dir("compacted");

        let mut service = ShardedLiveService::start(&seed, 2, &dir).unwrap();
        for batch in stream.chunks(3) {
            service.ingest_batch(batch).unwrap();
        }
        let checkpoint = service.checkpoint();
        let records: u64 = checkpoint.seqs().iter().sum();
        let dropped = service.compact_through(&checkpoint).unwrap();
        assert_eq!(dropped as u64, records);
        assert_eq!((0..2).map(|i| service.journal_len(i)).sum::<usize>(), 0);
        drop(service);

        // Fully compacted journals replay fine even from genesis:
        // there is simply nothing to apply.
        let (empty, _) = ShardedLiveService::recover(&seed, 2, &dir).unwrap();
        assert_eq!(empty.seqs(), vec![0, 0]);
        drop(empty);

        // The checkpoint covers everything compacted away.
        let (mut recovered, reports) =
            ShardedLiveService::recover_from(checkpoint.clone(), &dir).unwrap();
        assert!(reports.iter().all(|r| r.replayed == 0));
        assert_eq!(recovered.doc_count(), engine.doc_count());
        assert_eq!(recovered.seqs(), checkpoint.seqs());

        // Ingestion continues each shard's sequence after recovering
        // from record-less journals — the checkpoint, not the empty
        // file, pins the position.
        let last = world.corpus.posts().last().unwrap().id;
        let home = recovered.router().home_of(last).unwrap();
        let removal = CorpusDelta::for_removals(&world.corpus, &[last]).unwrap();
        recovered.ingest(&removal).unwrap();
        assert_eq!(recovered.seqs()[home], checkpoint.seqs()[home] + 1);
        assert_eq!(recovered.reader().seqs(), recovered.seqs());
        cleanup(&dir);
    }

    #[test]
    fn stale_checkpoint_against_compacted_journal_is_a_gap() {
        let (world, _, seed) = world_and_engine(505);
        let stream = delta_stream(&world, world.corpus.posts().len().div_ceil(6));
        let dir = temp_dir("gap");

        let mut service = ShardedLiveService::start(&seed, 1, &dir).unwrap();
        service.ingest(&stream[0]).unwrap();
        service.ingest(&stream[1]).unwrap();
        let checkpoint = service.checkpoint();
        service.ingest(&stream[2]).unwrap();
        service.ingest(&stream[3]).unwrap();
        // Compact through 2 while records 3, 4 remain.
        assert_eq!(service.compact_through(&checkpoint).unwrap(), 2);
        drop(service);

        // Genesis (sequence 0) cannot bridge to first retained seq 3.
        let err = ShardedLiveService::recover(&seed, 1, &dir).unwrap_err();
        match err {
            LiveError::CheckpointGap {
                checkpoint_seq,
                journal_first_seq,
            } => {
                assert_eq!(checkpoint_seq, 0);
                assert_eq!(journal_first_seq, 3);
            }
            other => panic!("expected CheckpointGap, got {other:?}"),
        }
        cleanup(&dir);
    }

    #[test]
    fn every_shard_starts_from_an_empty_index() {
        let (world, _, seed) = world_and_engine(612);
        // The stripped seed still carries a row per corpus document.
        assert!(seed.index().heap_bytes() > 0);
        let dir = temp_dir("genesis");
        let mut service = ShardedLiveService::start(&seed, 3, &dir).unwrap();
        let (recovered, _) = ShardedLiveService::recover(&seed, 3, &dir).unwrap();
        for shards in [&service, &recovered] {
            for i in 0..3 {
                assert_eq!(shards.shard_engine(i).index().heap_bytes(), 0, "shard {i}");
            }
        }
        drop(recovered);

        // Only the published blend absorbs engagement: through a
        // commit, a refused fsync and both recoveries, every shard
        // engine keeps the seed's static scores while readers score
        // as one flat engine fed the same deltas.
        let stream = delta_stream(&world, 5);
        let (head, tail) = stream.split_at(stream.len() / 2);
        let mut flat = seed.clone();
        let one_blend = |service: &ShardedLiveService, flat: &SearchEngine| {
            let reader = service.reader();
            for s in world.corpus.sources() {
                assert_eq!(reader.static_score(s.id), flat.static_score(s.id));
                for i in 0..3 {
                    let engine = service.shard_engine(i);
                    assert_eq!(engine.static_score(s.id), seed.static_score(s.id));
                }
            }
        };
        service.ingest_batch(head).unwrap();
        flat.apply_deltas(head);
        let mut sources = world.corpus.sources().iter();
        assert!(sources.any(|s| flat.static_score(s.id) != seed.static_score(s.id)));
        one_blend(&service, &flat);
        let checkpoint = service.checkpoint();

        (0..3).for_each(|i| service.inject_journal_sync_failures(i, 1));
        assert!(service.ingest_batch(tail).is_err());
        one_blend(&service, &flat);
        service.ingest_batch(tail).unwrap();
        flat.apply_deltas(tail);
        one_blend(&service, &flat);
        drop(service);

        let (recovered, _) = ShardedLiveService::recover(&seed, 3, &dir).unwrap();
        one_blend(&recovered, &flat);
        drop(recovered);
        let (recovered, _) = ShardedLiveService::recover_from(checkpoint, &dir).unwrap();
        one_blend(&recovered, &flat);
        cleanup(&dir);
    }

    /// A 1-shard service recording into `registry`, and its shard's
    /// recycled-detach counter.
    fn recycling_service(
        seed: &SearchEngine,
        dir: &Path,
    ) -> (ShardedLiveService, obs_telemetry::Counter) {
        use obs_telemetry::{catalog, Registry};
        let registry = Registry::new();
        let service = ShardedLiveService::start(seed, 1, dir)
            .unwrap()
            .with_metrics(ShardMetrics::new(&registry, 1));
        let recycled =
            registry.counter_with(&catalog::LIVE_COMMIT_RECYCLED_TOTAL, &[("shard", "0")]);
        (service, recycled)
    }

    #[test]
    fn a_pinned_or_checkpointed_epoch_is_never_recycled() {
        let (world, _, seed) = world_and_engine(610);
        let stream = delta_stream(&world, 2);
        let mut bursts = stream.chunks(2);
        let probe: Vec<String> = vec!["duomo".into(), "gardens".into(), "castle".into()];
        let dir = temp_dir("recycle");
        let (mut service, recycled) = recycling_service(&seed, &dir);
        // How many of the next commit's detaches reused the spare.
        let mut commit = |service: &mut ShardedLiveService| {
            let before = recycled.get();
            service.ingest_batch(bursts.next().unwrap()).unwrap();
            recycled.get() - before
        };

        // The first commit detaches the genesis index afresh; each
        // later one detaches into the epoch the publish before it
        // superseded.
        assert_eq!(commit(&mut service), 0);
        assert_eq!(commit(&mut service), 1);
        assert_eq!(commit(&mut service), 1);

        // A reader pins the published epoch across a commit, so that
        // commit's publish cannot reclaim it: the next detach copies
        // afresh, and the pin still answers from its epoch.
        let reader = service.reader();
        let pinned = reader.pin();
        let answers = reader.query_uncached(&pinned, &probe, 50);
        assert!(!answers.is_empty());
        let seqs = pinned.seqs();
        assert_eq!(commit(&mut service), 1);
        assert_eq!(commit(&mut service), 0, "a pinned epoch was recycled");
        assert_eq!(reader.query_uncached(&pinned, &probe, 50), answers);
        assert_eq!(pinned.seqs(), seqs);
        assert_ne!(service.seqs(), seqs);
        drop(pinned);
        assert_eq!(commit(&mut service), 1);

        // A held checkpoint pins its epoch the same way.
        let checkpoint = service.checkpoint();
        let (engine, seq) = &checkpoint.shards[0];
        let answers = engine.query(&probe, 50);
        assert_eq!(commit(&mut service), 1);
        assert_eq!(commit(&mut service), 0, "a checkpointed epoch was recycled");
        assert_eq!(engine.query(&probe, 50), answers);
        assert_eq!(checkpoint.seqs(), vec![*seq]);
        drop(checkpoint);
        assert_eq!(commit(&mut service), 1);
        cleanup(&dir);
    }

    #[test]
    fn a_refused_fsync_resets_the_overlapped_apply_to_the_published_engine() {
        let (world, _, seed) = world_and_engine(611);
        let stream = delta_stream(&world, 5);
        let dir = temp_dir("overlap_refused");
        let (mut service, recycled) = recycling_service(&seed, &dir);
        service.ingest_batch(&stream[..2]).unwrap();
        let published = service.shards[0].writer.reader();

        // The apply runs beside the refused append; afterwards the
        // writer shares the published index again, at its sequence.
        service.inject_journal_sync_failures(0, 1);
        assert!(service.ingest_batch(&stream[2..4]).is_err());
        let snapshot = published.snapshot();
        assert!(service.shard_engine(0).shares_index_with(snapshot.engine()));
        assert_eq!((service.seqs(), snapshot.seq()), (vec![2], 2));
        assert_eq!(service.journal_len(0), 2);

        // The retry re-claims seqs 3 and 4 and detaches into the index
        // the refused apply built and the reset reclaimed.
        service.ingest_batch(&stream[2..4]).unwrap();
        assert_eq!(recycled.get(), 1);
        assert_eq!(service.seqs(), vec![4]);
        let replay =
            DeltaJournal::replay_path(ShardedLiveService::shard_journal_path(&dir, 0)).unwrap();
        let records: Vec<(u64, &CorpusDelta)> =
            replay.records.iter().map(|r| (r.seq, &r.delta)).collect();
        let expected: Vec<(u64, &CorpusDelta)> = (1..).zip(&stream[..4]).collect();
        assert_eq!(records, expected);
        cleanup(&dir);
    }

    #[test]
    fn a_json_era_journal_is_refused_through_live_error() {
        let (_, _, seed) = world_and_engine(607);
        let dir = temp_dir("json_era");
        drop(ShardedLiveService::start(&seed, 2, &dir).unwrap());
        let path = ShardedLiveService::shard_journal_path(&dir, 1);
        let json_era = b"1 0badc0de {\"added\":[],\"removed\":[],\"engagement\":[]}\n";
        std::fs::write(&path, json_era).unwrap();

        let err = ShardedLiveService::recover(&seed, 2, &dir).unwrap_err();
        assert!(
            matches!(
                err,
                LiveError::Journal(crate::JournalError::UnsupportedFormat { .. })
            ),
            "{err:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), json_era);
        cleanup(&dir);
    }

    #[test]
    fn non_empty_seed_is_rejected() {
        let (_, engine, seed) = world_and_engine(606);
        let dir = temp_dir("bad_seed");
        let docs = engine.doc_count();
        assert!(matches!(
            ShardedLiveService::start(&engine, 2, &dir),
            Err(LiveError::NonEmptySeed { docs: d }) if d == docs
        ));
        assert!(matches!(
            ShardedLiveService::recover(&engine, 2, &dir),
            Err(LiveError::NonEmptySeed { .. })
        ));
        assert!(matches!(
            ShardedLiveService::start(&seed, 0, &dir),
            Err(LiveError::NoShards)
        ));
        assert!(matches!(
            ShardedLiveService::recover(&seed, 0, &dir),
            Err(LiveError::NoShards)
        ));
        // Nothing was created on the way to the error.
        assert!(!dir.exists());
    }
}
