//! Sharded serving: a partitioned corpus behind one scatter-gather
//! query plan.
//!
//! The single-shard [`LiveService`](crate::LiveService) pays two
//! whole-corpus costs per ingest burst: the copy-on-write index
//! detach touches the entire index, and every fsync serializes all
//! sources behind one journal. Partitioning the corpus into N shards
//! — hash of the source id, [`SourceId::shard`] — makes both costs
//! per-shard: each shard owns its own [`SearchEngine`] +
//! [`DeltaJournal`] +
//! [`SnapshotStore`](crate::SnapshotStore), routed sub-batches
//! commit in parallel (each reusing the group-commit
//! [`append_batch`](crate::DeltaJournal::append_batch) fsync
//! batching), and crash recovery replays only the dead shard's
//! journal.
//!
//! One routed batch flows as:
//!
//! ```text
//!                 ┌► shard 0: journal (fsync) ─► apply ─► publish
//! deltas ─ route ─┼► shard 1: journal (fsync) ─► apply ─► publish
//!  (by source id) └► shard 2: journal (fsync) ─► apply ─► publish
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
//! the z-score-standardized static blend — stays global: a single
//! [`StaticBlend`] absorbs every committed shard's engagement
//! through the same code path the unsharded engine uses and is
//! published through its own epoch cell beside the shard snapshots.
//!
//! Shards are **independent failure domains**: a refused fsync
//! retracts only that shard's sub-batch
//! ([`LiveError::ShardCommit`]), committed shards stay committed,
//! and [`ShardedLiveService::tick_sweep`] rolls back the high-water
//! marks of exactly the sources routed to the failed shards
//! ([`HighWaterMarks::rollback_many`]).

// lint:deterministic — routing decides which journal a delta lands
// in, so the same delta stream must route identically on every node
// and on every recovery replay.

use crate::cache::QueryCache;
use crate::error::LiveError;
use crate::journal::DeltaJournal;
use crate::metrics::ShardMetrics;
use crate::service::RecoveryReport;
use crate::snapshot::{EngineSnapshot, LiveWriter, SnapshotReader};
use obs_model::{Clock, CorpusDelta, PostId, SourceId};
use obs_search::{
    scatter_query, scatter_query_traced, SearchEngine, SearchHit, SearchMetrics, StaticBlend,
};
use obs_wrappers::{Crawler, DataService, HighWaterMarks, SweepReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

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
/// byte-for-byte what the unsharded service journals.
///
/// ```
/// use obs_live::ShardRouter;
/// use obs_model::{CorpusDelta, PostId, SourceId};
///
/// let mut router = ShardRouter::new(4);
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
    /// A router over `shards` partitions.
    ///
    /// # Panics
    /// If `shards` is zero.
    pub fn new(shards: usize) -> ShardRouter {
        assert!(shards >= 1, "a shard router needs at least one shard");
        ShardRouter {
            shards,
            homes: BTreeMap::new(),
        }
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
        let mut routed = vec![CorpusDelta::new(); self.shards];
        for &post in &delta.removed {
            match self.homes.remove(&post) {
                Some(home) => routed[home].remove_doc(post),
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

    /// Registry hook for recovery replay: records that `post`'s
    /// document lives in `shard`.
    pub(crate) fn note_home(&mut self, post: PostId, shard: usize) {
        self.homes.insert(post, shard);
    }

    /// Registry hook for recovery replay: records that `post` was
    /// removed.
    pub(crate) fn forget(&mut self, post: PostId) {
        self.homes.remove(&post);
    }
}

/// The global static blend behind its own epoch cell — readers grab
/// the current `Arc` under a lock held for one clone, exactly the
/// [`SnapshotStore`](crate::SnapshotStore) discipline.
#[derive(Debug)]
struct BlendCell {
    current: RwLock<Arc<StaticBlend>>,
}

impl BlendCell {
    fn new(blend: StaticBlend) -> BlendCell {
        BlendCell {
            current: RwLock::new(Arc::new(blend)),
        }
    }

    fn load(&self) -> Arc<StaticBlend> {
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Swaps in a new blend and hands back the superseded one, with
    /// the lock already released so its free never blocks a reader.
    fn publish(&self, blend: Arc<StaticBlend>) -> Arc<StaticBlend> {
        let mut guard = match self.current.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        std::mem::replace(&mut *guard, blend)
    }
}

/// One shard's moving parts: its journal and its writer/snapshot
/// pair. Commit order inside a shard is the service invariant:
/// journal (fsync) → apply → publish.
#[derive(Debug)]
struct Shard {
    writer: LiveWriter,
    journal: DeltaJournal,
}

impl Shard {
    /// Group-commits this shard's sub-batch: all records under one
    /// fsync ([`DeltaJournal::append_batch`], all-or-nothing), one
    /// batched apply, one published snapshot. An empty batch touches
    /// nothing.
    fn commit(&mut self, deltas: &[CorpusDelta]) -> Result<(), LiveError> {
        let refs: Vec<&CorpusDelta> = deltas.iter().collect();
        let Some((first, _)) = self.journal.append_batch(&refs)? else {
            return Ok(());
        };
        self.writer.apply_batch(first, &refs);
        self.writer.publish();
        Ok(())
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

/// A sharded live service: N independent journal + writer + snapshot
/// columns behind one router, one global static blend and one
/// scatter-gather query plan.
///
/// Construction starts from an **empty** seed engine (carrying the
/// analytics-derived static signals but zero documents) and grows
/// every shard from the delta stream — an existing index cannot be
/// partitioned after the fact. The single-shard construction is the
/// unsharded service, byte-for-byte: same journal contents, same
/// rankings (proptest-pinned at the workspace level).
#[derive(Debug)]
pub struct ShardedLiveService {
    router: ShardRouter,
    shards: Vec<Shard>,
    /// The one global blend, absorbing every committed shard's
    /// engagement in arrival order.
    blend: StaticBlend,
    /// Published copy of `blend` for readers.
    blend_cell: Arc<BlendCell>,
    /// Per-shard commit instruments. This module is
    /// `lint:deterministic`, so all timing happens inside
    /// [`ShardMetrics`] (untagged `metrics` module) — the shard path
    /// only hands it closures and plan facts, never reads a clock.
    metrics: Option<ShardMetrics>,
    /// Snapshot-keyed result cache shared by every reader this
    /// service hands out. Lives in the untagged
    /// [`cache`](crate::cache) module for the same reason as the
    /// metrics: this module only holds the handle and calls methods.
    query_cache: Option<Arc<QueryCache>>,
}

impl ShardedLiveService {
    /// The journal path of shard `shard` under `dir`.
    pub fn shard_journal_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.journal"))
    }

    /// Starts a fresh sharded service: `shards` journal files
    /// (`shard-{i}.journal`) created (truncated) under `dir` — the
    /// directory is created if missing — and every shard's writer
    /// seeded with a clone of `seed` at sequence 0. The global blend
    /// starts as `seed`'s blend.
    ///
    /// # Panics
    /// If `shards` is zero, or if `seed` already indexes documents —
    /// existing documents cannot be partitioned after the fact;
    /// ingest them as deltas instead.
    pub fn start(
        seed: &SearchEngine,
        shards: usize,
        dir: impl AsRef<Path>,
    ) -> Result<ShardedLiveService, LiveError> {
        Self::check_seed(seed, shards);
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(crate::journal::JournalError::Io)?;
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            handles.push(Shard {
                writer: LiveWriter::new(seed.clone(), 0),
                journal: DeltaJournal::create(Self::shard_journal_path(dir, i))?,
            });
        }
        let blend = seed.blend().clone();
        Ok(ShardedLiveService {
            router: ShardRouter::new(shards),
            shards: handles,
            blend_cell: Arc::new(BlendCell::new(blend.clone())),
            blend,
            metrics: None,
            query_cache: None,
        })
    }

    /// Attaches per-shard commit and query instruments (see
    /// [`ShardMetrics`]): subsequent routed commits record per-shard
    /// latency, outcome counters and fan-out width, and readers
    /// built by [`ShardedLiveService::reader`] record scatter-gather
    /// stage timings. The uninstrumented service records nothing.
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

    /// Rebuilds the pre-crash service by replaying **each shard's own
    /// journal** over a clone of `seed` — shards recover
    /// independently, so the cost of a crash is proportional to the
    /// largest shard, not the corpus. The router's post registry and
    /// the global blend are rebuilt from the replayed records; the
    /// per-shard reports come back in shard order.
    ///
    /// # Panics
    /// As [`ShardedLiveService::start`].
    pub fn recover(
        seed: &SearchEngine,
        shards: usize,
        dir: impl AsRef<Path>,
    ) -> Result<(ShardedLiveService, Vec<RecoveryReport>), LiveError> {
        Self::check_seed(seed, shards);
        let dir = dir.as_ref();
        let mut router = ShardRouter::new(shards);
        let mut blend = seed.blend().clone();
        let mut blend_touched = false;
        let mut handles = Vec::with_capacity(shards);
        let mut reports = Vec::with_capacity(shards);
        for i in 0..shards {
            let (mut journal, replay) = DeltaJournal::open(Self::shard_journal_path(dir, i))?;
            if let Some(first) = replay.records.first() {
                if first.seq > 1 {
                    return Err(LiveError::CheckpointGap {
                        checkpoint_seq: 0,
                        journal_first_seq: first.seq,
                    });
                }
            }
            let mut writer = LiveWriter::new(seed.clone(), 0);
            for record in &replay.records {
                writer.apply(record.seq, &record.delta);
                // Registry rebuild mirrors routing order: removals
                // before adds, so a remove-then-readd inside one
                // delta leaves the post homed.
                for &post in &record.delta.removed {
                    router.forget(post);
                }
                for doc in &record.delta.added {
                    router.note_home(doc.post, i);
                }
                blend_touched |= blend.apply_engagement(&record.delta.engagement);
            }
            writer.publish();
            reports.push(RecoveryReport {
                replayed: replay.records.len(),
                skipped: 0,
                torn_tail_dropped: replay.torn_tail_dropped,
                recovered_seq: writer.seq(),
            });
            journal.resume_at(writer.seq() + 1);
            handles.push(Shard { writer, journal });
        }
        if blend_touched {
            blend.reblend();
        }
        Ok((
            ShardedLiveService {
                router,
                shards: handles,
                blend_cell: Arc::new(BlendCell::new(blend.clone())),
                blend,
                metrics: None,
                query_cache: None,
            },
            reports,
        ))
    }

    fn check_seed(seed: &SearchEngine, shards: usize) {
        assert!(shards >= 1, "a sharded service needs at least one shard");
        assert_eq!(
            seed.doc_count(),
            0,
            "the seed engine must be empty: an existing index cannot be \
             partitioned after the fact — ingest its documents as deltas"
        );
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
    /// per-shard fsync, one batched apply, one published snapshot.
    /// Engagement of every *committed* shard is then absorbed into
    /// the global blend (in arrival order per source — exact, since
    /// a source maps to one shard) and the blend is re-standardized
    /// and published once.
    ///
    /// Failure is per-shard, not all-or-nothing across shards: a
    /// shard whose fsync is refused retracts its own sub-batch
    /// ([`DeltaJournal::append_batch`] semantics) while the other
    /// shards' commits stand. The error is
    /// [`LiveError::ShardCommit`] naming the first failed shard;
    /// sweep callers additionally get the refused sources' marks
    /// rolled back (see [`ShardedLiveService::tick_sweep`]).
    pub fn ingest_batch(&mut self, deltas: &[CorpusDelta]) -> Result<(), LiveError> {
        self.commit_routed(deltas).map_err(FailedCommit::into_error)
    }

    /// The shared ingest core: route, parallel per-shard commit,
    /// blend absorption for committed shards.
    fn commit_routed(&mut self, deltas: &[CorpusDelta]) -> Result<(), FailedCommit> {
        let mut routed: Vec<Vec<CorpusDelta>> = vec![Vec::new(); self.shards.len()];
        for delta in deltas {
            if delta.is_empty() {
                continue;
            }
            for (shard, sub) in self.router.route(delta).into_iter().enumerate() {
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
            Some(m) => m.time_shard_commit(i, || shard.commit(batch)),
            None => shard.commit(batch),
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
                // lint:allow(panic): join only errs if the commit thread panicked; re-raising that panic is the designed propagation
                outcomes[i] = handle.join().expect("shard commit thread panicked");
            }
        });

        let mut failed: Option<(usize, LiveError)> = None;
        let mut refused_sources: Vec<SourceId> = Vec::new();
        let mut blend_touched = false;
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(()) => {
                    for sub in &routed[shard] {
                        blend_touched |= self.blend.apply_engagement(&sub.engagement);
                    }
                }
                Err(error) => {
                    for sub in &routed[shard] {
                        refused_sources.extend(sub.added.iter().map(|d| d.source));
                        refused_sources.extend(sub.engagement.iter().map(|e| e.source));
                    }
                    if failed.is_none() {
                        failed = Some((shard, error));
                    }
                }
            }
        }
        if blend_touched {
            self.blend.reblend();
            drop(self.blend_cell.publish(Arc::new(self.blend.clone())));
        }
        match failed {
            None => Ok(()),
            Some((shard, error)) => {
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

    /// One sweep tick over every registered service, the sharded
    /// analogue of
    /// [`LiveService::tick_sweep`](crate::LiveService::tick_sweep):
    /// crawl each source since its high-water mark, route the burst
    /// and commit every shard's slice in parallel.
    ///
    /// Failure rollback is **per shard**: if some shards refuse
    /// their slice, only the sources routed to those shards get
    /// their marks rolled back to the pre-sweep readings
    /// ([`HighWaterMarks::rollback_many`]) — sources whose shard
    /// committed keep their advanced marks, because their content
    /// *is* durable. A crawl-layer failure behaves as in the
    /// unsharded sweep (the crawler restores the marks itself).
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
    blend: Arc<BlendCell>,
    /// Query-path instruments inherited from the service's
    /// [`ShardMetrics`]; the timing itself lives behind
    /// [`SearchMetrics`] so this `lint:deterministic` module stays
    /// clock-free.
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
    use crate::service::LiveService;
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

    fn world_and_engine(seed: u64) -> (World, SearchEngine) {
        let world = World::generate(WorldConfig::small(seed));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        (world, engine)
    }

    /// An engine carrying the world's static signals but zero
    /// documents — the sharded seed.
    fn empty_seed(world: &World, engine: &SearchEngine) -> SearchEngine {
        let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
        let mut empty = engine.clone();
        empty.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
        assert_eq!(empty.doc_count(), 0);
        empty
    }

    /// The full post history as a stream of multi-post deltas.
    fn delta_stream(world: &World, chunk: usize) -> Vec<CorpusDelta> {
        let posts: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
        posts
            .chunks(chunk)
            .map(|c| CorpusDelta::for_posts(&world.corpus, c).unwrap())
            .collect()
    }

    fn cleanup(dir: &Path) {
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn router_sends_docs_engagement_and_removals_to_the_source_shard() {
        let mut router = ShardRouter::new(4);
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
    fn blend_publish_returns_the_superseded_blend_with_the_lock_released() {
        let (_, engine) = world_and_engine(607);
        let cell = BlendCell::new(engine.blend().clone());
        let old = cell.load();
        let fresh = Arc::new(engine.blend().clone());
        let superseded = cell.publish(Arc::clone(&fresh));
        assert!(cell.current.try_read().is_ok());
        assert!(Arc::ptr_eq(&superseded, &old));
        assert!(Arc::ptr_eq(&cell.load(), &fresh));
    }

    #[test]
    fn single_shard_routing_is_the_identity() {
        let mut router = ShardRouter::new(1);
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
    fn sharded_service_matches_unsharded_service() {
        let (world, engine) = world_and_engine(601);
        let seed = empty_seed(&world, &engine);
        let stream = delta_stream(&world, 7);
        let probe: Vec<String> = vec!["duomo".into(), "rooftop".into(), "castle".into()];

        let path = temp_dir("unsharded").join("single.journal");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut unsharded = LiveService::start(seed.clone(), &path).unwrap();
        let dir = temp_dir("sharded");
        let mut sharded = ShardedLiveService::start(&seed, 3, &dir).unwrap();

        for batch in stream.chunks(4) {
            unsharded.ingest_batch(batch).unwrap();
            sharded.ingest_batch(batch).unwrap();
        }
        assert_eq!(sharded.doc_count(), unsharded.doc_count());
        assert_eq!(sharded.doc_count(), engine.doc_count());

        let reader = sharded.reader();
        let unsharded_engine = unsharded.reader().snapshot();
        assert_eq!(
            reader.query(&probe, 50),
            unsharded_engine.engine().query(&probe, 50)
        );
        for s in world.corpus.sources() {
            assert_eq!(
                reader.static_score(s.id),
                unsharded_engine.engine().static_score(s.id)
            );
        }
        cleanup(path.parent().unwrap());
        cleanup(&dir);
    }

    #[test]
    fn instrumented_service_records_shard_commits_fanout_and_queries() {
        use obs_telemetry::Registry;

        let (world, engine) = world_and_engine(608);
        let seed = empty_seed(&world, &engine);
        let stream = delta_stream(&world, 7);
        let dir = temp_dir("metrics");
        let registry = Registry::new();
        let metrics = ShardMetrics::new(&registry, 3);
        let mut service = ShardedLiveService::start(&seed, 3, &dir)
            .unwrap()
            .with_metrics(metrics.clone());

        let mut bursts = 0u64;
        for batch in stream.chunks(4) {
            service.ingest_batch(batch).unwrap();
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

        let text = registry.render_text();
        assert!(text.contains("live_shard_commit_ns_count{shard=\"0\"}"));
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
    fn one_shard_journals_byte_identically_to_the_unsharded_service() {
        let (world, engine) = world_and_engine(602);
        let seed = empty_seed(&world, &engine);
        let stream = delta_stream(&world, 5);

        let path = temp_dir("bytes_unsharded").join("single.journal");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut unsharded = LiveService::start(seed.clone(), &path).unwrap();
        let dir = temp_dir("bytes_sharded");
        let mut sharded = ShardedLiveService::start(&seed, 1, &dir).unwrap();

        for batch in stream.chunks(3) {
            unsharded.ingest_batch(batch).unwrap();
            sharded.ingest_batch(batch).unwrap();
        }
        let single = std::fs::read(&path).unwrap();
        let shard0 = std::fs::read(ShardedLiveService::shard_journal_path(&dir, 0)).unwrap();
        assert_eq!(single, shard0, "1-shard journal must be byte-identical");
        cleanup(path.parent().unwrap());
        cleanup(&dir);
    }

    #[test]
    fn failed_shard_leaves_other_shards_committed() {
        let (world, engine) = world_and_engine(603);
        let seed = empty_seed(&world, &engine);
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
    fn sharded_sweep_rolls_back_only_the_failed_shards_sources() {
        let (world, engine) = world_and_engine(604);
        let seed = empty_seed(&world, &engine);
        let dir = temp_dir("sweep_rollback");
        let mut service = ShardedLiveService::start(&seed, 2, &dir).unwrap();
        let crawler = Crawler::default();
        let mut marks = HighWaterMarks::new();
        let pre_sweep = marks.clone();
        let mut services: Vec<Box<dyn DataService + '_>> = world
            .corpus
            .sources()
            .iter()
            .map(|s| service_for(&world.corpus, s.id, world.now).unwrap())
            .collect();
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
        let (world, engine) = world_and_engine(605);
        let seed = empty_seed(&world, &engine);
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
        service.ingest(&removal).unwrap();
        assert_eq!(service.doc_count(), docs - 1);
        cleanup(&dir);
    }

    #[test]
    #[should_panic(expected = "seed engine must be empty")]
    fn non_empty_seed_is_rejected() {
        let (_, engine) = world_and_engine(606);
        let dir = temp_dir("bad_seed");
        let _ = ShardedLiveService::start(&engine, 2, &dir);
    }
}
