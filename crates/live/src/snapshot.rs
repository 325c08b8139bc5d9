//! Epoch-style snapshot publication.
//!
//! The serving contract: any number of reader threads query the
//! engine while one writer applies crawl deltas, and **a reader
//! never blocks on an in-flight `apply_delta`**. The scheme is a
//! hand-rolled arc swap over `std::sync` (the build image is
//! offline, so no `arc-swap` crate):
//!
//! * the [`SnapshotStore`] holds the current [`EngineSnapshot`]
//!   behind an `RwLock<Arc<_>>`. Readers take the read lock *only
//!   long enough to clone the `Arc`* — nanoseconds — and then query
//!   their snapshot entirely outside any lock;
//! * the [`LiveWriter`] owns a private [`SearchEngine`] and applies
//!   deltas' documents to it without holding any lock at all. The
//!   engine's index is copy-on-write (shared via `Arc` until
//!   mutated), so published snapshots are immune to later writes;
//! * publishing swaps the `Arc` under the write lock — again a
//!   pointer-sized critical section. The superseded snapshot comes
//!   back after the lock is released. If nothing else holds it or its
//!   index, the writer keeps that index as a **spare**, and its next
//!   apply detaches into the spare's buffers ([`Clone::clone_from`])
//!   instead of allocating a fresh copy while the publish frees the
//!   old one. Two epochs' storage so alternate for as long as no
//!   reader lingers, and both stay resident between commits: the
//!   spare costs one index's memory per writer.
//!
//! The lock is therefore never held across an `apply_delta` or a
//! `query`; the worst a reader can experience is waiting for a
//! pointer swap. Readers holding an old snapshot keep its epoch of
//! the index alive until they drop it — the classic epoch
//! reclamation trade-off, made safe by `Arc` — and while they do, the
//! writer cannot recycle it: its next detach falls back to a fresh
//! copy, and the reader frees the epoch when it lets go. A
//! [`Checkpoint`](crate::Checkpoint) pins an epoch the same way.

use crate::LiveError;
use obs_search::{InvertedIndex, SearchEngine};
use std::sync::{Arc, RwLock};

/// One published, immutable engine state.
///
/// The sequence number is the journal sequence of the last delta the
/// engine absorbed (0 for the initial build), so observers can order
/// snapshots and correlate them with the durable log.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    seq: u64,
    engine: SearchEngine,
}

impl EngineSnapshot {
    /// Wraps an engine state at a journal position.
    pub fn new(seq: u64, engine: SearchEngine) -> EngineSnapshot {
        EngineSnapshot { seq, engine }
    }

    /// Journal sequence of the last delta this snapshot contains.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The frozen engine. Query it freely — nothing can mutate it.
    pub fn engine(&self) -> &SearchEngine {
        &self.engine
    }

    /// The snapshot's index, if no other handle holds the snapshot or
    /// shares the index: storage free to recycle.
    fn into_unshared_index(snapshot: Arc<EngineSnapshot>) -> Option<InvertedIndex> {
        Arc::try_unwrap(snapshot).ok()?.engine.into_unshared_index()
    }
}

/// The swap point between one writer and many readers: of an
/// [`EngineSnapshot`] by default, or of any other epoch-published
/// value (a sharded service's global static blend).
#[derive(Debug)]
pub struct SnapshotStore<T = EngineSnapshot> {
    current: RwLock<Arc<T>>,
}

impl<T> SnapshotStore<T> {
    /// Creates a store serving `initial` until the first publish.
    pub fn new(initial: T) -> SnapshotStore<T> {
        SnapshotStore {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot. Lock-held time is one `Arc` clone.
    pub fn load(&self) -> Arc<T> {
        // A poisoned lock only means a reader panicked mid-clone;
        // the guarded Arc itself is always intact.
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Swaps in a new snapshot and hands back the superseded one.
    /// Lock-held time is one pointer swap: the old snapshot — possibly
    /// the last handle on a whole index epoch — is returned with the
    /// lock already released, so readers never wait on its free.
    pub(crate) fn publish(&self, snapshot: Arc<T>) -> Arc<T> {
        let mut guard = match self.current.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        std::mem::replace(&mut *guard, snapshot)
    }
}

/// A cloneable, `Send` handle for reader threads.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    store: Arc<SnapshotStore>,
}

impl SnapshotReader {
    /// The current snapshot; query it outside any lock.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.store.load()
    }
}

/// The single owner of the mutable engine.
///
/// Applies deltas' documents (never engagement) to a private
/// copy-on-write engine and decides when to publish. Keeping apply
/// and publish separate lets a caller batch several deltas per
/// published snapshot (publishing is cheap, but each
/// publish-then-apply cycle detaches the index once).
#[derive(Debug)]
pub struct LiveWriter {
    engine: SearchEngine,
    store: Arc<SnapshotStore>,
    seq: u64,
    /// The index of the epoch the last publish superseded, when no
    /// one else held it: the next apply detaches into it. Resident
    /// between commits, so an idle writer holds two epochs.
    spare: Option<InvertedIndex>,
}

impl LiveWriter {
    /// Starts a writer at `engine`/`seq` and publishes that state as
    /// the initial snapshot.
    pub fn new(engine: SearchEngine, seq: u64) -> LiveWriter {
        let store = Arc::new(SnapshotStore::new(EngineSnapshot::new(seq, engine.clone())));
        LiveWriter {
            engine,
            store,
            seq,
            spare: None,
        }
    }

    /// A reader handle onto this writer's store.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            store: Arc::clone(&self.store),
        }
    }

    /// Applies a contiguous run of deltas as one batch, stamping
    /// them as changes `first_seq ..= first_seq + deltas.len() - 1`.
    ///
    /// The burst's documents go through
    /// [`SearchEngine::apply_documents_into`](obs_search::SearchEngine::apply_documents_into)
    /// *in replay order*: one copy-on-write index detach (into the
    /// spare the last publish reclaimed, if any) and one tombstone
    /// sweep, however many deltas the burst carries — the
    /// amortization the group-commit ingest path exists for, with an
    /// index bit-identical to replaying the same records one at a
    /// time. The engagement is left to the caller's blend. Not visible
    /// to readers until [`LiveWriter::publish`]; an empty batch is a
    /// no-op. Returns whether the detach recycled the spare.
    ///
    /// Fails with [`LiveError::OutOfOrder`], applying nothing, if
    /// `first_seq` is not exactly one past the last applied sequence.
    pub fn apply_batch(
        &mut self,
        first_seq: u64,
        deltas: &[&obs_model::CorpusDelta],
    ) -> Result<bool, LiveError> {
        if deltas.is_empty() {
            return Ok(false);
        }
        let expected = self.seq + 1;
        if first_seq != expected {
            return Err(LiveError::OutOfOrder {
                expected,
                got: first_seq,
            });
        }
        let recycled = self
            .engine
            .apply_documents_into(&mut self.spare, deltas.iter().copied());
        self.seq = first_seq + deltas.len() as u64 - 1;
        Ok(recycled)
    }

    /// Publishes the current engine state. Readers acquiring
    /// snapshots from now on see every delta applied so far. The
    /// superseded snapshot comes back outside the store's write lock;
    /// its index becomes the spare if nothing else holds it, and is
    /// otherwise left to its last holder to free.
    pub fn publish(&mut self) {
        let superseded = self
            .store
            .publish(Arc::new(EngineSnapshot::new(self.seq, self.engine.clone())));
        self.spare = EngineSnapshot::into_unshared_index(superseded);
    }

    /// Discards every unpublished apply: the engine and sequence go
    /// back to the published snapshot's, sharing its index. The
    /// discarded index becomes the spare. Since every commit
    /// publishes, this is the state before the commit that failed.
    pub fn reset_to_published(&mut self) {
        let published = self.store.load();
        let discarded = std::mem::replace(&mut self.engine, published.engine().clone());
        self.seq = published.seq();
        if let Some(index) = discarded.into_unshared_index() {
            self.spare = Some(index);
        }
    }

    /// Sequence of the last applied (not necessarily published) delta.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The writer's private engine state (diagnostics; readers should
    /// go through [`LiveWriter::reader`]).
    pub fn engine(&self) -> &SearchEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_analytics::{AlexaPanel, LinkGraph};
    use obs_model::{CorpusDelta, PostId};
    use obs_search::score::{bm25_scores, Bm25Params};
    use obs_search::BlendWeights;
    use obs_synth::{World, WorldConfig};
    use std::collections::BTreeSet;

    fn engine() -> (World, SearchEngine) {
        let world = World::generate(WorldConfig::small(404));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        (world, engine)
    }

    #[test]
    fn initial_snapshot_serves_the_seed_engine() {
        let (_, engine) = engine();
        let docs = engine.doc_count();
        let writer = LiveWriter::new(engine, 0);
        let snap = writer.reader().snapshot();
        assert_eq!(snap.seq(), 0);
        assert_eq!(snap.engine().doc_count(), docs);
    }

    #[test]
    fn applies_are_invisible_until_publish() {
        let (world, engine) = engine();
        let mut writer = LiveWriter::new(engine, 0);
        let reader = writer.reader();
        let before = reader.snapshot();

        let last = world.corpus.posts().last().unwrap().id;
        let removal = CorpusDelta::for_removals(&world.corpus, &[last]).unwrap();
        writer.apply_batch(1, &[&removal]).unwrap();
        // The published snapshot is untouched by the un-published
        // apply, down to index identity.
        let mid = reader.snapshot();
        assert_eq!(mid.seq(), 0);
        assert_eq!(mid.engine().doc_count(), before.engine().doc_count());
        assert!(mid.engine().shares_index_with(before.engine()));

        writer.publish();
        let after = reader.snapshot();
        assert_eq!(after.seq(), 1);
        assert_eq!(after.engine().doc_count(), before.engine().doc_count() - 1);
        // The old snapshot handle still serves the old epoch.
        assert_eq!(before.engine().doc_count(), mid.engine().doc_count());
    }

    #[test]
    fn apply_batch_equals_sequential_applies() {
        let (world, engine) = engine();
        let recent: Vec<PostId> = world
            .corpus
            .posts()
            .iter()
            .rev()
            .take(8)
            .map(|p| p.id)
            .collect();
        let deltas: Vec<CorpusDelta> = recent
            .chunks(2)
            .map(|chunk| CorpusDelta::for_removals(&world.corpus, chunk).unwrap())
            .collect();

        // The reference: the same records applied one at a time.
        let mut sequential = engine.clone();
        for delta in &deltas {
            sequential.apply_delta(delta);
        }

        let mut batched = LiveWriter::new(engine, 0);
        let refs: Vec<&CorpusDelta> = deltas.iter().collect();
        batched.apply_batch(1, &refs).unwrap();
        batched.publish();

        assert_eq!(batched.seq(), deltas.len() as u64);
        let b = batched.reader().snapshot();
        assert_eq!(b.seq(), deltas.len() as u64);
        assert_eq!(sequential.doc_count(), b.engine().doc_count());
        // The writer owns documents only (engagement is the service
        // blend's), so the batch must answer every tag as the
        // sequence does.
        let posts = world.corpus.posts().iter();
        let terms: BTreeSet<&str> = posts.flat_map(|p| &p.tags).map(|t| t.as_str()).collect();
        let terms: Vec<&str> = terms.into_iter().collect();
        let scores = bm25_scores(sequential.index(), &terms, Bm25Params::default());
        assert!(!scores.is_empty());
        assert_eq!(
            bm25_scores(b.engine().index(), &terms, Bm25Params::default()),
            scores
        );
    }

    #[test]
    fn publish_returns_the_superseded_snapshot_with_the_lock_released() {
        let (_, engine) = engine();
        let store = SnapshotStore::new(EngineSnapshot::new(0, engine.clone()));
        let superseded = store.publish(Arc::new(EngineSnapshot::new(1, engine)));
        // The old epoch is still alive here, yet readers are free.
        assert!(store.current.try_read().is_ok());
        assert_eq!(superseded.seq(), 0);
        assert_eq!(store.load().seq(), 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (_, engine) = engine();
        let mut writer = LiveWriter::new(engine, 0);
        writer.apply_batch(1, &[]).unwrap();
        assert_eq!(writer.seq(), 0);
    }

    #[test]
    fn out_of_order_batch_is_refused() {
        let (world, engine) = engine();
        let docs = engine.doc_count();
        let mut writer = LiveWriter::new(engine, 0);
        let last = world.corpus.posts().last().unwrap().id;
        let removal = CorpusDelta::for_removals(&world.corpus, &[last]).unwrap();
        let refused = writer.apply_batch(2, &[&removal]); // skips seq 1
        assert!(matches!(
            refused,
            Err(LiveError::OutOfOrder {
                expected: 1,
                got: 2
            })
        ));
        assert_eq!(writer.seq(), 0);
        assert_eq!(writer.engine().doc_count(), docs);
    }

    #[test]
    fn unknown_post_delta_is_safe() {
        let (_, engine) = engine();
        let mut writer = LiveWriter::new(engine, 0);
        let mut delta = CorpusDelta::new();
        delta.remove_doc(PostId::new(9_999_999));
        writer.apply_batch(1, &[&delta]).unwrap();
        writer.publish();
        assert_eq!(writer.reader().snapshot().seq(), 1);
    }
}
