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
//!   deltas to it without holding any lock at all. The engine's
//!   index is copy-on-write (shared via `Arc` until mutated), so
//!   published snapshots are physically immune to later writes;
//! * publishing swaps the `Arc` under the write lock — again a
//!   pointer-sized critical section. The superseded snapshot is
//!   dropped after the lock is released, so freeing an old index
//!   epoch never delays a reader.
//!
//! The lock is therefore never held across an `apply_delta` or a
//! `query`; the worst a reader can experience is waiting for a
//! pointer swap. Readers holding an old snapshot keep its epoch of
//! the index alive until they drop it — the classic epoch
//! reclamation trade-off, made safe by `Arc`.

use crate::LiveError;
use obs_search::SearchEngine;
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
}

/// The swap point between one writer and many readers.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<EngineSnapshot>>,
}

impl SnapshotStore {
    /// Creates a store serving `initial` until the first publish.
    pub fn new(initial: EngineSnapshot) -> SnapshotStore {
        SnapshotStore {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot. Lock-held time is one `Arc` clone.
    pub fn load(&self) -> Arc<EngineSnapshot> {
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
    fn publish(&self, snapshot: Arc<EngineSnapshot>) -> Arc<EngineSnapshot> {
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
/// Applies deltas to a private copy-on-write engine and decides when
/// to publish. Keeping apply and publish separate lets a caller
/// batch several deltas per published snapshot (publishing is cheap,
/// but each publish-then-apply cycle detaches the index once).
#[derive(Debug)]
pub struct LiveWriter {
    engine: SearchEngine,
    store: Arc<SnapshotStore>,
    seq: u64,
}

impl LiveWriter {
    /// Starts a writer at `engine`/`seq` and publishes that state as
    /// the initial snapshot.
    pub fn new(engine: SearchEngine, seq: u64) -> LiveWriter {
        let store = Arc::new(SnapshotStore::new(EngineSnapshot::new(seq, engine.clone())));
        LiveWriter { engine, store, seq }
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
    /// The burst goes through
    /// [`SearchEngine::apply_deltas`](obs_search::SearchEngine::apply_deltas)
    /// *in replay order*: one copy-on-write index detach (the first
    /// apply detaches, the rest mutate the now-unique index in
    /// place) and one static-signal re-blend at the end, however
    /// many deltas the burst carries — the amortization the
    /// group-commit ingest path exists for, with unconditionally
    /// bit-identical results to replaying the same records one at a
    /// time on recovery. Not visible to readers until
    /// [`LiveWriter::publish`]; an empty batch is a no-op.
    ///
    /// Fails with [`LiveError::OutOfOrder`], applying nothing, if
    /// `first_seq` is not exactly one past the last applied sequence.
    pub fn apply_batch(
        &mut self,
        first_seq: u64,
        deltas: &[&obs_model::CorpusDelta],
    ) -> Result<(), LiveError> {
        if deltas.is_empty() {
            return Ok(());
        }
        let expected = self.seq + 1;
        if first_seq != expected {
            return Err(LiveError::OutOfOrder {
                expected,
                got: first_seq,
            });
        }
        self.engine.apply_deltas(deltas.iter().copied());
        self.seq = first_seq + deltas.len() as u64 - 1;
        Ok(())
    }

    /// Publishes the current engine state. Readers acquiring
    /// snapshots from now on see every delta applied so far.
    pub fn publish(&self) {
        // The superseded snapshot is freed here, outside the store's
        // write lock.
        drop(
            self.store
                .publish(Arc::new(EngineSnapshot::new(self.seq, self.engine.clone()))),
        );
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
    use obs_search::BlendWeights;
    use obs_synth::{World, WorldConfig};

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

        // The reference: the same records applied one at a time,
        // each with its own re-blend.
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
        for s in world.corpus.sources() {
            assert_eq!(sequential.static_score(s.id), b.engine().static_score(s.id));
        }
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
