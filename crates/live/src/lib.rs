//! # obs-live — concurrent snapshot serving with a durable delta journal
//!
//! The batch pipeline builds a [`SearchEngine`](obs_search::SearchEngine)
//! once and queries it; the paper's observer model instead assumes
//! queries are answered *continuously while new Web 2.0 content
//! streams in*. This crate is the serving layer that closes that gap:
//!
//! * [`SnapshotStore`] / [`SnapshotReader`] — readers grab an
//!   immutable engine snapshot through an epoch-style arc swap.
//!   Acquiring a snapshot is a reference-count bump under a lock held
//!   for nanoseconds; **`query` never blocks on an in-flight
//!   `apply_delta`**, because writers mutate a private copy-on-write
//!   engine and publish by swapping one `Arc` pointer.
//! * [`LiveWriter`] — the single owner of the mutable engine. It
//!   applies [`CorpusDelta`](obs_model::CorpusDelta)s and publishes
//!   new snapshots; published snapshots are frozen forever.
//! * [`DeltaJournal`] — an append-only on-disk log of serialized
//!   deltas with sequence numbers, crc-protected records,
//!   torn-tail tolerance (a truncated final record is detected and
//!   dropped, not a panic) and prefix compaction once a checkpoint
//!   covers it.
//! * [`ShardedLiveService`] — the one serving pipeline. It
//!   partitions the corpus by source id ([`ShardRouter`]) into N
//!   journal + writer + snapshot columns (one shard is simply
//!   N = 1) and commits every routed sub-batch through
//!   *journal (fsync) ∥ apply → publish*, in parallel across
//!   shards. [`ShardedReader`] answers queries with a scatter-gather
//!   plan that is bit-identical to an unsharded engine over the same
//!   documents (see [`shard`]).
//! * **Group commit** — [`ShardedLiveService::ingest_batch`] and
//!   [`ShardedLiveService::tick_sweep`] amortize the per-delta costs
//!   across a burst: a shard's N journal records share one fsync
//!   ([`DeltaJournal::append_batch`], all-or-nothing), one
//!   copy-on-write index detach ([`LiveWriter::apply_batch`], which
//!   applies the burst's documents in replay order), one published
//!   snapshot and one re-blend of the service's published blend.
//!   Readers only ever observe batch boundaries; recovery replays
//!   each shard's journal tail through the same batched apply and
//!   lands on the identical engine by construction.
//! * **Recovery** — [`ShardedLiveService::recover`] rebuilds the
//!   exact pre-crash service from the durable checkpoint image (see
//!   [`checkpoint`]) and each shard's journal tail past it. Before a
//!   commit, once the journals hold eight times as many bytes as the
//!   last image, the service writes a new image and compacts the
//!   journals through it, so images grow geometrically with a corpus.
//! * **Query caching** — [`QueryCache`] memoizes top-k rankings
//!   keyed by the exact snapshot epochs that produced them, so a
//!   publish invalidates for free and a cached reader is observably
//!   identical to an uncached one (see [`cache`]).
//!
//! ```text
//! crawl sweeps ─ route ─► per shard: DeltaJournal (fsync) ∥ LiveWriter.apply_batch ─► publish
//!                                                                                       │
//!                       ShardedReader.pin() ◄── SnapshotStore per shard + blend ◄───────┘
//!                       (N reader threads, never blocked)
//! ```
//!
//! The recovery invariant — replaying the journal over a checkpoint
//! image reproduces the uninterrupted engine down to identical BM25 score
//! maps — is enforced by property tests at the workspace level.

#![warn(missing_docs)]
// Panic-freedom on the serving path (obs_live and every crate it
// links): runtime code returns errors instead of panicking, and a
// waiver is an `#[expect]` with a reason.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod cache;
pub mod checkpoint;
mod error;
pub mod journal;
pub mod metrics;
pub mod shard;
pub mod snapshot;

pub use cache::{CacheMetrics, QueryCache};
pub use checkpoint::{CheckpointError, CheckpointStep};
pub use error::LiveError;
pub use journal::{DeltaJournal, JournalError, JournalReplay};
pub use metrics::{ShardMetrics, Stage, StageTimer};
pub use shard::{PinnedShards, RecoveryReport, ShardRouter, ShardedLiveService, ShardedReader};
pub use snapshot::{EngineSnapshot, LiveWriter, SnapshotReader, SnapshotStore};
