//! Serving-layer errors.

use crate::journal::JournalError;
use obs_wrappers::WrapperError;
use std::fmt;

/// Why a live-service operation failed.
#[derive(Debug)]
pub enum LiveError {
    /// The durable journal failed (I/O or corruption).
    Journal(JournalError),
    /// A crawl tick failed at the wrapper layer.
    Crawl(WrapperError),
    /// The journal does not connect to the checkpoint: its first
    /// retained record is later than the checkpoint's next change,
    /// so the intervening deltas are unrecoverable.
    CheckpointGap {
        /// Sequence the checkpoint covers.
        checkpoint_seq: u64,
        /// First sequence the journal still holds.
        journal_first_seq: u64,
    },
    /// A service was asked for zero shards; every service needs at
    /// least one journal + writer column.
    NoShards,
    /// The seed engine already indexes documents. Existing documents
    /// cannot be partitioned after the fact, so a service starts
    /// from an empty seed and ingests its content as deltas.
    NonEmptySeed {
        /// Documents the seed indexes.
        docs: usize,
    },
    /// One shard of a service refused its slice of a routed
    /// batch. Shards are independent failure domains: the other
    /// shards' commits stand, and only the sources routed to the
    /// failed shard need re-observation (their high-water marks are
    /// rolled back by the sweep path).
    ShardCommit {
        /// Index of the first shard whose commit failed.
        shard: usize,
        /// The underlying failure on that shard.
        cause: Box<LiveError>,
    },
    /// A writer was handed a batch that does not start one past its
    /// last applied sequence. A skipped or replayed delta would
    /// silently corrupt the journal ↔ snapshot correspondence, so
    /// the batch is refused untouched.
    OutOfOrder {
        /// The sequence the writer expected next.
        expected: u64,
        /// The first sequence of the refused batch.
        got: u64,
    },
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Journal(e) => write!(f, "journal failure: {e}"),
            LiveError::Crawl(e) => write!(f, "crawl tick failed: {e}"),
            LiveError::CheckpointGap {
                checkpoint_seq,
                journal_first_seq,
            } => write!(
                f,
                "checkpoint at seq {checkpoint_seq} does not reach the journal \
                 (first retained record is seq {journal_first_seq}); \
                 deltas in between are lost"
            ),
            LiveError::NoShards => write!(f, "a live service needs at least one shard"),
            LiveError::NonEmptySeed { docs } => write!(
                f,
                "the seed engine must be empty but indexes {docs} documents; \
                 ingest them as deltas instead"
            ),
            LiveError::ShardCommit { shard, cause } => {
                write!(f, "shard {shard} refused its slice of the batch: {cause}")
            }
            LiveError::OutOfOrder { expected, got } => {
                write!(f, "out-of-order batch: expected seq {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<JournalError> for LiveError {
    fn from(e: JournalError) -> Self {
        LiveError::Journal(e)
    }
}

impl From<WrapperError> for LiveError {
    fn from(e: WrapperError) -> Self {
        LiveError::Crawl(e)
    }
}
