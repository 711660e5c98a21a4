//! # rsdc-store — durable write-ahead log + checkpoint store
//!
//! Durability layer for the [`rsdc-engine`] streaming autoscaler: the
//! engine's whole value is running the Albers–Quedenfeld online policies
//! *continuously*, which means a process restart must not replay history.
//! This crate provides the persistence primitives the engine journals
//! through:
//!
//! * a **write-ahead log**, one append-only file per shard, of
//!   length-prefixed CRC-32-checked records ([`wal`]) with batched
//!   `fsync`s;
//! * periodic **full-state checkpoints** (opaque documents, atomically
//!   published via temp-file + rename + directory sync);
//! * **log truncation**: committing checkpoint `seq` deletes every WAL
//!   segment and checkpoint older than `seq`;
//! * a **recovery scan** that returns the newest valid checkpoint plus the
//!   replayable WAL tail, tolerating torn or corrupted tails by truncating
//!   each segment back to its last valid record boundary.
//!
//! The store is content-agnostic: payloads are opaque bytes. The engine
//! defines what a journal record or checkpoint document contains; this
//! crate only makes them durable. Two backends implement the object-safe
//! [`Durability`] trait: [`FileStore`] (real files) and [`NullStore`]
//! (no-op, for ephemeral engines and as the bench baseline).
//!
//! ## Segment layout
//!
//! A data directory holds `ckpt-<seq>.ckpt` checkpoint files and
//! `wal-<seq>-<shard>.wal` segments. Segment `seq` contains exactly the
//! records journaled *after* checkpoint `seq`'s state capture (shards
//! rotate their WAL at the capture point, so the snapshot/boundary pairing
//! is exact). Recovery therefore replays all segments with
//! `segment seq >= newest checkpoint seq` on top of that checkpoint.
//!
//! [`rsdc-engine`]: ../rsdc_engine/index.html

#![warn(missing_docs)]

pub mod file;
pub mod null;
pub mod wal;

pub use file::{FileStore, FileStoreConfig};
pub use null::NullStore;

use serde::{Deserialize, Serialize};

/// Errors surfaced by a [`Durability`] backend.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// On-disk state failed validation beyond what recovery tolerates.
    Corrupt(String),
    /// The operation does not make sense in the store's current state
    /// (e.g. committing a checkpoint sequence that was never begun).
    InvalidState(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corrupt: {m}"),
            StoreError::InvalidState(m) => write!(f, "store state: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The newest valid checkpoint found by [`Durability::recover`].
#[derive(Debug, Clone)]
pub struct CheckpointBlob {
    /// Checkpoint sequence number.
    pub seq: u64,
    /// The opaque checkpoint document.
    pub payload: Vec<u8>,
}

/// One replayable WAL segment: every valid record of one shard's log for
/// one checkpoint epoch, in append order.
#[derive(Debug, Clone)]
pub struct WalSegment {
    /// Checkpoint epoch the segment belongs to.
    pub seq: u64,
    /// Shard that wrote the segment.
    pub shard: usize,
    /// Record payloads in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes dropped from a torn or corrupted tail (0 on a clean segment).
    pub dropped_bytes: u64,
}

/// Everything [`Durability::recover`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Newest checkpoint whose document passed frame validation.
    pub checkpoint: Option<CheckpointBlob>,
    /// Replayable segments, sorted by `(shard, seq)` — i.e. already in
    /// per-shard replay order, oldest epoch first.
    pub segments: Vec<WalSegment>,
    /// Checkpoint files that failed validation and were skipped in favour
    /// of an older one.
    pub checkpoints_skipped: usize,
}

impl Recovery {
    /// True when the store held no usable state at all.
    pub fn is_empty(&self) -> bool {
        self.checkpoint.is_none() && self.segments.iter().all(|s| s.records.is_empty())
    }
}

/// Point-in-time statistics about the store, serializable for the engine's
/// `wal_stats` wire op.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StoreStats {
    /// Whether the backend persists anything (`false` for [`NullStore`]).
    pub durable: bool,
    /// Newest committed checkpoint sequence (0 = none yet).
    pub checkpoint_seq: u64,
    /// Checkpoint files currently on disk.
    pub checkpoints: usize,
    /// WAL segment files currently on disk.
    pub wal_segments: usize,
    /// Total bytes across WAL segment files.
    pub wal_bytes: u64,
    /// Records appended through this handle since it was opened.
    pub appended_records: u64,
    /// Payload bytes appended through this handle since it was opened.
    pub appended_bytes: u64,
    /// `fsync` calls issued for WAL appends through this handle.
    pub syncs: u64,
    /// Data directory (empty for [`NullStore`]).
    pub dir: String,
}

/// Object-safe durability backend the engine journals through.
///
/// Shards call [`append`](Durability::append) (journal an operation
/// before applying it) and [`rotate`](Durability::rotate) (at checkpoint
/// capture); the engine handle drives
/// [`begin_checkpoint`](Durability::begin_checkpoint) /
/// [`commit_checkpoint`](Durability::commit_checkpoint) and
/// [`recover`](Durability::recover). Implementations must be safe to share
/// across threads (`Send + Sync`), with `append`/`rotate` calls for a
/// given shard serialized by that shard's lock in the engine.
pub trait Durability: Send + Sync {
    /// True when appends actually persist. Callers may skip serialization
    /// work entirely when this is `false`.
    fn is_durable(&self) -> bool;

    /// True when the store already holds a checkpoint or WAL data — i.e. a
    /// fresh engine should recover instead of starting cold.
    fn has_state(&self) -> Result<bool, StoreError>;

    /// Append one record to `shard`'s current WAL segment. Must be called
    /// *before* the recorded mutation is applied.
    fn append(&self, shard: usize, payload: &[u8]) -> Result<(), StoreError>;

    /// Force every buffered append to stable storage.
    fn sync(&self) -> Result<(), StoreError>;

    /// Reserve the next checkpoint sequence number.
    fn begin_checkpoint(&self) -> Result<u64, StoreError>;

    /// Switch `shard`'s WAL to the segment for checkpoint `seq`. Called by
    /// the shard, under its lock, at the exact point it captures its
    /// snapshot, so records before/after the capture land in the old/new
    /// segment.
    fn rotate(&self, shard: usize, seq: u64) -> Result<(), StoreError>;

    /// Durably publish checkpoint `seq` (atomic: temp file + rename +
    /// directory sync), then truncate the log: delete every checkpoint and
    /// WAL segment older than `seq`.
    fn commit_checkpoint(&self, seq: u64, payload: &[u8]) -> Result<(), StoreError>;

    /// Scan the store: newest valid checkpoint plus the replayable WAL
    /// tail. Repairs torn segment tails (truncates to the last valid
    /// record boundary) so subsequent appends continue from a clean edge.
    fn recover(&self) -> Result<Recovery, StoreError>;

    /// Current statistics.
    fn wal_stats(&self) -> Result<StoreStats, StoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn null_store_is_inert() {
        let s = NullStore;
        assert!(!s.is_durable());
        assert!(!s.has_state().unwrap());
        s.append(0, b"ignored").unwrap();
        let seq = s.begin_checkpoint().unwrap();
        s.rotate(0, seq).unwrap();
        s.commit_checkpoint(seq, b"doc").unwrap();
        let rec = s.recover().unwrap();
        assert!(rec.is_empty());
        let stats = s.wal_stats().unwrap();
        assert!(!stats.durable);
        assert_eq!(stats.checkpoint_seq, 0);
    }

    #[test]
    fn trait_is_object_safe() {
        let stores: Vec<Arc<dyn Durability>> = vec![Arc::new(NullStore)];
        assert!(!stores[0].is_durable());
    }
}
