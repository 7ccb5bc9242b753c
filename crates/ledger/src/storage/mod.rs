//! Durable storage for the ledger: a pluggable [`StorageBackend`] seam
//! with an in-memory backend (the pre-durability behaviour) and a
//! dependency-free file backend (WAL + snapshots + crash recovery).
//!
//! # Layering
//!
//! ```text
//! fabric::peer  ──────  StorageBackend (this module)
//!                         ├── InMemoryBackend      (volatile, tests/demo)
//!                         └── FileBackend (file.rs)
//!                               ├── Wal        (wal.rs, CRC-framed records)
//!                               ├── snapshots  (temp + fsync + rename)
//!                               └── Vfs        (vfs.rs seam)
//!                                     ├── StdVfs   (real directory)
//!                                     ├── MemVfs   (explicit durability line)
//!                                     └── FaultVfs (fault.rs, seeded faults)
//! ```
//!
//! # Contract
//!
//! The backend owns *bytes*, not semantics: the peer validates blocks,
//! the backend makes them durable. Once [`StorageBackend::append_block`]
//! returns `Ok`, the block must survive any crash — that is the property
//! the chaos soaks in `tests/chaos.rs` hammer. Snapshots are a pure
//! replay accelerator: losing every snapshot loses no data, only
//! recovery time.

pub mod codec;
pub mod fault;
pub mod file;
pub mod telemetry;
pub mod vfs;
pub mod wal;

use crate::block::Block;
use crate::history::HistoryIndex;
use crate::state::WorldState;
use crate::store::BlockStore;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vfs::VfsError;

/// Errors surfaced by a [`StorageBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The underlying VFS failed (I/O error or injected crash).
    Vfs(VfsError),
    /// The backend fail-stopped after an earlier write failure and must
    /// be reopened (rerunning recovery) before accepting more blocks.
    Poisoned,
    /// An appended block did not extend the backend's chain tip.
    NotNextBlock {
        /// The block number the backend expected.
        expected: u64,
        /// The number (and implicitly the link) it got.
        got: u64,
    },
}

impl StorageError {
    /// True when the error is an injected (or real) crash, meaning the
    /// process must be treated as dead until recovery reopens the store.
    pub fn is_crash(&self) -> bool {
        matches!(self, StorageError::Vfs(VfsError::Crashed { .. }))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Vfs(e) => write!(f, "{e}"),
            StorageError::Poisoned => {
                write!(f, "storage backend fail-stopped; reopen to recover")
            }
            StorageError::NotNextBlock { expected, got } => {
                write!(f, "block {got} does not extend storage tip {expected}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<VfsError> for StorageError {
    fn from(e: VfsError) -> Self {
        StorageError::Vfs(e)
    }
}

/// A point-in-time copy of the derived state at a chain height, the unit
/// the file backend persists and recovery loads.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Number of blocks applied when the snapshot was taken.
    pub height: u64,
    /// `WorldState::state_hash()` at capture time; recovery recomputes
    /// and compares before trusting the snapshot.
    pub state_hash: [u8; 32],
    /// The world state at `height`.
    pub state: WorldState,
    /// The history index at `height`.
    pub history: HistoryIndex,
}

impl Snapshot {
    /// Captures the current derived state at `height`.
    pub fn capture(height: u64, state: &WorldState, history: &HistoryIndex) -> Snapshot {
        Snapshot {
            height,
            state_hash: state.state_hash(),
            state: state.clone(),
            history: history.clone(),
        }
    }
}

/// What one recovery pass found and did — printed by soaks, exported as
/// metrics, asserted on by tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blocks in the verified chain after recovery.
    pub chain_height: u64,
    /// WAL file length after any tail truncation.
    pub wal_bytes: u64,
    /// Bytes cut off the WAL tail (0 when the file was clean).
    pub truncated_bytes: u64,
    /// Why the tail was rejected, when it was.
    pub tail: Option<String>,
    /// Height of the snapshot recovery started from, if any survived.
    pub snapshot_height: Option<u64>,
    /// Snapshot files that were tried and rejected (corrupt, ahead of
    /// the truncated chain, or unparseable).
    pub snapshot_fallbacks: u64,
    /// Blocks the caller must replay on top of the snapshot.
    pub replayed_blocks: u64,
    /// Wall-clock nanoseconds the backend spent in recovery.
    pub duration_ns: u64,
}

/// Everything a backend recovered at open.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The verified chain, genesis first: every block hashed and linked
    /// once, by [`crate::store`], so the caller adopts the store as it is.
    /// Its transaction index is empty — that is derived state, the
    /// caller's to rebuild.
    pub chain: BlockStore,
    /// The newest snapshot that passed verification, if any.
    pub snapshot: Option<Snapshot>,
    /// What recovery found and did.
    pub report: RecoveryReport,
}

/// Shared storage statistics: counters are RMW-only, gauges are plain
/// stores read through getter-shaped reporters (see the sync lint pass).
/// Cloned into [`telemetry::StorageMetricSource`] for scrape-time export.
#[derive(Debug, Default)]
pub struct StorageStats {
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    wal_truncations: AtomicU64,
    wal_truncated_bytes: AtomicU64,
    snapshots_written: AtomicU64,
    snapshot_failures: AtomicU64,
    snapshot_fallbacks: AtomicU64,
    last_snapshot_height: AtomicU64,
    chain_height: AtomicU64,
    recoveries: AtomicU64,
    replayed_blocks: AtomicU64,
    last_recovery_ns: AtomicU64,
    duplicate_txids: AtomicU64,
    recovery_phase: AtomicU64,
    recovery_blocks_scanned: AtomicU64,
}

/// Recovery phases, exported through `tdt_ledger_recovery_phase` so an
/// operator watching a slow startup can see *where* it is stuck. The
/// numeric order matches execution order; 0 means recovery is not
/// running (never started, or finished).
pub mod recovery_phase {
    /// Recovery is not running.
    pub const IDLE: u64 = 0;
    /// Scanning WAL frames.
    pub const SCAN: u64 = 1;
    /// Chain-verifying scanned blocks.
    pub const VERIFY: u64 = 2;
    /// Truncating the untrusted WAL tail.
    pub const TRUNCATE: u64 = 3;
    /// Selecting and verifying a snapshot.
    pub const SNAPSHOT: u64 = 4;
    /// Replaying blocks past the snapshot into derived state.
    pub const REPLAY: u64 = 5;

    /// Human-readable phase name, for spans and dumps.
    pub fn name(phase: u64) -> &'static str {
        match phase {
            SCAN => "scan",
            VERIFY => "verify",
            TRUNCATE => "truncate",
            SNAPSHOT => "snapshot",
            REPLAY => "replay",
            _ => "idle",
        }
    }
}

impl StorageStats {
    /// A zeroed stats bag.
    pub fn new() -> StorageStats {
        StorageStats::default()
    }

    /// One durable WAL append; `total_bytes` is the new file length.
    pub fn note_wal_append(&self, total_bytes: u64) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.store(total_bytes, Ordering::Relaxed);
    }

    /// One WAL tail truncation of `bytes` bytes during recovery.
    pub fn note_wal_truncation(&self, bytes: u64) {
        self.wal_truncations.fetch_add(1, Ordering::Relaxed);
        self.wal_truncated_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A snapshot reached disk at `height`.
    pub fn note_snapshot_written(&self, height: u64) {
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        self.last_snapshot_height.store(height, Ordering::Relaxed);
    }

    /// A snapshot write failed (commit durability is unaffected).
    pub fn note_snapshot_failure(&self) {
        self.snapshot_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot file was rejected during recovery.
    pub fn note_snapshot_fallback(&self) {
        self.snapshot_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the outcome of one recovery pass.
    pub fn note_recovery(&self, report: &RecoveryReport) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        self.replayed_blocks
            .store(report.replayed_blocks, Ordering::Relaxed);
        self.last_recovery_ns
            .store(report.duration_ns, Ordering::Relaxed);
        self.wal_bytes.store(report.wal_bytes, Ordering::Relaxed);
        self.chain_height
            .store(report.chain_height, Ordering::Relaxed);
        self.last_snapshot_height
            .store(report.snapshot_height.unwrap_or(0), Ordering::Relaxed);
    }

    /// Updates the committed chain height gauge.
    pub fn set_chain_height(&self, height: u64) {
        self.chain_height.store(height, Ordering::Relaxed);
    }

    /// A colliding transaction id was rejected (first write wins).
    pub fn note_duplicate_txid(&self) {
        self.duplicate_txids.fetch_add(1, Ordering::Relaxed);
    }

    /// Moves the recovery phase gauge (see [`recovery_phase`]) and drops
    /// a flight-recorder breadcrumb so an incident dump shows how far
    /// recovery progressed before things went wrong.
    pub fn set_recovery_phase(&self, phase: u64, detail: u64) {
        self.recovery_phase.store(phase, Ordering::Relaxed);
        tdt_obs::flight::record(tdt_obs::FlightKind::Recovery, phase as u16, detail, 0);
    }

    /// Updates the blocks-scanned progress gauge for the running
    /// recovery pass.
    pub fn set_recovery_blocks_scanned(&self, blocks: u64) {
        self.recovery_blocks_scanned
            .store(blocks, Ordering::Relaxed);
    }

    /// Total durable WAL appends.
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    /// Current WAL file length in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    /// Total WAL tail truncation events.
    pub fn wal_truncations(&self) -> u64 {
        self.wal_truncations.load(Ordering::Relaxed)
    }

    /// Total bytes cut off WAL tails.
    pub fn wal_truncated_bytes(&self) -> u64 {
        self.wal_truncated_bytes.load(Ordering::Relaxed)
    }

    /// Total snapshots written.
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written.load(Ordering::Relaxed)
    }

    /// Total snapshot write failures.
    pub fn snapshot_failures(&self) -> u64 {
        self.snapshot_failures.load(Ordering::Relaxed)
    }

    /// Total snapshot files rejected during recovery.
    pub fn snapshot_fallbacks(&self) -> u64 {
        self.snapshot_fallbacks.load(Ordering::Relaxed)
    }

    /// Height of the newest snapshot on disk (0 when none).
    pub fn last_snapshot_height(&self) -> u64 {
        self.last_snapshot_height.load(Ordering::Relaxed)
    }

    /// Committed chain height.
    pub fn chain_height(&self) -> u64 {
        self.chain_height.load(Ordering::Relaxed)
    }

    /// Total recovery passes run.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Blocks replayed over the snapshot in the last recovery.
    pub fn replayed_blocks(&self) -> u64 {
        self.replayed_blocks.load(Ordering::Relaxed)
    }

    /// Duration of the last recovery pass in nanoseconds.
    pub fn last_recovery_ns(&self) -> u64 {
        self.last_recovery_ns.load(Ordering::Relaxed)
    }

    /// Total duplicate transaction ids rejected.
    pub fn duplicate_txids(&self) -> u64 {
        self.duplicate_txids.load(Ordering::Relaxed)
    }

    /// Current recovery phase (see [`recovery_phase`]; 0 = not running).
    pub fn recovery_phase(&self) -> u64 {
        self.recovery_phase.load(Ordering::Relaxed)
    }

    /// Blocks scanned by the running (or last) recovery pass.
    pub fn recovery_blocks_scanned(&self) -> u64 {
        self.recovery_blocks_scanned.load(Ordering::Relaxed)
    }
}

/// The pluggable persistence seam behind a peer's ledger.
///
/// The backend owns durability, not validation: callers hand it blocks
/// that already passed chain/Merkle checks, and it guarantees that an
/// `Ok` from [`StorageBackend::append_block`] survives any crash.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Recovers whatever the backend holds; called once at open, before
    /// any append. Returns the verified chain prefix — as a
    /// [`BlockStore`], which only admits verified blocks — plus the
    /// newest usable snapshot.
    ///
    /// # Errors
    ///
    /// Only environmental failures (I/O, injected crash). Corruption is
    /// *not* an error — it shrinks the recovered prefix.
    fn load(&mut self) -> Result<Recovered, StorageError>;

    /// Durably appends one committed block (WAL write + fsync). When
    /// this returns `Ok`, the block is never lost.
    ///
    /// # Errors
    ///
    /// Any failure fail-stops the backend ([`StorageError::Poisoned`]
    /// thereafter) — the WAL tail is suspect until recovery truncates it.
    fn append_block(&mut self, block: &Block) -> Result<(), StorageError>;

    /// True when the caller should capture and write a snapshot after
    /// committing at `height`.
    fn snapshot_due(&self, height: u64) -> bool;

    /// Persists a snapshot. Best-effort: failure never loses blocks,
    /// only replay time, so callers may log-and-continue (unless the
    /// error [`StorageError::is_crash`]).
    ///
    /// # Errors
    ///
    /// Underlying VFS failures; the WAL is unaffected.
    fn write_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), StorageError>;

    /// The shared stats bag (cloned into metric sources).
    fn stats(&self) -> Arc<StorageStats>;
}

/// The pre-durability behaviour behind the same seam: everything lives
/// in the peer's memory, nothing survives a restart. Useful for tests,
/// demos, and as the zero-cost default.
#[derive(Debug, Default)]
pub struct InMemoryBackend {
    stats: Arc<StorageStats>,
}

impl InMemoryBackend {
    /// A fresh volatile backend.
    pub fn new() -> InMemoryBackend {
        InMemoryBackend::default()
    }
}

impl StorageBackend for InMemoryBackend {
    fn load(&mut self) -> Result<Recovered, StorageError> {
        Ok(Recovered::default())
    }

    fn append_block(&mut self, block: &Block) -> Result<(), StorageError> {
        self.stats.set_chain_height(block.header.number + 1);
        Ok(())
    }

    fn snapshot_due(&self, _height: u64) -> bool {
        false
    }

    fn write_snapshot(&mut self, _snapshot: &Snapshot) -> Result<(), StorageError> {
        Ok(())
    }

    fn stats(&self) -> Arc<StorageStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_backend_recovers_nothing() {
        let mut backend = InMemoryBackend::new();
        let recovered = backend.load().unwrap();
        assert_eq!(recovered.chain.height(), 0);
        assert!(recovered.snapshot.is_none());
        let block = Block::genesis(vec![b"cfg".to_vec()]);
        backend.append_block(&block).unwrap();
        assert_eq!(backend.stats().chain_height(), 1);
        assert!(!backend.snapshot_due(1));
    }

    #[test]
    fn storage_error_display_and_crash_detection() {
        let crash = StorageError::Vfs(VfsError::Crashed {
            op: "append".into(),
            path: "wal.log".into(),
        });
        assert!(crash.is_crash());
        assert!(!StorageError::Poisoned.is_crash());
        for e in [
            crash,
            StorageError::Poisoned,
            StorageError::NotNextBlock {
                expected: 3,
                got: 7,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn stats_getters_reflect_notes() {
        let stats = StorageStats::new();
        stats.note_wal_append(100);
        stats.note_wal_append(220);
        stats.note_wal_truncation(16);
        stats.note_snapshot_written(64);
        stats.note_snapshot_failure();
        stats.note_snapshot_fallback();
        stats.note_duplicate_txid();
        stats.set_chain_height(65);
        assert_eq!(stats.wal_appends(), 2);
        assert_eq!(stats.wal_bytes(), 220);
        assert_eq!(stats.wal_truncations(), 1);
        assert_eq!(stats.wal_truncated_bytes(), 16);
        assert_eq!(stats.snapshots_written(), 1);
        assert_eq!(stats.snapshot_failures(), 1);
        assert_eq!(stats.snapshot_fallbacks(), 1);
        assert_eq!(stats.last_snapshot_height(), 64);
        assert_eq!(stats.chain_height(), 65);
        assert_eq!(stats.duplicate_txids(), 1);
    }
}
