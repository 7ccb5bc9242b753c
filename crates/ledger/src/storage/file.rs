//! The file-backed [`StorageBackend`]: append-only WAL + periodic
//! snapshots + crash recovery, all over the [`Vfs`] seam.
//!
//! # Files
//!
//! ```text
//! wal.log                 CRC-framed block records (wal.rs)
//! snap-<height-20d>.snap  "TDTSNAP1" + payload + crc32(payload)
//! snap-<height-20d>.tmp   in-flight snapshot (removed by recovery)
//! ```
//!
//! # Recovery algorithm
//!
//! Every byte is read once and every hash is computed once.
//!
//! 1. Read the WAL and the newest snapshot candidate (all I/O stays on
//!    the calling thread, in a fixed order). One pass then verifies both
//!    at once: the WAL's frames in contiguous chunks on worker threads —
//!    CRC, block decode, Merkle root — while the calling thread
//!    CRC-checks, decodes and `state_hash`-verifies the snapshot.
//! 2. Link the verified blocks in file order (numbers, header hashes);
//!    trust ends at the first frame that failed step 1 or does not link.
//! 3. Physically truncate the WAL to the trusted region.
//! 4. Walk snapshots newest-first; the first one that parses, passes its
//!    CRC, recomputes to its recorded `state_hash`, and is not ahead of
//!    the truncated chain wins (normally the one step 1 already
//!    verified). Everything else is a counted fallback, and a snapshot
//!    ahead of the truncated chain is deleted.
//! 5. Hand the caller the chain as a [`BlockStore`](crate::store) — which
//!    it adopts without another look — plus the snapshot; the caller
//!    replays blocks past the snapshot height to rebuild derived state.
//!
//! # Fail-stop contract
//!
//! Any failed append poisons the backend: the WAL tail is in an unknown
//! state, and appending after garbage would strand durable blocks behind
//! an undecodable frame. Reopening (a fresh backend + [`FileBackend::load`])
//! truncates the bad tail and resumes — the same discipline a real peer
//! applies by restarting after an fsync error (the fsyncgate lesson).

use super::codec;
use super::vfs::{Vfs, VfsError};
use super::wal::{self, TailReason, Wal, WAL_MAGIC};
use super::{
    recovery_phase, Recovered, RecoveryReport, Snapshot, StorageBackend, StorageError, StorageStats,
};
use crate::block::{Block, BlockHeader};
use std::sync::Arc;
use std::time::Instant;
use tdt_obs::span::{self as obs_span, RecordErr};
use tdt_obs::{Span, TraceContext};

/// The WAL file name inside the backend's directory/namespace.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file prefix.
pub const SNAP_PREFIX: &str = "snap-";
/// Snapshot file suffix.
pub const SNAP_SUFFIX: &str = ".snap";
/// In-flight snapshot suffix (atomically renamed to `.snap`).
pub const SNAP_TMP_SUFFIX: &str = ".tmp";
/// Snapshot file magic + version.
pub const SNAP_MAGIC: &[u8; 8] = b"TDTSNAP1";

/// Tuning knobs for the file backend.
#[derive(Debug, Clone)]
pub struct FileConfig {
    /// Write a snapshot every N blocks (0 disables snapshots).
    pub snapshot_interval: u64,
    /// How many verified snapshots to keep on disk.
    pub keep_snapshots: usize,
}

impl Default for FileConfig {
    fn default() -> Self {
        FileConfig {
            snapshot_interval: 64,
            keep_snapshots: 2,
        }
    }
}

fn snap_name(height: u64) -> String {
    // Zero-padded so lexical order == numeric order for Vfs::list.
    format!("{SNAP_PREFIX}{height:020}{SNAP_SUFFIX}")
}

fn snap_height(name: &str) -> Option<u64> {
    name.strip_prefix(SNAP_PREFIX)?
        .strip_suffix(SNAP_SUFFIX)?
        .parse()
        .ok()
}

/// Fully verifies the bytes of one snapshot file; any defect is an `Err`
/// so the caller can fall back to an older snapshot.
fn verify_snapshot(bytes: &[u8]) -> Result<Snapshot, String> {
    if !bytes.starts_with(SNAP_MAGIC) {
        return Err("bad snapshot magic".to_string());
    }
    if bytes.len() < SNAP_MAGIC.len() + 4 {
        return Err("snapshot too short".to_string());
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let payload = body.get(SNAP_MAGIC.len()..).unwrap_or(&[]);
    if codec::crc32(payload) != codec::be_fold(crc_bytes) as u32 {
        return Err("snapshot crc mismatch".to_string());
    }
    let decoded = codec::decode_snapshot_payload(payload).map_err(|e| e.to_string())?;
    if decoded.state.state_hash() != decoded.state_hash {
        return Err("snapshot state hash mismatch".to_string());
    }
    Ok(Snapshot {
        height: decoded.height,
        state_hash: decoded.state_hash,
        state: decoded.state,
        history: decoded.history,
    })
}

fn read_snapshot(vfs: &dyn Vfs, name: &str) -> Result<Snapshot, String> {
    let bytes = vfs.read(name).map_err(|e| e.to_string())?;
    verify_snapshot(&bytes)
}

/// The durable file backend. One instance owns one VFS namespace; drop
/// it and reopen (with [`FileBackend::load`]) to run recovery.
#[derive(Debug)]
pub struct FileBackend {
    vfs: Arc<dyn Vfs>,
    config: FileConfig,
    stats: Arc<StorageStats>,
    /// Next block number the WAL expects (== recovered chain height).
    expected_next: u64,
    /// Hash of the chain tip (zeroes before genesis).
    prev_hash: [u8; 32],
    /// Current WAL length, maintained incrementally after load.
    wal_bytes: u64,
    /// Set by any failed append; cleared only by reopening.
    poisoned: bool,
    loaded: bool,
}

impl FileBackend {
    /// A backend over `vfs` with `config`. Call
    /// [`StorageBackend::load`] before appending.
    pub fn new(vfs: Arc<dyn Vfs>, config: FileConfig) -> FileBackend {
        FileBackend {
            vfs,
            config,
            stats: Arc::new(StorageStats::new()),
            expected_next: 0,
            prev_hash: [0u8; 32],
            wal_bytes: 0,
            poisoned: false,
            loaded: false,
        }
    }

    /// Picks the newest usable snapshot among `names` (ascending) for a
    /// chain of `chain_height` blocks, counting every rejected candidate
    /// as a fallback. `speculated` is the candidate the scan pass already
    /// read and verified; any other is read and verified here.
    fn load_snapshot(
        &self,
        names: &[String],
        chain_height: u64,
        mut speculated: Option<(&str, Result<Snapshot, String>)>,
        fallbacks: &mut u64,
    ) -> Option<Snapshot> {
        for name in names.iter().rev() {
            if name.ends_with(SNAP_TMP_SUFFIX) {
                // An in-flight snapshot that never got renamed: garbage.
                let _ = self.vfs.remove(name);
                continue;
            }
            let Some(height) = snap_height(name) else {
                *fallbacks += 1;
                continue;
            };
            if height > chain_height {
                // The WAL was truncated below this snapshot; replay
                // cannot reach it, so it is unusable — and it describes a
                // chain that no longer exists. Left on disk it would
                // outrank every snapshot the regrown chain writes below
                // its height in `gc_snapshots`, and pass for that chain's
                // own once the chain grows past it.
                *fallbacks += 1;
                let _ = self.vfs.remove(name);
                continue;
            }
            let verified = match speculated.take_if(|(speculated, _)| *speculated == name) {
                Some((_, verified)) => verified,
                None => read_snapshot(&*self.vfs, name),
            };
            match verified {
                Ok(snapshot) if snapshot.height == height => return Some(snapshot),
                _ => *fallbacks += 1,
            }
        }
        None
    }

    /// Deletes all but the newest `keep_snapshots` snapshot files
    /// (best-effort; GC failure never fails a commit).
    fn gc_snapshots(&self) {
        let Ok(names) = self.vfs.list(SNAP_PREFIX) else {
            return;
        };
        let snaps: Vec<&String> = names.iter().filter(|n| n.ends_with(SNAP_SUFFIX)).collect();
        let keep = self.config.keep_snapshots.max(1);
        let excess = snaps.len().saturating_sub(keep);
        for name in snaps.iter().take(excess) {
            let _ = self.vfs.remove(name);
        }
    }
}

impl FileBackend {
    /// [`StorageBackend::load`] with the WAL verified on `workers` threads
    /// (`None`: as many as the file is worth, [`tdt_obs::par::workers_for`]).
    /// What is recovered does not depend on the count — the differential
    /// tests hold it to that — so it is not a configuration knob.
    fn recover(&mut self, workers: Option<usize>) -> Result<Recovered, StorageError> {
        let start = Instant::now();
        // Recovery runs at process startup, before any trace exists:
        // mint a root context so its per-phase spans actually record
        // (they are the only forensic trail for a recovery that hangs
        // or truncates data). No-op when the caller already has one.
        let _trace_guard = match TraceContext::current() {
            Some(_) => tdt_obs::ContextGuard::noop(),
            None => TraceContext::root().install(),
        };
        let (mut load_span, _load_guard) = obs_span::enter("recovery.load");
        let load_context = TraceContext::current();
        let wal = Wal::new(&*self.vfs, WAL_FILE);

        self.stats
            .set_recovery_phase(recovery_phase::SCAN, wal.file_len());
        // The snapshot span opens with the scan, because that is when
        // snapshot work starts, and closes once a snapshot is chosen.
        let mut snapshot_span = match load_context {
            Some(context) => Span::start("recovery.snapshot", &context.child()),
            None => Span::inert(),
        };
        let names = self.vfs.list(SNAP_PREFIX).unwrap_or_default();
        let (frames, speculated) = {
            tdt_obs::profile_scope!("recovery.scan");
            let (mut span, _guard) = obs_span::enter("recovery.scan");
            let bytes = match wal.read().record_err(&mut span) {
                Ok(bytes) => bytes.unwrap_or_default(),
                Err(e) => {
                    self.stats.set_recovery_phase(recovery_phase::IDLE, 0);
                    load_span.fail();
                    return Err(e.into());
                }
            };
            // The newest snapshot the chain could reach, read now so that
            // it is verified while the workers verify the WAL. Whether it
            // is usable is decided in file order below, like any other.
            let candidate = names
                .iter()
                .rev()
                .find(|name| snap_height(name).is_some())
                .map(|name| (name.as_str(), self.vfs.read(name)));
            wal::verify_frames(&bytes, workers, || {
                candidate.map(|(name, read)| {
                    let verified = read
                        .map_err(|e| e.to_string())
                        .and_then(|bytes| verify_snapshot(&bytes));
                    (name, verified)
                })
            })
        };
        let decoded = frames.decoded();
        self.stats.set_recovery_blocks_scanned(decoded);

        // Frames can be CRC-clean yet chain-broken (a writer bug or a
        // surgically flipped bit that CRC32 happens to collide on): the
        // Merkle/link verification is the final authority.
        self.stats
            .set_recovery_phase(recovery_phase::VERIFY, decoded);
        let wal::WalScan {
            chain,
            valid_len,
            file_len,
            tail,
        } = {
            let (mut span, _guard) = obs_span::enter("recovery.verify");
            let scan = frames.link();
            if let Some(TailReason::ChainBroken(_)) = &scan.tail {
                span.fail();
            }
            scan
        };
        let tail_reason = tail.map(|t| t.to_string());

        let truncated = file_len.saturating_sub(valid_len);
        // A file with no trusted header — zero-length included, which scans
        // as "nothing to cut" — must be given one here: `Wal::append_block`
        // writes the header only when it creates the file, and frames
        // appended to a headerless file are trusted by no later recovery.
        let headerless = valid_len < WAL_MAGIC.len() as u64 && self.vfs.exists(WAL_FILE);
        if truncated > 0 || tail_reason.is_some() || headerless {
            self.stats
                .set_recovery_phase(recovery_phase::TRUNCATE, truncated);
            let (mut span, _guard) = obs_span::enter("recovery.truncate");
            if let Err(e) = wal.truncate_to(valid_len).record_err(&mut span) {
                self.stats.set_recovery_phase(recovery_phase::IDLE, 0);
                load_span.fail();
                return Err(e.into());
            }
            self.stats.note_wal_truncation(truncated);
        }

        let chain_height = chain.height();
        self.stats
            .set_recovery_phase(recovery_phase::SNAPSHOT, chain_height);
        let mut fallbacks = 0u64;
        let snapshot = self.load_snapshot(&names, chain_height, speculated, &mut fallbacks);
        if snapshot.is_none() && fallbacks > 0 {
            snapshot_span.fail();
        }
        drop(snapshot_span);
        for _ in 0..fallbacks {
            self.stats.note_snapshot_fallback();
        }
        let snapshot_height = snapshot.as_ref().map(|s| s.height);

        self.expected_next = chain_height;
        self.prev_hash = chain.tip().map_or([0u8; 32], BlockHeader::hash);
        // A repaired all-garbage file is recreated as a bare header.
        self.wal_bytes = if headerless {
            WAL_MAGIC.len() as u64
        } else {
            valid_len
        };
        self.poisoned = false;
        self.loaded = true;

        let report = RecoveryReport {
            chain_height,
            wal_bytes: self.wal_bytes,
            truncated_bytes: truncated,
            tail: tail_reason,
            snapshot_height,
            snapshot_fallbacks: fallbacks,
            replayed_blocks: chain_height - snapshot_height.unwrap_or(0),
            duration_ns: start.elapsed().as_nanos() as u64,
        };
        self.stats.note_recovery(&report);
        // Replay of blocks past the snapshot is the *caller's* phase
        // (see `tdt_fabric::Peer::with_backend`); storage-level recovery
        // is done here.
        self.stats
            .set_recovery_phase(recovery_phase::IDLE, chain_height);
        Ok(Recovered {
            chain,
            snapshot,
            report,
        })
    }
}

impl StorageBackend for FileBackend {
    fn load(&mut self) -> Result<Recovered, StorageError> {
        self.recover(None)
    }

    fn append_block(&mut self, block: &Block) -> Result<(), StorageError> {
        if self.poisoned || !self.loaded {
            return Err(StorageError::Poisoned);
        }
        if block.header.number != self.expected_next || block.header.prev_hash != self.prev_hash {
            return Err(StorageError::NotNextBlock {
                expected: self.expected_next,
                got: block.header.number,
            });
        }
        tdt_obs::profile_scope!("wal.append");
        match Wal::new(&*self.vfs, WAL_FILE).append_block(block) {
            Ok(frame_len) => {
                if self.wal_bytes == 0 {
                    self.wal_bytes = WAL_MAGIC.len() as u64;
                }
                self.wal_bytes += frame_len;
                self.expected_next += 1;
                self.prev_hash = block.hash();
                self.stats.note_wal_append(self.wal_bytes);
                self.stats.set_chain_height(self.expected_next);
                tdt_obs::flight::record(
                    tdt_obs::FlightKind::WalAppend,
                    0,
                    block.header.number,
                    frame_len,
                );
                Ok(())
            }
            Err(e) => {
                // The WAL tail is now suspect (possibly a torn frame):
                // fail stop until a reopen truncates it.
                self.poisoned = true;
                Err(StorageError::Vfs(e))
            }
        }
    }

    fn snapshot_due(&self, height: u64) -> bool {
        !self.poisoned
            && self.config.snapshot_interval > 0
            && height > 0
            && height.is_multiple_of(self.config.snapshot_interval)
    }

    fn write_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), StorageError> {
        if self.poisoned || !self.loaded {
            return Err(StorageError::Poisoned);
        }
        let payload = codec::encode_snapshot_payload(
            snapshot.height,
            &snapshot.state_hash,
            &snapshot.state,
            &snapshot.history,
        );
        let mut bytes = SNAP_MAGIC.to_vec();
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&codec::crc32(&payload).to_be_bytes());
        let tmp = format!("{SNAP_PREFIX}{:020}{SNAP_TMP_SUFFIX}", snapshot.height);
        let result = self
            .vfs
            .create(&tmp, &bytes)
            .and_then(|()| self.vfs.sync(&tmp))
            .and_then(|()| self.vfs.rename(&tmp, &snap_name(snapshot.height)));
        match result {
            Ok(()) => {
                self.stats.note_snapshot_written(snapshot.height);
                self.gc_snapshots();
                Ok(())
            }
            Err(e) => {
                self.stats.note_snapshot_failure();
                if matches!(e, VfsError::Crashed { .. }) {
                    // The process is "dead"; the next append will fail
                    // anyway, but poisoning makes the state explicit.
                    self.poisoned = true;
                } else {
                    // A lost fsync during the snapshot may have dropped
                    // the whole page cache; WAL appends are fsynced per
                    // record, so committed blocks are safe — but the
                    // half-written temp file is garbage.
                    let _ = self.vfs.remove(&tmp);
                }
                Err(StorageError::Vfs(e))
            }
        }
    }

    fn stats(&self) -> Arc<StorageStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::vfs::MemVfs;
    use super::*;
    use crate::block::Block;
    use crate::history::HistoryIndex;
    use crate::rwset::{TxRwSet, Version};
    use crate::state::WorldState;
    use crate::storage::wal::Wal;

    fn chain(n: usize) -> Vec<Block> {
        let mut blocks = vec![Block::genesis(vec![b"cfg".to_vec()])];
        for i in 1..n {
            let prev = blocks[i - 1].header.clone();
            blocks.push(Block::next(&prev, vec![format!("tx-{i}").into_bytes()]));
        }
        blocks
    }

    fn open(vfs: &Arc<MemVfs>) -> (FileBackend, Recovered) {
        let mut backend = FileBackend::new(
            Arc::clone(vfs) as Arc<dyn Vfs>,
            FileConfig {
                snapshot_interval: 4,
                keep_snapshots: 2,
            },
        );
        let recovered = backend.load().unwrap();
        (backend, recovered)
    }

    #[test]
    fn append_reopen_recovers_everything() {
        let vfs = Arc::new(MemVfs::new());
        let blocks = chain(6);
        {
            let (mut backend, recovered) = open(&vfs);
            assert_eq!(recovered.report.chain_height, 0);
            for b in &blocks {
                backend.append_block(b).unwrap();
            }
        }
        let (_backend, recovered) = open(&vfs);
        assert_eq!(recovered.chain.blocks(), blocks);
        assert_eq!(recovered.report.chain_height, 6);
        assert_eq!(recovered.report.truncated_bytes, 0);
    }

    #[test]
    fn zero_length_wal_gets_its_header_back_before_the_first_append() {
        // What a crash between creating the file and writing its header
        // leaves behind. Frames appended after it must survive a reopen.
        let vfs = Arc::new(MemVfs::new());
        vfs.create(WAL_FILE, b"").unwrap();
        vfs.sync(WAL_FILE).unwrap();
        let blocks = chain(3);
        {
            let (mut backend, recovered) = open(&vfs);
            assert_eq!(recovered.report.chain_height, 0);
            assert_eq!(recovered.report.wal_bytes, vfs.len(WAL_FILE).unwrap());
            for b in &blocks {
                backend.append_block(b).unwrap();
            }
        }
        let (_backend, recovered) = open(&vfs);
        assert_eq!(recovered.chain.blocks(), blocks);
        assert_eq!(recovered.report.tail, None);
    }

    #[test]
    fn unsynced_suffix_lost_on_crash_but_prefix_survives() {
        let vfs = Arc::new(MemVfs::new());
        let blocks = chain(4);
        let (mut backend, _) = open(&vfs);
        for b in &blocks {
            backend.append_block(b).unwrap();
        }
        // Torn garbage after the last record, never synced.
        vfs.append(WAL_FILE, b"half-a-frame").unwrap();
        vfs.crash();
        let (_backend, recovered) = open(&vfs);
        assert_eq!(recovered.chain.blocks(), blocks);
    }

    #[test]
    fn append_requires_chain_extension() {
        let vfs = Arc::new(MemVfs::new());
        let blocks = chain(3);
        let (mut backend, _) = open(&vfs);
        backend.append_block(&blocks[0]).unwrap();
        // Skipping block 1 is rejected.
        assert!(matches!(
            backend.append_block(&blocks[2]),
            Err(StorageError::NotNextBlock {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn snapshot_roundtrip_and_gc() {
        let vfs = Arc::new(MemVfs::new());
        let (mut backend, _) = open(&vfs);
        let blocks = chain(9);
        let mut state = WorldState::new();
        let history = HistoryIndex::new();
        for (i, b) in blocks.iter().enumerate() {
            backend.append_block(b).unwrap();
            let mut rw = TxRwSet::new();
            rw.record_write("cc", &format!("k{i}"), Some(vec![i as u8]));
            state.apply(&rw, Version::new(i as u64, 0));
            let height = i as u64 + 1;
            if backend.snapshot_due(height) {
                backend
                    .write_snapshot(&Snapshot::capture(height, &state, &history))
                    .unwrap();
            }
        }
        // interval=4, 9 blocks -> snapshots at 4 and 8; keep=2 keeps both.
        let snaps = vfs.list(SNAP_PREFIX).unwrap();
        assert_eq!(snaps, vec![snap_name(4), snap_name(8)]);
        let (_backend, recovered) = open(&vfs);
        assert_eq!(recovered.report.snapshot_height, Some(8));
        assert_eq!(recovered.report.replayed_blocks, 1);
        let snap = recovered.snapshot.unwrap();
        assert_eq!(snap.state.state_hash(), snap.state_hash);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_previous() {
        let vfs = Arc::new(MemVfs::new());
        let (mut backend, _) = open(&vfs);
        let blocks = chain(9);
        let state = WorldState::new();
        let history = HistoryIndex::new();
        for (i, b) in blocks.iter().enumerate() {
            backend.append_block(b).unwrap();
            let height = i as u64 + 1;
            if backend.snapshot_due(height) {
                backend
                    .write_snapshot(&Snapshot::capture(height, &state, &history))
                    .unwrap();
            }
        }
        // Rot a byte in the newest snapshot's payload.
        vfs.corrupt(&snap_name(8), SNAP_MAGIC.len() + 3, 0xff)
            .unwrap();
        let (_backend, recovered) = open(&vfs);
        assert_eq!(recovered.report.snapshot_height, Some(4));
        assert!(recovered.report.snapshot_fallbacks >= 1);
        // Losing every snapshot still loses no blocks.
        vfs.corrupt(&snap_name(4), SNAP_MAGIC.len() + 3, 0xff)
            .unwrap();
        let (_backend, recovered) = open(&vfs);
        assert_eq!(recovered.report.snapshot_height, None);
        assert_eq!(recovered.chain.blocks().len(), 9);
    }

    /// Regression: a snapshot left ahead of a cut WAL used to stay on disk,
    /// where `gc_snapshots` (newest names win) kept it over every snapshot
    /// the regrown chain wrote below it, so each later recovery replayed
    /// from genesis.
    #[test]
    fn snapshots_ahead_of_a_cut_wal_are_deleted_and_do_not_crowd_out_new_ones() {
        let vfs = Arc::new(MemVfs::new());
        let blocks = chain(13);
        let state = WorldState::new();
        let history = HistoryIndex::new();
        let commit = |backend: &mut FileBackend, blocks: &[Block]| {
            for b in blocks {
                backend.append_block(b).unwrap();
                let height = b.header.number + 1;
                if backend.snapshot_due(height) {
                    backend
                        .write_snapshot(&Snapshot::capture(height, &state, &history))
                        .unwrap();
                }
            }
        };
        let (mut backend, _) = open(&vfs);
        commit(&mut backend, &blocks);
        assert_eq!(
            vfs.list(SNAP_PREFIX).unwrap(),
            vec![snap_name(8), snap_name(12)]
        );
        // Cut the WAL to two blocks: both snapshots are now ahead of it.
        let kept: usize = blocks[..2]
            .iter()
            .map(|b| Wal::encode_frame(&codec::encode_block(b)).len())
            .sum();
        vfs.truncate(WAL_FILE, (WAL_MAGIC.len() + kept) as u64)
            .unwrap();
        let (mut backend, recovered) = open(&vfs);
        assert_eq!(recovered.report.chain_height, 2);
        assert_eq!(recovered.report.snapshot_height, None);
        assert_eq!(recovered.report.snapshot_fallbacks, 2);
        assert!(vfs.list(SNAP_PREFIX).unwrap().is_empty());
        // Regrow past the next snapshot interval, but not up to the
        // deleted snapshots' heights.
        commit(&mut backend, &blocks[2..6]);
        let (_backend, recovered) = open(&vfs);
        assert_eq!(recovered.report.chain_height, 6);
        assert_eq!(recovered.report.snapshot_height, Some(4));
        assert_eq!(recovered.report.replayed_blocks, 2);
        assert_eq!(recovered.report.snapshot_fallbacks, 0);
    }

    #[test]
    fn chain_violation_inside_crc_clean_wal_is_cut() {
        let vfs = Arc::new(MemVfs::new());
        let (mut backend, _) = open(&vfs);
        for b in chain(3) {
            backend.append_block(&b).unwrap();
        }
        // Hand-append a CRC-valid frame whose block doesn't link.
        let rogue = Block::genesis(vec![b"rogue".to_vec()]);
        let frame = Wal::encode_frame(&codec::encode_block(&rogue));
        vfs.append(WAL_FILE, &frame).unwrap();
        vfs.sync(WAL_FILE).unwrap();
        let (_backend, recovered) = open(&vfs);
        assert_eq!(recovered.chain.blocks().len(), 3);
        assert!(recovered
            .report
            .tail
            .as_deref()
            .is_some_and(|t| t.contains("chain verification")));
        // The rogue frame was physically truncated.
        let (_backend, again) = open(&vfs);
        assert_eq!(again.report.truncated_bytes, 0);
    }

    #[test]
    fn poisoned_after_failed_append_until_reopen() {
        let vfs = Arc::new(MemVfs::new());
        let (mut backend, _) = open(&vfs);
        backend.append_block(&chain(1)[0]).unwrap();
        backend.poisoned = true;
        assert!(matches!(
            backend.append_block(&chain(2)[1]),
            Err(StorageError::Poisoned)
        ));
        let (mut backend, recovered) = open(&vfs);
        assert_eq!(recovered.chain.blocks().len(), 1);
        backend.append_block(&chain(2)[1]).unwrap();
    }

    #[test]
    fn append_before_load_is_rejected() {
        let vfs = Arc::new(MemVfs::new());
        let mut backend = FileBackend::new(Arc::clone(&vfs) as Arc<dyn Vfs>, FileConfig::default());
        assert!(matches!(
            backend.append_block(&chain(1)[0]),
            Err(StorageError::Poisoned)
        ));
    }

    #[test]
    fn leftover_tmp_snapshot_is_cleaned_up() {
        let vfs = Arc::new(MemVfs::new());
        vfs.create("snap-00000000000000000004.tmp", b"partial")
            .unwrap();
        let (_backend, recovered) = open(&vfs);
        assert_eq!(recovered.report.snapshot_height, None);
        assert!(!vfs.exists("snap-00000000000000000004.tmp"));
    }

    #[test]
    fn multi_worker_recovery_leaves_one_span_per_phase_and_truthful_gauges() {
        let vfs = Arc::new(MemVfs::new());
        let (mut backend, _) = open(&vfs);
        let mut state = WorldState::new();
        let history = HistoryIndex::new();
        for (i, b) in chain(9).iter().enumerate() {
            backend.append_block(b).unwrap();
            let mut rw = TxRwSet::new();
            rw.record_write("cc", "k", Some(vec![i as u8]));
            state.apply(&rw, Version::new(i as u64, 0));
            if backend.snapshot_due(i as u64 + 1) {
                backend
                    .write_snapshot(&Snapshot::capture(i as u64 + 1, &state, &history))
                    .unwrap();
            }
        }
        // Rot in the last frame: every phase, truncation included, runs.
        let wal_len = vfs.len(WAL_FILE).unwrap();
        vfs.corrupt(WAL_FILE, wal_len as usize - 1, 0x80).unwrap();

        let root = TraceContext::root();
        let _guard = root.install();
        let first_seq = tdt_obs::flight::snapshot().last().map_or(0, |r| r.seq + 1);
        let mut backend = FileBackend::new(Arc::clone(&vfs) as Arc<dyn Vfs>, FileConfig::default());
        let recovered = backend.recover(Some(3)).unwrap();
        assert_eq!(recovered.report.chain_height, 8);
        assert_eq!(recovered.report.snapshot_height, Some(8));

        let spans = tdt_obs::span::spans_for_trace(root.trace_hi, root.trace_lo);
        let named = |name: &str| -> Vec<&tdt_obs::SpanRecord> {
            spans.iter().filter(|s| s.name == name).collect()
        };
        let load = named("recovery.load");
        assert_eq!(load.len(), 1);
        assert_eq!(load[0].parent_span_id, root.span_id);
        for phase in [
            "recovery.scan",
            "recovery.verify",
            "recovery.truncate",
            "recovery.snapshot",
        ] {
            let of_phase = named(phase);
            assert_eq!(of_phase.len(), 1, "{phase}");
            assert_eq!(of_phase[0].parent_span_id, load[0].span_id, "{phase}");
            assert!(!of_phase[0].is_error(), "{phase}");
            assert!(of_phase[0].start_nanos >= load[0].start_nanos);
            assert!(of_phase[0].end_nanos <= load[0].end_nanos);
        }
        // Snapshot verification starts with the scan, not after it.
        let (scan, snapshot) = (named("recovery.scan")[0], named("recovery.snapshot")[0]);
        assert!(snapshot.start_nanos <= scan.start_nanos);
        assert!(snapshot.end_nanos >= scan.end_nanos);

        // The breadcrumb trail of this thread: each phase once, in order,
        // with the file length, the decoded blocks, the bytes cut and the
        // chain height as details.
        let me = tdt_obs::flight::thread_ordinal();
        let trail: Vec<(u64, u64)> = tdt_obs::flight::snapshot()
            .into_iter()
            .filter(|r| r.seq >= first_seq && r.thread == me)
            .filter(|r| r.kind == tdt_obs::FlightKind::Recovery as u8)
            .map(|r| (u64::from(r.code), r.a))
            .collect();
        let cut = wal_len - recovered.report.wal_bytes;
        assert_eq!(
            trail,
            vec![
                (recovery_phase::SCAN, wal_len),
                (recovery_phase::VERIFY, 8),
                (recovery_phase::TRUNCATE, cut),
                (recovery_phase::SNAPSHOT, 8),
                (recovery_phase::IDLE, 8),
            ]
        );
        let stats = backend.stats();
        assert_eq!(stats.recovery_phase(), recovery_phase::IDLE);
        assert_eq!(stats.recovery_blocks_scanned(), 8);
        assert_eq!(stats.recoveries(), 1);
        assert_eq!(stats.wal_truncations(), 1);
    }

    // -----------------------------------------------------------------
    // Differential: the verify-once pipeline against the serial recovery
    // it replaced.
    // -----------------------------------------------------------------

    mod differential {
        use super::*;
        use crate::storage::wal::oracle;
        use proptest::prelude::*;

        const CONFIG: FileConfig = FileConfig {
            snapshot_interval: 3,
            keep_snapshots: 2,
        };

        /// What one recovery left behind, in comparable form.
        #[derive(Debug, PartialEq)]
        struct Outcome {
            blocks: Vec<Block>,
            snapshot: Option<(u64, [u8; 32], Vec<u8>)>,
            report: RecoveryReport,
            disk: Vec<(String, Vec<u8>)>,
        }

        fn outcome(
            blocks: Vec<Block>,
            snapshot: Option<Snapshot>,
            mut report: RecoveryReport,
            vfs: &MemVfs,
        ) -> Outcome {
            report.duration_ns = 0;
            Outcome {
                blocks,
                snapshot: snapshot.map(|s| {
                    assert_eq!(s.state.state_hash(), s.state_hash);
                    let bytes = codec::encode_snapshot_payload(
                        s.height,
                        &s.state_hash,
                        &s.state,
                        &s.history,
                    );
                    (s.height, s.state_hash, bytes)
                }),
                report,
                disk: disk_image(vfs),
            }
        }

        fn disk_image(vfs: &MemVfs) -> Vec<(String, Vec<u8>)> {
            vfs.list("")
                .unwrap()
                .into_iter()
                .map(|path| {
                    let bytes = vfs.read(&path).unwrap();
                    (path, bytes)
                })
                .collect()
        }

        fn copy_of(vfs: &MemVfs) -> Arc<MemVfs> {
            disk_from(&disk_image(vfs))
        }

        fn disk_from(image: &[(String, Vec<u8>)]) -> Arc<MemVfs> {
            let copy = MemVfs::new();
            for (path, bytes) in image {
                copy.create(path, bytes).unwrap();
                copy.sync(path).unwrap();
            }
            Arc::new(copy)
        }

        /// `FileBackend::load` as it was before the pipeline — serial scan,
        /// a second pass for chain verification, truncation, then snapshots
        /// newest-first — minus stats and spans.
        fn serial_load(vfs: &MemVfs) -> Outcome {
            let oracle::SerialScan {
                mut blocks,
                offsets,
                mut valid_len,
                file_len,
                tail,
            } = oracle::scan(vfs, WAL_FILE).unwrap();
            let mut tail_reason = tail.map(|t| t.to_string());
            let keep = oracle::verified_prefix(&blocks);
            if keep < blocks.len() {
                tail_reason = Some(format!("chain verification failed at block {keep}"));
                blocks.truncate(keep);
                valid_len = match keep.checked_sub(1).and_then(|i| offsets.get(i)) {
                    Some(end) => *end,
                    None => WAL_MAGIC.len() as u64,
                };
            }
            let truncated = file_len.saturating_sub(valid_len);
            // The zero-length-file repair is newer than the serial load;
            // both sides need it to leave the same disk behind.
            let headerless = vfs.exists(WAL_FILE) && valid_len < WAL_MAGIC.len() as u64;
            if truncated > 0 || tail_reason.is_some() || headerless {
                Wal::new(vfs, WAL_FILE).truncate_to(valid_len).unwrap();
            }
            let chain_height = blocks.len() as u64;
            let mut fallbacks = 0u64;
            let mut snapshot = None;
            for name in vfs.list(SNAP_PREFIX).unwrap().iter().rev() {
                if name.ends_with(SNAP_TMP_SUFFIX) {
                    vfs.remove(name).unwrap();
                    continue;
                }
                let usable = snap_height(name).filter(|height| *height <= chain_height);
                if usable.is_none() && snap_height(name).is_some() {
                    vfs.remove(name).unwrap(); // ahead of the cut chain
                }
                match usable.map(|height| (height, read_snapshot(vfs, name))) {
                    Some((height, Ok(found))) if found.height == height => {
                        snapshot = Some(found);
                        break;
                    }
                    _ => fallbacks += 1,
                }
            }
            let wal_bytes = if valid_len >= WAL_MAGIC.len() as u64 {
                valid_len
            } else if vfs.exists(WAL_FILE) {
                WAL_MAGIC.len() as u64
            } else {
                0
            };
            let snapshot_height = snapshot.as_ref().map(|s| s.height);
            let report = RecoveryReport {
                chain_height,
                wal_bytes,
                truncated_bytes: truncated,
                tail: tail_reason,
                snapshot_height,
                snapshot_fallbacks: fallbacks,
                replayed_blocks: chain_height - snapshot_height.unwrap_or(0),
                duration_ns: 0,
            };
            outcome(blocks, snapshot, report, vfs)
        }

        fn pipeline_load(vfs: &Arc<MemVfs>, workers: usize) -> Outcome {
            let mut backend = FileBackend::new(Arc::clone(vfs) as Arc<dyn Vfs>, CONFIG);
            let recovered = backend.recover(Some(workers)).unwrap();
            outcome(
                recovered.chain.blocks().to_vec(),
                recovered.snapshot,
                recovered.report,
                vfs,
            )
        }

        /// Recovers copies of `disk` serially and through the pipeline on
        /// 1, 2 and 7 workers; everything observable must be equal.
        fn assert_matches_the_serial_recovery(disk: &MemVfs) -> Outcome {
            let expected = serial_load(&copy_of(disk));
            for workers in [1, 2, 7] {
                let got = pipeline_load(&copy_of(disk), workers);
                assert_eq!(got, expected, "{workers} workers");
            }
            expected
        }

        /// A chain of `txs.len()` blocks committed through a backend with
        /// snapshots every 3 blocks, block `i` writing key `k{i}`.
        fn committed_disk(txs: &[Vec<Vec<u8>>]) -> (Arc<MemVfs>, Vec<Block>) {
            let vfs = Arc::new(MemVfs::new());
            let mut backend = FileBackend::new(Arc::clone(&vfs) as Arc<dyn Vfs>, CONFIG);
            backend.load().unwrap();
            let mut state = WorldState::new();
            let mut history = HistoryIndex::new();
            let mut blocks: Vec<Block> = Vec::new();
            for (i, txs) in txs.iter().enumerate() {
                let block = match blocks.last() {
                    None => Block::genesis(txs.clone()),
                    Some(prev) => Block::next(&prev.header, txs.clone()),
                };
                backend.append_block(&block).unwrap();
                let mut rw = TxRwSet::new();
                rw.record_write("cc", &format!("k{i}"), Some(vec![i as u8; 5]));
                state.apply(&rw, Version::new(i as u64, 0));
                history.record(&rw, Version::new(i as u64, 0));
                let height = i as u64 + 1;
                if backend.snapshot_due(height) {
                    backend
                        .write_snapshot(&Snapshot::capture(height, &state, &history))
                        .unwrap();
                }
                blocks.push(block);
            }
            (vfs, blocks)
        }

        /// End offset of every frame of a clean WAL.
        fn frame_ends(blocks: &[Block]) -> Vec<u64> {
            let mut end = WAL_MAGIC.len() as u64;
            blocks
                .iter()
                .map(|b| {
                    end += Wal::encode_frame(&codec::encode_block(b)).len() as u64;
                    end
                })
                .collect()
        }

        /// Splices `frame` into the WAL at the frame boundary `at`.
        fn splice(vfs: &MemVfs, at: u64, frame: &[u8]) {
            let mut bytes = vfs.read(WAL_FILE).unwrap();
            let tail = bytes.split_off(at as usize);
            bytes.extend_from_slice(frame);
            bytes.extend_from_slice(&tail);
            vfs.create(WAL_FILE, &bytes).unwrap();
            vfs.sync(WAL_FILE).unwrap();
        }

        /// Damages `disk` the `kind`-th way, placed by `seed`.
        fn damage(disk: &MemVfs, blocks: &[Block], kind: usize, seed: u64, bit: u8) {
            let wal_len = disk.len(WAL_FILE).unwrap();
            let ends = frame_ends(blocks);
            let boundary = |seed: u64| match seed as usize % (ends.len() + 1) {
                0 => WAL_MAGIC.len() as u64,
                i => ends[i - 1],
            };
            match kind {
                // Truncation at an arbitrary offset (0 = the whole file).
                0 => disk.truncate(WAL_FILE, seed % (wal_len + 1)).unwrap(),
                // One flipped bit anywhere, header and length fields included.
                1 => disk
                    .corrupt(WAL_FILE, (seed % wal_len) as usize, 1 << bit)
                    .unwrap(),
                // A frame header claiming an absurd length, mid-file or last.
                2 => {
                    let mut frame = u32::MAX.to_be_bytes().to_vec();
                    frame.extend_from_slice(&[0u8; 4]);
                    splice(disk, boundary(seed), &frame);
                }
                // A CRC-clean frame whose block does not link, mid-file.
                3 => {
                    let rogue = Block::genesis(vec![seed.to_be_bytes().to_vec()]);
                    let frame = Wal::encode_frame(&codec::encode_block(&rogue));
                    splice(disk, boundary(seed), &frame);
                }
                // A CRC-clean frame in the right place whose payloads do
                // not hash to its Merkle root, the rest of the file intact.
                4 => {
                    let at = seed as usize % blocks.len();
                    let mut forged = blocks[at].clone();
                    forged.transactions.push(b"smuggled".to_vec());
                    let frame = Wal::encode_frame(&codec::encode_block(&forged));
                    let start = if at == 0 {
                        WAL_MAGIC.len() as u64
                    } else {
                        ends[at - 1]
                    };
                    let mut bytes = disk.read(WAL_FILE).unwrap();
                    bytes.splice(start as usize..ends[at] as usize, frame);
                    disk.create(WAL_FILE, &bytes).unwrap();
                    disk.sync(WAL_FILE).unwrap();
                }
                // A flipped bit in the newest snapshot: fallback path.
                5 => {
                    if let Some(newest) = disk.list(SNAP_PREFIX).unwrap().last() {
                        let len = disk.len(newest).unwrap();
                        disk.corrupt(newest, (seed % len) as usize, 1 << bit)
                            .unwrap();
                    }
                }
                // WAL cut below the newest snapshot and that snapshot's
                // predecessor rotten: one ahead, one corrupt.
                6 => {
                    disk.truncate(WAL_FILE, boundary(seed)).unwrap();
                    if let Some(oldest) = disk.list(SNAP_PREFIX).unwrap().first() {
                        disk.corrupt(oldest, SNAP_MAGIC.len() + 2, 1 << bit)
                            .unwrap();
                    }
                }
                // Two unrelated bit flips: the first in file order wins.
                7 => {
                    disk.corrupt(WAL_FILE, (seed % wal_len) as usize, 1 << bit)
                        .unwrap();
                    disk.corrupt(WAL_FILE, (seed.rotate_left(17) % wal_len) as usize, 0x10)
                        .unwrap();
                }
                // A CRC-clean frame that is not a block record.
                8 => splice(
                    disk,
                    boundary(seed),
                    &Wal::encode_frame(b"not a block record"),
                ),
                // An undamaged disk.
                _ => {}
            }
        }
        const DAMAGE_KINDS: usize = 10;

        #[test]
        fn every_damage_kind_recovers_as_the_serial_recovery_did() {
            let txs: Vec<Vec<Vec<u8>>> = (0..8u8)
                .map(|i| (0..=i % 3).map(|j| vec![i, j, 7]).collect())
                .collect();
            let mut reasons = Vec::new();
            for kind in 0..DAMAGE_KINDS {
                for seed in [0u64, 1, 5, 77, 1234, 99_991, u64::MAX / 3] {
                    let (disk, blocks) = committed_disk(&txs);
                    damage(&disk, &blocks, kind, seed, (seed % 8) as u8);
                    let outcome = assert_matches_the_serial_recovery(&disk);
                    // Truncation was physical: a second recovery of what the
                    // first left behind finds nothing more to cut.
                    let again = pipeline_load(&disk_from(&outcome.disk), 2);
                    assert_eq!(again.report.truncated_bytes, 0, "kind {kind} seed {seed}");
                    assert_eq!(again.blocks, outcome.blocks);
                    reasons.extend(outcome.report.tail);
                }
            }
            // The sweep reached every way trust can end.
            for needle in ["torn", "crc", "length", "chain verification", "undecodable"] {
                assert!(
                    reasons.iter().any(|r| r.contains(needle)),
                    "no recovery ended on {needle:?}: {reasons:?}"
                );
            }
        }

        #[test]
        fn empty_and_headerless_disks_match_too() {
            assert_matches_the_serial_recovery(&MemVfs::new());
            let garbage = MemVfs::new();
            garbage.create(WAL_FILE, b"garbage!garbage!").unwrap();
            let outcome = assert_matches_the_serial_recovery(&garbage);
            assert_eq!(
                outcome.disk,
                vec![(WAL_FILE.to_string(), WAL_MAGIC.to_vec())]
            );
            let empty_file = MemVfs::new();
            empty_file.create(WAL_FILE, b"").unwrap();
            let outcome = assert_matches_the_serial_recovery(&empty_file);
            assert_eq!(
                outcome.disk,
                vec![(WAL_FILE.to_string(), WAL_MAGIC.to_vec())]
            );
            assert_eq!(outcome.report.truncated_bytes, 0);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn prop_pipeline_recovers_exactly_what_the_serial_recovery_did(
                txs in prop::collection::vec(
                    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..4),
                    1..10,
                ),
                kind in 0usize..DAMAGE_KINDS,
                seed in any::<u64>(),
                bit in 0u8..8,
            ) {
                let (disk, blocks) = committed_disk(&txs);
                damage(&disk, &blocks, kind, seed, bit);
                assert_matches_the_serial_recovery(&disk);
            }
        }
    }
}
