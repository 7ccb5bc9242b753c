//! The write-ahead log: CRC-framed, length-prefixed block records in one
//! append-only file.
//!
//! # Format
//!
//! ```text
//! file   := header frame*
//! header := "TDTWAL01"                      (8 bytes, magic + version)
//! frame  := len:u32be crc:u32be payload     (crc = CRC32(payload))
//! ```
//!
//! Each payload is one [`crate::storage::codec::encode_block`] record.
//!
//! # Recovery contract
//!
//! [`Wal::scan`] reads the file once and verifies every frame exactly
//! once. A sequential walk over the length prefixes yields the frame
//! ranges; the frames are then checked in contiguous chunks, the first on
//! the calling thread and the rest on scoped workers when the WAL is
//! large enough to pay for them ([`tdt_obs::par`]) — CRC, block decoding,
//! Merkle root ([`VerifiedBlock::new`]) — and a cheap sequential pass
//! links the verified blocks into a [`BlockStore`] (numbers, header
//! hashes). The first frame *in file order* that is short, oversized,
//! fails its CRC, fails block decoding or does not extend the chain ends
//! the trusted region, whichever worker found it and whenever: everything
//! from that byte offset on is **tail** and is reported (and later
//! physically truncated) rather than trusted. A torn append therefore costs at most
//! the blocks that were never acknowledged — never a prefix, never a
//! silently wrong record.

use super::codec::{self, DecodeError};
use super::vfs::{Vfs, VfsError};
use crate::block::Block;
use crate::store::{BlockStore, VerifiedBlock};
use std::fmt;
use tdt_obs::par;

/// Magic + version prefix of a WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"TDTWAL01";

/// Largest accepted frame payload (matches the codec's allocation cap).
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Why scanning stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailReason {
    /// The file ended mid-frame (torn append).
    Torn,
    /// A frame's CRC did not match its payload (bit rot / partial page).
    CrcMismatch,
    /// The frame length field is implausible.
    BadLength,
    /// The payload passed its CRC but did not decode as a block.
    Undecodable(String),
    /// Frame number `.0` holds a well-formed block that does not extend
    /// the chain before it: wrong number, broken hash link, or payloads
    /// that do not hash to its Merkle root (a writer bug, or a surgically
    /// flipped bit that CRC32 happens to collide on).
    ChainBroken(u64),
}

impl fmt::Display for TailReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TailReason::Torn => write!(f, "torn frame"),
            TailReason::CrcMismatch => write!(f, "crc mismatch"),
            TailReason::BadLength => write!(f, "implausible frame length"),
            TailReason::Undecodable(why) => write!(f, "undecodable payload: {why}"),
            TailReason::ChainBroken(at) => write!(f, "chain verification failed at block {at}"),
        }
    }
}

/// The result of scanning a WAL file.
#[derive(Debug, Default)]
pub struct WalScan {
    /// The verified chain: every block of the trusted region, linked.
    pub chain: BlockStore,
    /// Byte offset of the end of the last good frame — the length the
    /// file should be truncated to.
    pub valid_len: u64,
    /// Total file length at scan time.
    pub file_len: u64,
    /// Why the tail (if any) was rejected.
    pub tail: Option<TailReason>,
}

/// One frame as the length prefixes delimit it; nothing about its payload
/// has been checked yet.
struct Frame<'a> {
    /// Position in the file, which is the number its block must carry.
    index: u64,
    payload: &'a [u8],
    /// The checksum the frame header claims for the payload.
    crc: u32,
    /// Byte offset of the end of the frame.
    end: u64,
}

/// Walks the length prefixes of `bytes` (header already checked) up to the
/// first structurally impossible frame.
fn walk(bytes: &[u8]) -> (Vec<Frame<'_>>, Option<TailReason>) {
    let mut frames = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos.saturating_add(8)) else {
            return (frames, Some(TailReason::Torn));
        };
        let (len_bytes, crc_bytes) = header.split_at(4);
        let len = codec::be_fold(len_bytes);
        if len > u64::from(MAX_FRAME) {
            return (frames, Some(TailReason::BadLength));
        }
        let end = pos + 8 + len as usize;
        let Some(payload) = bytes.get(pos + 8..end) else {
            return (frames, Some(TailReason::Torn));
        };
        pos = end;
        frames.push(Frame {
            index: frames.len() as u64,
            payload,
            crc: codec::be_fold(crc_bytes) as u32,
            end: end as u64,
        });
    }
    (frames, None)
}

/// Everything one frame can prove on its own, in the order a serial scan
/// would find it: checksum, encoding (`decoded`, from the same payload),
/// and that the block's payloads hash to its Merkle root.
fn verify_frame(
    frame: &Frame<'_>,
    decoded: Result<Block, DecodeError>,
) -> Result<VerifiedBlock, TailReason> {
    if codec::crc32(frame.payload) != frame.crc {
        return Err(TailReason::CrcMismatch);
    }
    let block = decoded.map_err(|DecodeError(why)| TailReason::Undecodable(why))?;
    VerifiedBlock::new(block).map_err(|_| TailReason::ChainBroken(frame.index))
}

/// Every frame of a WAL image, each verified on its own and not yet
/// linked to its neighbours.
pub(crate) struct VerifiedFrames {
    /// Per frame, in file order: where it ends and what it holds.
    verdicts: Vec<(u64, Result<VerifiedBlock, TailReason>)>,
    /// Where the frames start: past the header, or 0 when the header is
    /// missing or wrong and nothing in the file is trusted.
    start: u64,
    file_len: u64,
    /// Why the walk over the length prefixes stopped early, if it did.
    walk_tail: Option<TailReason>,
}

/// Verifies the frames of the WAL image `bytes` in contiguous chunks on up
/// to `workers` threads (`None`: as many as their bytes are worth) while
/// `alongside` runs on the calling thread ([`par::map_chunks`]).
pub(crate) fn verify_frames<A>(
    bytes: &[u8],
    workers: Option<usize>,
    alongside: impl FnOnce() -> A,
) -> (VerifiedFrames, A) {
    let file_len = bytes.len() as u64;
    // A missing or wrong header means nothing in the file is trusted.
    let (frames, start, walk_tail) = if bytes.starts_with(WAL_MAGIC) {
        let (frames, walk_tail) = walk(bytes);
        (frames, WAL_MAGIC.len() as u64, walk_tail)
    } else {
        let garbage = (file_len > 0).then_some(TailReason::BadLength);
        (Vec::new(), 0, garbage)
    };
    // Blocks are decoded here and only hashed on the workers: they outlive
    // recovery, so the calling thread's allocator should own them (see
    // `par::map_chunks`). Decoding ahead of the CRC check is safe — the
    // decoder is total and allocates no more than its input — and a frame
    // still fails for its checksum first.
    let decoded: Vec<_> = frames
        .into_iter()
        .map(|frame| {
            let block = codec::decode_block(frame.payload);
            (frame, block)
        })
        .collect();
    let (verdicts, beside) = par::map_chunks(
        decoded,
        workers,
        |(frame, _)| frame.payload.len(),
        |chunk| {
            tdt_obs::profile_scope!("recovery.scan");
            chunk
                .into_iter()
                .map(|(frame, decoded)| (frame.end, verify_frame(&frame, decoded)))
                .collect()
        },
        alongside,
    );
    let verified = VerifiedFrames {
        verdicts,
        start,
        file_len,
        walk_tail,
    };
    (verified, beside)
}

impl VerifiedFrames {
    /// Leading frames that passed their CRC and decoded as blocks.
    pub(crate) fn decoded(&self) -> u64 {
        self.verdicts
            .iter()
            .take_while(|(_, v)| matches!(v, Ok(_) | Err(TailReason::ChainBroken(_))))
            .count() as u64
    }

    /// Links the blocks in file order. Trust ends at the first frame whose
    /// own verdict is bad or whose block does not extend the chain so far;
    /// frames after it are dropped unseen, whatever they hold.
    pub(crate) fn link(self) -> WalScan {
        let mut chain = BlockStore::new();
        let mut valid_len = self.start;
        let mut tail = self.walk_tail;
        for (end, verdict) in self.verdicts {
            let at = chain.height();
            let linked = verdict
                .and_then(|block| chain.append(block).map_err(|_| TailReason::ChainBroken(at)));
            match linked {
                Ok(()) => valid_len = end,
                Err(reason) => {
                    tail = Some(reason);
                    break;
                }
            }
        }
        WalScan {
            chain,
            valid_len,
            file_len: self.file_len,
            tail,
        }
    }
}

/// Handle over the WAL file of one ledger directory.
#[derive(Debug)]
pub struct Wal<'a> {
    vfs: &'a dyn Vfs,
    path: &'a str,
}

impl<'a> Wal<'a> {
    /// A WAL at `path` on `vfs` (the file need not exist yet).
    pub fn new(vfs: &'a dyn Vfs, path: &'a str) -> Wal<'a> {
        Wal { vfs, path }
    }

    /// Encodes one frame (length, CRC, payload).
    pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&codec::crc32(payload).to_be_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// Appends one block record and makes it durable (write + fsync).
    /// When this returns `Ok`, the block survives any crash.
    // lint:allow(obs: "leaf I/O: FileBackend::append_block owns the commit span and records this error via record_err")
    pub fn append_block(&self, block: &Block) -> Result<u64, VfsError> {
        if !self.vfs.exists(self.path) {
            self.vfs.create(self.path, WAL_MAGIC)?;
            self.vfs.sync(self.path)?;
        }
        let frame = Self::encode_frame(&codec::encode_block(block));
        let len = frame.len() as u64;
        self.vfs.append(self.path, &frame)?;
        self.vfs.sync(self.path)?;
        Ok(len)
    }

    /// The whole file, or `None` when it does not exist.
    // lint:allow(obs: "leaf I/O: FileBackend::load owns the recovery.scan span and records this error via record_err")
    pub(crate) fn read(&self) -> Result<Option<Vec<u8>>, VfsError> {
        match self.vfs.read(self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(VfsError::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Scans the file, verifying every frame and the chain they form;
    /// never fails on corruption — corruption just ends the trusted region
    /// (see module docs).
    ///
    /// # Errors
    ///
    /// Only genuine VFS failures (crash injection, I/O) are errors.
    // lint:allow(obs: "leaf I/O: FileBackend::load runs the same steps under its recovery.scan and recovery.verify spans and records the error via record_err")
    pub fn scan(&self) -> Result<WalScan, VfsError> {
        Ok(match self.read()? {
            None => WalScan::default(),
            Some(bytes) => verify_frames(&bytes, None, || ()).0.link(),
        })
    }

    /// Physically truncates the file to the trusted region found by a
    /// scan, so future appends extend a clean tail.
    // lint:allow(obs: "leaf I/O: FileBackend::load owns the recovery.truncate span and records this error via record_err")
    pub fn truncate_to(&self, valid_len: u64) -> Result<(), VfsError> {
        if !self.vfs.exists(self.path) {
            return Ok(());
        }
        // An all-garbage file (bad header) is recreated empty.
        if valid_len < WAL_MAGIC.len() as u64 {
            self.vfs.create(self.path, WAL_MAGIC)?;
            return self.vfs.sync(self.path);
        }
        self.vfs.truncate(self.path, valid_len)
    }

    /// Current file length (0 when missing).
    pub fn file_len(&self) -> u64 {
        self.vfs.len(self.path).unwrap_or(0)
    }
}

/// The serial scan this module shipped before the verify-once pipeline,
/// kept verbatim as the oracle of the differential tests here and in
/// `file.rs`: CRC and decoding only, one frame at a time, stopping at the
/// first bad one; chain verification was a second pass over its output.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    #[derive(Debug)]
    pub(crate) struct SerialScan {
        pub(crate) blocks: Vec<Block>,
        /// End-of-frame byte offset for each entry of `blocks`.
        pub(crate) offsets: Vec<u64>,
        pub(crate) valid_len: u64,
        pub(crate) file_len: u64,
        pub(crate) tail: Option<TailReason>,
    }

    pub(crate) fn scan(vfs: &dyn Vfs, path: &str) -> Result<SerialScan, VfsError> {
        let bytes = match vfs.read(path) {
            Ok(bytes) => bytes,
            Err(VfsError::NotFound(_)) => {
                return Ok(SerialScan {
                    blocks: Vec::new(),
                    offsets: Vec::new(),
                    valid_len: 0,
                    file_len: 0,
                    tail: None,
                })
            }
            Err(e) => return Err(e),
        };
        let file_len = bytes.len() as u64;
        if !bytes.starts_with(WAL_MAGIC) {
            return Ok(SerialScan {
                blocks: Vec::new(),
                offsets: Vec::new(),
                valid_len: 0,
                file_len,
                tail: (file_len > 0).then_some(TailReason::BadLength),
            });
        }
        let mut blocks = Vec::new();
        let mut offsets = Vec::new();
        let mut pos = WAL_MAGIC.len();
        let mut tail = None;
        while pos < bytes.len() {
            let Some(header) = bytes.get(pos..pos.saturating_add(8)) else {
                tail = Some(TailReason::Torn);
                break;
            };
            let (len_bytes, crc_bytes) = header.split_at(4);
            let len = codec::be_fold(len_bytes);
            let crc = codec::be_fold(crc_bytes) as u32;
            if len > u64::from(MAX_FRAME) {
                tail = Some(TailReason::BadLength);
                break;
            }
            let len = len as usize;
            let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
                tail = Some(TailReason::Torn);
                break;
            };
            if bytewise_crc32(payload) != crc {
                tail = Some(TailReason::CrcMismatch);
                break;
            }
            match codec::decode_block(payload) {
                Ok(block) => blocks.push(block),
                Err(DecodeError(reason)) => {
                    tail = Some(TailReason::Undecodable(reason));
                    break;
                }
            }
            pos += 8 + len;
            offsets.push(pos as u64);
        }
        Ok(SerialScan {
            blocks,
            offsets,
            valid_len: pos as u64,
            file_len,
            tail,
        })
    }

    /// The one-table, byte-at-a-time CRC32 the old scan ran.
    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The chain check `FileBackend` ran over the scanned blocks: how many
    /// form a valid prefix (numbers contiguous from 0, hash links intact,
    /// Merkle data hashes matching).
    pub(crate) fn verified_prefix(blocks: &[Block]) -> usize {
        let mut prev = [0u8; 32];
        for (i, block) in blocks.iter().enumerate() {
            if block.header.number != i as u64
                || block.header.prev_hash != prev
                || !block.data_hash_valid()
            {
                return i;
            }
            prev = block.hash();
        }
        blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::storage::vfs::MemVfs;

    fn chain(n: usize) -> Vec<Block> {
        let mut blocks = vec![Block::genesis(vec![b"cfg".to_vec()])];
        for i in 1..n {
            let prev = blocks[i - 1].header.clone();
            blocks.push(Block::next(&prev, vec![format!("tx-{i}").into_bytes()]));
        }
        blocks
    }

    #[test]
    fn append_scan_roundtrip() {
        let vfs = MemVfs::new();
        let wal = Wal::new(&vfs, "wal.log");
        let blocks = chain(5);
        for b in &blocks {
            wal.append_block(b).unwrap();
        }
        let scan = wal.scan().unwrap();
        assert_eq!(scan.chain.blocks(), blocks);
        assert_eq!(scan.tail, None);
        assert_eq!(scan.valid_len, scan.file_len);
    }

    #[test]
    fn missing_file_scans_empty() {
        let vfs = MemVfs::new();
        let wal = Wal::new(&vfs, "wal.log");
        let scan = wal.scan().unwrap();
        assert_eq!(scan.chain.height(), 0);
        assert_eq!(scan.tail, None);
    }

    #[test]
    fn torn_tail_is_truncated_not_trusted() {
        let vfs = MemVfs::new();
        let wal = Wal::new(&vfs, "wal.log");
        let blocks = chain(3);
        for b in &blocks {
            wal.append_block(b).unwrap();
        }
        let good_len = vfs.len("wal.log").unwrap();
        // Simulate a torn append: half a frame at the end.
        vfs.append("wal.log", &[1, 2, 3, 4, 5]).unwrap();
        let scan = wal.scan().unwrap();
        assert_eq!(scan.chain.blocks(), blocks);
        assert_eq!(scan.valid_len, good_len);
        assert_eq!(scan.tail, Some(TailReason::Torn));
        wal.truncate_to(scan.valid_len).unwrap();
        assert_eq!(wal.file_len(), good_len);
        // Appending after repair keeps working.
        let next = Block::next(&blocks[2].header, vec![b"x".to_vec()]);
        wal.append_block(&next).unwrap();
        assert_eq!(wal.scan().unwrap().chain.height(), 4);
    }

    #[test]
    fn crc_mismatch_ends_trust_at_the_flip() {
        let vfs = MemVfs::new();
        let wal = Wal::new(&vfs, "wal.log");
        let blocks = chain(4);
        let mut offsets = vec![WAL_MAGIC.len() as u64];
        for b in &blocks {
            let len = wal.append_block(b).unwrap();
            offsets.push(offsets.last().unwrap() + len);
        }
        // Flip a payload bit inside the third frame.
        vfs.corrupt("wal.log", offsets[2] as usize + 9, 0x01)
            .unwrap();
        let scan = wal.scan().unwrap();
        assert_eq!(scan.chain.blocks(), &blocks[..2]);
        assert_eq!(scan.valid_len, offsets[2]);
        assert_eq!(scan.tail, Some(TailReason::CrcMismatch));
    }

    #[test]
    fn bad_header_trusts_nothing() {
        let vfs = MemVfs::new();
        vfs.create("wal.log", b"garbage!").unwrap();
        let wal = Wal::new(&vfs, "wal.log");
        let scan = wal.scan().unwrap();
        assert_eq!(scan.chain.height(), 0);
        assert_eq!(scan.valid_len, 0);
        wal.truncate_to(scan.valid_len).unwrap();
        // Repair recreated a clean header.
        assert_eq!(vfs.read("wal.log").unwrap(), WAL_MAGIC);
    }

    #[test]
    fn crc_clean_frame_that_does_not_link_ends_trust() {
        let vfs = MemVfs::new();
        let wal = Wal::new(&vfs, "wal.log");
        let blocks = chain(4);
        for b in &blocks[..2] {
            wal.append_block(b).unwrap();
        }
        let good_len = vfs.len("wal.log").unwrap();
        // Block 3 where block 2 belongs: CRC and Merkle root are fine,
        // number and hash link are not.
        wal.append_block(&blocks[3]).unwrap();
        wal.append_block(&blocks[2]).unwrap();
        let scan = wal.scan().unwrap();
        assert_eq!(scan.chain.blocks(), &blocks[..2]);
        assert_eq!(scan.valid_len, good_len);
        assert_eq!(scan.tail, Some(TailReason::ChainBroken(2)));
        assert!(scan.chain.verify_chain().is_ok());
    }

    #[test]
    fn trust_ends_at_the_first_bad_frame_whichever_worker_found_it() {
        let vfs = MemVfs::new();
        let wal = Wal::new(&vfs, "wal.log");
        let blocks = chain(12);
        let mut ends = vec![WAL_MAGIC.len() as u64];
        for b in &blocks {
            let len = wal.append_block(b).unwrap();
            ends.push(ends.last().unwrap() + len);
        }
        // Frame 9 rots first in the file's history, frame 3 first in the
        // file: with one frame per worker both are found at once, and the
        // earlier one must win.
        vfs.corrupt("wal.log", ends[9] as usize + 9, 0x01).unwrap();
        vfs.corrupt("wal.log", ends[3] as usize + 9, 0x01).unwrap();
        let bytes = vfs.read("wal.log").unwrap();
        for workers in [1, 2, 5, 12, 40] {
            let scan = verify_frames(&bytes, Some(workers), || ()).0.link();
            assert_eq!(scan.chain.blocks(), &blocks[..3], "{workers} workers");
            assert_eq!(scan.valid_len, ends[3]);
            assert_eq!(scan.tail, Some(TailReason::CrcMismatch));
        }
    }

    #[test]
    fn workers_carry_the_recovery_scan_profile_scope() {
        // This thread opens a scope of its own, so the chunk it verifies
        // samples as `test.caller;recovery.scan`, and a bare
        // `recovery.scan` can only come from a worker. ~2 MB of frames keep
        // two workers busy for milliseconds per pass; sample until seen.
        tdt_obs::profile_scope!("test.caller");
        let vfs = MemVfs::new();
        let wal = Wal::new(&vfs, "wal.log");
        let mut prev = Block::genesis(vec![vec![7u8; 64 * 1024]]);
        wal.append_block(&prev).unwrap();
        for _ in 0..31 {
            prev = Block::next(&prev.header, vec![vec![7u8; 64 * 1024]]);
            wal.append_block(&prev).unwrap();
        }
        let bytes = vfs.read("wal.log").unwrap();
        let mut sampled = std::collections::BTreeMap::new();
        for _round in 0..50 {
            let profiler = tdt_obs::profile::start(1000);
            for _ in 0..3 {
                let scan = verify_frames(&bytes, Some(2), || ()).0.link();
                assert_eq!(scan.chain.height(), 32);
            }
            sampled = profiler.stop().folded;
            if sampled.contains_key("recovery.scan") {
                return;
            }
        }
        panic!("no worker was ever sampled under recovery.scan: {sampled:?}");
    }

    #[test]
    fn absurd_length_field_is_rejected() {
        let vfs = MemVfs::new();
        let wal = Wal::new(&vfs, "wal.log");
        wal.append_block(&chain(1)[0]).unwrap();
        let good = vfs.len("wal.log").unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        frame.extend_from_slice(&[0u8; 4]);
        vfs.append("wal.log", &frame).unwrap();
        let scan = wal.scan().unwrap();
        assert_eq!(scan.chain.height(), 1);
        assert_eq!(scan.valid_len, good);
        assert_eq!(scan.tail, Some(TailReason::BadLength));
    }
}
