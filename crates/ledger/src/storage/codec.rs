//! Dependency-free binary codec for persisted ledger records.
//!
//! Every on-disk structure (WAL block records, snapshots) is encoded with
//! this fixed, versioned format: big-endian fixed-width integers and
//! `u32` length prefixes — no reflection, no external crates, and a
//! decoder that treats *every* malformed input as [`DecodeError`] rather
//! than panicking (the corruption proptests hold it to that).

use crate::block::{Block, BlockHeader, BlockMetadata, TxValidationCode};
use crate::history::{HistoryEntry, HistoryIndex};
use crate::rwset::Version;
use crate::state::{VersionedValue, WorldState};
use std::fmt;

/// Decoding failed: the input is truncated, oversized, or malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Hard cap on any single length prefix (64 MiB): a corrupt length must
/// not translate into an allocation bomb.
const MAX_LEN: usize = 64 * 1024 * 1024;

/// IEEE CRC32 — the frame checksum for WAL records and snapshots (the
/// workspace's one implementation, shared with the flight recorder).
pub use tdt_obs::crc32;

// ---------------------------------------------------------------------------
// Primitive writers / reader
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Big-endian fold of up to 8 bytes into a `u64` (index-free).
pub(crate) fn be_fold(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

/// A bounds-checked cursor over encoded bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| DecodeError("length overflow".to_string()))?;
        match self.buf.get(self.pos..end) {
            Some(slice) => {
                self.pos = end;
                Ok(slice)
            }
            None => Err(DecodeError(format!(
                "need {n} bytes, have {}",
                self.remaining()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(be_fold(self.take(4)?) as u32)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(be_fold(self.take(8)?))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()? as usize;
        if len > MAX_LEN {
            return Err(DecodeError(format!("length {len} exceeds cap {MAX_LEN}")));
        }
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes()?).map_err(|e| DecodeError(format!("invalid utf-8: {e}")))
    }

    fn hash(&mut self) -> Result<[u8; 32], DecodeError> {
        let b = self.take(32)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(b);
        Ok(out)
    }

    /// A bounded count prefix: corrupt counts must not become allocation
    /// or spin bombs.
    fn count(&mut self, max: usize, what: &str) -> Result<usize, DecodeError> {
        let n = self.u64()? as usize;
        if n > max {
            return Err(DecodeError(format!("{what} count {n} exceeds cap {max}")));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Block
// ---------------------------------------------------------------------------

fn code_to_u8(code: TxValidationCode) -> u8 {
    match code {
        TxValidationCode::Valid => 0,
        TxValidationCode::MvccConflict => 1,
        TxValidationCode::EndorsementPolicyFailure => 2,
        TxValidationCode::BadEndorsementSignature => 3,
        TxValidationCode::BadPayload => 4,
    }
}

fn code_from_u8(v: u8) -> Result<TxValidationCode, DecodeError> {
    Ok(match v {
        0 => TxValidationCode::Valid,
        1 => TxValidationCode::MvccConflict,
        2 => TxValidationCode::EndorsementPolicyFailure,
        3 => TxValidationCode::BadEndorsementSignature,
        4 => TxValidationCode::BadPayload,
        other => return Err(DecodeError(format!("unknown validation code {other}"))),
    })
}

/// Encodes a block (header, payloads, validation metadata) for the WAL.
pub fn encode_block(block: &Block) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + block.transactions.iter().map(Vec::len).sum::<usize>());
    put_u64(&mut out, block.header.number);
    out.extend_from_slice(&block.header.prev_hash);
    out.extend_from_slice(&block.header.data_hash);
    put_u64(&mut out, block.transactions.len() as u64);
    for tx in &block.transactions {
        put_bytes(&mut out, tx);
    }
    put_u64(&mut out, block.metadata.tx_validation.len() as u64);
    for code in &block.metadata.tx_validation {
        out.push(code_to_u8(*code));
    }
    out
}

/// Decodes one block; the whole input must be consumed.
pub fn decode_block(bytes: &[u8]) -> Result<Block, DecodeError> {
    let mut r = Reader::new(bytes);
    let number = r.u64()?;
    let prev_hash = r.hash()?;
    let data_hash = r.hash()?;
    let ntx = r.count(1 << 24, "tx")?;
    let mut transactions = Vec::with_capacity(ntx.min(1024));
    for _ in 0..ntx {
        transactions.push(r.bytes()?);
    }
    let nmeta = r.count(1 << 24, "validation-code")?;
    let mut tx_validation = Vec::with_capacity(nmeta.min(1024));
    for _ in 0..nmeta {
        tx_validation.push(code_from_u8(r.u8()?)?);
    }
    if r.remaining() != 0 {
        return Err(DecodeError(format!(
            "{} trailing bytes after block",
            r.remaining()
        )));
    }
    Ok(Block {
        header: BlockHeader {
            number,
            prev_hash,
            data_hash,
        },
        transactions,
        metadata: BlockMetadata { tx_validation },
    })
}

// ---------------------------------------------------------------------------
// Snapshot payload: world state + history index
// ---------------------------------------------------------------------------

fn put_version(out: &mut Vec<u8>, v: Version) {
    put_u64(out, v.block);
    put_u64(out, v.tx);
}

fn read_version(r: &mut Reader<'_>) -> Result<Version, DecodeError> {
    Ok(Version::new(r.u64()?, r.u64()?))
}

/// Encodes the world state: sorted `(namespace, key, version, value)`
/// entries (BTreeMap order, so byte-deterministic across replicas).
pub fn encode_world_state(state: &WorldState) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, state.len() as u64);
    for ((namespace, key), entry) in state.iter_entries() {
        put_str(&mut out, namespace);
        put_str(&mut out, key);
        put_version(&mut out, entry.version);
        put_bytes(&mut out, &entry.value);
    }
    out
}

/// Decodes a world state from `r`.
pub fn decode_world_state(r: &mut Reader<'_>) -> Result<WorldState, DecodeError> {
    let n = r.count(1 << 28, "state entry")?;
    let mut state = WorldState::new();
    for _ in 0..n {
        let namespace = r.string()?;
        let key = r.string()?;
        let version = read_version(r)?;
        let value = r.bytes()?;
        state.insert_recovered(namespace, key, VersionedValue { value, version });
    }
    Ok(state)
}

/// Encodes the history index: entries sorted by `(namespace, key)` so the
/// encoding is deterministic even though the index is a `HashMap`.
pub fn encode_history(history: &HistoryIndex) -> Vec<u8> {
    let mut keys: Vec<(&(String, String), &Vec<HistoryEntry>)> = history.iter_entries().collect();
    keys.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = Vec::new();
    put_u64(&mut out, keys.len() as u64);
    for ((namespace, key), entries) in keys {
        put_str(&mut out, namespace);
        put_str(&mut out, key);
        put_u64(&mut out, entries.len() as u64);
        for e in entries {
            put_version(&mut out, e.version);
            match &e.value {
                Some(v) => {
                    out.push(1);
                    put_bytes(&mut out, v);
                }
                None => out.push(0),
            }
        }
    }
    out
}

/// Decodes a history index from `r`.
pub fn decode_history(r: &mut Reader<'_>) -> Result<HistoryIndex, DecodeError> {
    let nkeys = r.count(1 << 28, "history key")?;
    let mut history = HistoryIndex::new();
    for _ in 0..nkeys {
        let namespace = r.string()?;
        let key = r.string()?;
        let nentries = r.count(1 << 28, "history entry")?;
        let mut entries = Vec::with_capacity(nentries.min(1024));
        for _ in 0..nentries {
            let version = read_version(r)?;
            let value = match r.u8()? {
                0 => None,
                1 => Some(r.bytes()?),
                other => return Err(DecodeError(format!("bad history value tag {other}"))),
            };
            entries.push(HistoryEntry { version, value });
        }
        history.insert_recovered(namespace, key, entries);
    }
    Ok(history)
}

/// Encodes a full snapshot payload (height, state hash, state, history).
pub fn encode_snapshot_payload(
    height: u64,
    state_hash: &[u8; 32],
    state: &WorldState,
    history: &HistoryIndex,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, height);
    out.extend_from_slice(state_hash);
    let state_bytes = encode_world_state(state);
    put_u32(&mut out, state_bytes.len() as u32);
    out.extend_from_slice(&state_bytes);
    let history_bytes = encode_history(history);
    put_u32(&mut out, history_bytes.len() as u32);
    out.extend_from_slice(&history_bytes);
    out
}

/// The decoded snapshot payload.
pub struct SnapshotPayload {
    /// Chain height the snapshot was taken at (number of blocks applied).
    pub height: u64,
    /// `WorldState::state_hash()` recorded by the writer.
    pub state_hash: [u8; 32],
    /// The world state at `height`.
    pub state: WorldState,
    /// The history index at `height`.
    pub history: HistoryIndex,
}

/// Decodes a snapshot payload; the whole input must be consumed.
pub fn decode_snapshot_payload(bytes: &[u8]) -> Result<SnapshotPayload, DecodeError> {
    let mut r = Reader::new(bytes);
    let height = r.u64()?;
    let state_hash = r.hash()?;
    let state_len = r.u32()? as usize;
    if state_len > r.remaining() {
        return Err(DecodeError("state section truncated".to_string()));
    }
    let state = decode_world_state(&mut r)?;
    let _history_len = r.u32()? as usize;
    let history = decode_history(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError(format!(
            "{} trailing bytes after snapshot",
            r.remaining()
        )));
    }
    Ok(SnapshotPayload {
        height,
        state_hash,
        state,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::TxRwSet;

    #[test]
    fn block_roundtrip() {
        let mut block = Block::genesis(vec![b"cfg".to_vec(), Vec::new(), vec![0u8; 300]]);
        block.metadata.tx_validation = vec![
            TxValidationCode::Valid,
            TxValidationCode::MvccConflict,
            TxValidationCode::BadPayload,
        ];
        let encoded = encode_block(&block);
        assert_eq!(decode_block(&encoded).unwrap(), block);
    }

    #[test]
    fn block_decode_rejects_truncation_everywhere() {
        let block = Block::genesis(vec![b"tx-payload".to_vec()]);
        let encoded = encode_block(&block);
        for cut in 0..encoded.len() {
            assert!(
                decode_block(&encoded[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn block_decode_rejects_trailing_garbage() {
        let block = Block::genesis(vec![]);
        let mut encoded = encode_block(&block);
        encoded.push(0);
        assert!(decode_block(&encoded).is_err());
    }

    #[test]
    fn block_decode_rejects_bad_code() {
        let mut block = Block::genesis(vec![b"t".to_vec()]);
        block.metadata.tx_validation = vec![TxValidationCode::Valid];
        let mut encoded = encode_block(&block);
        let last = encoded.len() - 1;
        encoded[last] = 99;
        assert!(decode_block(&encoded).is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocating() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1); // number
        bytes.extend_from_slice(&[0u8; 64]); // hashes
        put_u64(&mut bytes, u64::MAX); // tx count bomb
        assert!(decode_block(&bytes).is_err());
    }

    fn sample_state_history() -> (WorldState, HistoryIndex) {
        let mut state = WorldState::new();
        let mut history = HistoryIndex::new();
        for i in 0..20u64 {
            let mut rw = TxRwSet::new();
            rw.record_write("cc", &format!("k{i:02}"), Some(vec![i as u8; 8]));
            if i % 5 == 0 {
                rw.record_write("other", "shared", Some(vec![i as u8]));
            }
            let version = Version::new(i / 4 + 1, i % 4);
            state.apply(&rw, version);
            history.record(&rw, version);
        }
        (state, history)
    }

    #[test]
    fn snapshot_payload_roundtrip() {
        let (state, history) = sample_state_history();
        let hash = state.state_hash();
        let bytes = encode_snapshot_payload(21, &hash, &state, &history);
        let decoded = decode_snapshot_payload(&bytes).unwrap();
        assert_eq!(decoded.height, 21);
        assert_eq!(decoded.state_hash, hash);
        assert_eq!(decoded.state.state_hash(), hash);
        assert_eq!(decoded.state.len(), state.len());
        assert_eq!(decoded.history.key_count(), history.key_count());
        assert_eq!(
            decoded.history.history("other", "shared"),
            history.history("other", "shared")
        );
    }

    #[test]
    fn snapshot_encoding_is_deterministic() {
        let (state, history) = sample_state_history();
        let hash = state.state_hash();
        let a = encode_snapshot_payload(5, &hash, &state, &history);
        let b = encode_snapshot_payload(5, &hash, &state, &history);
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_truncation_always_errors() {
        let (state, history) = sample_state_history();
        let hash = state.state_hash();
        let bytes = encode_snapshot_payload(9, &hash, &state, &history);
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot_payload(&bytes[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }
}
