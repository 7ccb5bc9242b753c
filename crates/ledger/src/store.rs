//! Append-only block store with chain-integrity checking.
//!
//! This module is the one owner of chain verification. A block's Merkle
//! root is recomputed in exactly one place, [`VerifiedBlock::new`], and its
//! position (number, hash link) is checked in exactly one place,
//! [`BlockStore::append`]. The commit path and crash recovery both go
//! through the pair, so a block is hashed once on its way into a store —
//! recovery workers mint [`VerifiedBlock`]s in parallel, the store then
//! links them in order — and whoever holds a [`BlockStore`] holds a
//! verified chain that needs no second look.

use crate::block::{Block, BlockHeader, TxValidationCode};
use crate::error::LedgerError;
use crate::merkle::Hash;
use std::collections::HashMap;

/// A block whose transactions were hashed and found to match the Merkle
/// root in its header. Only [`VerifiedBlock::new`] makes one, and nothing
/// the header commits to can change afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedBlock(Block);

impl VerifiedBlock {
    /// Recomputes the Merkle root of `block`'s transactions — the one
    /// place a block entering a store is hashed.
    ///
    /// # Errors
    ///
    /// [`LedgerError::DataHashMismatch`] when the transactions don't match
    /// the header commitment.
    // lint:allow(obs: "pure check with no span of its own; the commit path surfaces the error to its caller and recovery records it on the recovery.verify span")
    pub fn new(block: Block) -> Result<VerifiedBlock, LedgerError> {
        if !block.data_hash_valid() {
            return Err(LedgerError::DataHashMismatch {
                block: block.header.number,
            });
        }
        Ok(VerifiedBlock(block))
    }

    /// The verified block.
    pub fn block(&self) -> &Block {
        &self.0
    }

    /// Records the committer's validation flags. Metadata is the one part
    /// of a block no hash covers, which is why it may change here.
    pub fn set_tx_validation(&mut self, codes: Vec<TxValidationCode>) {
        self.0.metadata.tx_validation = codes;
    }
}

/// An append-only store of blocks plus a transaction-id index.
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    blocks: Vec<Block>,
    // txid -> (block number, tx index)
    tx_index: HashMap<String, (u64, usize)>,
}

/// Checks that `header` is block `expected` of a chain whose previous
/// header hashes to `prev` (all zeroes before genesis).
fn check_link(expected: u64, prev: &Hash, header: &BlockHeader) -> Result<(), LedgerError> {
    if header.number != expected {
        return Err(LedgerError::NonContiguousBlock {
            expected,
            got: header.number,
        });
    }
    if header.prev_hash != *prev {
        return Err(LedgerError::BrokenHashChain {
            block: header.number,
        });
    }
    Ok(())
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chain height (number of blocks; genesis makes height 1).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Header of the newest block, if any.
    pub fn tip(&self) -> Option<&BlockHeader> {
        self.blocks.last().map(|b| &b.header)
    }

    fn check_extends(&self, header: &BlockHeader) -> Result<(), LedgerError> {
        let prev = self.tip().map_or([0u8; 32], BlockHeader::hash);
        check_link(self.height(), &prev, header)
    }

    /// Fully verifies that `block` is the next block of this chain —
    /// number, hash link, then the Merkle root — without storing it, so a
    /// committer can reject a block before it writes or mutates anything
    /// and [`BlockStore::append`] the result afterwards at no further
    /// hashing cost.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::NonContiguousBlock`] on a gap or replay.
    /// * [`LedgerError::BrokenHashChain`] on a bad previous-hash link.
    /// * [`LedgerError::DataHashMismatch`] when transactions don't match the
    ///   header commitment.
    // lint:allow(obs: "in-memory validation with no span of its own; Peer::validate_and_commit surfaces the rejection to the orderer-facing caller")
    pub fn verify_next(&self, block: Block) -> Result<VerifiedBlock, LedgerError> {
        self.check_extends(&block.header)?;
        VerifiedBlock::new(block)
    }

    /// Appends a verified block after checking its number and hash link.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::NonContiguousBlock`] on a gap or replay.
    /// * [`LedgerError::BrokenHashChain`] on a bad previous-hash link.
    // lint:allow(obs: "in-memory validation with no span of its own; the durable caller, FileBackend::append_block or the recovery.verify span in FileBackend::load, records the error")
    pub fn append(&mut self, block: VerifiedBlock) -> Result<(), LedgerError> {
        self.check_extends(&block.0.header)?;
        self.blocks.push(block.0);
        Ok(())
    }

    /// Registers a transaction id for lookup via [`BlockStore::find_tx`].
    ///
    /// Duplicates are **first-write-wins**: the chain position a txid was
    /// first committed at is authoritative, and a later colliding id must
    /// not silently redirect [`BlockStore::find_tx`] to a newer payload.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::DuplicateTxId`] when `txid` is already
    /// indexed; the existing mapping is left untouched.
    // lint:allow(obs: "DuplicateTxId is a normal idempotency outcome; the replaying caller decides whether it is an error and records it on its own span")
    pub fn index_tx(
        &mut self,
        txid: impl Into<String>,
        block: u64,
        tx_index: usize,
    ) -> Result<(), LedgerError> {
        match self.tx_index.entry(txid.into()) {
            std::collections::hash_map::Entry::Occupied(e) => {
                Err(LedgerError::DuplicateTxId(e.key().clone()))
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((block, tx_index));
                Ok(())
            }
        }
    }

    /// Fetches a block by number.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::BlockNotFound`] when out of range.
    // lint:allow(obs: "NotFound on a lookup is a normal query outcome, not an incident; the query span in the fabric layer records genuine failures")
    pub fn block(&self, number: u64) -> Result<&Block, LedgerError> {
        self.blocks
            .get(number as usize)
            .ok_or(LedgerError::BlockNotFound(number))
    }

    /// Looks up a transaction payload by id.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::TxNotFound`] for unknown ids.
    // lint:allow(obs: "NotFound on a lookup is a normal query outcome, not an incident; the query span in the fabric layer records genuine failures")
    pub fn find_tx(&self, txid: &str) -> Result<&[u8], LedgerError> {
        let (block, idx) = self
            .tx_index
            .get(txid)
            .ok_or_else(|| LedgerError::TxNotFound(txid.to_string()))?;
        let block = self.block(*block)?;
        block
            .transactions
            .get(*idx)
            .map(Vec::as_slice)
            .ok_or_else(|| LedgerError::TxNotFound(txid.to_string()))
    }

    /// Iterates blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Every block, genesis first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Audits the whole stored chain again: links, numbers, and data
    /// hashes (the store only ever admitted verified blocks; this guards
    /// against memory corruption and bugs, and re-hashes by design).
    ///
    /// # Errors
    ///
    /// Returns the first integrity violation found.
    // lint:allow(obs: "pure audit over in-memory state; callers run it under their own test or diagnostic span and record the violation there")
    pub fn verify_chain(&self) -> Result<(), LedgerError> {
        let mut prev = [0u8; 32];
        for (i, block) in self.blocks.iter().enumerate() {
            check_link(i as u64, &prev, &block.header)?;
            if !block.data_hash_valid() {
                return Err(LedgerError::DataHashMismatch {
                    block: block.header.number,
                });
            }
            prev = block.hash();
        }
        Ok(())
    }

    /// Total number of transactions across all blocks.
    pub fn total_txs(&self) -> usize {
        self.blocks.iter().map(Block::tx_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verify-then-append, as the commit path does it.
    fn push(store: &mut BlockStore, block: Block) -> Result<(), LedgerError> {
        let verified = store.verify_next(block)?;
        store.append(verified)
    }

    fn chain(n: usize) -> BlockStore {
        let mut store = BlockStore::new();
        push(&mut store, Block::genesis(vec![b"cfg".to_vec()])).unwrap();
        for i in 1..n {
            let tip = store.tip().unwrap().clone();
            push(
                &mut store,
                Block::next(&tip, vec![format!("tx-{i}").into_bytes()]),
            )
            .unwrap();
        }
        store
    }

    #[test]
    fn append_and_height() {
        let store = chain(5);
        assert_eq!(store.height(), 5);
        assert_eq!(store.total_txs(), 5);
        assert!(store.verify_chain().is_ok());
    }

    #[test]
    fn rejects_wrong_number() {
        let mut store = chain(2);
        let tip = store.tip().unwrap().clone();
        let mut block = Block::next(&tip, vec![]);
        block.header.number = 7;
        assert!(matches!(
            push(&mut store, block),
            Err(LedgerError::NonContiguousBlock {
                expected: 2,
                got: 7
            })
        ));
    }

    #[test]
    fn rejects_broken_link() {
        let mut store = chain(2);
        let tip = store.tip().unwrap().clone();
        let mut block = Block::next(&tip, vec![]);
        block.header.prev_hash = [9u8; 32];
        assert!(matches!(
            push(&mut store, block),
            Err(LedgerError::BrokenHashChain { block: 2 })
        ));
    }

    #[test]
    fn rejects_bad_genesis_link() {
        let mut store = BlockStore::new();
        let mut g = Block::genesis(vec![]);
        g.header.prev_hash = [1u8; 32];
        assert!(push(&mut store, g).is_err());
    }

    #[test]
    fn rejects_tampered_data() {
        let mut store = chain(1);
        let tip = store.tip().unwrap().clone();
        let mut block = Block::next(&tip, vec![b"tx".to_vec()]);
        block.transactions[0] = b"changed".to_vec();
        assert!(matches!(
            push(&mut store, block),
            Err(LedgerError::DataHashMismatch { block: 1 })
        ));
    }

    #[test]
    fn append_checks_the_link_of_a_block_verified_elsewhere() {
        // A block verified against one store is only data-hash-verified as
        // far as any other store is concerned: position is checked on
        // every append.
        let mut store = chain(2);
        let other = chain(3);
        let tip = other.tip().unwrap().clone();
        let foreign = other.verify_next(Block::next(&tip, vec![])).unwrap();
        assert_eq!(
            store.append(foreign),
            Err(LedgerError::NonContiguousBlock {
                expected: 2,
                got: 3
            })
        );
        let stale = VerifiedBlock::new(Block::genesis(vec![b"cfg".to_vec()])).unwrap();
        assert!(store.append(stale).is_err());
        assert_eq!(store.height(), 2);
    }

    #[test]
    fn validation_flags_may_change_after_verification() {
        let mut block = VerifiedBlock::new(Block::genesis(vec![b"cfg".to_vec()])).unwrap();
        block.set_tx_validation(vec![TxValidationCode::Valid]);
        assert_eq!(
            block.block().metadata.tx_validation,
            vec![TxValidationCode::Valid]
        );
        assert!(block.block().data_hash_valid());
    }

    #[test]
    fn block_lookup() {
        let store = chain(3);
        assert_eq!(store.block(0).unwrap().header.number, 0);
        assert_eq!(store.block(2).unwrap().header.number, 2);
        assert_eq!(store.block(3).unwrap_err(), LedgerError::BlockNotFound(3));
    }

    #[test]
    fn tx_index_lookup() {
        let mut store = chain(3);
        store.index_tx("tx-1", 1, 0).unwrap();
        assert_eq!(store.find_tx("tx-1").unwrap(), b"tx-1");
        assert_eq!(
            store.find_tx("missing").unwrap_err(),
            LedgerError::TxNotFound("missing".into())
        );
    }

    #[test]
    fn duplicate_txid_is_first_write_wins() {
        let mut store = chain(3);
        store.index_tx("tx-1", 1, 0).unwrap();
        // A later block smuggling the same txid must not redirect lookup.
        assert_eq!(
            store.index_tx("tx-1", 2, 0),
            Err(LedgerError::DuplicateTxId("tx-1".into()))
        );
        assert_eq!(store.find_tx("tx-1").unwrap(), b"tx-1");
    }

    #[test]
    fn verify_chain_detects_retroactive_tampering() {
        let mut store = chain(4);
        // Tamper with a middle block's payload directly.
        store.blocks[2].transactions[0] = b"forged".to_vec();
        assert!(matches!(
            store.verify_chain(),
            Err(LedgerError::DataHashMismatch { block: 2 })
        ));
    }

    #[test]
    fn iter_in_order() {
        let store = chain(3);
        let numbers: Vec<u64> = store.iter().map(|b| b.header.number).collect();
        assert_eq!(numbers, vec![0, 1, 2]);
    }
}
