//! Ledger substrate error type.

use std::error::Error;
use std::fmt;

/// Errors raised by ledger data structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// A block's number did not continue the chain.
    NonContiguousBlock {
        /// The height the chain expected next.
        expected: u64,
        /// The number the block carried.
        got: u64,
    },
    /// A block's previous-hash link did not match the chain tip.
    BrokenHashChain {
        /// The offending block number.
        block: u64,
    },
    /// A block's data hash did not match its transactions.
    DataHashMismatch {
        /// The offending block number.
        block: u64,
    },
    /// A requested block does not exist.
    BlockNotFound(u64),
    /// A requested transaction id does not exist.
    TxNotFound(String),
    /// A transaction id was already indexed (first write wins; the
    /// existing mapping is authoritative).
    DuplicateTxId(String),
    /// The durable storage backend failed.
    Storage(crate::storage::StorageError),
}

impl From<crate::storage::StorageError> for LedgerError {
    fn from(e: crate::storage::StorageError) -> Self {
        LedgerError::Storage(e)
    }
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::NonContiguousBlock { expected, got } => {
                write!(f, "expected block number {expected}, got {got}")
            }
            LedgerError::BrokenHashChain { block } => {
                write!(f, "block {block} does not link to the previous block hash")
            }
            LedgerError::DataHashMismatch { block } => {
                write!(f, "block {block} data hash does not match its transactions")
            }
            LedgerError::BlockNotFound(n) => write!(f, "block {n} not found"),
            LedgerError::TxNotFound(id) => write!(f, "transaction {id:?} not found"),
            LedgerError::DuplicateTxId(id) => {
                write!(
                    f,
                    "transaction id {id:?} already indexed (first write wins)"
                )
            }
            LedgerError::Storage(e) => write!(f, "storage backend: {e}"),
        }
    }
}

impl Error for LedgerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            LedgerError::NonContiguousBlock {
                expected: 1,
                got: 3,
            },
            LedgerError::BrokenHashChain { block: 2 },
            LedgerError::DataHashMismatch { block: 2 },
            LedgerError::BlockNotFound(9),
            LedgerError::TxNotFound("tx".into()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
