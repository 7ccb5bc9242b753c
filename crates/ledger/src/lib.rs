#![warn(missing_docs)]

//! Ledger substrate: the data structures every permissioned blockchain in
//! this workspace is built on.
//!
//! * [`block`] — hash-chained blocks with Merkle data hashes.
//! * [`merkle`] — binary Merkle trees with inclusion proofs.
//! * [`rwset`] — transaction read/write sets (the unit of Fabric-style
//!   execute-order-validate processing).
//! * [`state`] — a versioned key-value world state with MVCC validation.
//! * [`store`] — the append-only block store, the one owner of chain
//!   verification.
//! * [`history`] — per-key value history for provenance queries.
//! * [`storage`] — durable persistence: a pluggable backend seam with a
//!   WAL + snapshot file backend, crash recovery, and seeded disk-fault
//!   injection.
//! * [`par`] — the contiguous-chunk thread fan-out crash recovery runs on.
//!
//! # Example
//!
//! ```
//! use tdt_ledger::block::Block;
//! use tdt_ledger::store::BlockStore;
//!
//! let mut store = BlockStore::new();
//! let genesis = Block::genesis(vec![b"config-tx".to_vec()]);
//! let verified = store.verify_next(genesis)?;
//! store.append(verified)?;
//! assert_eq!(store.height(), 1);
//! # Ok::<(), tdt_ledger::LedgerError>(())
//! ```

pub mod block;
pub mod error;
pub mod history;
pub mod merkle;
pub mod par;
pub mod rwset;
pub mod state;
pub mod storage;
pub mod store;

pub use error::LedgerError;
