//! A single peer over the durable file backend on a real directory — the
//! one path the two-network fixture cannot reach (`NetworkBuilder` only
//! builds in-memory peers) — plus the generator of the endorsed blocks it
//! commits and a counting decorator around the disk.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::harness::loadgen::SplitMix64;
use tdt_crypto::cert::{CertRole, Certificate};
use tdt_crypto::group::Group;
use tdt_fabric::chaincode::ChaincodeRegistry;
use tdt_fabric::endorse::{Endorsement, TransactionEnvelope};
use tdt_fabric::msp::{Identity, Msp, MspRegistry};
use tdt_fabric::peer::Peer;
use tdt_fabric::policy::EndorsementPolicy;
use tdt_ledger::block::{Block, BlockHeader};
use tdt_ledger::rwset::TxRwSet;
use tdt_ledger::storage::file::{FileBackend, FileConfig};
use tdt_ledger::storage::vfs::{StdVfs, Vfs, VfsError};
use tdt_ledger::storage::RecoveryReport;
use tdt_wire::codec::Message;

/// Transactions per block.
pub const TXS_PER_BLOCK: usize = 10;
/// World-state keys the blind writes cycle over (bounds snapshot size; a
/// key recurs only every 200 blocks, so no MVCC conflicts).
pub const KEYS: usize = 2_000;
/// Bytes written per transaction: the size of an encoded two-attestation
/// proof, which is what the step-10 commit stores.
pub const VALUE_BYTES: usize = 1_700;

const NETWORK: &str = "durable-net";
const CHAINCODE: &str = "kv";
const ORGS: [&str; 2] = ["org-a", "org-b"];

/// Counts what reaches the disk.
#[derive(Debug, Default)]
pub struct DiskCounters {
    syncs: AtomicU64,
    bytes: AtomicU64,
}

impl DiskCounters {
    /// `fsync`s issued (file syncs; a rename's directory sync is folded
    /// into the rename by the `Vfs` contract and counted as one).
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Bytes handed to `append` and `create`.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// A [`Vfs`] decorator that counts syncs and written bytes and otherwise
/// forwards every call unchanged.
#[derive(Debug)]
pub struct CountingVfs<V> {
    inner: V,
    counters: Arc<DiskCounters>,
}

impl<V: Vfs> CountingVfs<V> {
    /// Wraps `inner`.
    pub fn new(inner: V) -> Self {
        CountingVfs {
            inner,
            counters: Arc::new(DiskCounters::default()),
        }
    }

    /// The shared counters.
    pub fn counters(&self) -> Arc<DiskCounters> {
        Arc::clone(&self.counters)
    }
}

impl<V: Vfs> Vfs for CountingVfs<V> {
    fn read(&self, path: &str) -> Result<Vec<u8>, VfsError> {
        self.inner.read(path)
    }

    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), VfsError> {
        self.counters
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(path, bytes)
    }

    fn create(&self, path: &str, bytes: &[u8]) -> Result<(), VfsError> {
        self.counters
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.create(path, bytes)
    }

    fn sync(&self, path: &str) -> Result<(), VfsError> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync(path)
    }

    fn truncate(&self, path: &str, len: u64) -> Result<(), VfsError> {
        self.inner.truncate(path, len)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), VfsError> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &str) -> Result<(), VfsError> {
        self.inner.remove(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn len(&self, path: &str) -> Result<u64, VfsError> {
        self.inner.len(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, VfsError> {
        self.inner.list(prefix)
    }
}

/// Generates the chain the durable workloads commit: every transaction a
/// blind proof-sized write endorsed by both organizations under an
/// `all_of` policy — the shape of the SWT step-10 commit.
pub struct BlockSource {
    endorsers: Vec<Identity>,
    creator: Certificate,
    prev: BlockHeader,
    next_tx: usize,
    rng: SplitMix64,
}

impl BlockSource {
    /// The genesis block this source's chain starts from.
    pub fn genesis() -> Block {
        Block::genesis(vec![format!("network={NETWORK}").into_bytes()])
    }

    /// The next block: [`TXS_PER_BLOCK`] endorsed envelopes chained onto
    /// the previous block this source produced.
    pub fn next_block(&mut self) -> Block {
        let txs = (0..TXS_PER_BLOCK).map(|_| self.next_envelope()).collect();
        let block = Block::next(&self.prev, txs);
        self.prev = block.header.clone();
        block
    }

    fn next_envelope(&mut self) -> Vec<u8> {
        let i = self.next_tx;
        self.next_tx += 1;
        let mut value = vec![0u8; VALUE_BYTES];
        self.rng.fill(&mut value);
        let mut rwset = TxRwSet::new();
        rwset.record_write(CHAINCODE, &format!("k{:06}", i % KEYS), Some(value));
        let mut envelope = TransactionEnvelope {
            txid: format!("tx{i:012}"),
            channel: "ch".into(),
            chaincode: CHAINCODE.into(),
            result: Vec::new(),
            rwset,
            endorsements: Vec::new(),
            creator_cert: self.creator.clone(),
        };
        let payload = envelope.response_payload().canonical_bytes();
        envelope.endorsements = self
            .endorsers
            .iter()
            .map(|e| Endorsement {
                endorser_cert: e.certificate().clone(),
                signature: e.sign(&payload),
            })
            .collect();
        envelope.encode_to_vec()
    }

    /// Transaction ids this source has produced so far.
    pub fn txids(&self) -> impl Iterator<Item = String> {
        (0..self.next_tx).map(|i| format!("tx{i:012}"))
    }
}

/// What a peer's durable state looked like at some instant; equal before
/// a drop and after the reopen, or recovery lost something.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Chain height.
    pub height: u64,
    /// World-state digest.
    pub state_hash: [u8; 32],
}

/// One reopen, split the way `RecoveryReport` allows.
#[derive(Debug, Clone)]
pub struct Reopen {
    /// Wall time of `Peer::with_backend`.
    pub total: Duration,
    /// What the backend found and did.
    pub report: RecoveryReport,
}

/// The durable peer and everything needed to reopen it.
pub struct DurableLedger {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    counters: Arc<DiskCounters>,
    peer: Option<Peer>,
    peer_identity: Identity,
    registry: Arc<ChaincodeRegistry>,
    msp_registry: Arc<MspRegistry>,
    policies: Arc<HashMap<String, EndorsementPolicy>>,
}

impl DurableLedger {
    /// Creates `dir` (which must not exist), opens a peer over
    /// `FileBackend` on `StdVfs` with `FileConfig::default()`, commits the
    /// genesis block, and returns the ledger with the block source whose
    /// payloads `seed` determines.
    ///
    /// # Errors
    ///
    /// A description of the first step that failed.
    pub fn create(dir: &Path, seed: u64) -> Result<(DurableLedger, BlockSource), String> {
        if dir.exists() {
            return Err(format!("{} already exists", dir.display()));
        }
        let std_vfs = StdVfs::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        let counting = CountingVfs::new(std_vfs);
        let counters = counting.counters();

        let mut msp_registry = MspRegistry::new();
        let mut endorsers = Vec::new();
        let mut identities = Vec::new();
        for org in ORGS {
            let mut msp = Msp::new(NETWORK, org, Group::test_group(), b"tdtbench");
            msp_registry.register(org, msp.root_certificate().clone());
            endorsers.push(msp.enroll("peer0", CertRole::Peer, false));
            identities.push(msp.enroll("client", CertRole::Client, false));
        }
        let policies = HashMap::from([(CHAINCODE.to_string(), EndorsementPolicy::all_of(ORGS))]);
        let mut ledger = DurableLedger {
            dir: dir.to_path_buf(),
            vfs: Arc::new(counting),
            counters,
            peer: None,
            peer_identity: endorsers[0].clone(),
            registry: Arc::new(ChaincodeRegistry::new()),
            msp_registry: Arc::new(msp_registry),
            policies: Arc::new(policies),
        };
        ledger.reopen()?;
        let genesis = BlockSource::genesis();
        let prev = genesis.header.clone();
        ledger.commit(genesis)?;
        let source = BlockSource {
            endorsers,
            creator: identities[0].certificate().clone(),
            prev,
            next_tx: 0,
            rng: SplitMix64::for_lane(seed, 0xb10c),
        };
        Ok((ledger, source))
    }

    /// Validates and durably commits `block`; every transaction must come
    /// out `Valid`.
    ///
    /// # Errors
    ///
    /// The commit error, or the first invalid transaction's code.
    pub fn commit(&mut self, block: Block) -> Result<(), String> {
        let number = block.header.number;
        let peer = self.peer.as_mut().ok_or("ledger is closed")?;
        let codes = peer
            .validate_and_commit(block)
            .map_err(|e| format!("commit block {number}: {e}"))?;
        match codes.iter().find(|c| !c.is_valid()) {
            None => Ok(()),
            Some(code) => Err(format!("block {number}: transaction invalidated: {code:?}")),
        }
    }

    /// Drops the peer (as a crash after the last fsync would) and opens a
    /// new one over the same directory with `Peer::with_backend`.
    ///
    /// # Errors
    ///
    /// The recovery error.
    pub fn reopen(&mut self) -> Result<Reopen, String> {
        self.peer = None;
        let backend = Box::new(FileBackend::new(
            Arc::clone(&self.vfs),
            FileConfig::default(),
        ));
        let started = Instant::now();
        let peer = Peer::with_backend(
            NETWORK,
            ORGS[0],
            "peer0",
            self.peer_identity.clone(),
            Arc::clone(&self.registry),
            Arc::clone(&self.msp_registry),
            Arc::clone(&self.policies),
            backend,
        )
        .map_err(|e| format!("recover {}: {e}", self.dir.display()))?;
        let total = started.elapsed();
        let report = peer
            .recovery_report()
            .cloned()
            .ok_or("peer opened via with_backend has no recovery report")?;
        self.peer = Some(peer);
        Ok(Reopen { total, report })
    }

    /// The open peer.
    ///
    /// # Panics
    ///
    /// Panics when a failed reopen left the ledger closed.
    pub fn peer(&self) -> &Peer {
        self.peer.as_ref().expect("ledger is open")
    }

    /// Height and state digest of the open peer.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            height: self.peer().height(),
            state_hash: self.peer().state_hash(),
        }
    }

    /// Checks that every transaction id resolves in the open peer's index.
    ///
    /// # Errors
    ///
    /// Names the first id that does not resolve.
    pub fn check_lookups(&self, txids: impl Iterator<Item = String>) -> Result<(), String> {
        for txid in txids {
            self.peer()
                .store()
                .find_tx(&txid)
                .map_err(|e| format!("lookup {txid}: {e}"))?;
        }
        Ok(())
    }

    /// What has reached the disk through this ledger.
    pub fn disk(&self) -> &DiskCounters {
        &self.counters
    }
}

impl Drop for DurableLedger {
    fn drop(&mut self) {
        self.peer = None;
        // Best effort: the run directory as a whole is removed at exit.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
