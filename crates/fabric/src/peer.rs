//! Peers: simulation (endorsement) and validation/commit.
//!
//! Every peer maintains its own block store and world state replica. The
//! commit path re-validates everything — endorsement certificates against
//! the MSP registry, endorsement signatures against the reconstructed
//! proposal-response payload, the chaincode's endorsement policy, and MVCC
//! read versions — so a single faulty peer cannot corrupt honest replicas.
//! Endorsements are authenticated for a whole block at once (cached
//! identities, one batch verification) before the serial policy + MVCC
//! pass.

use crate::chaincode::{ChaincodeRegistry, PeerInfo, Proposal, TxContext};
use crate::endorse::{
    DefaultEndorsement, Endorsement, EndorsementPlugin, ProposalResponsePayload, SimulationResult,
    TransactionEnvelope,
};
use crate::error::FabricError;
use crate::msp::{Identity, MspRegistry};
use crate::policy::EndorsementPolicy;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tdt_crypto::cert::CertRole;
use tdt_crypto::group::FixedBaseTable;
use tdt_crypto::schnorr::{batch_verify, BatchItem, Signature, VerifyingKey};
use tdt_ledger::block::{Block, TxValidationCode};
use tdt_ledger::history::HistoryIndex;
use tdt_ledger::rwset::{TxRwSet, Version};
use tdt_ledger::state::{StagedState, WorldState};
use tdt_ledger::storage::{
    InMemoryBackend, Recovered, RecoveryReport, Snapshot, StorageBackend, StorageStats,
};
use tdt_ledger::store::{BlockStore, VerifiedBlock};
use tdt_obs::par;
use tdt_obs::span::{self as obs_span, RecordErr};
use tdt_wire::codec::Message;

/// A peer node: endorser + committer with its own ledger replica.
#[derive(Debug)]
pub struct Peer {
    network_id: String,
    org_id: String,
    name: String,
    identity: Identity,
    registry: Arc<ChaincodeRegistry>,
    msp_registry: Arc<MspRegistry>,
    policies: Arc<HashMap<String, EndorsementPolicy>>,
    store: BlockStore,
    state: WorldState,
    history: HistoryIndex,
    backend: Box<dyn StorageBackend>,
    last_recovery: Option<RecoveryReport>,
}

impl Peer {
    /// Creates a peer with an empty, volatile ledger (the in-memory
    /// storage backend — nothing survives a restart).
    pub fn new(
        network_id: impl Into<String>,
        org_id: impl Into<String>,
        name: impl Into<String>,
        identity: Identity,
        registry: Arc<ChaincodeRegistry>,
        msp_registry: Arc<MspRegistry>,
        policies: Arc<HashMap<String, EndorsementPolicy>>,
    ) -> Self {
        Peer {
            network_id: network_id.into(),
            org_id: org_id.into(),
            name: name.into(),
            identity,
            registry,
            msp_registry,
            policies,
            store: BlockStore::new(),
            state: WorldState::new(),
            history: HistoryIndex::new(),
            backend: Box::new(InMemoryBackend::new()),
            last_recovery: None,
        }
    }

    /// Opens a peer over a durable storage backend, running recovery
    /// before serving: the backend returns its verified chain (WAL scan,
    /// tail truncation, Merkle + link verification — each done once, by
    /// `tdt_ledger::store`) as a [`BlockStore`] plus the newest
    /// state-hash-verified snapshot. The peer adopts the store as it is
    /// and rebuilds **all** derived state — `tx_index` from every block
    /// (first write wins), world state and history by replaying valid
    /// transactions above the snapshot height. Derived state is never
    /// persisted separately, so no crash point can desync lookup
    /// structures from the chain.
    ///
    /// # Errors
    ///
    /// Environmental storage failures.
    #[allow(clippy::too_many_arguments)] // Peer::new's seven identity/config handles, plus the backend.
    pub fn with_backend(
        network_id: impl Into<String>,
        org_id: impl Into<String>,
        name: impl Into<String>,
        identity: Identity,
        registry: Arc<ChaincodeRegistry>,
        msp_registry: Arc<MspRegistry>,
        policies: Arc<HashMap<String, EndorsementPolicy>>,
        mut backend: Box<dyn StorageBackend>,
    ) -> Result<Self, FabricError> {
        let Recovered {
            chain: mut store,
            snapshot,
            report,
        } = backend.load()?;
        let stats = backend.stats();
        let (snapshot_height, mut state, mut history) = match snapshot {
            Some(snapshot) => (snapshot.height, snapshot.state, snapshot.history),
            None => (0, WorldState::new(), HistoryIndex::new()),
        };
        // Replay is the last recovery phase, owned by the peer because
        // only it holds the derived-state structures. Mirror the span /
        // phase-gauge / flight breadcrumbs the storage phases leave (see
        // `tdt_ledger::storage::recovery_phase`) so a startup stuck here
        // is distinguishable from one stuck scanning the WAL.
        let _trace_guard = match tdt_obs::TraceContext::current() {
            Some(_) => tdt_obs::ContextGuard::noop(),
            None => tdt_obs::TraceContext::root().install(),
        };
        let (_replay_span, _replay_guard) = obs_span::enter("recovery.replay");
        stats.set_recovery_phase(
            tdt_ledger::storage::recovery_phase::REPLAY,
            report.replayed_blocks,
        );
        replay(
            &mut store,
            &mut state,
            &mut history,
            snapshot_height,
            &stats,
            None,
        );
        stats.set_recovery_phase(
            tdt_ledger::storage::recovery_phase::IDLE,
            report.chain_height,
        );
        Ok(Peer {
            network_id: network_id.into(),
            org_id: org_id.into(),
            name: name.into(),
            identity,
            registry,
            msp_registry,
            policies,
            store,
            state,
            history,
            last_recovery: Some(report),
            backend,
        })
    }

    /// The storage stats bag (metrics bridges, soak assertions).
    pub fn storage_stats(&self) -> Arc<StorageStats> {
        self.backend.stats()
    }

    /// What the last recovery pass found, when this peer was opened via
    /// [`Peer::with_backend`].
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// Qualified peer id `network/org/name`.
    pub fn qualified_name(&self) -> String {
        format!("{}/{}/{}", self.network_id, self.org_id, self.name)
    }

    /// The peer's organization.
    pub fn org_id(&self) -> &str {
        &self.org_id
    }

    /// The peer's own identity (certificate + keys).
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// Current chain height.
    pub fn height(&self) -> u64 {
        self.store.height()
    }

    /// Read access to the committed world state (tests, diagnostics).
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    /// Read access to the block store.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Per-key history index.
    pub fn history(&self) -> &HistoryIndex {
        &self.history
    }

    /// Deterministic digest of this replica's world state (for
    /// replica-consistency checks).
    pub fn state_hash(&self) -> [u8; 32] {
        self.state.state_hash()
    }

    fn peer_info(&self) -> PeerInfo {
        PeerInfo {
            peer_id: self.qualified_name(),
            org_id: self.org_id.clone(),
            network_id: self.network_id.clone(),
            ledger_height: self.store.height(),
        }
    }

    /// Simulates a proposal against this peer's current state.
    ///
    /// Local proposals must carry a valid creator signature and a creator
    /// certificate that validates against the network's MSPs. A relay
    /// proposal's *foreign* creator passes the Exposure Control contract's
    /// gate instead, before any contract code runs (paper §4.3).
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] on authentication failure, unknown
    /// chaincode, or chaincode business errors.
    pub fn simulate(&self, proposal: &Proposal) -> Result<SimulationResult, FabricError> {
        let (mut span, _obs_guard) = obs_span::enter("contract.execute");
        self.simulate_inner(proposal).record_err(&mut span)
    }

    fn simulate_inner(&self, proposal: &Proposal) -> Result<SimulationResult, FabricError> {
        if !proposal.relay_query {
            // No key table for creators: requesters rotate, and a table
            // built for each would push the endorsers' out of the cache.
            match self.msp_registry.verified_key(&proposal.creator) {
                Ok(key) => proposal.verify_signature_with(&key)?,
                Err(identity_invalid) => {
                    // Off the hot path; a bad signature is reported ahead
                    // of an invalid identity.
                    proposal.verify_signature()?;
                    return Err(identity_invalid);
                }
            }
        }
        let mut ctx = TxContext::new(&self.state, &self.registry, proposal, self.peer_info())
            .with_history(&self.history);
        ctx.admit()?;
        let code = self
            .registry
            .get(&proposal.chaincode)
            .ok_or_else(|| FabricError::ChaincodeNotDeployed(proposal.chaincode.clone()))?;
        let result = code.invoke(&mut ctx, &proposal.function, &proposal.args)?;
        Ok(SimulationResult {
            result,
            rwset: ctx.into_rwset(),
        })
    }

    /// Endorses a simulation result for a regular transaction using the
    /// default endorsement plugin.
    ///
    /// # Errors
    ///
    /// Propagates plugin failures.
    pub fn endorse_transaction(
        &self,
        proposal: &Proposal,
        sim: &SimulationResult,
    ) -> Result<Endorsement, FabricError> {
        let payload = ProposalResponsePayload::new(&proposal.txid, &proposal.chaincode, sim);
        let out =
            DefaultEndorsement.endorse(&self.identity, &payload.canonical_bytes(), proposal)?;
        Ok(Endorsement {
            endorser_cert: self.identity.certificate().clone(),
            signature: out.signature,
        })
    }

    /// Endorses with a custom plugin, returning the raw plugin output (used
    /// by the interop query path, which encrypts metadata).
    ///
    /// # Errors
    ///
    /// Propagates plugin failures.
    pub fn endorse_with_plugin(
        &self,
        proposal: &Proposal,
        payload: &[u8],
        plugin: &dyn EndorsementPlugin,
    ) -> Result<crate::endorse::PluginOutput, FabricError> {
        let (mut span, _obs_guard) = obs_span::enter("peer.endorse");
        plugin
            .endorse(&self.identity, payload, proposal)
            .record_err(&mut span)
    }

    /// Phase one of block validation: authenticates every endorsement of
    /// every decoded envelope. Per transaction, `Some(orgs)` lists the
    /// distinct endorsing organizations in endorsement order; `None` means
    /// the envelope did not decode or one of its endorsements failed
    /// (non-peer endorser, certificate not chaining to its MSP root,
    /// undecodable key, bad signature).
    ///
    /// Certificates resolve through the network's verified-identity cache;
    /// the signatures of the whole block then go through **one**
    /// [`batch_verify`] per group, which fans the exponentiations out over
    /// the cores when they are worth a thread (`tdt_obs::par`: a
    /// 20-signature modp768 block is, a 2-signature one is not). When an
    /// aggregate fails, each transaction of that group is re-checked as its
    /// own batch — twice the signature work at worst, so a block stuffed
    /// with forgeries stays linear.
    fn verify_endorsements(
        &self,
        envelopes: &[Option<TransactionEnvelope>],
    ) -> Vec<Option<Vec<String>>> {
        let payloads: Vec<Vec<u8>> = envelopes
            .iter()
            .map(|e| {
                e.as_ref()
                    .map_or_else(Vec::new, |e| e.response_payload().canonical_bytes())
            })
            .collect();
        let mut endorsing_orgs = Vec::with_capacity(envelopes.len());
        // Signatures awaiting verification, by group, in transaction order.
        let mut by_group: BTreeMap<&'static str, Vec<PendingSignature<'_>>> = BTreeMap::new();
        for (tx, (envelope, payload)) in envelopes.iter().zip(&payloads).enumerate() {
            let endorsers = envelope
                .as_ref()
                .and_then(|envelope| self.endorsers(tx, envelope, payload));
            // All of a transaction's endorsements or none: a transaction
            // already known bad puts no work into the batch.
            endorsing_orgs.push(endorsers.map(|(orgs, pending)| {
                for p in pending {
                    by_group.entry(p.key.group().name()).or_default().push(p);
                }
                orgs
            }));
        }
        for pending in by_group.values() {
            if PendingSignature::all_verify(pending) {
                continue;
            }
            for of_one_tx in pending.chunk_by(|a, b| a.tx == b.tx) {
                if !PendingSignature::all_verify(of_one_tx) {
                    let failed = of_one_tx.first().map(|p| p.tx);
                    if let Some(slot) = failed.and_then(|tx| endorsing_orgs.get_mut(tx)) {
                        *slot = None;
                    }
                }
            }
        }
        endorsing_orgs
    }

    /// The endorsing organizations of transaction `tx` and its signatures
    /// still to verify, or `None` when an endorser is not a peer or does
    /// not resolve to a verified key.
    fn endorsers<'a>(
        &self,
        tx: usize,
        envelope: &'a TransactionEnvelope,
        payload: &'a [u8],
    ) -> Option<(Vec<String>, Vec<PendingSignature<'a>>)> {
        let mut orgs: Vec<String> = Vec::new();
        let mut pending = Vec::with_capacity(envelope.endorsements.len());
        for endorsement in &envelope.endorsements {
            let cert = &endorsement.endorser_cert;
            if cert.subject().role != CertRole::Peer {
                return None;
            }
            let key = self.msp_registry.verified_key(cert).ok()?;
            // No eviction: more endorsers than the cache holds must not
            // rebuild a table per lookup.
            let table = self.msp_registry.cert_cache().key_table_if_room(&key);
            pending.push(PendingSignature {
                tx,
                key,
                table,
                payload,
                signature: &endorsement.signature,
            });
            if !orgs.contains(&cert.subject().organization) {
                orgs.push(cert.subject().organization.clone());
            }
        }
        Some((orgs, pending))
    }

    /// Phase two, per transaction and in block order: endorsement policy,
    /// then MVCC against a staged view of this peer's state (committed
    /// state + writes of earlier valid transactions in the block).
    fn validate_tx(
        &self,
        staged: &StagedState<'_>,
        envelope: &TransactionEnvelope,
        endorsing_orgs: Option<&[String]>,
    ) -> TxValidationCode {
        let Some(endorsing_orgs) = endorsing_orgs else {
            return TxValidationCode::BadEndorsementSignature;
        };
        let Some(policy) = self.policies.get(&envelope.chaincode) else {
            return TxValidationCode::BadPayload;
        };
        if !policy.is_satisfied(endorsing_orgs) {
            return TxValidationCode::EndorsementPolicyFailure;
        }
        if !staged.mvcc_check(&envelope.rwset) {
            return TxValidationCode::MvccConflict;
        }
        TxValidationCode::Valid
    }

    /// Validates and commits a block delivered by the ordering service.
    ///
    /// Returns the per-transaction validation codes. Invalid transactions
    /// are recorded in block metadata but their writes are not applied —
    /// Fabric's "validate" phase.
    ///
    /// Commit ordering is WAL-first: the block (with validation metadata)
    /// is durably appended to the storage backend *before* any in-memory
    /// structure mutates. Validation runs against a [`StagedState`]
    /// overlay, so a durable-append failure leaves the peer exactly as it
    /// was; once the append returns `Ok`, the commit survives any crash.
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] when the block itself does not extend the
    /// chain (wrong number, broken hash link, bad data hash) or when the
    /// storage backend cannot durably append it.
    pub fn validate_and_commit(
        &mut self,
        block: Block,
    ) -> Result<Vec<TxValidationCode>, FabricError> {
        // The one chain check — number, hash link, Merkle root — up front,
        // so nothing is written or mutated for a block that cannot be
        // appended, and nothing below hashes the block again.
        let block = self.store.verify_next(block)?;
        // Genesis/config blocks carry raw config payloads, not envelopes.
        let validated = if block.block().header.number == 0 {
            ValidatedBlock {
                codes: vec![TxValidationCode::Valid; block.block().tx_count()],
                valid: Vec::new(),
            }
        } else {
            self.validate_block(block.block())
        };
        self.commit_validated(block, validated)
    }

    /// Validates every transaction of `block` without touching live state.
    ///
    /// Two phases. Endorsement authentication reads no ledger state, so it
    /// runs first, for the whole block at once and across cores
    /// ([`Self::verify_endorsements`]). Policy and MVCC then run *serially*
    /// against a staged overlay: a transaction's MVCC check sees the writes
    /// of earlier valid transactions in the same block (Fabric semantics —
    /// two same-block conflicting writes cannot both commit), but the live
    /// world state stays untouched until the block is durable.
    fn validate_block(&self, block: &Block) -> ValidatedBlock {
        let block_number = block.header.number;
        let envelopes: Vec<Option<TransactionEnvelope>> = block
            .transactions
            .iter()
            .map(|tx_bytes| TransactionEnvelope::decode_from_slice(tx_bytes).ok())
            .collect();
        let endorsing_orgs = self.verify_endorsements(&envelopes);
        let mut validated = ValidatedBlock::default();
        let mut staged = StagedState::new(&self.state);
        for (i, (envelope, orgs)) in envelopes.into_iter().zip(&endorsing_orgs).enumerate() {
            let Some(envelope) = envelope else {
                validated.codes.push(TxValidationCode::BadPayload);
                continue;
            };
            let code = self.validate_tx(&staged, &envelope, orgs.as_deref());
            if code.is_valid() {
                staged.stage(&envelope.rwset, Version::new(block_number, i as u64));
                validated.valid.push((i, envelope));
            }
            validated.codes.push(code);
        }
        validated
    }

    /// Records the validation codes in the block, appends it durably, and
    /// only then applies the valid transactions.
    fn commit_validated(
        &mut self,
        mut block: VerifiedBlock,
        ValidatedBlock { codes, valid }: ValidatedBlock,
    ) -> Result<Vec<TxValidationCode>, FabricError> {
        let block_number = block.block().header.number;
        block.set_tx_validation(codes.clone());
        // Durability point: after this returns Ok the block is on disk
        // (or in the volatile backend, by choice) and must survive any
        // crash. Nothing has mutated yet, so a failure here is clean.
        self.backend.append_block(block.block())?;
        for (i, envelope) in valid {
            let version = Version::new(block_number, i as u64);
            self.state.apply(&envelope.rwset, version);
            self.history.record(&envelope.rwset, version);
            if self.store.index_tx(envelope.txid, block_number, i).is_err() {
                self.backend.stats().note_duplicate_txid();
            }
        }
        self.store.append(block)?;
        if self.backend.snapshot_due(block_number + 1) {
            let snapshot = Snapshot::capture(block_number + 1, &self.state, &self.history);
            // Snapshot failure is non-fatal (counted in stats): the WAL
            // already holds the commit; only recovery time is affected.
            let _ = self.backend.write_snapshot(&snapshot);
        }
        Ok(codes)
    }
}

/// Blocks decoded per round of [`replay`]: bounds how many decoded
/// read/write sets are resident at once on a long chain.
const REPLAY_WINDOW: usize = 256;

/// What replay keeps of one committed transaction.
struct ReplayedTx {
    version: Version,
    txid: String,
    /// The writes to re-apply; `None` below the snapshot height, where the
    /// snapshot already holds their effect.
    rwset: Option<TxRwSet>,
}

/// The valid transactions of `block`, each reduced to what replay needs
/// (the envelope's certificates and signatures are dropped on the spot).
fn replayed_txs(block: &Block, snapshot_height: u64) -> impl Iterator<Item = ReplayedTx> + '_ {
    let number = block.header.number;
    // Genesis carries raw config payloads, not envelopes.
    let envelopes = if number == 0 {
        &[][..]
    } else {
        block.transactions.as_slice()
    };
    envelopes
        .iter()
        .zip(&block.metadata.tx_validation)
        .enumerate()
        .filter(|(_, (_, code))| code.is_valid())
        .filter_map(move |(i, (tx_bytes, _))| {
            // A tx the committer validated must decode; treat decode
            // failure as an invalid tx, not a crash.
            let envelope = TransactionEnvelope::decode_from_slice(tx_bytes).ok()?;
            Some(ReplayedTx {
                version: Version::new(number, i as u64),
                txid: envelope.txid,
                rwset: (number >= snapshot_height).then_some(envelope.rwset),
            })
        })
}

/// Rebuilds derived state from a verified chain: the transaction index
/// from every block, world state and history from the blocks at or above
/// `snapshot_height`. Envelopes are decoded on `workers` threads (`None`:
/// as many as the window is worth) and applied in chain order on this one,
/// so first-write-wins and the outcome do not depend on the worker count.
fn replay(
    store: &mut BlockStore,
    state: &mut WorldState,
    history: &mut HistoryIndex,
    snapshot_height: u64,
    stats: &StorageStats,
    workers: Option<usize>,
) {
    let block_bytes = |block: &Block| block.transactions.iter().map(Vec::len).sum::<usize>();
    let height = store.blocks().len();
    for start in (0..height).step_by(REPLAY_WINDOW) {
        let window = store
            .blocks()
            .get(start..height.min(start + REPLAY_WINDOW))
            .unwrap_or(&[]);
        let (txs, ()) = par::map_chunks(
            window.iter().collect(),
            workers,
            |block| block_bytes(block),
            |blocks| {
                tdt_obs::profile_scope!("recovery.replay");
                blocks
                    .into_iter()
                    .flat_map(|block| replayed_txs(block, snapshot_height))
                    .collect()
            },
            || (),
        );
        for tx in txs {
            if let Some(rwset) = &tx.rwset {
                state.apply(rwset, tx.version);
                history.record(rwset, tx.version);
            }
            let (block, index) = (tx.version.block, tx.version.tx as usize);
            if store.index_tx(tx.txid, block, index).is_err() {
                stats.note_duplicate_txid();
            }
        }
    }
}

/// An endorsement whose certificate resolved, its signature unverified.
struct PendingSignature<'a> {
    /// Position of the endorsed transaction in its block.
    tx: usize,
    key: VerifyingKey,
    table: Option<Arc<FixedBaseTable>>,
    payload: &'a [u8],
    signature: &'a Signature,
}

impl PendingSignature<'_> {
    /// One batch verification over `pending` (all of one group).
    fn all_verify(pending: &[PendingSignature<'_>]) -> bool {
        let items: Vec<BatchItem<'_>> = pending
            .iter()
            .map(|p| BatchItem {
                key: &p.key,
                message: p.payload,
                signature: p.signature,
                table: p.table.clone(),
            })
            .collect();
        batch_verify(&items).is_ok()
    }
}

/// What validating a block decided: one code per transaction, and the
/// decoded envelopes of the valid ones with their positions.
#[derive(Default)]
struct ValidatedBlock {
    codes: Vec<TxValidationCode>,
    valid: Vec<(usize, TransactionEnvelope)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::Chaincode;
    use crate::error::ChaincodeError;
    use crate::msp::Msp;
    use tdt_crypto::group::Group;

    struct KvStore;

    impl Chaincode for KvStore {
        fn invoke(
            &self,
            ctx: &mut TxContext<'_>,
            function: &str,
            args: &[Vec<u8>],
        ) -> Result<Vec<u8>, ChaincodeError> {
            match function {
                "put" => {
                    let key = String::from_utf8_lossy(&args[0]).into_owned();
                    ctx.put_state(&key, args[1].clone());
                    Ok(Vec::new())
                }
                "get" => {
                    let key = String::from_utf8_lossy(&args[0]).into_owned();
                    ctx.get_state(&key).ok_or(ChaincodeError::NotFound(key))
                }
                f => Err(ChaincodeError::UnknownFunction(f.into())),
            }
        }
    }

    /// An ECC that admits every relay proposal.
    struct AdmitAll;

    impl Chaincode for AdmitAll {
        fn invoke(
            &self,
            _: &mut TxContext<'_>,
            _: &str,
            _: &[Vec<u8>],
        ) -> Result<Vec<u8>, ChaincodeError> {
            Ok(Vec::new())
        }
    }

    struct Fixture {
        peer: Peer,
        client: Identity,
    }

    struct Parts {
        peer_id: Identity,
        client: Identity,
        registry: Arc<ChaincodeRegistry>,
        msp_registry: Arc<MspRegistry>,
        policies: Arc<HashMap<String, EndorsementPolicy>>,
    }

    fn parts() -> Parts {
        let mut msp = Msp::new("net", "org1", Group::test_group(), b"s");
        let peer_id = msp.enroll("peer0", CertRole::Peer, false);
        let client = msp.enroll("alice", CertRole::Client, false);
        let mut registry = ChaincodeRegistry::new();
        registry.deploy("kv", Arc::new(KvStore));
        registry.deploy(crate::chaincode::ECC_NAME, Arc::new(AdmitAll));
        let mut msp_registry = MspRegistry::new();
        msp_registry.register("org1", msp.root_certificate().clone());
        let mut policies = HashMap::new();
        policies.insert("kv".to_string(), EndorsementPolicy::any_of(["org1"]));
        Parts {
            peer_id,
            client,
            registry: Arc::new(registry),
            msp_registry: Arc::new(msp_registry),
            policies: Arc::new(policies),
        }
    }

    fn fixture() -> Fixture {
        let p = parts();
        let mut peer = Peer::new(
            "net",
            "org1",
            "peer0",
            p.peer_id,
            p.registry,
            p.msp_registry,
            p.policies,
        );
        peer.validate_and_commit(Block::genesis(vec![b"config".to_vec()]))
            .unwrap();
        Fixture {
            peer,
            client: p.client,
        }
    }

    fn reopen(backend: Box<dyn tdt_ledger::storage::StorageBackend>) -> Fixture {
        let p = parts();
        let peer = Peer::with_backend(
            "net",
            "org1",
            "peer0",
            p.peer_id,
            p.registry,
            p.msp_registry,
            p.policies,
            backend,
        )
        .unwrap();
        Fixture {
            peer,
            client: p.client,
        }
    }

    fn proposal(f: &Fixture, txid: &str, function: &str, args: Vec<Vec<u8>>) -> Proposal {
        Proposal::new(
            txid,
            "ch",
            "kv",
            function,
            args,
            f.client.certificate().clone(),
        )
        .sign(f.client.signing_key())
    }

    fn envelope(f: &Fixture, proposal: &Proposal, sim: &SimulationResult) -> TransactionEnvelope {
        let endorsement = f.peer.endorse_transaction(proposal, sim).unwrap();
        TransactionEnvelope {
            txid: proposal.txid.clone(),
            channel: "ch".into(),
            chaincode: "kv".into(),
            result: sim.result.clone(),
            rwset: sim.rwset.clone(),
            endorsements: vec![endorsement],
            creator_cert: proposal.creator.clone(),
        }
    }

    fn commit(f: &mut Fixture, env: &TransactionEnvelope) -> Vec<TxValidationCode> {
        let tip = f.peer.store().tip().unwrap().clone();
        let block = Block::next(&tip, vec![env.encode_to_vec()]);
        f.peer.validate_and_commit(block).unwrap()
    }

    #[test]
    fn end_to_end_put_get() {
        let mut f = fixture();
        let p = proposal(&f, "tx1", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        let sim = f.peer.simulate(&p).unwrap();
        let env = envelope(&f, &p, &sim);
        let codes = commit(&mut f, &env);
        assert_eq!(codes, vec![TxValidationCode::Valid]);
        // Query sees the committed value.
        let q = proposal(&f, "tx2", "get", vec![b"k".to_vec()]);
        let sim = f.peer.simulate(&q).unwrap();
        assert_eq!(sim.result, b"v");
        assert_eq!(f.peer.height(), 2);
    }

    #[test]
    fn unsigned_proposal_rejected() {
        let f = fixture();
        let mut p = proposal(&f, "tx", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        p.signature = None;
        assert!(matches!(
            f.peer.simulate(&p),
            Err(FabricError::BadSignature(_))
        ));
    }

    #[test]
    fn foreign_creator_rejected_locally() {
        let f = fixture();
        let mut other_msp = Msp::new("other-net", "org-x", Group::test_group(), b"x");
        let foreign = other_msp.enroll("mallory", CertRole::Client, false);
        let p = Proposal::new(
            "tx",
            "ch",
            "kv",
            "get",
            vec![b"k".to_vec()],
            foreign.certificate().clone(),
        )
        .sign(foreign.signing_key());
        assert!(matches!(
            f.peer.simulate(&p),
            Err(FabricError::IdentityInvalid(_))
        ));
    }

    #[test]
    fn relay_query_bypasses_local_msp() {
        // Relay queries carry foreign certs; the peer lets the ECC's gate
        // decide, and this fixture's ECC admits everything.
        let mut f = fixture();
        let p0 = proposal(&f, "tx0", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        let sim = f.peer.simulate(&p0).unwrap();
        let env = envelope(&f, &p0, &sim);
        commit(&mut f, &env);
        let mut other_msp = Msp::new("other-net", "org-x", Group::test_group(), b"x");
        let foreign = other_msp.enroll("swt-sc", CertRole::Client, false);
        let p = Proposal::new(
            "txr",
            "ch",
            "kv",
            "get",
            vec![b"k".to_vec()],
            foreign.certificate().clone(),
        )
        .as_relay_query();
        let sim = f.peer.simulate(&p).unwrap();
        assert_eq!(sim.result, b"v");
    }

    #[test]
    fn unknown_chaincode() {
        let f = fixture();
        let mut p = proposal(&f, "tx", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        p.chaincode = "missing".into();
        let p = Proposal {
            signature: None,
            ..p
        }
        .sign(f.client.signing_key());
        assert!(matches!(
            f.peer.simulate(&p),
            Err(FabricError::ChaincodeNotDeployed(_))
        ));
    }

    #[test]
    fn mvcc_conflict_invalidates_second_tx() {
        let mut f = fixture();
        // Seed the key.
        let p0 = proposal(&f, "tx0", "put", vec![b"k".to_vec(), b"v0".to_vec()]);
        let sim0 = f.peer.simulate(&p0).unwrap();
        let env0 = envelope(&f, &p0, &sim0);
        commit(&mut f, &env0);
        // Two competing updates simulated against the same snapshot. The kv
        // chaincode's put doesn't read, so use get+put via two proposals
        // simulated before either commits.
        let pa = proposal(&f, "txa", "get", vec![b"k".to_vec()]);
        let sim_a_read = f.peer.simulate(&pa).unwrap();
        let pa2 = proposal(&f, "txa2", "put", vec![b"k".to_vec(), b"va".to_vec()]);
        let mut sim_a = f.peer.simulate(&pa2).unwrap();
        // Merge the read into tx A's rwset to make it a read-modify-write.
        sim_a.rwset.ns_sets[0]
            .reads
            .extend(sim_a_read.rwset.ns_sets[0].reads.iter().cloned());
        let pb = proposal(&f, "txb", "put", vec![b"k".to_vec(), b"vb".to_vec()]);
        let sim_b = f.peer.simulate(&pb).unwrap();
        // Commit B first.
        let env_b = envelope(&f, &pb, &sim_b);
        assert_eq!(commit(&mut f, &env_b), vec![TxValidationCode::Valid]);
        // A's read of k is now stale.
        let env_a = envelope(&f, &pa2, &sim_a);
        assert_eq!(commit(&mut f, &env_a), vec![TxValidationCode::MvccConflict]);
        // B's write survived.
        let q = proposal(&f, "txq", "get", vec![b"k".to_vec()]);
        assert_eq!(f.peer.simulate(&q).unwrap().result, b"vb");
    }

    #[test]
    fn endorsement_policy_failure() {
        let mut f = fixture();
        let p = proposal(&f, "tx", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        let sim = f.peer.simulate(&p).unwrap();
        let mut env = envelope(&f, &p, &sim);
        env.endorsements.clear();
        assert_eq!(
            commit(&mut f, &env),
            vec![TxValidationCode::EndorsementPolicyFailure]
        );
    }

    #[test]
    fn forged_endorsement_signature_rejected() {
        let mut f = fixture();
        let p = proposal(&f, "tx", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        let sim = f.peer.simulate(&p).unwrap();
        let mut env = envelope(&f, &p, &sim);
        // Tamper with the result after endorsement.
        env.result = b"forged".to_vec();
        assert_eq!(
            commit(&mut f, &env),
            vec![TxValidationCode::BadEndorsementSignature]
        );
    }

    #[test]
    fn garbage_tx_payload_flagged() {
        let mut f = fixture();
        let tip = f.peer.store().tip().unwrap().clone();
        let block = Block::next(&tip, vec![b"not an envelope".to_vec()]);
        let codes = f.peer.validate_and_commit(block).unwrap();
        assert_eq!(codes, vec![TxValidationCode::BadPayload]);
    }

    #[test]
    fn invalid_tx_writes_not_applied() {
        let mut f = fixture();
        let p = proposal(&f, "tx", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        let sim = f.peer.simulate(&p).unwrap();
        let mut env = envelope(&f, &p, &sim);
        env.endorsements.clear();
        commit(&mut f, &env);
        let q = proposal(&f, "txq", "get", vec![b"k".to_vec()]);
        assert!(f.peer.simulate(&q).is_err()); // key never committed
    }

    #[test]
    fn history_recorded_on_commit() {
        let mut f = fixture();
        for (i, v) in [b"v1".as_slice(), b"v2"].iter().enumerate() {
            let p = proposal(
                &f,
                &format!("tx{i}"),
                "put",
                vec![b"k".to_vec(), v.to_vec()],
            );
            let sim = f.peer.simulate(&p).unwrap();
            let env = envelope(&f, &p, &sim);
            commit(&mut f, &env);
        }
        let history = f.peer.history().history("kv", "k");
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].value, Some(b"v1".to_vec()));
        assert_eq!(history[1].value, Some(b"v2".to_vec()));
    }

    #[test]
    fn tx_index_after_commit() {
        let mut f = fixture();
        let p = proposal(&f, "tx-indexed", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        let sim = f.peer.simulate(&p).unwrap();
        let env = envelope(&f, &p, &sim);
        commit(&mut f, &env);
        assert!(f.peer.store().find_tx("tx-indexed").is_ok());
    }

    #[test]
    fn durable_commit_survives_reopen() {
        use tdt_ledger::storage::file::{FileBackend, FileConfig};
        use tdt_ledger::storage::vfs::MemVfs;

        let disk = Arc::new(MemVfs::new());
        let config = FileConfig {
            snapshot_interval: 3,
            ..FileConfig::default()
        };
        let mut backend = Box::new(FileBackend::new(
            Arc::clone(&disk) as Arc<dyn tdt_ledger::storage::vfs::Vfs>,
            config.clone(),
        ));
        backend.load().unwrap();
        let mut f = reopen(backend);
        f.peer
            .validate_and_commit(Block::genesis(vec![b"config".to_vec()]))
            .unwrap();
        for i in 0..5 {
            let p = proposal(
                &f,
                &format!("tx{i}"),
                "put",
                vec![format!("k{i}").into_bytes(), format!("v{i}").into_bytes()],
            );
            let sim = f.peer.simulate(&p).unwrap();
            let env = envelope(&f, &p, &sim);
            commit(&mut f, &env);
        }
        let height = f.peer.height();
        let state_hash = f.peer.state_hash();
        assert!(f.peer.storage_stats().snapshots_written() > 0);
        drop(f);

        // "Restart": fresh backend over the same disk image.
        let backend = Box::new(FileBackend::new(
            Arc::clone(&disk) as Arc<dyn tdt_ledger::storage::vfs::Vfs>,
            config,
        ));
        let f = reopen(backend);
        assert_eq!(f.peer.height(), height);
        assert_eq!(f.peer.state_hash(), state_hash);
        assert!(f.peer.store().find_tx("tx4").is_ok());
        assert_eq!(f.peer.history().history("kv", "k0").len(), 1);
        let report = f.peer.recovery_report().unwrap();
        assert_eq!(report.chain_height, height);
        assert!(report.snapshot_height.is_some());
        // Query path works against recovered state.
        let q = proposal(&f, "txq", "get", vec![b"k2".to_vec()]);
        assert_eq!(f.peer.simulate(&q).unwrap().result, b"v2");
    }

    #[test]
    fn reopen_records_one_replay_span_and_ends_the_phase_trail_idle() {
        use tdt_ledger::storage::recovery_phase::{IDLE, REPLAY, SCAN, SNAPSHOT, VERIFY};

        let world = world();
        let (mut peer, disk) = world.durable_peer();
        for b in 0..3 {
            let txs = vec![world.transaction(&format!("tx{b}"), Fault::None, b, None)];
            let tip = peer.store().tip().unwrap().clone();
            peer.validate_and_commit(Block::next(&tip, txs)).unwrap();
        }
        drop(peer);

        let root = tdt_obs::TraceContext::root();
        let _guard = root.install();
        let first_seq = tdt_obs::flight::snapshot().last().map_or(0, |r| r.seq + 1);
        let backend = tdt_ledger::storage::file::FileBackend::new(
            disk as Arc<dyn tdt_ledger::storage::vfs::Vfs>,
            tdt_ledger::storage::file::FileConfig::default(),
        );
        let peer = Peer::with_backend(
            "net",
            "org1",
            "peer0",
            world.org1.clone(),
            Arc::new(ChaincodeRegistry::new()),
            Arc::clone(&world.msp_registry),
            Arc::clone(&world.policies),
            Box::new(backend),
        )
        .unwrap();
        assert_eq!(peer.height(), 4);

        let spans = tdt_obs::span::spans_for_trace(root.trace_hi, root.trace_lo);
        let replays: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "recovery.replay")
            .collect();
        assert_eq!(replays.len(), 1);
        assert_eq!(replays[0].parent_span_id, root.span_id);
        let me = tdt_obs::flight::thread_ordinal();
        let phases: Vec<(u64, u64)> = tdt_obs::flight::snapshot()
            .into_iter()
            .filter(|r| r.seq >= first_seq && r.thread == me)
            .filter(|r| r.kind == tdt_obs::FlightKind::Recovery as u8)
            .map(|r| (u64::from(r.code), r.a))
            .collect();
        assert!(matches!(
            phases.as_slice(),
            [
                (SCAN, _),
                (VERIFY, 4),
                (SNAPSHOT, 4),
                (IDLE, 4),
                (REPLAY, 0),
                (IDLE, 4)
            ]
        ));
        assert_eq!(peer.storage_stats().recovery_phase(), IDLE);
    }

    #[test]
    fn failed_durable_append_leaves_state_untouched() {
        use tdt_ledger::storage::fault::{FaultConfig, FaultVfs};
        use tdt_ledger::storage::file::{FileBackend, FileConfig};
        use tdt_ledger::storage::vfs::MemVfs;

        // A config that crashes on (roughly) every write: first commit
        // after load dies at the WAL append.
        let config = FaultConfig {
            crash_per_mille: 1000,
            ..FaultConfig::quiet()
        };
        let disk = Arc::new(FaultVfs::new(Arc::new(MemVfs::new()), 7, config));
        let mut backend = Box::new(FileBackend::new(
            Arc::clone(&disk) as Arc<dyn tdt_ledger::storage::vfs::Vfs>,
            FileConfig::default(),
        ));
        backend.load().unwrap();
        let mut f = reopen(backend);
        let err = f
            .peer
            .validate_and_commit(Block::genesis(vec![b"config".to_vec()]))
            .unwrap_err();
        assert!(matches!(err, FabricError::Ledger(_)));
        // Nothing mutated: no block, no state, and the backend is poisoned
        // until the next recovery pass.
        assert_eq!(f.peer.height(), 0);
        assert_eq!(f.peer.state_hash(), WorldState::new().state_hash());
    }

    #[test]
    fn client_cert_endorsement_rejected() {
        // An org member that is not a peer cannot stand in for one: the
        // policy asks for org1's endorsement, and only peers endorse (the
        // CMDAC applies the same rule to attestation signers).
        let mut f = fixture();
        let p = proposal(&f, "tx", "put", vec![b"k".to_vec(), b"v".to_vec()]);
        let sim = f.peer.simulate(&p).unwrap();
        let mut env = envelope(&f, &p, &sim);
        env.endorsements = vec![endorsement(&f.client, &env)];
        // The one intended difference from the serial validator this
        // replaced, which took any org1 certificate.
        let staged = StagedState::new(f.peer.state());
        assert_eq!(
            f.peer.validate_tx_serial(&staged, &env),
            TxValidationCode::Valid
        );
        assert_eq!(
            commit(&mut f, &env),
            vec![TxValidationCode::BadEndorsementSignature]
        );
    }

    #[test]
    fn endorser_set_larger_than_the_table_cache_builds_no_table_per_block() {
        use tdt_crypto::certcache::KEY_TABLE_CAP;

        // 12 endorsers rotate through an 8-table cache. Evicting to admit
        // each newcomer would rebuild a table — several verifications'
        // worth of work — for every signature of every block; the commit
        // path admits tables only while there is room and verifies the
        // remaining keys table-less.
        let mut msp = Msp::new("net", "org1", Group::test_group(), b"s");
        let endorsers: Vec<Identity> = (0..12)
            .map(|i| msp.enroll(&format!("peer{i}"), CertRole::Peer, false))
            .collect();
        let client = msp.enroll("alice", CertRole::Client, false);
        let mut msp_registry = MspRegistry::new();
        msp_registry.register("org1", msp.root_certificate().clone());
        let msp_registry = Arc::new(msp_registry);
        let policies = HashMap::from([("kv".to_string(), EndorsementPolicy::any_of(["org1"]))]);
        let mut peer = Peer::new(
            "net",
            "org1",
            "peer0",
            endorsers[0].clone(),
            Arc::new(ChaincodeRegistry::new()),
            Arc::clone(&msp_registry),
            Arc::new(policies),
        );
        peer.validate_and_commit(Block::genesis(vec![b"config".to_vec()]))
            .unwrap();
        let cache = msp_registry.cert_cache();
        let mut builds_after_first_block = 0;
        for b in 0..4 {
            let txs = endorsers
                .iter()
                .enumerate()
                .map(|(i, endorser)| {
                    let mut env = blind_write(&format!("b{b}-t{i}"), "k", client.certificate());
                    env.endorsements = vec![endorsement(endorser, &env)];
                    env.encode_to_vec()
                })
                .collect();
            let tip = peer.store().tip().unwrap().clone();
            let codes = peer.validate_and_commit(Block::next(&tip, txs)).unwrap();
            assert_eq!(codes, vec![TxValidationCode::Valid; 12]);
            if b == 0 {
                builds_after_first_block = cache.table_misses();
            }
        }
        assert_eq!(builds_after_first_block, KEY_TABLE_CAP as u64);
        assert_eq!(cache.table_misses(), builds_after_first_block);
        assert_eq!(cache.table_len(), KEY_TABLE_CAP);
        // 12 chain validations ever; every later lookup is a hit.
        assert_eq!(cache.misses(), 12);
        assert_eq!(cache.hits(), 36);
    }

    // -----------------------------------------------------------------
    // Differential: block-wide validation against the serial validator
    // it replaced.
    // -----------------------------------------------------------------

    impl Peer {
        /// The validator this module shipped before block-wide
        /// validation, kept as the oracle: per endorsement an uncached
        /// chain validation, a key decode and a table-less verify,
        /// then policy and MVCC, one transaction at a time.
        fn validate_tx_serial(
            &self,
            staged: &StagedState<'_>,
            envelope: &TransactionEnvelope,
        ) -> TxValidationCode {
            let payload_bytes = envelope.response_payload().canonical_bytes();
            let mut endorsing_orgs: Vec<String> = Vec::new();
            for endorsement in &envelope.endorsements {
                let cert = &endorsement.endorser_cert;
                let chains = self
                    .msp_registry
                    .root(&cert.subject().organization)
                    .is_some_and(|root| cert.verify(root).is_ok());
                if !chains {
                    return TxValidationCode::BadEndorsementSignature;
                }
                let Ok(vk) = cert.verifying_key() else {
                    return TxValidationCode::BadEndorsementSignature;
                };
                if vk.verify(&payload_bytes, &endorsement.signature).is_err() {
                    return TxValidationCode::BadEndorsementSignature;
                }
                let org = cert.subject().organization.clone();
                if !endorsing_orgs.contains(&org) {
                    endorsing_orgs.push(org);
                }
            }
            let Some(policy) = self.policies.get(&envelope.chaincode) else {
                return TxValidationCode::BadPayload;
            };
            if !policy.is_satisfied(&endorsing_orgs) {
                return TxValidationCode::EndorsementPolicyFailure;
            }
            if !staged.mvcc_check(&envelope.rwset) {
                return TxValidationCode::MvccConflict;
            }
            TxValidationCode::Valid
        }

        /// [`Peer::validate_and_commit`] with the serial validator.
        fn validate_and_commit_serial(
            &mut self,
            block: Block,
        ) -> Result<Vec<TxValidationCode>, FabricError> {
            let block = self.store.verify_next(block)?;
            let block_number = block.block().header.number;
            let mut validated = ValidatedBlock::default();
            {
                let mut staged = StagedState::new(&self.state);
                for (i, tx_bytes) in block.block().transactions.iter().enumerate() {
                    let Ok(envelope) = TransactionEnvelope::decode_from_slice(tx_bytes) else {
                        validated.codes.push(TxValidationCode::BadPayload);
                        continue;
                    };
                    let code = self.validate_tx_serial(&staged, &envelope);
                    if code.is_valid() {
                        staged.stage(&envelope.rwset, Version::new(block_number, i as u64));
                        validated.valid.push((i, envelope));
                    }
                    validated.codes.push(code);
                }
            }
            self.commit_validated(block, validated)
        }
    }

    fn endorsement(endorser: &Identity, envelope: &TransactionEnvelope) -> Endorsement {
        Endorsement {
            endorser_cert: endorser.certificate().clone(),
            signature: endorser.sign(&envelope.response_payload().canonical_bytes()),
        }
    }

    /// An unendorsed envelope writing `key` blind.
    fn blind_write(
        txid: &str,
        key: &str,
        creator: &tdt_crypto::cert::Certificate,
    ) -> TransactionEnvelope {
        let mut rwset = tdt_ledger::rwset::TxRwSet::new();
        rwset.record_write("kv", key, Some(txid.as_bytes().to_vec()));
        TransactionEnvelope {
            txid: txid.into(),
            channel: "ch".into(),
            chaincode: "kv".into(),
            result: Vec::new(),
            rwset,
            endorsements: Vec::new(),
            creator_cert: creator.clone(),
        }
    }

    /// What a generated transaction has wrong with it.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        None,
        ForgedSignature,
        NonCanonicalSignature,
        UnregisteredRoot,
        UndecodableKey,
        OtherGroupEndorser,
        OtherGroupForged,
        NoEndorsements,
        MissingOrg,
        UnknownChaincode,
        ReadsHotKey,
        Garbage,
    }

    const FAULTS: [Fault; 12] = [
        Fault::None,
        Fault::ForgedSignature,
        Fault::NonCanonicalSignature,
        Fault::UnregisteredRoot,
        Fault::UndecodableKey,
        Fault::OtherGroupEndorser,
        Fault::OtherGroupForged,
        Fault::NoEndorsements,
        Fault::MissingOrg,
        Fault::UnknownChaincode,
        Fault::ReadsHotKey,
        Fault::Garbage,
    ];

    /// Identities for the differential test: "kv" needs org1 and org2.
    struct World {
        org1: Identity,
        org2: Identity,
        /// Peer of a registered org whose MSP issues modp1024 keys.
        other_group: Identity,
        /// Peer of a CA that calls itself org1 but is not the registered one.
        rogue: Identity,
        /// A certificate that chains to a registered root over key bytes
        /// that do not decode in its group, and the key that signs for it.
        undecodable: (
            tdt_crypto::cert::Certificate,
            tdt_crypto::schnorr::SigningKey,
        ),
        client: Identity,
        msp_registry: Arc<MspRegistry>,
        policies: Arc<HashMap<String, EndorsementPolicy>>,
    }

    fn world() -> World {
        let group = Group::test_group();
        let mut msp1 = Msp::new("net", "org1", group.clone(), b"1");
        let mut msp2 = Msp::new("net", "org2", group.clone(), b"2");
        let mut msp3 = Msp::new("net", "org3", Group::modp_1024(), b"3");
        let mut rogue_msp = Msp::new("net", "org1", group.clone(), b"rogue");
        let mut ca4 = tdt_crypto::cert::CertificateAuthority::new("net", "org4", group, b"4");
        let wide_key = tdt_crypto::schnorr::SigningKey::from_seed(Group::modp_1024(), b"wide");
        let undecodable = ca4.issue("peer0", CertRole::Peer, &wide_key.verifying_key(), None);
        let mut msp_registry = MspRegistry::new();
        msp_registry.register("org1", msp1.root_certificate().clone());
        msp_registry.register("org2", msp2.root_certificate().clone());
        msp_registry.register("org3", msp3.root_certificate().clone());
        msp_registry.register("org4", ca4.root_certificate().clone());
        let policies = HashMap::from([(
            "kv".to_string(),
            EndorsementPolicy::all_of(["org1", "org2"]),
        )]);
        World {
            org1: msp1.enroll("peer0", CertRole::Peer, false),
            org2: msp2.enroll("peer0", CertRole::Peer, false),
            other_group: msp3.enroll("peer0", CertRole::Peer, false),
            rogue: rogue_msp.enroll("peer0", CertRole::Peer, false),
            undecodable: (undecodable, wide_key),
            client: msp1.enroll("alice", CertRole::Client, false),
            msp_registry: Arc::new(msp_registry),
            policies: Arc::new(policies),
        }
    }

    impl World {
        /// A peer over `FileBackend` on an in-memory disk, genesis committed.
        fn durable_peer(&self) -> (Peer, Arc<tdt_ledger::storage::vfs::MemVfs>) {
            let (mut peer, disk) = self.empty_durable_peer();
            peer.validate_and_commit(Block::genesis(vec![b"config".to_vec()]))
                .unwrap();
            (peer, disk)
        }

        /// A peer over `FileBackend` on an empty in-memory disk.
        fn empty_durable_peer(&self) -> (Peer, Arc<tdt_ledger::storage::vfs::MemVfs>) {
            use tdt_ledger::storage::file::{FileBackend, FileConfig};
            use tdt_ledger::storage::vfs::{MemVfs, Vfs};
            let disk = Arc::new(MemVfs::new());
            let config = FileConfig {
                snapshot_interval: 2,
                ..FileConfig::default()
            };
            let backend = FileBackend::new(Arc::clone(&disk) as Arc<dyn Vfs>, config);
            let peer = Peer::with_backend(
                "net",
                "org1",
                "peer0",
                self.org1.clone(),
                Arc::new(ChaincodeRegistry::new()),
                Arc::clone(&self.msp_registry),
                Arc::clone(&self.policies),
                Box::new(backend),
            )
            .unwrap();
            (peer, disk)
        }

        /// The bytes of one transaction with `fault`; `salt` picks the
        /// key written and which endorsement a signature fault hits.
        fn transaction(
            &self,
            txid: &str,
            fault: Fault,
            salt: u64,
            hot_version: Option<Version>,
        ) -> Vec<u8> {
            let mut env = blind_write(txid, &format!("k{}", salt % 4), self.client.certificate());
            match fault {
                Fault::Garbage => return format!("not an envelope {salt}").into_bytes(),
                Fault::UnknownChaincode => env.chaincode = "missing".into(),
                // Valid alone; two in one block conflict on the staged write.
                Fault::ReadsHotKey => {
                    env.rwset.record_read("kv", "hot", hot_version);
                    env.rwset
                        .record_write("kv", "hot", Some(txid.as_bytes().to_vec()));
                }
                _ => {}
            }
            let mut endorsements =
                vec![endorsement(&self.org1, &env), endorsement(&self.org2, &env)];
            let hit = (salt / 4) as usize % endorsements.len();
            let elsewhere = blind_write("elsewhere", "k", self.client.certificate());
            match fault {
                Fault::ForgedSignature => {
                    endorsements[hit].signature = endorsement(&self.org1, &elsewhere).signature;
                }
                Fault::NonCanonicalSignature => {
                    let sig = &endorsements[hit].signature;
                    let mut e = vec![0];
                    e.extend_from_slice(sig.e_bytes());
                    endorsements[hit].signature =
                        Signature::from_scalars(e, sig.s_bytes().to_vec());
                }
                Fault::UnregisteredRoot => endorsements[hit] = endorsement(&self.rogue, &env),
                Fault::UndecodableKey => {
                    endorsements[hit] = Endorsement {
                        endorser_cert: self.undecodable.0.clone(),
                        signature: self
                            .undecodable
                            .1
                            .sign(&env.response_payload().canonical_bytes()),
                    };
                }
                Fault::OtherGroupEndorser => {
                    endorsements.insert(hit, endorsement(&self.other_group, &env));
                }
                Fault::OtherGroupForged => {
                    let mut forged = endorsement(&self.other_group, &elsewhere);
                    forged.endorser_cert = self.other_group.certificate().clone();
                    endorsements.insert(hit, forged);
                }
                Fault::NoEndorsements => endorsements.clear(),
                Fault::MissingOrg => {
                    endorsements.remove(hit);
                }
                _ => {}
            }
            env.endorsements = endorsements;
            env.encode_to_vec()
        }
    }

    fn disk_image(disk: &tdt_ledger::storage::vfs::MemVfs) -> Vec<(String, Vec<u8>)> {
        use tdt_ledger::storage::vfs::Vfs;
        disk.list("")
            .unwrap()
            .into_iter()
            .map(|path| {
                let bytes = disk.read(&path).unwrap();
                (path, bytes)
            })
            .collect()
    }

    /// Commits the same generated blocks through both validators on two
    /// fresh durable peers; codes, state and disk bytes must not differ.
    fn assert_validators_agree(
        world: &World,
        blocks: &[Vec<(Fault, u64)>],
    ) -> Vec<TxValidationCode> {
        let (mut batched, batched_disk) = world.durable_peer();
        let (mut serial, serial_disk) = world.durable_peer();
        let mut all_codes = Vec::new();
        for (b, txs) in blocks.iter().enumerate() {
            let hot_version = batched.state().version("kv", "hot");
            let txs: Vec<Vec<u8>> = txs
                .iter()
                .enumerate()
                .map(|(i, &(fault, salt))| {
                    world.transaction(&format!("b{b}-t{i}"), fault, salt, hot_version)
                })
                .collect();
            let tip = batched.store().tip().unwrap().clone();
            let block = Block::next(&tip, txs);
            let codes = batched.validate_and_commit(block.clone()).unwrap();
            let oracle = serial.validate_and_commit_serial(block).unwrap();
            assert_eq!(codes, oracle, "block {b}: {:?}", blocks[b]);
            all_codes.extend(codes);
        }
        assert_eq!(batched.state_hash(), serial.state_hash());
        assert_eq!(disk_image(&batched_disk), disk_image(&serial_disk));
        all_codes
    }

    #[test]
    fn differential_every_fault_alone_and_paired() {
        let world = world();
        // Every fault twice in one block (the second ReadsHotKey is the
        // same-block MVCC conflict), then a clean block, then one fault
        // per block (an aggregate failure with a single culprit).
        let mut blocks = vec![FAULTS.iter().chain(&FAULTS).map(|&f| (f, 5)).collect()];
        blocks.push(vec![(Fault::None, 0); 4]);
        blocks.extend(
            FAULTS
                .iter()
                .map(|&f| vec![(Fault::None, 1), (f, 2), (Fault::None, 3)]),
        );
        let codes = assert_validators_agree(&world, &blocks);
        use TxValidationCode::*;
        for expected in [
            Valid,
            BadEndorsementSignature,
            EndorsementPolicyFailure,
            BadPayload,
            MvccConflict,
        ] {
            assert!(
                codes.contains(&expected),
                "no transaction came out {expected:?}"
            );
        }
    }

    #[test]
    fn unappendable_blocks_are_rejected_before_the_wal_and_before_any_state_change() {
        use tdt_ledger::LedgerError;

        let world = world();
        let (mut peer, disk) = world.durable_peer();
        let tip = peer.store().tip().unwrap().clone();
        let txs = || vec![world.transaction("tx-a", Fault::None, 1, None)];
        peer.validate_and_commit(Block::next(&tip, txs())).unwrap();
        let tip = peer.store().tip().unwrap().clone();

        let mut bad_data = Block::next(&tip, txs());
        bad_data.transactions.push(b"smuggled".to_vec());
        let mut bad_link = Block::next(&tip, txs());
        bad_link.header.prev_hash = [9u8; 32];
        let mut bad_number = Block::next(&tip, txs());
        bad_number.header.number += 1;
        let second_genesis = Block::genesis(vec![b"config".to_vec()]);

        let before = (peer.height(), peer.state_hash(), disk_image(&disk));
        let wal_appends = peer.storage_stats().wal_appends();
        for (block, expected) in [
            (bad_data, LedgerError::DataHashMismatch { block: 2 }),
            (bad_link, LedgerError::BrokenHashChain { block: 2 }),
            (
                bad_number,
                LedgerError::NonContiguousBlock {
                    expected: 2,
                    got: 3,
                },
            ),
            (
                second_genesis,
                LedgerError::NonContiguousBlock {
                    expected: 2,
                    got: 0,
                },
            ),
        ] {
            match peer.validate_and_commit(block) {
                Err(FabricError::Ledger(e)) => assert_eq!(e, expected),
                other => panic!("expected {expected:?}, got {other:?}"),
            }
            assert_eq!(
                (peer.height(), peer.state_hash(), disk_image(&disk)),
                before
            );
            assert_eq!(peer.storage_stats().wal_appends(), wal_appends);
            assert!(peer.store().find_tx("tx-a").is_ok());
        }
        // The backend was never touched, so it is not poisoned either.
        let tip = peer.store().tip().unwrap().clone();
        let codes = peer.validate_and_commit(Block::next(&tip, txs())).unwrap();
        assert_eq!(codes, vec![TxValidationCode::Valid]);

        // A genesis block that fails its own data hash never reaches the
        // WAL of an empty ledger.
        let (mut fresh, fresh_disk) = world.empty_durable_peer();
        let mut forged_genesis = Block::genesis(vec![b"config".to_vec()]);
        forged_genesis.transactions.push(b"smuggled".to_vec());
        assert!(matches!(
            fresh.validate_and_commit(forged_genesis),
            Err(FabricError::Ledger(LedgerError::DataHashMismatch {
                block: 0
            }))
        ));
        assert_eq!(fresh.height(), 0);
        assert!(disk_image(&fresh_disk).is_empty());
    }

    // -----------------------------------------------------------------
    // Differential: parallel replay against the serial replay loop
    // `with_backend` ran before it adopted the verified store.
    // -----------------------------------------------------------------

    /// Derived state after a replay, in comparable form.
    #[derive(Debug, PartialEq)]
    struct Replayed {
        height: u64,
        state_hash: [u8; 32],
        history: Vec<u8>,
        lookups: Vec<Option<Vec<u8>>>,
        duplicate_txids: u64,
    }

    fn replayed(
        store: &BlockStore,
        state: &WorldState,
        history: &HistoryIndex,
        stats: &StorageStats,
        txids: &[String],
    ) -> Replayed {
        Replayed {
            height: store.height(),
            state_hash: state.state_hash(),
            history: tdt_ledger::storage::codec::encode_history(history),
            lookups: txids
                .iter()
                .map(|txid| store.find_tx(txid).ok().map(<[u8]>::to_vec))
                .collect(),
            duplicate_txids: stats.duplicate_txids(),
        }
    }

    /// The loop `Peer::with_backend` shipped before: one block at a time,
    /// every valid envelope decoded, applied and indexed on this thread,
    /// then the block re-verified (number, link, Merkle root) on append.
    fn replay_serial(blocks: &[Block], snapshot: Option<Snapshot>, txids: &[String]) -> Replayed {
        let stats = StorageStats::new();
        let (snapshot_height, mut state, mut history) = match snapshot {
            Some(snapshot) => (snapshot.height, snapshot.state, snapshot.history),
            None => (0, WorldState::new(), HistoryIndex::new()),
        };
        let mut store = BlockStore::new();
        for block in blocks.iter().cloned() {
            let number = block.header.number;
            if number > 0 {
                for (i, tx_bytes) in block.transactions.iter().enumerate() {
                    let valid = block
                        .metadata
                        .tx_validation
                        .get(i)
                        .is_some_and(|c| c.is_valid());
                    if !valid {
                        continue;
                    }
                    let Ok(envelope) = TransactionEnvelope::decode_from_slice(tx_bytes) else {
                        continue;
                    };
                    let version = Version::new(number, i as u64);
                    if number >= snapshot_height {
                        state.apply(&envelope.rwset, version);
                        history.record(&envelope.rwset, version);
                    }
                    if store.index_tx(envelope.txid, number, i).is_err() {
                        stats.note_duplicate_txid();
                    }
                }
            }
            let verified = store.verify_next(block).unwrap();
            store.append(verified).unwrap();
        }
        replayed(&store, &state, &history, &stats, txids)
    }

    #[test]
    fn parallel_replay_matches_the_serial_replay_with_without_and_past_a_bad_snapshot() {
        use tdt_ledger::storage::file::{FileBackend, FileConfig, SNAP_MAGIC, SNAP_PREFIX};
        use tdt_ledger::storage::vfs::{MemVfs, Vfs};

        let world = world();
        let (mut peer, disk) = world.durable_peer();
        // Seven blocks over a snapshot every two: faults of every kind
        // (replay must skip exactly what commit invalidated) and, in the
        // later blocks, transaction ids already committed earlier.
        let mut txids = Vec::new();
        for b in 0..7usize {
            let hot_version = peer.state().version("kv", "hot");
            let txs: Vec<Vec<u8>> = (0..6usize)
                .map(|i| {
                    // Blocks 4.. open with a valid transaction reusing the
                    // id of the valid second transaction of blocks 1..
                    let (txid, fault) = match (b, i) {
                        (4.., 0) => (format!("b{}-t1", b - 3), Fault::None),
                        (_, 1) => (format!("b{b}-t1"), Fault::None),
                        _ => (format!("b{b}-t{i}"), FAULTS[(b * 5 + i * 3) % FAULTS.len()]),
                    };
                    let tx = world.transaction(&txid, fault, (b + i) as u64, hot_version);
                    txids.push(txid);
                    tx
                })
                .collect();
            let tip = peer.store().tip().unwrap().clone();
            peer.validate_and_commit(Block::next(&tip, txs)).unwrap();
        }
        txids.push("never-committed".into());
        assert!(peer.storage_stats().duplicate_txids() > 0);
        let committed = (peer.height(), peer.state_hash());
        drop(peer);

        let copy_of = |disk: &MemVfs| {
            let copy = MemVfs::new();
            for (path, bytes) in disk_image(disk) {
                copy.create(&path, &bytes).unwrap();
                copy.sync(&path).unwrap();
            }
            Arc::new(copy)
        };
        let snapshots = disk.list(SNAP_PREFIX).unwrap();
        assert_eq!(snapshots.len(), 2);
        let no_snapshot = copy_of(&disk);
        for name in &snapshots {
            no_snapshot.remove(name).unwrap();
        }
        let newest_corrupt = copy_of(&disk);
        newest_corrupt
            .corrupt(&snapshots[1], SNAP_MAGIC.len() + 40, 0x04)
            .unwrap();

        for (disk, snapshot_height, fallbacks) in [
            (copy_of(&disk), Some(8), 0),
            (no_snapshot, None, 0),
            (newest_corrupt, Some(6), 1),
        ] {
            let config = FileConfig {
                snapshot_interval: 2,
                ..FileConfig::default()
            };
            let mut backend = FileBackend::new(disk as Arc<dyn Vfs>, config);
            let recovered = backend.load().unwrap();
            assert_eq!(recovered.report.snapshot_height, snapshot_height);
            assert_eq!(recovered.report.snapshot_fallbacks, fallbacks);
            let expected =
                replay_serial(recovered.chain.blocks(), recovered.snapshot.clone(), &txids);
            assert_eq!((expected.height, expected.state_hash), committed);
            assert!(expected.duplicate_txids > 0);
            for workers in [1, 2, 7] {
                let stats = StorageStats::new();
                let mut store = recovered.chain.clone();
                let (height, mut state, mut history) = match recovered.snapshot.clone() {
                    Some(s) => (s.height, s.state, s.history),
                    None => (0, WorldState::new(), HistoryIndex::new()),
                };
                replay(
                    &mut store,
                    &mut state,
                    &mut history,
                    height,
                    &stats,
                    Some(workers),
                );
                assert_eq!(
                    replayed(&store, &state, &history, &stats, &txids),
                    expected,
                    "{workers} workers, snapshot at {snapshot_height:?}"
                );
            }
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn prop_block_validation_matches_the_serial_validator(
                first in prop::collection::vec((0usize..FAULTS.len(), any::<u64>()), 0..7),
                second in prop::collection::vec((0usize..FAULTS.len(), any::<u64>()), 0..7),
            ) {
                thread_local! {
                    static WORLD: World = world();
                }
                let blocks: Vec<Vec<(Fault, u64)>> = [first, second]
                    .into_iter()
                    .map(|txs| txs.into_iter().map(|(f, salt)| (FAULTS[f], salt)).collect())
                    .collect();
                WORLD.with(|world| assert_validators_agree(world, &blocks));
            }
        }
    }
}
