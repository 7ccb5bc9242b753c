//! Chaincode: smart contracts with a Fabric shim-style API.
//!
//! A [`Chaincode`] is business logic invoked by name with byte arguments.
//! During simulation it talks to the ledger exclusively through a
//! [`TxContext`], which records every read and write into a
//! [`TxRwSet`] — the artifact that later gets ordered and validated.
//! Cross-chaincode invocation ([`TxContext::invoke_chaincode`]) switches the
//! write namespace, exactly as Fabric's `InvokeChaincode` shim call does;
//! this is how application chaincode consults the ECC and CMDAC system
//! contracts.

use crate::error::{ChaincodeError, FabricError};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use tdt_crypto::cert::Certificate;
use tdt_crypto::schnorr::Signature;
use tdt_ledger::history::{HistoryEntry, HistoryIndex};
use tdt_ledger::rwset::TxRwSet;
use tdt_ledger::state::WorldState;

/// A deployable smart contract.
///
/// Implementations must be stateless: all persistent data lives in the
/// ledger via the [`TxContext`] API.
pub trait Chaincode: Send + Sync {
    /// Handles one invocation of `function` with `args`.
    ///
    /// # Errors
    ///
    /// Returns a [`ChaincodeError`] on business-rule violations; the
    /// transaction is then rejected at the proposal stage.
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, ChaincodeError>;
}

/// Identifying information about the peer executing a simulation, exposed
/// to chaincode (needed for attestation metadata).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerInfo {
    /// Qualified peer name `network/org/peer`.
    pub peer_id: String,
    /// The peer's organization.
    pub org_id: String,
    /// The network the peer belongs to.
    pub network_id: String,
    /// Ledger height at simulation time.
    pub ledger_height: u64,
}

/// A signed transaction proposal from a client.
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    /// Unique transaction id.
    pub txid: String,
    /// Channel (ledger) the proposal targets.
    pub channel: String,
    /// Chaincode to invoke.
    pub chaincode: String,
    /// Function name.
    pub function: String,
    /// Function arguments.
    pub args: Vec<Vec<u8>>,
    /// The submitting client's certificate.
    pub creator: Certificate,
    /// Transient data: visible to chaincode, never written to the ledger.
    pub transient: BTreeMap<String, Vec<u8>>,
    /// True when this proposal arrived via a relay from a foreign network
    /// (paper §4.3: "STL Chaincode was also modified to check if an
    /// incoming query is from a relay").
    pub relay_query: bool,
    /// Client signature over [`Proposal::canonical_bytes`].
    pub signature: Option<Signature>,
}

impl Proposal {
    /// Builds an unsigned proposal.
    pub fn new(
        txid: impl Into<String>,
        channel: impl Into<String>,
        chaincode: impl Into<String>,
        function: impl Into<String>,
        args: Vec<Vec<u8>>,
        creator: Certificate,
    ) -> Self {
        Proposal {
            txid: txid.into(),
            channel: channel.into(),
            chaincode: chaincode.into(),
            function: function.into(),
            args,
            creator,
            transient: BTreeMap::new(),
            relay_query: false,
            signature: None,
        }
    }

    /// Marks the proposal as originating from a relay.
    pub fn as_relay_query(mut self) -> Self {
        self.relay_query = true;
        self
    }

    /// Adds a transient field.
    pub fn with_transient(mut self, key: impl Into<String>, value: Vec<u8>) -> Self {
        self.transient.insert(key.into(), value);
        self
    }

    /// Canonical bytes covered by the client signature.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        fn push(out: &mut Vec<u8>, b: &[u8]) {
            out.extend_from_slice(&(b.len() as u32).to_be_bytes());
            out.extend_from_slice(b);
        }
        out.extend_from_slice(b"tdt-proposal-v1");
        push(&mut out, self.txid.as_bytes());
        push(&mut out, self.channel.as_bytes());
        push(&mut out, self.chaincode.as_bytes());
        push(&mut out, self.function.as_bytes());
        out.extend_from_slice(&(self.args.len() as u32).to_be_bytes());
        for a in &self.args {
            push(&mut out, a);
        }
        push(&mut out, self.creator.fingerprint().as_bytes());
        out.extend_from_slice(&(self.transient.len() as u32).to_be_bytes());
        for (k, v) in &self.transient {
            push(&mut out, k.as_bytes());
            push(&mut out, v);
        }
        out.push(self.relay_query as u8);
        out
    }

    /// Signs the proposal with the creator's key.
    pub fn sign(mut self, key: &tdt_crypto::schnorr::SigningKey) -> Self {
        self.signature = Some(key.sign(&self.canonical_bytes()));
        self
    }

    /// Verifies the creator signature against the creator certificate.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadSignature`] when unsigned or invalid.
    pub fn verify_signature(&self) -> Result<(), FabricError> {
        if self.signature.is_none() {
            return Err(FabricError::BadSignature("proposal is unsigned".into()));
        }
        let key = self
            .creator
            .verifying_key()
            .map_err(|e| FabricError::BadSignature(e.to_string()))?;
        self.verify_signature_with(&key)
    }

    /// [`Self::verify_signature`] for a caller that already holds the
    /// creator certificate's decoded key.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadSignature`] when unsigned or invalid.
    pub fn verify_signature_with(
        &self,
        creator_key: &tdt_crypto::schnorr::VerifyingKey,
    ) -> Result<(), FabricError> {
        let sig = self
            .signature
            .as_ref()
            .ok_or_else(|| FabricError::BadSignature("proposal is unsigned".into()))?;
        creator_key
            .verify(&self.canonical_bytes(), sig)
            .map_err(|e| FabricError::BadSignature(e.to_string()))
    }
}

/// The registry of chaincodes deployed on a channel.
#[derive(Clone, Default)]
pub struct ChaincodeRegistry {
    codes: HashMap<String, Arc<dyn Chaincode>>,
}

impl fmt::Debug for ChaincodeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaincodeRegistry")
            .field("deployed", &self.names())
            .finish()
    }
}

impl ChaincodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploys (or upgrades) a chaincode under `name`.
    pub fn deploy(&mut self, name: impl Into<String>, code: Arc<dyn Chaincode>) {
        self.codes.insert(name.into(), code);
    }

    /// Fetches a deployed chaincode.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Chaincode>> {
        self.codes.get(name).cloned()
    }

    /// Names of all deployed chaincodes, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.codes.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

/// The execution context handed to chaincode: Fabric's "stub".
///
/// Reads come from the committed [`WorldState`] snapshot (respecting the
/// transaction's own pending writes), and all accesses are recorded in the
/// growing [`TxRwSet`].
pub struct TxContext<'a> {
    state: &'a WorldState,
    registry: &'a ChaincodeRegistry,
    proposal: &'a Proposal,
    peer: PeerInfo,
    history: Option<&'a HistoryIndex>,
    rwset: TxRwSet,
    namespace_stack: Vec<String>,
    /// Depth guard against runaway recursive cross-chaincode calls.
    depth: usize,
}

/// Maximum cross-chaincode call depth.
const MAX_CC_DEPTH: usize = 8;

impl<'a> TxContext<'a> {
    /// Creates a context for simulating `proposal` against `state`.
    pub fn new(
        state: &'a WorldState,
        registry: &'a ChaincodeRegistry,
        proposal: &'a Proposal,
        peer: PeerInfo,
    ) -> Self {
        TxContext {
            state,
            registry,
            proposal,
            peer,
            history: None,
            rwset: TxRwSet::new(),
            namespace_stack: vec![proposal.chaincode.clone()],
            depth: 0,
        }
    }

    /// Attaches the peer's history index, enabling
    /// [`TxContext::get_history`] (Fabric's `GetHistoryForKey`).
    pub fn with_history(mut self, history: &'a HistoryIndex) -> Self {
        self.history = Some(history);
        self
    }

    /// The full modification history of `key` in the current namespace,
    /// oldest first. Empty when the executing peer exposes no history.
    /// History reads are not recorded in the read set (they are not
    /// MVCC-validated), matching Fabric semantics.
    pub fn get_history(&self, key: &str) -> &[HistoryEntry] {
        match self.history {
            Some(history) => history.history(self.namespace(), key),
            None => &[],
        }
    }

    fn namespace(&self) -> &str {
        // lint:allow(panic: "stack invariant: constructed non-empty and only pushed/popped in balanced pairs by invoke_chaincode")
        self.namespace_stack.last().expect("stack never empty")
    }

    /// Reads `key` from the current chaincode's namespace.
    pub fn get_state(&mut self, key: &str) -> Option<Vec<u8>> {
        let ns = self.namespace().to_string();
        // Read-your-own-writes within the transaction.
        if let Some(w) = self.rwset.pending_write(&ns, key) {
            return w.value.clone();
        }
        let entry = self.state.get(&ns, key);
        self.rwset.record_read(&ns, key, entry.map(|e| e.version));
        entry.map(|e| e.value.clone())
    }

    /// Writes `key = value` in the current namespace.
    pub fn put_state(&mut self, key: &str, value: Vec<u8>) {
        let ns = self.namespace().to_string();
        self.rwset.record_write(&ns, key, Some(value));
    }

    /// Deletes `key` in the current namespace.
    pub fn delete_state(&mut self, key: &str) {
        let ns = self.namespace().to_string();
        self.rwset.record_write(&ns, key, None);
    }

    /// Range query over committed keys `[start, end)` in the current
    /// namespace. (Pending writes are not merged, matching Fabric.) Each
    /// returned key is recorded as read.
    pub fn get_state_range(&mut self, start: &str, end: &str) -> Vec<(String, Vec<u8>)> {
        let ns = self.namespace().to_string();
        let results: Vec<(String, Vec<u8>, tdt_ledger::rwset::Version)> = self
            .state
            .range(&ns, start, end)
            .map(|(k, v)| (k.to_string(), v.value.clone(), v.version))
            .collect();
        let mut out = Vec::with_capacity(results.len());
        for (k, v, ver) in results {
            self.rwset.record_read(&ns, &k, Some(ver));
            out.push((k, v));
        }
        out
    }

    /// Invokes another chaincode in the same channel, Fabric-shim style.
    ///
    /// # Errors
    ///
    /// * [`ChaincodeError::NotFound`] when `name` is not deployed.
    /// * [`ChaincodeError::Internal`] when the call depth limit is hit.
    /// * Whatever the callee returns.
    pub fn invoke_chaincode(
        &mut self,
        name: &str,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, ChaincodeError> {
        if self.depth >= MAX_CC_DEPTH {
            return Err(ChaincodeError::Internal(format!(
                "cross-chaincode call depth exceeds {MAX_CC_DEPTH}"
            )));
        }
        let code = self
            .registry
            .get(name)
            .ok_or_else(|| ChaincodeError::NotFound(format!("chaincode {name:?}")))?;
        self.namespace_stack.push(name.to_string());
        self.depth += 1;
        let result = code.invoke(self, function, args);
        self.depth -= 1;
        self.namespace_stack.pop();
        result
    }

    /// The certificate of the proposal's submitter.
    pub fn creator(&self) -> &Certificate {
        &self.proposal.creator
    }

    /// The transaction id.
    pub fn txid(&self) -> &str {
        &self.proposal.txid
    }

    /// Transient (non-ledger) data attached to the proposal.
    pub fn transient(&self, key: &str) -> Option<&[u8]> {
        self.proposal.transient.get(key).map(Vec::as_slice)
    }

    /// True when the proposal arrived via a relay from a foreign network.
    pub fn is_relay_query(&self) -> bool {
        self.proposal.relay_query
    }

    /// Information about the executing peer.
    pub fn peer(&self) -> &PeerInfo {
        &self.peer
    }

    /// Consumes the context and returns the accumulated read/write set.
    pub fn into_rwset(self) -> TxRwSet {
        self.rwset
    }

    /// Read-only view of the accumulated read/write set.
    pub fn rwset(&self) -> &TxRwSet {
        &self.rwset
    }
}

impl fmt::Debug for TxContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxContext")
            .field("txid", &self.proposal.txid)
            .field("namespace", &self.namespace())
            .field("reads", &self.rwset.read_count())
            .field("writes", &self.rwset.write_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msp::Msp;
    use tdt_crypto::cert::CertRole;
    use tdt_crypto::group::Group;
    use tdt_ledger::rwset::Version;

    /// Toy chaincode: a named counter with `incr`, `get`, and a `chain`
    /// function that calls another chaincode.
    struct Counter;

    impl Chaincode for Counter {
        fn invoke(
            &self,
            ctx: &mut TxContext<'_>,
            function: &str,
            args: &[Vec<u8>],
        ) -> Result<Vec<u8>, ChaincodeError> {
            match function {
                "incr" => {
                    let key = String::from_utf8(args[0].clone())
                        .map_err(|_| ChaincodeError::BadRequest("key not utf-8".into()))?;
                    let current = ctx
                        .get_state(&key)
                        .map(|v| u64::from_be_bytes(v.try_into().unwrap_or([0; 8])))
                        .unwrap_or(0);
                    ctx.put_state(&key, (current + 1).to_be_bytes().to_vec());
                    Ok((current + 1).to_be_bytes().to_vec())
                }
                "get" => {
                    let key = String::from_utf8(args[0].clone())
                        .map_err(|_| ChaincodeError::BadRequest("key not utf-8".into()))?;
                    ctx.get_state(&key).ok_or(ChaincodeError::NotFound(key))
                }
                "del" => {
                    let key = String::from_utf8(args[0].clone()).unwrap();
                    ctx.delete_state(&key);
                    Ok(Vec::new())
                }
                "chain" => ctx.invoke_chaincode("other", "incr", args),
                "recurse" => ctx.invoke_chaincode("counter", "recurse", args),
                other => Err(ChaincodeError::UnknownFunction(other.into())),
            }
        }
    }

    fn fixture() -> (WorldState, ChaincodeRegistry, Proposal, PeerInfo) {
        let mut msp = Msp::new("net", "org", Group::test_group(), b"s");
        let id = msp.enroll("client", CertRole::Client, false);
        let mut registry = ChaincodeRegistry::new();
        registry.deploy("counter", Arc::new(Counter));
        registry.deploy("other", Arc::new(Counter));
        let proposal = Proposal::new(
            "tx-1",
            "ch",
            "counter",
            "incr",
            vec![b"k".to_vec()],
            id.certificate().clone(),
        );
        let peer = PeerInfo {
            peer_id: "net/org/peer0".into(),
            org_id: "org".into(),
            network_id: "net".into(),
            ledger_height: 1,
        };
        (WorldState::new(), registry, proposal, peer)
    }

    #[test]
    fn get_put_roundtrip_in_context() {
        let (state, registry, proposal, peer) = fixture();
        let mut ctx = TxContext::new(&state, &registry, &proposal, peer);
        let result = Counter.invoke(&mut ctx, "incr", &[b"k".to_vec()]).unwrap();
        assert_eq!(result, 1u64.to_be_bytes());
        // Read-your-own-writes.
        let v = ctx.get_state("k").unwrap();
        assert_eq!(v, 1u64.to_be_bytes());
        let rwset = ctx.into_rwset();
        assert_eq!(rwset.write_count(), 1);
        // The initial read of the absent key was recorded with version None.
        assert_eq!(rwset.ns_sets[0].reads[0].version, None);
    }

    #[test]
    fn reads_recorded_with_committed_version() {
        let (mut state, registry, proposal, peer) = fixture();
        let mut pre = TxRwSet::new();
        pre.record_write("counter", "k", Some(5u64.to_be_bytes().to_vec()));
        state.apply(&pre, Version::new(3, 2));
        let mut ctx = TxContext::new(&state, &registry, &proposal, peer);
        let v = ctx.get_state("k").unwrap();
        assert_eq!(v, 5u64.to_be_bytes());
        let rwset = ctx.into_rwset();
        assert_eq!(rwset.ns_sets[0].reads[0].version, Some(Version::new(3, 2)));
    }

    #[test]
    fn delete_visible_within_tx() {
        let (mut state, registry, proposal, peer) = fixture();
        let mut pre = TxRwSet::new();
        pre.record_write("counter", "k", Some(vec![1]));
        state.apply(&pre, Version::new(1, 0));
        let mut ctx = TxContext::new(&state, &registry, &proposal, peer);
        ctx.delete_state("k");
        assert!(ctx.get_state("k").is_none());
    }

    #[test]
    fn cross_chaincode_invocation_switches_namespace() {
        let (state, registry, proposal, peer) = fixture();
        let mut ctx = TxContext::new(&state, &registry, &proposal, peer);
        Counter.invoke(&mut ctx, "chain", &[b"k".to_vec()]).unwrap();
        let rwset = ctx.into_rwset();
        // The write landed in the "other" namespace, not "counter".
        let ns_names: Vec<&str> = rwset.ns_sets.iter().map(|s| s.namespace.as_str()).collect();
        assert!(ns_names.contains(&"other"));
        assert!(rwset.pending_write("other", "k").is_some());
        assert!(rwset.pending_write("counter", "k").is_none());
    }

    #[test]
    fn unknown_chaincode_invocation_fails() {
        let (state, registry, proposal, peer) = fixture();
        let mut ctx = TxContext::new(&state, &registry, &proposal, peer);
        let err = ctx.invoke_chaincode("missing", "f", &[]).unwrap_err();
        assert!(matches!(err, ChaincodeError::NotFound(_)));
    }

    #[test]
    fn runaway_recursion_capped() {
        let (state, registry, proposal, peer) = fixture();
        let mut ctx = TxContext::new(&state, &registry, &proposal, peer);
        let err = Counter
            .invoke(&mut ctx, "recurse", &[b"k".to_vec()])
            .unwrap_err();
        assert!(matches!(err, ChaincodeError::Internal(_)));
    }

    #[test]
    fn range_query_records_reads() {
        let (mut state, registry, proposal, peer) = fixture();
        let mut pre = TxRwSet::new();
        pre.record_write("counter", "a1", Some(vec![1]));
        pre.record_write("counter", "a2", Some(vec![2]));
        pre.record_write("counter", "b1", Some(vec![3]));
        state.apply(&pre, Version::new(1, 0));
        let mut ctx = TxContext::new(&state, &registry, &proposal, peer);
        let results = ctx.get_state_range("a", "b");
        assert_eq!(results.len(), 2);
        assert_eq!(ctx.rwset().read_count(), 2);
    }

    #[test]
    fn proposal_sign_verify() {
        let mut msp = Msp::new("net", "org", Group::test_group(), b"s");
        let id = msp.enroll("client", CertRole::Client, false);
        let p = Proposal::new(
            "tx",
            "ch",
            "cc",
            "f",
            vec![b"a".to_vec()],
            id.certificate().clone(),
        )
        .sign(id.signing_key());
        assert!(p.verify_signature().is_ok());
    }

    #[test]
    fn tampered_proposal_rejected() {
        let mut msp = Msp::new("net", "org", Group::test_group(), b"s");
        let id = msp.enroll("client", CertRole::Client, false);
        let mut p = Proposal::new(
            "tx",
            "ch",
            "cc",
            "f",
            vec![b"a".to_vec()],
            id.certificate().clone(),
        )
        .sign(id.signing_key());
        p.args[0] = b"tampered".to_vec();
        assert!(matches!(
            p.verify_signature(),
            Err(FabricError::BadSignature(_))
        ));
    }

    #[test]
    fn unsigned_proposal_rejected() {
        let (_, _, proposal, _) = fixture();
        assert!(matches!(
            proposal.verify_signature(),
            Err(FabricError::BadSignature(_))
        ));
    }

    #[test]
    fn transient_and_flags_accessible() {
        let (state, registry, _, peer) = fixture();
        let mut msp = Msp::new("net", "org", Group::test_group(), b"s2");
        let id = msp.enroll("c", CertRole::Client, false);
        let proposal = Proposal::new("t", "ch", "counter", "f", vec![], id.certificate().clone())
            .with_transient("enc-key", vec![7, 8])
            .as_relay_query();
        let ctx = TxContext::new(&state, &registry, &proposal, peer);
        assert!(ctx.is_relay_query());
        assert_eq!(ctx.transient("enc-key"), Some(&[7u8, 8][..]));
        assert!(ctx.transient("missing").is_none());
        assert_eq!(ctx.txid(), "t");
        assert_eq!(ctx.creator().subject().common_name, "c");
    }

    #[test]
    fn registry_deploy_and_list() {
        let mut reg = ChaincodeRegistry::new();
        assert!(reg.get("counter").is_none());
        reg.deploy("counter", Arc::new(Counter));
        reg.deploy("alpha", Arc::new(Counter));
        assert!(reg.get("counter").is_some());
        assert_eq!(reg.names(), vec!["alpha", "counter"]);
    }
}
