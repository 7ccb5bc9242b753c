//! The application-facing interop client.
//!
//! Wraps a local-network [`Gateway`] and the local relay to provide the
//! two operations an adapted application needs (paper §5 measured ~80 SLOC
//! for this integration in the SWT Seller application):
//!
//! 1. [`InteropClient::query_remote`] — fetch data plus proof from a
//!    foreign network (Fig. 2, Steps 1-9).
//! 2. [`InteropClient::submit_with_remote_data`] — run the local
//!    transaction with the decrypted data and proof as arguments
//!    (Fig. 2, Step 10).

use crate::driver::query_auth_bytes;
use crate::error::InteropError;
use crate::proof::process_response;
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tdt_fabric::gateway::{Gateway, TxOutcome};
use tdt_obs::span::{self as obs_span, RecordErr, Span};
use tdt_obs::{ContextGuard, TraceContext};
use tdt_relay::redundancy::RelayGroup;
use tdt_relay::service::RelayService;
use tdt_relay::RelayError;
use tdt_wire::codec::Message;
use tdt_wire::messages::{
    AuthInfo, NetworkAddress, Proof, Query, QueryResponse, VerificationPolicy,
};

/// Remote data with its verified (client-side pre-checked) proof.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteData {
    /// The decrypted query result.
    pub data: Vec<u8>,
    /// The proof to pass to the local chaincode.
    pub proof: Proof,
}

impl RemoteData {
    /// Wire-encodes the proof for use as a transaction argument.
    pub fn proof_bytes(&self) -> Vec<u8> {
        self.proof.encode_to_vec()
    }
}

/// The relay (or redundant relay group) a client talks to.
#[derive(Clone)]
pub enum RelayHandle {
    /// A single relay instance.
    Single(Arc<RelayService>),
    /// A redundant group with failover.
    Group(Arc<RelayGroup>),
}

impl std::fmt::Debug for RelayHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelayHandle::Single(r) => write!(f, "RelayHandle::Single({})", r.id()),
            RelayHandle::Group(g) => write!(f, "RelayHandle::Group(len={})", g.len()),
        }
    }
}

impl RelayHandle {
    fn relay_query(&self, query: &Query) -> Result<QueryResponse, RelayError> {
        match self {
            RelayHandle::Single(relay) => relay.relay_query(query),
            RelayHandle::Group(group) => group.relay_query(query),
        }
    }
}

/// Starts the client-side span of a cross-network operation: joins the
/// caller's trace when one is installed on this thread, otherwise roots a
/// fresh sampled trace.
fn root_span(name: &'static str) -> (Span, ContextGuard) {
    match TraceContext::current() {
        Some(_) => obs_span::enter(name),
        None => {
            let root = TraceContext::root();
            let guard = root.install();
            (Span::start(name, &root), guard)
        }
    }
}

/// A client of the interoperability protocol.
#[derive(Debug)]
pub struct InteropClient {
    gateway: Gateway,
    relay: RelayHandle,
    counter: AtomicU64,
}

impl InteropClient {
    /// Creates a client backed by a single relay.
    pub fn new(gateway: Gateway, relay: Arc<RelayService>) -> Self {
        InteropClient {
            gateway,
            relay: RelayHandle::Single(relay),
            counter: AtomicU64::new(0),
        }
    }

    /// Creates a client backed by a redundant relay group.
    pub fn with_relay_group(gateway: Gateway, group: Arc<RelayGroup>) -> Self {
        InteropClient {
            gateway,
            relay: RelayHandle::Group(group),
            counter: AtomicU64::new(0),
        }
    }

    /// The underlying local-network gateway.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Builds a signed query (exposed for the instrumented flow harness).
    pub fn build_query(&self, address: NetworkAddress, policy: VerificationPolicy) -> Query {
        self.build_request(address, policy, false)
    }

    fn build_request(
        &self,
        address: NetworkAddress,
        policy: VerificationPolicy,
        invocation: bool,
    ) -> Query {
        let identity = self.gateway.identity();
        let seq = self.counter.fetch_add(1, Ordering::Relaxed);
        let mut nonce = vec![0u8; 16];
        rand::thread_rng().fill_bytes(&mut nonce);
        let request_id = format!(
            "{}-{}-{}",
            identity.qualified_name().replace('/', "."),
            std::process::id(),
            seq
        );
        let mut query = Query {
            request_id,
            address,
            policy,
            auth: AuthInfo {
                network_id: identity.certificate().subject().network.clone(),
                organization_id: identity.organization().to_string(),
                certificate: tdt_wire::messages::encode_certificate(identity.certificate()),
                signature: Vec::new(),
            },
            nonce,
            invocation,
        };
        query.auth.signature = identity
            .signing_key()
            .sign(&query_auth_bytes(&query))
            .to_bytes();
        query
    }

    /// Fetches data from a foreign network with a proof satisfying
    /// `policy` (Fig. 2, Steps 1-9).
    ///
    /// # Errors
    ///
    /// Returns an [`InteropError`] when the relay chain fails, the source
    /// denies access, or the returned proof does not verify.
    pub fn query_remote(
        &self,
        address: NetworkAddress,
        policy: VerificationPolicy,
    ) -> Result<RemoteData, InteropError> {
        let (mut span, _obs_guard) = root_span("client.query_remote");
        self.fetch_remote(address, policy, false)
            .record_err(&mut span)
    }

    /// Executes a cross-network *invocation*: a ledger update on the
    /// foreign network, returning its (decrypted) result plus a
    /// commitment receipt attested per `policy` — the extension the paper
    /// sketches in §5 ("the query protocol ... can be easily extended to
    /// enable cross-network chaincode invocations") and defers in §7.
    ///
    /// # Errors
    ///
    /// Returns an [`InteropError`] when the relay chain fails, exposure
    /// control denies the write, the transaction is invalidated at commit,
    /// or the receipt does not verify.
    pub fn invoke_remote(
        &self,
        address: NetworkAddress,
        policy: VerificationPolicy,
    ) -> Result<RemoteData, InteropError> {
        let (mut span, _obs_guard) = root_span("client.invoke_remote");
        self.fetch_remote(address, policy, true)
            .record_err(&mut span)
    }

    /// Shared body of the two remote operations: build the signed query,
    /// relay it, and verify the returned proof — each stage under its own
    /// span of the trace rooted (or joined) by the caller.
    fn fetch_remote(
        &self,
        address: NetworkAddress,
        policy: VerificationPolicy,
        invocation: bool,
    ) -> Result<RemoteData, InteropError> {
        let query = self.build_request(address, policy, invocation);
        let response = self.relay.relay_query(&query)?;
        let proof = {
            let (mut verify_span, _verify_guard) = obs_span::enter("proof.verify");
            process_response(self.gateway.identity(), &query, &response)
                .record_err(&mut verify_span)?
        };
        Ok(RemoteData {
            data: proof.result.clone(),
            proof,
        })
    }

    /// Submits a local transaction whose final two arguments are the
    /// remote data and its encoded proof (Fig. 2, Step 10).
    ///
    /// # Errors
    ///
    /// Returns [`InteropError::Fabric`] on submission failure; an
    /// invalidated transaction is reported through the outcome.
    pub fn submit_with_remote_data(
        &self,
        chaincode: &str,
        function: &str,
        mut args: Vec<Vec<u8>>,
        remote: &RemoteData,
    ) -> Result<TxOutcome, InteropError> {
        args.push(remote.data.clone());
        args.push(remote.proof_bytes());
        Ok(self.gateway.submit(chaincode, function, args)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{issue_sample_bl, stl_swt_testbed};
    use tdt_contracts::stl::BillOfLading;
    use tdt_contracts::swt::{LcStatus, LetterOfCredit, SwtChaincode};
    use tdt_wire::messages::PolicyNode;

    fn bl_address(po: &str) -> NetworkAddress {
        NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
            .with_arg(po.as_bytes().to_vec())
    }

    fn policy() -> VerificationPolicy {
        VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality()
    }

    #[test]
    fn end_to_end_query_and_upload() {
        let t = stl_swt_testbed();
        issue_sample_bl(&t, "PO-1001");
        // Open and issue the L/C on SWT.
        let buyer = t.swt_buyer_gateway();
        buyer
            .submit(
                SwtChaincode::NAME,
                "RequestLC",
                vec![
                    b"PO-1001".to_vec(),
                    b"LC-1".to_vec(),
                    b"buyer-gmbh".to_vec(),
                    b"tulip-exports".to_vec(),
                    b"100000".to_vec(),
                ],
            )
            .unwrap()
            .into_committed()
            .unwrap();
        buyer
            .submit(SwtChaincode::NAME, "IssueLC", vec![b"PO-1001".to_vec()])
            .unwrap()
            .into_committed()
            .unwrap();
        // The SWT Seller Client fetches the B/L with proof (Step 9)...
        let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        let remote = client
            .query_remote(bl_address("PO-1001"), policy())
            .unwrap();
        let bl = <BillOfLading as Message>::decode_from_slice(&remote.data).unwrap();
        assert_eq!(bl.po_ref, "PO-1001");
        // ...and runs UploadDispatchDocs with data + proof (Step 10).
        let outcome = client
            .submit_with_remote_data(
                SwtChaincode::NAME,
                "UploadDispatchDocs",
                vec![b"PO-1001".to_vec()],
                &remote,
            )
            .unwrap();
        assert!(outcome.code.is_valid());
        // The L/C has the verified B/L attached on every SWT peer.
        let lc = client
            .gateway()
            .query(SwtChaincode::NAME, "GetLC", vec![b"PO-1001".to_vec()])
            .unwrap();
        let lc = <LetterOfCredit as Message>::decode_from_slice(&lc).unwrap();
        assert_eq!(lc.status, LcStatus::DocsUploaded);
        assert_eq!(lc.bl, remote.data);
    }

    #[test]
    fn query_denied_without_exposure_rule() {
        let t = stl_swt_testbed();
        issue_sample_bl(&t, "PO-1001");
        // A buyer-bank client is not covered by the recorded rule.
        let buyer_client = t
            .swt
            .register_client("buyer-bank-org", "buyer-sc", true)
            .unwrap();
        let gateway = tdt_fabric::gateway::Gateway::new(Arc::clone(&t.swt), buyer_client);
        let client = InteropClient::new(gateway, Arc::clone(&t.swt_relay));
        let err = client
            .query_remote(bl_address("PO-1001"), policy())
            .unwrap_err();
        assert!(matches!(err, InteropError::AccessDenied(_)));
    }

    #[test]
    fn missing_remote_asset_not_found() {
        let t = stl_swt_testbed();
        let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        let err = client
            .query_remote(bl_address("PO-GHOST"), policy())
            .unwrap_err();
        assert!(matches!(err, InteropError::NotFound(_)));
    }

    #[test]
    fn request_ids_unique() {
        let t = stl_swt_testbed();
        let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        let q1 = client.build_query(bl_address("PO-1"), policy());
        let q2 = client.build_query(bl_address("PO-1"), policy());
        assert_ne!(q1.request_id, q2.request_id);
        assert_ne!(q1.nonce, q2.nonce);
    }

    #[test]
    fn relaxed_policy_single_org() {
        let t = stl_swt_testbed();
        issue_sample_bl(&t, "PO-2");
        // Record a single-org verification policy on SWT and query with it.
        let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        let single = VerificationPolicy {
            expression: PolicyNode::Org("seller-org".into()),
            confidential: true,
        };
        let remote = client.query_remote(bl_address("PO-2"), single).unwrap();
        assert_eq!(remote.proof.attestations.len(), 1);
    }

    #[test]
    fn relay_group_failover_transparent_to_client() {
        use tdt_relay::discovery::DiscoveryService;
        use tdt_relay::transport::RelayTransport;
        let t = stl_swt_testbed();
        issue_sample_bl(&t, "PO-3");
        // Build two SWT relays; take the first down.
        let relay_b = Arc::new(tdt_relay::service::RelayService::new(
            "swt-relay-b",
            "swt",
            Arc::clone(&t.registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&t.bus) as Arc<dyn RelayTransport>,
        ));
        let group = Arc::new(RelayGroup::new(vec![Arc::clone(&t.swt_relay), relay_b]).unwrap());
        t.swt_relay.set_down(true);
        let client = InteropClient::with_relay_group(t.swt_seller_gateway(), group);
        let remote = client.query_remote(bl_address("PO-3"), policy()).unwrap();
        assert!(!remote.data.is_empty());
    }
}
