//! E6-E9 — the paper's security evaluation (§5): confidentiality,
//! integrity, availability, and replay protection, each exercised through
//! fault/attack injection.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tdt::contracts::swt::SwtChaincode;
use tdt::interop::driver::FabricDriver;
use tdt::interop::setup::{issue_sample_bl, issue_sample_lc, stl_swt_testbed, Testbed};
use tdt::interop::{InteropClient, InteropError};
use tdt::relay::discovery::{DiscoveryService, StaticRegistry};
use tdt::relay::ratelimit::RateLimiter;
use tdt::relay::redundancy::RelayGroup;
use tdt::relay::retry::{RetryPolicy, RetryingTransport};
use tdt::relay::service::RelayService;
use tdt::relay::transport::{EnvelopeHandler, InProcessBus, RelayTransport};
use tdt::relay::RelayError;
use tdt::wire::codec::Message;
use tdt::wire::messages::{NetworkAddress, RelayEnvelope, VerificationPolicy};

fn prepared() -> Testbed {
    let t = stl_swt_testbed();
    issue_sample_bl(&t, "PO-1001");
    issue_sample_lc(&t, "PO-1001");
    t
}

fn bl_address() -> NetworkAddress {
    NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
        .with_arg(b"PO-1001".to_vec())
}

fn policy() -> VerificationPolicy {
    VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality()
}

/// A transport that records every envelope it carries (a honest-but-curious
/// relay link) before delegating to the real bus.
struct WiretapTransport {
    inner: Arc<InProcessBus>,
    captured: Mutex<Vec<Vec<u8>>>,
}

impl RelayTransport for WiretapTransport {
    fn send(&self, endpoint: &str, envelope: &RelayEnvelope) -> Result<RelayEnvelope, RelayError> {
        self.captured.lock().push(envelope.encode_to_vec());
        let reply = self.inner.send(endpoint, envelope)?;
        self.captured.lock().push(reply.encode_to_vec());
        Ok(reply)
    }
}

/// A transport that flips bits in the reply payload (a malicious relay).
struct TamperingTransport {
    inner: Arc<InProcessBus>,
}

impl RelayTransport for TamperingTransport {
    fn send(&self, endpoint: &str, envelope: &RelayEnvelope) -> Result<RelayEnvelope, RelayError> {
        let mut reply = self.inner.send(endpoint, envelope)?;
        // Decode, corrupt the result ciphertext, re-encode.
        if let Ok(mut response) =
            tdt::wire::messages::QueryResponse::decode_from_slice(&reply.payload)
        {
            if !response.result.is_empty() {
                let last = response.result.len() - 1;
                response.result[last] ^= 0x01;
                reply.payload = response.encode_to_vec();
            }
        }
        Ok(reply)
    }
}

fn client_with_transport(t: &Testbed, transport: Arc<dyn RelayTransport>) -> InteropClient {
    let relay = Arc::new(RelayService::new(
        "swt-relay-custom",
        "swt",
        Arc::clone(&t.registry) as Arc<dyn DiscoveryService>,
        transport,
    ));
    InteropClient::new(t.swt_seller_gateway(), relay)
}

fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
}

// ---------------------------------------------------------------------------
// E6: Confidentiality
// ---------------------------------------------------------------------------

#[test]
fn confidentiality_relay_never_sees_plaintext() {
    let t = prepared();
    let wiretap = Arc::new(WiretapTransport {
        inner: Arc::clone(&t.bus),
        captured: Mutex::new(Vec::new()),
    });
    let client = client_with_transport(&t, Arc::clone(&wiretap) as Arc<dyn RelayTransport>);
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    // The plaintext B/L (and even its goods description) never crossed the
    // relay link in the clear.
    let captured = wiretap.captured.lock();
    assert!(!captured.is_empty());
    for frame in captured.iter() {
        assert!(
            !contains_subslice(frame, &remote.data),
            "plaintext B/L leaked through the relay"
        );
        assert!(
            !contains_subslice(frame, b"600 tulip bulbs"),
            "goods description leaked through the relay"
        );
    }
}

#[test]
fn confidentiality_exfiltrated_proof_unusable() {
    // A malicious relay captures the response. Without the SWT-SC's
    // decryption key the metadata stays encrypted, so the proof cannot be
    // presented to any Data Acceptance contract (which requires plaintext
    // metadata matching the signatures).
    let t = prepared();
    let wiretap = Arc::new(WiretapTransport {
        inner: Arc::clone(&t.bus),
        captured: Mutex::new(Vec::new()),
    });
    let client = client_with_transport(&t, Arc::clone(&wiretap) as Arc<dyn RelayTransport>);
    client.query_remote(bl_address(), policy()).unwrap();
    // Reconstruct what the relay saw.
    let captured = wiretap.captured.lock();
    let reply = RelayEnvelope::decode_from_slice(captured.last().unwrap()).unwrap();
    let response = tdt::wire::messages::QueryResponse::decode_from_slice(&reply.payload).unwrap();
    for att in &response.attestations {
        assert!(att.metadata_encrypted);
        // The signature is over the *plaintext*; over the ciphertext it
        // does not verify, so the stolen attestation proves nothing.
        let cert = tdt::wire::messages::decode_certificate(&att.signer_cert).unwrap();
        let vk = cert.verifying_key().unwrap();
        let sig = tdt::crypto::schnorr::Signature::from_bytes(&att.signature).unwrap();
        assert!(vk.verify(&att.metadata, &sig).is_err());
    }
}

// ---------------------------------------------------------------------------
// E7: Integrity
// ---------------------------------------------------------------------------

#[test]
fn integrity_tampering_relay_detected() {
    let t = prepared();
    let client = client_with_transport(
        &t,
        Arc::new(TamperingTransport {
            inner: Arc::clone(&t.bus),
        }) as Arc<dyn RelayTransport>,
    );
    let err = client.query_remote(bl_address(), policy()).unwrap_err();
    assert!(matches!(err, InteropError::InvalidResponse(_)));
}

#[test]
fn integrity_forged_proof_rejected_by_cmdac() {
    // Even if a compromised client submitted a proof whose result was
    // swapped after attestation, the destination peers reject it.
    let t = prepared();
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let mut remote = client.query_remote(bl_address(), policy()).unwrap();
    // Forge the B/L *after* the proof was assembled.
    remote.data = b"FORGED BILL OF LADING".to_vec();
    remote.proof.result = remote.data.clone();
    let err = client
        .submit_with_remote_data(
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec()],
            &remote,
        )
        .unwrap_err();
    assert!(err.to_string().contains("result hash") || err.to_string().contains("malformed"));
}

#[test]
fn integrity_signer_outside_recorded_config_rejected() {
    // An attacker who controls a *rogue* CA for "seller-org" cannot forge
    // attestations: the CMDAC validates against the recorded roots.
    let t = prepared();
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    let mut forged = remote.clone();
    // Re-sign attestation 0 with a rogue identity claiming seller-org.
    let mut rogue_msp = tdt::fabric::msp::Msp::new(
        "stl",
        "seller-org",
        tdt::crypto::group::Group::test_group(),
        b"rogue-seed",
    );
    let rogue = rogue_msp.enroll("peer0", tdt::crypto::cert::CertRole::Peer, false);
    let md = forged.proof.attestations[0].metadata.clone();
    forged.proof.attestations[0].signer_cert =
        tdt::wire::messages::encode_certificate(rogue.certificate());
    forged.proof.attestations[0].signature = rogue.sign(&md).to_bytes();
    let err = client
        .submit_with_remote_data(
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec()],
            &forged,
        )
        .unwrap_err();
    assert!(matches!(err, InteropError::Fabric(_)));
}

// ---------------------------------------------------------------------------
// E8: Availability
// ---------------------------------------------------------------------------

#[test]
fn availability_single_relay_is_a_failure_point() {
    let t = prepared();
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    t.swt_relay.set_down(true);
    assert!(matches!(
        client.query_remote(bl_address(), policy()),
        Err(InteropError::Relay(RelayError::RelayDown(_)))
    ));
}

#[test]
fn availability_redundant_relays_mask_outage() {
    let t = prepared();
    let mut relays = vec![Arc::clone(&t.swt_relay)];
    for i in 1..3 {
        relays.push(Arc::new(RelayService::new(
            format!("swt-relay-{i}"),
            "swt",
            Arc::clone(&t.registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&t.bus) as Arc<dyn RelayTransport>,
        )));
    }
    let group = Arc::new(RelayGroup::new(relays.clone()).unwrap());
    let client = InteropClient::with_relay_group(t.swt_seller_gateway(), group);
    // Take down two of three relays: queries still succeed.
    relays[0].set_down(true);
    relays[1].set_down(true);
    for _ in 0..3 {
        assert!(client.query_remote(bl_address(), policy()).is_ok());
    }
    // All three down: unavailable.
    relays[2].set_down(true);
    assert!(client.query_remote(bl_address(), policy()).is_err());
}

#[test]
fn availability_rate_limiter_sheds_floods_but_recovers() {
    let t = prepared();
    // A source relay with a tight limiter in front of the STL driver.
    let limited = Arc::new(
        RelayService::new(
            "stl-relay-limited",
            "stl",
            Arc::clone(&t.registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&t.bus) as Arc<dyn RelayTransport>,
        )
        .with_rate_limiter(RateLimiter::new(3, 100.0)),
    );
    limited.register_driver(Arc::new(FabricDriver::new(Arc::clone(&t.stl))));
    t.bus.register(
        "stl-relay-limited",
        Arc::clone(&limited) as Arc<dyn EnvelopeHandler>,
    );
    t.registry.register("stl", "inproc:stl-relay-limited");
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    // Flood with cheap pings (an attacker needn't send valid queries): the
    // limiter sheds most of the burst, protecting the peers behind it.
    let mut shed = 0;
    for _ in 0..50 {
        let ping = RelayEnvelope {
            kind: tdt::wire::messages::EnvelopeKind::Ping,
            source_relay: "attacker".into(),
            dest_network: "stl".into(),
            payload: Vec::new(),
            correlation_id: 0,
            trace: Default::default(),
            batch: Vec::new(),
        };
        let reply = t.bus.send("inproc:stl-relay-limited", &ping).unwrap();
        if reply.kind == tdt::wire::messages::EnvelopeKind::Error {
            shed += 1;
        }
    }
    assert!(
        shed > 30,
        "flood should have been mostly shed (shed {shed})"
    );
    // After the bucket refills, legitimate queries resume.
    std::thread::sleep(std::time::Duration::from_millis(80));
    assert!(client.query_remote(bl_address(), policy()).is_ok());
}

/// A link that drops the first `remaining` envelopes (a flapping network
/// path) before delegating to the real bus.
struct FlakyLink {
    inner: Arc<InProcessBus>,
    remaining: AtomicU64,
}

impl RelayTransport for FlakyLink {
    fn send(&self, endpoint: &str, envelope: &RelayEnvelope) -> Result<RelayEnvelope, RelayError> {
        if self
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(RelayError::TransportFailed("link flapped".into()));
        }
        self.inner.send(endpoint, envelope)
    }
}

#[test]
fn availability_transient_faults_healed_by_retry() {
    let t = prepared();
    for k in [0u64, 1, 3] {
        let retrying = Arc::new(RetryingTransport::new(
            Arc::new(FlakyLink {
                inner: Arc::clone(&t.bus),
                remaining: AtomicU64::new(k),
            }),
            RetryPolicy::without_delay(5),
        ));
        let client = client_with_transport(&t, Arc::clone(&retrying) as Arc<dyn RelayTransport>);
        let remote = client.query_remote(bl_address(), policy()).unwrap();
        assert!(!remote.data.is_empty());
        // k transient faults cost exactly k retries, no more.
        assert_eq!(retrying.retries(), k, "k = {k}");
        assert_eq!(retrying.attempts(), k + 1, "k = {k}");
    }
}

#[test]
fn availability_permanent_outage_exhausts_retries_then_fails_over() {
    let t = prepared();
    // Relay A's discovery points at an endpoint nobody serves: every
    // attempt fails in transport, and retrying cannot heal it.
    let dead_registry = Arc::new(StaticRegistry::new());
    dead_registry.register("stl", "inproc:ghost-relay");
    let retrying = Arc::new(RetryingTransport::new(
        Arc::clone(&t.bus) as Arc<dyn RelayTransport>,
        RetryPolicy::without_delay(2),
    ));
    let relay_a = Arc::new(RelayService::new(
        "swt-relay-a",
        "swt",
        dead_registry as Arc<dyn DiscoveryService>,
        Arc::clone(&retrying) as Arc<dyn RelayTransport>,
    ));
    // Relay B is the healthy testbed relay; the group fails over to it.
    let group = Arc::new(RelayGroup::new(vec![relay_a, Arc::clone(&t.swt_relay)]).unwrap());
    let client = InteropClient::with_relay_group(t.swt_seller_gateway(), group);
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    assert!(!remote.data.is_empty());
    // The dead path burned its full retry budget before the failover.
    assert_eq!(retrying.attempts(), 3);
    assert_eq!(retrying.retries(), 2);
}

// ---------------------------------------------------------------------------
// E9: Replay protection
// ---------------------------------------------------------------------------

#[test]
fn replay_same_proof_rejected_via_nonce() {
    let t = prepared();
    let gateway = t.swt_seller_gateway();
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    // First validation consumes the nonce.
    gateway
        .submit(
            "CMDAC",
            "ValidateProof",
            vec![
                b"stl".to_vec(),
                b"stl:trade-channel:TradeLensCC:GetBillOfLading".to_vec(),
                remote.proof_bytes(),
            ],
        )
        .unwrap()
        .into_committed()
        .unwrap();
    // Replaying the identical proof fails.
    let err = gateway
        .submit(
            "CMDAC",
            "ValidateProof",
            vec![
                b"stl".to_vec(),
                b"stl:trade-channel:TradeLensCC:GetBillOfLading".to_vec(),
                remote.proof_bytes(),
            ],
        )
        .unwrap_err();
    assert!(err.to_string().contains("replay"));
}

#[test]
fn replay_concurrent_double_spend_caught_by_mvcc() {
    // Two transactions carrying the same proof are endorsed against the
    // same snapshot; ordering commits one, MVCC invalidates the other.
    use tdt::fabric::chaincode::Proposal;
    use tdt::fabric::endorse::TransactionEnvelope;
    let t = prepared();
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    let identity = &t.swt_seller_client;
    let orgs = vec!["buyer-bank-org".to_string(), "seller-bank-org".to_string()];
    let mut envelopes = Vec::new();
    for i in 0..2 {
        let proposal = Proposal::new(
            format!("replay-tx-{i}"),
            t.swt.channel(),
            "CMDAC",
            "ValidateProof",
            vec![
                b"stl".to_vec(),
                b"stl:trade-channel:TradeLensCC:GetBillOfLading".to_vec(),
                remote.proof_bytes(),
            ],
            identity.certificate().clone(),
        )
        .sign(identity.signing_key());
        let (sim, endorsements) = t.swt.endorse(&proposal, &orgs).unwrap();
        envelopes.push(TransactionEnvelope {
            txid: proposal.txid.clone(),
            channel: t.swt.channel().to_string(),
            chaincode: "CMDAC".into(),
            result: sim.result,
            rwset: sim.rwset,
            endorsements,
            creator_cert: identity.certificate().clone(),
        });
    }
    // Order both in one block.
    t.swt.set_batch_size(2);
    assert!(t.swt.order(&envelopes[0]).unwrap().is_none());
    let (_, codes) = t.swt.order(&envelopes[1]).unwrap().unwrap();
    let valid = codes.iter().filter(|c| c.is_valid()).count();
    assert_eq!(valid, 1, "exactly one of the two replays may commit");
}
