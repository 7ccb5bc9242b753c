//! Cross-network events: the Fabric event source and notice verification.
//!
//! Completes the publish/subscribe primitive of paper §2 (deferred in §7):
//! a destination application subscribes through its relay; the source
//! relay's [`FabricEventSource`] forwards every committed block as an
//! [`EventNotice`] *attested by a source peer*, so the subscriber can
//! authenticate notices against the recorded source configuration exactly
//! like query proofs.

use crate::error::InteropError;
use std::sync::Arc;
use tdt_contracts::foreign;
use tdt_crypto::certcache::CertChainCache;
use tdt_fabric::network::FabricNetwork;
use tdt_ledger::block::TxValidationCode;
use tdt_relay::events::{EventSink, EventSource};
use tdt_relay::RelayError;
use tdt_wire::messages::{decode_certificate, EventNotice, EventSubscribeRequest, NetworkConfig};

/// Streams a [`FabricNetwork`]'s block events to remote subscribers.
pub struct FabricEventSource {
    network: Arc<FabricNetwork>,
}

impl std::fmt::Debug for FabricEventSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricEventSource")
            .field("network", &self.network.name())
            .finish()
    }
}

impl FabricEventSource {
    /// Creates an event source for `network`.
    pub fn new(network: Arc<FabricNetwork>) -> Self {
        FabricEventSource { network }
    }
}

impl EventSource for FabricEventSource {
    fn network_id(&self) -> &str {
        self.network.name()
    }

    fn start(&self, request: &EventSubscribeRequest, sink: EventSink) -> Result<(), RelayError> {
        // Attest notices with the first available peer's identity.
        let (_, peer) = self
            .network
            .peers()
            .next()
            .map(|(n, p)| (n.to_string(), Arc::clone(p)))
            .ok_or_else(|| RelayError::DriverFailed("network has no peers".into()))?;
        let identity = peer.read().identity().clone();
        let rx = self.network.events().subscribe();
        let subscription_id = request.subscription_id.clone();
        let network_id = self.network.name().to_string();
        std::thread::spawn(move || {
            for event in rx.iter() {
                let mut notice = EventNotice {
                    subscription_id: subscription_id.clone(),
                    network_id: network_id.clone(),
                    block_number: event.block_number,
                    txids: event.txids,
                    validation: event
                        .validation
                        .iter()
                        .map(|c| u8::from(matches!(c, TxValidationCode::Valid)))
                        .collect(),
                    signer_cert: tdt_wire::messages::encode_certificate(identity.certificate()),
                    signature: Vec::new(),
                };
                notice.signature = identity.sign(&notice.signing_bytes()).to_bytes();
                if sink(notice).is_err() {
                    // Subscriber gone or relay down: stop forwarding.
                    break;
                }
            }
        });
        Ok(())
    }
}

/// Verifies an event notice against a recorded source-network
/// configuration: the signer must pass [`foreign::verify_signer`] (a peer
/// chaining to a recorded org root, through `cache`) and the signature must
/// cover the notice's canonical bytes.
///
/// # Errors
///
/// Returns [`InteropError::InvalidResponse`] on any verification failure.
pub fn verify_event_notice(
    notice: &EventNotice,
    config: &NetworkConfig,
    cache: &CertChainCache,
) -> Result<(), InteropError> {
    if notice.network_id != config.network_id {
        return Err(InteropError::InvalidResponse(format!(
            "notice from {:?} checked against config for {:?}",
            notice.network_id, config.network_id
        )));
    }
    let cert = decode_certificate(&notice.signer_cert)
        .map_err(|e| InteropError::InvalidResponse(format!("notice cert: {e}")))?;
    let vk = foreign::verify_signer(config, &cert, cache)?;
    let signature = tdt_crypto::schnorr::Signature::from_bytes(&notice.signature)
        .map_err(|e| InteropError::InvalidResponse(format!("notice signature: {e}")))?;
    vk.verify(&notice.signing_bytes(), &signature)
        .map_err(|_| InteropError::InvalidResponse("notice signature invalid".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{issue_sample_bl, stl_swt_testbed};
    use std::time::Duration;
    use tdt_wire::messages::AuthInfo;

    fn subscribe(t: &crate::setup::Testbed) -> crossbeam::channel::Receiver<EventNotice> {
        // Attach the event source to the STL relay (source side).
        t.stl_relay
            .register_event_source(Arc::new(FabricEventSource::new(Arc::clone(&t.stl))));
        let auth = AuthInfo {
            network_id: "swt".into(),
            organization_id: "seller-bank-org".into(),
            certificate: tdt_wire::messages::encode_certificate(t.swt_seller_client.certificate()),
            signature: Vec::new(),
        };
        t.swt_relay.subscribe_remote_events("stl", auth).unwrap()
    }

    #[test]
    fn subscriber_receives_attested_block_events() {
        let t = stl_swt_testbed();
        let rx = subscribe(&t);
        issue_sample_bl(&t, "PO-77"); // commits 4 blocks on STL
        let stl_config = t.stl.network_config();
        let cache = CertChainCache::new();
        let mut received = 0;
        while let Ok(notice) = rx.recv_timeout(Duration::from_secs(5)) {
            verify_event_notice(&notice, &stl_config, &cache).unwrap();
            assert_eq!(notice.network_id, "stl");
            assert_eq!(notice.validation, vec![1]);
            received += 1;
            if received == 4 {
                break;
            }
        }
        assert_eq!(received, 4);
    }

    #[test]
    fn forged_notice_rejected() {
        let t = stl_swt_testbed();
        let rx = subscribe(&t);
        issue_sample_bl(&t, "PO-78");
        let notice = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let stl_config = t.stl.network_config();
        let cache = CertChainCache::new();
        // Tamper with the block number: the signature no longer covers it.
        let mut forged = notice.clone();
        forged.block_number += 100;
        assert!(verify_event_notice(&forged, &stl_config, &cache).is_err());
        // A notice claiming another network fails too.
        let mut wrong_net = notice.clone();
        wrong_net.network_id = "other".into();
        assert!(verify_event_notice(&wrong_net, &stl_config, &cache).is_err());
        // And a rogue signer outside the recorded config.
        let mut rogue_msp = tdt_fabric::msp::Msp::new(
            "stl",
            "seller-org",
            tdt_crypto::group::Group::test_group(),
            b"rogue",
        );
        let rogue = rogue_msp.enroll("peer0", tdt_crypto::cert::CertRole::Peer, false);
        let mut rogue_notice = notice.clone();
        rogue_notice.signer_cert = tdt_wire::messages::encode_certificate(rogue.certificate());
        rogue_notice.signature = rogue.sign(&rogue_notice.signing_bytes()).to_bytes();
        assert!(verify_event_notice(&rogue_notice, &stl_config, &cache).is_err());
    }

    #[test]
    fn notice_signed_by_a_client_rejected() {
        let t = stl_swt_testbed();
        let rx = subscribe(&t);
        issue_sample_bl(&t, "PO-80");
        let mut notice = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // A recorded org's *client* announces a block that does not exist.
        let gateway = t.stl_seller_gateway();
        let client = gateway.identity();
        notice.block_number += 100;
        notice.signer_cert = tdt_wire::messages::encode_certificate(client.certificate());
        notice.signature = client.sign(&notice.signing_bytes()).to_bytes();
        let err = verify_event_notice(&notice, &t.stl.network_config(), &CertChainCache::new())
            .unwrap_err();
        let InteropError::InvalidResponse(message) = err else {
            panic!("expected InvalidResponse, got {err:?}");
        };
        assert!(
            message.contains("not a peer") && message.contains("Client"),
            "{message}"
        );
    }

    #[test]
    fn unsubscribe_stops_delivery_acknowledgement() {
        let t = stl_swt_testbed();
        let rx = subscribe(&t);
        assert_eq!(t.swt_relay.subscription_count(), 1);
        issue_sample_bl(&t, "PO-79");
        // Drain at least one event, then unsubscribe.
        let first = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        t.swt_relay.unsubscribe(&first.subscription_id);
        assert_eq!(t.swt_relay.subscription_count(), 0);
    }

    #[test]
    fn subscription_to_unknown_network_fails() {
        let t = stl_swt_testbed();
        let auth = AuthInfo::default();
        assert!(matches!(
            t.swt_relay.subscribe_remote_events("mars", auth),
            Err(tdt_relay::RelayError::DiscoveryFailed(_))
        ));
    }

    #[test]
    fn subscription_without_source_refused() {
        let t = stl_swt_testbed();
        // STL relay has no event source registered in this test.
        let auth = AuthInfo::default();
        let err = t
            .swt_relay
            .subscribe_remote_events("stl", auth)
            .unwrap_err();
        assert!(matches!(err, tdt_relay::RelayError::Remote(m) if m.contains("no event source")));
        assert_eq!(t.swt_relay.subscription_count(), 0);
    }
}
