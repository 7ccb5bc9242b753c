//! Wiring helpers: assemble interoperating networks with relays, drivers,
//! discovery, and transports.
//!
//! [`stl_swt_testbed`] reproduces the paper's proof-of-concept deployment
//! (§4): Simplified TradeLens (a Seller and a Carrier org, one peer each)
//! and Simplified We.Trade (Buyer's Bank and Seller's Bank orgs, two peers
//! each), fully initialized for cross-network queries — configurations
//! exchanged, verification policy and exposure rule recorded, and one
//! relay per network on an in-process bus.

use crate::config::{add_exposure_rule, record_foreign_config, set_verification_policy};
use crate::driver::FabricDriver;
use std::sync::Arc;
use tdt_contracts::cmdac::Cmdac;
use tdt_contracts::ecc::Ecc;
use tdt_contracts::stl::StlChaincode;
use tdt_contracts::swt::SwtChaincode;
use tdt_contracts::{CMDAC_NAME, ECC_NAME};
use tdt_crypto::certcache::CertChainCache;
use tdt_fabric::gateway::Gateway;
use tdt_fabric::msp::Identity;
use tdt_fabric::network::{FabricNetwork, NetworkBuilder};
use tdt_fabric::policy::EndorsementPolicy;
use tdt_relay::discovery::{DiscoveryService, StaticRegistry};
use tdt_relay::service::RelayService;
use tdt_relay::transport::{EnvelopeHandler, InProcessBus, RelayTransport};
use tdt_wire::messages::VerificationPolicy;

/// The canonical address of the remote B/L query.
pub const BL_ADDRESS: &str = "stl:trade-channel:TradeLensCC:GetBillOfLading";

/// Builds the Simplified TradeLens network: Seller and Carrier orgs, one
/// peer each, running `TradeLensCC` plus the ECC and CMDAC system
/// contracts.
pub fn stl_network() -> Arc<FabricNetwork> {
    stl_network_with_cert_cache(Arc::new(CertChainCache::new()))
}

/// [`stl_network`] with the CMDAC using `cert_cache` for chain
/// validation, so the cache can be shared with the network's relay.
pub fn stl_network_with_cert_cache(cert_cache: Arc<CertChainCache>) -> Arc<FabricNetwork> {
    NetworkBuilder::new("stl")
        .channel("trade-channel")
        .org("seller-org", 1)
        .org("carrier-org", 1)
        .chaincode(
            StlChaincode::NAME,
            Arc::new(StlChaincode::new("seller-org", "carrier-org")),
            EndorsementPolicy::all_of(["seller-org", "carrier-org"]),
        )
        .chaincode(
            ECC_NAME,
            Arc::new(Ecc::new()),
            EndorsementPolicy::all_of(["seller-org", "carrier-org"]),
        )
        .chaincode(
            CMDAC_NAME,
            Arc::new(Cmdac::with_cert_cache(cert_cache)),
            EndorsementPolicy::all_of(["seller-org", "carrier-org"]),
        )
        .build()
}

/// Builds the Simplified We.Trade network: Buyer's Bank and Seller's Bank
/// orgs, two peers each, running `WeTradeCC` plus ECC and CMDAC. The
/// `WeTradeCC` endorsement policy is the paper's: one peer from each bank.
pub fn swt_network() -> Arc<FabricNetwork> {
    swt_network_with_cert_cache(Arc::new(CertChainCache::new()))
}

/// [`swt_network`] with the CMDAC using `cert_cache` for chain
/// validation, so the cache can be shared with the network's relay.
pub fn swt_network_with_cert_cache(cert_cache: Arc<CertChainCache>) -> Arc<FabricNetwork> {
    NetworkBuilder::new("swt")
        .channel("finance-channel")
        .org("buyer-bank-org", 2)
        .org("seller-bank-org", 2)
        .chaincode(
            SwtChaincode::NAME,
            Arc::new(SwtChaincode::new(
                "buyer-bank-org",
                "seller-bank-org",
                "stl",
                BL_ADDRESS,
            )),
            EndorsementPolicy::all_of(["buyer-bank-org", "seller-bank-org"]),
        )
        .chaincode(
            ECC_NAME,
            Arc::new(Ecc::new()),
            EndorsementPolicy::all_of(["buyer-bank-org", "seller-bank-org"]),
        )
        .chaincode(
            CMDAC_NAME,
            Arc::new(Cmdac::with_cert_cache(cert_cache)),
            EndorsementPolicy::all_of(["buyer-bank-org", "seller-bank-org"]),
        )
        .build()
}

/// A fully wired pair of interoperating networks.
pub struct Testbed {
    /// Simplified TradeLens.
    pub stl: Arc<FabricNetwork>,
    /// Simplified We.Trade.
    pub swt: Arc<FabricNetwork>,
    /// The in-process relay bus.
    pub bus: Arc<InProcessBus>,
    /// The discovery registry (network -> relay endpoint).
    pub registry: Arc<StaticRegistry>,
    /// STL's relay.
    pub stl_relay: Arc<RelayService>,
    /// SWT's relay.
    pub swt_relay: Arc<RelayService>,
    /// STL Seller application identity.
    pub stl_seller: Identity,
    /// STL Carrier application identity.
    pub stl_carrier: Identity,
    /// SWT Buyer application identity (client of the Buyer's Bank).
    pub swt_buyer: Identity,
    /// The SWT Seller Client (SWT-SC), issued with an encryption key pair
    /// per §4.3.
    pub swt_seller_client: Identity,
}

impl Testbed {
    /// Gateway for the STL Seller application.
    pub fn stl_seller_gateway(&self) -> Gateway {
        Gateway::new(Arc::clone(&self.stl), self.stl_seller.clone())
    }

    /// Gateway for the STL Carrier application.
    pub fn stl_carrier_gateway(&self) -> Gateway {
        Gateway::new(Arc::clone(&self.stl), self.stl_carrier.clone())
    }

    /// Gateway for the SWT Buyer application.
    pub fn swt_buyer_gateway(&self) -> Gateway {
        Gateway::new(Arc::clone(&self.swt), self.swt_buyer.clone())
    }

    /// Gateway for the SWT Seller Client.
    pub fn swt_seller_gateway(&self) -> Gateway {
        Gateway::new(Arc::clone(&self.swt), self.swt_seller_client.clone())
    }
}

/// Builds and initializes the paper's full proof-of-concept deployment.
///
/// Each network's CMDAC shares its certificate-chain cache with that
/// network's relay, so cross-network proof validation hit rates are
/// observable through [`RelayService::stats`].
pub fn stl_swt_testbed() -> Testbed {
    let stl_cert_cache = Arc::new(CertChainCache::new());
    let swt_cert_cache = Arc::new(CertChainCache::new());
    let stl = stl_network_with_cert_cache(Arc::clone(&stl_cert_cache));
    let swt = swt_network_with_cert_cache(Arc::clone(&swt_cert_cache));

    // Client identities (applications).
    let stl_seller = stl
        .register_client("seller-org", "seller-app", false)
        // lint:allow(panic: "deterministic demo fixture; org names are compile-time constants")
        .expect("seller-org exists");
    let stl_carrier = stl
        .register_client("carrier-org", "carrier-app", false)
        // lint:allow(panic: "deterministic demo fixture; org names are compile-time constants")
        .expect("carrier-org exists");
    let swt_buyer = swt
        .register_client("buyer-bank-org", "buyer-app", false)
        // lint:allow(panic: "deterministic demo fixture; org names are compile-time constants")
        .expect("buyer-bank-org exists");
    let swt_seller_client = swt
        .register_client("seller-bank-org", "swt-sc", true)
        // lint:allow(panic: "deterministic demo fixture; org names are compile-time constants")
        .expect("seller-bank-org exists");

    // Initialization phase: exchange configurations and record policies.
    let stl_admin = Gateway::new(Arc::clone(&stl), stl_seller.clone());
    let swt_admin = Gateway::new(Arc::clone(&swt), swt_seller_client.clone());
    // lint:allow(panic: "deterministic demo fixture; freshly built networks always accept config")
    record_foreign_config(&stl_admin, &swt.network_config()).expect("record SWT config on STL");
    // lint:allow(panic: "deterministic demo fixture; freshly built networks always accept config")
    record_foreign_config(&swt_admin, &stl.network_config()).expect("record STL config on SWT");
    set_verification_policy(
        &swt_admin,
        "stl",
        StlChaincode::NAME,
        "GetBillOfLading",
        &VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality(),
    )
    // lint:allow(panic: "deterministic demo fixture; policy arguments are compile-time constants")
    .expect("record verification policy on SWT");
    add_exposure_rule(
        &stl_admin,
        "swt",
        "seller-bank-org",
        StlChaincode::NAME,
        "GetBillOfLading",
    )
    // lint:allow(panic: "deterministic demo fixture; rule arguments are compile-time constants")
    .expect("record exposure rule on STL");

    // Relays on an in-process bus with a static discovery registry.
    let bus = Arc::new(InProcessBus::new());
    let registry = Arc::new(StaticRegistry::new());
    registry.register("stl", "inproc:stl-relay");
    registry.register("swt", "inproc:swt-relay");
    let stl_relay = Arc::new(
        RelayService::new(
            "stl-relay",
            "stl",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        )
        .with_cert_cache(stl_cert_cache),
    );
    stl_relay.register_driver(Arc::new(FabricDriver::new(Arc::clone(&stl))));
    let swt_relay = Arc::new(
        RelayService::new(
            "swt-relay",
            "swt",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        )
        .with_cert_cache(swt_cert_cache),
    );
    swt_relay.register_driver(Arc::new(FabricDriver::new(Arc::clone(&swt))));
    bus.register(
        "stl-relay",
        Arc::clone(&stl_relay) as Arc<dyn EnvelopeHandler>,
    );
    bus.register(
        "swt-relay",
        Arc::clone(&swt_relay) as Arc<dyn EnvelopeHandler>,
    );

    Testbed {
        stl,
        swt,
        bus,
        registry,
        stl_relay,
        swt_relay,
        stl_seller,
        stl_carrier,
        swt_buyer,
        swt_seller_client,
    }
}

/// Drives the STL shipment lifecycle for `po_ref` to the point where a
/// bill of lading exists (paper Fig. 3, Steps 1 and 5-8).
pub fn issue_sample_bl(testbed: &Testbed, po_ref: &str) {
    let seller = testbed.stl_seller_gateway();
    let carrier = testbed.stl_carrier_gateway();
    seller
        .submit(
            StlChaincode::NAME,
            "CreateShipment",
            vec![po_ref.as_bytes().to_vec(), b"600 tulip bulbs".to_vec()],
        )
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("create shipment")
        .into_committed()
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("shipment committed");
    carrier
        .submit(
            StlChaincode::NAME,
            "ConfirmBooking",
            vec![po_ref.as_bytes().to_vec()],
        )
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("confirm booking")
        .into_committed()
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("booking committed");
    seller
        .submit(
            StlChaincode::NAME,
            "TransferPossession",
            vec![po_ref.as_bytes().to_vec()],
        )
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("transfer possession")
        .into_committed()
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("possession committed");
    carrier
        .submit(
            StlChaincode::NAME,
            "IssueBillOfLading",
            vec![
                po_ref.as_bytes().to_vec(),
                format!("BL-{po_ref}").into_bytes(),
            ],
        )
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("issue B/L")
        .into_committed()
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("B/L committed");
}

/// Opens and issues the letter of credit for `po_ref` on SWT (paper
/// Fig. 3, Steps 2-4), so the seller can later upload dispatch documents.
pub fn issue_sample_lc(testbed: &Testbed, po_ref: &str) {
    let buyer = testbed.swt_buyer_gateway();
    buyer
        .submit(
            SwtChaincode::NAME,
            "RequestLC",
            vec![
                po_ref.as_bytes().to_vec(),
                b"LC-1".to_vec(),
                b"buyer".to_vec(),
                b"seller".to_vec(),
                b"100000".to_vec(),
            ],
        )
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("request L/C")
        .into_committed()
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("L/C request committed");
    buyer
        .submit(
            SwtChaincode::NAME,
            "IssueLC",
            vec![po_ref.as_bytes().to_vec()],
        )
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("issue L/C")
        .into_committed()
        // lint:allow(panic: "demo lifecycle driver over a fixture ledger; not reachable from network input")
        .expect("L/C issue committed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_with_paper_topology() {
        let t = stl_swt_testbed();
        assert_eq!(t.stl.peers().count(), 2, "STL has 2 peers");
        assert_eq!(t.swt.peers().count(), 4, "SWT has 4 peers");
        assert_eq!(t.stl.org_ids(), vec!["carrier-org", "seller-org"]);
        assert_eq!(t.swt.org_ids(), vec!["buyer-bank-org", "seller-bank-org"]);
        assert!(t.swt_seller_client.decryption_key().is_some());
    }

    #[test]
    fn bl_issuance_flows() {
        let t = stl_swt_testbed();
        issue_sample_bl(&t, "PO-42");
        let bl = t
            .stl_seller_gateway()
            .query(
                StlChaincode::NAME,
                "GetBillOfLading",
                vec![b"PO-42".to_vec()],
            )
            .unwrap();
        let bl =
            <tdt_contracts::stl::BillOfLading as tdt_wire::codec::Message>::decode_from_slice(&bl)
                .unwrap();
        assert_eq!(bl.bl_id, "BL-PO-42");
    }

    #[test]
    fn shipment_history_via_chaincode() {
        // GetShipmentHistory uses the peer's history index (Fabric's
        // GetHistoryForKey): four lifecycle states, oldest first.
        let t = stl_swt_testbed();
        issue_sample_bl(&t, "PO-H");
        let history = t
            .stl_seller_gateway()
            .query(
                StlChaincode::NAME,
                "GetShipmentHistory",
                vec![b"PO-H".to_vec()],
            )
            .unwrap();
        let text = String::from_utf8(history).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].ends_with("Created"));
        assert!(lines[1].ends_with("BookingConfirmed"));
        assert!(lines[2].ends_with("InPossession"));
        assert!(lines[3].ends_with("BlIssued"));
    }

    #[test]
    fn discovery_registry_wired() {
        let t = stl_swt_testbed();
        assert_eq!(t.registry.lookup("stl").unwrap(), "inproc:stl-relay");
        assert_eq!(t.registry.lookup("swt").unwrap(), "inproc:swt-relay");
    }
}
