//! Simplified TradeLens (STL) chaincode: trade-logistics shipments.
//!
//! STL "retains just a Seller and a Carrier negotiating the export of a
//! shipment" (paper §4). A single chaincode manages shipment state and
//! documentation; the carrier taking possession produces a bill of lading
//! (B/L), the document fetched cross-network by SWT.
//!
//! The contract holds no relay code: every endorsing peer asks the ECC's
//! gate before a relay proposal reaches it. What stays is the function's
//! own decision to encrypt its result for a foreign requester, one
//! `ecc::seal` call marked `// interop-adaptation` (the paper measured ~35
//! SLOC for the access check and encryption together). A foreign requester
//! reaches a function only through an exposure rule.

use crate::abi::chaincode;
use crate::ecc::seal;
use tdt_fabric::chaincode::TxContext;
use tdt_fabric::error::ChaincodeError;
use tdt_wire::codec::Message;
use tdt_wire::{message, wire_enum};

wire_enum! {
    /// Shipment lifecycle states.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum ShipmentStatus("shipment status") {
        /// Created by the seller against a purchase order.
        #[default]
        Created = 1,
        /// Carrier confirmed the booking.
        BookingConfirmed = 2,
        /// Carrier has taken possession of the goods.
        InPossession = 3,
        /// Bill of lading issued.
        BlIssued = 4,
    }
}

message! {
    /// A shipment tracked on the STL ledger.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct Shipment {
        /// Purchase-order reference negotiated offline (the cross-network key).
        1 string po_ref: String,
        /// Seller identity (qualified name).
        2 string seller: String,
        /// Carrier identity (qualified name) — set at booking confirmation.
        3 string carrier: String,
        /// Description of the goods.
        4 string goods: String,
        /// Lifecycle state.
        5 enumeration status: ShipmentStatus,
        /// Bill-of-lading id once issued.
        6 string bl_id: String,
    }
}

message! {
    /// A bill of lading: the carrier's acknowledgement of shipment receipt.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct BillOfLading {
        /// Unique B/L id.
        1 string bl_id: String,
        /// Purchase-order reference it covers.
        2 string po_ref: String,
        /// Issuing carrier (qualified name).
        3 string carrier: String,
        /// Goods description as received.
        4 string goods: String,
        /// Ledger height at issuance.
        5 u64 issued_height: u64,
    }
}

/// The STL chaincode (`TradeLensCC`).
#[derive(Debug, Clone)]
pub struct StlChaincode {
    seller_org: String,
    carrier_org: String,
}

impl StlChaincode {
    /// Conventional deployment name.
    pub const NAME: &'static str = "TradeLensCC";

    /// Creates the chaincode bound to the two STL organizations.
    pub fn new(seller_org: impl Into<String>, carrier_org: impl Into<String>) -> Self {
        StlChaincode {
            seller_org: seller_org.into(),
            carrier_org: carrier_org.into(),
        }
    }

    fn shipment_key(po_ref: &str) -> String {
        format!("shipment:{po_ref}")
    }

    fn bl_key(po_ref: &str) -> String {
        format!("bl:{po_ref}")
    }

    fn load_shipment(ctx: &mut TxContext<'_>, po_ref: &str) -> Result<Shipment, ChaincodeError> {
        let bytes = ctx
            .get_state(&Self::shipment_key(po_ref))
            .ok_or_else(|| ChaincodeError::NotFound(format!("shipment {po_ref:?}")))?;
        Shipment::decode_from_slice(&bytes)
            .map_err(|e| ChaincodeError::Internal(format!("stored shipment corrupt: {e}")))
    }
}

chaincode! {
    impl StlChaincode {
        /// The seller opens a shipment against a purchase order.
        fn CreateShipment(&self, ctx, po_ref: str, goods: str) for Org(seller_org) {
            if po_ref.is_empty() {
                return Err(ChaincodeError::BadRequest(
                    "po_ref must be non-empty".into(),
                ));
            }
            if ctx.get_state(&Self::shipment_key(po_ref)).is_some() {
                return Err(ChaincodeError::BadRequest(format!(
                    "shipment {po_ref:?} already exists"
                )));
            }
            let shipment = Shipment {
                po_ref: po_ref.into(),
                seller: ctx.creator().subject().qualified_name(),
                carrier: String::new(),
                goods: goods.into(),
                status: ShipmentStatus::Created,
                bl_id: String::new(),
            };
            ctx.put_state(&Self::shipment_key(po_ref), shipment.encode_to_vec());
            Ok(Vec::new())
        }

        /// The carrier confirms the booking and names itself.
        fn ConfirmBooking(&self, ctx, po_ref: str) for Org(carrier_org) {
            let mut shipment = Self::load_shipment(ctx, po_ref)?;
            if shipment.status != ShipmentStatus::Created {
                return Err(ChaincodeError::BadRequest(format!(
                    "cannot confirm booking in state {:?}",
                    shipment.status
                )));
            }
            shipment.carrier = ctx.creator().subject().qualified_name();
            shipment.status = ShipmentStatus::BookingConfirmed;
            ctx.put_state(&Self::shipment_key(po_ref), shipment.encode_to_vec());
            Ok(Vec::new())
        }

        /// The seller hands the goods to the carrier.
        fn TransferPossession(&self, ctx, po_ref: str) for Org(seller_org) {
            let mut shipment = Self::load_shipment(ctx, po_ref)?;
            if shipment.status != ShipmentStatus::BookingConfirmed {
                return Err(ChaincodeError::BadRequest(format!(
                    "cannot transfer possession in state {:?}",
                    shipment.status
                )));
            }
            shipment.status = ShipmentStatus::InPossession;
            ctx.put_state(&Self::shipment_key(po_ref), shipment.encode_to_vec());
            Ok(Vec::new())
        }

        /// The carrier issues the bill of lading for goods in its possession.
        fn IssueBillOfLading(&self, ctx, po_ref: str, bl_id: str) for Org(carrier_org) {
            let mut shipment = Self::load_shipment(ctx, po_ref)?;
            if shipment.status != ShipmentStatus::InPossession {
                return Err(ChaincodeError::BadRequest(format!(
                    "cannot issue B/L in state {:?}",
                    shipment.status
                )));
            }
            let bl = BillOfLading {
                bl_id: bl_id.into(),
                po_ref: po_ref.into(),
                carrier: ctx.creator().subject().qualified_name(),
                goods: shipment.goods.clone(),
                issued_height: ctx.peer().ledger_height,
            };
            shipment.status = ShipmentStatus::BlIssued;
            shipment.bl_id = bl_id.into();
            ctx.put_state(&Self::shipment_key(po_ref), shipment.encode_to_vec());
            ctx.put_state(&Self::bl_key(po_ref), bl.encode_to_vec());
            Ok(Vec::new())
        }

        /// The wire [`Shipment`], in plaintext.
        fn GetShipment(&self, ctx, po_ref: str) for Any {
            ctx.get_state(&Self::shipment_key(po_ref))
                .ok_or_else(|| ChaincodeError::NotFound(format!("shipment {po_ref:?}")))
        }

        /// Cross-network *invocation* target (the extension of paper §5 and
        /// §7): a foreign trade-finance network records the financing status
        /// of a purchase order on the logistics ledger.
        fn RecordFinancingStatus(&self, ctx, po_ref: str, status: str) for Any {
            // The shipment must exist before financing is recorded.
            Self::load_shipment(ctx, po_ref)?;
            ctx.put_state(&format!("financing:{po_ref}"), status.as_bytes().to_vec());
            seal(ctx, format!("recorded:{status}").into_bytes()) // interop-adaptation
        }

        /// The status `RecordFinancingStatus` recorded.
        fn GetFinancingStatus(&self, ctx, po_ref: str) for Any {
            ctx.get_state(&format!("financing:{po_ref}"))
                .ok_or_else(|| {
                    ChaincodeError::NotFound(format!("no financing status for {po_ref:?}"))
                })
        }

        /// Provenance: every recorded state of the shipment, oldest first,
        /// as newline-separated status codes (GetHistoryForKey).
        fn GetShipmentHistory(&self, ctx, po_ref: str) for Any {
            let history = ctx.get_history(&Self::shipment_key(po_ref));
            if history.is_empty() {
                return Err(ChaincodeError::NotFound(format!(
                    "no history for shipment {po_ref:?}"
                )));
            }
            let mut lines = Vec::with_capacity(history.len());
            for entry in history {
                let status = entry
                    .value
                    .as_deref()
                    .and_then(|bytes| Shipment::decode_from_slice(bytes).ok())
                    .map(|s| format!("{:?}", s.status))
                    .unwrap_or_else(|| "Deleted".to_string());
                lines.push(format!("{}:{}", entry.version, status));
            }
            Ok(lines.join("\n").into_bytes())
        }

        /// The wire [`BillOfLading`], sealed for a foreign requester.
        fn GetBillOfLading(&self, ctx, po_ref: str) for Any {
            let bl = ctx
                .get_state(&Self::bl_key(po_ref))
                .ok_or_else(|| ChaincodeError::NotFound(format!("no B/L for {po_ref:?}")))?;
            seal(ctx, bl) // interop-adaptation
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmdac::Cmdac;
    use crate::ecc::{Ecc, TRANSIENT_CERT, TRANSIENT_NETWORK, TRANSIENT_ORG};
    use std::sync::Arc;
    use tdt_crypto::cert::CertRole;
    use tdt_crypto::group::Group;
    use tdt_fabric::chaincode::{ChaincodeRegistry, PeerInfo, Proposal};
    use tdt_fabric::msp::{Identity, Msp};
    use tdt_ledger::state::WorldState;
    use tdt_wire::messages::{encode_certificate, NetworkConfig, OrgConfig};

    struct Fixture {
        state: WorldState,
        registry: ChaincodeRegistry,
        seller: Identity,
        carrier: Identity,
        foreign_client: Identity,
        foreign_config: NetworkConfig,
        tx_counter: u64,
    }

    fn fixture() -> Fixture {
        let mut seller_msp = Msp::new("stl", "seller-org", Group::test_group(), b"s");
        let mut carrier_msp = Msp::new("stl", "carrier-org", Group::test_group(), b"c");
        let seller = seller_msp.enroll("seller-app", CertRole::Client, false);
        let carrier = carrier_msp.enroll("carrier-app", CertRole::Client, false);
        let mut foreign_msp = Msp::new("swt", "seller-bank-org", Group::test_group(), b"f");
        let foreign_client = foreign_msp.enroll("swt-sc", CertRole::Client, true);
        let foreign_config = NetworkConfig {
            network_id: "swt".into(),
            group_name: "modp768".into(),
            orgs: vec![OrgConfig {
                org_id: "seller-bank-org".into(),
                root_cert: encode_certificate(foreign_msp.root_certificate()),
                peer_certs: vec![],
            }],
        };
        let mut registry = ChaincodeRegistry::new();
        registry.deploy(
            StlChaincode::NAME,
            Arc::new(StlChaincode::new("seller-org", "carrier-org")),
        );
        registry.deploy("ECC", Arc::new(Ecc::new()));
        registry.deploy("CMDAC", Arc::new(Cmdac::new()));
        Fixture {
            state: WorldState::new(),
            registry,
            seller,
            carrier,
            foreign_client,
            foreign_config,
            tx_counter: 0,
        }
    }

    fn invoke_as(
        f: &mut Fixture,
        caller: &Identity,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        relay: bool,
        transient: Vec<(&str, Vec<u8>)>,
    ) -> Result<Vec<u8>, ChaincodeError> {
        f.tx_counter += 1;
        let mut proposal = Proposal::new(
            format!("tx-{}", f.tx_counter),
            "trade-channel",
            chaincode,
            function,
            args.clone(),
            caller.certificate().clone(),
        );
        if relay {
            proposal = proposal.as_relay_query();
        }
        let requester = transient.into_iter().map(|(k, v)| (k.to_string(), v));
        proposal.transient.extend(requester);
        let peer = PeerInfo {
            peer_id: "stl/seller-org/peer0".into(),
            org_id: "seller-org".into(),
            network_id: "stl".into(),
            ledger_height: f.tx_counter,
        };
        let mut ctx = TxContext::new(&f.state, &f.registry, &proposal, peer);
        let code = f.registry.get(chaincode).unwrap();
        // A relay proposal passes the ECC's gate first, as on a peer.
        let result = ctx
            .admit()
            .and_then(|()| code.invoke(&mut ctx, function, &args));
        let rwset = ctx.into_rwset();
        if result.is_ok() {
            f.state
                .apply(&rwset, tdt_ledger::rwset::Version::new(f.tx_counter, 0));
        }
        result
    }

    fn full_lifecycle(f: &mut Fixture, po: &str) {
        let seller = f.seller.clone();
        let carrier = f.carrier.clone();
        invoke_as(
            f,
            &seller,
            StlChaincode::NAME,
            "CreateShipment",
            vec![po.into(), b"600 tulip bulbs".to_vec()],
            false,
            vec![],
        )
        .unwrap();
        invoke_as(
            f,
            &carrier,
            StlChaincode::NAME,
            "ConfirmBooking",
            vec![po.into()],
            false,
            vec![],
        )
        .unwrap();
        invoke_as(
            f,
            &seller,
            StlChaincode::NAME,
            "TransferPossession",
            vec![po.into()],
            false,
            vec![],
        )
        .unwrap();
        invoke_as(
            f,
            &carrier,
            StlChaincode::NAME,
            "IssueBillOfLading",
            vec![po.into(), b"BL-7".to_vec()],
            false,
            vec![],
        )
        .unwrap();
    }

    #[test]
    fn shipment_lifecycle() {
        let mut f = fixture();
        full_lifecycle(&mut f, "PO-1001");
        let seller = f.seller.clone();
        let bytes = invoke_as(
            &mut f,
            &seller,
            StlChaincode::NAME,
            "GetShipment",
            vec![b"PO-1001".to_vec()],
            false,
            vec![],
        )
        .unwrap();
        let shipment = Shipment::decode_from_slice(&bytes).unwrap();
        assert_eq!(shipment.status, ShipmentStatus::BlIssued);
        assert_eq!(shipment.bl_id, "BL-7");
        assert_eq!(shipment.seller, "stl/seller-org/seller-app");
        assert_eq!(shipment.carrier, "stl/carrier-org/carrier-app");
    }

    #[test]
    fn local_get_bl_plaintext() {
        let mut f = fixture();
        full_lifecycle(&mut f, "PO-1001");
        let seller = f.seller.clone();
        let bytes = invoke_as(
            &mut f,
            &seller,
            StlChaincode::NAME,
            "GetBillOfLading",
            vec![b"PO-1001".to_vec()],
            false,
            vec![],
        )
        .unwrap();
        let bl = BillOfLading::decode_from_slice(&bytes).unwrap();
        assert_eq!(bl.bl_id, "BL-7");
        assert_eq!(bl.po_ref, "PO-1001");
        assert_eq!(bl.goods, "600 tulip bulbs");
    }

    #[test]
    fn wrong_org_rejected_per_function() {
        let mut f = fixture();
        let seller = f.seller.clone();
        let carrier = f.carrier.clone();
        // Carrier cannot create shipments.
        assert!(matches!(
            invoke_as(
                &mut f,
                &carrier,
                StlChaincode::NAME,
                "CreateShipment",
                vec![b"PO-X".to_vec(), b"goods".to_vec()],
                false,
                vec![],
            ),
            Err(ChaincodeError::AccessDenied(_))
        ));
        invoke_as(
            &mut f,
            &seller,
            StlChaincode::NAME,
            "CreateShipment",
            vec![b"PO-X".to_vec(), b"goods".to_vec()],
            false,
            vec![],
        )
        .unwrap();
        // Seller cannot confirm bookings.
        assert!(matches!(
            invoke_as(
                &mut f,
                &seller,
                StlChaincode::NAME,
                "ConfirmBooking",
                vec![b"PO-X".to_vec()],
                false,
                vec![],
            ),
            Err(ChaincodeError::AccessDenied(_))
        ));
    }

    #[test]
    fn foreign_certificate_naming_a_local_org_is_not_that_org() {
        // Same org name, another network's CA: not the STL seller.
        let mut f = fixture();
        let mut impostor_msp = Msp::new("swt", "seller-org", Group::test_group(), b"s");
        let impostor = impostor_msp.enroll("seller-app", CertRole::Client, false);
        let err = invoke_as(
            &mut f,
            &impostor,
            StlChaincode::NAME,
            "CreateShipment",
            vec![b"PO-X".to_vec(), b"goods".to_vec()],
            false,
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(_)), "{err:?}");
        assert!(f.state.get(StlChaincode::NAME, "shipment:PO-X").is_none());
    }

    #[test]
    fn state_machine_enforced() {
        let mut f = fixture();
        let seller = f.seller.clone();
        let carrier = f.carrier.clone();
        invoke_as(
            &mut f,
            &seller,
            StlChaincode::NAME,
            "CreateShipment",
            vec![b"PO-1".to_vec(), b"goods".to_vec()],
            false,
            vec![],
        )
        .unwrap();
        // Cannot issue a B/L before possession transfer.
        assert!(matches!(
            invoke_as(
                &mut f,
                &carrier,
                StlChaincode::NAME,
                "IssueBillOfLading",
                vec![b"PO-1".to_vec(), b"BL-1".to_vec()],
                false,
                vec![],
            ),
            Err(ChaincodeError::BadRequest(_))
        ));
    }

    #[test]
    fn duplicate_shipment_rejected() {
        let mut f = fixture();
        let seller = f.seller.clone();
        invoke_as(
            &mut f,
            &seller,
            StlChaincode::NAME,
            "CreateShipment",
            vec![b"PO-1".to_vec(), b"goods".to_vec()],
            false,
            vec![],
        )
        .unwrap();
        assert!(matches!(
            invoke_as(
                &mut f,
                &seller,
                StlChaincode::NAME,
                "CreateShipment",
                vec![b"PO-1".to_vec(), b"more".to_vec()],
                false,
                vec![],
            ),
            Err(ChaincodeError::BadRequest(_))
        ));
        // An extra argument is refused, not ignored.
        let args = vec![b"PO-1".to_vec(), b"extra".to_vec()];
        assert!(matches!(
            invoke_as(
                &mut f,
                &seller,
                StlChaincode::NAME,
                "GetShipment",
                args,
                false,
                vec![]
            ),
            Err(ChaincodeError::BadRequest(_))
        ));
    }

    #[test]
    fn missing_bl_not_found() {
        let mut f = fixture();
        let seller = f.seller.clone();
        invoke_as(
            &mut f,
            &seller,
            StlChaincode::NAME,
            "CreateShipment",
            vec![b"PO-1".to_vec(), b"goods".to_vec()],
            false,
            vec![],
        )
        .unwrap();
        assert!(matches!(
            invoke_as(
                &mut f,
                &seller,
                StlChaincode::NAME,
                "GetBillOfLading",
                vec![b"PO-1".to_vec()],
                false,
                vec![],
            ),
            Err(ChaincodeError::NotFound(_))
        ));
    }

    fn setup_interop(f: &mut Fixture) {
        // Record SWT config + exposure rule on STL.
        let admin = f.seller.clone();
        let cfg = f.foreign_config.encode_to_vec();
        invoke_as(
            f,
            &admin,
            "CMDAC",
            "RecordForeignConfig",
            vec![cfg],
            false,
            vec![],
        )
        .unwrap();
        invoke_as(
            f,
            &admin,
            "ECC",
            "AddAccessRule",
            vec![
                b"swt".to_vec(),
                b"seller-bank-org".to_vec(),
                StlChaincode::NAME.as_bytes().to_vec(),
                b"GetBillOfLading".to_vec(),
            ],
            false,
            vec![],
        )
        .unwrap();
    }

    #[test]
    fn relay_query_returns_encrypted_bl() {
        let mut f = fixture();
        full_lifecycle(&mut f, "PO-1001");
        setup_interop(&mut f);
        let foreign = f.foreign_client.clone();
        let cert_bytes = encode_certificate(foreign.certificate());
        let wrapped_bytes = invoke_as(
            &mut f,
            &foreign,
            StlChaincode::NAME,
            "GetBillOfLading",
            vec![b"PO-1001".to_vec()],
            true,
            vec![
                (TRANSIENT_NETWORK, b"swt".to_vec()),
                (TRANSIENT_ORG, b"seller-bank-org".to_vec()),
                (TRANSIENT_CERT, cert_bytes),
            ],
        )
        .unwrap();
        // The relay-visible bytes are ciphertext (plus a hash), not the B/L.
        let bl_plain = {
            let seller = f.seller.clone();
            invoke_as(
                &mut f,
                &seller,
                StlChaincode::NAME,
                "GetBillOfLading",
                vec![b"PO-1001".to_vec()],
                false,
                vec![],
            )
            .unwrap()
        };
        assert_ne!(wrapped_bytes, bl_plain);
        let wrapped = crate::ecc::EncryptedResult::from_bytes(&wrapped_bytes).unwrap();
        assert_eq!(wrapped.plaintext_hash, tdt_crypto::sha256(&bl_plain));
        // Only the foreign client can decrypt.
        let ct = tdt_crypto::elgamal::Ciphertext::from_bytes(&wrapped.ciphertext).unwrap();
        let decrypted = foreign.decryption_key().unwrap().decrypt(&ct).unwrap();
        assert_eq!(decrypted, bl_plain);
    }

    #[test]
    fn relay_query_without_rule_denied() {
        let mut f = fixture();
        full_lifecycle(&mut f, "PO-1001");
        // Record config but no exposure rule.
        let admin = f.seller.clone();
        let cfg = f.foreign_config.encode_to_vec();
        invoke_as(
            &mut f,
            &admin,
            "CMDAC",
            "RecordForeignConfig",
            vec![cfg],
            false,
            vec![],
        )
        .unwrap();
        let foreign = f.foreign_client.clone();
        let cert_bytes = encode_certificate(foreign.certificate());
        let err = invoke_as(
            &mut f,
            &foreign,
            StlChaincode::NAME,
            "GetBillOfLading",
            vec![b"PO-1001".to_vec()],
            true,
            vec![
                (TRANSIENT_NETWORK, b"swt".to_vec()),
                (TRANSIENT_ORG, b"seller-bank-org".to_vec()),
                (TRANSIENT_CERT, cert_bytes),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(_)));
    }

    #[test]
    fn relay_query_missing_transient_rejected() {
        let mut f = fixture();
        full_lifecycle(&mut f, "PO-1001");
        setup_interop(&mut f);
        let foreign = f.foreign_client.clone();
        let err = invoke_as(
            &mut f,
            &foreign,
            StlChaincode::NAME,
            "GetBillOfLading",
            vec![b"PO-1001".to_vec()],
            true,
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, ChaincodeError::BadRequest(_)));
    }

    #[test]
    fn shipment_message_roundtrip() {
        let s = Shipment {
            po_ref: "PO-1".into(),
            seller: "a".into(),
            carrier: "b".into(),
            goods: "g".into(),
            status: ShipmentStatus::InPossession,
            bl_id: "BL".into(),
        };
        assert_eq!(Shipment::decode_from_slice(&s.encode_to_vec()).unwrap(), s);
    }

    #[test]
    fn bl_message_roundtrip() {
        let bl = BillOfLading {
            bl_id: "BL-1".into(),
            po_ref: "PO-1".into(),
            carrier: "c".into(),
            goods: "g".into(),
            issued_height: 9,
        };
        assert_eq!(
            BillOfLading::decode_from_slice(&bl.encode_to_vec()).unwrap(),
            bl
        );
    }
}
