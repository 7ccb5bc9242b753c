//! Simplified We.Trade (SWT) chaincode: trade finance with letters of credit.
//!
//! SWT "connects banks and their clients ... using letters of credit"
//! (paper §4). A single chaincode manages L/Cs and payments. The interop
//! adaptation is in `UploadDispatchDocs`, which accepts a remotely fetched
//! bill of lading together with its proof and validates both by invoking
//! the CMDAC — the paper measured ~20 SLOC for this.

use crate::abi::chaincode;
use crate::stl::BillOfLading;
use tdt_fabric::chaincode::TxContext;
use tdt_fabric::error::ChaincodeError;
use tdt_wire::codec::Message;
use tdt_wire::{message, wire_enum};

wire_enum! {
    /// Letter-of-credit lifecycle states.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum LcStatus("lc status") {
        /// Buyer applied for the L/C.
        #[default]
        Requested = 1,
        /// Buyer's bank issued the L/C in favour of the seller's bank.
        Issued = 2,
        /// Dispatch documents (the B/L) uploaded and verified.
        DocsUploaded = 3,
        /// Seller's bank requested payment.
        PaymentRequested = 4,
        /// Buyer's bank paid.
        Paid = 5,
    }
}

message! {
    /// A letter of credit on the SWT ledger.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct LetterOfCredit {
        /// L/C identifier.
        1 string lc_id: String,
        /// Purchase-order reference (the cross-network key).
        2 string po_ref: String,
        /// Buyer name.
        3 string buyer: String,
        /// Seller name.
        4 string seller: String,
        /// Amount in minor currency units.
        5 u64 amount: u64,
        /// Lifecycle state.
        6 enumeration status: LcStatus,
        /// The verified B/L bytes once docs are uploaded.
        7 bytes bl: Vec<u8>,
    }
}

/// The SWT chaincode (`WeTradeCC`).
#[derive(Debug, Clone)]
pub struct SwtChaincode {
    buyer_bank_org: String,
    seller_bank_org: String,
    /// The foreign network B/Ls are fetched from.
    source_network: String,
    /// The canonical address of the remote B/L query.
    source_address: String,
}

impl SwtChaincode {
    /// Conventional deployment name.
    pub const NAME: &'static str = "WeTradeCC";

    /// Creates the chaincode bound to the two SWT bank organizations and
    /// the remote query address B/Ls must be proven against.
    pub fn new(
        buyer_bank_org: impl Into<String>,
        seller_bank_org: impl Into<String>,
        source_network: impl Into<String>,
        source_address: impl Into<String>,
    ) -> Self {
        SwtChaincode {
            buyer_bank_org: buyer_bank_org.into(),
            seller_bank_org: seller_bank_org.into(),
            source_network: source_network.into(),
            source_address: source_address.into(),
        }
    }

    fn lc_key(po_ref: &str) -> String {
        format!("lc:{po_ref}")
    }

    fn load_lc(ctx: &mut TxContext<'_>, po_ref: &str) -> Result<LetterOfCredit, ChaincodeError> {
        let bytes = ctx
            .get_state(&Self::lc_key(po_ref))
            .ok_or_else(|| ChaincodeError::NotFound(format!("letter of credit {po_ref:?}")))?;
        LetterOfCredit::decode_from_slice(&bytes)
            .map_err(|e| ChaincodeError::Internal(format!("stored L/C corrupt: {e}")))
    }
}

chaincode! {
    impl SwtChaincode {
        /// The buyer's bank records the buyer's application for an L/C.
        fn RequestLC(
            &self, ctx, po_ref: str, lc_id: str, buyer: str, seller: str, amount: str,
        ) for Org(buyer_bank_org) {
            let amount: u64 = amount
                .parse()
                .map_err(|_| ChaincodeError::BadRequest("amount must be an integer".into()))?;
            if amount == 0 {
                return Err(ChaincodeError::BadRequest("amount must be positive".into()));
            }
            if ctx.get_state(&Self::lc_key(po_ref)).is_some() {
                return Err(ChaincodeError::BadRequest(format!(
                    "L/C for {po_ref:?} already exists"
                )));
            }
            let lc = LetterOfCredit {
                lc_id: lc_id.into(),
                po_ref: po_ref.into(),
                buyer: buyer.into(),
                seller: seller.into(),
                amount,
                status: LcStatus::Requested,
                bl: Vec::new(),
            };
            ctx.put_state(&Self::lc_key(po_ref), lc.encode_to_vec());
            Ok(Vec::new())
        }

        /// The buyer's bank issues the L/C in favour of the seller's bank.
        fn IssueLC(&self, ctx, po_ref: str) for Org(buyer_bank_org) {
            let mut lc = Self::load_lc(ctx, po_ref)?;
            if lc.status != LcStatus::Requested {
                return Err(ChaincodeError::BadRequest(format!(
                    "cannot issue L/C in state {:?}",
                    lc.status
                )));
            }
            lc.status = LcStatus::Issued;
            ctx.put_state(&Self::lc_key(po_ref), lc.encode_to_vec());
            Ok(Vec::new())
        }

        /// The seller's bank uploads the remotely fetched B/L with its proof
        /// (wire [`tdt_wire::messages::Proof`], forwarded to the CMDAC as
        /// given).
        fn UploadDispatchDocs(
            &self, ctx, po_ref: str, bl: bytes, proof: bytes,
        ) for Org(seller_bank_org) {
            let mut lc = Self::load_lc(ctx, po_ref)?;
            if lc.status != LcStatus::Issued {
                return Err(ChaincodeError::BadRequest(format!(
                    "cannot upload docs in state {:?}",
                    lc.status
                )));
            }
            // interop-adaptation: unmarshal the proof argument and have
            // interop-adaptation: the CMDAC validate it against the
            // interop-adaptation: recorded verification policy.
            let decoded = tdt_wire::messages::Proof::decode_from_slice(proof)
                .map_err(|e| ChaincodeError::BadRequest(format!("proof malformed: {e}")))?; // interop-adaptation
            if decoded.result != bl {
                // interop-adaptation
                return Err(ChaincodeError::BadRequest(
                    "proof result does not match the submitted B/L".into(), // interop-adaptation
                ));
            } // interop-adaptation
            ctx.invoke_chaincode(
                // interop-adaptation
                crate::CMDAC_NAME, // interop-adaptation
                "ValidateProof",   // interop-adaptation
                &[
                    self.source_network.clone().into_bytes(), // interop-adaptation
                    self.source_address.clone().into_bytes(), // interop-adaptation
                    proof.to_vec(),                           // interop-adaptation
                ],
            )?; // interop-adaptation
            // The verified B/L must actually cover this purchase order.
            let bill = BillOfLading::decode_from_slice(bl)
                .map_err(|e| ChaincodeError::BadRequest(format!("B/L malformed: {e}")))?;
            if bill.po_ref != po_ref {
                return Err(ChaincodeError::BadRequest(format!(
                    "B/L covers {:?}, not {po_ref:?}",
                    bill.po_ref
                )));
            }
            lc.bl = bl.to_vec();
            lc.status = LcStatus::DocsUploaded;
            ctx.put_state(&Self::lc_key(po_ref), lc.encode_to_vec());
            Ok(Vec::new())
        }

        /// The seller's bank asks for payment against verified documents.
        fn RequestPayment(&self, ctx, po_ref: str) for Org(seller_bank_org) {
            let mut lc = Self::load_lc(ctx, po_ref)?;
            if lc.status != LcStatus::DocsUploaded {
                return Err(ChaincodeError::BadRequest(format!(
                    "cannot request payment in state {:?} (valid B/L required)",
                    lc.status
                )));
            }
            lc.status = LcStatus::PaymentRequested;
            ctx.put_state(&Self::lc_key(po_ref), lc.encode_to_vec());
            Ok(Vec::new())
        }

        /// The buyer's bank records that it paid.
        fn RecordPayment(&self, ctx, po_ref: str) for Org(buyer_bank_org) {
            let mut lc = Self::load_lc(ctx, po_ref)?;
            if lc.status != LcStatus::PaymentRequested {
                return Err(ChaincodeError::BadRequest(format!(
                    "cannot record payment in state {:?}",
                    lc.status
                )));
            }
            lc.status = LcStatus::Paid;
            ctx.put_state(&Self::lc_key(po_ref), lc.encode_to_vec());
            Ok(Vec::new())
        }

        /// The wire [`LetterOfCredit`].
        fn GetLC(&self, ctx, po_ref: str) for Any {
            ctx.get_state(&Self::lc_key(po_ref))
                .ok_or_else(|| ChaincodeError::NotFound(format!("letter of credit {po_ref:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmdac::Cmdac;
    use std::sync::Arc;
    use tdt_crypto::cert::CertRole;
    use tdt_crypto::group::Group;
    use tdt_crypto::sha256::sha256;
    use tdt_fabric::chaincode::{ChaincodeRegistry, PeerInfo, Proposal};
    use tdt_fabric::msp::{Identity, Msp};
    use tdt_ledger::state::WorldState;
    use tdt_wire::messages::{
        encode_certificate, Attestation, NetworkConfig, OrgConfig, Proof, ResultMetadata,
        VerificationPolicy,
    };

    const SOURCE_ADDRESS: &str = "stl:trade-channel:TradeLensCC:GetBillOfLading";

    struct Fixture {
        state: WorldState,
        registry: ChaincodeRegistry,
        buyer_bank: Identity,
        seller_bank: Identity,
        stl_peers: Vec<(String, Identity)>,
        tx_counter: u64,
    }

    fn fixture() -> Fixture {
        let mut bb_msp = Msp::new("swt", "buyer-bank-org", Group::test_group(), b"bb");
        let mut sb_msp = Msp::new("swt", "seller-bank-org", Group::test_group(), b"sb");
        let buyer_bank = bb_msp.enroll("buyer-app", CertRole::Client, false);
        let seller_bank = sb_msp.enroll("swt-sc", CertRole::Client, true);
        // STL (source) network peers.
        let mut stl_seller_msp = Msp::new("stl", "seller-org", Group::test_group(), b"s1");
        let mut stl_carrier_msp = Msp::new("stl", "carrier-org", Group::test_group(), b"s2");
        let p1 = stl_seller_msp.enroll("peer0", CertRole::Peer, false);
        let p2 = stl_carrier_msp.enroll("peer0", CertRole::Peer, false);
        let mut registry = ChaincodeRegistry::new();
        registry.deploy(
            SwtChaincode::NAME,
            Arc::new(SwtChaincode::new(
                "buyer-bank-org",
                "seller-bank-org",
                "stl",
                SOURCE_ADDRESS,
            )),
        );
        registry.deploy("CMDAC", Arc::new(Cmdac::new()));
        let mut f = Fixture {
            state: WorldState::new(),
            registry,
            buyer_bank,
            seller_bank,
            stl_peers: vec![
                ("seller-org".to_string(), p1),
                ("carrier-org".to_string(), p2),
            ],
            tx_counter: 0,
        };
        // Record STL config + verification policy on the SWT ledger.
        let stl_config = NetworkConfig {
            network_id: "stl".into(),
            group_name: "modp768".into(),
            orgs: vec![
                OrgConfig {
                    org_id: "seller-org".into(),
                    root_cert: encode_certificate(stl_seller_msp.root_certificate()),
                    peer_certs: vec![],
                },
                OrgConfig {
                    org_id: "carrier-org".into(),
                    root_cert: encode_certificate(stl_carrier_msp.root_certificate()),
                    peer_certs: vec![],
                },
            ],
        };
        let admin = f.seller_bank.clone();
        invoke_as(
            &mut f,
            &admin,
            "CMDAC",
            "RecordForeignConfig",
            vec![stl_config.encode_to_vec()],
        )
        .unwrap();
        let policy = VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]);
        invoke_as(
            &mut f,
            &admin,
            "CMDAC",
            "SetVerificationPolicy",
            vec![
                b"stl".to_vec(),
                b"TradeLensCC".to_vec(),
                b"GetBillOfLading".to_vec(),
                policy.encode_to_vec(),
            ],
        )
        .unwrap();
        f
    }

    fn invoke_as(
        f: &mut Fixture,
        caller: &Identity,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
    ) -> Result<Vec<u8>, ChaincodeError> {
        f.tx_counter += 1;
        let proposal = Proposal::new(
            format!("tx-{}", f.tx_counter),
            "finance-channel",
            chaincode,
            function,
            args.clone(),
            caller.certificate().clone(),
        );
        let peer = PeerInfo {
            peer_id: "swt/buyer-bank-org/peer0".into(),
            org_id: "buyer-bank-org".into(),
            network_id: "swt".into(),
            ledger_height: f.tx_counter,
        };
        let mut ctx = TxContext::new(&f.state, &f.registry, &proposal, peer);
        let code = f.registry.get(chaincode).unwrap();
        let result = code.invoke(&mut ctx, function, &args);
        let rwset = ctx.into_rwset();
        if result.is_ok() {
            f.state
                .apply(&rwset, tdt_ledger::rwset::Version::new(f.tx_counter, 0));
        }
        result
    }

    fn sample_bl(po_ref: &str) -> Vec<u8> {
        BillOfLading {
            bl_id: "BL-7".into(),
            po_ref: po_ref.into(),
            carrier: "stl/carrier-org/carrier-app".into(),
            goods: "600 tulip bulbs".into(),
            issued_height: 4,
        }
        .encode_to_vec()
    }

    fn sample_proof(f: &Fixture, result: &[u8], nonce: &[u8]) -> Proof {
        let attestations = f
            .stl_peers
            .iter()
            .map(|(org, identity)| {
                let metadata = ResultMetadata {
                    request_id: "req-1".into(),
                    address: SOURCE_ADDRESS.into(),
                    result_hash: sha256(result).to_vec(),
                    nonce: nonce.to_vec(),
                    peer_id: identity.qualified_name(),
                    org_id: org.clone(),
                    ledger_height: 5,
                    committed_block_plus_one: 0,
                    txid: String::new(),
                };
                let md = metadata.encode_to_vec();
                Attestation {
                    signer_cert: encode_certificate(identity.certificate()),
                    signature: identity.sign(&md).to_bytes(),
                    metadata: md,
                    metadata_encrypted: false,
                }
            })
            .collect();
        Proof {
            request_id: "req-1".into(),
            address: SOURCE_ADDRESS.into(),
            nonce: nonce.to_vec(),
            result: result.to_vec(),
            attestations,
        }
    }

    fn open_lc(f: &mut Fixture, po: &str) {
        let bb = f.buyer_bank.clone();
        invoke_as(
            f,
            &bb,
            SwtChaincode::NAME,
            "RequestLC",
            vec![
                po.into(),
                b"LC-1".to_vec(),
                b"buyer-gmbh".to_vec(),
                b"tulip-exports".to_vec(),
                b"100000".to_vec(),
            ],
        )
        .unwrap();
        invoke_as(f, &bb, SwtChaincode::NAME, "IssueLC", vec![po.into()]).unwrap();
    }

    #[test]
    fn full_lc_lifecycle_with_verified_bl() {
        let mut f = fixture();
        open_lc(&mut f, "PO-1001");
        let bl = sample_bl("PO-1001");
        let proof = sample_proof(&f, &bl, &[3; 16]);
        let sb = f.seller_bank.clone();
        invoke_as(
            &mut f,
            &sb,
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec(), bl.clone(), proof.encode_to_vec()],
        )
        .unwrap();
        invoke_as(
            &mut f,
            &sb,
            SwtChaincode::NAME,
            "RequestPayment",
            vec![b"PO-1001".to_vec()],
        )
        .unwrap();
        let bb = f.buyer_bank.clone();
        invoke_as(
            &mut f,
            &bb,
            SwtChaincode::NAME,
            "RecordPayment",
            vec![b"PO-1001".to_vec()],
        )
        .unwrap();
        let lc_bytes = invoke_as(
            &mut f,
            &bb,
            SwtChaincode::NAME,
            "GetLC",
            vec![b"PO-1001".to_vec()],
        )
        .unwrap();
        let lc = LetterOfCredit::decode_from_slice(&lc_bytes).unwrap();
        assert_eq!(lc.status, LcStatus::Paid);
        assert_eq!(lc.bl, bl);
        assert_eq!(lc.amount, 100_000);
    }

    #[test]
    fn payment_requires_docs() {
        let mut f = fixture();
        open_lc(&mut f, "PO-1001");
        let sb = f.seller_bank.clone();
        let err = invoke_as(
            &mut f,
            &sb,
            SwtChaincode::NAME,
            "RequestPayment",
            vec![b"PO-1001".to_vec()],
        )
        .unwrap_err();
        assert!(matches!(err, ChaincodeError::BadRequest(m) if m.contains("valid B/L required")));
    }

    #[test]
    fn forged_bl_rejected() {
        // The seller forges a B/L (the exact fraud the paper's Step 9
        // prevents): the proof attests to the *real* result, so a swapped
        // B/L argument fails.
        let mut f = fixture();
        open_lc(&mut f, "PO-1001");
        let real_bl = sample_bl("PO-1001");
        let proof = sample_proof(&f, &real_bl, &[3; 16]);
        let forged_bl = BillOfLading {
            bl_id: "BL-FAKE".into(),
            po_ref: "PO-1001".into(),
            carrier: "forged".into(),
            goods: "gold bars".into(),
            issued_height: 1,
        }
        .encode_to_vec();
        let sb = f.seller_bank.clone();
        let err = invoke_as(
            &mut f,
            &sb,
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec(), forged_bl, proof.encode_to_vec()],
        )
        .unwrap_err();
        assert!(matches!(err, ChaincodeError::BadRequest(m) if m.contains("does not match")));
    }

    #[test]
    fn proof_with_insufficient_orgs_rejected() {
        let mut f = fixture();
        open_lc(&mut f, "PO-1001");
        let bl = sample_bl("PO-1001");
        let mut proof = sample_proof(&f, &bl, &[3; 16]);
        proof.attestations.truncate(1);
        let sb = f.seller_bank.clone();
        let err = invoke_as(
            &mut f,
            &sb,
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec(), bl, proof.encode_to_vec()],
        )
        .unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(_)));
    }

    #[test]
    fn replayed_proof_rejected_on_second_lc() {
        let mut f = fixture();
        open_lc(&mut f, "PO-1001");
        let bl = sample_bl("PO-1001");
        let proof = sample_proof(&f, &bl, &[3; 16]);
        let sb = f.seller_bank.clone();
        invoke_as(
            &mut f,
            &sb,
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec(), bl.clone(), proof.encode_to_vec()],
        )
        .unwrap();
        // Second L/C against the same PO-ish flow reusing the same proof.
        open_lc(&mut f, "PO-1001-second");
        let bl2 = {
            // Same B/L content re-keyed: attacker reuses the old proof verbatim.
            proof.encode_to_vec()
        };
        let err = invoke_as(
            &mut f,
            &sb,
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001-second".to_vec(), bl, bl2],
        )
        .unwrap_err();
        // Rejected: either the B/L covers the wrong PO or the nonce replays.
        assert!(matches!(
            err,
            ChaincodeError::BadRequest(_) | ChaincodeError::AccessDenied(_)
        ));
    }

    #[test]
    fn bl_for_wrong_po_rejected() {
        let mut f = fixture();
        open_lc(&mut f, "PO-2002");
        let bl = sample_bl("PO-OTHER");
        let proof = sample_proof(&f, &bl, &[4; 16]);
        let sb = f.seller_bank.clone();
        let err = invoke_as(
            &mut f,
            &sb,
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-2002".to_vec(), bl, proof.encode_to_vec()],
        )
        .unwrap_err();
        assert!(matches!(err, ChaincodeError::BadRequest(m) if m.contains("covers")));
    }

    #[test]
    fn org_separation_enforced() {
        let mut f = fixture();
        let sb = f.seller_bank.clone();
        // Seller's bank cannot request an L/C.
        assert!(matches!(
            invoke_as(
                &mut f,
                &sb,
                SwtChaincode::NAME,
                "RequestLC",
                vec![
                    b"PO-1".to_vec(),
                    b"LC-1".to_vec(),
                    b"b".to_vec(),
                    b"s".to_vec(),
                    b"10".to_vec(),
                ],
            ),
            Err(ChaincodeError::AccessDenied(_))
        ));
        open_lc(&mut f, "PO-1");
        // Buyer's bank cannot upload docs.
        let bb = f.buyer_bank.clone();
        assert!(matches!(
            invoke_as(
                &mut f,
                &bb,
                SwtChaincode::NAME,
                "UploadDispatchDocs",
                vec![b"PO-1".to_vec(), b"bl".to_vec(), b"proof".to_vec()],
            ),
            Err(ChaincodeError::AccessDenied(_))
        ));
    }

    #[test]
    fn lc_state_machine() {
        let mut f = fixture();
        let bb = f.buyer_bank.clone();
        open_lc(&mut f, "PO-1");
        // Cannot issue twice.
        assert!(matches!(
            invoke_as(
                &mut f,
                &bb,
                SwtChaincode::NAME,
                "IssueLC",
                vec![b"PO-1".to_vec()]
            ),
            Err(ChaincodeError::BadRequest(_))
        ));
        // Cannot pay before payment requested.
        assert!(matches!(
            invoke_as(
                &mut f,
                &bb,
                SwtChaincode::NAME,
                "RecordPayment",
                vec![b"PO-1".to_vec()]
            ),
            Err(ChaincodeError::BadRequest(_))
        ));
    }

    #[test]
    fn zero_amount_rejected() {
        let mut f = fixture();
        let bb = f.buyer_bank.clone();
        assert!(matches!(
            invoke_as(
                &mut f,
                &bb,
                SwtChaincode::NAME,
                "RequestLC",
                vec![
                    b"PO-1".to_vec(),
                    b"LC-1".to_vec(),
                    b"b".to_vec(),
                    b"s".to_vec(),
                    b"0".to_vec(),
                ],
            ),
            Err(ChaincodeError::BadRequest(_))
        ));
    }

    #[test]
    fn lc_message_roundtrip() {
        let lc = LetterOfCredit {
            lc_id: "LC-1".into(),
            po_ref: "PO-1".into(),
            buyer: "b".into(),
            seller: "s".into(),
            amount: 42,
            status: LcStatus::PaymentRequested,
            bl: vec![1, 2, 3],
        };
        assert_eq!(
            LetterOfCredit::decode_from_slice(&lc.encode_to_vec()).unwrap(),
            lc
        );
    }

    #[test]
    fn missing_lc_not_found() {
        let mut f = fixture();
        let bb = f.buyer_bank.clone();
        assert!(matches!(
            invoke_as(
                &mut f,
                &bb,
                SwtChaincode::NAME,
                "GetLC",
                vec![b"PO-X".to_vec()]
            ),
            Err(ChaincodeError::NotFound(_))
        ));
        // An extra argument is refused, not ignored.
        let args = vec![b"PO-X".to_vec(), b"extra".to_vec()];
        assert!(matches!(
            invoke_as(&mut f, &bb, SwtChaincode::NAME, "GetLC", args),
            Err(ChaincodeError::BadRequest(_))
        ));
    }
}
