//! The Simplified We.Trade applications: Buyer and the SWT Seller Client.
//!
//! The SWT Seller Client (SWT-SC) is the paper's adapted application: it
//! holds an encryption key pair, fetches the B/L from STL through the
//! relay (Step 9 of Fig. 3), decrypts and verifies the response, and runs
//! `UploadDispatchDocs` with the data and proof as arguments.

use interop::{InteropClient, InteropError, RemoteData};
use std::sync::Arc;
use tdt_contracts::swt::{LetterOfCredit, SwtChaincode};
use tdt_fabric::error::FabricError;
use tdt_fabric::gateway::Gateway;
use tdt_relay::service::RelayService;
use tdt_wire::codec::Message;
use tdt_wire::messages::{NetworkAddress, VerificationPolicy};

/// The Buyer's SWT application (a client of the Buyer's Bank).
#[derive(Debug, Clone)]
pub struct BuyerApp {
    gateway: Gateway,
}

impl BuyerApp {
    /// Connects the buyer application through `gateway`.
    pub fn new(gateway: Gateway) -> Self {
        BuyerApp { gateway }
    }

    /// Applies for a letter of credit against a purchase order.
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] on submission failure or invalidation.
    pub fn request_lc(
        &self,
        po_ref: &str,
        lc_id: &str,
        buyer: &str,
        seller: &str,
        amount: u64,
    ) -> Result<(), FabricError> {
        self.gateway
            .submit(
                SwtChaincode::NAME,
                "RequestLC",
                vec![
                    po_ref.as_bytes().to_vec(),
                    lc_id.as_bytes().to_vec(),
                    buyer.as_bytes().to_vec(),
                    seller.as_bytes().to_vec(),
                    amount.to_string().into_bytes(),
                ],
            )?
            .into_committed()?;
        Ok(())
    }

    /// Has the buyer's bank issue the L/C.
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] on submission failure or invalidation.
    pub fn issue_lc(&self, po_ref: &str) -> Result<(), FabricError> {
        self.gateway
            .submit(
                SwtChaincode::NAME,
                "IssueLC",
                vec![po_ref.as_bytes().to_vec()],
            )?
            .into_committed()?;
        Ok(())
    }

    /// Records payment against a requested payment.
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] on submission failure or invalidation.
    pub fn record_payment(&self, po_ref: &str) -> Result<(), FabricError> {
        self.gateway
            .submit(
                SwtChaincode::NAME,
                "RecordPayment",
                vec![po_ref.as_bytes().to_vec()],
            )?
            .into_committed()?;
        Ok(())
    }

    /// Reads the current L/C state.
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] when no L/C exists.
    pub fn letter_of_credit(&self, po_ref: &str) -> Result<LetterOfCredit, FabricError> {
        let bytes = self.gateway.query(
            SwtChaincode::NAME,
            "GetLC",
            vec![po_ref.as_bytes().to_vec()],
        )?;
        LetterOfCredit::decode_from_slice(&bytes).map_err(FabricError::Wire)
    }
}

/// The SWT Seller Client (SWT-SC): the interop-adapted application.
#[derive(Debug)]
pub struct SellerClientApp {
    client: InteropClient,
    /// The source network's id (STL).
    source_network: String,
    /// The source ledger (channel).
    source_ledger: String,
}

impl SellerClientApp {
    /// Connects the SWT-SC with its gateway and local relay.
    pub fn new(gateway: Gateway, relay: Arc<RelayService>) -> Self {
        SellerClientApp {
            client: InteropClient::new(gateway, relay),
            source_network: "stl".into(),
            source_ledger: "trade-channel".into(),
        }
    }

    /// The verification policy used for B/L queries: one peer from each of
    /// STL's organizations, confidential (paper §4.3).
    pub fn bl_verification_policy() -> VerificationPolicy {
        VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality()
    }

    /// Fetches the bill of lading for `po_ref` from STL with proof
    /// (Fig. 3, Step 9).
    ///
    /// # Errors
    ///
    /// Returns an [`InteropError`] when the relay chain, exposure control,
    /// or proof verification fails.
    pub fn fetch_bill_of_lading(&self, po_ref: &str) -> Result<RemoteData, InteropError> {
        // interop-adaptation: remote query via the relay service API,
        // interop-adaptation: response decryption and validation happen in
        // interop-adaptation: query_remote / process_response.
        let address = NetworkAddress::new(
            self.source_network.clone(), // interop-adaptation
            self.source_ledger.clone(),  // interop-adaptation
            "TradeLensCC",               // interop-adaptation
            "GetBillOfLading",           // interop-adaptation
        )
        .with_arg(po_ref.as_bytes().to_vec()); // interop-adaptation
        self.client
            .query_remote(address, Self::bl_verification_policy()) // interop-adaptation
    }

    /// Uploads the fetched B/L with its proof (the transaction of Step 10).
    ///
    /// # Errors
    ///
    /// Returns an [`InteropError`] on submission failure or invalidation.
    pub fn upload_dispatch_docs(
        &self,
        po_ref: &str,
        remote: &RemoteData,
    ) -> Result<(), InteropError> {
        // interop-adaptation: replace the B/L argument with the received
        // interop-adaptation: response and proof, then submit.
        let outcome = self.client.submit_with_remote_data(
            SwtChaincode::NAME,               // interop-adaptation
            "UploadDispatchDocs",             // interop-adaptation
            vec![po_ref.as_bytes().to_vec()], // interop-adaptation
            remote,                           // interop-adaptation
        )?; // interop-adaptation
        outcome.into_committed()?;
        Ok(())
    }

    /// Convenience: fetch + upload in one call.
    ///
    /// # Errors
    ///
    /// Returns an [`InteropError`] when either half fails.
    pub fn fetch_and_upload(&self, po_ref: &str) -> Result<RemoteData, InteropError> {
        let remote = self.fetch_bill_of_lading(po_ref)?;
        self.upload_dispatch_docs(po_ref, &remote)?;
        Ok(remote)
    }

    /// Requests payment under the L/C (requires verified dispatch docs).
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] on submission failure or invalidation.
    pub fn request_payment(&self, po_ref: &str) -> Result<(), FabricError> {
        self.client
            .gateway()
            .submit(
                SwtChaincode::NAME,
                "RequestPayment",
                vec![po_ref.as_bytes().to_vec()],
            )?
            .into_committed()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stl_app::{CarrierApp, SellerApp};
    use interop::setup::stl_swt_testbed;
    use tdt_contracts::swt::LcStatus;

    #[test]
    fn swt_sc_full_interop_path() {
        let t = stl_swt_testbed();
        // STL side: produce the B/L.
        let seller = SellerApp::new(t.stl_seller_gateway());
        let carrier = CarrierApp::new(t.stl_carrier_gateway());
        seller.create_shipment("PO-1", "goods").unwrap();
        carrier.confirm_booking("PO-1").unwrap();
        seller.transfer_possession("PO-1").unwrap();
        carrier.issue_bill_of_lading("PO-1", "BL-1").unwrap();
        // SWT side: L/C then docs then payment.
        let buyer = BuyerApp::new(t.swt_buyer_gateway());
        buyer.request_lc("PO-1", "LC-1", "b", "s", 5_000).unwrap();
        buyer.issue_lc("PO-1").unwrap();
        let swt_sc = SellerClientApp::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        let remote = swt_sc.fetch_and_upload("PO-1").unwrap();
        assert!(!remote.data.is_empty());
        swt_sc.request_payment("PO-1").unwrap();
        buyer.record_payment("PO-1").unwrap();
        let lc = buyer.letter_of_credit("PO-1").unwrap();
        assert_eq!(lc.status, LcStatus::Paid);
    }

    #[test]
    fn payment_blocked_without_docs() {
        let t = stl_swt_testbed();
        let buyer = BuyerApp::new(t.swt_buyer_gateway());
        buyer.request_lc("PO-2", "LC-2", "b", "s", 100).unwrap();
        buyer.issue_lc("PO-2").unwrap();
        let swt_sc = SellerClientApp::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        assert!(swt_sc.request_payment("PO-2").is_err());
    }

    #[test]
    fn fetch_fails_for_missing_bl() {
        let t = stl_swt_testbed();
        let swt_sc = SellerClientApp::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        assert!(matches!(
            swt_sc.fetch_bill_of_lading("PO-NONE"),
            Err(InteropError::NotFound(_))
        ));
    }
}
