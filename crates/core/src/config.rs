//! Administrative operations of the initialization phase (paper §3.3):
//! "their system contracts must be initialized with metadata that is
//! determined by the networks' governing bodies and subsequently applied
//! to the respective ledgers by satisfying the networks' consensus rules."
//!
//! Each helper submits a real transaction through a [`Gateway`], so the
//! recorded configuration carries the local network's consensus (it is
//! endorsed per the system contract's endorsement policy and committed on
//! every peer).

use crate::error::InteropError;
use tdt_contracts::{CMDAC_NAME, ECC_NAME};
use tdt_fabric::gateway::Gateway;
use tdt_wire::codec::Message;
use tdt_wire::messages::{NetworkConfig, VerificationPolicy};

/// Records a foreign network's configuration via the CMDAC.
///
/// # Errors
///
/// Returns [`InteropError::Fabric`] when the transaction fails or is
/// invalidated.
pub fn record_foreign_config(
    gateway: &Gateway,
    config: &NetworkConfig,
) -> Result<(), InteropError> {
    gateway
        .submit(
            CMDAC_NAME,
            "RecordForeignConfig",
            vec![config.encode_to_vec()],
        )?
        .into_committed()?;
    Ok(())
}

/// Records the verification policy for a foreign contract function via the
/// CMDAC.
///
/// # Errors
///
/// Returns [`InteropError::Fabric`] when the transaction fails or is
/// invalidated.
pub fn set_verification_policy(
    gateway: &Gateway,
    network_id: &str,
    contract: &str,
    function: &str,
    policy: &VerificationPolicy,
) -> Result<(), InteropError> {
    gateway
        .submit(
            CMDAC_NAME,
            "SetVerificationPolicy",
            vec![
                network_id.as_bytes().to_vec(),
                contract.as_bytes().to_vec(),
                function.as_bytes().to_vec(),
                policy.encode_to_vec(),
            ],
        )?
        .into_committed()?;
    Ok(())
}

/// Adds an exposure-control rule `<network, org, chaincode, function>` via
/// the ECC.
///
/// # Errors
///
/// Returns [`InteropError::Fabric`] when the transaction fails or is
/// invalidated.
pub fn add_exposure_rule(
    gateway: &Gateway,
    network_id: &str,
    org_id: &str,
    chaincode: &str,
    function: &str,
) -> Result<(), InteropError> {
    gateway
        .submit(
            ECC_NAME,
            "AddAccessRule",
            vec![
                network_id.as_bytes().to_vec(),
                org_id.as_bytes().to_vec(),
                chaincode.as_bytes().to_vec(),
                function.as_bytes().to_vec(),
            ],
        )?
        .into_committed()?;
    Ok(())
}

/// Derives a verification policy from the *source network's* endorsement
/// policy for `chaincode` and records it on the destination ledger — the
/// automated construction the paper lists as future work (§7: "the
/// construction of an optimal verification policy from a network's
/// consensus policy"). Both policies are one [`tdt_wire::messages::PolicyNode`]
/// algebra, so the derived policy is the endorsement policy itself: any
/// accepted proof reflects at least the endorsement quorum that would have
/// committed the data.
///
/// # Errors
///
/// Returns [`InteropError::PolicyUnsatisfiable`] when the source has no
/// such chaincode, or [`InteropError::Fabric`] when recording fails.
pub fn derive_and_record_policy(
    destination_gateway: &Gateway,
    source_network: &tdt_fabric::network::FabricNetwork,
    chaincode: &str,
    function: &str,
    confidential: bool,
) -> Result<VerificationPolicy, InteropError> {
    let endorsement_policy = source_network.policy_of(chaincode).ok_or_else(|| {
        InteropError::PolicyUnsatisfiable(format!("source network has no chaincode {chaincode:?}"))
    })?;
    let policy = VerificationPolicy {
        expression: endorsement_policy.clone(),
        confidential,
    };
    set_verification_policy(
        destination_gateway,
        source_network.name(),
        chaincode,
        function,
        &policy,
    )?;
    Ok(policy)
}

/// Removes an exposure-control rule via the ECC.
///
/// # Errors
///
/// Returns [`InteropError::Fabric`] when the transaction fails or is
/// invalidated.
pub fn remove_exposure_rule(
    gateway: &Gateway,
    network_id: &str,
    org_id: &str,
    chaincode: &str,
    function: &str,
) -> Result<(), InteropError> {
    gateway
        .submit(
            ECC_NAME,
            "RemoveAccessRule",
            vec![
                network_id.as_bytes().to_vec(),
                org_id.as_bytes().to_vec(),
                chaincode.as_bytes().to_vec(),
                function.as_bytes().to_vec(),
            ],
        )?
        .into_committed()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::setup::stl_swt_testbed;

    #[test]
    fn derived_policy_recorded_and_usable() {
        use crate::setup::issue_sample_bl;
        use std::sync::Arc;
        let t = stl_swt_testbed();
        issue_sample_bl(&t, "PO-5");
        // Derive SWT's verification policy for GetShipment from STL's
        // endorsement policy (AND(seller-org, carrier-org)) and expose it.
        let derived = super::derive_and_record_policy(
            &t.swt_seller_gateway(),
            &t.stl,
            "TradeLensCC",
            "GetShipment",
            false,
        )
        .unwrap();
        assert!(derived
            .expression
            .is_satisfied(&["seller-org", "carrier-org"]));
        assert!(!derived.expression.is_satisfied(&["seller-org"]));
        super::add_exposure_rule(
            &t.stl_seller_gateway(),
            "swt",
            "seller-bank-org",
            "TradeLensCC",
            "GetShipment",
        )
        .unwrap();
        // A query under the derived policy works end to end, and the
        // resulting proof passes the CMDAC with that recorded policy.
        let client = crate::InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        let remote = client
            .query_remote(
                tdt_wire::messages::NetworkAddress::new(
                    "stl",
                    "trade-channel",
                    "TradeLensCC",
                    "GetShipment",
                )
                .with_arg(b"PO-5".to_vec()),
                derived,
            )
            .unwrap();
        let verdict = t
            .swt_seller_gateway()
            .submit(
                "CMDAC",
                "ValidateProof",
                vec![
                    b"stl".to_vec(),
                    b"stl:trade-channel:TradeLensCC:GetShipment".to_vec(),
                    remote.proof_bytes(),
                ],
            )
            .unwrap()
            .into_committed()
            .unwrap();
        assert_eq!(verdict, b"ok");
    }

    #[test]
    fn derive_unknown_chaincode_fails() {
        let t = stl_swt_testbed();
        assert!(super::derive_and_record_policy(
            &t.swt_seller_gateway(),
            &t.stl,
            "NoSuchCC",
            "F",
            true
        )
        .is_err());
    }

    #[test]
    fn testbed_initialization_recorded_on_ledgers() {
        let testbed = stl_swt_testbed();
        // SWT's CMDAC knows STL's configuration.
        let swt_gateway = testbed.swt_seller_gateway();
        let cfg = swt_gateway
            .query("CMDAC", "GetForeignConfig", vec![b"stl".to_vec()])
            .unwrap();
        let cfg =
            <tdt_wire::messages::NetworkConfig as tdt_wire::codec::Message>::decode_from_slice(
                &cfg,
            )
            .unwrap();
        assert_eq!(cfg.network_id, "stl");
        assert_eq!(cfg.orgs.len(), 2);
        // SWT's CMDAC holds the verification policy.
        let policy = swt_gateway
            .query(
                "CMDAC",
                "GetVerificationPolicy",
                vec![
                    b"stl".to_vec(),
                    b"TradeLensCC".to_vec(),
                    b"GetBillOfLading".to_vec(),
                ],
            )
            .unwrap();
        assert!(!policy.is_empty());
        // STL's ECC holds the paper's exposure rule.
        let stl_gateway = testbed.stl_seller_gateway();
        let rules = stl_gateway.query("ECC", "ListAccessRules", vec![]).unwrap();
        let rules = String::from_utf8(rules).unwrap();
        assert!(rules.contains("swt:seller-bank-org:TradeLensCC:GetBillOfLading"));
    }
}
