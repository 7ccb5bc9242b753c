//! Consensual exposure on the source (paper §3.2, §4.3): every relay
//! proposal passes the ECC's gate on each endorsing peer before any
//! contract code runs.
//!
//! * No application function of STL or SWT answers a requester that holds
//!   no exposure rule, and the refusal is the gate's, not the target's.
//! * A certificate from a CA no CMDAC records is refused even under a rule
//!   naming the org it claims, and writes nothing.
//! * System functions off the gate's allow-list are never remote.
//! * A relay `CheckAccess` answers only about the requester itself.

use std::sync::Arc;
use tdt::contracts::stl::StlChaincode;
use tdt::contracts::swt::SwtChaincode;
use tdt::crypto::cert::CertRole;
use tdt::crypto::group::Group;
use tdt::fabric::gateway::Gateway;
use tdt::fabric::msp::{Identity, Msp};
use tdt::fabric::network::FabricNetwork;
use tdt::interop::config::add_exposure_rule;
use tdt::interop::setup::{issue_sample_bl, stl_swt_testbed};
use tdt::interop::{InteropClient, InteropError};
use tdt::wire::messages::{encode_certificate, NetworkAddress, VerificationPolicy};

fn state_hashes(network: &FabricNetwork) -> Vec<[u8; 32]> {
    network
        .peers()
        .map(|(_, peer)| peer.read().state_hash())
        .collect()
}

fn stl_policy() -> VerificationPolicy {
    VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"])
}

fn assert_gate_refused(result: Result<impl std::fmt::Debug, InteropError>, what: &str) {
    match result {
        Err(InteropError::AccessDenied(m)) if m.contains("no exposure rule") => {}
        other => panic!("{what}: expected the gate's refusal, got {other:?}"),
    }
}

#[test]
fn no_application_function_answers_a_requester_without_a_rule() {
    let t = stl_swt_testbed();
    issue_sample_bl(&t, "PO-1001");
    // An SWT client with no rule on STL, and an STL client with no rule on
    // SWT. Both certificates chain to a recorded CA.
    let on_stl = InteropClient::new(t.swt_buyer_gateway(), Arc::clone(&t.swt_relay));
    let on_swt = InteropClient::new(t.stl_seller_gateway(), Arc::clone(&t.stl_relay));
    let swt_policy = VerificationPolicy::all_of_orgs(["buyer-bank-org", "seller-bank-org"]);
    let cases = [
        (
            &on_stl,
            &t.stl,
            "trade-channel",
            "TradeLensCC",
            StlChaincode::FUNCTIONS,
            stl_policy(),
        ),
        (
            &on_swt,
            &t.swt,
            "finance-channel",
            "WeTradeCC",
            SwtChaincode::FUNCTIONS,
            swt_policy,
        ),
    ];
    let mut checked = 0;
    for (client, network, channel, contract, functions, policy) in cases {
        for function in functions {
            let before = state_hashes(network);
            // No arguments: a target that ran would answer BadRequest.
            let address = NetworkAddress::new(network.name(), channel, contract, function.name);
            let what = format!("{contract}.{}", function.name);
            assert_gate_refused(client.query_remote(address.clone(), policy.clone()), &what);
            assert_gate_refused(client.invoke_remote(address, policy.clone()), &what);
            assert_eq!(state_hashes(network), before, "{what} changed state");
            checked += 1;
        }
    }
    assert_eq!(checked, 15);
}

#[test]
fn rogue_ca_requester_is_refused_under_a_rule_naming_its_org() {
    let t = stl_swt_testbed();
    issue_sample_bl(&t, "PO-1001");
    for function in ["GetShipment", "CreateShipment"] {
        add_exposure_rule(
            &t.stl_seller_gateway(),
            "swt",
            "seller-org",
            "TradeLensCC",
            function,
        )
        .unwrap();
    }
    // Claims swt/seller-org, issued by a CA no CMDAC records.
    let mut rogue_msp = Msp::new("swt", "seller-org", Group::test_group(), b"rogue");
    let rogue = rogue_msp.enroll("seller-app", CertRole::Client, false);
    let client = InteropClient::new(
        Gateway::new(Arc::clone(&t.swt), rogue),
        Arc::clone(&t.swt_relay),
    );

    let shipment = NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetShipment")
        .with_arg(b"PO-1001".to_vec());
    let err = client.query_remote(shipment, stl_policy()).unwrap_err();
    assert!(matches!(err, InteropError::AccessDenied(_)), "{err:?}");

    let before = state_hashes(&t.stl);
    let create = NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "CreateShipment")
        .with_arg(b"PO-EVIL".to_vec())
        .with_arg(b"junk".to_vec());
    let err = client.invoke_remote(create, stl_policy()).unwrap_err();
    assert!(matches!(err, InteropError::AccessDenied(_)), "{err:?}");
    assert_eq!(state_hashes(&t.stl), before);
    for (name, peer) in t.stl.peers() {
        let written = peer
            .read()
            .state()
            .get("TradeLensCC", "shipment:PO-EVIL")
            .is_some();
        assert!(!written, "PO-EVIL committed on {name}");
    }
}

#[test]
fn system_functions_off_the_allow_list_are_never_remote() {
    let t = stl_swt_testbed();
    // Even a rule naming the function does not expose it.
    add_exposure_rule(
        &t.stl_seller_gateway(),
        "swt",
        "seller-bank-org",
        "ECC",
        "ListAccessRules",
    )
    .unwrap();
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let list = NetworkAddress::new("stl", "trade-channel", "ECC", "ListAccessRules");
    let config = NetworkAddress::new("stl", "trade-channel", "CMDAC", "GetForeignConfig")
        .with_arg(b"swt".to_vec());
    for address in [list, config] {
        let err = client
            .query_remote(address.clone(), stl_policy())
            .unwrap_err();
        assert!(
            matches!(err, InteropError::AccessDenied(_)),
            "{}: {err:?}",
            address.display_name()
        );
    }
}

#[test]
fn relay_check_access_answers_only_about_the_requester() {
    let t = stl_swt_testbed();
    add_exposure_rule(
        &t.stl_seller_gateway(),
        "swt",
        "buyer-bank-org",
        "TradeLensCC",
        "GetShipment",
    )
    .unwrap();
    let ask = |org: &str, function: &str, whom: &Identity| {
        NetworkAddress::new("stl", "trade-channel", "ECC", "CheckAccess")
            .with_arg(b"swt".to_vec())
            .with_arg(org.as_bytes().to_vec())
            .with_arg(b"TradeLensCC".to_vec())
            .with_arg(function.as_bytes().to_vec())
            .with_arg(encode_certificate(whom.certificate()))
    };
    // `CheckAccess` answers in plaintext, so the query is not confidential.
    let policy = VerificationPolicy {
        confidential: false,
        ..stl_policy()
    };
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let own = ask("seller-bank-org", "GetBillOfLading", &t.swt_seller_client);
    assert_eq!(
        client.query_remote(own, policy.clone()).unwrap().data,
        b"ok"
    );
    // The buyer's bank client holds a rule, but the seller's bank may not
    // learn it.
    let other = ask("buyer-bank-org", "GetShipment", &t.swt_buyer);
    let err = client.query_remote(other, policy).unwrap_err();
    assert!(matches!(err, InteropError::AccessDenied(_)), "{err:?}");
}
