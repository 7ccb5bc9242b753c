//! Golden genesis blocks of the paper's two networks.
//!
//! Block 0 records every deployed chaincode with its endorsement policy in
//! Fabric's text form (`chaincode=<name> policy=AND('a.member', ...)`), so
//! its header hash pins the policy tree, its renderer and the order of
//! deployment at once. Every later block links to it, so any drift here
//! changes every block hash and WAL byte after it.
//!
//! The constants were recorded once and are not regenerated: a change that
//! moves them changes the ledger format.

use std::sync::Arc;
use tdt::fabric::network::FabricNetwork;
use tdt::interop::setup::{stl_network, swt_network};

const STL_GENESIS: &[&str] = &[
    "network=stl",
    "channel=trade-channel",
    "chaincode=TradeLensCC policy=AND('seller-org.member', 'carrier-org.member')",
    "chaincode=ECC policy=AND('seller-org.member', 'carrier-org.member')",
    "chaincode=CMDAC policy=AND('seller-org.member', 'carrier-org.member')",
];
const STL_BLOCK0: &str = "792567c87013770a39aac55d5986fd200aa9098b1dd034acb35f4a4da0280449";

const SWT_GENESIS: &[&str] = &[
    "network=swt",
    "channel=finance-channel",
    "chaincode=WeTradeCC policy=AND('buyer-bank-org.member', 'seller-bank-org.member')",
    "chaincode=ECC policy=AND('buyer-bank-org.member', 'seller-bank-org.member')",
    "chaincode=CMDAC policy=AND('buyer-bank-org.member', 'seller-bank-org.member')",
];
const SWT_BLOCK0: &str = "2611cb777915bf286dd7e5f5f484bc998914ddcd3ad531de47291610798a98ae";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Checks that every peer of `network` holds the same block 0, with the
/// given config lines and header hash.
fn assert_genesis(network: &Arc<FabricNetwork>, lines: &[&str], block0: &str) {
    let mut peers = 0;
    for (name, peer) in network.peers() {
        let peer = peer.read();
        let genesis = peer.store().block(0).expect("every peer holds block 0");
        let text: Vec<String> = genesis
            .transactions
            .iter()
            .map(|tx| String::from_utf8_lossy(tx).into_owned())
            .collect();
        assert_eq!(text, lines, "{name}: genesis config lines");
        assert_eq!(hex(&genesis.hash()), block0, "{name}: block 0 hash");
        peers += 1;
    }
    assert!(peers > 0, "the network has peers");
}

#[test]
fn stl_genesis_is_pinned() {
    assert_genesis(&stl_network(), STL_GENESIS, STL_BLOCK0);
}

#[test]
fn swt_genesis_is_pinned() {
    assert_genesis(&swt_network(), SWT_GENESIS, SWT_BLOCK0);
}
