//! Golden bytes: one populated fixture per relay message, pinned three
//! ways — its encoding as hex, the decode of that hex back to the fixture,
//! and a SHA-256 over the `Debug` of the decode result of every strict
//! prefix of the encoding. The last pins the decoder's failure surface
//! too: which error a truncated frame yields, with its field number or
//! `InvalidUtf8` name.
//!
//! The constants were recorded before the codec was generated from one
//! field table per message; regenerate them only for a deliberate format
//! change.

use std::fmt::Debug;
use tdt_crypto::{hex_decode, hex_encode, sha256};
use tdt_wire::codec::Message;
use tdt_wire::messages::*;

/// Checks `fixture` against its pinned encoding and prefix digest.
fn pin<M: Message + PartialEq + Debug>(fixture: &M, hex: &str, prefixes: &str) {
    let bytes = fixture.encode_to_vec();
    assert_eq!(hex_encode(&bytes), hex, "encoding of {fixture:?}");
    let decoded = M::decode_from_slice(&hex_decode(hex).unwrap()).unwrap();
    assert_eq!(&decoded, fixture);
    let mut transcript = String::new();
    for len in 0..bytes.len() {
        transcript.push_str(&format!("{:?}\n", M::decode_from_slice(&bytes[..len])));
    }
    assert_eq!(hex_encode(&sha256(transcript.as_bytes())), prefixes);
}

fn policy() -> PolicyNode {
    PolicyNode::And(vec![
        PolicyNode::Org("seller-org".into()),
        PolicyNode::Or(vec![
            PolicyNode::Org("carrier-org".into()),
            PolicyNode::OutOf(
                2,
                vec![
                    PolicyNode::Org("a".into()),
                    PolicyNode::Org("b".into()),
                    PolicyNode::Org("c".into()),
                ],
            ),
        ]),
    ])
}

fn address() -> NetworkAddress {
    NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
        .with_arg(b"PO-1001".to_vec())
        .with_arg(b"x".to_vec())
}

fn verification_policy() -> VerificationPolicy {
    VerificationPolicy {
        expression: policy(),
        confidential: true,
    }
}

fn auth() -> AuthInfo {
    AuthInfo {
        network_id: "swt".into(),
        organization_id: "seller-bank-org".into(),
        certificate: vec![1, 2, 3],
        signature: vec![4, 5],
    }
}

fn query() -> Query {
    Query {
        request_id: "req-001".into(),
        address: address(),
        policy: verification_policy(),
        auth: auth(),
        nonce: vec![9; 8],
        invocation: true,
    }
}

fn metadata() -> ResultMetadata {
    ResultMetadata {
        request_id: "req-001".into(),
        address: "stl:trade-channel:TradeLensCC:GetBillOfLading".into(),
        result_hash: vec![7; 8],
        nonce: vec![9; 8],
        peer_id: "stl/seller-org/peer0".into(),
        org_id: "seller-org".into(),
        ledger_height: 300,
        committed_block_plus_one: 8,
        txid: "tx-4".into(),
    }
}

fn attestation(seed: u8) -> Attestation {
    Attestation {
        signer_cert: vec![seed, 1],
        signature: vec![seed, 2],
        metadata: vec![seed, 3],
        metadata_encrypted: true,
    }
}

fn response() -> QueryResponse {
    QueryResponse {
        request_id: "req-001".into(),
        status: ResponseStatus::PolicyUnsatisfiable,
        error: "no carrier peer".into(),
        result: vec![0xaa; 4],
        result_encrypted: true,
        attestations: vec![attestation(1), attestation(2)],
    }
}

fn trace() -> TraceHeader {
    TraceHeader {
        trace_hi: u64::MAX,
        trace_lo: 7,
        span_id: 42,
        parent_span_id: 41,
        sampled: true,
    }
}

fn envelope() -> RelayEnvelope {
    RelayEnvelope {
        kind: EnvelopeKind::Event,
        source_relay: "swt-relay-0".into(),
        dest_network: "stl".into(),
        payload: b"payload".to_vec(),
        correlation_id: 0xDEAD_BEEF,
        trace: trace(),
        batch: vec![b"one".to_vec(), Vec::new(), b"three".to_vec()],
    }
}

fn proof() -> Proof {
    Proof {
        request_id: "req-1".into(),
        address: "stl:ch:cc:GetBillOfLading".into(),
        nonce: vec![5; 4],
        result: b"bill-of-lading".to_vec(),
        attestations: vec![attestation(3)],
    }
}

fn org_config() -> OrgConfig {
    OrgConfig {
        org_id: "seller-org".into(),
        root_cert: vec![1, 2],
        peer_certs: vec![vec![3], vec![4, 5]],
    }
}

fn network_config() -> NetworkConfig {
    NetworkConfig {
        network_id: "stl".into(),
        group_name: "modp768".into(),
        orgs: vec![
            org_config(),
            OrgConfig {
                org_id: "carrier-org".into(),
                root_cert: vec![9],
                peer_certs: vec![],
            },
        ],
    }
}

fn subscribe() -> EventSubscribeRequest {
    EventSubscribeRequest {
        subscription_id: "sub-1".into(),
        network_id: "stl".into(),
        reply_endpoint: "inproc:swt-relay".into(),
        auth: auth(),
    }
}

fn notice() -> EventNotice {
    EventNotice {
        subscription_id: "sub-1".into(),
        network_id: "stl".into(),
        block_number: 42,
        txids: vec!["tx-a".into(), "tx-b".into()],
        validation: vec![1, 0],
        signer_cert: vec![9],
        signature: vec![8],
    }
}

/// One test per message, named after it: `name: fixture => encoding,
/// prefix digest;`.
macro_rules! golden {
    ($($name:ident: $fixture:expr => $hex:literal, $prefixes:literal;)*) => {
        mod pinned {$(
            #[test]
            fn $name() {
                super::pin(&$fixture, $hex, $prefixes);
            }
        )*}
    };
}

golden! {
    network_address: super::address() =>
        "0a0373746c120d74726164652d6368616e6e656c1a0b54726164654c656e734343220f4765744269\
         6c6c4f664c6164696e672a07504f2d313030312a0178",
        "7892a97a633c9839fbd87fd3a7428be902dcef2784db541dffee40ebe6cedf08";
    policy_node: super::policy() =>
        "0802220e0801120a73656c6c65722d6f7267222e0803220f0801120b636172726965722d6f726722\
         1908041802220508011201612205080112016222050801120163",
        "e55f3e2e6c12e00b5b738d3678a3fe158177611b5559d4780f7082c58f0908c3";
    verification_policy: super::verification_policy() =>
        "0a420802220e0801120a73656c6c65722d6f7267222e0803220f0801120b636172726965722d6f72\
         672219080418022205080112016122050801120162220508011201631001",
        "f0cf23bb555b4c46a50fe63e085bd852065ad1669597290166fb45ab0c8658d7";
    auth_info: super::auth() =>
        "0a03737774120f73656c6c65722d62616e6b2d6f72671a0301020322020405",
        "7d49c3f85ea8b95160e85afe91625d1f189bd2779f61c80fbe4bc363a70afd9d";
    query: super::query() =>
        "0a077265712d303031123e0a0373746c120d74726164652d6368616e6e656c1a0b54726164654c65\
         6e734343220f47657442696c6c4f664c6164696e672a07504f2d313030312a01781a460a42080222\
         0e0801120a73656c6c65722d6f7267222e0803220f0801120b636172726965722d6f726722190804\
         18022205080112016122050801120162220508011201631001221f0a03737774120f73656c6c6572\
         2d62616e6b2d6f72671a03010203220204052a0809090909090909093001",
        "a36e3207f4aaac47e1500692d674e951331675e521c276fc3a3243fe87ae05aa";
    result_metadata: super::metadata() =>
        "0a077265712d303031122d73746c3a74726164652d6368616e6e656c3a54726164654c656e734343\
         3a47657442696c6c4f664c6164696e671a080707070707070707220809090909090909092a147374\
         6c2f73656c6c65722d6f72672f7065657230320a73656c6c65722d6f726738ac0240084a0474782d\
         34",
        "c983048bf14ad6589a1f4180fb6f6dfe120ff776859815ea877685c56f852c62";
    attestation: super::attestation(1) =>
        "0a020101120201021a0201032001",
        "c333f0ebdb3046de77f5eedcdd5b790229f1bab465fd3f69d287fe986f54af03";
    query_response: super::response() =>
        "0a077265712d30303110021a0f6e6f206361727269657220706565722204aaaaaaaa2801320e0a02\
         0101120201021a0201032001320e0a020201120202021a0202032001",
        "d7a9f9120b93483fa3e5436b8970c64e60ba41739286f5da1bf74cb0c99b771b";
    trace_header: super::trace() =>
        "08ffffffffffffffffff011007182a20292801",
        "e897adfb60dd3a3cd98d94e55473391f56b35afc7f995ade3ca743777a28982d";
    relay_envelope: super::envelope() =>
        "0806120b7377742d72656c61792d301a0373746c22077061796c6f616428effdb6f50d321308ffff\
         ffffffffffffff011007182a202928013a036f6e653a003a057468726565",
        "0e9e966e36b372f7582f9389c306843e73dfb49f6bf6b23c46e098c8a623b291";
    proof: super::proof() =>
        "0a057265712d31121973746c3a63683a63633a47657442696c6c4f664c6164696e671a0405050505\
         220e62696c6c2d6f662d6c6164696e672a0e0a020301120203021a0203032001",
        "873ac8b1c8142c839bebe3262b91135de2ed5848ec354b9c6ac43525e6edcd9c";
    org_config: super::org_config() =>
        "0a0a73656c6c65722d6f7267120201021a01031a020405",
        "8058c06ecd7e3cbcdf6e0cb8332ec5bdcc3e7583df583ca570c2794c64a9c404";
    network_config: super::network_config() =>
        "0a0373746c12076d6f64703736381a170a0a73656c6c65722d6f7267120201021a01031a0204051a\
         100a0b636172726965722d6f7267120109",
        "92093a3e99a879827f012cd0ba1c7c59c850a95453519f9d1963f8b72d182e95";
    event_subscribe_request: super::subscribe() =>
        "0a057375622d31120373746c1a10696e70726f633a7377742d72656c6179221f0a03737774120f73\
         656c6c65722d62616e6b2d6f72671a0301020322020405",
        "4ab410f73fe8c35bc4552ca5f79d1af49fd5d30f5d28b22751d17a3a9de7a4ad";
    event_notice: super::notice() =>
        "0a057375622d31120373746c182a220474782d61220474782d622a0201003201093a0108",
        "eeeb8a39869bcb3d45a773de842ae2fbaa8babfd63bcd065d3585ab41a527dd4";
}
