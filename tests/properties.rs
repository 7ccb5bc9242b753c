//! Cross-crate property-based tests: protocol invariants that must hold
//! for *all* inputs, not just the fixtures.

use proptest::prelude::*;
use tdt::crypto::sha256::sha256;
use tdt::wire::codec::{FieldValue, Message, Reader};
use tdt::wire::framing::DEFAULT_MAX_FRAME;
use tdt::wire::messages::{
    Attestation, EnvelopeKind, EventNotice, EventSubscribeRequest, NetworkAddress, PolicyNode,
    Proof, Query, RelayEnvelope, ResultMetadata, TraceHeader, VerificationPolicy, MAX_POLICY_DEPTH,
};
use tdt::wire::varint;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn arb_policy() -> impl Strategy<Value = PolicyNode> {
    let leaf = "[a-e]{1,4}".prop_map(PolicyNode::Org);
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(PolicyNode::And),
            prop::collection::vec(inner.clone(), 1..4).prop_map(PolicyNode::Or),
            (1u32..4, prop::collection::vec(inner, 1..4))
                .prop_map(|(k, children)| PolicyNode::OutOf(k, children)),
        ]
    })
}

fn arb_address() -> impl Strategy<Value = NetworkAddress> {
    (
        "[a-z]{1,8}",
        "[a-z]{1,8}",
        "[A-Za-z]{1,10}",
        "[A-Za-z]{1,10}",
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 0..3),
    )
        .prop_map(|(n, l, c, f, args)| {
            let mut addr = NetworkAddress::new(n, l, c, f);
            addr.args = args;
            addr
        })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        "[a-z0-9-]{1,20}",
        arb_address(),
        arb_policy(),
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..24),
        any::<bool>(),
    )
        .prop_map(
            |(request_id, address, expression, confidential, nonce, invocation)| Query {
                request_id,
                address,
                policy: VerificationPolicy {
                    expression,
                    confidential,
                },
                auth: Default::default(),
                nonce,
                invocation,
            },
        )
}

fn arb_envelope() -> impl Strategy<Value = RelayEnvelope> {
    (
        prop_oneof![
            Just(EnvelopeKind::QueryRequest),
            Just(EnvelopeKind::QueryResponse),
            Just(EnvelopeKind::Error),
            Just(EnvelopeKind::Ping),
            Just(EnvelopeKind::Pong),
        ],
        "[a-z0-9-]{1,12}",
        "[a-z]{1,8}",
        prop::collection::vec(any::<u8>(), 0..32),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(kind, source_relay, dest_network, payload, correlation_id, traced)| RelayEnvelope {
                kind,
                source_relay,
                dest_network,
                payload,
                correlation_id,
                // Either no trace (zero-elided) or a fully populated one,
                // derived from the correlation id to stay shrinkable.
                trace: if traced {
                    TraceHeader {
                        trace_hi: correlation_id | 1,
                        trace_lo: correlation_id.rotate_left(17) | 1,
                        span_id: correlation_id.rotate_left(31) | 1,
                        parent_span_id: correlation_id.rotate_left(43),
                        sampled: true,
                    }
                } else {
                    TraceHeader::default()
                },
                batch: Vec::new(),
            },
        )
}

/// A source-side relay with an echo driver for network `stl`.
fn echo_relay() -> tdt::relay::service::RelayService {
    use std::sync::Arc;
    use tdt::relay::{discovery::StaticRegistry, driver::EchoDriver, transport::InProcessBus};
    let relay = tdt::relay::service::RelayService::new(
        "stl-relay",
        "stl",
        Arc::new(StaticRegistry::new()),
        Arc::new(InProcessBus::new()),
    );
    relay.register_driver(Arc::new(EchoDriver::new("stl")));
    relay
}

/// Bytes at the scale of a relay frame without drawing sixteen million
/// elements: a short random pattern tiled to the drawn length, which is
/// small, medium, or within a few bytes of the frame cap.
fn arb_frame_scale_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(any::<u8>(), 1..256),
        prop_oneof![
            0usize..256,
            256usize..65_536,
            DEFAULT_MAX_FRAME - 64..DEFAULT_MAX_FRAME + 1,
        ],
    )
        .prop_map(|(pattern, len)| {
            let mut bytes = Vec::with_capacity(len + pattern.len());
            while bytes.len() < len {
                bytes.extend_from_slice(&pattern);
            }
            bytes.truncate(len);
            bytes
        })
}

/// A valid encoded envelope (sometimes a batch) in which the length prefix
/// of one length-delimited field was overwritten: by zero, by one less or
/// one more than the truth, by the frame cap, or by the largest lengths a
/// 32- and a 64-bit reader can hold.
fn arb_envelope_with_a_lying_length_prefix() -> impl Strategy<Value = Vec<u8>> {
    (arb_envelope(), arb_envelope(), any::<bool>(), any::<u64>()).prop_map(
        |(outer, member, batched, pick)| {
            let honest = match batched {
                true => outer
                    .with_batch(vec![member.encode_to_vec()])
                    .encode_to_vec(),
                false => outer.encode_to_vec(),
            };
            // (offset of the payload, its true length) per such field.
            let mut fields = Vec::new();
            let mut reader = Reader::new(&honest);
            while let Ok(Some((_, value))) = reader.next_field() {
                if let FieldValue::Len(payload) = value {
                    let at = payload.as_ptr() as usize - honest.as_ptr() as usize;
                    fields.push((at, payload.len() as u64));
                }
            }
            let (at, truth) = fields[pick as usize % fields.len()];
            let lies = [
                0,
                truth.saturating_sub(1),
                truth + 1,
                DEFAULT_MAX_FRAME as u64,
                u64::from(u32::MAX),
                u64::MAX,
            ];
            let prefix_at = at - varint::encoded_len(truth);
            let mut forged = honest[..prefix_at].to_vec();
            varint::encode_u64(lies[(pick >> 32) as usize % lies.len()], &mut forged);
            forged.extend_from_slice(&honest[at..]);
            forged
        },
    )
}

/// A query whose verification policy is `depth` single-child levels deep.
fn query_with_policy_depth(depth: usize) -> Query {
    let mut expression = PolicyNode::Org("a".into());
    for _ in 1..depth {
        expression = PolicyNode::And(vec![expression]);
    }
    Query {
        request_id: "deep".into(),
        policy: VerificationPolicy {
            expression,
            confidential: false,
        },
        ..Default::default()
    }
}

/// Runs every decoder a relay frame can reach — the envelope at the
/// untrusted TCP boundary, then whatever its payload claims to be.
/// Returning at all is the property: a decoder may refuse, never panic.
fn decode_as_every_frame_message(bytes: &[u8]) {
    let _ = RelayEnvelope::decode_from_slice(bytes);
    let _ = Query::decode_from_slice(bytes);
    let _ = EventSubscribeRequest::decode_from_slice(bytes);
    let _ = EventNotice::decode_from_slice(bytes);
    let _ = Proof::decode_from_slice(bytes);
    let _ = PolicyNode::decode_from_slice(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // -----------------------------------------------------------------------
    // Wire roundtrips for arbitrary protocol messages.
    // -----------------------------------------------------------------------

    #[test]
    fn prop_query_wire_roundtrip(query in arb_query()) {
        let decoded = Query::decode_from_slice(&query.encode_to_vec()).unwrap();
        prop_assert_eq!(decoded, query);
    }

    #[test]
    fn prop_policy_wire_roundtrip(policy in arb_policy()) {
        let decoded = PolicyNode::decode_from_slice(&policy.encode_to_vec()).unwrap();
        prop_assert_eq!(decoded, policy);
    }

    #[test]
    fn prop_wire_decoder_total(
        bytes in arb_frame_scale_bytes(),
        forged in arb_envelope_with_a_lying_length_prefix(),
        depth in 1usize..4096,
    ) {
        // Arbitrary bytes either decode or error — never panic.
        decode_as_every_frame_message(&bytes);
        decode_as_every_frame_message(&forged);
        // Nesting is what a length prefix cannot bound: the decoder
        // recurses per level, so depth has a cap of its own.
        let deep = query_with_policy_depth(depth).encode_to_vec();
        prop_assert_eq!(Query::decode_from_slice(&deep).is_ok(), depth <= MAX_POLICY_DEPTH);
    }

    #[test]
    fn prop_batch_inside_a_batch_is_refused_item_by_item(
        outer in arb_envelope(),
        inner in arb_envelope(),
        leaf in arb_envelope(),
        plain in arb_envelope(),
    ) {
        // One level of batching only: a nested batch would let a single
        // frame amplify itself arbitrarily. The decoder keeps batch items
        // opaque (no recursion to bound); the relay refuses the nested
        // item and still answers its well-formed neighbour.
        let nested = inner.with_batch(vec![leaf.encode_to_vec()]).encode_to_vec();
        let frame = outer.with_batch(vec![nested, plain.encode_to_vec()]);
        let decoded = RelayEnvelope::decode_from_slice(&frame.encode_to_vec()).unwrap();
        prop_assert_eq!(&decoded, &frame);
        use tdt::relay::transport::EnvelopeHandler;
        let reply = echo_relay().handle(decoded);
        prop_assert_eq!(reply.batch.len(), 2);
        let refused = RelayEnvelope::decode_from_slice(&reply.batch[0]).unwrap();
        prop_assert_eq!(refused.kind, EnvelopeKind::Error);
        prop_assert_eq!(refused.payload, b"nested batch rejected".to_vec());
        let neighbour = RelayEnvelope::decode_from_slice(&reply.batch[1]).unwrap();
        prop_assert!(!neighbour.is_batch());
        prop_assert!(neighbour.payload != b"nested batch rejected".to_vec());
    }

    // -----------------------------------------------------------------------
    // Envelope batching (ISSUE 6): the repeated batch field is
    // append-only, zero-elided, and positionally faithful.
    // -----------------------------------------------------------------------

    #[test]
    fn prop_envelope_batch_roundtrip_is_positional(
        outer in arb_envelope(),
        members in prop::collection::vec(arb_envelope(), 1..6),
    ) {
        let encoded_members: Vec<Vec<u8>> =
            members.iter().map(|m| m.encode_to_vec()).collect();
        let batched = outer.clone().with_batch(encoded_members);
        prop_assert!(batched.is_batch());
        let decoded =
            RelayEnvelope::decode_from_slice(&batched.encode_to_vec()).unwrap();
        prop_assert_eq!(&decoded, &batched);
        // Every sub-frame decodes back to its member, in order —
        // positional correlation is what the client's reply fan-out
        // relies on.
        prop_assert_eq!(decoded.batch.len(), members.len());
        for (frame, member) in decoded.batch.iter().zip(&members) {
            prop_assert_eq!(&RelayEnvelope::decode_from_slice(frame).unwrap(), member);
        }
    }

    #[test]
    fn prop_empty_batch_is_wire_invisible(
        envelope in arb_envelope(),
        members in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..16), 1..4),
    ) {
        // Zero elision: an envelope without a batch encodes not one byte
        // differently from the pre-batching schema, so batch-of-1 client
        // flushes (which send the original envelope) and legacy peers
        // stay byte-for-byte interchangeable.
        let legacy = envelope.encode_to_vec();
        prop_assert!(!envelope.is_batch());
        let reencoded = RelayEnvelope::decode_from_slice(&legacy)
            .unwrap()
            .encode_to_vec();
        prop_assert_eq!(&reencoded, &legacy);
        // Append-only evolution: adding the batch strictly appends to
        // the legacy frame (tag 7 sorts after every legacy field), so an
        // old decoder that skips unknown fields still reads the prefix.
        let batched = envelope.with_batch(members).encode_to_vec();
        prop_assert!(batched.len() > legacy.len());
        prop_assert!(batched.starts_with(&legacy));
    }

    // -----------------------------------------------------------------------
    // Policy algebra.
    // -----------------------------------------------------------------------

    #[test]
    fn prop_policy_satisfaction_monotone(
        policy in arb_policy(),
        base in prop::collection::vec("[a-e]{1,4}", 0..6),
        extra in prop::collection::vec("[a-e]{1,4}", 0..4),
    ) {
        // Adding organizations never turns a satisfied policy unsatisfied.
        if policy.is_satisfied(&base) {
            let mut superset = base.clone();
            superset.extend(extra);
            prop_assert!(policy.is_satisfied(&superset));
        }
    }

    #[test]
    fn prop_minimal_org_set_sound_and_complete(policy in arb_policy()) {
        match tdt::interop::policy::minimal_org_set(&policy) {
            Some(set) => prop_assert!(policy.is_satisfied(&set), "minimal set must satisfy"),
            None => {
                // Unsatisfiable even with every mentioned org present.
                let all: Vec<String> =
                    policy.organizations().iter().map(|s| s.to_string()).collect();
                prop_assert!(!policy.is_satisfied(&all), "claimed unsatisfiable but all-orgs satisfies");
            }
        }
    }

    #[test]
    fn prop_empty_org_set_only_satisfies_trivial(policy in arb_policy()) {
        // A policy satisfied by nobody's attestation must also be reported
        // satisfiable with an empty minimal set (degenerate expressions
        // like And([]) — which arb_policy cannot generate — aside).
        let empty: Vec<String> = Vec::new();
        if policy.is_satisfied(&empty) {
            let set = tdt::interop::policy::minimal_org_set(&policy);
            prop_assert!(set.is_some());
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile key material in a query's certificate: the source driver decodes
// the requester's signing key before anything else and peers decode the
// encryption key to answer confidentially — both with attacker-chosen
// bytes. Every such query is refused with an error, never a panic.
// ---------------------------------------------------------------------------

/// `bytes` where a group element belongs, by `kind`: the order-2 element
/// p-1, values >= p, zero-padded and over-long encodings, nothing at all,
/// and plain noise.
fn hostile_key_bytes(kind: usize, noise: &[u8]) -> Vec<u8> {
    use tdt::crypto::bigint::BigUint;
    let group = tdt::crypto::group::Group::test_group();
    let p = group.p();
    let one = BigUint::one();
    let non_residue = p.sub(&group.pow_g(&BigUint::from_bytes_be(&noise[..8])));
    match kind {
        0 => p.sub(&one).to_bytes_be(),
        1 => p.to_bytes_be(),
        2 => p.add(&BigUint::from_bytes_be(noise)).to_bytes_be(),
        3 => [vec![0u8; 5], group.element_to_bytes(&non_residue)].concat(),
        4 => [noise, noise, noise, noise, noise].concat(),
        5 => Vec::new(),
        6 => vec![0u8; group.element_len()],
        _ => non_residue.to_bytes_be(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_query_with_hostile_certificate_keys_is_refused_without_a_panic(
        kind in 0usize..8,
        noise in proptest::collection::vec(any::<u8>(), 40..41),
        in_signing_key in any::<bool>(),
        confidential in any::<bool>(),
    ) {
        use tdt::interop::driver::{query_auth_bytes, FabricDriver};
        use tdt::relay::driver::NetworkDriver;
        use tdt::wire::messages::{encode_certificate, AuthInfo, VerificationPolicy};
        thread_local! {
            static FIXTURE: (FabricDriver, tdt::fabric::msp::Identity) = {
                let testbed = tdt::interop::setup::stl_swt_testbed();
                tdt::interop::setup::issue_sample_bl(&testbed, "PO-1001");
                (
                    FabricDriver::new(std::sync::Arc::clone(&testbed.stl)),
                    testbed.swt_seller_client.clone(),
                )
            };
        }
        FIXTURE.with(|(driver, client)| {
            let genuine = client.certificate();
            let hostile = hostile_key_bytes(kind, &noise);
            let (sign_key, enc_key) = if in_signing_key {
                (hostile, genuine.enc_key_bytes().map(<[u8]>::to_vec))
            } else {
                (genuine.sign_key_bytes().to_vec(), Some(hostile))
            };
            let cert = tdt::crypto::cert::Certificate::assemble(
                genuine.subject().clone(),
                genuine.serial(),
                genuine.group_name().to_string(),
                sign_key,
                enc_key,
                genuine.issuer().clone(),
                genuine.signature().cloned(),
            );
            let mut policy = VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]);
            if confidential {
                policy = policy.with_confidentiality();
            }
            let mut query = Query {
                request_id: "req-hostile".into(),
                address: NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
                    .with_arg(b"PO-1001".to_vec()),
                policy,
                auth: AuthInfo {
                    network_id: "swt".into(),
                    organization_id: "seller-bank-org".into(),
                    certificate: encode_certificate(&cert),
                    signature: Vec::new(),
                },
                nonce: noise[..16].to_vec(),
                invocation: false,
            };
            // Signed by the genuine key: with the genuine signing key in
            // the certificate the signature check passes and the hostile
            // encryption key travels on to the peers.
            query.auth.signature = client.signing_key().sign(&query_auth_bytes(&query)).to_bytes();
            match driver.execute_query(&query) {
                Err(e) if in_signing_key => prop_assert!(
                    e.to_string().contains("authentication failed"),
                    "hostile signing key: {e}"
                ),
                // The certificate no longer is what the CA signed, so the
                // exposure check refuses it before any key is used.
                Ok(response) if !in_signing_key => prop_assert_eq!(
                    response.status,
                    tdt::wire::messages::ResponseStatus::AccessDenied,
                    "{:?}", response.error
                ),
                other => prop_assert!(false, "kind {kind}: {other:?}"),
            }
            Ok(())
        })?;
    }
}

// ---------------------------------------------------------------------------
// Proof mutation resistance: no single byte flip may change the accepted
// result.
// ---------------------------------------------------------------------------

fn make_valid_proof() -> (Proof, tdt::fabric::msp::Identity, tdt::fabric::msp::Msp) {
    let mut msp = tdt::fabric::msp::Msp::new(
        "src-net",
        "org-a",
        tdt::crypto::group::Group::test_group(),
        b"prop-seed",
    );
    let peer = msp.enroll("peer0", tdt::crypto::cert::CertRole::Peer, false);
    let result = b"the genuine result".to_vec();
    let metadata = ResultMetadata {
        request_id: "req".into(),
        address: "src-net:l:CC:Get".into(),
        result_hash: sha256(&result).to_vec(),
        nonce: vec![1; 8],
        peer_id: peer.qualified_name(),
        org_id: "org-a".into(),
        ledger_height: 3,
        committed_block_plus_one: 0,
        txid: String::new(),
    };
    let md = metadata.encode_to_vec();
    let proof = Proof {
        request_id: "req".into(),
        address: "src-net:l:CC:Get".into(),
        nonce: vec![1; 8],
        result,
        attestations: vec![Attestation {
            signer_cert: tdt::wire::messages::encode_certificate(peer.certificate()),
            signature: peer.sign(&md).to_bytes(),
            metadata: md,
            metadata_encrypted: false,
        }],
    };
    (proof, peer, msp)
}

/// Like [`make_valid_proof`] but with one attestation per enrolled peer,
/// for properties over attestation orderings.
fn make_valid_proof_multi(peers: usize) -> (Proof, tdt::fabric::msp::Msp) {
    let mut msp = tdt::fabric::msp::Msp::new(
        "src-net",
        "org-a",
        tdt::crypto::group::Group::test_group(),
        b"prop-seed-multi",
    );
    let result = b"the genuine result".to_vec();
    let attestations = (0..peers)
        .map(|i| {
            let peer = msp.enroll(
                &format!("peer{i}"),
                tdt::crypto::cert::CertRole::Peer,
                false,
            );
            let metadata = ResultMetadata {
                request_id: "req".into(),
                address: "src-net:l:CC:Get".into(),
                result_hash: sha256(&result).to_vec(),
                nonce: vec![1; 8],
                peer_id: peer.qualified_name(),
                org_id: "org-a".into(),
                ledger_height: 3,
                committed_block_plus_one: 0,
                txid: String::new(),
            };
            let md = metadata.encode_to_vec();
            Attestation {
                signer_cert: tdt::wire::messages::encode_certificate(peer.certificate()),
                signature: peer.sign(&md).to_bytes(),
                metadata: md,
                metadata_encrypted: false,
            }
        })
        .collect();
    let proof = Proof {
        request_id: "req".into(),
        address: "src-net:l:CC:Get".into(),
        nonce: vec![1; 8],
        result,
        attestations,
    };
    (proof, msp)
}

/// CMDAC-equivalent standalone validation (root check + signature +
/// metadata consistency). Chain validation optionally goes through a
/// [`CertChainCache`], mirroring the CMDAC's cached hot path.
fn validates_impl(
    proof: &Proof,
    root: &tdt::crypto::cert::Certificate,
    cache: Option<&tdt::crypto::certcache::CertChainCache>,
) -> bool {
    let result_hash = sha256(&proof.result);
    if proof.attestations.is_empty() {
        return false;
    }
    for att in &proof.attestations {
        let Ok(cert) = tdt::wire::messages::decode_certificate(&att.signer_cert) else {
            return false;
        };
        let chain_ok = match cache {
            Some(cache) => cache.verify_chain(&cert, root).is_ok(),
            None => cert.verify(root).is_ok(),
        };
        if !chain_ok {
            return false;
        }
        let Ok(vk) = cert.verifying_key() else {
            return false;
        };
        let Ok(sig) = tdt::crypto::schnorr::Signature::from_bytes(&att.signature) else {
            return false;
        };
        if vk.verify(&att.metadata, &sig).is_err() {
            return false;
        }
        let Ok(md) = ResultMetadata::decode_from_slice(&att.metadata) else {
            return false;
        };
        if md.result_hash != result_hash.to_vec()
            || md.request_id != proof.request_id
            || md.address != proof.address
            || md.nonce != proof.nonce
        {
            return false;
        }
    }
    true
}

fn validates(proof: &Proof, root: &tdt::crypto::cert::Certificate) -> bool {
    validates_impl(proof, root, None)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_proof_single_byte_flip_never_accepted_with_changed_content(
        byte_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let (proof, _peer, msp) = make_valid_proof();
        let root = msp.root_certificate().clone();
        prop_assert!(validates(&proof, &root), "baseline proof must validate");
        let mut bytes = proof.encode_to_vec();
        let idx = byte_seed % bytes.len();
        bytes[idx] ^= 1 << bit;
        match Proof::decode_from_slice(&bytes) {
            Err(_) => {} // corrupted encoding rejected outright
            Ok(mutated) => {
                if validates(&mutated, &root) {
                    // Acceptable only if the mutation was semantically
                    // invisible (e.g. a skipped unknown field) — the
                    // accepted content must be identical to the original.
                    prop_assert_eq!(mutated, proof);
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // Verification verdicts with the cert-chain cache enabled.
    // -----------------------------------------------------------------------

    #[test]
    fn prop_proof_verdict_invariant_under_attestation_reordering(
        peers in 2usize..5,
        perm_seed in any::<u64>(),
        corrupt in any::<bool>(),
        corrupt_seed in any::<usize>(),
    ) {
        let (mut proof, msp) = make_valid_proof_multi(peers);
        let root = msp.root_certificate().clone();
        let cache = tdt::crypto::certcache::CertChainCache::new();
        if corrupt {
            // Break one attestation's signature: the verdict must be
            // "reject" in every ordering.
            let idx = corrupt_seed % peers;
            let last = proof.attestations[idx].signature.len() - 1;
            proof.attestations[idx].signature[last] ^= 0x01;
        }
        let baseline = validates_impl(&proof, &root, Some(&cache));
        prop_assert_eq!(baseline, !corrupt);
        // Fisher-Yates with a proptest-drawn seed: verdict is order-blind,
        // even with chains already cached from the baseline pass.
        let mut shuffled = proof.clone();
        let mut state = perm_seed;
        for i in (1..shuffled.attestations.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            shuffled.attestations.swap(i, j);
        }
        prop_assert_eq!(validates_impl(&shuffled, &root, Some(&cache)), baseline);
    }

    #[test]
    fn prop_proof_byte_flip_fails_closed_with_warm_cache(
        byte_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let (proof, _peer, msp) = make_valid_proof();
        let root = msp.root_certificate().clone();
        let cache = tdt::crypto::certcache::CertChainCache::new();
        // Warm the cache with the genuine chain, then flip one bit: the
        // cached entry must never vouch for altered bytes.
        prop_assert!(validates_impl(&proof, &root, Some(&cache)));
        let mut bytes = proof.encode_to_vec();
        let idx = byte_seed % bytes.len();
        bytes[idx] ^= 1 << bit;
        match Proof::decode_from_slice(&bytes) {
            Err(_) => {}
            Ok(mutated) => {
                if validates_impl(&mutated, &root, Some(&cache)) {
                    prop_assert_eq!(mutated, proof);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Correlation routing: multiplexed replies must reach exactly the caller
// that sent the matching request, in any arrival order, and strays must
// never be delivered at all.
// ---------------------------------------------------------------------------

fn reply_for(correlation_id: u64) -> tdt::wire::messages::RelayEnvelope {
    tdt::wire::messages::RelayEnvelope {
        kind: tdt::wire::messages::EnvelopeKind::QueryResponse,
        source_relay: "remote".into(),
        dest_network: "here".into(),
        payload: correlation_id.to_be_bytes().to_vec(),
        correlation_id,
        trace: Default::default(),
        batch: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_shuffled_correlated_replies_route_to_right_callers(
        ids in prop::collection::vec(1u64..100_000, 1..24),
        perm_seed in any::<u64>(),
    ) {
        use tdt::relay::transport::CorrelationRouter;
        let router = CorrelationRouter::new();
        let ids: Vec<u64> = ids
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let receivers: Vec<_> = ids
            .iter()
            .map(|&id| (id, router.register(id).unwrap()))
            .collect();
        // Deliver the replies in a shuffled order, as out-of-order
        // completion on a multiplexed connection would.
        let mut arrival = ids.clone();
        let mut state = perm_seed;
        for i in (1..arrival.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            arrival.swap(i, j);
        }
        for &id in &arrival {
            router.complete(id, reply_for(id)).unwrap();
        }
        for (id, rx) in receivers {
            let reply = rx.try_recv().expect("registered caller must get a reply");
            prop_assert_eq!(reply.correlation_id, id);
            prop_assert_eq!(reply.payload, id.to_be_bytes().to_vec());
        }
        prop_assert_eq!(router.pending_count(), 0);
    }

    #[test]
    fn prop_unknown_correlation_id_fails_closed(
        ids in prop::collection::vec(1u64..1000, 1..12),
        stray_offset in 0u64..1000,
    ) {
        use tdt::relay::transport::CorrelationRouter;
        let router = CorrelationRouter::new();
        let ids: Vec<u64> = ids
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let receivers: Vec<_> = ids
            .iter()
            .map(|&id| (id, router.register(id).unwrap()))
            .collect();
        // A reply for an id nobody registered: must error and must not
        // reach any waiting caller.
        let stray = 1000 + stray_offset;
        prop_assert!(router.complete(stray, reply_for(stray)).is_err());
        prop_assert_eq!(router.pending_count(), ids.len());
        for (_, rx) in &receivers {
            prop_assert!(rx.try_recv().is_err(), "stray reply leaked to a caller");
        }
        // The legitimate waiters are unaffected.
        for (id, rx) in receivers {
            router.complete(id, reply_for(id)).unwrap();
            prop_assert_eq!(rx.try_recv().unwrap().correlation_id, id);
        }
    }
}

// ---------------------------------------------------------------------------
// MVCC serializability: committed transactions correspond to a serial
// execution.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_mvcc_commits_equal_serial_execution(
        ops in prop::collection::vec((0u8..4, 0u8..3), 1..12),
    ) {
        use tdt::ledger::rwset::{TxRwSet, Version};
        use tdt::ledger::state::WorldState;
        // Each op is a read-modify-write of key k_i simulated against the
        // *initial* state (a same-block batch), then validated serially.
        let mut state = WorldState::new();
        let mut seed = TxRwSet::new();
        for key in 0..3 {
            seed.record_write("cc", &format!("k{key}"), Some(vec![0]));
        }
        state.apply(&seed, Version::new(0, 0));

        // Simulate every tx against the committed snapshot.
        let txs: Vec<TxRwSet> = ops
            .iter()
            .map(|(val, key)| {
                let key = format!("k{key}");
                let mut rw = TxRwSet::new();
                let version = state.version("cc", &key);
                rw.record_read("cc", &key, version);
                rw.record_write("cc", &key, Some(vec![val + 1]));
                rw
            })
            .collect();

        // Serial validation, Fabric style.
        let mut shadow = state.clone();
        let mut committed = Vec::new();
        for (i, rw) in txs.iter().enumerate() {
            if shadow.mvcc_check(rw) {
                shadow.apply(rw, Version::new(1, i as u64));
                committed.push(i);
            }
        }
        // Property 1: per key, at most one of the conflicting txs commits.
        for key in 0..3u8 {
            let key = format!("k{key}");
            let writers: Vec<usize> = committed
                .iter()
                .copied()
                .filter(|&i| txs[i].pending_write("cc", &key).is_some())
                .collect();
            prop_assert!(writers.len() <= 1, "key {} written by {:?}", key, writers);
        }
        // Property 2: final state equals applying exactly the committed txs
        // serially to the initial state.
        let mut replay = state.clone();
        for &i in &committed {
            replay.apply(&txs[i], Version::new(1, i as u64));
        }
        for key in 0..3u8 {
            let key = format!("k{key}");
            prop_assert_eq!(
                shadow.get("cc", &key).map(|v| v.value.clone()),
                replay.get("cc", &key).map(|v| v.value.clone())
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Durable ledger: WAL framing and corruption recovery. For *any* chain and
// *any* byte-level damage (truncation at an arbitrary offset, an arbitrary
// bit flip), a scan never panics and always yields a verified prefix of
// what was written — never reordered, never invented, never half-decoded.
// ---------------------------------------------------------------------------

fn arb_chain() -> impl Strategy<Value = Vec<tdt::ledger::block::Block>> {
    use tdt::ledger::block::Block;
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..4),
        1..8,
    )
    .prop_map(|blocks_txs| {
        let mut chain: Vec<Block> = Vec::with_capacity(blocks_txs.len());
        for txs in blocks_txs {
            let block = match chain.last() {
                None => Block::genesis(txs),
                Some(prev) => Block::next(&prev.header, txs),
            };
            chain.push(block);
        }
        chain
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_wal_block_roundtrip(chain in arb_chain()) {
        use tdt::ledger::storage::codec::{decode_block, encode_block};
        for block in &chain {
            let decoded = decode_block(&encode_block(block)).expect("roundtrip");
            prop_assert_eq!(&decoded, block);
        }
    }

    #[test]
    fn prop_wal_scan_returns_exactly_what_was_appended(chain in arb_chain()) {
        use std::sync::Arc;
        use tdt::ledger::storage::vfs::MemVfs;
        use tdt::ledger::storage::wal::Wal;
        let vfs = Arc::new(MemVfs::new());
        let wal = Wal::new(vfs.as_ref(), "wal.log");
        for block in &chain {
            wal.append_block(block).expect("append");
        }
        let scan = wal.scan().expect("scan");
        prop_assert!(scan.tail.is_none());
        prop_assert_eq!(scan.chain.blocks(), &chain[..]);
    }

    #[test]
    fn prop_wal_truncation_yields_a_prefix(
        chain in arb_chain(),
        cut_seed in any::<u64>(),
    ) {
        use std::sync::Arc;
        use tdt::ledger::storage::vfs::{MemVfs, Vfs};
        use tdt::ledger::storage::wal::Wal;
        let vfs = Arc::new(MemVfs::new());
        let wal = Wal::new(vfs.as_ref(), "wal.log");
        for block in &chain {
            wal.append_block(block).expect("append");
        }
        let len = vfs.len("wal.log").expect("len");
        let cut = cut_seed % (len + 1);
        vfs.truncate("wal.log", cut).expect("truncate");
        let scan = wal.scan().expect("scan never fails on damage");
        // Whatever survived is a verified prefix: same blocks, in order,
        // from the start.
        prop_assert!(scan.chain.blocks().len() <= chain.len());
        prop_assert_eq!(scan.chain.blocks(), &chain[..scan.chain.blocks().len()]);
        prop_assert!(scan.valid_len <= cut);
        if cut < len {
            prop_assert!(scan.chain.blocks().len() < chain.len());
        }
        // And physically truncating the damage leaves a clean WAL.
        wal.truncate_to(scan.valid_len).expect("truncate_to");
        let rescan = wal.scan().expect("rescan");
        prop_assert!(rescan.tail.is_none());
        prop_assert_eq!(rescan.chain.blocks(), scan.chain.blocks());
    }

    #[test]
    fn prop_wal_bit_flip_yields_a_prefix(
        chain in arb_chain(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        use std::sync::Arc;
        use tdt::ledger::storage::vfs::MemVfs;
        use tdt::ledger::storage::wal::Wal;
        let vfs = Arc::new(MemVfs::new());
        let wal = Wal::new(vfs.as_ref(), "wal.log");
        for block in &chain {
            wal.append_block(block).expect("append");
        }
        let len = vfs.durable_len("wal.log") as u64;
        let pos = (pos_seed % len) as usize;
        vfs.corrupt("wal.log", pos, 1 << bit).expect("corrupt");
        let scan = wal.scan().expect("scan never fails on damage");
        // A single flipped bit can only shorten the trusted prefix (CRC-32
        // detects all 1-bit errors); it can never corrupt a decoded block
        // or reorder the chain.
        prop_assert!(scan.chain.blocks().len() < chain.len() || scan.tail.is_none());
        prop_assert_eq!(scan.chain.blocks(), &chain[..scan.chain.blocks().len()]);
        prop_assert!(scan.tail.is_some(), "a flipped bit must be detected");
    }
}
