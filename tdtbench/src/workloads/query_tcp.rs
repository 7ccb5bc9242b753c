//! `query_tcp` — Fig. 2 steps 1–9 for real: a confidential, two-org
//! `InteropClient::query_remote` from SWT over pooled TCP to the STL relay,
//! `FabricDriver`, ECC + `TradeLensCC` on two endorsing peers with the
//! interop plugin, and client-side decryption and proof verification.
//!
//! Crypto, contracts, endorsement and proof handling do almost all the
//! work; relay and wire are a few percent of the operation. This is where
//! crypto, certificate-cache, contract and proof-scheme changes must show.

use super::{
    clocked, fill_rounds, run_round, timed_setup, EndToEnd, Layers, RoundSpec, RunConfig,
    TraceBudget, TraceSummary,
};
use crate::fixture::{bl_address, bl_policy, po_ref, Testbed, REQUESTERS};
use crate::harness::loadgen::{Outcome, SplitMix64, Zipf};
use crate::harness::spans::SpanLog;
use interop::driver::query_auth_bytes;
use interop::plugin::{InteropEndorsement, TRANSIENT_CERT, TRANSIENT_NETWORK, TRANSIENT_ORG};
use interop::proof::process_response;
use interop::{InteropClient, InteropError, RemoteData};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdt_contracts::stl::{BillOfLading, StlChaincode};
use tdt_contracts::ECC_NAME;
use tdt_crypto::cert::Certificate;
use tdt_crypto::elgamal::Ciphertext;
use tdt_crypto::schnorr::{Signature, VerifyingKey};
use tdt_fabric::chaincode::Proposal;
use tdt_fabric::gateway::Gateway;
use tdt_relay::driver::NetworkDriver;
use tdt_wire::codec::Message;
use tdt_wire::messages::{decode_certificate, Query, QueryResponse, ResultMetadata};

/// The workload's name.
pub const NAME: &str = "query_tcp";

/// Share of operations sent by the `buyer-bank-org` client, which STL's
/// exposure control must refuse.
pub const REJECT_SHARE: f64 = 0.05;
/// Warm-up operations (fill certificate caches, dial the pool).
pub const WARMUP_OPS: usize = 50;
/// Warm-up operations after each round's rewiring (dial the new pool).
pub const ROUND_WARMUP_OPS: usize = 6;
/// The run: 7 rounds of 2 clients (one per core), each round on fresh relays
/// and connections (see `Testbed::rewire`), 35 % of the time closed
/// loop (throughput), the rest open loop (latency) at a fixed rate of
/// about 21 % of the closed-loop capacity measured on the commit that
/// added the benchmark (≈ 185 ops/s on the 2-core reference box). Fixed:
/// never recalibrated at run time. (At 65 req/s, 36 % load, queueing made
/// the 90th percentile swing twice as far as the host's speed did.)
pub(crate) const SPEC: RoundSpec = RoundSpec {
    rounds: 7,
    clients: 2,
    closed_share: 0.35,
    open_rate_per_s: 40.0,
};
/// Operations slower than this are counted in `tail.limit_miss_ratio`.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Least operations of the traced loop.
pub const TRACE_MIN_OPS: usize = 36;

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOp {
    /// Which pre-issued bill of lading is asked for.
    pub po: usize,
    /// Which `seller-bank-org` identity asks (Zipf-distributed).
    pub requester: usize,
    /// Sent by the outsider instead: must be refused.
    pub must_reject: bool,
}

/// The seeded stream of operations one generator thread sends.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    zipf: Zipf,
    bls: usize,
}

impl OpStream {
    /// The stream of `lane` (a thread, or the warm-up) in the run seeded
    /// `seed`, over `bls` pre-issued bills of lading.
    pub fn new(seed: u64, lane: u64, bls: usize) -> Self {
        OpStream {
            rng: SplitMix64::for_lane(seed, lane),
            zipf: Zipf::new(REQUESTERS),
            bls,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> QueryOp {
        QueryOp {
            must_reject: self.rng.unit() <= REJECT_SHARE,
            po: self.rng.below(self.bls),
            requester: self.zipf.sample(&mut self.rng),
        }
    }
}

/// Checks everything a successful query returned.
fn verify(remote: &RemoteData, po: &str) -> Result<(), String> {
    let bl = BillOfLading::decode_from_slice(&remote.data).map_err(|e| format!("B/L: {e}"))?;
    if bl.po_ref != po {
        return Err(format!("B/L covers {:?}, asked for {po:?}", bl.po_ref));
    }
    if remote.proof.attestations.len() != 2 {
        return Err(format!(
            "proof carries {} attestations, policy needs 2",
            remote.proof.attestations.len()
        ));
    }
    Ok(())
}

/// Sends one operation through the public client API and judges it.
fn execute(testbed: &Testbed, op: QueryOp) -> Outcome {
    let po = po_ref(op.po);
    let client = if op.must_reject {
        &testbed.wiring.outsider
    } else {
        &testbed.wiring.requesters[op.requester]
    };
    match (
        client.query_remote(bl_address(&po), bl_policy()),
        op.must_reject,
    ) {
        (Err(InteropError::AccessDenied(_)), true) => Outcome::ExpectedReject,
        (Ok(remote), false) if verify(&remote, &po).is_ok() => Outcome::Ok,
        _ => Outcome::Failed,
    }
}

/// Sends `ops` untimed operations from the warm-up stream.
fn warm_up(testbed: &Testbed, cfg: &RunConfig, ops: usize) -> Result<(), String> {
    let mut warmup = OpStream::new(cfg.seed, u64::MAX, cfg.scale.bls);
    for _ in 0..ops {
        if execute(testbed, warmup.next_op()) == Outcome::Failed {
            return Err("warm-up operation failed".into());
        }
    }
    Ok(())
}

/// Builds the two networks, issues the bills of lading and warms up.
pub(crate) fn setup(cfg: &RunConfig) -> Result<Testbed, String> {
    let testbed = Testbed::build()?;
    for i in 0..cfg.scale.bls {
        testbed.issue_bl(&po_ref(i))?;
    }
    warm_up(&testbed, cfg, (WARMUP_OPS / cfg.scale.warmup_div).max(2))?;
    Ok(testbed)
}

/// The untraced run: per round fresh relays and connections between the
/// two (unchanged) networks, closed loop for throughput, open loop for
/// latency.
///
/// # Errors
///
/// Set-up failures and statistics the samples cannot support.
pub fn run(cfg: &RunConfig) -> Result<EndToEnd, String> {
    let (mut testbed, setup_s) = timed_setup(|| setup(cfg))?;
    let mut out = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let mut rounds = Vec::new();
    for round in 0..SPEC.rounds {
        testbed.rewire()?;
        warm_up(&testbed, cfg, ROUND_WARMUP_OPS)?;
        let testbed = &testbed;
        rounds.push(run_round(cfg, SPEC, round, |lane| {
            let mut ops = OpStream::new(cfg.seed, lane, cfg.scale.bls);
            move || execute(testbed, ops.next_op())
        }));
        let sheds = testbed.wiring.relays.sheds();
        if sheds > 0 {
            out.problems.push(format!("relays shed {sheds} requests"));
        }
    }
    fill_rounds(&mut out, rounds, LATENCY_LIMIT_MS, cfg.scale.min_beyond)?;
    if let Err(e) = testbed.check_replicas() {
        out.problems.push(e);
    }
    Ok(out)
}

/// The traced loop: one client, alternating an untraced `query_remote`
/// with the same operation decomposed into its three public calls under
/// spans, each traced operation followed by a replay one level down.
///
/// # Errors
///
/// Any failed operation or replay: a traced run must be all-correct.
pub fn trace(
    testbed: &Testbed,
    cfg: &RunConfig,
    budget: TraceBudget,
    log: &mut SpanLog,
    layers: &mut Layers,
) -> Result<TraceSummary, String> {
    let mut ops = OpStream::new(cfg.seed, 300, cfg.scale.bls);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut op_id = 0u32;
    while budget.more(op_id as usize, started) {
        let mut next = || {
            let op = ops.next_op();
            (po_ref(op.po), &testbed.wiring.requesters[op.requester])
        };
        let (po, client) = next();
        let (plain, t0, t1) = clocked(|| client.query_remote(bl_address(&po), bl_policy()));
        verify(&plain.map_err(|e| format!("untraced query: {e}"))?, &po)?;
        untraced_ms.push((t1 - t0).as_secs_f64() * 1e3);

        let (po, client) = next();
        let identity = client.gateway().identity();
        let (query, b0, b1) = clocked(|| client.build_query(bl_address(&po), bl_policy()));
        let (response, r0, r1) = clocked(|| testbed.wiring.relays.local.relay_query(&query));
        let response = response.map_err(|e| format!("relay_query: {e}"))?;
        let (proof, p0, p1) = clocked(|| process_response(identity, &query, &response));
        let proof = proof.map_err(|e| format!("process_response: {e}"))?;
        let remote = RemoteData {
            data: proof.result.clone(),
            proof,
        };
        verify(&remote, &po)?;

        let root = log.record(op_id, "op", None, b0, p1);
        let build = log.record(op_id, "core.build_query", Some(root), b0, b1);
        let hop = log.record(op_id, "relay.roundtrip", Some(root), r0, r1);
        let process = log.record(op_id, "core.process_response", Some(root), p0, p1);
        traced_ms.push((p1 - b0).as_secs_f64() * 1e3);
        layers.time("core.build_query_ms", b1 - b0);
        layers.time("relay.roundtrip_ms", r1 - r0);
        layers.time("core.process_response_ms", p1 - p0);
        layers.sample("core.proof_bytes", remote.proof_bytes().len() as f64);

        let replay = Replay {
            testbed,
            client,
            query: &query,
            response: &response,
            remote: &remote,
        };
        replay.build_query(build, log, layers);
        let driver = replay.driver_execute(hop, log, layers)?;
        layers.sample(
            "relay.overhead_us",
            ((r1 - r0).as_secs_f64() - driver.as_secs_f64()) * 1e6,
        );
        replay.process_response(process, log, layers)?;
        replay.probes(layers)?;
        op_id += 1;
    }
    TraceSummary::from_samples(&traced_ms, &untraced_ms)
}

/// Decodes a signer's certificate, its (validated) verifying key and a
/// signature it made.
fn signer(cert: &[u8], signature: &[u8]) -> Result<(Certificate, VerifyingKey, Signature), String> {
    let cert = decode_certificate(cert).map_err(|e| e.to_string())?;
    let key = cert.verifying_key().map_err(|e| e.to_string())?;
    let signature = Signature::from_bytes(signature).map_err(|e| e.to_string())?;
    Ok((cert, key, signature))
}

/// Re-runs parts of one completed query on the same inputs, one level
/// below the public calls the operation itself made. Source-side queries
/// consume no nonce, so the replay has no side effects.
struct Replay<'a> {
    testbed: &'a Testbed,
    client: &'a InteropClient,
    query: &'a Query,
    response: &'a QueryResponse,
    remote: &'a RemoteData,
}

impl Replay<'_> {
    fn build_query(&self, parent: u32, log: &mut SpanLog, layers: &mut Layers) {
        let key = self.client.gateway().identity().signing_key();
        let bytes = query_auth_bytes(self.query);
        let (_, t0, t1) = clocked(|| key.sign(&bytes));
        log.attach(parent, "crypto.schnorr_sign", t1 - t0);
        layers.time("crypto.schnorr_sign_us", t1 - t0);
    }

    /// Steps 5–7 called directly, then each of their parts.
    fn driver_execute(
        &self,
        parent: u32,
        log: &mut SpanLog,
        layers: &mut Layers,
    ) -> Result<Duration, String> {
        let query = self.query;
        let (direct, t0, t1) = clocked(|| self.testbed.stl_driver.execute_query(query));
        let direct = direct.map_err(|e| format!("driver replay: {e}"))?;
        if direct.attestations.len() != self.response.attestations.len() {
            return Err("driver replay returned a different proof shape".into());
        }
        let driver = log.attach(parent, "core.driver_execute", t1 - t0);
        layers.time("core.driver_execute_ms", t1 - t0);

        // The requester-authentication check the driver starts with:
        // decode and validate the key, then verify the query signature.
        let (decoded, k0, k1) = clocked(|| signer(&query.auth.certificate, &query.auth.signature));
        let (cert, vk, signature) = decoded?;
        log.attach(driver, "crypto.key_decode", k1 - k0);
        let auth_bytes = query_auth_bytes(query);
        let (ok, v0, v1) = clocked(|| vk.verify(&auth_bytes, &signature));
        ok.map_err(|e| format!("query signature: {e}"))?;
        log.attach(driver, "crypto.schnorr_verify", v1 - v0);
        layers.time("crypto.schnorr_verify_us", v1 - v0);

        // The proposal the driver builds, simulated and endorsed on one
        // peer of each organization the verification policy names.
        let address = &query.address;
        let transients = [
            (
                TRANSIENT_NETWORK,
                query.auth.network_id.clone().into_bytes(),
            ),
            (
                TRANSIENT_ORG,
                query.auth.organization_id.clone().into_bytes(),
            ),
            (TRANSIENT_CERT, query.auth.certificate.clone()),
        ];
        let relay_proposal = |chaincode: &str, function: &str, args: Vec<Vec<u8>>| {
            let mut p = Proposal::new(
                format!("relay-{}", query.request_id),
                address.ledger_id.clone(),
                chaincode,
                function,
                args,
                cert.clone(),
            )
            .as_relay_query();
            for (key, value) in &transients {
                p = p.with_transient(*key, value.clone());
            }
            p
        };
        let proposal = relay_proposal(
            &address.contract_id,
            &address.function,
            address.args.clone(),
        );
        let ecc_proposal = relay_proposal(
            ECC_NAME,
            "CheckAccess",
            vec![
                query.auth.network_id.clone().into_bytes(),
                query.auth.organization_id.clone().into_bytes(),
                address.contract_id.clone().into_bytes(),
                address.function.clone().into_bytes(),
                query.auth.certificate.clone(),
            ],
        );
        let enc_key = cert
            .encryption_key()
            .map_err(|e| e.to_string())?
            .ok_or("requester certificate has no encryption key")?;
        for org in ["seller-org", "carrier-org"] {
            let (_, peer) = self
                .testbed
                .stl
                .available_peer(org)
                .map_err(|e| e.to_string())?;
            let peer = peer.read();
            let (sim, s0, s1) = clocked(|| peer.simulate(&proposal));
            sim.map_err(|e| format!("simulate on {org}: {e}"))?;
            let simulate = log.attach(driver, "fabric.simulate", s1 - s0);
            layers.time("fabric.simulate_ms", s1 - s0);

            let (ecc, e0, e1) = clocked(|| peer.simulate(&ecc_proposal));
            ecc.map_err(|e| format!("ECC CheckAccess on {org}: {e}"))?;
            log.attach(simulate, "contracts.ecc_check_access", e1 - e0);
            layers.time("contracts.ecc_check_access_ms", e1 - e0);
            let seed = format!("ecc-encrypt:{}", proposal.txid);
            let (_, c0, c1) =
                clocked(|| enc_key.encrypt_deterministic(&self.remote.data, seed.as_bytes()));
            log.attach(simulate, "crypto.elgamal_encrypt", c1 - c0);
            layers.time("crypto.elgamal_encrypt_us", c1 - c0);

            let metadata = ResultMetadata {
                request_id: query.request_id.clone(),
                address: address.display_name(),
                result_hash: tdt_crypto::sha256::sha256(&self.remote.data).to_vec(),
                nonce: query.nonce.clone(),
                peer_id: peer.qualified_name(),
                org_id: org.to_string(),
                ledger_height: peer.height(),
                committed_block_plus_one: 0,
                txid: String::new(),
            }
            .encode_to_vec();
            let plugin = InteropEndorsement::confidential();
            let (out, n0, n1) = clocked(|| peer.endorse_with_plugin(&proposal, &metadata, &plugin));
            out.map_err(|e| format!("endorse on {org}: {e}"))?;
            let endorse = log.attach(driver, "fabric.endorse_plugin", n1 - n0);
            layers.time("fabric.endorse_plugin_ms", n1 - n0);
            let (_, g0, g1) = clocked(|| peer.identity().sign(&metadata));
            log.attach(endorse, "crypto.schnorr_sign", g1 - g0);
            layers.time("crypto.schnorr_sign_us", g1 - g0);
            let (_, m0, m1) = clocked(|| enc_key.encrypt_deterministic(&metadata, b"replay"));
            log.attach(endorse, "crypto.elgamal_encrypt", m1 - m0);
            layers.time("crypto.elgamal_encrypt_us", m1 - m0);
        }
        Ok(t1 - t0)
    }

    /// Step 9's parts along its blocking chain: the result decryption,
    /// one metadata decryption (the two run in parallel), and the batch
    /// verification of both attestation signatures.
    fn process_response(
        &self,
        parent: u32,
        log: &mut SpanLog,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let dk = self
            .client
            .gateway()
            .identity()
            .decryption_key()
            .ok_or("requester has no decryption key")?;
        let result_ct = Ciphertext::from_bytes(&self.response.result).map_err(|e| e.to_string())?;
        let first = self
            .response
            .attestations
            .first()
            .ok_or("response carries no attestation")?;
        let metadata_ct = Ciphertext::from_bytes(&first.metadata).map_err(|e| e.to_string())?;
        for ct in [&result_ct, &metadata_ct] {
            let (plain, t0, t1) = clocked(|| dk.decrypt(ct));
            plain.map_err(|e| format!("decrypt: {e}"))?;
            log.attach(parent, "crypto.elgamal_decrypt", t1 - t0);
            layers.time("crypto.elgamal_decrypt_us", t1 - t0);
        }
        let mut keys = Vec::new();
        for att in &self.remote.proof.attestations {
            let (_, key, signature) = signer(&att.signer_cert, &att.signature)?;
            keys.push((key, signature));
        }
        let items: Vec<tdt_crypto::schnorr::BatchItem<'_>> = keys
            .iter()
            .zip(&self.remote.proof.attestations)
            .map(|((key, signature), att)| tdt_crypto::schnorr::BatchItem {
                key,
                message: &att.metadata,
                signature,
                table: None,
            })
            .collect();
        let (ok, t0, t1) = clocked(|| tdt_crypto::schnorr::batch_verify(&items));
        ok.map_err(|e| format!("batch verify: {e:?}"))?;
        log.attach(parent, "crypto.schnorr_batch_verify", t1 - t0);
        Ok(())
    }

    /// Layer calls timed on this operation's data but not part of its
    /// span tree (they are not sub-intervals of anything the operation
    /// ran).
    fn probes(&self, layers: &mut Layers) -> Result<(), String> {
        // An attestation signature verified alone, with and without the
        // signer's cached fixed-base table.
        let att = self
            .remote
            .proof
            .attestations
            .first()
            .ok_or("proof carries no attestation")?;
        let (_, vk, signature) = signer(&att.signer_cert, &att.signature)?;
        let (ok, t0, t1) = clocked(|| vk.verify(&att.metadata, &signature));
        ok.map_err(|e| format!("attestation verify: {e}"))?;
        layers.time("crypto.schnorr_verify_us", t1 - t0);
        let table = self.testbed.swt_cert_cache.key_table(&vk);
        let (ok, t0, t1) = clocked(|| vk.verify_with_table(&att.metadata, &signature, &table));
        ok.map_err(|e| format!("attestation verify (table): {e}"))?;
        layers.time("crypto.schnorr_verify_cached_us", t1 - t0);

        // The requester's certificate chain, validated from scratch (what
        // a certificate-cache miss costs).
        let requester = self.client.gateway().identity().certificate();
        let root = self
            .testbed
            .swt
            .org(&requester.subject().organization)
            .ok_or("requester's organization is unknown")?
            .root_certificate();
        let (ok, t0, t1) = clocked(|| requester.verify(&root));
        ok.map_err(|e| format!("requester chain: {e}"))?;
        layers.time("crypto.cert_chain_verify_us", t1 - t0);

        // The contract body alone: a local, non-interop GetBillOfLading
        // (includes the gateway's proposal signing and the peer's creator
        // validation, which a relay query skips).
        let seller = Gateway::new(
            Arc::clone(&self.testbed.stl),
            self.testbed.stl_seller.clone(),
        );
        let args = self.query.address.args.clone();
        let (bl, t0, t1) = clocked(|| seller.query(StlChaincode::NAME, "GetBillOfLading", args));
        if bl.map_err(|e| format!("local GetBillOfLading: {e}"))? != self.remote.data {
            return Err("local GetBillOfLading disagrees with the remote result".into());
        }
        layers.time("contracts.stl_get_bl_ms", t1 - t0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_sequence() {
        let draw = |seed, lane| {
            let mut s = OpStream::new(seed, lane, 32);
            (0..500).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(11, 0), draw(11, 0));
        assert_ne!(draw(11, 0), draw(11, 1));
        assert_ne!(draw(11, 0), draw(12, 0));
    }

    #[test]
    fn stream_mixes_rejects_requesters_and_pos() {
        let mut s = OpStream::new(3, 0, 32);
        let ops: Vec<QueryOp> = (0..4000).map(|_| s.next_op()).collect();
        let rejects = ops.iter().filter(|o| o.must_reject).count();
        assert!((120..280).contains(&rejects), "{rejects} rejects of 4000");
        assert!((0..REQUESTERS).all(|r| ops.iter().any(|o| o.requester == r)));
        assert!((0..32).all(|p| ops.iter().any(|o| o.po == p)));
    }
}
