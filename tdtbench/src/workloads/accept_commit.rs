//! `accept_commit` — Fig. 2 steps 9–10 on a fresh purchase order:
//! `query_remote`, then `submit_with_remote_data(WeTradeCC,
//! UploadDispatchDocs)` → endorsement on both bank orgs (each runs the
//! CMDAC's `ValidateProof`) → ordering → `validate_and_commit` on all four
//! SWT peers. The outcome must be `Valid` and the L/C `DocsUploaded`.
//!
//! The write side of the layers `query_tcp` reads through: CMDAC
//! validation inside endorsement, ordering, MVCC validation, endorsement
//! re-verification at commit on four peers, nonce consumption. A gain for
//! the read path that costs the write path shows here.
//!
//! A fresh PO needs six provisioning transactions (four on STL for the
//! bill of lading, two on SWT for the letter of credit); they run between
//! operations on the same thread and are not timed.

use super::{
    clocked, fill_counts, fill_latency, timed_setup, EndToEnd, Layers, RunConfig, TraceBudget,
    TraceSummary,
};
use crate::fixture::{bl_address, bl_policy, Testbed, REQUESTERS};
use crate::harness::loadgen::{serial_loop, Outcome, SplitMix64, Zipf};
use crate::harness::spans::SpanLog;
use interop::setup::BL_ADDRESS;
use interop::{InteropClient, RemoteData};
use std::time::Instant;
use tdt_contracts::swt::{LcStatus, LetterOfCredit, SwtChaincode};
use tdt_contracts::CMDAC_NAME;
use tdt_fabric::chaincode::Proposal;
use tdt_fabric::endorse::TransactionEnvelope;
use tdt_fabric::network::FabricNetwork;
use tdt_ledger::block::TxValidationCode;
use tdt_wire::codec::Message;

/// The workload's name.
pub const NAME: &str = "accept_commit";

/// Warm-up operations (each with its provisioning).
pub const WARMUP_OPS: usize = 4;
/// Operations per second of run time: 150 in a 20-second run (the 90th
/// percentile needs 100 to clear the sample guard). One operation with its
/// provisioning takes ≈ 105 ms on the reference box.
pub const OPS_PER_SECOND: f64 = 7.5;
/// Operations slower than this are counted in `tail.limit_miss_ratio`.
pub const LATENCY_LIMIT_MS: f64 = 150.0;
/// Least operations of the traced loop.
pub const TRACE_MIN_OPS: usize = 20;

const UPLOAD: &str = "UploadDispatchDocs";

/// The seeded stream of operations: a never-used PO and a requester.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    zipf: Zipf,
    seed: u64,
    lane: u64,
    seq: u64,
}

impl OpStream {
    /// The stream of `lane` in the run seeded `seed`.
    pub fn new(seed: u64, lane: u64) -> Self {
        OpStream {
            rng: SplitMix64::for_lane(seed, lane),
            zipf: Zipf::new(REQUESTERS),
            seed,
            lane,
            seq: 0,
        }
    }

    /// The next `(po, requester)`.
    pub fn next_op(&mut self) -> (String, usize) {
        self.seq += 1;
        let po = format!("ACC-{}-{}-{}", self.seed, self.lane, self.seq);
        (po, self.zipf.sample(&mut self.rng))
    }
}

/// The six provisioning transactions of one PO.
fn provision(testbed: &Testbed, po: &str) -> Result<(), String> {
    testbed.issue_bl(po)?;
    testbed.issue_lc(po)
}

/// Steps 1–10 through the public client API.
fn accept(client: &InteropClient, po: &str) -> Result<(RemoteData, TxValidationCode), String> {
    let remote = client
        .query_remote(bl_address(po), bl_policy())
        .map_err(|e| format!("query {po}: {e}"))?;
    let outcome = client
        .submit_with_remote_data(
            SwtChaincode::NAME,
            UPLOAD,
            vec![po.as_bytes().to_vec()],
            &remote,
        )
        .map_err(|e| format!("submit {po}: {e}"))?;
    Ok((remote, outcome.code))
}

/// The oracle: the transaction is `Valid` and the ledger now shows the
/// L/C in `DocsUploaded` holding exactly the bill of lading that was
/// fetched.
fn verify(
    client: &InteropClient,
    po: &str,
    remote: &RemoteData,
    code: TxValidationCode,
) -> Result<(), String> {
    if !code.is_valid() {
        return Err(format!("{po}: transaction invalidated: {code:?}"));
    }
    let lc = client
        .gateway()
        .query(SwtChaincode::NAME, "GetLC", vec![po.as_bytes().to_vec()])
        .map_err(|e| format!("GetLC {po}: {e}"))?;
    let lc = LetterOfCredit::decode_from_slice(&lc).map_err(|e| format!("L/C {po}: {e}"))?;
    if lc.status != LcStatus::DocsUploaded || lc.bl != remote.data {
        return Err(format!("{po}: L/C is {:?} or holds another B/L", lc.status));
    }
    Ok(())
}

/// Builds the two networks and warms up.
pub(crate) fn setup(cfg: &RunConfig) -> Result<Testbed, String> {
    let testbed = Testbed::build()?;
    let mut warmup = OpStream::new(cfg.seed, u64::MAX);
    for _ in 0..(WARMUP_OPS / cfg.scale.warmup_div).max(1) {
        let (po, requester) = warmup.next_op();
        provision(&testbed, &po)?;
        let client = &testbed.wiring.requesters[requester];
        let (remote, code) = accept(client, &po)?;
        verify(client, &po, &remote, code)?;
    }
    Ok(testbed)
}

/// The untraced run: one client, closed loop, provisioning untimed.
///
/// # Errors
///
/// Set-up failures and statistics the samples cannot support.
pub fn run(cfg: &RunConfig) -> Result<EndToEnd, String> {
    let (testbed, setup_s) = timed_setup(|| setup(cfg))?;
    let mut out = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let mut ops = OpStream::new(cfg.seed, 0);
    let mut provision_s = 0.0f64;
    let mut problems = Vec::new();
    let phase = serial_loop(
        cfg.serial_ops(OPS_PER_SECOND),
        || {
            let (po, requester) = ops.next_op();
            let started = Instant::now();
            let provisioned = provision(&testbed, &po);
            provision_s += started.elapsed().as_secs_f64();
            (po, requester, provisioned)
        },
        |(po, requester, provisioned)| {
            let client = &testbed.wiring.requesters[requester];
            let result = provisioned.and_then(|()| accept(client, &po));
            (po, client, result)
        },
        |(po, client, result)| match result
            .and_then(|(remote, code)| verify(client, &po, &remote, code))
        {
            Ok(()) => Outcome::Ok,
            Err(e) => {
                problems.push(e);
                Outcome::Failed
            }
        },
    );
    fill_counts(&mut out, [&phase]);
    fill_latency(&mut out, &phase, LATENCY_LIMIT_MS, cfg.scale.min_beyond)?;
    out.diagnostics.insert(
        "fabric.provision_ms",
        (provision_s * 1e3 / phase.samples.len() as f64, "ms"),
    );
    out.problems.extend(problems.into_iter().take(5));
    if let Err(e) = testbed.check_replicas() {
        out.problems.push(e);
    }
    Ok(out)
}

/// `Gateway::submit` taken apart so that endorsement and ordering can be
/// timed separately: the same calls, in the same order.
struct Submit<'a> {
    swt: &'a FabricNetwork,
    proposal: Proposal,
    orgs: Vec<String>,
}

impl<'a> Submit<'a> {
    fn new(client: &'a InteropClient, po: &str, remote: &RemoteData) -> Result<Self, String> {
        let swt: &FabricNetwork = client.gateway().network();
        let orgs = swt
            .policy_of(SwtChaincode::NAME)
            .and_then(|p| p.minimal_org_set())
            .ok_or("WeTradeCC has no satisfiable endorsement policy")?;
        let identity = client.gateway().identity();
        let proposal = Proposal::new(
            swt.next_txid(),
            swt.channel(),
            SwtChaincode::NAME,
            UPLOAD,
            vec![
                po.as_bytes().to_vec(),
                remote.data.clone(),
                remote.proof_bytes(),
            ],
            identity.certificate().clone(),
        )
        .sign(identity.signing_key());
        Ok(Submit {
            swt,
            proposal,
            orgs,
        })
    }

    fn endorse(&self) -> Result<TransactionEnvelope, String> {
        let (sim, endorsements) = self
            .swt
            .endorse(&self.proposal, &self.orgs)
            .map_err(|e| format!("endorse: {e}"))?;
        Ok(TransactionEnvelope {
            txid: self.proposal.txid.clone(),
            channel: self.swt.channel().to_string(),
            chaincode: SwtChaincode::NAME.to_string(),
            result: sim.result,
            rwset: sim.rwset,
            endorsements,
            creator_cert: self.proposal.creator.clone(),
        })
    }

    fn order(&self, envelope: &TransactionEnvelope) -> Result<TxValidationCode, String> {
        let committed = match self
            .swt
            .order(envelope)
            .map_err(|e| format!("order: {e}"))?
        {
            Some(outcome) => outcome,
            None => self
                .swt
                .cut_block()
                .map_err(|e| format!("cut block: {e}"))?
                .ok_or("orderer lost the transaction")?,
        };
        let (block_number, codes) = committed;
        let (_, peer) = self.swt.peers().next().ok_or("SWT has no peers")?;
        let peer = peer.read();
        let block = peer
            .store()
            .block(block_number)
            .map_err(|e| format!("block {block_number}: {e}"))?;
        let index = block
            .transactions
            .iter()
            .position(|tx| {
                TransactionEnvelope::decode_from_slice(tx).is_ok_and(|e| e.txid == envelope.txid)
            })
            .ok_or("committed block does not hold the transaction")?;
        codes
            .get(index)
            .copied()
            .ok_or_else(|| "no validation code for the transaction".to_string())
    }
}

/// The traced loop: one client, alternating an untraced operation (two
/// public client calls) with one whose step 10 is taken apart under spans.
/// Step 10 consumes the proof's nonce, so its parts are timed in line, not
/// replayed; the CMDAC probe runs on a second, never-submitted proof.
///
/// # Errors
///
/// Any failed operation or probe.
pub fn trace(
    testbed: &Testbed,
    cfg: &RunConfig,
    budget: TraceBudget,
    log: &mut SpanLog,
    layers: &mut Layers,
) -> Result<TraceSummary, String> {
    let mut ops = OpStream::new(cfg.seed, 300);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut op_id = 0u32;
    while budget.more(op_id as usize, started) {
        let (po, requester) = ops.next_op();
        let client = &testbed.wiring.requesters[requester];
        let (provisioned, v0, v1) = clocked(|| provision(testbed, &po));
        provisioned?;
        layers.time("fabric.provision_ms", v1 - v0);
        let (accepted, t0, t1) = clocked(|| accept(client, &po));
        let (remote, code) = accepted?;
        verify(client, &po, &remote, code)?;
        untraced_ms.push((t1 - t0).as_secs_f64() * 1e3);

        let (po, requester) = ops.next_op();
        let client = &testbed.wiring.requesters[requester];
        let (provisioned, v0, v1) = clocked(|| provision(testbed, &po));
        provisioned?;
        layers.time("fabric.provision_ms", v1 - v0);
        let (remote, q0, q1) = clocked(|| client.query_remote(bl_address(&po), bl_policy()));
        let remote = remote.map_err(|e| format!("query {po}: {e}"))?;
        let (endorsed, e0, e1) = clocked(|| {
            let submit = Submit::new(client, &po, &remote)?;
            let envelope = submit.endorse()?;
            Ok::<_, String>((submit, envelope))
        });
        let (submit, envelope) = endorsed?;
        let (code, o0, o1) = clocked(|| submit.order(&envelope));
        verify(client, &po, &remote, code?)?;

        let root = log.record(op_id, "op", None, q0, o1);
        log.record(op_id, "core.query_remote", Some(root), q0, q1);
        let endorse = log.record(op_id, "fabric.endorse_tx", Some(root), e0, e1);
        log.record(op_id, "fabric.order_commit", Some(root), o0, o1);
        traced_ms.push((o1 - q0).as_secs_f64() * 1e3);
        layers.time("fabric.endorse_tx_ms", e1 - e0);
        layers.time("fabric.order_commit_ms", o1 - o0);

        // What each endorsing org's ValidateProof costs, on a proof whose
        // nonce has not been consumed (re-query the same B/L; simulate
        // only, so this proof's nonce is never consumed either).
        let fresh = client
            .query_remote(bl_address(&po), bl_policy())
            .map_err(|e| format!("re-query {po}: {e}"))?;
        let validate = Proposal::new(
            format!("probe-{op_id}"),
            testbed.swt.channel(),
            CMDAC_NAME,
            "ValidateProof",
            vec![
                b"stl".to_vec(),
                BL_ADDRESS.as_bytes().to_vec(),
                fresh.proof_bytes(),
            ],
            client.gateway().identity().certificate().clone(),
        )
        .as_relay_query();
        for org in ["buyer-bank-org", "seller-bank-org"] {
            let (_, peer) = testbed.swt.available_peer(org).map_err(|e| e.to_string())?;
            let (ok, c0, c1) = clocked(|| peer.read().simulate(&validate));
            ok.map_err(|e| format!("ValidateProof on {org}: {e}"))?;
            log.attach(endorse, "contracts.cmdac_validate_proof", c1 - c0);
            layers.time("contracts.cmdac_validate_proof_ms", c1 - c0);
        }
        op_id += 1;
    }
    TraceSummary::from_samples(&traced_ms, &untraced_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_fresh_pos() {
        let draw = |seed| {
            let mut s = OpStream::new(seed, 0);
            (0..100).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        let ops = draw(9);
        let mut pos: Vec<&String> = ops.iter().map(|(po, _)| po).collect();
        pos.sort();
        pos.dedup();
        assert_eq!(pos.len(), ops.len(), "every PO is fresh");
    }
}
