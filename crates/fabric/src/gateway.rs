//! Client gateway: the SDK applications use to talk to a network.
//!
//! Wraps the full submit flow — proposal construction, signing, endorsement
//! collection per the chaincode's policy, ordering, and waiting for the
//! commit outcome — plus lightweight queries (simulation only, no ordering).

use crate::chaincode::Proposal;
use crate::endorse::TransactionEnvelope;
use crate::error::FabricError;
use crate::msp::Identity;
use crate::network::FabricNetwork;
use std::collections::BTreeMap;
use std::sync::Arc;
use tdt_ledger::block::TxValidationCode;
use tdt_wire::codec::Message;

/// The outcome of a submitted transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxOutcome {
    /// Transaction id.
    pub txid: String,
    /// Chaincode result returned by the endorsers.
    pub result: Vec<u8>,
    /// Block the transaction was committed in.
    pub block_number: u64,
    /// Validation code (check [`TxValidationCode::is_valid`]).
    pub code: TxValidationCode,
}

impl TxOutcome {
    /// Returns the result if the transaction committed as valid.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::TransactionInvalidated`] otherwise.
    pub fn into_committed(self) -> Result<Vec<u8>, FabricError> {
        if self.code.is_valid() {
            Ok(self.result)
        } else {
            Err(FabricError::TransactionInvalidated(format!(
                "{} was invalidated: {:?}",
                self.txid, self.code
            )))
        }
    }
}

/// A client's connection to a [`FabricNetwork`].
#[derive(Debug, Clone)]
pub struct Gateway {
    network: Arc<FabricNetwork>,
    identity: Identity,
}

impl Gateway {
    /// Connects `identity` to the network.
    pub fn new(network: Arc<FabricNetwork>, identity: Identity) -> Self {
        Gateway { network, identity }
    }

    /// The identity this gateway signs with.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// The underlying network handle.
    pub fn network(&self) -> &Arc<FabricNetwork> {
        &self.network
    }

    fn build_proposal(
        &self,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        transient: BTreeMap<String, Vec<u8>>,
    ) -> Proposal {
        let mut proposal = Proposal::new(
            self.network.next_txid(),
            self.network.channel(),
            chaincode,
            function,
            args,
            self.identity.certificate().clone(),
        );
        proposal.transient = transient;
        proposal.sign(self.identity.signing_key())
    }

    /// Submits a transaction and waits for commit. Forces a block cut, so
    /// the outcome is immediate regardless of the orderer batch size.
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] on simulation failure, unsatisfiable
    /// endorsement policy, or peer unavailability. An invalidated
    /// transaction is reported through [`TxOutcome::code`], not an error.
    pub fn submit(
        &self,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
    ) -> Result<TxOutcome, FabricError> {
        self.submit_with_transient(chaincode, function, args, BTreeMap::new())
    }

    /// [`Gateway::submit`] with transient data attached to the proposal.
    ///
    /// # Errors
    ///
    /// See [`Gateway::submit`].
    pub fn submit_with_transient(
        &self,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        transient: BTreeMap<String, Vec<u8>>,
    ) -> Result<TxOutcome, FabricError> {
        let policy = self
            .network
            .policy_of(chaincode)
            .ok_or_else(|| FabricError::ChaincodeNotDeployed(chaincode.to_string()))?;
        let orgs = policy.minimal_org_set().ok_or_else(|| {
            FabricError::EndorsementPolicyUnsatisfied(format!(
                "policy {} cannot be satisfied by any org set",
                crate::policy::fabric_text(policy)
            ))
        })?;
        let proposal = self.build_proposal(chaincode, function, args, transient);
        let (sim, endorsements) = self.network.endorse(&proposal, &orgs)?;
        let envelope = TransactionEnvelope {
            txid: proposal.txid.clone(),
            channel: self.network.channel().to_string(),
            chaincode: chaincode.to_string(),
            result: sim.result.clone(),
            rwset: sim.rwset,
            endorsements,
            creator_cert: self.identity.certificate().clone(),
        };
        let committed = match self.network.order(&envelope)? {
            Some(outcome) => outcome,
            None => self
                .network
                .cut_block()?
                .ok_or_else(|| FabricError::Internal("orderer lost the transaction".into()))?,
        };
        let (block_number, codes) = committed;
        // Locate this tx's validation code within the block.
        let code = self
            .find_code(block_number, &proposal.txid, &codes)
            .unwrap_or(TxValidationCode::BadPayload);
        Ok(TxOutcome {
            txid: proposal.txid,
            result: sim.result,
            block_number,
            code,
        })
    }

    fn find_code(
        &self,
        block_number: u64,
        txid: &str,
        codes: &[TxValidationCode],
    ) -> Option<TxValidationCode> {
        // Use any peer's store to map txid -> index within the block.
        let (_, peer) = self
            .network
            .peers()
            .next()
            .map(|(n, p)| (n.to_string(), Arc::clone(p)))?;
        let peer = peer.read();
        let block = peer.store().block(block_number).ok()?;
        let idx = block.transactions.iter().position(|tx| {
            crate::endorse::TransactionEnvelope::decode_from_slice(tx)
                .map(|e| e.txid == txid)
                .unwrap_or(false)
        })?;
        codes.get(idx).copied()
    }

    /// Evaluates a read-only query against one available peer of the
    /// client's own organization (falling back to any available org).
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] on simulation failure or when no peer is
    /// reachable.
    pub fn query(
        &self,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
    ) -> Result<Vec<u8>, FabricError> {
        let proposal = self.build_proposal(chaincode, function, args, BTreeMap::new());
        let own_org = self.identity.organization().to_string();
        let peer = match self.network.available_peer(&own_org) {
            Ok((_, peer)) => peer,
            Err(_) => {
                // Fall back to any org with an available peer.
                let mut found = None;
                for org in self.network.org_ids() {
                    if let Ok((_, p)) = self.network.available_peer(org) {
                        found = Some(p);
                        break;
                    }
                }
                found.ok_or_else(|| {
                    FabricError::PeerUnavailable("no peer available in any org".into())
                })?
            }
        };
        self.network.faults().apply_latency();
        let sim = peer.read().simulate(&proposal)?;
        Ok(sim.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::{Chaincode, TxContext};
    use crate::error::ChaincodeError;
    use crate::network::NetworkBuilder;
    use crate::policy::EndorsementPolicy;

    struct KvStore;

    impl Chaincode for KvStore {
        fn invoke(
            &self,
            ctx: &mut TxContext<'_>,
            function: &str,
            args: &[Vec<u8>],
        ) -> Result<Vec<u8>, ChaincodeError> {
            match function {
                "put" => {
                    let key = String::from_utf8_lossy(&args[0]).into_owned();
                    ctx.put_state(&key, args[1].clone());
                    Ok(b"ok".to_vec())
                }
                "get" => {
                    let key = String::from_utf8_lossy(&args[0]).into_owned();
                    ctx.get_state(&key).ok_or(ChaincodeError::NotFound(key))
                }
                "whoami" => Ok(ctx.creator().subject().qualified_name().into_bytes()),
                f => Err(ChaincodeError::UnknownFunction(f.into())),
            }
        }
    }

    fn gateway() -> Gateway {
        let net = NetworkBuilder::new("gwnet")
            .org("org-a", 1)
            .org("org-b", 1)
            .chaincode(
                "kv",
                Arc::new(KvStore),
                EndorsementPolicy::all_of(["org-a", "org-b"]),
            )
            .build();
        let client = net.register_client("org-a", "alice", false).unwrap();
        Gateway::new(net, client)
    }

    #[test]
    fn submit_then_query() {
        let gw = gateway();
        let outcome = gw
            .submit("kv", "put", vec![b"name".to_vec(), b"weave".to_vec()])
            .unwrap();
        assert!(outcome.code.is_valid());
        assert_eq!(outcome.result, b"ok");
        assert_eq!(outcome.block_number, 1);
        let value = gw.query("kv", "get", vec![b"name".to_vec()]).unwrap();
        assert_eq!(value, b"weave");
    }

    #[test]
    fn into_committed_on_valid() {
        let gw = gateway();
        let outcome = gw
            .submit("kv", "put", vec![b"k".to_vec(), b"v".to_vec()])
            .unwrap();
        assert_eq!(outcome.into_committed().unwrap(), b"ok");
    }

    #[test]
    fn query_does_not_commit() {
        let gw = gateway();
        gw.submit("kv", "put", vec![b"k".to_vec(), b"v".to_vec()])
            .unwrap();
        let height_before: u64 = {
            let (_, peer) = gw.network().peers().next().unwrap();
            let h = peer.read().height();
            h
        };
        gw.query("kv", "get", vec![b"k".to_vec()]).unwrap();
        let (_, peer) = gw.network().peers().next().unwrap();
        assert_eq!(peer.read().height(), height_before);
    }

    #[test]
    fn chaincode_error_propagates() {
        let gw = gateway();
        let err = gw
            .query("kv", "get", vec![b"missing".to_vec()])
            .unwrap_err();
        assert!(matches!(
            err,
            FabricError::Chaincode(ChaincodeError::NotFound(_))
        ));
    }

    #[test]
    fn unknown_chaincode_on_submit() {
        let gw = gateway();
        assert!(matches!(
            gw.submit("nope", "f", vec![]),
            Err(FabricError::ChaincodeNotDeployed(_))
        ));
    }

    #[test]
    fn creator_identity_visible_to_chaincode() {
        let gw = gateway();
        let who = gw.query("kv", "whoami", vec![]).unwrap();
        assert_eq!(who, b"gwnet/org-a/alice");
    }

    #[test]
    fn query_falls_back_when_own_org_down() {
        let gw = gateway();
        gw.submit("kv", "put", vec![b"k".to_vec(), b"v".to_vec()])
            .unwrap();
        gw.network().faults().take_down("gwnet/org-a/peer0");
        // Falls back to org-b's peer.
        let v = gw.query("kv", "get", vec![b"k".to_vec()]).unwrap();
        assert_eq!(v, b"v");
        // All peers down -> unavailable.
        gw.network().faults().take_down("gwnet/org-b/peer0");
        assert!(matches!(
            gw.query("kv", "get", vec![b"k".to_vec()]),
            Err(FabricError::PeerUnavailable(_))
        ));
    }

    #[test]
    fn submit_fails_when_endorsing_org_down() {
        let gw = gateway();
        gw.network().faults().take_down("gwnet/org-b/peer0");
        assert!(matches!(
            gw.submit("kv", "put", vec![b"k".to_vec(), b"v".to_vec()]),
            Err(FabricError::PeerUnavailable(_))
        ));
    }

    #[test]
    fn multiple_submissions_advance_chain() {
        let gw = gateway();
        for i in 0..3 {
            let outcome = gw
                .submit(
                    "kv",
                    "put",
                    vec![format!("k{i}").into_bytes(), b"v".to_vec()],
                )
                .unwrap();
            assert_eq!(outcome.block_number, i + 1);
        }
    }
}
