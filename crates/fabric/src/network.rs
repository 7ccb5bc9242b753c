//! Network assembly: organizations, peers, orderer, and chaincode
//! deployment wired into one runnable in-process blockchain network.

use crate::chaincode::{Chaincode, ChaincodeRegistry, Proposal};
use crate::endorse::{Endorsement, SimulationResult, TransactionEnvelope};
use crate::error::FabricError;
use crate::events::{BlockEvent, EventHub};
use crate::msp::{Identity, Msp, MspRegistry};
use crate::net::FaultInjector;
use crate::orderer::OrderingService;
use crate::peer::Peer;
use crate::policy::{fabric_text, EndorsementPolicy};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tdt_crypto::cert::CertRole;
use tdt_crypto::group::Group;
use tdt_ledger::block::{Block, TxValidationCode};
use tdt_wire::codec::Message;
use tdt_wire::messages::{encode_certificate, NetworkConfig, OrgConfig};

/// An organization: its MSP plus the names of its peers.
#[derive(Debug)]
pub struct Organization {
    msp: RwLock<Msp>,
    peer_names: Vec<String>,
}

impl Organization {
    /// Names of this organization's peers (qualified).
    pub fn peer_names(&self) -> &[String] {
        &self.peer_names
    }

    /// The organization's root certificate.
    pub fn root_certificate(&self) -> tdt_crypto::cert::Certificate {
        self.msp.read().root_certificate().clone()
    }
}

/// Builder for a [`FabricNetwork`].
#[derive(Default)]
pub struct NetworkBuilder {
    name: String,
    group: Option<Group>,
    channel: String,
    orgs: Vec<(String, usize)>,
    chaincodes: Vec<(String, Arc<dyn Chaincode>, EndorsementPolicy)>,
    batch_size: usize,
}

impl NetworkBuilder {
    /// Starts building a network called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetworkBuilder {
            name: name.into(),
            group: None,
            channel: "default-channel".into(),
            orgs: Vec::new(),
            chaincodes: Vec::new(),
            batch_size: 1,
        }
    }

    /// Sets the cryptographic group (default: the 768-bit test group).
    pub fn group(mut self, group: Group) -> Self {
        self.group = Some(group);
        self
    }

    /// Names the single channel (ledger).
    pub fn channel(mut self, channel: impl Into<String>) -> Self {
        self.channel = channel.into();
        self
    }

    /// Adds an organization with `peer_count` peers.
    pub fn org(mut self, org_id: impl Into<String>, peer_count: usize) -> Self {
        self.orgs.push((org_id.into(), peer_count.max(1)));
        self
    }

    /// Deploys a chaincode with its endorsement policy.
    pub fn chaincode(
        mut self,
        name: impl Into<String>,
        code: Arc<dyn Chaincode>,
        policy: EndorsementPolicy,
    ) -> Self {
        self.chaincodes.push((name.into(), code, policy));
        self
    }

    /// Sets the orderer batch size (default 1: a block per transaction).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Assembles the network: creates MSPs, enrolls peers, deploys
    /// chaincodes, commits the genesis block everywhere.
    ///
    /// # Panics
    ///
    /// Panics if no organization was added.
    pub fn build(self) -> Arc<FabricNetwork> {
        assert!(!self.orgs.is_empty(), "a network needs at least one org");
        let group = self.group.unwrap_or_else(Group::test_group);
        let mut registry = ChaincodeRegistry::new();
        let mut policies = HashMap::new();
        let mut genesis_config = Vec::new();
        genesis_config.push(format!("network={}", self.name).into_bytes());
        genesis_config.push(format!("channel={}", self.channel).into_bytes());
        for (name, code, policy) in self.chaincodes {
            genesis_config
                .push(format!("chaincode={name} policy={}", fabric_text(&policy)).into_bytes());
            registry.deploy(name.clone(), code);
            policies.insert(name, policy);
        }
        let registry = Arc::new(registry);
        let policies = Arc::new(policies);

        let mut orgs = BTreeMap::new();
        let mut msp_registry = MspRegistry::new();
        let mut enrolled_peers: Vec<(String, String, Identity)> = Vec::new();
        for (org_id, peer_count) in &self.orgs {
            let mut msp = Msp::new(&self.name, org_id, group.clone(), b"network-seed");
            msp_registry.register(org_id.clone(), msp.root_certificate().clone());
            let mut peer_names = Vec::new();
            for i in 0..*peer_count {
                let peer_name = format!("peer{i}");
                let identity = msp.enroll(&peer_name, CertRole::Peer, false);
                let qualified = format!("{}/{}/{}", self.name, org_id, peer_name);
                peer_names.push(qualified.clone());
                enrolled_peers.push((org_id.clone(), peer_name, identity));
            }
            orgs.insert(
                org_id.clone(),
                Organization {
                    msp: RwLock::new(msp),
                    peer_names,
                },
            );
        }
        let msp_registry = Arc::new(msp_registry);

        let genesis = Block::genesis(genesis_config);
        let mut peers = BTreeMap::new();
        for (org_id, peer_name, identity) in enrolled_peers {
            let mut peer = Peer::new(
                &self.name,
                &org_id,
                &peer_name,
                identity,
                Arc::clone(&registry),
                Arc::clone(&msp_registry),
                Arc::clone(&policies),
            );
            peer.validate_and_commit(genesis.clone())
                // lint:allow(panic: "network construction at startup; a locally built genesis block always links")
                .expect("genesis commit cannot fail");
            peers.insert(peer.qualified_name(), Arc::new(RwLock::new(peer)));
        }

        Arc::new(FabricNetwork {
            name: self.name,
            channel: self.channel,
            group,
            orgs,
            peers,
            orderer: Mutex::new(OrderingService::new(&genesis, self.batch_size)),
            delivery_lock: Mutex::new(()),
            msp_registry,
            policies,
            events: EventHub::new(),
            faults: FaultInjector::new(),
            tx_counter: AtomicU64::new(0),
        })
    }
}

/// A fully assembled in-process permissioned blockchain network.
#[derive(Debug)]
pub struct FabricNetwork {
    name: String,
    channel: String,
    group: Group,
    orgs: BTreeMap<String, Organization>,
    peers: BTreeMap<String, Arc<RwLock<Peer>>>,
    orderer: Mutex<OrderingService>,
    /// Serializes block delivery: a block must be committed on every peer
    /// before the next block is cut, or replicas would observe gaps.
    delivery_lock: Mutex<()>,
    msp_registry: Arc<MspRegistry>,
    policies: Arc<HashMap<String, EndorsementPolicy>>,
    events: EventHub,
    faults: FaultInjector,
    tx_counter: AtomicU64,
}

impl FabricNetwork {
    /// The network's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The channel (ledger) name.
    pub fn channel(&self) -> &str {
        &self.channel
    }

    /// The cryptographic group of this network's identities.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Organization ids, sorted.
    pub fn org_ids(&self) -> Vec<&str> {
        self.orgs.keys().map(String::as_str).collect()
    }

    /// Looks up an organization.
    pub fn org(&self, org_id: &str) -> Option<&Organization> {
        self.orgs.get(org_id)
    }

    /// The MSP registry (root certificates of all local organizations).
    pub fn msp_registry(&self) -> &MspRegistry {
        &self.msp_registry
    }

    /// Endorsement policy of a chaincode.
    pub fn policy_of(&self, chaincode: &str) -> Option<&EndorsementPolicy> {
        self.policies.get(chaincode)
    }

    /// Block event hub.
    pub fn events(&self) -> &EventHub {
        &self.events
    }

    /// Fault injector (availability experiments).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Generates a unique transaction id.
    pub fn next_txid(&self) -> String {
        let n = self.tx_counter.fetch_add(1, Ordering::Relaxed);
        format!("{}-tx-{n}", self.name)
    }

    /// Enrolls a new client identity in an organization.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownOrganization`] for unknown orgs.
    pub fn register_client(
        &self,
        org_id: &str,
        name: &str,
        with_encryption: bool,
    ) -> Result<Identity, FabricError> {
        let org = self
            .orgs
            .get(org_id)
            .ok_or_else(|| FabricError::UnknownOrganization(org_id.to_string()))?;
        Ok(org
            .msp
            .write()
            .enroll(name, CertRole::Client, with_encryption))
    }

    /// All peers (qualified name -> handle), sorted by name.
    pub fn peers(&self) -> impl Iterator<Item = (&str, &Arc<RwLock<Peer>>)> {
        self.peers.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// A specific peer by qualified name.
    pub fn peer(&self, qualified_name: &str) -> Option<&Arc<RwLock<Peer>>> {
        self.peers.get(qualified_name)
    }

    /// Peers belonging to an organization, in enrollment order, including
    /// their qualified names.
    pub fn peers_of_org(&self, org_id: &str) -> Vec<(String, Arc<RwLock<Peer>>)> {
        self.orgs
            .get(org_id)
            .map(|org| {
                org.peer_names
                    .iter()
                    .filter_map(|n| self.peers.get(n).map(|p| (n.clone(), Arc::clone(p))))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// First *available* (not faulted) peer of an organization.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::PeerUnavailable`] when all of the org's peers
    /// are down, or [`FabricError::UnknownOrganization`].
    pub fn available_peer(&self, org_id: &str) -> Result<(String, Arc<RwLock<Peer>>), FabricError> {
        if !self.orgs.contains_key(org_id) {
            return Err(FabricError::UnknownOrganization(org_id.to_string()));
        }
        self.peers_of_org(org_id)
            .into_iter()
            .find(|(name, _)| !self.faults.is_down(name))
            .ok_or_else(|| FabricError::PeerUnavailable(format!("all peers of {org_id}")))
    }

    /// Collects endorsements for `proposal` from one available peer of each
    /// org in `endorsing_orgs`, checking that all peers produced identical
    /// results (a divergent peer would sign a different payload and break
    /// validation anyway; detecting it early gives a better error).
    ///
    /// # Errors
    ///
    /// Returns the first simulation failure, peer unavailability, or a
    /// [`FabricError::EndorsementPolicyUnsatisfied`] on divergent results.
    pub fn endorse(
        &self,
        proposal: &Proposal,
        endorsing_orgs: &[String],
    ) -> Result<(SimulationResult, Vec<Endorsement>), FabricError> {
        let mut reference: Option<SimulationResult> = None;
        let mut endorsements = Vec::with_capacity(endorsing_orgs.len());
        for org in endorsing_orgs {
            let (_, peer) = self.available_peer(org)?;
            self.faults.apply_latency();
            let peer = peer.read();
            let sim = peer.simulate(proposal)?;
            match &reference {
                None => reference = Some(sim.clone()),
                Some(r) => {
                    if r.result != sim.result || r.rwset != sim.rwset {
                        return Err(FabricError::EndorsementPolicyUnsatisfied(format!(
                            "peer of org {org} produced a divergent simulation result"
                        )));
                    }
                }
            }
            endorsements.push(peer.endorse_transaction(proposal, &sim)?);
        }
        let sim = reference.ok_or_else(|| {
            FabricError::EndorsementPolicyUnsatisfied("no endorsing organizations".into())
        })?;
        Ok((sim, endorsements))
    }

    /// Submits an endorsed envelope to ordering; delivers any cut block.
    ///
    /// Returns the committed block number and validation codes when a block
    /// was cut, `None` when the envelope is still pending in the batch.
    ///
    /// # Errors
    ///
    /// Propagates commit failures (which indicate a broken chain and are
    /// fatal in this in-process setting).
    pub fn order(
        &self,
        envelope: &TransactionEnvelope,
    ) -> Result<Option<(u64, Vec<TxValidationCode>)>, FabricError> {
        // Hold the delivery lock across cut + commit so concurrent
        // submitters cannot deliver blocks out of order.
        let _guard = self.delivery_lock.lock();
        let maybe_block = self.orderer.lock().submit(envelope.encode_to_vec());
        match maybe_block {
            Some(block) => Ok(Some(self.deliver(block)?)),
            None => Ok(None),
        }
    }

    /// Forces the orderer to cut a block from pending transactions and
    /// delivers it.
    ///
    /// # Errors
    ///
    /// Propagates commit failures.
    pub fn cut_block(&self) -> Result<Option<(u64, Vec<TxValidationCode>)>, FabricError> {
        let _guard = self.delivery_lock.lock();
        let maybe_block = self.orderer.lock().cut();
        match maybe_block {
            Some(block) => Ok(Some(self.deliver(block)?)),
            None => Ok(None),
        }
    }

    /// Orderer batch size control (batching experiments).
    pub fn set_batch_size(&self, batch_size: usize) {
        self.orderer.lock().set_batch_size(batch_size);
    }

    fn deliver(&self, block: Block) -> Result<(u64, Vec<TxValidationCode>), FabricError> {
        self.faults.apply_latency();
        let block_number = block.header.number;
        let txids: Vec<String> = block
            .transactions
            .iter()
            .map(|tx| {
                TransactionEnvelope::decode_from_slice(tx)
                    .map(|e| e.txid)
                    .unwrap_or_default()
            })
            .collect();
        let mut codes: Option<Vec<TxValidationCode>> = None;
        let mut delivered_to_any = false;
        for (name, peer) in &self.peers {
            // A downed peer misses the delivery and falls behind; it
            // catches up later via [`FabricNetwork::sync_peer`].
            if self.faults.is_down(name) {
                continue;
            }
            delivered_to_any = true;
            let peer_codes = peer.write().validate_and_commit(block.clone())?;
            match &codes {
                None => codes = Some(peer_codes),
                Some(reference) => {
                    debug_assert_eq!(
                        reference, &peer_codes,
                        "honest peers must agree on validation"
                    );
                }
            }
        }
        if !delivered_to_any {
            return Err(FabricError::PeerUnavailable(
                "no peer was available to commit the block".into(),
            ));
        }
        let codes = codes.unwrap_or_default();
        self.events.publish(BlockEvent {
            block_number,
            txids,
            validation: codes.clone(),
        });
        Ok((block_number, codes))
    }

    /// Catches a lagging (previously downed) peer up to the longest chain
    /// by replaying missing blocks from an up-to-date replica. The synced
    /// peer *re-validates* every block (hash links, endorsements, MVCC), so
    /// the source replica need not be trusted.
    ///
    /// # Errors
    ///
    /// * [`FabricError::UnknownPeer`] for unknown names.
    /// * Propagates validation failures (a corrupt source block).
    pub fn sync_peer(&self, peer_name: &str) -> Result<u64, FabricError> {
        let target = self
            .peers
            .get(peer_name)
            .ok_or_else(|| FabricError::UnknownPeer(peer_name.to_string()))?;
        // Find the longest replica to copy from.
        let source = self
            .peers
            .iter()
            .filter(|(name, _)| name.as_str() != peer_name)
            .max_by_key(|(_, p)| p.read().height())
            .map(|(_, p)| Arc::clone(p))
            .ok_or_else(|| FabricError::Internal("no other replica to sync from".into()))?;
        let mut synced = 0u64;
        loop {
            let next_height = target.read().height();
            let missing = {
                let source = source.read();
                if next_height >= source.height() {
                    break;
                }
                source.store().block(next_height)?.clone()
            };
            target.write().validate_and_commit(missing)?;
            synced += 1;
        }
        Ok(synced)
    }

    /// Checks that every peer replica holds an identical world state,
    /// returning the common digest.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::Internal`] naming the divergent peer when
    /// replicas disagree.
    pub fn check_replica_consistency(&self) -> Result<[u8; 32], FabricError> {
        let mut reference: Option<(String, [u8; 32])> = None;
        for (name, peer) in &self.peers {
            let digest = peer.read().state_hash();
            match &reference {
                None => reference = Some((name.clone(), digest)),
                Some((ref_name, ref_digest)) => {
                    if digest != *ref_digest {
                        return Err(FabricError::Internal(format!(
                            "replica divergence: {name} disagrees with {ref_name}"
                        )));
                    }
                }
            }
        }
        reference
            .map(|(_, digest)| digest)
            .ok_or_else(|| FabricError::Internal("network has no peers".into()))
    }

    /// The network's shareable configuration: every org's root certificate
    /// and peer certificates — what a foreign network records via its
    /// Configuration Management contract (paper §4.3).
    pub fn network_config(&self) -> NetworkConfig {
        let orgs = self
            .orgs
            .iter()
            .map(|(org_id, org)| {
                let peer_certs = org
                    .peer_names
                    .iter()
                    .filter_map(|n| self.peers.get(n))
                    .map(|p| encode_certificate(p.read().identity().certificate()))
                    .collect();
                OrgConfig {
                    org_id: org_id.clone(),
                    root_cert: encode_certificate(&org.root_certificate()),
                    peer_certs,
                }
            })
            .collect();
        NetworkConfig {
            network_id: self.name.clone(),
            group_name: self.group.name().to_string(),
            orgs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::TxContext;
    use crate::error::ChaincodeError;

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
                    Ok(Vec::new())
                }
                "get" => {
                    let key = String::from_utf8_lossy(&args[0]).into_owned();
                    ctx.get_state(&key).ok_or(ChaincodeError::NotFound(key))
                }
                f => Err(ChaincodeError::UnknownFunction(f.into())),
            }
        }
    }

    fn network() -> Arc<FabricNetwork> {
        NetworkBuilder::new("testnet")
            .channel("ch1")
            .org("org-a", 2)
            .org("org-b", 1)
            .chaincode(
                "kv",
                Arc::new(KvStore),
                EndorsementPolicy::all_of(["org-a", "org-b"]),
            )
            .build()
    }

    #[test]
    fn build_creates_peers_and_genesis() {
        let net = network();
        assert_eq!(net.org_ids(), vec!["org-a", "org-b"]);
        assert_eq!(net.peers().count(), 3);
        for (_, peer) in net.peers() {
            assert_eq!(peer.read().height(), 1);
        }
        assert_eq!(net.channel(), "ch1");
    }

    #[test]
    fn endorse_order_commit_roundtrip() {
        let net = network();
        let client = net.register_client("org-a", "alice", false).unwrap();
        let proposal = Proposal::new(
            net.next_txid(),
            net.channel(),
            "kv",
            "put",
            vec![b"k".to_vec(), b"v".to_vec()],
            client.certificate().clone(),
        )
        .sign(client.signing_key());
        let orgs = vec!["org-a".to_string(), "org-b".to_string()];
        let (sim, endorsements) = net.endorse(&proposal, &orgs).unwrap();
        assert_eq!(endorsements.len(), 2);
        let envelope = TransactionEnvelope {
            txid: proposal.txid.clone(),
            channel: net.channel().into(),
            chaincode: "kv".into(),
            result: sim.result.clone(),
            rwset: sim.rwset.clone(),
            endorsements,
            creator_cert: client.certificate().clone(),
        };
        let (block_number, codes) = net.order(&envelope).unwrap().unwrap();
        assert_eq!(block_number, 1);
        assert_eq!(codes, vec![TxValidationCode::Valid]);
        // All replicas agree.
        for (_, peer) in net.peers() {
            let peer = peer.read();
            assert_eq!(peer.height(), 2);
            assert_eq!(peer.state().get("kv", "k").unwrap().value, b"v");
        }
    }

    #[test]
    fn endorsement_requires_available_peers() {
        let net = network();
        let client = net.register_client("org-a", "alice", false).unwrap();
        let proposal = Proposal::new(
            net.next_txid(),
            net.channel(),
            "kv",
            "put",
            vec![b"k".to_vec(), b"v".to_vec()],
            client.certificate().clone(),
        )
        .sign(client.signing_key());
        // Take down the only org-b peer.
        net.faults().take_down("testnet/org-b/peer0");
        let err = net.endorse(&proposal, &["org-b".to_string()]).unwrap_err();
        assert!(matches!(err, FabricError::PeerUnavailable(_)));
        // org-a has a second peer, so taking down one still works.
        net.faults().take_down("testnet/org-a/peer0");
        assert!(net.endorse(&proposal, &["org-a".to_string()]).is_ok());
    }

    #[test]
    fn unknown_org_errors() {
        let net = network();
        assert!(matches!(
            net.register_client("nope", "x", false),
            Err(FabricError::UnknownOrganization(_))
        ));
        assert!(matches!(
            net.available_peer("nope"),
            Err(FabricError::UnknownOrganization(_))
        ));
    }

    #[test]
    fn events_published_on_commit() {
        let net = network();
        let rx = net.events().subscribe();
        let client = net.register_client("org-a", "alice", false).unwrap();
        let proposal = Proposal::new(
            "my-tx",
            net.channel(),
            "kv",
            "put",
            vec![b"k".to_vec(), b"v".to_vec()],
            client.certificate().clone(),
        )
        .sign(client.signing_key());
        let orgs: Vec<String> = vec!["org-a".into(), "org-b".into()];
        let (sim, endorsements) = net.endorse(&proposal, &orgs).unwrap();
        let envelope = TransactionEnvelope {
            txid: "my-tx".into(),
            channel: net.channel().into(),
            chaincode: "kv".into(),
            result: sim.result,
            rwset: sim.rwset,
            endorsements,
            creator_cert: client.certificate().clone(),
        };
        net.order(&envelope).unwrap();
        let event = rx.recv().unwrap();
        assert_eq!(event.block_number, 1);
        assert_eq!(event.validation_of("my-tx"), Some(TxValidationCode::Valid));
    }

    #[test]
    fn batching_defers_commit() {
        let net = NetworkBuilder::new("batched")
            .org("org-a", 1)
            .chaincode(
                "kv",
                Arc::new(KvStore),
                EndorsementPolicy::any_of(["org-a"]),
            )
            .batch_size(3)
            .build();
        let client = net.register_client("org-a", "c", false).unwrap();
        let mut pending = Vec::new();
        for i in 0..2 {
            let proposal = Proposal::new(
                net.next_txid(),
                net.channel(),
                "kv",
                "put",
                vec![format!("k{i}").into_bytes(), b"v".to_vec()],
                client.certificate().clone(),
            )
            .sign(client.signing_key());
            let (sim, endorsements) = net.endorse(&proposal, &["org-a".to_string()]).unwrap();
            let envelope = TransactionEnvelope {
                txid: proposal.txid.clone(),
                channel: net.channel().into(),
                chaincode: "kv".into(),
                result: sim.result,
                rwset: sim.rwset,
                endorsements,
                creator_cert: client.certificate().clone(),
            };
            pending.push(net.order(&envelope).unwrap());
        }
        assert!(pending.iter().all(Option::is_none));
        let (block, codes) = net.cut_block().unwrap().unwrap();
        assert_eq!(block, 1);
        assert_eq!(codes.len(), 2);
        assert!(net.cut_block().unwrap().is_none());
    }

    #[test]
    fn downed_peer_misses_blocks_and_syncs_back() {
        let net = network();
        let client = net.register_client("org-a", "alice", false).unwrap();
        let submit = |key: &str| {
            let proposal = Proposal::new(
                net.next_txid(),
                net.channel(),
                "kv",
                "put",
                vec![key.as_bytes().to_vec(), b"v".to_vec()],
                client.certificate().clone(),
            )
            .sign(client.signing_key());
            let orgs = vec!["org-a".to_string(), "org-b".to_string()];
            let (sim, endorsements) = net.endorse(&proposal, &orgs).unwrap();
            let envelope = TransactionEnvelope {
                txid: proposal.txid.clone(),
                channel: net.channel().into(),
                chaincode: "kv".into(),
                result: sim.result,
                rwset: sim.rwset,
                endorsements,
                creator_cert: client.certificate().clone(),
            };
            net.order(&envelope).unwrap().unwrap()
        };
        submit("k1");
        // Take down org-a/peer1 (not an endorser pick: peer0 comes first).
        net.faults().take_down("testnet/org-a/peer1");
        submit("k2");
        submit("k3");
        net.faults().restore("testnet/org-a/peer1");
        // The replica lags and diverges from the rest.
        assert!(net.check_replica_consistency().is_err());
        let lagging = net.peer("testnet/org-a/peer1").unwrap();
        assert_eq!(lagging.read().height(), 2); // genesis + k1 block only
                                                // Sync re-validates and catches up.
        let synced = net.sync_peer("testnet/org-a/peer1").unwrap();
        assert_eq!(synced, 2);
        net.check_replica_consistency().unwrap();
        assert_eq!(lagging.read().state().get("kv", "k3").unwrap().value, b"v");
    }

    #[test]
    fn sync_unknown_peer_errors() {
        let net = network();
        assert!(matches!(
            net.sync_peer("testnet/org-a/ghost"),
            Err(FabricError::UnknownPeer(_))
        ));
    }

    #[test]
    fn network_config_contains_all_orgs_and_peers() {
        let net = network();
        let cfg = net.network_config();
        assert_eq!(cfg.network_id, "testnet");
        assert_eq!(cfg.orgs.len(), 2);
        let org_a = cfg.orgs.iter().find(|o| o.org_id == "org-a").unwrap();
        assert_eq!(org_a.peer_certs.len(), 2);
        // Root certs decode and are self-signed CAs.
        let root = tdt_wire::messages::decode_certificate(&org_a.root_cert).unwrap();
        assert!(root.verify_self_signed().is_ok());
        // Peer certs chain to the root.
        let peer = tdt_wire::messages::decode_certificate(&org_a.peer_certs[0]).unwrap();
        assert!(peer.verify(&root).is_ok());
    }

    #[test]
    fn larger_group_parameterization_works() {
        // The whole pipeline runs unchanged over a bigger MODP group.
        let net = NetworkBuilder::new("bignet")
            .group(Group::modp_1024())
            .org("org-a", 1)
            .chaincode(
                "kv",
                Arc::new(KvStore),
                EndorsementPolicy::any_of(["org-a"]),
            )
            .build();
        assert_eq!(net.group().name(), "modp1024");
        let client = net.register_client("org-a", "c", false).unwrap();
        let proposal = Proposal::new(
            net.next_txid(),
            net.channel(),
            "kv",
            "put",
            vec![b"k".to_vec(), b"v".to_vec()],
            client.certificate().clone(),
        )
        .sign(client.signing_key());
        let (sim, endorsements) = net.endorse(&proposal, &["org-a".to_string()]).unwrap();
        let envelope = TransactionEnvelope {
            txid: proposal.txid.clone(),
            channel: net.channel().into(),
            chaincode: "kv".into(),
            result: sim.result,
            rwset: sim.rwset,
            endorsements,
            creator_cert: client.certificate().clone(),
        };
        let (_, codes) = net.order(&envelope).unwrap().unwrap();
        assert!(codes[0].is_valid());
        assert_eq!(net.network_config().group_name, "modp1024");
    }

    #[test]
    fn txids_unique() {
        let net = network();
        let a = net.next_txid();
        let b = net.next_txid();
        assert_ne!(a, b);
        assert!(a.starts_with("testnet-tx-"));
    }
}
