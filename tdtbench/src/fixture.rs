//! The systems under test, assembled from the shipped public APIs with
//! program defaults: the paper's two networks joined by a real TCP hop,
//! and a bare relay pair with an echo driver behind it.
//!
//! `interop::setup::stl_swt_testbed` wires the same two networks over an
//! in-process bus and keeps its certificate caches private; this fixture
//! repeats its initialisation phase over `TcpRelayServer` +
//! `PooledTcpTransport` and keeps a handle on every counter the per-layer
//! metrics read.

use interop::config::{add_exposure_rule, record_foreign_config, set_verification_policy};
use interop::driver::FabricDriver;
use interop::setup::{stl_network_with_cert_cache, swt_network_with_cert_cache};
use interop::InteropClient;
use std::sync::Arc;
use tdt_contracts::stl::StlChaincode;
use tdt_contracts::swt::SwtChaincode;
use tdt_crypto::certcache::CertChainCache;
use tdt_fabric::gateway::Gateway;
use tdt_fabric::msp::Identity;
use tdt_fabric::network::FabricNetwork;
use tdt_relay::discovery::{DiscoveryService, StaticRegistry};
use tdt_relay::driver::{EchoDriver, NetworkDriver};
use tdt_relay::service::RelayService;
use tdt_relay::transport::{
    EnvelopeHandler, PoolStats, PooledTcpTransport, RelayTransport, TcpRelayServer, TcpServerConfig,
};
use tdt_wire::messages::{NetworkAddress, VerificationPolicy};

/// Pooled TCP connections from the destination relay to the source relay:
/// one per core of the 2-core reference box.
pub const POOL_CONNECTIONS: usize = 2;

/// Requester identities of `seller-bank-org`: more than the certificate
/// cache's fixed-base key-table capacity (8), so identity-keyed caches see
/// both hits and evictions.
pub const REQUESTERS: usize = 12;

/// Network id the echo pair serves.
pub const ECHO_NETWORK: &str = "echo-net";

/// A destination-side relay joined to a source-side relay by one real TCP
/// hop on loopback.
pub struct RelayPair {
    /// The relay the clients call (`relay_query`).
    pub local: Arc<RelayService>,
    /// The relay behind the TCP server.
    pub remote: Arc<RelayService>,
    /// The pool the local relay sends through.
    pub pool: Arc<PoolStats>,
    /// The source relay's listener. Declared last: dropped last.
    pub server: TcpRelayServer,
}

impl RelayPair {
    /// Serves `driver` behind a default-configured TCP relay server and
    /// points a pooled-transport relay of `local_network` at it.
    ///
    /// # Errors
    ///
    /// A description when the listener cannot bind.
    pub fn spawn(
        local_network: &str,
        remote_network: &str,
        driver: Arc<dyn NetworkDriver>,
        remote_cert_cache: Option<Arc<CertChainCache>>,
        local_cert_cache: Option<Arc<CertChainCache>>,
    ) -> Result<RelayPair, String> {
        let registry = Arc::new(StaticRegistry::new());
        let mut remote = RelayService::new(
            format!("{remote_network}-relay"),
            remote_network,
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::new(PooledTcpTransport::new()) as Arc<dyn RelayTransport>,
        );
        if let Some(cache) = remote_cert_cache {
            remote = remote.with_cert_cache(cache);
        }
        let remote = Arc::new(remote);
        remote.register_driver(driver);
        let server = TcpRelayServer::spawn_with(
            "127.0.0.1:0",
            Arc::clone(&remote) as Arc<dyn EnvelopeHandler>,
            TcpServerConfig::default(),
        )
        .map_err(|e| format!("bind relay server: {e}"))?;
        registry.register(remote_network, server.endpoint());
        let transport =
            Arc::new(PooledTcpTransport::new().with_connections_per_endpoint(POOL_CONNECTIONS));
        let pool = transport.stats();
        let mut local = RelayService::new(
            format!("{local_network}-relay"),
            local_network,
            registry as Arc<dyn DiscoveryService>,
            transport as Arc<dyn RelayTransport>,
        )
        .with_pool_stats(Arc::clone(&pool));
        if let Some(cache) = local_cert_cache {
            local = local.with_cert_cache(cache);
        }
        Ok(RelayPair {
            local: Arc::new(local),
            remote,
            pool,
            server,
        })
    }

    /// The echo pair: nothing but relay, transport and wire code runs.
    ///
    /// # Errors
    ///
    /// See [`RelayPair::spawn`].
    pub fn echo() -> Result<RelayPair, String> {
        Self::spawn(
            "echo-client-net",
            ECHO_NETWORK,
            Arc::new(EchoDriver::new(ECHO_NETWORK)),
            None,
            None,
        )
    }

    /// Requests either relay refused, shed or timed out.
    pub fn sheds(&self) -> u64 {
        [&self.local, &self.remote]
            .iter()
            .map(|r| {
                let s = r.stats().snapshot();
                s.shed + s.admission_shed + s.deadline_exceeded
            })
            .sum()
    }
}

/// Simplified TradeLens and Simplified We.Trade, initialised for the
/// cross-network B/L query and joined over TCP.
pub struct Testbed {
    /// The source network (2 orgs × 1 peer).
    pub stl: Arc<FabricNetwork>,
    /// The destination network (2 orgs × 2 peers).
    pub swt: Arc<FabricNetwork>,
    /// STL's CMDAC certificate cache (requester chains).
    pub stl_cert_cache: Arc<CertChainCache>,
    /// SWT's CMDAC certificate cache (endorser chains and key tables).
    pub swt_cert_cache: Arc<CertChainCache>,
    /// The same driver the STL relay dispatches to, for direct calls.
    pub stl_driver: Arc<FabricDriver>,
    /// STL Seller application.
    pub stl_seller: Identity,
    /// STL Carrier application.
    pub stl_carrier: Identity,
    /// SWT Buyer application.
    pub swt_buyer: Identity,
    requester_ids: Vec<Identity>,
    outsider_id: Identity,
    /// The relays and the clients bound to them; replaceable (see
    /// [`Testbed::rewire`]).
    pub wiring: Wiring,
}

/// What sits between the two networks: SWT relay → TCP → STL relay →
/// `FabricDriver`, and the interop clients that call the SWT relay.
pub struct Wiring {
    /// The relay pair.
    pub relays: RelayPair,
    /// Interop clients of `seller-bank-org`, one per requester identity.
    pub requesters: Vec<InteropClient>,
    /// An interop client of `buyer-bank-org`, for which STL has recorded
    /// no exposure rule: every query it sends must be refused.
    pub outsider: InteropClient,
}

impl Testbed {
    /// Builds both networks, runs the initialisation phase (configuration
    /// exchange, verification policy, exposure rule) and starts the relays.
    ///
    /// # Errors
    ///
    /// A description of the first step that failed.
    pub fn build() -> Result<Testbed, String> {
        let stl_cert_cache = Arc::new(CertChainCache::new());
        let swt_cert_cache = Arc::new(CertChainCache::new());
        let stl = stl_network_with_cert_cache(Arc::clone(&stl_cert_cache));
        let swt = swt_network_with_cert_cache(Arc::clone(&swt_cert_cache));
        let enroll = |net: &Arc<FabricNetwork>, org: &str, name: &str, enc: bool| {
            net.register_client(org, name, enc)
                .map_err(|e| format!("enroll {org}/{name}: {e}"))
        };
        let stl_seller = enroll(&stl, "seller-org", "seller-app", false)?;
        let stl_carrier = enroll(&stl, "carrier-org", "carrier-app", false)?;
        let swt_buyer = enroll(&swt, "buyer-bank-org", "buyer-app", false)?;
        let requester_ids = (0..REQUESTERS)
            .map(|i| enroll(&swt, "seller-bank-org", &format!("swt-sc-{i}"), true))
            .collect::<Result<Vec<_>, _>>()?;
        let outsider_id = enroll(&swt, "buyer-bank-org", "buyer-sc", true)?;

        let stl_admin = Gateway::new(Arc::clone(&stl), stl_seller.clone());
        let swt_admin = Gateway::new(Arc::clone(&swt), requester_ids[0].clone());
        record_foreign_config(&stl_admin, &swt.network_config())
            .map_err(|e| format!("record SWT config on STL: {e}"))?;
        record_foreign_config(&swt_admin, &stl.network_config())
            .map_err(|e| format!("record STL config on SWT: {e}"))?;
        set_verification_policy(
            &swt_admin,
            "stl",
            StlChaincode::NAME,
            "GetBillOfLading",
            &bl_policy(),
        )
        .map_err(|e| format!("record verification policy: {e}"))?;
        add_exposure_rule(
            &stl_admin,
            "swt",
            "seller-bank-org",
            StlChaincode::NAME,
            "GetBillOfLading",
        )
        .map_err(|e| format!("record exposure rule: {e}"))?;

        let stl_driver = Arc::new(FabricDriver::new(Arc::clone(&stl)));
        let wiring = Wiring::connect(
            &swt,
            &stl_driver,
            (&stl_cert_cache, &swt_cert_cache),
            &requester_ids,
            &outsider_id,
        )?;
        Ok(Testbed {
            stl,
            swt,
            stl_cert_cache,
            swt_cert_cache,
            stl_driver,
            stl_seller,
            stl_carrier,
            swt_buyer,
            requester_ids,
            outsider_id,
            wiring,
        })
    }

    /// Replaces the relays, their TCP server and connections, and the
    /// clients bound to them with fresh ones; the networks, their ledgers
    /// and their certificate caches stay. Where the scheduler places a
    /// server's threads persists for the server's lifetime, so the
    /// threaded workloads rewire between rounds to sample it afresh.
    ///
    /// # Errors
    ///
    /// A description when the new listener cannot bind.
    pub fn rewire(&mut self) -> Result<(), String> {
        self.wiring = Wiring::connect(
            &self.swt,
            &self.stl_driver,
            (&self.stl_cert_cache, &self.swt_cert_cache),
            &self.requester_ids,
            &self.outsider_id,
        )?;
        Ok(())
    }

    /// Drives the STL shipment lifecycle for `po` until its bill of
    /// lading exists (4 transactions).
    ///
    /// # Errors
    ///
    /// The first transaction that failed or was invalidated.
    pub fn issue_bl(&self, po: &str) -> Result<(), String> {
        let seller = Gateway::new(Arc::clone(&self.stl), self.stl_seller.clone());
        let carrier = Gateway::new(Arc::clone(&self.stl), self.stl_carrier.clone());
        let po_arg = po.as_bytes().to_vec();
        let steps: [(&Gateway, &str, Vec<Vec<u8>>); 4] = [
            (
                &seller,
                "CreateShipment",
                vec![po_arg.clone(), b"600 tulip bulbs".to_vec()],
            ),
            (&carrier, "ConfirmBooking", vec![po_arg.clone()]),
            (&seller, "TransferPossession", vec![po_arg.clone()]),
            (
                &carrier,
                "IssueBillOfLading",
                vec![po_arg.clone(), format!("BL-{po}").into_bytes()],
            ),
        ];
        for (gateway, function, args) in steps {
            commit(gateway, StlChaincode::NAME, function, args)?;
        }
        Ok(())
    }

    /// Opens and issues the letter of credit for `po` on SWT
    /// (2 transactions), leaving it ready for `UploadDispatchDocs`.
    ///
    /// # Errors
    ///
    /// The first transaction that failed or was invalidated.
    pub fn issue_lc(&self, po: &str) -> Result<(), String> {
        let buyer = Gateway::new(Arc::clone(&self.swt), self.swt_buyer.clone());
        let po_arg = po.as_bytes().to_vec();
        commit(
            &buyer,
            SwtChaincode::NAME,
            "RequestLC",
            vec![
                po_arg.clone(),
                format!("LC-{po}").into_bytes(),
                b"buyer".to_vec(),
                b"seller".to_vec(),
                b"100000".to_vec(),
            ],
        )?;
        commit(&buyer, SwtChaincode::NAME, "IssueLC", vec![po_arg])
    }

    /// Both networks' replicas agree with themselves.
    ///
    /// # Errors
    ///
    /// Names the divergent peer.
    pub fn check_replicas(&self) -> Result<(), String> {
        for net in [&self.stl, &self.swt] {
            net.check_replica_consistency()
                .map_err(|e| format!("{}: {e}", net.name()))?;
        }
        Ok(())
    }
}

impl Wiring {
    fn connect(
        swt: &Arc<FabricNetwork>,
        stl_driver: &Arc<FabricDriver>,
        (stl_cert_cache, swt_cert_cache): (&Arc<CertChainCache>, &Arc<CertChainCache>),
        requester_ids: &[Identity],
        outsider_id: &Identity,
    ) -> Result<Wiring, String> {
        let relays = RelayPair::spawn(
            "swt",
            "stl",
            Arc::clone(stl_driver) as Arc<dyn NetworkDriver>,
            Some(Arc::clone(stl_cert_cache)),
            Some(Arc::clone(swt_cert_cache)),
        )?;
        let client = |id: &Identity| {
            InteropClient::new(
                Gateway::new(Arc::clone(swt), id.clone()),
                Arc::clone(&relays.local),
            )
        };
        Ok(Wiring {
            requesters: requester_ids.iter().map(client).collect(),
            outsider: client(outsider_id),
            relays,
        })
    }
}

fn commit(
    gateway: &Gateway,
    chaincode: &str,
    function: &str,
    args: Vec<Vec<u8>>,
) -> Result<(), String> {
    gateway
        .submit(chaincode, function, args)
        .and_then(|outcome| outcome.into_committed())
        .map(drop)
        .map_err(|e| format!("{chaincode}.{function}: {e}"))
}

/// The purchase-order reference of pre-issued bill of lading `i`.
pub fn po_ref(i: usize) -> String {
    format!("PO-{i:04}")
}

/// The cross-network address of the B/L for `po`.
pub fn bl_address(po: &str) -> NetworkAddress {
    NetworkAddress::new(
        "stl",
        "trade-channel",
        StlChaincode::NAME,
        "GetBillOfLading",
    )
    .with_arg(po.as_bytes().to_vec())
}

/// The paper's verification policy: both STL orgs attest, confidentially.
pub fn bl_policy() -> VerificationPolicy {
    VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality()
}
