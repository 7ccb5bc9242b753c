//! Relays over real TCP sockets with a file-based discovery registry —
//! the deployment shape of the paper's proof-of-concept (which plugged "a
//! local file-based registry" into the SWT relay).
//!
//! Run with: `cargo run --example tcp_relay_demo`

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use tdt::contracts::stl::BillOfLading;
use tdt::interop::driver::FabricDriver;
use tdt::interop::setup::{issue_sample_bl, stl_swt_testbed};
use tdt::interop::InteropClient;
use tdt::obs::export::parse_exposition;
use tdt::obs::ObsHandle;
use tdt::relay::discovery::{DiscoveryService, FileRegistry};
use tdt::relay::service::RelayService;
use tdt::relay::telemetry::register_relay;
use tdt::relay::transport::{
    EnvelopeHandler, PooledTcpTransport, Readiness, RelayTransport, TcpRelayServer, TcpServerConfig,
};
use tdt::wire::codec::Message;
use tdt::wire::messages::{NetworkAddress, VerificationPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building networks...");
    let testbed = stl_swt_testbed();
    issue_sample_bl(&testbed, "PO-1001");

    // Source-side relay served over TCP.
    let registry_path =
        std::env::temp_dir().join(format!("tdt-registry-{}.txt", std::process::id()));
    // An SLO on the serving relay: 50 ms latency objective, with burn-rate
    // breach detection feeding the flight recorder.
    let slo = Arc::new(tdt::obs::Slo::new(tdt::obs::SloConfig::new(
        "stl-relay-tcp",
        std::time::Duration::from_millis(50),
    )));
    let stl_relay = Arc::new(
        RelayService::new(
            "stl-relay-tcp",
            "stl",
            Arc::new(FileRegistry::new(&registry_path)) as Arc<dyn DiscoveryService>,
            Arc::new(PooledTcpTransport::new()) as Arc<dyn RelayTransport>,
        )
        .with_slo(Arc::clone(&slo)),
    );
    stl_relay.register_driver(Arc::new(FabricDriver::new(Arc::clone(&testbed.stl))));
    // Unified observability: the server exposes the relay's counters,
    // gauges, the latency histogram, and the SLO burn gauges on a
    // loopback admin endpoint, plus health/readiness and the debug
    // surface (flight recorder, profiler).
    let obs = Arc::new(ObsHandle::new());
    register_relay(&obs, &stl_relay);
    obs.add_source(Arc::new(tdt::obs::slo::SloMetricSource::new(&slo)));
    let readiness = Arc::new(Readiness::recovered());
    let server = TcpRelayServer::spawn_with(
        "127.0.0.1:0",
        Arc::clone(&stl_relay) as Arc<dyn EnvelopeHandler>,
        TcpServerConfig {
            obs: Some(Arc::clone(&obs)),
            readiness: Some(Arc::clone(&readiness)),
            ..TcpServerConfig::default()
        },
    )?;
    println!("STL relay listening on {}", server.local_addr());

    // The destination relay discovers it through the file registry.
    FileRegistry::write_entries(&registry_path, [("stl", server.endpoint().as_str())])?;
    println!("registry written to {}", registry_path.display());
    // It rides the pooled, multiplexed transport: one warm connection
    // instead of a TCP handshake per query, with the pool's health
    // surfaced through the relay's stats.
    let transport = Arc::new(PooledTcpTransport::new());
    let swt_relay = Arc::new(
        RelayService::new(
            "swt-relay-tcp",
            "swt",
            Arc::new(FileRegistry::new(&registry_path)) as Arc<dyn DiscoveryService>,
            Arc::clone(&transport) as Arc<dyn RelayTransport>,
        )
        .with_pool_stats(transport.stats()),
    );

    // The cross-network query now travels over a real socket.
    let client = InteropClient::new(testbed.swt_seller_gateway(), Arc::clone(&swt_relay));
    let address = NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
        .with_arg(b"PO-1001".to_vec());
    let policy =
        VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality();
    let remote = client.query_remote(address.clone(), policy.clone())?;
    let bl = BillOfLading::decode_from_slice(&remote.data)?;
    println!(
        "\nfetched B/L {} over TCP with {} attestations",
        bl.bl_id,
        remote.proof.attestations.len()
    );

    // More of the same query, timed: every one reuses the warm stream.
    const ROUNDS: usize = 10;
    let start = std::time::Instant::now();
    for _ in 0..ROUNDS {
        client.query_remote(address.clone(), policy.clone())?;
    }
    println!(
        "\n{ROUNDS} queries over the pooled transport: {:?}",
        start.elapsed()
    );
    let stats = swt_relay.stats().snapshot();
    println!(
        "pool stats: {} dialed, {} reused, {} open, {} in flight, {} orphaned",
        stats.pool_connections_dialed,
        stats.pool_connections_reused,
        stats.pool_connections_open,
        stats.pool_requests_in_flight,
        stats.pool_orphaned_replies,
    );
    println!(
        "server: {} live connection(s), {} refused",
        server.connection_count(),
        server.refused_connections()
    );

    // Scrape the admin endpoint exactly like a Prometheus agent would and
    // check the exposition parses.
    let admin = server
        .admin_endpoint()
        .ok_or("admin endpoint not configured")?;
    let host = admin.trim_start_matches("http://");
    let mut stream = TcpStream::connect(host)?;
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    let inventory = parse_exposition(body).map_err(|e| format!("bad exposition: {e}"))?;
    println!(
        "\nscraped {admin}/metrics: {} metrics, all parse",
        inventory.len()
    );
    for line in body.lines().filter(|l| {
        l.starts_with("tdt_relay_served_total")
            || l.starts_with("tdt_relay_forwarded_total")
            || l.starts_with("tdt_relay_latency_ns_count")
            || l.starts_with("tdt_relay_latency_ns_max")
            || l.starts_with("tdt_slo_")
    }) {
        println!("  {line}");
    }

    // The rest of the admin surface: liveness, readiness, a profiler
    // capture, and a flight-recorder dump of everything this demo did.
    let scrape = |path: &str| -> Result<Vec<u8>, Box<dyn std::error::Error>> {
        let mut stream = TcpStream::connect(host)?;
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
        )?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let split = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or("no header/body split")?;
        Ok(raw[split + 4..].to_vec())
    };
    let health = String::from_utf8(scrape("/healthz")?)?;
    let ready = String::from_utf8(scrape("/readyz")?)?;
    println!("healthz: {} readyz: {}", health.trim(), ready.trim());
    let folded = String::from_utf8(scrape("/debug/profile?seconds=0.2&hz=97")?)?;
    let profile_rows =
        tdt::obs::profile::parse_folded(&folded).map_err(|e| format!("bad folded stacks: {e}"))?;
    println!(
        "profiler: {} folded path(s) in a 0.2s capture",
        profile_rows.len()
    );
    let dump = tdt::obs::flight::decode_dump(&scrape("/debug/flightrec")?)
        .map_err(|e| format!("bad flight dump: {e}"))?;
    println!(
        "flight recorder: {} event(s), dump reason {:?}",
        dump.records.len(),
        dump.reason
    );
    std::fs::remove_file(&registry_path).ok();
    server.shutdown();
    println!("done.");
    Ok(())
}
