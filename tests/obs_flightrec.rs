//! Integration tests for the ISSUE 10 observability stack: the flight
//! recorder, the scoped sampling profiler, the admin health surface,
//! and their interaction under concurrent scraping and injected chaos.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tdt::obs::export::parse_exposition;
use tdt::obs::flight;
use tdt::obs::profile::{self, parse_folded, Accumulator};
use tdt::obs::{ObsHandle, TraceContext};
use tdt::relay::breaker::{BreakerConfig, CircuitBreaker};
use tdt::relay::chaos::{ChaosConfig, ChaosTransport};
use tdt::relay::discovery::{DiscoveryService, StaticRegistry};
use tdt::relay::driver::EchoDriver;
use tdt::relay::service::RelayService;
use tdt::relay::transport::{
    EnvelopeHandler, InProcessBus, Readiness, RelayTransport, TcpRelayServer, TcpServerConfig,
};
use tdt::wire::messages::{NetworkAddress, Query, RelayEnvelope};

/// Minimal HTTP/1.1 GET; returns (status line, body bytes).
fn http_get(base: &str, path: &str) -> (String, Vec<u8>) {
    let addr = base.strip_prefix("http://").expect("http base url");
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body split");
    let head = String::from_utf8_lossy(&raw[..header_end]).to_string();
    let status = head.lines().next().unwrap_or("").to_string();
    (status, raw[header_end + 4..].to_vec())
}

struct EchoServer;

impl EnvelopeHandler for EchoServer {
    fn handle(&self, envelope: RelayEnvelope) -> RelayEnvelope {
        envelope
    }
}

fn spawn_admin_server(readiness: Option<Arc<Readiness>>) -> (TcpRelayServer, String) {
    let obs = Arc::new(ObsHandle::new());
    obs.registry()
        .counter("tdt_test_stress_total", "stress marker")
        .add(1);
    let server = TcpRelayServer::spawn_with(
        "127.0.0.1:0",
        Arc::new(EchoServer),
        TcpServerConfig {
            obs: Some(obs),
            readiness,
            ..TcpServerConfig::default()
        },
    )
    .expect("spawn server");
    let base = server.admin_endpoint().expect("admin listener configured");
    (server, base)
}

/// Metrics, profile, and flight-recorder scrapes hammered concurrently:
/// no deadlock, no torn exposition, every payload decodable.
#[test]
fn concurrent_scrape_stress() {
    let (server, base) = spawn_admin_server(Some(Arc::new(Readiness::recovered())));
    // Background traffic so the flight rings and scrape bodies are live.
    flight::record(flight::FlightKind::Mark, 7, 1, 2);

    std::thread::scope(|scope| {
        for _ in 0..2 {
            let metrics_base = base.clone();
            scope.spawn(move || {
                for _ in 0..20 {
                    let (status, body) = http_get(&metrics_base, "/metrics");
                    assert_eq!(status, "HTTP/1.1 200 OK", "metrics scrape: {status}");
                    let text = String::from_utf8(body).expect("metrics is utf-8");
                    parse_exposition(&text).expect("exposition must parse mid-stress");
                }
            });
            let flight_base = base.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    let (status, body) = http_get(&flight_base, "/debug/flightrec");
                    assert_eq!(status, "HTTP/1.1 200 OK", "flightrec scrape: {status}");
                    let dump = flight::decode_dump(&body).expect("dump decodes mid-stress");
                    assert!(dump.reason.contains("/debug/flightrec"));
                }
            });
            let profile_base = base.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    let (status, body) =
                        http_get(&profile_base, "/debug/profile?seconds=0.05&hz=97");
                    assert_eq!(status, "HTTP/1.1 200 OK", "profile scrape: {status}");
                    let text = String::from_utf8(body).expect("folded is utf-8");
                    parse_folded(&text).expect("folded stacks parse mid-stress");
                }
            });
            let health_base = base.clone();
            scope.spawn(move || {
                for _ in 0..20 {
                    let (status, body) = http_get(&health_base, "/healthz");
                    assert_eq!(status, "HTTP/1.1 200 OK", "healthz: {status}");
                    assert_eq!(body, b"ok\n");
                }
            });
        }
    });
    server.shutdown();
}

/// `/healthz` is liveness (always 200); `/readyz` flips with ledger
/// recovery and watches the circuit breaker.
#[test]
fn healthz_and_readyz_gate_on_recovery_and_breaker() {
    let readiness = Arc::new(Readiness::new());
    let (server, base) = spawn_admin_server(Some(Arc::clone(&readiness)));

    let (status, body) = http_get(&base, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, b"ok\n");

    let (status, body) = http_get(&base, "/readyz");
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
    assert!(
        String::from_utf8_lossy(&body).contains("ledger recovery incomplete"),
        "got: {}",
        String::from_utf8_lossy(&body)
    );

    readiness.set_recovered(true);
    let (status, body) = http_get(&base, "/readyz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, b"ready\n");

    // An open circuit takes readiness away again.
    let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
        consecutive_failures: 2,
        cooldown: Duration::from_secs(60),
        ..BreakerConfig::default()
    }));
    readiness.watch_breaker(Arc::clone(&breaker));
    breaker.record_failure("inproc:downstream");
    breaker.record_failure("inproc:downstream");
    let (status, body) = http_get(&base, "/readyz");
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
    assert!(
        String::from_utf8_lossy(&body).contains("circuit"),
        "got: {}",
        String::from_utf8_lossy(&body)
    );
    server.shutdown();
}

/// Runs a short seeded chaos burst and returns the flight records it
/// left behind (chaos events carrying this seed, after `after_seq`).
fn chaos_burst(seed: u64, after_seq: u64) -> Vec<flight::FlightRecord> {
    let registry = Arc::new(StaticRegistry::new());
    let bus = Arc::new(InProcessBus::new());
    registry.register("stl", "inproc:stl-relay");
    let stl = Arc::new(RelayService::new(
        "stl-relay",
        "stl",
        Arc::clone(&registry) as Arc<dyn DiscoveryService>,
        Arc::clone(&bus) as Arc<dyn RelayTransport>,
    ));
    stl.register_driver(Arc::new(EchoDriver::new("stl")));
    bus.register("stl-relay", Arc::clone(&stl) as Arc<dyn EnvelopeHandler>);
    let chaos = Arc::new(
        ChaosTransport::new(
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
            seed,
            ChaosConfig {
                drop_prob: 0.3,
                corrupt_prob: 0.2,
                ..ChaosConfig::default()
            },
        )
        .with_local_name("swt-chaos"),
    );
    let swt = Arc::new(RelayService::new(
        "swt-chaos",
        "swt",
        Arc::clone(&registry) as Arc<dyn DiscoveryService>,
        chaos as Arc<dyn RelayTransport>,
    ));
    for i in 0..64 {
        let q = Query {
            request_id: format!("c{i}"),
            address: NetworkAddress::new("stl", "l", "c", "f")
                .with_arg(format!("p{i}").into_bytes()),
            ..Default::default()
        };
        let _ = swt.relay_query(&q);
    }
    flight::snapshot()
        .into_iter()
        .filter(|r| r.seq > after_seq && r.kind == flight::FlightKind::Chaos as u8 && r.a == seed)
        .collect()
}

/// A seeded fault burst must leave a decodable dump containing the
/// triggering chaos events, and the same seed must replay to
/// byte-identical canonical dump bytes.
#[test]
fn chaos_fault_burst_produces_replayable_dump() {
    let seed = 0xC0FF_EE00_0BAD_5EED_u64;
    let high_water = flight::snapshot().iter().map(|r| r.seq).max().unwrap_or(0);

    let first = chaos_burst(seed, high_water);
    assert!(
        !first.is_empty(),
        "a 30% drop / 20% corrupt burst over 64 queries must record chaos events"
    );

    // The dump endpoint path: encode with the real API, decode, and find
    // the triggering events inside.
    let dump_bytes = flight::dump("test: chaos fault burst");
    let dump = flight::decode_dump(&dump_bytes).expect("dump decodes");
    let chaos_in_dump = dump
        .records
        .iter()
        .filter(|r| r.kind == flight::FlightKind::Chaos as u8 && r.a == seed)
        .count();
    assert!(
        chaos_in_dump > 0,
        "incident dump must contain the chaos events that triggered it"
    );
    assert_eq!(dump.reason, "test: chaos fault burst");

    // Same seed, fresh harness: the canonical dump bytes replay
    // byte-identically (seq/time/thread normalized; kind/code/payload
    // must match exactly).
    let second_floor = flight::snapshot().iter().map(|r| r.seq).max().unwrap_or(0);
    let second = chaos_burst(seed, second_floor);
    assert_eq!(
        flight::canonical_dump_bytes("chaos replay", &first),
        flight::canonical_dump_bytes("chaos replay", &second),
        "same-seed chaos bursts must produce identical canonical dumps \
         ({} vs {} events)",
        first.len(),
        second.len()
    );
}

/// An SLO breach must fire a flight-recorder dump whose bytes are
/// CRC-valid and whose events include the breach itself.
#[test]
fn slo_breach_fires_a_decodable_flight_dump() {
    let slo = tdt::obs::Slo::new(
        tdt::obs::SloConfig::new("breach-test", Duration::from_millis(10))
            .with_min_samples(1)
            .with_burn_threshold(1.0),
    );
    let dumps_before = flight::dumps_taken();
    for _ in 0..50 {
        slo.record(Duration::from_millis(1), false);
    }
    let status = slo.evaluate();
    assert!(
        status.breached,
        "a 100% failure burst must breach: {status:?}"
    );
    assert!(
        flight::dumps_taken() > dumps_before,
        "a fresh breach must take a flight dump"
    );
    // The dump taken at the breach is CRC-valid and decodable. (Another
    // concurrently-running test may have dumped since, which is fine —
    // every dump must decode.)
    let last = flight::last_dump().expect("a dump was stored");
    flight::decode_dump(&last).expect("breach dump must be CRC-valid");
    // The breach event itself is in the record stream, so any dump taken
    // from here on explains what fired.
    let dump = flight::decode_dump(&flight::dump("test: after slo breach")).expect("decodes");
    assert!(
        dump.records
            .iter()
            .any(|r| r.kind == flight::FlightKind::Slo as u8 && r.code == 1),
        "dump must contain the SLO breach event"
    );
}

/// Spans live in the flight recorder: a dump taken after a failed relay
/// query holds that query's open and fail records, and the open's name id
/// resolves to `relay.query` through the crate's one intern table.
#[test]
fn failed_relay_query_leaves_its_span_in_the_dump() {
    let registry = Arc::new(StaticRegistry::new());
    let swt = RelayService::new(
        "swt-lonely",
        "swt",
        Arc::clone(&registry) as Arc<dyn DiscoveryService>,
        Arc::new(InProcessBus::new()) as Arc<dyn RelayTransport>,
    );
    let root = TraceContext::root();
    {
        let _guard = root.install();
        let query = Query {
            request_id: "unroutable".into(),
            address: NetworkAddress::new("nowhere", "l", "c", "f"),
            ..Default::default()
        };
        assert!(swt.relay_query(&query).is_err(), "no route to `nowhere`");
    }
    let dump = flight::decode_dump(&flight::dump("test: failed relay query")).expect("decodes");
    let open = dump
        .records
        .iter()
        .find(|r| {
            r.kind == flight::FlightKind::SpanOpen as u8
                && (r.c, r.d) == (root.trace_hi, root.trace_lo)
                && r.b == root.span_id
        })
        .expect("the relay.query span opened under the test root");
    assert_eq!(open.kind_name(), "span.open");
    assert_eq!(profile::tag_name(open.code.into()), Some("relay.query"));
    let fail = dump
        .records
        .iter()
        .find(|r| r.a == open.a && r.seq > open.seq && r.kind_name() != "span.event")
        .expect("the span closed");
    assert_eq!(fail.kind_name(), "span.fail");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Folded-stack output always parses back, and the parsed weights
    // sum to the accumulator's sample count — for any mix of paths
    // (interned or unknown ids) and idle observations.
    #[test]
    fn folded_stacks_parse_and_weights_sum(
        paths in prop::collection::vec(
            prop::collection::vec(1u32..6, 0..6),
            0..40,
        )
    ) {
        let mut acc = Accumulator::new();
        let mut expected_samples = 0u64;
        let mut expected_idle = 0u64;
        for path in &paths {
            acc.observe(path);
            if path.is_empty() {
                expected_idle += 1;
            } else {
                expected_samples += 1;
            }
        }
        let report = acc.finish();
        prop_assert_eq!(report.samples, expected_samples);
        prop_assert_eq!(report.idle, expected_idle);
        let rows = parse_folded(&report.folded_text())
            .map_err(|e| TestCaseError::fail(format!("folded must parse: {e}")))?;
        let total: u64 = rows.iter().map(|(_, w)| w).sum();
        prop_assert_eq!(total, report.samples, "weights must sum to sample count");
        for (frames, weight) in &rows {
            prop_assert!(*weight > 0, "zero-weight rows are never emitted");
            prop_assert!(!frames.is_empty(), "paths have at least one frame");
        }
    }
}
