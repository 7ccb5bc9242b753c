//! Open-loop load harness for the relay's TCP path (`BENCH_loadplane.json`).
//!
//! Drives a real [`TcpRelayServer`] over TCP with Poisson arrivals at a
//! configurable offered rate and measures latency from each request's
//! *scheduled* arrival time, not its send time — the standard defense
//! against coordinated omission: when the system falls behind, the
//! backlog shows up as latency instead of silently slowing the load
//! generator down to whatever the server can absorb.
//!
//! Three measurement phases:
//! 1. a closed-loop calibration burst to find this machine's capacity;
//! 2. an open-loop rate sweep (fractions of capacity, past saturation)
//!    in both unbatched and batched client modes — the goodput gap at
//!    the same offered rate is the envelope-batching win;
//! 3. a 2× overload run against a deliberately slow, admission-guarded
//!    server, showing sheds plus bounded completion p99 instead of
//!    queue collapse.
//!
//! Usage: `cargo run -p tdt-bench --release --bin loadplane -- \
//!            [--smoke] [--out PATH] [--profile-hz N]`
//!
//! `--profile-hz N` runs the scoped sampling profiler for the whole
//! rate sweep and writes the folded stacks next to the JSON (`<out>.folded`)
//! — a flamegraph of where the relay actually spends the sweep.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdt_relay::admission::AdmissionConfig;
use tdt_relay::batch::{BatchConfig, BatchingTransport};
use tdt_relay::chaos::{unit_f64, SplitMix64};
use tdt_relay::discovery::{DiscoveryService, StaticRegistry};
use tdt_relay::driver::{EchoDriver, NetworkDriver};
use tdt_relay::error::RelayError;
use tdt_relay::service::{RelayService, OVERLOADED_PREFIX};
use tdt_relay::transport::{
    EnvelopeHandler, PooledTcpTransport, RelayTransport, TcpRelayServer, TcpServerConfig,
};
use tdt_wire::messages::{EnvelopeKind, NetworkAddress, Query, QueryResponse, RelayEnvelope};

/// The network served by the bench relay.
const NETWORK: &str = "loadnet";

#[derive(Clone, Copy)]
struct Profile {
    /// Open-loop sender threads. Sends block, so this is the client's
    /// in-flight ceiling: it must comfortably exceed both the offered
    /// rate × per-op latency product (or the "open" loop silently turns
    /// closed) and the server's shed-threshold queue depth (or the
    /// admission gate never sees a sheddable backlog).
    client_threads: usize,
    calibrate_threads: usize,
    calibrate_secs: f64,
    window_secs: f64,
    batch_max: usize,
    batch_linger: Duration,
    throughput_workers: usize,
    /// TCP dispatcher threads. Dispatchers block in `handle()` until the
    /// worker pool replies, so this also caps the queue depth the
    /// admission controller can observe.
    dispatchers: usize,
    overload_workers: usize,
    overload_service: Duration,
    overload_deadline: Duration,
    overload_window_secs: f64,
}

const FULL: Profile = Profile {
    client_threads: 128,
    calibrate_threads: 16,
    calibrate_secs: 1.0,
    window_secs: 2.0,
    batch_max: 16,
    batch_linger: Duration::from_micros(500),
    throughput_workers: 8,
    dispatchers: 96,
    overload_workers: 2,
    overload_service: Duration::from_millis(2),
    overload_deadline: Duration::from_millis(50),
    overload_window_secs: 2.0,
};

const SMOKE: Profile = Profile {
    client_threads: 48,
    calibrate_threads: 8,
    calibrate_secs: 0.3,
    window_secs: 0.4,
    batch_max: 8,
    batch_linger: Duration::from_micros(500),
    throughput_workers: 4,
    dispatchers: 64,
    overload_workers: 2,
    overload_service: Duration::from_millis(2),
    overload_deadline: Duration::from_millis(20),
    overload_window_secs: 0.4,
};

/// A driver with a fixed per-query service time: makes server capacity
/// predictable (`workers / service_time`) for the overload phase.
struct SlowDriver {
    service: Duration,
}

impl NetworkDriver for SlowDriver {
    fn network_id(&self) -> &str {
        NETWORK
    }

    fn execute_query(&self, query: &Query) -> Result<QueryResponse, RelayError> {
        std::thread::sleep(self.service);
        Ok(QueryResponse {
            request_id: query.request_id.clone(),
            result: query.address.args.first().cloned().unwrap_or_default(),
            ..Default::default()
        })
    }
}

/// One relay + TCP server pair; dropped in reverse construction order.
struct Testbed {
    relay: Arc<RelayService>,
    server: TcpRelayServer,
}

impl Testbed {
    fn spawn(
        driver: Arc<dyn NetworkDriver>,
        workers: usize,
        dispatchers: usize,
        deadline: Duration,
    ) -> Testbed {
        let registry = Arc::new(StaticRegistry::new());
        let relay = Arc::new(
            RelayService::new(
                "load-relay",
                NETWORK,
                registry as Arc<dyn DiscoveryService>,
                Arc::new(PooledTcpTransport::new()) as Arc<dyn RelayTransport>,
            )
            .with_request_deadline(deadline)
            .with_admission_control(AdmissionConfig::default()),
        );
        relay.register_driver(driver);
        relay.start_workers(workers);
        let server = TcpRelayServer::spawn_with(
            "127.0.0.1:0",
            Arc::clone(&relay) as Arc<dyn EnvelopeHandler>,
            TcpServerConfig {
                max_connections: 1024,
                dispatchers,
                ..TcpServerConfig::default()
            },
        )
        .expect("bind bench relay server"); // lint:allow(panic: "bench harness: cannot run without a listening socket")
        Testbed { relay, server }
    }

    fn shutdown(self) {
        self.server.shutdown();
        self.relay.stop_workers();
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Shed,
    Error,
}

struct Sample {
    latency: Duration,
    outcome: Outcome,
}

fn classify(reply: &Result<RelayEnvelope, RelayError>) -> Outcome {
    match reply {
        Ok(env) if env.kind == EnvelopeKind::QueryResponse => Outcome::Ok,
        Ok(env) if env.kind == EnvelopeKind::Error => {
            if String::from_utf8_lossy(&env.payload).starts_with(OVERLOADED_PREFIX) {
                Outcome::Shed
            } else {
                Outcome::Error
            }
        }
        Ok(_) => Outcome::Error,
        Err(RelayError::Overloaded(_)) => Outcome::Shed,
        Err(_) => Outcome::Error,
    }
}

fn query_envelope(thread: usize, seq: u64) -> RelayEnvelope {
    let q = Query {
        request_id: format!("t{thread}-{seq}"),
        address: NetworkAddress::new(NETWORK, "ledger", "contract", "fn")
            .with_arg(format!("payload-{thread}-{seq}").into_bytes()),
        ..Default::default()
    };
    RelayEnvelope::query("load-client", NETWORK, &q)
}

/// Closed-loop burst: every thread sends back-to-back for `secs`.
/// Returns the sustained ok-throughput — the capacity estimate the
/// open-loop sweep is scaled from.
fn calibrate(
    transport: &Arc<dyn RelayTransport>,
    endpoint: &str,
    threads: usize,
    secs: f64,
) -> f64 {
    let ok = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let transport = Arc::clone(transport);
            let ok = Arc::clone(&ok);
            scope.spawn(move || {
                let mut seq = 0u64;
                while Instant::now() < until {
                    let reply = transport.send(endpoint, &query_envelope(thread, seq));
                    if classify(&reply) == Outcome::Ok {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    seq += 1;
                }
            });
        }
    });
    ok.load(Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64()
}

/// One open-loop run: Poisson arrivals at `offered_rps` split across the
/// client threads, latency measured from each request's scheduled
/// arrival (coordinated-omission-safe).
fn open_loop_run(
    transport: &Arc<dyn RelayTransport>,
    endpoint: &str,
    threads: usize,
    offered_rps: f64,
    window_secs: f64,
) -> (Vec<Sample>, f64) {
    let per_thread_rate = offered_rps / threads as f64;
    let mut all = Vec::new();
    let run_start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let transport = Arc::clone(transport);
                scope.spawn(move || {
                    // Deterministic per-thread schedule; inter-arrival
                    // gaps are exponential (Poisson process).
                    let mut rng = SplitMix64::new(0x10ad_c0de_u64 ^ thread as u64);
                    let mut samples = Vec::new();
                    let start = Instant::now();
                    let mut next_secs = 0.0f64;
                    let mut seq = 0u64;
                    loop {
                        let u = unit_f64(rng.next_u64()).max(f64::EPSILON);
                        next_secs += -u.ln() / per_thread_rate;
                        if next_secs > window_secs {
                            break;
                        }
                        let scheduled = start + Duration::from_secs_f64(next_secs);
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let reply = transport.send(endpoint, &query_envelope(thread, seq));
                        samples.push(Sample {
                            latency: Instant::now().saturating_duration_since(scheduled),
                            outcome: classify(&reply),
                        });
                        seq += 1;
                    }
                    samples
                })
            })
            .collect();
        for handle in handles {
            all.extend(handle.join().expect("load thread panicked")); // lint:allow(panic: "bench harness: a panicked load thread invalidates the whole run")
        }
    });
    // Goodput is divided by wall time through the last completion, not the
    // nominal window, so a backlog draining after the window cannot
    // inflate the number past true capacity.
    (all, run_start.elapsed().as_secs_f64())
}

struct RunStats {
    attempted: u64,
    ok: u64,
    sheds: u64,
    errors: u64,
    goodput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let index = ((sorted.len() as f64 * q) as usize).min(sorted.len() - 1);
    sorted.get(index).map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

fn summarize(samples: &[Sample], elapsed_secs: f64) -> RunStats {
    let mut ok_latencies: Vec<Duration> = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .map(|s| s.latency)
        .collect();
    ok_latencies.sort_unstable();
    RunStats {
        attempted: samples.len() as u64,
        ok: ok_latencies.len() as u64,
        sheds: samples
            .iter()
            .filter(|s| s.outcome == Outcome::Shed)
            .count() as u64,
        errors: samples
            .iter()
            .filter(|s| s.outcome == Outcome::Error)
            .count() as u64,
        goodput_rps: ok_latencies.len() as f64 / elapsed_secs,
        p50_ms: percentile_ms(&ok_latencies, 0.50),
        p99_ms: percentile_ms(&ok_latencies, 0.99),
        p999_ms: percentile_ms(&ok_latencies, 0.999),
    }
}

fn stats_json(stats: &RunStats) -> String {
    format!(
        "\"attempted\": {}, \"ok\": {}, \"sheds\": {}, \"errors\": {}, \
         \"goodput_rps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}",
        stats.attempted,
        stats.ok,
        stats.sheds,
        stats.errors,
        stats.goodput_rps,
        stats.p50_ms,
        stats.p99_ms,
        stats.p999_ms
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_loadplane.json".to_string());
    let profile_hz: u64 = args
        .iter()
        .position(|a| a == "--profile-hz")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let profile = if smoke { SMOKE } else { FULL };

    // ---- Phase 1 + 2: capacity calibration and the batching sweep ----
    let testbed = Testbed::spawn(
        Arc::new(EchoDriver::new(NETWORK)),
        profile.throughput_workers,
        profile.dispatchers,
        Duration::from_secs(1),
    );
    let endpoint = testbed.server.endpoint();
    let pooled: Arc<dyn RelayTransport> = Arc::new(
        PooledTcpTransport::new().with_connections_per_endpoint(profile.client_threads.min(8)),
    );
    let batched: Arc<dyn RelayTransport> = Arc::new(BatchingTransport::new(
        Arc::clone(&pooled),
        BatchConfig {
            max_batch: profile.batch_max,
            linger: profile.batch_linger,
        },
    ));

    eprintln!(
        "calibrating capacity ({} threads, closed loop)...",
        profile.calibrate_threads
    );
    let capacity = calibrate(
        &pooled,
        &endpoint,
        profile.calibrate_threads,
        profile.calibrate_secs,
    )
    .max(100.0);
    eprintln!("capacity estimate: {capacity:.0} req/s");

    let fractions: &[f64] = if smoke {
        &[0.4, 0.8]
    } else {
        &[0.3, 0.6, 0.9, 1.2]
    };
    let sampler = (profile_hz > 0).then(|| {
        eprintln!("profiling the sweep at {profile_hz} Hz");
        tdt_obs::profile::start(profile_hz)
    });
    let mut run_rows = Vec::new();
    for &fraction in fractions {
        let offered = (capacity * fraction).round();
        for (mode, transport) in [("unbatched", &pooled), ("batched", &batched)] {
            eprintln!(
                "open loop: {mode} at {offered:.0} req/s for {:.1}s",
                profile.window_secs
            );
            let (samples, elapsed) = open_loop_run(
                transport,
                &endpoint,
                profile.client_threads,
                offered,
                profile.window_secs,
            );
            let stats = summarize(&samples, elapsed);
            eprintln!(
                "  -> goodput {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms, \
                 {} sheds, {} errors",
                stats.goodput_rps,
                stats.p50_ms,
                stats.p99_ms,
                stats.p999_ms,
                stats.sheds,
                stats.errors
            );
            run_rows.push(format!(
                "    {{\"mode\": \"{mode}\", \"offered_fraction_of_capacity\": {fraction:.2}, \
                 \"offered_rps\": {offered:.0}, \"window_s\": {:.2}, {}}}",
                profile.window_secs,
                stats_json(&stats)
            ));
        }
    }
    if let Some(sampler) = sampler {
        let report = sampler.stop();
        let folded_path = format!("{out_path}.folded");
        match std::fs::write(&folded_path, report.folded_text()) {
            Ok(()) => eprintln!(
                "wrote {folded_path} ({} samples, {} idle)",
                report.samples, report.idle
            ),
            Err(e) => eprintln!("warning: could not write {folded_path}: {e}"),
        }
    }
    testbed.shutdown();

    // ---- Phase 3: 2x overload against a slow, admission-guarded server ----
    let overload_capacity =
        profile.overload_workers as f64 / profile.overload_service.as_secs_f64();
    let overload_offered = overload_capacity * 2.0;
    eprintln!(
        "overload: {} workers x {:?} service (~{overload_capacity:.0} req/s capacity), \
         offering {overload_offered:.0} req/s",
        profile.overload_workers, profile.overload_service
    );
    let testbed = Testbed::spawn(
        Arc::new(SlowDriver {
            service: profile.overload_service,
        }),
        profile.overload_workers,
        profile.dispatchers,
        profile.overload_deadline,
    );
    let endpoint = testbed.server.endpoint();
    let pooled: Arc<dyn RelayTransport> = Arc::new(
        PooledTcpTransport::new().with_connections_per_endpoint(profile.client_threads.min(8)),
    );
    let (samples, elapsed) = open_loop_run(
        &pooled,
        &endpoint,
        profile.client_threads,
        overload_offered,
        profile.overload_window_secs,
    );
    let overload_stats = summarize(&samples, elapsed);
    let gate = testbed.relay.stats().snapshot();
    let (admission_shed, admission_admitted) = (gate.admission_shed, gate.admission_admitted);
    eprintln!(
        "  -> goodput {:.0} req/s, completion p99 {:.2} ms (deadline {:?}), \
         {} sheds ({} at the gate), {} errors",
        overload_stats.goodput_rps,
        overload_stats.p99_ms,
        profile.overload_deadline,
        overload_stats.sheds,
        admission_shed,
        overload_stats.errors
    );
    testbed.shutdown();

    let json = format!(
        "{{\n  \"schema\": \"loadplane/v1\",\n  \"generated_by\": \"cargo run -p tdt-bench --release --bin loadplane{}\",\n  \
         \"smoke\": {smoke},\n  \
         \"config\": {{\"client_threads\": {}, \"window_s\": {:.2}, \"batch_max\": {}, \
         \"batch_linger_us\": {}, \"throughput_workers\": {}, \"dispatchers\": {}}},\n  \
         \"capacity_rps\": {capacity:.1},\n  \"runs\": [\n{}\n  ],\n  \
         \"overload\": {{\"workers\": {}, \"service_time_ms\": {:.2}, \"deadline_ms\": {:.1}, \
         \"capacity_rps\": {overload_capacity:.0}, \"offered_rps\": {overload_offered:.0}, \
         \"window_s\": {:.2}, \"admission_admitted\": {admission_admitted}, \
         \"admission_shed\": {admission_shed}, {}}}\n}}\n",
        if smoke { " -- --smoke" } else { "" },
        profile.client_threads,
        profile.window_secs,
        profile.batch_max,
        profile.batch_linger.as_micros(),
        profile.throughput_workers,
        profile.dispatchers,
        run_rows.join(",\n"),
        profile.overload_workers,
        profile.overload_service.as_secs_f64() * 1e3,
        profile.overload_deadline.as_secs_f64() * 1e3,
        profile.overload_window_secs,
        stats_json(&overload_stats)
    );
    std::fs::write(&out_path, &json).expect("write bench output"); // lint:allow(panic: "bench harness: losing the result file must abort the run")
    eprintln!("wrote {out_path}");
}
