//! Deterministic admission-control tests (ISSUE 6).
//!
//! The chaos soak exercises the admission gate under randomized timing;
//! these tests pin down its *exact* contract with no randomness at all:
//! a worker pool whose single worker is parked on a gated driver gives
//! complete control over queue depth, so every admit/shed decision is
//! forced, not probabilistic.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tdt::obs::ObsHandle;
use tdt::relay::admission::AdmissionConfig;
use tdt::relay::discovery::{DiscoveryService, StaticRegistry};
use tdt::relay::driver::NetworkDriver;
use tdt::relay::service::RelayService;
use tdt::relay::stats::RelayStatsSnapshot;
use tdt::relay::telemetry::register_relay;
use tdt::relay::transport::{EnvelopeHandler, InProcessBus, RelayTransport};
use tdt::relay::RelayError;
use tdt::wire::messages::{NetworkAddress, Query, QueryResponse};

/// A driver whose queries block until the test opens the gate, so the
/// worker pool's queue depth is under test control.
struct GatedDriver {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl GatedDriver {
    fn new() -> (Arc<(Mutex<bool>, Condvar)>, GatedDriver) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let driver = GatedDriver {
            gate: Arc::clone(&gate),
        };
        (gate, driver)
    }
}

impl NetworkDriver for GatedDriver {
    fn network_id(&self) -> &str {
        "stl"
    }

    fn execute_query(&self, query: &Query) -> Result<QueryResponse, RelayError> {
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
        Ok(QueryResponse {
            request_id: query.request_id.clone(),
            result: query.address.args.first().cloned().unwrap_or_default(),
            ..Default::default()
        })
    }
}

fn flood_query(i: usize) -> (Query, Vec<u8>) {
    let payload = format!("flood-{i:03}").into_bytes();
    let q = Query {
        request_id: format!("f{i}"),
        address: NetworkAddress::new("stl", "l", "c", "f").with_arg(payload.clone()),
        ..Default::default()
    };
    (q, payload)
}

#[test]
fn flood_past_capacity_sheds_at_the_gate_without_queuing() {
    const FLOOD: usize = 24;
    const BURST_FLOOR: u64 = 2;

    let registry = Arc::new(StaticRegistry::new());
    let bus = Arc::new(InProcessBus::new());
    registry.register("stl", "inproc:stl-relay");
    let (gate, driver) = GatedDriver::new();
    let stl = Arc::new(
        RelayService::new(
            "stl-relay",
            "stl",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        )
        // A deadline far beyond the test's runtime: nothing admitted may
        // time out, so every flood outcome is either "served" or "shed".
        .with_request_deadline(Duration::from_secs(60))
        // An absurd initial service-time estimate forces a shed for any
        // depth at or above the burst floor — no EWMA warm-up needed.
        .with_admission_control(AdmissionConfig {
            burst_floor: BURST_FLOOR,
            alpha: 0.2,
            initial_service_time: Duration::from_secs(3600),
            headroom: 1.0,
        }),
    );
    stl.register_driver(Arc::new(driver));
    stl.start_workers(1);
    bus.register("stl-relay", Arc::clone(&stl) as Arc<dyn EnvelopeHandler>);
    let swt = Arc::new(RelayService::new(
        "swt-relay",
        "swt",
        Arc::clone(&registry) as Arc<dyn DiscoveryService>,
        Arc::clone(&bus) as Arc<dyn RelayTransport>,
    ));

    let outcomes = std::thread::scope(|scope| {
        // One query occupies the single worker inside the gated driver.
        let pilot = {
            let swt = Arc::clone(&swt);
            scope.spawn(move || {
                let (q, expected) = flood_query(0);
                (swt.relay_query(&q), expected)
            })
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while stl.stats().snapshot().in_flight == 0 {
            assert!(
                Instant::now() < deadline,
                "pilot query never reached the driver"
            );
            std::thread::yield_now();
        }

        // Flood well past the burst floor while the worker is parked.
        let handles: Vec<_> = (1..=FLOOD)
            .map(|i| {
                let swt = Arc::clone(&swt);
                scope.spawn(move || {
                    let (q, expected) = flood_query(i);
                    let started = Instant::now();
                    let outcome = swt.relay_query(&q);
                    (outcome, expected, started.elapsed())
                })
            })
            .collect();

        // Every flood request must become either a queued admit or a
        // gate shed *before* the driver is released — sheds by
        // definition never waited on the queue.
        while {
            let snap = stl.stats().snapshot();
            (snap.admission_shed + snap.queue_depth) < FLOOD as u64
        } {
            assert!(
                Instant::now() < deadline,
                "flood never settled: {:?}",
                stl.stats().snapshot()
            );
            std::thread::yield_now();
        }
        let sheds_before_release = stl.stats().snapshot().admission_shed;

        // Open the gate; the worker drains the queued admits.
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();

        let mut outcomes = vec![];
        let (pilot_outcome, pilot_expected) = pilot.join().expect("pilot thread");
        assert_eq!(
            pilot_outcome.expect("pilot query must be served").result,
            pilot_expected
        );
        for handle in handles {
            outcomes.push(handle.join().expect("flood thread"));
        }
        assert_eq!(
            stl.stats().snapshot().admission_shed,
            sheds_before_release,
            "no request may be shed after the queue drained"
        );
        outcomes
    });
    stl.stop_workers();

    let mut served = 0u64;
    let mut shed = 0u64;
    for (outcome, expected, elapsed) in &outcomes {
        match outcome {
            Ok(r) => {
                assert_eq!(&r.result, expected, "served reply must be intact");
                served += 1;
            }
            Err(RelayError::Overloaded(m)) => {
                assert!(
                    *elapsed < Duration::from_secs(2),
                    "a shed must be a fast reject, took {elapsed:?}"
                );
                assert!(
                    m.contains("deadline budget"),
                    "shed reason is diagnostic: {m}"
                );
                shed += 1;
            }
            Err(other) => panic!("flood outcome must be served or shed, got {other}"),
        }
    }
    // The worker was parked for the whole flood, so at most the burst
    // floor (plus the admit-vs-enqueue race margin) squeezed in; all the
    // rest were shed, and in-deadline work still completed.
    assert!(served >= 1, "in-deadline requests must still complete");
    assert!(
        served <= BURST_FLOOR + 2,
        "worker was parked: only burst-floor admits may be served, got {served}"
    );
    assert!(
        shed >= FLOOD as u64 - BURST_FLOOR - 2,
        "flood past capacity must shed, got {shed}/{FLOOD}"
    );

    // The client-observed shed count is exactly the gate's own counter,
    // and the metrics registry exports the same number.
    assert_eq!(stl.stats().snapshot().admission_shed, shed);
    assert_eq!(stl.stats().snapshot().admission_admitted, served + 1);
    let handle = ObsHandle::new();
    register_relay(&handle, &stl);
    let text = handle.prometheus_text();
    assert!(
        text.contains(&format!(
            "tdt_relay_admission_shed_total{{relay=\"stl-relay\"}} {shed}"
        )),
        "registry must export the gate's shed count, got:\n{text}"
    );
    assert!(text.contains(&format!(
        "tdt_relay_admission_admitted_total{{relay=\"stl-relay\"}} {}",
        served + 1
    )));
}

#[test]
fn snapshot_merge_saturates_admission_counters() {
    let mut a = RelayStatsSnapshot {
        admission_admitted: u64::MAX - 1,
        admission_shed: u64::MAX,
        ..Default::default()
    };
    let b = RelayStatsSnapshot {
        admission_admitted: 7,
        admission_shed: 7,
        ..Default::default()
    };
    a.merge(&b);
    assert_eq!(a.admission_admitted, u64::MAX);
    assert_eq!(a.admission_shed, u64::MAX);
}

#[test]
fn served_and_shed_partition_the_flood_exactly() {
    // Conservation: admitted + shed must equal every request that ever
    // reached the gate, so operators can trust the two counters to add
    // up during an incident.
    let registry = Arc::new(StaticRegistry::new());
    let bus = Arc::new(InProcessBus::new());
    registry.register("stl", "inproc:stl-relay");
    let stl = Arc::new(
        RelayService::new(
            "stl-relay",
            "stl",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        )
        .with_admission_control(AdmissionConfig::default()),
    );
    stl.register_driver(Arc::new(tdt::relay::driver::EchoDriver::new("stl")));
    stl.start_workers(2);
    bus.register("stl-relay", Arc::clone(&stl) as Arc<dyn EnvelopeHandler>);
    let swt = Arc::new(RelayService::new(
        "swt-relay",
        "swt",
        Arc::clone(&registry) as Arc<dyn DiscoveryService>,
        Arc::clone(&bus) as Arc<dyn RelayTransport>,
    ));
    for i in 0..50 {
        let (q, _) = flood_query(i);
        let _ = swt.relay_query(&q);
    }
    stl.stop_workers();
    let snap = stl.stats().snapshot();
    assert_eq!(snap.admission_admitted + snap.admission_shed, 50);
    assert_eq!(snap.admission_admitted, snap.enqueued);
}
