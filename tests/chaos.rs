//! Chaos soak: the relay group under randomized transport faults.
//!
//! Every test draws its faults from a seeded, replayable schedule
//! (`CHAOS_SEED` env var; pinned default otherwise) and prints the seed,
//! so any failure reproduces exactly with
//! `CHAOS_SEED=<seed> cargo test --test chaos`.
//!
//! Safety properties asserted under chaos:
//! * every request terminates with a reply or a classified error, within
//!   its deadline;
//! * no corrupt reply is accepted as clean — the client-side payload
//!   check here stands in for the end-to-end proof verification the
//!   paper requires of untrusted relays (§3.2, §5);
//! * no reply is delivered twice to a caller (hedge losers are counted
//!   and discarded);
//! * the same seed replays the exact same outcome sequence.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tdt::relay::breaker::{BreakerConfig, BreakerState};
use tdt::relay::chaos::{ChaosConfig, ChaosTransport};
use tdt::relay::discovery::{DiscoveryService, StaticRegistry};
use tdt::relay::driver::EchoDriver;
use tdt::relay::redundancy::{GroupConfig, RelayGroup};
use tdt::relay::service::RelayService;
use tdt::relay::transport::{EnvelopeHandler, InProcessBus, RelayTransport};
use tdt::relay::RelayError;
use tdt::wire::messages::{NetworkAddress, Query, QueryResponse};

/// The replay seed: `CHAOS_SEED` env var, or a pinned default.
fn chaos_seed() -> u64 {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    println!("chaos seed: {seed} (replay with CHAOS_SEED={seed})");
    seed
}

/// A relay group whose members each forward through their own seeded
/// [`ChaosTransport`] to one healthy source relay.
struct ChaosGroup {
    group: RelayGroup,
    chaos: Vec<Arc<ChaosTransport>>,
    _stl: Arc<RelayService>,
}

fn build_group(
    members: usize,
    seed: u64,
    chaos_config: &ChaosConfig,
    group_config: GroupConfig,
) -> ChaosGroup {
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
    let mut chaos = Vec::new();
    let mut relays = Vec::new();
    for i in 0..members {
        let transport = Arc::new(
            ChaosTransport::new(
                Arc::clone(&bus) as Arc<dyn RelayTransport>,
                seed.wrapping_add(i as u64),
                chaos_config.clone(),
            )
            .with_local_name(format!("swt-relay-{i}")),
        );
        chaos.push(Arc::clone(&transport));
        relays.push(Arc::new(RelayService::new(
            format!("swt-relay-{i}"),
            "swt",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            transport as Arc<dyn RelayTransport>,
        )));
    }
    let group = RelayGroup::with_config(relays, group_config).expect("non-empty group");
    ChaosGroup {
        group,
        chaos,
        _stl: stl,
    }
}

fn query(i: usize) -> (Query, Vec<u8>) {
    let payload = format!("payload-{i:05}").into_bytes();
    let q = Query {
        request_id: format!("r{i}"),
        address: NetworkAddress::new("stl", "l", "c", "f").with_arg(payload.clone()),
        ..Default::default()
    };
    (q, payload)
}

/// Classifies one outcome into a replay-stable label. A reply that fails
/// the payload check is *rejected* here, exactly as the end-to-end proof
/// verification would reject it in the full stack — it is never "ok".
fn classify(outcome: &Result<QueryResponse, RelayError>, expected: &[u8]) -> &'static str {
    match outcome {
        Ok(r) if r.result == expected => "ok",
        Ok(_) => "corrupt-rejected",
        Err(RelayError::TransportFailed(_)) => "transport-failed",
        Err(RelayError::StaleConnection(_)) => "stale-connection",
        Err(RelayError::RelayDown(_)) => "relay-down",
        Err(RelayError::RateLimited) => "rate-limited",
        Err(RelayError::CircuitOpen(_)) => "circuit-open",
        Err(RelayError::Overloaded(_)) => "overloaded",
        Err(RelayError::DeadlineExceeded(_)) => "deadline-exceeded",
        Err(RelayError::Remote(_)) => "remote",
        Err(RelayError::Wire(_)) => "wire",
        Err(RelayError::DiscoveryFailed(_)) => "discovery-failed",
        Err(RelayError::NoDriver(_)) => "no-driver",
        Err(RelayError::DriverFailed(_)) => "driver-failed",
        Err(RelayError::InvalidConfig(_)) => "invalid-config",
    }
}

fn noisy_config() -> ChaosConfig {
    ChaosConfig {
        drop_prob: 0.15,
        delay_prob: 0.1,
        delay: Duration::from_millis(1),
        delay_jitter: Duration::from_millis(1),
        corrupt_prob: 0.1,
        duplicate_prob: 0.1,
        reorder_prob: 0.05,
        reorder_delay: Duration::from_millis(1),
        partition_prob: 0.02,
        partition_ops: 6,
        partition_timeout: Duration::from_millis(2),
    }
}

/// Breaker thresholds whose transitions do not depend on wall-clock time
/// (zero cooldown), keeping sequential soak runs bit-for-bit replayable.
fn deterministic_group_config() -> GroupConfig {
    GroupConfig {
        hedge_after: None,
        deadline: None,
        breaker: BreakerConfig {
            consecutive_failures: 3,
            cooldown: Duration::ZERO,
            ..BreakerConfig::default()
        },
    }
}

/// Runs `queries` sequential queries and returns the outcome labels plus
/// the total number of injected faults.
fn run_soak(seed: u64, queries: usize) -> (Vec<&'static str>, u64) {
    let g = build_group(3, seed, &noisy_config(), deterministic_group_config());
    let mut outcomes = Vec::with_capacity(queries);
    for i in 0..queries {
        let (q, expected) = query(i);
        let started = Instant::now();
        let outcome = g.group.relay_query(&q);
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "query {i} took {elapsed:?} — request failed to terminate promptly (seed {seed})"
        );
        outcomes.push(classify(&outcome, &expected));
    }
    let faults = g.chaos.iter().map(|c| c.stats().total()).sum();
    (outcomes, faults)
}

#[test]
fn soak_same_seed_replays_identically_and_group_stays_safe() {
    let seed = chaos_seed();
    let (first, faults_first) = run_soak(seed, 300);
    let (second, faults_second) = run_soak(seed, 300);
    assert_eq!(
        first, second,
        "same seed {seed} must replay the exact same outcome sequence"
    );
    assert_eq!(
        faults_first, faults_second,
        "same seed {seed} must inject the exact same faults"
    );
    assert!(faults_first > 0, "chaos must actually fire (seed {seed})");
    let ok = first.iter().filter(|o| **o == "ok").count();
    println!(
        "soak: {ok}/300 ok, {faults_first} faults injected, outcome mix: {:?}",
        {
            let mut mix = std::collections::BTreeMap::new();
            for o in &first {
                *mix.entry(*o).or_insert(0u32) += 1;
            }
            mix
        }
    );
    assert!(
        ok > 150,
        "redundant group must keep serving under chaos: only {ok}/300 ok (seed {seed})"
    );
    // No reply was ever delivered twice and nothing corrupt slipped
    // through as clean: every outcome is "ok with the exact expected
    // payload" or a rejection label (enforced per-query by classify).
    assert!(first.iter().all(|o| !o.is_empty()));
}

#[test]
fn soak_with_hedging_keeps_safety_properties() {
    let seed = chaos_seed();
    let mut config = noisy_config();
    // Slow members rather than extra corruption: delays far above the
    // hedge threshold make hedges fire deterministically, and a modest
    // corruption rate keeps the liveness floor meaningful even when the
    // scheduler is noisy (this binary's tests run concurrently).
    config.delay_prob = 0.3;
    config.delay = Duration::from_millis(25);
    config.corrupt_prob = 0.05;
    let group_config = GroupConfig {
        hedge_after: Some(Duration::from_millis(5)),
        deadline: Some(Duration::from_secs(2)),
        breaker: BreakerConfig {
            consecutive_failures: 3,
            cooldown: Duration::from_millis(20),
            ..BreakerConfig::default()
        },
    };
    let g = build_group(3, seed, &config, group_config);
    let mut ok = 0usize;
    let mut mix = std::collections::BTreeMap::new();
    for i in 0..200 {
        let (q, expected) = query(i);
        let started = Instant::now();
        let outcome = g.group.relay_query(&q);
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(3),
            "query {i} exceeded its deadline budget by seconds: {elapsed:?} (seed {seed})"
        );
        let label = classify(&outcome, &expected);
        *mix.entry(label).or_insert(0u32) += 1;
        if label == "ok" {
            ok += 1;
        }
    }
    println!("hedged soak outcome mix: {mix:?}");
    assert!(
        ok > 120,
        "hedged group must keep serving under chaos: only {ok}/200 ok (seed {seed})"
    );
    assert!(
        g.group.hedges() > 0,
        "25 ms delays at p=0.3 over 200 queries must trigger hedging (seed {seed})"
    );
    // Let hedge losers finish, then confirm their replies were discarded,
    // not delivered: the caller saw exactly one reply per query.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        g.group.discarded_replies() > 0,
        "some hedge loser must have completed and been discarded (seed {seed})"
    );
}

#[test]
fn breaker_transitions_and_partition_heal_recovery() {
    // Deterministic scenario: quiet schedule, manual partition.
    let config = GroupConfig {
        hedge_after: None,
        deadline: None,
        breaker: BreakerConfig {
            consecutive_failures: 2,
            cooldown: Duration::from_millis(30),
            ..BreakerConfig::default()
        },
    };
    let g = build_group(2, 7, &ChaosConfig::default(), config);
    let breaker = g.group.breaker();
    assert_eq!(breaker.state("swt-relay-0"), BreakerState::Closed);

    // Black-hole member 0's path to the source relay.
    g.chaos[0].partition("inproc:stl-relay");
    let (q, _) = query(0);
    assert!(g.group.relay_query(&q).is_ok(), "member 1 must cover");
    assert_eq!(
        breaker.state("swt-relay-0"),
        BreakerState::Closed,
        "one failure is below the trip threshold"
    );
    // Force selection back onto member 0 by downing member 1: both fail,
    // and member 0 crosses the consecutive-failure threshold.
    g.group.relay(1).expect("member").set_down(true);
    assert!(g.group.relay_query(&q).is_err(), "all members unavailable");
    assert_eq!(breaker.state("swt-relay-0"), BreakerState::Open);
    assert_eq!(breaker.trips(), 1);
    g.group.relay(1).expect("member").set_down(false);
    assert!(g.group.relay_query(&q).is_ok(), "member 1 back");

    // Heal the partition and wait out the cooldown: the next attempt at
    // member 0 is admitted as a half-open probe and closes the circuit.
    g.chaos[0].heal("inproc:stl-relay");
    std::thread::sleep(Duration::from_millis(40));
    g.group.relay(1).expect("member").set_down(true);
    let response = g
        .group
        .relay_query(&q)
        .expect("probe must recover member 0");
    assert!(!response.result.is_empty());
    assert_eq!(breaker.state("swt-relay-0"), BreakerState::Closed);
    assert!(breaker.probes() >= 1, "recovery must go through a probe");
    g.group.relay(1).expect("member").set_down(false);
}

#[test]
fn manual_partition_black_holes_group_of_one_until_healed() {
    let g = build_group(1, 11, &ChaosConfig::default(), GroupConfig::default());
    let (q, expected) = query(0);
    assert_eq!(g.group.relay_query(&q).unwrap().result, expected);
    g.chaos[0].partition("inproc:stl-relay");
    assert!(matches!(
        g.group.relay_query(&q),
        Err(RelayError::TransportFailed(_))
    ));
    g.chaos[0].heal("inproc:stl-relay");
    assert_eq!(g.group.relay_query(&q).unwrap().result, expected);
}

#[test]
fn hedge_wins_against_slow_primary_and_loser_is_discarded() {
    let config = GroupConfig {
        hedge_after: Some(Duration::from_millis(3)),
        deadline: None,
        breaker: BreakerConfig::default(),
    };
    let g = build_group(2, 13, &ChaosConfig::default(), config);
    // Member 0 answers, but only after 100 ms.
    g.chaos[0].faults().set_latency(Duration::from_millis(100));
    let (q, expected) = query(0);
    let started = Instant::now();
    let response = g.group.relay_query(&q).expect("hedge must win");
    let elapsed = started.elapsed();
    assert_eq!(response.result, expected);
    assert!(
        elapsed < Duration::from_millis(60),
        "hedged reply should beat the 100 ms primary, took {elapsed:?}"
    );
    assert_eq!(g.group.hedges(), 1);
    // The slow primary eventually completes; its reply must be discarded,
    // never delivered as a second answer.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(g.group.discarded_replies(), 1);
}

#[test]
fn breaker_isolates_black_holed_member_p99_within_2x_baseline() {
    fn p99(latencies: &mut [Duration]) -> Duration {
        latencies.sort_unstable();
        latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)]
    }
    let chaos_config = ChaosConfig {
        partition_timeout: Duration::from_millis(25),
        ..ChaosConfig::default()
    };
    let config = GroupConfig {
        hedge_after: None,
        deadline: None,
        breaker: BreakerConfig {
            consecutive_failures: 1,
            cooldown: Duration::from_secs(60),
            ..BreakerConfig::default()
        },
    };
    let g = build_group(3, 17, &chaos_config, config);

    // All-healthy baseline.
    let mut baseline = Vec::with_capacity(100);
    for i in 0..100 {
        let (q, _) = query(i);
        let started = Instant::now();
        g.group.relay_query(&q).expect("healthy baseline");
        baseline.push(started.elapsed());
    }
    let p99_baseline = p99(&mut baseline);

    // Black-hole member 0: every send to it burns the 25 ms partition
    // timeout until the breaker opens.
    g.chaos[0].partition("inproc:stl-relay");
    for i in 100..110 {
        let (q, _) = query(i);
        g.group.relay_query(&q).expect("redundancy must mask");
    }
    assert_eq!(
        g.group.breaker().state("swt-relay-0"),
        BreakerState::Open,
        "breaker must have isolated the black-holed member"
    );
    assert!(g.group.breaker().trips() >= 1);

    // With the circuit open the partitioned member is skipped without
    // paying its timeout, so tail latency returns to the baseline.
    let mut degraded = Vec::with_capacity(100);
    for i in 110..210 {
        let (q, _) = query(i);
        let started = Instant::now();
        g.group.relay_query(&q).expect("two healthy members remain");
        degraded.push(started.elapsed());
    }
    let p99_degraded = p99(&mut degraded);
    // Generous floor so scheduler jitter on sub-millisecond baselines
    // cannot flake the comparison; the partitioned path would cost 25 ms.
    let bound = (p99_baseline * 2).max(Duration::from_millis(20));
    println!("p99 baseline {p99_baseline:?}, p99 with open breaker {p99_degraded:?}");
    assert!(
        p99_degraded <= bound,
        "breaker failed to isolate the black-holed member: p99 {p99_degraded:?} vs baseline {p99_baseline:?}"
    );
}

/// A driver with a fixed service time, so the overload soak's capacity
/// is known (`workers / service_time`) instead of machine-dependent.
struct FixedCostDriver {
    service: Duration,
}

impl tdt::relay::driver::NetworkDriver for FixedCostDriver {
    fn network_id(&self) -> &str {
        "stl"
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

/// One seeded overload soak: flooding threads against an
/// admission-guarded single-worker relay, with chaos delay faults on
/// the transport. Returns (label → count, ok latencies, gate sheds).
fn run_overload_soak(
    seed: u64,
    threads: usize,
    queries_per_thread: usize,
) -> (
    std::collections::BTreeMap<&'static str, u32>,
    Vec<Duration>,
    u64,
) {
    use tdt::relay::admission::AdmissionConfig;

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
        .with_request_deadline(Duration::from_millis(25))
        .with_admission_control(AdmissionConfig {
            burst_floor: 4,
            alpha: 0.2,
            initial_service_time: Duration::from_millis(2),
            headroom: 0.8,
        }),
    );
    stl.register_driver(Arc::new(FixedCostDriver {
        service: Duration::from_millis(2),
    }));
    stl.start_workers(1);
    bus.register("stl-relay", Arc::clone(&stl) as Arc<dyn EnvelopeHandler>);
    let chaos = Arc::new(
        ChaosTransport::new(
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
            seed,
            ChaosConfig {
                drop_prob: 0.0,
                delay_prob: 0.3,
                delay: Duration::from_millis(1),
                delay_jitter: Duration::from_millis(1),
                corrupt_prob: 0.0,
                duplicate_prob: 0.0,
                reorder_prob: 0.0,
                reorder_delay: Duration::ZERO,
                partition_prob: 0.0,
                partition_ops: 0,
                partition_timeout: Duration::ZERO,
            },
        )
        .with_local_name("swt-flood"),
    );
    let swt = Arc::new(RelayService::new(
        "swt-flood",
        "swt",
        Arc::clone(&registry) as Arc<dyn DiscoveryService>,
        Arc::clone(&chaos) as Arc<dyn RelayTransport>,
    ));

    let mut results: Vec<(&'static str, Duration)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let swt = Arc::clone(&swt);
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(queries_per_thread);
                    for i in 0..queries_per_thread {
                        let (q, expected) = query(t * queries_per_thread + i);
                        let started = Instant::now();
                        let outcome = swt.relay_query(&q);
                        local.push((classify(&outcome, &expected), started.elapsed()));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            results.extend(handle.join().expect("flood thread panicked"));
        }
    });
    let sheds = stl.stats().snapshot().admission_shed;
    stl.stop_workers();

    let mut mix = std::collections::BTreeMap::new();
    let mut ok_latencies = Vec::new();
    for (label, latency) in results {
        *mix.entry(label).or_insert(0u32) += 1;
        if label == "ok" {
            ok_latencies.push(latency);
        }
    }
    ok_latencies.sort_unstable();
    (mix, ok_latencies, sheds)
}

#[test]
fn overload_soak_sheds_at_the_gate_with_bounded_p99_and_replayable_faults() {
    let seed = chaos_seed();
    let threads = 32;
    let per_thread = 25;
    let (mix, ok_latencies, sheds) = run_overload_soak(seed, threads, per_thread);
    println!("overload soak: outcome mix {mix:?}, {sheds} gate sheds");

    let total: u32 = mix.values().sum();
    assert_eq!(total as usize, threads * per_thread);
    let ok = mix.get("ok").copied().unwrap_or(0);
    let overloaded = mix.get("overloaded").copied().unwrap_or(0);
    assert!(
        ok > 0,
        "overloaded relay must keep serving in-deadline work"
    );
    assert!(
        overloaded > 0,
        "flooding a single 2 ms worker from {threads} threads must trip the admission gate (seed {seed})"
    );
    // Every client-visible `overloaded` outcome is one gate shed; the
    // single-attempt query path has no retry or hedge to double-count.
    assert_eq!(
        overloaded as u64, sheds,
        "client-observed sheds must match the gate's own count"
    );
    // Bounded tail instead of queue collapse: with admission off, the
    // backlog would make late queries wait for the whole flood
    // (~threads × per_thread × 2 ms ≈ 1.6 s). With the gate, completed
    // queries waited at most roughly the deadline plus scheduling noise.
    let p99 = ok_latencies[(ok_latencies.len() * 99 / 100).min(ok_latencies.len() - 1)];
    println!("overload soak: {ok} ok, p99 {p99:?}");
    assert!(
        p99 < Duration::from_millis(250),
        "p99 {p99:?} looks like queue collapse, not admission control (seed {seed})"
    );

    // The injected fault schedule replays byte-identically from the
    // printed seed: the same seed yields the same decision for every
    // operation index.
    let config = ChaosConfig {
        delay_prob: 0.3,
        ..ChaosConfig::default()
    };
    let first = tdt::relay::chaos::FaultSchedule::new(seed, config.clone());
    let second = tdt::relay::chaos::FaultSchedule::new(seed, config);
    for op in 0..2_000u64 {
        assert_eq!(
            first.decision(op),
            second.decision(op),
            "fault schedule diverged at op {op} (seed {seed})"
        );
    }
}

/// Durable-ledger kill+recover soak: a committing peer over a seeded
/// fault-injecting disk. The client keeps a shadow model of what each
/// acknowledged commit implies; after every injected crash the peer is
/// reopened through recovery and checked against it.
///
/// Safety properties asserted under disk chaos:
/// * **no acked loss** — once `validate_and_commit` returns `Ok`, the
///   block survives every later crash (clean-disk soak);
/// * **verified prefix** — whatever height recovery lands on, the
///   recovered state hash is exactly the client's shadow hash for that
///   height: never garbage, never a half-applied block (bit-rot soak,
///   where tail truncation may legitimately lose acked blocks);
/// * the same seed replays the exact same commit/crash/recover trace.
mod durable_ledger {
    use super::chaos_seed;
    use std::collections::HashMap;
    use std::sync::Arc;
    use tdt::crypto::cert::CertRole;
    use tdt::crypto::group::Group;
    use tdt::fabric::chaincode::{Chaincode, ChaincodeRegistry, Proposal, TxContext};
    use tdt::fabric::endorse::TransactionEnvelope;
    use tdt::fabric::error::ChaincodeError;
    use tdt::fabric::msp::{Identity, Msp, MspRegistry};
    use tdt::fabric::peer::Peer;
    use tdt::fabric::policy::EndorsementPolicy;
    use tdt::fabric::FabricError;
    use tdt::ledger::block::Block;
    use tdt::ledger::rwset::Version;
    use tdt::ledger::state::WorldState;
    use tdt::ledger::storage::fault::{FaultConfig, FaultVfs};
    use tdt::ledger::storage::file::{FileBackend, FileConfig};
    use tdt::ledger::storage::vfs::{MemVfs, StdVfs, Vfs};
    use tdt::ledger::LedgerError;
    use tdt::wire::codec::Message;

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
                f => Err(ChaincodeError::UnknownFunction(f.into())),
            }
        }
    }

    struct Parts {
        peer_id: Identity,
        client: Identity,
        registry: Arc<ChaincodeRegistry>,
        msp_registry: Arc<MspRegistry>,
        policies: Arc<std::collections::HashMap<String, EndorsementPolicy>>,
    }

    fn parts() -> Parts {
        let mut msp = Msp::new("net", "org1", Group::test_group(), b"s");
        let peer_id = msp.enroll("peer0", CertRole::Peer, false);
        let client = msp.enroll("alice", CertRole::Client, false);
        let mut registry = ChaincodeRegistry::new();
        registry.deploy("kv", Arc::new(KvStore));
        let mut msp_registry = MspRegistry::new();
        msp_registry.register("org1", msp.root_certificate().clone());
        let mut policies = std::collections::HashMap::new();
        policies.insert("kv".to_string(), EndorsementPolicy::any_of(["org1"]));
        Parts {
            peer_id,
            client,
            registry: Arc::new(registry),
            msp_registry: Arc::new(msp_registry),
            policies: Arc::new(policies),
        }
    }

    fn is_storage_err(e: &FabricError) -> bool {
        matches!(e, FabricError::Ledger(LedgerError::Storage(_)))
    }

    /// Reopens the peer through recovery, rebooting the disk out of any
    /// crashed state first (and again if recovery itself hits a crash
    /// point — recovery must be re-runnable from any crash).
    fn reopen(
        p: &Parts,
        disk: &Arc<FaultVfs>,
        config: &FileConfig,
        trace: &mut Vec<String>,
    ) -> Peer {
        loop {
            if disk.is_crashed() {
                disk.reboot();
            }
            let backend = Box::new(FileBackend::new(
                Arc::clone(disk) as Arc<dyn Vfs>,
                config.clone(),
            ));
            match Peer::with_backend(
                "net",
                "org1",
                "peer0",
                p.peer_id.clone(),
                Arc::clone(&p.registry),
                Arc::clone(&p.msp_registry),
                Arc::clone(&p.policies),
                backend,
            ) {
                Ok(peer) => {
                    let r = peer.recovery_report().expect("opened via with_backend");
                    trace.push(format!(
                        "recovered h={} replayed={} truncated={} fallbacks={}",
                        r.chain_height, r.replayed_blocks, r.truncated_bytes, r.snapshot_fallbacks
                    ));
                    return peer;
                }
                Err(e) if is_storage_err(&e) => {
                    trace.push("recovery-crashed".into());
                }
                Err(e) => panic!("non-storage error during recovery: {e}"),
            }
        }
    }

    /// The next block on `peer`'s tip: one endorsed `put k{i % 8} = v{i}`.
    fn put_block(p: &Parts, peer: &Peer, i: usize) -> (Block, TransactionEnvelope) {
        let proposal = Proposal::new(
            format!("tx{i}"),
            "ch",
            "kv",
            "put",
            vec![
                format!("k{}", i % 8).into_bytes(),
                format!("v{i}").into_bytes(),
            ],
            p.client.certificate().clone(),
        )
        .sign(p.client.signing_key());
        let sim = peer.simulate(&proposal).expect("simulation is disk-free");
        let endorsement = peer
            .endorse_transaction(&proposal, &sim)
            .expect("endorsement is disk-free");
        let envelope = TransactionEnvelope {
            txid: proposal.txid.clone(),
            channel: "ch".into(),
            chaincode: "kv".into(),
            result: sim.result.clone(),
            rwset: sim.rwset.clone(),
            endorsements: vec![endorsement],
            creator_cert: proposal.creator.clone(),
        };
        let tip = peer.store().tip().expect("non-empty chain").clone();
        let block = Block::next(&tip, vec![envelope.encode_to_vec()]);
        (block, envelope)
    }

    struct SoakOutcome {
        trace: Vec<String>,
        crashes: u64,
        injected: u64,
        final_height: u64,
        acked: u64,
        recoveries: u64,
        duplicates: u64,
    }

    /// One seeded soak: `attempts` put-transactions committed one block
    /// each against a peer whose disk injects `fault_config` faults.
    /// `require_no_loss` asserts acked commits survive every crash (only
    /// sound when the config injects no bit rot).
    fn run_recovery_soak(
        seed: u64,
        attempts: usize,
        fault_config: FaultConfig,
        require_no_loss: bool,
    ) -> SoakOutcome {
        let p = parts();
        let disk = Arc::new(FaultVfs::new(Arc::new(MemVfs::new()), seed, fault_config));
        let file_config = FileConfig {
            snapshot_interval: 16,
            ..FileConfig::default()
        };
        let mut trace: Vec<String> = Vec::new();
        // Shadow model: for every chain height the client has ever sent a
        // block for, the exact world state that prefix implies.
        let mut shadow = WorldState::new();
        let mut candidates: HashMap<u64, WorldState> = HashMap::new();
        candidates.insert(0, WorldState::new());
        candidates.insert(1, WorldState::new()); // genesis writes nothing
        let mut acked: u64 = 0;
        let mut recoveries: u64 = 0;

        let mut peer = reopen(&p, &disk, &file_config, &mut trace);
        let mut i = 0usize;
        while i < attempts {
            // (Re-)establish genesis if the chain is empty — possible at
            // first open and again if bit rot ate the whole WAL.
            if peer.height() == 0 {
                match peer.validate_and_commit(Block::genesis(vec![b"config".to_vec()])) {
                    Ok(_) => {
                        shadow = WorldState::new();
                        acked = acked.max(1);
                        trace.push("genesis-ok".into());
                    }
                    Err(e) if is_storage_err(&e) => {
                        trace.push("crash@genesis".into());
                        peer = reopen(&p, &disk, &file_config, &mut trace);
                        recoveries += 1;
                    }
                    Err(e) => panic!("genesis commit failed: {e}"),
                }
                continue;
            }
            let (block, envelope) = put_block(&p, &peer, i);
            let number = block.header.number;
            // What the world state must be if this block commits.
            let mut candidate = shadow.clone();
            candidate.apply(&envelope.rwset, Version::new(number, 0));
            candidates.insert(number + 1, candidate.clone());
            match peer.validate_and_commit(block) {
                Ok(codes) => {
                    assert!(
                        codes.iter().all(|c| c.is_valid()),
                        "blind puts can never be invalidated: {codes:?} (seed {seed})"
                    );
                    shadow = candidate;
                    acked = acked.max(number + 1);
                    assert_eq!(
                        peer.state_hash(),
                        shadow.state_hash(),
                        "live state diverged from shadow after block {number} (seed {seed})"
                    );
                    trace.push(format!("ok@{number}"));
                    i += 1;
                }
                Err(e) if is_storage_err(&e) => {
                    trace.push(format!("crash@{number}"));
                    peer = reopen(&p, &disk, &file_config, &mut trace);
                    recoveries += 1;
                    let h = peer.height();
                    assert!(
                        h <= number + 1,
                        "recovered past what was ever sent: {h} > {} (seed {seed})",
                        number + 1
                    );
                    if require_no_loss {
                        assert!(
                            h >= acked,
                            "acked block lost: recovered to {h} after acking {acked} (seed {seed})"
                        );
                    }
                    // Verified prefix: the recovered state is exactly the
                    // shadow state for that height — never a half-applied
                    // or corrupt prefix.
                    let expected = candidates
                        .get(&h)
                        .unwrap_or_else(|| panic!("recovered to unknown height {h} (seed {seed})"));
                    assert_eq!(
                        peer.state_hash(),
                        expected.state_hash(),
                        "recovered state at height {h} is not the committed prefix (seed {seed})"
                    );
                    shadow = expected.clone();
                    // The client moves on: an unacked block may or may not
                    // have survived; re-sending tx{i} in a fresh block is
                    // legal and exercises duplicate-txid handling.
                }
                Err(e) => panic!("commit of block {number} failed: {e}"),
            }
        }
        SoakOutcome {
            trace,
            crashes: disk.crashes(),
            injected: disk.injected(),
            final_height: peer.height(),
            acked,
            recoveries,
            duplicates: peer.storage_stats().duplicate_txids(),
        }
    }

    #[test]
    fn kill_recover_soak_never_loses_acked_commits() {
        let seed = chaos_seed();
        let outcome = run_recovery_soak(seed, 120, FaultConfig::crashy(), true);
        println!(
            "durable soak: {} attempts acked to height {}, {} crashes, {} faults injected, {} recoveries, {} duplicate txids",
            120, outcome.acked, outcome.crashes, outcome.injected, outcome.recoveries, outcome.duplicates
        );
        assert!(
            outcome.crashes > 0,
            "crash schedule must actually fire (seed {seed})"
        );
        assert!(
            outcome.recoveries > 0,
            "soak must exercise recovery (seed {seed})"
        );
        // 120 acked puts + genesis, plus any durable-but-unacked blocks
        // that survived a crash-after-write (those are retried under a
        // fresh block, so they add height).
        assert!(
            outcome.final_height >= 121,
            "all 120 payloads plus genesis must eventually commit: height {} (seed {seed})",
            outcome.final_height
        );
        assert!(
            outcome.acked <= outcome.final_height,
            "acked height {} above actual chain {} (seed {seed})",
            outcome.acked,
            outcome.final_height
        );
    }

    #[test]
    fn kill_recover_soak_with_bit_rot_always_recovers_a_verified_prefix() {
        let seed = chaos_seed().wrapping_add(1);
        // Bit rot may destroy acked durable bytes; the property that
        // survives is prefix integrity, asserted inside the soak after
        // every recovery.
        let outcome = run_recovery_soak(seed, 120, FaultConfig::rotten(), false);
        println!(
            "rotten soak: final height {}, {} crashes, {} faults injected, {} recoveries",
            outcome.final_height, outcome.crashes, outcome.injected, outcome.recoveries
        );
        assert!(
            outcome.injected > 0,
            "fault schedule must actually fire (seed {seed})"
        );
        assert!(
            outcome.recoveries > 0,
            "soak must exercise recovery (seed {seed})"
        );
        // Bit rot may permanently truncate acked blocks, so no exact
        // height claim — the load-bearing assertions (recovered state ==
        // shadow prefix after every crash) already ran inside the soak.
        assert!(
            outcome.final_height >= 1,
            "chain must end non-empty (seed {seed})"
        );
    }

    #[test]
    fn kill_recover_soak_replays_identically_from_its_seed() {
        let seed = chaos_seed();
        let first = run_recovery_soak(seed, 60, FaultConfig::crashy(), true);
        let second = run_recovery_soak(seed, 60, FaultConfig::crashy(), true);
        assert_eq!(
            first.trace, second.trace,
            "same seed {seed} must replay the exact same commit/crash/recover trace"
        );
        assert_eq!(first.crashes, second.crashes);
        assert_eq!(first.injected, second.injected);
        assert_eq!(first.final_height, second.final_height);
        // And a different seed produces a different schedule (overwhelming
        // probability for any non-degenerate config).
        let third = run_recovery_soak(seed.wrapping_add(0x9e37), 60, FaultConfig::crashy(), true);
        assert_ne!(
            first.trace, third.trace,
            "different seeds should not produce identical traces"
        );
    }

    // -----------------------------------------------------------------
    // The same discipline on a real directory: `StdVfs` over a tmpdir,
    // the damage done to the actual `wal.log` / newest `.snap` between a
    // kill and the reopen (no `FaultVfs` in the path, so what is tested is
    // what a deployment runs).
    // -----------------------------------------------------------------

    /// SplitMix64: the soak's own stream, so the schedule is a function of
    /// the seed alone.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..hi` (`lo` when the range is empty).
        fn between(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % hi.saturating_sub(lo).max(1)
        }
    }

    fn open_on_dir(p: &Parts, dir: &std::path::Path, config: &FileConfig) -> Peer {
        // A fresh `StdVfs` per open: its cached append handles must not
        // outlive damage done to the files behind its back.
        let vfs = Arc::new(StdVfs::open(dir).expect("open soak dir"));
        Peer::with_backend(
            "net",
            "org1",
            "peer0",
            p.peer_id.clone(),
            Arc::clone(&p.registry),
            Arc::clone(&p.msp_registry),
            Arc::clone(&p.policies),
            Box::new(FileBackend::new(vfs as Arc<dyn Vfs>, config.clone())),
        )
        .expect("recovery on a real directory never fails on corruption")
    }

    /// Does the `kind`-th damage to the real WAL or newest snapshot in
    /// `dir`, placed by `rng`; returns what it did, for the trace.
    fn damage_files(dir: &std::path::Path, kind: u64, rng: &mut Rng) -> String {
        let wal = dir.join("wal.log");
        let newest_snapshot = std::fs::read_dir(dir)
            .expect("list soak dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == "snap"))
            .max();
        let len_of = |path: &std::path::Path| std::fs::metadata(path).expect("stat").len();
        let flip = |path: &std::path::Path, at: u64, bit: u64| {
            let mut bytes = std::fs::read(path).expect("read for damage");
            bytes[at as usize] ^= 1 << (bit % 8);
            std::fs::write(path, bytes).expect("write damage");
        };
        let truncate = |path: &std::path::Path, to: u64| {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .expect("open for damage");
            file.set_len(to).expect("truncate");
        };
        let wal_len = len_of(&wal);
        match (kind, newest_snapshot) {
            // Damage lands in the newer half of the WAL more often than not,
            // so the soak keeps a chain to grow instead of restarting from
            // genesis every round.
            (1, _) => {
                let to = rng.between(wal_len / 2, wal_len);
                truncate(&wal, to);
                format!("wal-truncated@{to}")
            }
            (2, _) => {
                let at = rng.between(wal_len / 2, wal_len);
                flip(&wal, at, rng.next());
                format!("wal-flip@{at}")
            }
            (3, _) => {
                let at = rng.between(0, wal_len);
                flip(&wal, at, rng.next());
                format!("wal-flip-anywhere@{at}")
            }
            (4, Some(snap)) if len_of(&snap) > 0 => {
                let at = rng.between(0, len_of(&snap));
                flip(&snap, at, rng.next());
                format!("snap-flip@{at}")
            }
            (5, Some(snap)) => {
                let to = rng.between(0, len_of(&snap));
                truncate(&snap, to);
                format!("snap-truncated@{to}")
            }
            _ => "clean-kill".into(),
        }
    }

    /// One seeded kill+damage+recover soak on a real directory; returns
    /// the trace. After every reopen the recovered state must be exactly
    /// the shadow model's state for the recovered height.
    fn run_std_vfs_soak(seed: u64, rounds: usize, tag: &str) -> Vec<String> {
        let dir =
            std::env::temp_dir().join(format!("tdt-chaos-{}-{seed}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = parts();
        let config = FileConfig {
            snapshot_interval: 4,
            ..FileConfig::default()
        };
        let mut rng = Rng(seed);
        // Every six rounds do each kind of damage once, starting anywhere;
        // where each lands is the seed's.
        let first_kind = rng.next();
        let mut trace = Vec::new();
        let mut candidates: HashMap<u64, WorldState> = HashMap::new();
        candidates.insert(0, WorldState::new());
        candidates.insert(1, WorldState::new()); // genesis writes nothing
        let mut shadow = WorldState::new();
        let mut next_tx = 0usize;
        let mut peer = open_on_dir(&p, &dir, &config);
        for round in 0..rounds {
            let started_at = peer.height();
            if peer.height() == 0 {
                peer.validate_and_commit(Block::genesis(vec![b"config".to_vec()]))
                    .expect("genesis on a healthy disk");
            }
            for _ in 0..rng.between(2, 9) {
                let (block, envelope) = put_block(&p, &peer, next_tx);
                next_tx += 1;
                let number = block.header.number;
                shadow.apply(&envelope.rwset, Version::new(number, 0));
                candidates.insert(number + 1, shadow.clone());
                let codes = peer
                    .validate_and_commit(block)
                    .expect("commit on a healthy disk");
                assert!(
                    codes.iter().all(|c| c.is_valid()),
                    "{codes:?} (seed {seed})"
                );
            }
            let sent = peer.height();
            assert_eq!(peer.state_hash(), shadow.state_hash());
            drop(peer); // the kill: every acked block was fsynced
            let damage = damage_files(&dir, (first_kind + round as u64) % 6, &mut rng);
            peer = open_on_dir(&p, &dir, &config);
            let r = peer.recovery_report().expect("opened via with_backend");
            let h = peer.height();
            trace.push(format!(
                "round {round}: sent={sent} {damage} -> h={h} replayed={} truncated={} fallbacks={} tail={:?}",
                r.replayed_blocks, r.truncated_bytes, r.snapshot_fallbacks, r.tail
            ));
            assert!(
                h <= sent,
                "recovered past what was sent (seed {seed}): {trace:?}"
            );
            if damage == "clean-kill" || damage.starts_with("snap-") {
                assert_eq!(
                    h, sent,
                    "undamaged WAL lost blocks (seed {seed}): {trace:?}"
                );
            }
            // A snapshot ahead of a cut WAL describes a chain that no
            // longer exists: recovery must not leave it behind to outrank
            // the snapshots the regrown chain writes.
            let interval = config.snapshot_interval;
            let ahead: Vec<String> = std::fs::read_dir(&dir)
                .expect("list soak dir")
                .filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter(|name| {
                    name.strip_prefix("snap-")
                        .and_then(|rest| rest.strip_suffix(".snap"))
                        .and_then(|height| height.parse::<u64>().ok())
                        .is_some_and(|height| height > h)
                })
                .collect();
            assert!(
                ahead.is_empty(),
                "snapshots {ahead:?} outlived a chain cut to {h} (seed {seed}): {trace:?}"
            );
            // So a round that crossed a snapshot boundary and died clean
            // restarts from that snapshot, not from genesis.
            if damage == "clean-kill" && sent / interval > started_at / interval {
                assert_eq!(
                    r.snapshot_height,
                    Some(sent - sent % interval),
                    "recovery ignored the newest snapshot (seed {seed}): {trace:?}"
                );
            }
            let expected = candidates
                .get(&h)
                .unwrap_or_else(|| panic!("recovered to unknown height {h} (seed {seed})"));
            assert_eq!(
                peer.state_hash(),
                expected.state_hash(),
                "recovered state at height {h} is not the committed prefix (seed {seed}): {trace:?}"
            );
            assert!(peer.store().verify_chain().is_ok());
            shadow = expected.clone();
        }
        drop(peer);
        let _ = std::fs::remove_dir_all(&dir);
        trace
    }

    #[test]
    fn std_vfs_soak_zero_length_wal_gets_its_header_before_the_first_append() {
        // What a kill between creating `wal.log` and writing its header
        // leaves in a real directory. Recovery has to repair it: frames
        // appended behind a missing header are trusted by no later reopen.
        let dir = std::env::temp_dir().join(format!("tdt-chaos-{}-empty-wal", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create soak dir");
        std::fs::write(dir.join("wal.log"), b"").expect("create the empty wal");
        let p = parts();
        let config = FileConfig::default();
        let mut peer = open_on_dir(&p, &dir, &config);
        assert_eq!(peer.height(), 0);
        peer.validate_and_commit(Block::genesis(vec![b"config".to_vec()]))
            .expect("genesis on a healthy disk");
        for i in 0..2 {
            let (block, _) = put_block(&p, &peer, i);
            peer.validate_and_commit(block)
                .expect("commit on a healthy disk");
        }
        let committed = peer.state_hash();
        drop(peer);
        let peer = open_on_dir(&p, &dir, &config);
        let report = peer.recovery_report().expect("opened via with_backend");
        assert_eq!((peer.height(), &report.tail), (3, &None), "{report:?}");
        assert_eq!(peer.state_hash(), committed);
        drop(peer);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn std_vfs_soak_recovers_a_verified_prefix_from_real_file_damage_and_replays_from_its_seed() {
        let seed = chaos_seed();
        let first = run_std_vfs_soak(seed, 24, "a");
        for line in &first {
            println!("std-vfs soak: {line}");
        }
        for kind in ["wal-truncated", "wal-flip", "snap-"] {
            assert!(
                first.iter().any(|line| line.contains(kind)),
                "schedule never did {kind} (seed {seed})"
            );
        }
        assert!(
            first.iter().any(|line| !line.contains("truncated=0 ")),
            "no round ever cut a WAL tail (seed {seed})"
        );
        let second = run_std_vfs_soak(seed, 24, "b");
        assert_eq!(
            first, second,
            "same seed {seed} must replay the exact same damage/recover trace"
        );
    }
}
