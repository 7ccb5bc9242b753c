//! `ledger_recover` — crash recovery of the chain `ledger_durable`'s
//! commit path wrote: drop the peer, reopen the same directory with
//! `Peer::with_backend` (WAL scan, CRC and chain verification, snapshot
//! load, replay above the snapshot, index rebuild), and require the same
//! height, state hash and transaction lookups as before the drop.
//!
//! Commit and recovery share the WAL and snapshot formats and the snapshot
//! cadence, so a change that speeds one and slows the other shows as
//! opposite movements of `ledger_durable` and `ledger_recover`.

use super::ledger_durable::{setup_with, Fixture};
use super::{
    fill_counts, fill_latency, timed_setup, EndToEnd, Layers, RunConfig, TraceBudget, TraceSummary,
};
use crate::harness::loadgen::{serial_loop, Outcome};
use crate::harness::spans::SpanLog;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The workload's name.
pub const NAME: &str = "ledger_recover";

/// Warm-up reopens (page cache, allocator).
pub const WARMUP_REOPENS: usize = 2;
/// Reopens per second of run time: 300 in a 20-second run (≈ 50 ms each on
/// the reference box).
pub const OPS_PER_SECOND: f64 = 15.0;
/// Reopens slower than this are counted in `tail.limit_miss_ratio`.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Least reopens of the traced loop.
pub const TRACE_MIN_OPS: usize = 7;

/// Commits the chain to recover and reopens it a couple of times.
pub(crate) fn setup(cfg: &RunConfig) -> Result<Fixture, String> {
    let mut fixture = setup_with(cfg, NAME, cfg.scale.recover_blocks)?;
    for _ in 0..WARMUP_REOPENS {
        fixture.ledger.reopen()?;
    }
    Ok(fixture)
}

/// The untraced run: one client reopening the ledger in a closed loop.
///
/// # Errors
///
/// Set-up failures and statistics the samples cannot support.
pub fn run(cfg: &RunConfig) -> Result<EndToEnd, String> {
    let (mut fixture, setup_s) = timed_setup(|| setup(cfg))?;
    let mut out = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let committed = fixture.ledger.fingerprint();
    let Fixture { ledger, source } = &mut fixture;
    // The timed and the checking closure both need the ledger, one after
    // the other.
    let ledger = RefCell::new(ledger);
    let mut problems = Vec::new();
    let phase = serial_loop(
        cfg.serial_ops(OPS_PER_SECOND),
        || (),
        |()| ledger.borrow_mut().reopen().map(drop),
        |reopened| {
            let ledger = ledger.borrow();
            let checked = reopened.and_then(|()| {
                let recovered = ledger.fingerprint();
                if recovered != committed {
                    return Err(format!("recovered {recovered:?}, committed {committed:?}"));
                }
                ledger.check_lookups(source.txids())
            });
            match checked {
                Ok(()) => Outcome::Ok,
                Err(e) => {
                    problems.push(e);
                    Outcome::Failed
                }
            }
        },
    );
    fill_counts(&mut out, [&phase]);
    fill_latency(&mut out, &phase, LATENCY_LIMIT_MS, cfg.scale.min_beyond)?;
    out.problems.extend(problems.into_iter().take(5));
    Ok(out)
}

/// The traced loop: each reopen under a span whose child is the share the
/// storage backend reports for itself (`RecoveryReport::duration_ns`); the
/// remainder is the peer's replay and index rebuild.
///
/// # Errors
///
/// Any failed or lossy reopen.
pub fn trace(
    fixture: &mut Fixture,
    budget: TraceBudget,
    log: &mut SpanLog,
    layers: &mut Layers,
) -> Result<TraceSummary, String> {
    let committed = fixture.ledger.fingerprint();
    let mut reopen_ms = Vec::new();
    let started = Instant::now();
    let mut op_id = 0u32;
    while budget.more(op_id as usize, started) {
        let t0 = Instant::now();
        let reopen = fixture.ledger.reopen()?;
        let t1 = Instant::now();
        if fixture.ledger.fingerprint() != committed {
            return Err("reopen lost committed state".into());
        }
        fixture.ledger.check_lookups(fixture.source.txids())?;
        let backend = Duration::from_nanos(reopen.report.duration_ns);
        let root = log.record(op_id, "op", None, t0, t1);
        let recover = log.record(op_id, "fabric.peer_recover", Some(root), t0, t1);
        log.attach(recover, "ledger.recover_backend", backend);
        layers.time("ledger.recover_backend_ms", backend);
        layers.time(
            "ledger.recover_replay_ms",
            reopen.total.saturating_sub(backend),
        );
        reopen_ms.push((t1 - t0).as_secs_f64() * 1e3);
        op_id += 1;
    }
    TraceSummary::from_samples(&reopen_ms, &reopen_ms)
}
