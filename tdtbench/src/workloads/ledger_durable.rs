//! `ledger_durable` — `Peer::validate_and_commit` over `FileBackend` on a
//! real directory (`StdVfs`): blocks of ten transactions, each endorsed by
//! two organizations under an `all_of` policy and blind-writing a
//! proof-sized value, through staged validation → WAL append + fsync →
//! apply → snapshot when due.
//!
//! `accept_commit` runs the same `validate_and_commit` on the in-memory
//! backend; the difference between the two isolates storage. Building the
//! next block (twenty signatures) happens between operations and is not
//! timed. The run ends by dropping the peer, reopening it, and requiring
//! the same height, state hash and transaction lookups as before.

use super::{
    clocked, fill_counts, fill_latency, timed_setup, EndToEnd, Layers, RunConfig, TraceBudget,
    TraceSummary,
};
use crate::durable::{BlockSource, DurableLedger, TXS_PER_BLOCK};
use crate::harness::loadgen::{serial_loop, Outcome};
use crate::harness::spans::SpanLog;
use std::sync::Arc;
use std::time::Instant;
use tdt_ledger::storage::file::{FileBackend, FileConfig};
use tdt_ledger::storage::vfs::{MemVfs, StdVfs, Vfs};
use tdt_ledger::storage::{Snapshot, StorageBackend};

/// The workload's name.
pub const NAME: &str = "ledger_durable";

/// Warm-up blocks.
pub const WARMUP_BLOCKS: usize = 8;
/// Blocks committed per second of run time: 400 in a 20-second run
/// (≈ 38 ms per block with its untimed building on the reference box).
pub const OPS_PER_SECOND: f64 = 20.0;
/// Block commits slower than this are counted in `tail.limit_miss_ratio`.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Least blocks of the traced loop: enough to cross a snapshot boundary
/// (every 64 blocks by default).
pub const TRACE_MIN_OPS: usize = 72;

/// The fixture: the ledger and the source of its next blocks.
pub struct Fixture {
    /// The durable peer.
    pub ledger: DurableLedger,
    /// Produces the chain.
    pub source: BlockSource,
}

/// Creates the ledger under the run's work directory and commits
/// `blocks` blocks.
pub(crate) fn setup_with(cfg: &RunConfig, name: &str, blocks: usize) -> Result<Fixture, String> {
    // Set-up may run several times in a run; each needs a fresh directory.
    let dir = (0..)
        .map(|i| cfg.work_dir.join(format!("{name}-{i}")))
        .find(|d| !d.exists())
        .ok_or("no free ledger directory")?;
    let (mut ledger, mut source) = DurableLedger::create(&dir, cfg.seed)?;
    for _ in 0..blocks {
        ledger.commit(source.next_block())?;
    }
    Ok(Fixture { ledger, source })
}

pub(crate) fn setup(cfg: &RunConfig) -> Result<Fixture, String> {
    setup_with(cfg, NAME, (WARMUP_BLOCKS / cfg.scale.warmup_div).max(1))
}

/// Drops the peer, reopens it, and requires the durable state to be what
/// it was.
pub(crate) fn check_recovery(fixture: &mut Fixture) -> Result<(), String> {
    let before = fixture.ledger.fingerprint();
    fixture.ledger.reopen()?;
    let after = fixture.ledger.fingerprint();
    if before != after {
        return Err(format!("recovered {after:?}, committed {before:?}"));
    }
    fixture.ledger.check_lookups(fixture.source.txids())
}

/// The untraced run: one writer, closed loop, block building untimed.
///
/// # Errors
///
/// Set-up failures and statistics the samples cannot support.
pub fn run(cfg: &RunConfig) -> Result<EndToEnd, String> {
    let (fixture, setup_s) = timed_setup(|| setup(cfg))?;
    let Fixture {
        mut ledger,
        mut source,
    } = fixture;
    let mut out = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let mut problems = Vec::new();
    let phase = serial_loop(
        cfg.serial_ops(OPS_PER_SECOND),
        || source.next_block(),
        |block| ledger.commit(block),
        |committed| match committed {
            Ok(()) => Outcome::Ok,
            Err(e) => {
                problems.push(e);
                Outcome::Failed
            }
        },
    );
    fill_counts(&mut out, [&phase]);
    // An operation commits a block; throughput is quoted in transactions.
    out.throughput_ops_s *= TXS_PER_BLOCK as f64;
    out.cpu_ms_per_op /= TXS_PER_BLOCK as f64;
    fill_latency(&mut out, &phase, LATENCY_LIMIT_MS, cfg.scale.min_beyond)?;
    out.problems.extend(problems.into_iter().take(5));
    let mut fixture = Fixture { ledger, source };
    if let Err(e) = check_recovery(&mut fixture) {
        out.problems.push(e);
    }
    Ok(out)
}

/// The traced loop: every commit under a span, then the same block (with
/// the validation flags the commit gave it) appended to two shadow
/// backends — one on the real disk, one in memory — and, where the commit
/// wrote a snapshot, the same snapshot written again to the disk shadow.
///
/// # Errors
///
/// Any failed commit or replay.
pub fn trace(
    fixture: &mut Fixture,
    cfg: &RunConfig,
    budget: TraceBudget,
    log: &mut SpanLog,
    layers: &mut Layers,
) -> Result<TraceSummary, String> {
    let shadow_dir = cfg.work_dir.join("wal-shadow");
    let disk: Arc<dyn Vfs> =
        Arc::new(StdVfs::open(&shadow_dir).map_err(|e| format!("shadow dir: {e}"))?);
    let mut shadows = [
        (
            "ledger.wal_append_ms",
            FileBackend::new(disk, FileConfig::default()),
        ),
        (
            "ledger.wal_append_mem_ms",
            FileBackend::new(Arc::new(MemVfs::new()), FileConfig::default()),
        ),
    ];
    // Bring both shadows up to the ledger's height.
    for (_, backend) in &mut shadows {
        backend.load().map_err(|e| format!("shadow load: {e}"))?;
        for block in fixture.ledger.peer().store().iter() {
            backend
                .append_block(block)
                .map_err(|e| format!("shadow catch-up: {e}"))?;
        }
    }

    let (syncs_before, bytes_before) =
        (fixture.ledger.disk().syncs(), fixture.ledger.disk().bytes());
    let mut commit_ms = Vec::new();
    let started = Instant::now();
    let mut op_id = 0u32;
    loop {
        let block = fixture.source.next_block();
        let number = block.header.number;
        let (committed, t0, t1) = clocked(|| fixture.ledger.commit(block));
        committed?;
        let root = log.record(op_id, "op", None, t0, t1);
        let commit = log.record(op_id, "fabric.peer_commit", Some(root), t0, t1);
        layers.time("fabric.peer_commit_ms", t1 - t0);
        commit_ms.push((t1 - t0).as_secs_f64() * 1e3);

        let peer = fixture.ledger.peer();
        let stored = peer
            .store()
            .block(number)
            .map_err(|e| format!("committed block {number}: {e}"))?;
        for (metric, backend) in &mut shadows {
            let (appended, a0, a1) = clocked(|| backend.append_block(stored));
            appended.map_err(|e| format!("shadow append: {e}"))?;
            layers.time(metric, a1 - a0);
            if *metric == "ledger.wal_append_ms" {
                log.attach(commit, "ledger.wal_append", a1 - a0);
            }
        }
        let (_, disk_shadow) = &mut shadows[0];
        // Where the commit wrote a snapshot, write the same one again; a
        // loop too short to cross a snapshot boundary (a smoke run) writes
        // one after its last block so that the metric always has a sample.
        let last = !budget.more(op_id as usize + 1, started);
        let never = layers.sample_count("ledger.snapshot_write_ms") == 0;
        if disk_shadow.snapshot_due(number + 1) || (last && never) {
            let snapshot = Snapshot::capture(number + 1, peer.state(), peer.history());
            let (written, s0, s1) = clocked(|| disk_shadow.write_snapshot(&snapshot));
            written.map_err(|e| format!("shadow snapshot: {e}"))?;
            if disk_shadow.snapshot_due(number + 1) {
                log.attach(commit, "ledger.snapshot_write", s1 - s0);
            }
            layers.time("ledger.snapshot_write_ms", s1 - s0);
        }
        op_id += 1;
        if last {
            break;
        }
    }
    let blocks = f64::from(op_id);
    layers.set(
        "ledger.fsyncs_per_block",
        (fixture.ledger.disk().syncs() - syncs_before) as f64 / blocks,
    );
    layers.set(
        "ledger.bytes_written_per_tx",
        (fixture.ledger.disk().bytes() - bytes_before) as f64 / (blocks * TXS_PER_BLOCK as f64),
    );
    drop(shadows);
    let _ = std::fs::remove_dir_all(&shadow_dir);
    // The traced operation *is* the untraced one (a single public call).
    TraceSummary::from_samples(&commit_ms, &commit_ms)
}
