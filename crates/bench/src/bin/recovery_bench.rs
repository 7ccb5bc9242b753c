//! Recovery-time benchmark for the durable ledger (`EXPERIMENTS.md` E20):
//! crash-recovery wall-clock vs. chain length, split into the backend's
//! share (WAL scan + CRC + chain verification + snapshot load) and the
//! peer's share (envelope decode, state/history replay, tx-index and
//! Merkle re-verification).
//!
//! For each chain length the same chain is recovered twice — once from a
//! WAL-only disk (`snapshot_interval = 0`, full replay from genesis) and
//! once from a disk with periodic snapshots — so the table shows exactly
//! how much replay work snapshots retire.
//!
//! Usage: `cargo run -p tdt-bench --release --bin recovery_bench --
//!            [--smoke] [--out PATH] [--label NAME]`
//!
//! `--smoke` runs the two smallest scales only (the CI configuration).
//! `--out` writes the rows as JSON (schema `recovery/v1`, one row per
//! line); the default, without `--smoke`, is `BENCH_recovery.json`. The
//! file is a trajectory: rows already in it under another `--label`
//! (default `this`) are kept, so a parent commit's rows and a change's
//! rows sit side by side.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tdt_bench::{arg_after, trajectory_rows};
use tdt_crypto::cert::CertRole;
use tdt_crypto::group::Group;
use tdt_fabric::chaincode::ChaincodeRegistry;
use tdt_fabric::endorse::TransactionEnvelope;
use tdt_fabric::msp::{Msp, MspRegistry};
use tdt_fabric::peer::Peer;
use tdt_ledger::block::{Block, TxValidationCode};
use tdt_ledger::history::HistoryIndex;
use tdt_ledger::rwset::{TxRwSet, Version};
use tdt_ledger::state::WorldState;
use tdt_ledger::storage::file::{FileBackend, FileConfig};
use tdt_ledger::storage::vfs::{MemVfs, Vfs};
use tdt_ledger::storage::{Snapshot, StorageBackend};
use tdt_wire::codec::Message;

/// Transactions per block: Fabric block-cutting order of magnitude.
const TXS_PER_BLOCK: usize = 50;

/// Distinct world-state keys the workload cycles over — bounds snapshot
/// size, so snapshot load cost stays realistic instead of degenerate.
const KEYS: usize = 2_000;

/// Snapshot cadence (blocks) for the snapshotted configuration.
const SNAPSHOT_INTERVAL: u64 = 128;

/// One pre-encoded transaction: a single write to a cycling key.
fn envelope_bytes(creator: &tdt_crypto::cert::Certificate, i: usize) -> Vec<u8> {
    let mut rwset = TxRwSet::new();
    rwset.record_write(
        "kv",
        &format!("k{:06}", i % KEYS),
        Some(format!("value-{i:012}").into_bytes()),
    );
    TransactionEnvelope {
        txid: format!("tx{i:012}"),
        channel: "ch".into(),
        chaincode: "kv".into(),
        result: Vec::new(),
        rwset,
        // Recovery replays committer-validated metadata; it never re-runs
        // endorsement checks, so unendorsed envelopes measure the honest
        // replay cost without paying signing time at build time.
        endorsements: Vec::new(),
        creator_cert: creator.clone(),
    }
    .encode_to_vec()
}

/// Builds a `total_txs`-transaction chain on a fresh in-memory disk,
/// driving the backend exactly like the peer commit path (durable append,
/// then state/history apply, then snapshot when due).
fn build_disk(
    total_txs: usize,
    snapshot_interval: u64,
    creator: &tdt_crypto::cert::Certificate,
) -> Arc<MemVfs> {
    let disk = Arc::new(MemVfs::new());
    let config = FileConfig {
        snapshot_interval,
        ..FileConfig::default()
    };
    let mut backend = FileBackend::new(Arc::clone(&disk) as Arc<dyn Vfs>, config);
    backend.load().expect("fresh disk loads"); // lint:allow(panic: "bench harness: a failed build invalidates the run")
    let mut state = WorldState::new();
    let mut history = HistoryIndex::new();
    let mut prev = Block::genesis(vec![b"config".to_vec()]);
    prev.metadata.tx_validation = vec![TxValidationCode::Valid];
    backend.append_block(&prev).expect("genesis append"); // lint:allow(panic: "bench harness: a failed build invalidates the run")
    let mut i = 0usize;
    while i < total_txs {
        let txs: Vec<Vec<u8>> = (0..TXS_PER_BLOCK.min(total_txs - i))
            .map(|j| envelope_bytes(creator, i + j))
            .collect();
        let mut block = Block::next(&prev.header, txs);
        let number = block.header.number;
        block.metadata.tx_validation = vec![TxValidationCode::Valid; block.transactions.len()];
        backend.append_block(&block).expect("append"); // lint:allow(panic: "bench harness: a failed build invalidates the run")
        for (j, tx) in block.transactions.iter().enumerate() {
            let envelope =
                TransactionEnvelope::decode_from_slice(tx).expect("self-built envelope decodes"); // lint:allow(panic: "bench harness: a failed build invalidates the run")
            let version = Version::new(number, j as u64);
            state.apply(&envelope.rwset, version);
            history.record(&envelope.rwset, version);
        }
        i += block.transactions.len();
        if backend.snapshot_due(number + 1) {
            let snapshot = Snapshot::capture(number + 1, &state, &history);
            backend.write_snapshot(&snapshot).expect("snapshot"); // lint:allow(panic: "bench harness: a failed build invalidates the run")
        }
        prev = block;
    }
    disk
}

/// Recoveries timed per configuration; the median is reported.
const REPEATS: usize = 3;

struct Recovery {
    total: Duration,
    backend_share: Duration,
    chain_height: u64,
    replayed_blocks: u64,
    wal_bytes: u64,
    snapshot_height: Option<u64>,
}

/// Opens a full peer over the disk image and times recovery end to end.
/// The backend's own `duration_ns` (WAL scan/verify + snapshot load) is
/// split out; the remainder is the peer-side replay.
fn recover(disk: &Arc<MemVfs>, snapshot_interval: u64) -> Recovery {
    let mut msp = Msp::new("net", "org1", Group::test_group(), b"bench");
    let peer_id = msp.enroll("peer0", CertRole::Peer, false);
    let config = FileConfig {
        snapshot_interval,
        ..FileConfig::default()
    };
    let backend = Box::new(FileBackend::new(Arc::clone(disk) as Arc<dyn Vfs>, config));
    let started = Instant::now();
    let peer = Peer::with_backend(
        "net",
        "org1",
        "peer0",
        peer_id,
        Arc::new(ChaincodeRegistry::new()),
        Arc::new(MspRegistry::new()),
        Arc::new(std::collections::HashMap::new()),
        backend,
    )
    .expect("recovery"); // lint:allow(panic: "bench harness: a failed recovery invalidates the run")
    let total = started.elapsed();
    let report = peer.recovery_report().expect("opened via with_backend"); // lint:allow(panic: "bench harness: a failed recovery invalidates the run")
    Recovery {
        total,
        backend_share: Duration::from_nanos(report.duration_ns),
        chain_height: report.chain_height,
        replayed_blocks: report.replayed_blocks,
        wal_bytes: report.wal_bytes,
        snapshot_height: report.snapshot_height,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Writes `rows` (this run's, under `label`) to `path`, carrying over the
/// rows an existing file holds under other labels.
fn write_json(path: &str, smoke: bool, label: &str, rows: &[String]) -> std::io::Result<()> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let doc = format!(
        "{{\n  \"schema\": \"recovery/v1\",\n  \"generated_by\": \"cargo run -p tdt-bench --release --bin recovery_bench{}\",\n  \
         \"smoke\": {smoke},\n  \
         \"config\": {{\"txs_per_block\": {TXS_PER_BLOCK}, \"keys\": {KEYS}, \"snapshot_interval\": {SNAPSHOT_INTERVAL}, \"repeats\": {REPEATS}, \"cores\": {cores}}},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        if smoke { " -- --smoke" } else { "" },
        trajectory_rows(path, label, rows),
    );
    std::fs::write(path, doc)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let out = arg_after("--out").or_else(|| (!smoke).then(|| "BENCH_recovery.json".to_string()));
    let label = arg_after("--label").unwrap_or_else(|| "this".to_string());
    let scales: &[usize] = if smoke {
        &[2_000, 10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut msp = Msp::new("net", "org1", Group::test_group(), b"bench");
    let creator = msp
        .enroll("alice", CertRole::Client, false)
        .certificate()
        .clone();
    println!("recovery_bench: {TXS_PER_BLOCK} txs/block, {KEYS} keys, snapshot every {SNAPSHOT_INTERVAL} blocks, median of {REPEATS}");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "txs", "mode", "total_ms", "backend_ms", "replay_ms", "blocks", "wal_mb", "workers"
    );
    let mut rows = Vec::new();
    for &total_txs in scales {
        // Cap the cadence at half the chain so every scale actually
        // exercises the snapshot path (the smoke chains are short).
        let blocks = (total_txs / TXS_PER_BLOCK) as u64;
        let cadence = SNAPSHOT_INTERVAL.min((blocks / 2).max(8));
        for (mode, interval) in [("wal-only", 0u64), ("snapshots", cadence)] {
            let disk = build_disk(total_txs, interval, &creator);
            let mut runs: Vec<Recovery> = (0..REPEATS).map(|_| recover(&disk, interval)).collect();
            runs.sort_by_key(|r| r.total);
            let r = runs.swap_remove(REPEATS / 2);
            let replay = r.total.saturating_sub(r.backend_share);
            let wal_mib = r.wal_bytes as f64 / (1024.0 * 1024.0);
            let workers = tdt_ledger::par::workers_for(r.wal_bytes as usize);
            println!(
                "{:>10} {:>12} {:>12.1} {:>12.1} {:>12.1} {:>10} {:>10.1} {:>8}",
                total_txs,
                mode,
                ms(r.total),
                ms(r.backend_share),
                ms(replay),
                r.chain_height,
                wal_mib,
                workers,
            );
            rows.push(format!(
                "    {{\"label\": \"{label}\", \"txs\": {total_txs}, \"mode\": \"{mode}\", \"total_ms\": {:.1}, \"backend_ms\": {:.1}, \"replay_ms\": {:.1}, \"blocks\": {}, \"wal_mib\": {wal_mib:.1}, \"workers\": {workers}}}",
                ms(r.total),
                ms(r.backend_share),
                ms(replay),
                r.chain_height,
            ));
            if interval > 0 {
                assert!(
                    r.snapshot_height.is_some(),
                    "snapshotted run must recover through a snapshot"
                ); // lint:allow(panic: "bench harness: a recovery that skipped its snapshot measures the wrong thing")
                assert!(
                    r.replayed_blocks < r.chain_height,
                    "snapshot must retire replay work"
                ); // lint:allow(panic: "bench harness: a recovery that skipped its snapshot measures the wrong thing")
            }
        }
    }
    if let Some(path) = out {
        match write_json(&path, smoke, &label, &rows) {
            Ok(()) => println!("recovery_bench: wrote {path}"),
            Err(e) => {
                eprintln!("recovery_bench: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("recovery_bench: done");
}
