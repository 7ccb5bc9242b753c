//! The metric names and units this program emits. `BENCHMARK.json` at the
//! repository root declares the same lists (with directions and bounds);
//! a test keeps the two from drifting apart.

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: printed by every workload with `--trace 1`. The
/// part of a name before the first dot is the crate the figure belongs to.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("core.build_query_ms", "ms"),
    ("core.driver_execute_ms", "ms"),
    ("core.process_response_ms", "ms"),
    ("core.proof_bytes", "bytes"),
    ("contracts.ecc_check_access_ms", "ms"),
    ("contracts.stl_get_bl_ms", "ms"),
    ("contracts.cmdac_validate_proof_ms", "ms"),
    ("fabric.simulate_ms", "ms"),
    ("fabric.endorse_plugin_ms", "ms"),
    ("fabric.endorse_tx_ms", "ms"),
    ("fabric.order_commit_ms", "ms"),
    ("fabric.peer_commit_ms", "ms"),
    ("fabric.provision_ms", "ms"),
    ("crypto.schnorr_sign_us", "us"),
    ("crypto.schnorr_verify_us", "us"),
    ("crypto.schnorr_verify_cached_us", "us"),
    ("crypto.elgamal_encrypt_us", "us"),
    ("crypto.elgamal_decrypt_us", "us"),
    ("crypto.cert_chain_verify_us", "us"),
    ("crypto.certcache_hit_ratio", "ratio"),
    ("crypto.keytable_hit_ratio", "ratio"),
    ("wire.encode_envelope_us", "us"),
    ("wire.decode_envelope_us", "us"),
    ("wire.bytes_per_op", "bytes"),
    ("relay.roundtrip_ms", "ms"),
    ("relay.overhead_us", "us"),
    ("relay.transport_send_us", "us"),
    ("relay.dispatch_us", "us"),
    ("relay.pool_reuse_ratio", "ratio"),
    ("relay.redials", "count"),
    ("relay.sheds", "count"),
    ("ledger.wal_append_ms", "ms"),
    ("ledger.wal_append_mem_ms", "ms"),
    ("ledger.snapshot_write_ms", "ms"),
    ("ledger.fsyncs_per_block", "count"),
    ("ledger.bytes_written_per_tx", "bytes"),
    ("ledger.recover_backend_ms", "ms"),
    ("ledger.recover_replay_ms", "ms"),
    ("harness.trace_overhead_ratio", "ratio"),
    ("harness.budget_residual_ratio", "ratio"),
];

/// The residual above which a traced run fails: the parts of a
/// decomposed span must add up to it within this share.
pub const MAX_BUDGET_RESIDUAL: f64 = 0.10;
