//! `relay_echo` — one `RelayService::relay_query` over the same pooled-TCP
//! relay pair as `query_tcp`, with an `EchoDriver` behind the remote relay
//! and the smallest sensible message (a 64-byte argument echoed back).
//!
//! Same relay and wire code as `query_tcp`, opposite balance: framing,
//! dispatch, correlation routing and thread hand-offs are the whole
//! operation; crypto and contracts do nothing. Relay and transport changes
//! show here; a crypto change must show no change here.

use super::{
    clocked, fill_rounds, run_round, EndToEnd, Layers, RoundSpec, RunConfig, TraceBudget,
    TraceSummary,
};
use crate::fixture::{RelayPair, ECHO_NETWORK};
use crate::harness::loadgen::{Outcome, SplitMix64};
use crate::harness::spans::SpanLog;
use crate::harness::stats;
use std::sync::Arc;
use std::time::Instant;
use tdt_relay::transport::{
    EnvelopeHandler, PooledTcpTransport, RelayTransport, TcpRelayServer, TcpServerConfig,
};
use tdt_wire::codec::Message;
use tdt_wire::messages::{
    EnvelopeKind, NetworkAddress, Query, QueryResponse, RelayEnvelope, ResponseStatus,
};

/// The workload's name.
pub const NAME: &str = "relay_echo";

/// Bytes of the echoed argument: small on purpose, so per-message cost
/// dominates per-byte cost.
pub const PAYLOAD_BYTES: usize = 64;
/// Warm-up operations (dial both pooled connections, start dispatchers).
pub const WARMUP_OPS: usize = 200;
/// The run: 21 short rounds of 2 clients (one per core), each round on a
/// relay pair of its own, 35 % of the time closed loop (throughput), the
/// rest open loop (latency) at a fixed rate of about 20 % of the
/// closed-loop capacity measured on the commit that added the benchmark
/// (≈ 19 000 ops/s on the 2-core reference box). Fixed: never recalibrated
/// at run time.
///
/// Where the scheduler places a server's threads persists for the server's
/// lifetime and moves this microsecond-scale, wake-up-bound operation by
/// ±20 %, so the run samples 21 placements and reports the median instead
/// of betting on one. (At the 40 % load the issue proposed, the 95th
/// percentile followed those capacity swings instead of the code.)
pub(crate) const SPEC: RoundSpec = RoundSpec {
    rounds: 21,
    clients: 2,
    closed_share: 0.35,
    open_rate_per_s: 4_000.0,
};
/// Operations slower than this are counted in `tail.limit_miss_ratio`.
pub const LATENCY_LIMIT_MS: f64 = 5.0;
/// Least operations of the traced loop.
pub const TRACE_MIN_OPS: usize = 1_500;

/// The seeded stream of echo queries one generator thread sends.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    lane: u64,
    seq: u64,
}

impl OpStream {
    /// The stream of `lane` in the run seeded `seed`.
    pub fn new(seed: u64, lane: u64) -> Self {
        OpStream {
            rng: SplitMix64::for_lane(seed, lane),
            lane,
            seq: 0,
        }
    }

    /// The next query; its first argument is the payload to echo.
    pub fn next_op(&mut self) -> Query {
        let mut payload = vec![0u8; PAYLOAD_BYTES];
        self.rng.fill(&mut payload);
        self.seq += 1;
        Query {
            request_id: format!("echo-{}-{}", self.lane, self.seq),
            address: NetworkAddress::new(ECHO_NETWORK, "ledger", "contract", "fn")
                .with_arg(payload),
            ..Default::default()
        }
    }
}

fn echoed(query: &Query, response: &QueryResponse) -> bool {
    response.status == ResponseStatus::Ok
        && response.request_id == query.request_id
        && Some(&response.result) == query.address.args.first()
}

fn execute(pair: &RelayPair, query: &Query) -> Outcome {
    match pair.local.relay_query(query) {
        Ok(response) if echoed(query, &response) => Outcome::Ok,
        _ => Outcome::Failed,
    }
}

/// Starts the echo pair and warms it up.
pub(crate) fn setup(cfg: &RunConfig) -> Result<RelayPair, String> {
    let pair = RelayPair::echo()?;
    let mut warmup = OpStream::new(cfg.seed, u64::MAX);
    for _ in 0..(WARMUP_OPS / cfg.scale.warmup_div).max(2) {
        if execute(&pair, &warmup.next_op()) == Outcome::Failed {
            return Err("warm-up echo failed".into());
        }
    }
    Ok(pair)
}

/// The untraced run: per round a fresh relay pair, closed loop for
/// throughput, open loop for latency. `setup_s` is the median round's
/// set-up.
///
/// # Errors
///
/// Set-up failures and statistics the samples cannot support.
pub fn run(cfg: &RunConfig) -> Result<EndToEnd, String> {
    let mut out = EndToEnd::default();
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    for round in 0..SPEC.rounds {
        let (pair, t0, t1) = clocked(|| setup(cfg));
        let pair = pair?;
        setups.push((t1 - t0).as_secs_f64());
        rounds.push(run_round(cfg, SPEC, round, |lane| {
            let mut ops = OpStream::new(cfg.seed, lane);
            let pair = &pair;
            move || execute(pair, &ops.next_op())
        }));
        if pair.sheds() > 0 {
            out.problems
                .push(format!("relays shed {} requests", pair.sheds()));
        }
    }
    out.setup_s = stats::median_of(&setups)?;
    fill_rounds(&mut out, rounds, LATENCY_LIMIT_MS, cfg.scale.min_beyond)?;
    Ok(out)
}

/// Answers every envelope with its own payload: the least a server-side
/// handler can do, so that a send through it costs transport and wire
/// only.
struct Mirror;

impl EnvelopeHandler for Mirror {
    fn handle(&self, envelope: RelayEnvelope) -> RelayEnvelope {
        RelayEnvelope {
            kind: EnvelopeKind::QueryResponse,
            source_relay: "mirror".into(),
            dest_network: envelope.dest_network,
            payload: envelope.payload,
            correlation_id: 0,
            trace: Default::default(),
            batch: Vec::new(),
        }
    }
}

/// The traced loop: one client, alternating untraced and traced
/// `relay_query` calls, each traced one followed by the same envelope sent
/// through a bare transport pair and encoded/decoded on its own.
///
/// # Errors
///
/// Any failed operation or replay.
pub fn trace(
    pair: &RelayPair,
    cfg: &RunConfig,
    budget: TraceBudget,
    log: &mut SpanLog,
    layers: &mut Layers,
) -> Result<TraceSummary, String> {
    let mirror = TcpRelayServer::spawn_with(
        "127.0.0.1:0",
        Arc::new(Mirror) as Arc<dyn EnvelopeHandler>,
        TcpServerConfig::default(),
    )
    .map_err(|e| format!("bind mirror server: {e}"))?;
    let endpoint = mirror.endpoint();
    let transport = PooledTcpTransport::new();

    let mut ops = OpStream::new(cfg.seed, 300);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut op_id = 0u32;
    while budget.more(op_id as usize, started) {
        let query = ops.next_op();
        let (plain, t0, t1) = clocked(|| execute(pair, &query));
        if plain != Outcome::Ok {
            return Err("untraced echo failed".into());
        }
        untraced_ms.push((t1 - t0).as_secs_f64() * 1e3);

        let query = ops.next_op();
        let (response, r0, r1) = clocked(|| pair.local.relay_query(&query));
        let response = response.map_err(|e| format!("relay_query: {e}"))?;
        if !echoed(&query, &response) {
            return Err("echo returned a different payload".into());
        }
        let root = log.record(op_id, "op", None, r0, r1);
        let hop = log.record(op_id, "relay.roundtrip", Some(root), r0, r1);
        traced_ms.push((r1 - r0).as_secs_f64() * 1e3);

        let request = RelayEnvelope::query(pair.local.id(), ECHO_NETWORK, &query)
            .with_correlation_id(u64::from(op_id) + (1 << 20));
        let reply = RelayEnvelope::response(pair.remote.id(), ECHO_NETWORK, &response)
            .with_correlation_id(u64::from(op_id) + (1 << 20));
        let (sent, s0, s1) = clocked(|| transport.send(&endpoint, &request));
        let sent = sent.map_err(|e| format!("bare transport send: {e}"))?;
        if sent.payload != request.payload {
            return Err("mirror returned a different payload".into());
        }
        let send = log.attach(hop, "relay.transport_send", s1 - s0);
        layers.time("relay.transport_send_us", s1 - s0);
        layers.sample(
            "relay.dispatch_us",
            ((r1 - r0).as_secs_f64() - (s1 - s0).as_secs_f64()) * 1e6,
        );

        // Each hop direction encodes the envelope once and decodes it once.
        let mut wire_bytes = 0usize;
        for envelope in [&request, &reply] {
            let (bytes, e0, e1) = clocked(|| envelope.encode_to_vec());
            log.attach(send, "wire.encode_envelope", e1 - e0);
            layers.time("wire.encode_envelope_us", e1 - e0);
            let (decoded, d0, d1) = clocked(|| RelayEnvelope::decode_from_slice(&bytes));
            if decoded.map_err(|e| format!("decode envelope: {e}"))? != *envelope {
                return Err("envelope did not survive its own encoding".into());
            }
            log.attach(send, "wire.decode_envelope", d1 - d0);
            layers.time("wire.decode_envelope_us", d1 - d0);
            wire_bytes += 4 + bytes.len();
        }
        layers.sample("wire.bytes_per_op", wire_bytes as f64);
        op_id += 1;
    }
    mirror.shutdown();
    TraceSummary::from_samples(&traced_ms, &untraced_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_payloads() {
        let draw = |seed| {
            let mut s = OpStream::new(seed, 0);
            (0..50).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(4), draw(4));
        assert_ne!(draw(4), draw(5));
        assert_eq!(draw(4)[0].address.args[0].len(), PAYLOAD_BYTES);
    }
}
