//! Always-on flight recorder: lock-free per-thread rings of compact
//! structured events, drained on demand into a CRC-framed incident dump.
//!
//! Every interesting decision on the hot path — span opens/closes,
//! retries, hedges, breaker transitions, admission sheds, chaos faults,
//! WAL appends, recovery phases, SLO breaches — drops one fixed-size
//! event into the calling thread's ring via [`record`]. Recording is
//! wait-free for the writer: a global sequence number is claimed with
//! one `fetch_add` and the event is published into a per-slot seqlock
//! (five payload words guarded by a version counter), so the hot path
//! never takes a lock and never allocates.
//!
//! A drain ([`snapshot`]) walks every registered ring plus the orphan
//! buffer (events flushed when a thread exits), discards torn slots
//! (odd or changed version), and sorts by the global sequence number —
//! a causally consistent total order because the sequence is claimed
//! before the event is written. [`dump`] renders that snapshot into a
//! self-describing binary file in the `ledger::storage::codec` idiom:
//! magic + big-endian fields + a CRC32 trailer, rejecting truncation
//! and corruption on decode. Dumps fire on demand (the relay admin
//! endpoint's `GET /debug/flightrec`), on SLO breach
//! ([`crate::slo::Slo`]), or — when armed via [`arm_error_dump`] — when
//! a span closes with error status.
//!
//! ## Tearing argument
//!
//! A slot is six `AtomicU64` words: a version plus five payload words.
//! The owning thread bumps the version to odd (relaxed), publishes the
//! payload with release stores, then bumps the version to even with a
//! release store. A drainer reads the version with acquire, the payload
//! with acquire, then the version again: an odd or changed version
//! means the writer was mid-publish and the slot is skipped. All
//! accesses are atomic, so a torn read is a *skipped event*, never
//! undefined behavior. The release payload stores order the odd
//! version store before any payload word a reader can observe, which
//! closes the classic seqlock store-reorder window without fences.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::clock;
use crate::crc32::crc32;

/// Events retained per thread before the ring wraps (newest wins).
pub const RING_CAPACITY: usize = 1024;

/// Events preserved from exited threads before the oldest are shed.
const MAX_ORPHANS: usize = 4096;

/// Hard cap on events in a decoded dump (decode rejects beyond this).
const MAX_DUMP_EVENTS: usize = 1 << 20;

/// Hard cap on a dump's reason string.
const MAX_REASON_LEN: usize = 4096;

/// Magic prefix of an encoded flight dump.
pub const DUMP_MAGIC: &[u8; 8] = b"TDTFREC1";

/// Minimum interval between automatic error-status dumps.
const ERROR_DUMP_COOLDOWN_NANOS: u64 = 5_000_000_000;

// ---------------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------------

/// What kind of decision or transition an event records. The numeric
/// value is the wire encoding; it must never be reused for a different
/// meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A sampled span opened (`a` = span id, `b` = trace low word).
    SpanOpen = 1,
    /// A sampled span closed OK (`a` = span id, `b` = duration ns).
    SpanClose = 2,
    /// A sampled span closed with error status.
    SpanFail = 3,
    /// A transport retry fired (`code` = attempt number).
    Retry = 4,
    /// A hedged backup request launched (`a` = member index).
    Hedge = 5,
    /// A circuit-breaker transition (`code`: 1 trip, 2 fast-reject,
    /// 3 half-open probe; `a` = endpoint hash).
    Breaker = 6,
    /// An admission-control decision (`code`: 1 shed, 2 deadline
    /// expired in queue; `a`/`b` = estimated wait / budget, ns).
    Admission = 7,
    /// A chaos fault injected (`code` = fault bit set, `a` = schedule
    /// seed, `b` = operation number).
    Chaos = 8,
    /// A WAL append committed (`a` = block height, `b` = bytes).
    WalAppend = 9,
    /// A recovery phase transition (`code` = phase, `a` = blocks,
    /// `b` = bytes).
    Recovery = 10,
    /// An SLO burn-rate breach (`a` = burn rate in milli-units).
    Slo = 11,
    /// A free-form marker for tests and tooling.
    Mark = 12,
}

impl FlightKind {
    /// The stable wire name of a kind byte; unknown bytes decode as
    /// `"unknown"` rather than failing the dump.
    pub fn name_of(kind: u8) -> &'static str {
        match kind {
            1 => "span.open",
            2 => "span.close",
            3 => "span.fail",
            4 => "retry",
            5 => "hedge",
            6 => "breaker",
            7 => "admission",
            8 => "chaos",
            9 => "wal.append",
            10 => "recovery",
            11 => "slo",
            12 => "mark",
            _ => "unknown",
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Global sequence number: claimed before the event is written, so
    /// sorting by it yields a causally consistent total order.
    pub seq: u64,
    /// Process-monotonic timestamp ([`crate::clock::now_nanos`]).
    pub at_nanos: u64,
    /// Ordinal of the recording thread (process-unique, dense).
    pub thread: u32,
    /// Event kind byte (see [`FlightKind`]).
    pub kind: u8,
    /// Kind-specific subcode.
    pub code: u16,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

impl FlightRecord {
    /// Human-readable name of this record's kind.
    pub fn kind_name(&self) -> &'static str {
        FlightKind::name_of(self.kind)
    }
}

// ---------------------------------------------------------------------------
// Thread ordinals
// ---------------------------------------------------------------------------

static NEXT_THREAD_ORDINAL: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_ORDINAL: u32 = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
}

/// A small dense process-unique id for the calling thread, stable for
/// the thread's lifetime. Used instead of `std::thread::ThreadId`
/// because the flight format wants a compact fixed-width integer.
pub fn thread_ordinal() -> u32 {
    THREAD_ORDINAL.try_with(|o| *o).unwrap_or(u32::MAX)
}

// ---------------------------------------------------------------------------
// Seqlock ring
// ---------------------------------------------------------------------------

/// One published event slot: a seqlock version word plus five payload
/// words (`seq`, `at_nanos`, packed `thread|kind|code`, `a`, `b`).
struct Slot {
    version: AtomicU64,
    words: [AtomicU64; 5],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn pack_meta(thread: u32, kind: u8, code: u16) -> u64 {
    ((thread as u64) << 32) | ((kind as u64) << 16) | code as u64
}

fn unpack_meta(word: u64) -> (u32, u8, u16) {
    ((word >> 32) as u32, (word >> 16) as u8, word as u16)
}

struct Ring {
    thread: u32,
    slots: Vec<Slot>,
    /// Next write position; only the owning thread stores it, drainers
    /// never read it (they scan every slot).
    pos: AtomicUsize,
}

impl Ring {
    fn new(thread: u32) -> Ring {
        Ring {
            thread,
            slots: (0..RING_CAPACITY).map(|_| Slot::new()).collect(),
            pos: AtomicUsize::new(0),
        }
    }

    /// Publishes one event. Owner thread only; wait-free.
    fn push(&self, seq: u64, at_nanos: u64, kind: u8, code: u16, a: u64, b: u64) {
        // lint:allow(sync: "single-writer cursor: only the owning thread loads and advances pos; drainers scan every slot instead")
        let pos = self.pos.load(Ordering::Relaxed);
        // lint:allow(sync: "single-writer cursor, see above; a fetch_add would buy nothing but a locked RMW on the hot path")
        self.pos.store(pos.wrapping_add(1), Ordering::Relaxed);
        let Some(slot) = self.slots.get(pos % RING_CAPACITY) else {
            return; // unreachable: pos is reduced mod the fixed capacity
        };
        // lint:allow(sync: "seqlock writer side: version is only ever stored by this thread; readers pair their Acquire loads against the Release stores below")
        let v = slot.version.load(Ordering::Relaxed);
        // Odd = write in progress. The payload release stores below
        // order this store before any payload word a reader observes.
        // lint:allow(sync: "seqlock odd-mark: ordered before the payload by the payload's own Release stores; single writer, so the RMW cannot lose an update")
        slot.version.store(v.wrapping_add(1), Ordering::Relaxed);
        let [w_seq, w_at, w_meta, w_a, w_b] = &slot.words;
        w_seq.store(seq, Ordering::Release);
        w_at.store(at_nanos, Ordering::Release);
        w_meta.store(pack_meta(self.thread, kind, code), Ordering::Release);
        w_a.store(a, Ordering::Release);
        w_b.store(b, Ordering::Release);
        // lint:allow(sync: "seqlock even-mark: Release publishes the payload; single writer, so the read-modify-write cannot race itself")
        slot.version.store(v.wrapping_add(2), Ordering::Release);
    }

    /// Reads every consistently published slot. Safe from any thread;
    /// torn slots (odd or changed version) are skipped, not misread.
    fn drain_into(&self, out: &mut Vec<FlightRecord>) {
        for slot in &self.slots {
            for _attempt in 0..4 {
                let v1 = slot.version.load(Ordering::Acquire);
                if v1 == 0 || v1 & 1 == 1 {
                    if v1 == 0 {
                        break; // never written
                    }
                    continue; // mid-publish, retry
                }
                let [w_seq, w_at, w_meta, w_a, w_b] = &slot.words;
                let seq = w_seq.load(Ordering::Acquire);
                let at = w_at.load(Ordering::Acquire);
                let meta = w_meta.load(Ordering::Acquire);
                let a = w_a.load(Ordering::Acquire);
                let b = w_b.load(Ordering::Acquire);
                let v2 = slot.version.load(Ordering::Acquire);
                if v1 == v2 {
                    let (thread, kind, code) = unpack_meta(meta);
                    out.push(FlightRecord {
                        seq,
                        at_nanos: at,
                        thread,
                        kind,
                        code,
                        a,
                        b,
                    });
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Global registry + orphans
// ---------------------------------------------------------------------------

/// Global causal sequence; claimed before the event is published.
static SEQ: AtomicU64 = AtomicU64::new(1);

static DUMPS: AtomicU64 = AtomicU64::new(0);

static ERROR_DUMP_ARMED: AtomicBool = AtomicBool::new(false);

static LAST_ERROR_DUMP: AtomicU64 = AtomicU64::new(0);

fn rings() -> &'static Mutex<Vec<Weak<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Weak<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn orphans() -> &'static Mutex<Vec<FlightRecord>> {
    static ORPHANS: OnceLock<Mutex<Vec<FlightRecord>>> = OnceLock::new();
    ORPHANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn last_dump_slot() -> &'static Mutex<Option<Vec<u8>>> {
    static LAST: OnceLock<Mutex<Option<Vec<u8>>>> = OnceLock::new();
    LAST.get_or_init(|| Mutex::new(None))
}

/// Owns a thread's ring; flushes surviving events to the orphan buffer
/// on thread exit so they outlive the thread until the next drain.
struct RingHandle {
    ring: Arc<Ring>,
}

impl Drop for RingHandle {
    fn drop(&mut self) {
        let mut flushed = Vec::new();
        self.ring.drain_into(&mut flushed);
        if flushed.is_empty() {
            return;
        }
        if let Ok(mut orphans) = orphans().lock() {
            orphans.extend(flushed);
            if orphans.len() > MAX_ORPHANS {
                orphans.sort_by_key(|r| r.seq);
                let excess = orphans.len() - MAX_ORPHANS;
                orphans.drain(..excess);
            }
        }
    }
}

thread_local! {
    static LOCAL_RING: RingHandle = {
        let ring = Arc::new(Ring::new(thread_ordinal()));
        if let Ok(mut rings) = rings().lock() {
            rings.retain(|w| w.strong_count() > 0);
            rings.push(Arc::downgrade(&ring));
        }
        RingHandle { ring }
    };
}

/// Records one event into the calling thread's ring. Wait-free on the
/// hot path (one global `fetch_add` plus six atomic stores); during
/// thread teardown the event is silently dropped rather than blocking.
pub fn record(kind: FlightKind, code: u16, a: u64, b: u64) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let at = clock::now_nanos();
    let _ = LOCAL_RING.try_with(|handle| {
        handle.ring.push(seq, at, kind as u8, code, a, b);
    });
}

/// Total events recorded since process start.
pub fn events_recorded() -> u64 {
    SEQ.load(Ordering::Relaxed).saturating_sub(1)
}

/// Dumps taken since process start (on-demand, SLO breach, or error).
pub fn dumps_taken() -> u64 {
    DUMPS.load(Ordering::Relaxed)
}

/// Per-thread rings currently alive.
pub fn live_rings() -> u64 {
    rings()
        .lock()
        .map(|rings| rings.iter().filter(|w| w.strong_count() > 0).count() as u64)
        .unwrap_or(0)
}

/// Snapshots every live ring plus the orphan buffer into one
/// causally-ordered (ascending global sequence) event list. Does not
/// clear the rings: a snapshot is a read, not a drain, so overlapping
/// dumps each see the full retained history.
pub fn snapshot() -> Vec<FlightRecord> {
    let mut out = Vec::new();
    let ring_handles: Vec<Arc<Ring>> = rings()
        .lock()
        .map(|rings| rings.iter().filter_map(|w| w.upgrade()).collect())
        .unwrap_or_default();
    for ring in ring_handles {
        ring.drain_into(&mut out);
    }
    if let Ok(orphans) = orphans().lock() {
        out.extend(orphans.iter().cloned());
    }
    out.sort_by_key(|r| r.seq);
    out.dedup_by_key(|r| r.seq);
    out
}

// ---------------------------------------------------------------------------
// Dump codec (ledger::storage::codec idiom: big-endian, CRC32 trailer)
// ---------------------------------------------------------------------------

/// Decode failure: truncation, bad magic, CRC mismatch, or an
/// out-of-bounds count. The message says which.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpError(pub String);

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flight dump decode error: {}", self.0)
    }
}

impl std::error::Error for DumpError {}

/// A decoded incident dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Why the dump was taken (`"on-demand"`, `"slo breach: …"`, …).
    pub reason: String,
    /// When the dump was taken ([`crate::clock::now_nanos`]).
    pub dumped_at_nanos: u64,
    /// The events, ascending by `seq`.
    pub records: Vec<FlightRecord>,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DumpError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| DumpError(format!("truncated {what}")))?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| DumpError(format!("truncated {what}")))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, DumpError> {
        Ok(self.take(1, what)?.first().copied().unwrap_or(0))
    }

    fn u16(&mut self, what: &str) -> Result<u16, DumpError> {
        let mut buf = [0u8; 2];
        buf.copy_from_slice(self.take(2, what)?);
        Ok(u16::from_be_bytes(buf))
    }

    fn u32(&mut self, what: &str) -> Result<u32, DumpError> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4, what)?);
        Ok(u32::from_be_bytes(buf))
    }

    fn u64(&mut self, what: &str) -> Result<u64, DumpError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8, what)?);
        Ok(u64::from_be_bytes(buf))
    }
}

fn encode_payload(reason: &str, dumped_at_nanos: u64, records: &[FlightRecord]) -> Vec<u8> {
    let reason_bytes = reason.as_bytes();
    let reason = reason_bytes
        .get(..reason_bytes.len().min(MAX_REASON_LEN))
        .unwrap_or(reason_bytes);
    let mut out = Vec::with_capacity(24 + reason.len() + records.len() * 39);
    put_u32(&mut out, 1); // format version
    put_u32(&mut out, reason.len() as u32);
    out.extend_from_slice(reason);
    put_u64(&mut out, dumped_at_nanos);
    put_u32(&mut out, records.len().min(MAX_DUMP_EVENTS) as u32);
    for r in records.iter().take(MAX_DUMP_EVENTS) {
        put_u64(&mut out, r.seq);
        put_u64(&mut out, r.at_nanos);
        put_u32(&mut out, r.thread);
        out.push(r.kind);
        put_u16(&mut out, r.code);
        put_u64(&mut out, r.a);
        put_u64(&mut out, r.b);
    }
    out
}

/// Encodes records into the dump format: `TDTFREC1` magic, big-endian
/// payload, CRC32 trailer over the payload.
pub fn encode_dump(reason: &str, dumped_at_nanos: u64, records: &[FlightRecord]) -> Vec<u8> {
    let payload = encode_payload(reason, dumped_at_nanos, records);
    let mut out = Vec::with_capacity(DUMP_MAGIC.len() + payload.len() + 4);
    out.extend_from_slice(DUMP_MAGIC);
    out.extend_from_slice(&payload);
    put_u32(&mut out, crc32(&payload));
    out
}

/// Re-encodes records with nondeterministic fields normalized (seq
/// renumbered from 1 preserving order, timestamps and thread ordinals
/// zeroed), for byte-identical comparison of same-seed replays.
pub fn canonical_dump_bytes(reason: &str, records: &[FlightRecord]) -> Vec<u8> {
    let canonical: Vec<FlightRecord> = records
        .iter()
        .enumerate()
        .map(|(i, r)| FlightRecord {
            seq: i as u64 + 1,
            at_nanos: 0,
            thread: 0,
            kind: r.kind,
            code: r.code,
            a: r.a,
            b: r.b,
        })
        .collect();
    encode_dump(reason, 0, &canonical)
}

/// Decodes a dump, validating magic, CRC trailer, and bounds.
///
/// # Errors
///
/// [`DumpError`] on bad magic, truncation, CRC mismatch, or a count
/// that exceeds the dump limits.
pub fn decode_dump(bytes: &[u8]) -> Result<FlightDump, DumpError> {
    if bytes.len() < DUMP_MAGIC.len() + 4 {
        return Err(DumpError("shorter than magic + trailer".into()));
    }
    if !bytes.starts_with(DUMP_MAGIC) {
        return Err(DumpError("bad magic".into()));
    }
    let (framed, trailer) = bytes.split_at(bytes.len() - 4);
    let payload = framed.get(DUMP_MAGIC.len()..).unwrap_or_default();
    let mut trailer_buf = [0u8; 4];
    trailer_buf.copy_from_slice(trailer);
    let want = u32::from_be_bytes(trailer_buf);
    let got = crc32(payload);
    if want != got {
        return Err(DumpError(format!(
            "crc mismatch: {want:#010x} != {got:#010x}"
        )));
    }
    let mut r = Reader::new(payload);
    let version = r.u32("version")?;
    if version != 1 {
        return Err(DumpError(format!("unsupported version {version}")));
    }
    let reason_len = r.u32("reason length")? as usize;
    if reason_len > MAX_REASON_LEN {
        return Err(DumpError(format!("reason length {reason_len} exceeds cap")));
    }
    let reason = String::from_utf8(r.take(reason_len, "reason")?.to_vec())
        .map_err(|_| DumpError("reason is not utf-8".into()))?;
    let dumped_at_nanos = r.u64("dump timestamp")?;
    let count = r.u32("event count")? as usize;
    if count > MAX_DUMP_EVENTS {
        return Err(DumpError(format!("event count {count} exceeds cap")));
    }
    let mut records = Vec::with_capacity(count.min(4096));
    for i in 0..count {
        let what = format!("event {i}");
        records.push(FlightRecord {
            seq: r.u64(&what)?,
            at_nanos: r.u64(&what)?,
            thread: r.u32(&what)?,
            kind: r.u8(&what)?,
            code: r.u16(&what)?,
            a: r.u64(&what)?,
            b: r.u64(&what)?,
        });
    }
    if r.pos != payload.len() {
        return Err(DumpError(format!(
            "{} trailing bytes after events",
            payload.len() - r.pos
        )));
    }
    Ok(FlightDump {
        reason,
        dumped_at_nanos,
        records,
    })
}

// ---------------------------------------------------------------------------
// Dump triggers
// ---------------------------------------------------------------------------

/// Snapshots all rings and encodes an incident dump. The encoded bytes
/// are also retained as the process's last dump ([`last_dump`]).
pub fn dump(reason: &str) -> Vec<u8> {
    let records = snapshot();
    let bytes = encode_dump(reason, clock::now_nanos(), &records);
    DUMPS.fetch_add(1, Ordering::Relaxed);
    if let Ok(mut last) = last_dump_slot().lock() {
        *last = Some(bytes.clone());
    }
    bytes
}

/// The most recent dump taken by any trigger, if one exists.
pub fn last_dump() -> Option<Vec<u8>> {
    last_dump_slot().lock().ok().and_then(|slot| slot.clone())
}

/// Arms (or disarms) automatic dumps when a span closes with error
/// status. Disarmed by default: error spans are routine in chaos and
/// negative tests, so auto-dumping is an operator opt-in.
pub fn arm_error_dump(enabled: bool) {
    // lint:allow(sync: "freestanding config flag: no dependent data is published through it, a dump fired one beat early or late is equally valid")
    ERROR_DUMP_ARMED.store(enabled, Ordering::Relaxed);
}

/// Takes a dump for an error-status span if armed and outside the
/// cooldown window. Called by the span plane on error close.
pub fn maybe_error_dump(reason: &str) {
    // lint:allow(sync: "freestanding config flag, see arm_error_dump: the dump content comes from the rings, not from data ordered by this flag")
    if !ERROR_DUMP_ARMED.load(Ordering::Relaxed) {
        return;
    }
    let now = clock::now_nanos();
    let last = LAST_ERROR_DUMP.load(Ordering::Relaxed);
    if now.saturating_sub(last) < ERROR_DUMP_COOLDOWN_NANOS {
        return;
    }
    if LAST_ERROR_DUMP
        .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        let _ = dump(&format!("error status: {reason}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_roundtrip() {
        record(FlightKind::Mark, 7, 0xdead, 0xbeef);
        record(FlightKind::Mark, 8, 1, 2);
        let snap = snapshot();
        let marks: Vec<_> = snap
            .iter()
            .filter(|r| r.kind == FlightKind::Mark as u8 && (r.code == 7 || r.code == 8))
            .collect();
        assert!(marks.len() >= 2, "both marks visible in snapshot");
        // Causal order: ascending seq.
        for pair in snap.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        for i in 0..(RING_CAPACITY as u64 + 64) {
            record(FlightKind::Mark, 100, i, 0);
        }
        let snap = snapshot();
        let newest = snap
            .iter()
            .filter(|r| r.kind == FlightKind::Mark as u8 && r.code == 100)
            .map(|r| r.a)
            .max()
            .expect("marks survive wrap");
        assert_eq!(newest, RING_CAPACITY as u64 + 63);
    }

    #[test]
    fn dump_encode_decode_roundtrip() {
        let records = vec![
            FlightRecord {
                seq: 1,
                at_nanos: 10,
                thread: 3,
                kind: FlightKind::Chaos as u8,
                code: 2,
                a: 42,
                b: 7,
            },
            FlightRecord {
                seq: 2,
                at_nanos: 20,
                thread: 4,
                kind: FlightKind::Slo as u8,
                code: 1,
                a: 12_000,
                b: 0,
            },
        ];
        let bytes = encode_dump("unit test", 99, &records);
        let dump = decode_dump(&bytes).expect("decode");
        assert_eq!(dump.reason, "unit test");
        assert_eq!(dump.dumped_at_nanos, 99);
        assert_eq!(dump.records, records);
        assert_eq!(dump.records[0].kind_name(), "chaos");
    }

    #[test]
    fn decode_rejects_corruption_and_truncation() {
        let bytes = encode_dump("x", 1, &[]);
        assert!(decode_dump(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(decode_dump(&flipped).is_err(), "bit flip must fail CRC");
        let mut bad_magic = bytes;
        bad_magic[0] ^= 0xff;
        assert!(decode_dump(&bad_magic).is_err(), "bad magic");
    }

    #[test]
    fn canonical_bytes_are_deterministic() {
        let a = vec![FlightRecord {
            seq: 900,
            at_nanos: 123,
            thread: 9,
            kind: FlightKind::Chaos as u8,
            code: 1,
            a: 5,
            b: 6,
        }];
        let b = vec![FlightRecord {
            seq: 77,
            at_nanos: 456_000,
            thread: 2,
            kind: FlightKind::Chaos as u8,
            code: 1,
            a: 5,
            b: 6,
        }];
        assert_eq!(
            canonical_dump_bytes("r", &a),
            canonical_dump_bytes("r", &b),
            "canonical form erases timing and thread identity"
        );
    }

    #[test]
    fn dump_trigger_retains_last() {
        record(FlightKind::Mark, 55, 1, 2);
        let bytes = dump("trigger test");
        assert_eq!(last_dump().as_deref(), Some(bytes.as_slice()));
        let decoded = decode_dump(&bytes).expect("self dump decodes");
        assert_eq!(decoded.reason, "trigger test");
        assert!(dumps_taken() >= 1);
    }

    #[test]
    fn cross_thread_events_merge_in_order() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..64u64 {
                        record(FlightKind::Mark, 200 + t, i, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Worker threads exited: their events live on as orphans.
        let snap = snapshot();
        for t in 0..4u16 {
            let n = snap
                .iter()
                .filter(|r| r.kind == FlightKind::Mark as u8 && r.code == 200 + t)
                .count();
            assert_eq!(n, 64, "thread {t} events survive thread exit");
        }
    }
}
