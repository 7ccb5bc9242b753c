//! Scoped sampling profiler: explicit scope tags, a wall-clock sampler
//! thread, and flamegraph-compatible folded-stack export — no stack
//! unwinding, no frame pointers, no external dependencies.
//!
//! Hot paths mark themselves with [`crate::profile_scope!`], which
//! pushes an interned tag id onto a per-thread scope stack (two relaxed
//! atomic stores) and pops it on scope exit. A sampler thread started
//! with [`start`] (or the one-shot [`sample_for`]) walks every
//! registered thread's stack at a configurable frequency and
//! accumulates each observed tag path into a weighted tree. The result
//! renders as folded stacks (`relay.dispatch;crypto.modexp 42`), the
//! input format of every flamegraph tool.
//!
//! ## Sampler safety argument
//!
//! The sampler reads other threads' stacks without stopping them. All
//! shared state is atomic: `depth` is published with a release store
//! after the tag word is written, and read with acquire, so a sampled
//! prefix `tags[..depth]` always contains fully written tag ids. A
//! concurrent push/pop between the depth read and the tag reads can
//! misattribute *that one sample* to a sibling scope — an inherent,
//! bounded sampling error (at most one frame per sample), never a torn
//! id or undefined behavior. Tag ids resolve through an intern table
//! that only grows, so a sampled id is always decodable.
//!
//! The writer cost is two relaxed/release stores per scope entry and
//! one per exit; the sampler's cost is proportional to sampling
//! frequency, not workload, so profiling overhead at the default 19 Hz
//! is far below the 3% budget (measured in EXPERIMENTS.md E21).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Deepest scope nesting the stack tracks; deeper scopes still count
/// toward depth but are not attributed (the sampler clamps).
pub const MAX_DEPTH: usize = 32;

/// Default sampling frequency (prime, to avoid phase-locking with
/// periodic workloads).
pub const DEFAULT_HZ: u64 = 19;

// ---------------------------------------------------------------------------
// Name interning (profile tags and span names share one table)
// ---------------------------------------------------------------------------

/// A statically declared scope tag. Declare one per call site (the
/// [`crate::profile_scope!`] macro does this) so the intern lookup is
/// paid once per site, after which entering the scope is a single
/// relaxed load plus two stores.
pub struct ProfileTag {
    name: &'static str,
    id: AtomicU32,
}

impl ProfileTag {
    /// Declares a tag. `const`, so it can live in a `static`.
    pub const fn new(name: &'static str) -> ProfileTag {
        ProfileTag {
            name,
            id: AtomicU32::new(0),
        }
    }

    /// The tag's interned id (1-based), interning on first use.
    pub fn id(&'static self) -> u32 {
        // lint:allow(sync: "id is write-once, zero to interned, and the value itself is the entire payload; name resolution goes through the tag_names mutex, not through this word")
        let id = self.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let id = intern(self.name);
        // lint:allow(sync: "idempotent: intern returns one id per name, so racing first users all store the same value")
        self.id.store(id, Ordering::Relaxed);
        id
    }
}

/// The crate's one name table, shared by profile tags and span names;
/// an id is a 1-based index into it. It only grows, so an id read from a
/// stack or a flight record always resolves.
fn tag_names() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Resolves an interned tag id back to its name (`None` for ids never
/// interned — possible only for a zero or corrupted id).
pub fn tag_name(id: u32) -> Option<&'static str> {
    if id == 0 {
        return None;
    }
    tag_names()
        .lock()
        .ok()
        .and_then(|names| names.get(id as usize - 1).copied())
}

/// Entries in the lock-free front of the name table. A name that finds
/// no free entry still interns correctly, through the mutex every time.
const FRONT_SLOTS: usize = 256;

/// One write-once front entry: where a name's bytes live, and its length
/// and id packed `len << 32 | id`. `addr` is stored last, with Release.
struct FrontSlot {
    addr: AtomicUsize,
    len_id: AtomicU64,
}

/// Names already in [`tag_names`], keyed by address (open addressing,
/// linear probing), so looking one up again takes no lock.
static FRONT: [FrontSlot; FRONT_SLOTS] = [const {
    FrontSlot {
        addr: AtomicUsize::new(0),
        len_id: AtomicU64::new(0),
    }
}; FRONT_SLOTS];

/// `Ok(id)` when `name` is in the front, else the free entry it would
/// take (`None` when the front is full).
fn front_lookup(name: &'static str) -> Result<u32, Option<&'static FrontSlot>> {
    let addr = name.as_ptr() as usize;
    let hash = (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    let (wrapped, first) = FRONT.split_at(hash as usize % FRONT_SLOTS);
    for slot in first.iter().chain(wrapped) {
        match slot.addr.load(Ordering::Acquire) {
            0 => return Err(Some(slot)),
            a if a == addr => {
                let len_id = slot.len_id.load(Ordering::Acquire);
                if len_id >> 32 == name.len() as u64 {
                    return Ok(len_id as u32);
                }
            }
            _ => {}
        }
    }
    Err(None)
}

/// The interned id (1-based) of `name`. After a name's first use this is
/// a few Acquire loads: span names arrive as bare `&'static str`s with no
/// per-site static to cache the id in, so the front stands in for one.
pub fn intern(name: &'static str) -> u32 {
    front_lookup(name).unwrap_or_else(|_| intern_slow(name))
}

#[cold]
fn intern_slow(name: &'static str) -> u32 {
    let mut names = tag_names().lock().unwrap_or_else(|e| e.into_inner());
    let id = match names.iter().position(|n| *n == name) {
        Some(index) => index as u32 + 1,
        None => {
            names.push(name);
            names.len() as u32
        }
    };
    // Still under the lock, so each front entry has one writer at a time.
    if let Err(Some(slot)) = front_lookup(name) {
        slot.len_id
            .store((name.len() as u64) << 32 | u64::from(id), Ordering::Release);
        slot.addr.store(name.as_ptr() as usize, Ordering::Release);
    }
    id
}

// ---------------------------------------------------------------------------
// Per-thread scope stacks
// ---------------------------------------------------------------------------

/// One thread's scope-tag stack, readable by the sampler.
struct ScopeStack {
    depth: AtomicUsize,
    tags: [AtomicU32; MAX_DEPTH],
}

impl ScopeStack {
    fn new() -> ScopeStack {
        ScopeStack {
            depth: AtomicUsize::new(0),
            tags: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }
}

fn stacks() -> &'static Mutex<Vec<Weak<ScopeStack>>> {
    static STACKS: OnceLock<Mutex<Vec<Weak<ScopeStack>>>> = OnceLock::new();
    STACKS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_STACK: Arc<ScopeStack> = {
        let stack = Arc::new(ScopeStack::new());
        if let Ok(mut stacks) = stacks().lock() {
            stacks.retain(|w| w.strong_count() > 0);
            stacks.push(Arc::downgrade(&stack));
        }
        stack
    };
}

/// Pops the scope on drop. Holding the `Arc` keeps the stack readable
/// even while the owning thread is tearing down.
pub struct ScopeGuard {
    stack: Option<Arc<ScopeStack>>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(stack) = &self.stack {
            // lint:allow(sync: "single-writer stack: only the owning thread pushes/pops depth; the sampler is a pure reader that tolerates a one-frame stale view")
            let depth = stack.depth.load(Ordering::Relaxed);
            let popped = depth.saturating_sub(1);
            // lint:allow(sync: "single-writer pop, see above; the Release pairs with the sampler's Acquire so tags above the new depth are never misread as live")
            stack.depth.store(popped, Ordering::Release);
        }
    }
}

/// Enters a profiling scope: pushes the tag onto the calling thread's
/// stack until the returned guard drops. Prefer the
/// [`crate::profile_scope!`] macro, which declares the static tag for
/// you.
pub fn enter(tag: &'static ProfileTag) -> ScopeGuard {
    let id = tag.id();
    let stack = match LOCAL_STACK.try_with(Arc::clone) {
        Ok(stack) => stack,
        Err(_) => return ScopeGuard { stack: None }, // thread teardown
    };
    // lint:allow(sync: "single-writer stack: only the owning thread pushes/pops depth, so the load/store pair cannot lose an update")
    let depth = stack.depth.load(Ordering::Relaxed);
    if depth < MAX_DEPTH {
        if let Some(tag_word) = stack.tags.get(depth) {
            tag_word.store(id, Ordering::Relaxed);
        }
    }
    // Release-publish the new depth *after* the tag word, so a sampler
    // that observes the depth also observes the tag.
    // lint:allow(sync: "single-writer push, see above; Release pairs with the sampler's Acquire on depth")
    stack.depth.store(depth + 1, Ordering::Release);
    ScopeGuard { stack: Some(stack) }
}

/// Marks a profiling scope until the end of the enclosing block.
///
/// ```
/// fn hot_path() {
///     tdt_obs::profile_scope!("relay.dispatch");
///     // … work sampled under "relay.dispatch" …
/// }
/// ```
#[macro_export]
macro_rules! profile_scope {
    ($name:literal) => {
        static __TDT_PROFILE_TAG: $crate::profile::ProfileTag =
            $crate::profile::ProfileTag::new($name);
        let _tdt_profile_guard = $crate::profile::enter(&__TDT_PROFILE_TAG);
    };
}

// ---------------------------------------------------------------------------
// Accumulation + folded export
// ---------------------------------------------------------------------------

/// Total stack observations taken by any sampler since process start.
static SAMPLES_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Total stack observations taken by any sampler since process start
/// (exported as `tdt_obs_profile_samples_total`).
pub fn samples_total() -> u64 {
    SAMPLES_TOTAL.load(Ordering::Relaxed)
}

/// Aggregates observed tag paths into a weighted tree (keyed by the
/// full path). Decoupled from the sampler so tests can drive it with
/// synthetic observations.
#[derive(Debug, Default)]
pub struct Accumulator {
    weights: BTreeMap<Vec<u32>, u64>,
    samples: u64,
    idle: u64,
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Accumulator {
        Accumulator::default()
    }

    /// Records one observation of a non-empty tag path.
    pub fn observe(&mut self, path: &[u32]) {
        if path.is_empty() {
            self.idle += 1;
            return;
        }
        *self.weights.entry(path.to_vec()).or_insert(0) += 1;
        self.samples += 1;
    }

    /// Finishes into a report, resolving tag ids to names.
    pub fn finish(self) -> ProfileReport {
        let mut folded = BTreeMap::new();
        for (path, weight) in self.weights {
            let line = path
                .iter()
                .map(|&id| tag_name(id).unwrap_or("?"))
                .collect::<Vec<_>>()
                .join(";");
            *folded.entry(line).or_insert(0) += weight;
        }
        ProfileReport {
            samples: self.samples,
            idle: self.idle,
            folded,
        }
    }
}

/// A finished profile: weighted scope paths plus sample accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Observations that caught at least one open scope. Equals the sum
    /// of all folded weights.
    pub samples: u64,
    /// Observations of threads with no open scope.
    pub idle: u64,
    /// `path → weight`, path rendered as `tag;tag;tag`.
    pub folded: BTreeMap<String, u64>,
}

impl ProfileReport {
    /// Renders the report as folded stacks, one `path weight` line per
    /// path — the input format of flamegraph tools.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (path, weight) in &self.folded {
            out.push_str(path);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

/// Parses folded-stack text back into `(path frames, weight)` rows.
///
/// # Errors
///
/// A line-numbered message for a line without a weight, a non-numeric
/// weight, or an empty frame.
pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        let (path, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no weight separator"))?;
        let weight: u64 = weight
            .parse()
            .map_err(|_| format!("line {n}: non-numeric weight {weight:?}"))?;
        let frames: Vec<String> = path.split(';').map(str::to_string).collect();
        if frames.iter().any(String::is_empty) {
            return Err(format!("line {n}: empty frame in {path:?}"));
        }
        rows.push((frames, weight));
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// Takes one observation of every registered thread's stack.
fn walk_once(acc: &mut Accumulator) {
    let live: Vec<Arc<ScopeStack>> = stacks()
        .lock()
        .map(|stacks| stacks.iter().filter_map(|w| w.upgrade()).collect())
        .unwrap_or_default();
    let mut path = Vec::with_capacity(MAX_DEPTH);
    for stack in live {
        let depth = stack.depth.load(Ordering::Acquire).min(MAX_DEPTH);
        path.clear();
        for slot in stack.tags.iter().take(depth) {
            let id = slot.load(Ordering::Relaxed);
            if id == 0 {
                break; // racing push: attribute the stable prefix only
            }
            path.push(id);
        }
        acc.observe(&path);
        SAMPLES_TOTAL.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running sampler; stop it to collect the report.
pub struct ProfilerHandle {
    stop: Arc<AtomicBool>,
    /// `None` when the sampler thread failed to spawn: stopping then
    /// yields an empty report instead of panicking.
    join: Option<std::thread::JoinHandle<Accumulator>>,
}

impl ProfilerHandle {
    /// Stops the sampler thread and returns the finished report (empty
    /// if the sampler thread could not be spawned or panicked).
    pub fn stop(self) -> ProfileReport {
        self.stop.store(true, Ordering::Relaxed);
        match self.join.map(std::thread::JoinHandle::join) {
            Some(Ok(acc)) => acc.finish(),
            Some(Err(_)) | None => Accumulator::new().finish(),
        }
    }
}

/// Starts a sampler thread at `hz` observations per second per thread
/// (clamped to 1..=1000).
pub fn start(hz: u64) -> ProfilerHandle {
    let hz = hz.clamp(1, 1000);
    let period = Duration::from_nanos(1_000_000_000 / hz);
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("tdt-profiler".into())
        .spawn(move || {
            let mut acc = Accumulator::new();
            let mut next = Instant::now() + period;
            while !stop_flag.load(Ordering::Relaxed) {
                walk_once(&mut acc);
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                }
                next += period;
                // If we fell behind (scheduler hiccup), skip ahead
                // rather than bursting to catch up.
                if next < Instant::now() {
                    next = Instant::now() + period;
                }
            }
            acc
        })
        .ok();
    ProfilerHandle { stop, join }
}

/// Samples for `duration` at `hz` and returns the report. Blocks the
/// calling thread (the sampling happens on a dedicated thread).
pub fn sample_for(duration: Duration, hz: u64) -> ProfileReport {
    let handle = start(hz);
    std::thread::sleep(duration);
    handle.stop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_intern_once() {
        static TAG: ProfileTag = ProfileTag::new("test.intern");
        let a = TAG.id();
        let b = TAG.id();
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_eq!(tag_name(a), Some("test.intern"));
        assert_eq!(tag_name(0), None);
        // Same text at another address: the front misses, the table
        // matches by content, and the second lookup hits the front.
        let copy: &'static str = Box::leak(String::from("test.intern").into_boxed_str());
        assert_eq!((intern(copy), intern(copy)), (a, a));
    }

    #[test]
    fn scope_guard_pushes_and_pops() {
        static OUTER: ProfileTag = ProfileTag::new("test.outer");
        static INNER: ProfileTag = ProfileTag::new("test.inner");
        let base = LOCAL_STACK.with(|s| s.depth.load(Ordering::Relaxed));
        {
            let _o = enter(&OUTER);
            assert_eq!(
                LOCAL_STACK.with(|s| s.depth.load(Ordering::Relaxed)),
                base + 1
            );
            {
                let _i = enter(&INNER);
                assert_eq!(
                    LOCAL_STACK.with(|s| s.depth.load(Ordering::Relaxed)),
                    base + 2
                );
            }
            assert_eq!(
                LOCAL_STACK.with(|s| s.depth.load(Ordering::Relaxed)),
                base + 1
            );
        }
        assert_eq!(LOCAL_STACK.with(|s| s.depth.load(Ordering::Relaxed)), base);
    }

    #[test]
    fn sampler_sees_a_busy_scope() {
        let stop = Arc::new(AtomicBool::new(false));
        let worker_stop = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            profile_scope!("test.busy_loop");
            while !worker_stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let report = sample_for(Duration::from_millis(300), 97);
        stop.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        let busy: u64 = report
            .folded
            .iter()
            .filter(|(path, _)| path.contains("test.busy_loop"))
            .map(|(_, w)| *w)
            .sum();
        assert!(busy > 0, "sampler must observe the busy scope: {report:?}");
        let total: u64 = report.folded.values().sum();
        assert_eq!(total, report.samples, "weights sum to sample count");
    }

    #[test]
    fn folded_text_parses_back() {
        let mut acc = Accumulator::new();
        static A: ProfileTag = ProfileTag::new("fold.a");
        static B: ProfileTag = ProfileTag::new("fold.b");
        let (a, b) = (A.id(), B.id());
        acc.observe(&[a]);
        acc.observe(&[a, b]);
        acc.observe(&[a, b]);
        acc.observe(&[]);
        let report = acc.finish();
        assert_eq!(report.samples, 3);
        assert_eq!(report.idle, 1);
        let text = report.folded_text();
        let rows = parse_folded(&text).expect("parse folded");
        let total: u64 = rows.iter().map(|(_, w)| w).sum();
        assert_eq!(total, report.samples);
        assert!(rows
            .iter()
            .any(|(frames, w)| frames == &vec!["fold.a".to_string(), "fold.b".into()] && *w == 2));
    }

    #[test]
    fn parse_folded_rejects_malformed() {
        assert!(parse_folded("noweight\n").is_err());
        assert!(parse_folded("a;b notanumber\n").is_err());
        assert!(parse_folded("a;;b 3\n").is_err());
        assert!(parse_folded("").unwrap().is_empty());
    }
}
