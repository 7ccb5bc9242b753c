//! Spans: per-hop measurements recorded into the flight recorder, and the
//! view that reads them back.
//!
//! A [`Span`] measures one hop of the query path; started from a
//! non-recording context it is inert. A recording span is a handle (span
//! id, start time, failed flag) with no storage of its own: starting it
//! writes a `SpanOpen` record (interned name, span and parent ids, trace
//! id) into the calling thread's [`crate::flight`] ring, [`Span::event`]
//! writes a `SpanEvent` (`retry.attempt`, `hedge.fired`, `chaos.fault`,
//! ...), and drop writes `SpanClose` or `SpanFail` with the duration —
//! wait-free slot writes, no allocation.
//!
//! [`snapshot_spans`] and [`spans_for_trace`] are a non-destructive view
//! over [`crate::flight::snapshot`]: each open is paired with its close by
//! span id and given the events in between. A span still open, or whose
//! open its ring has since overwritten, is left out — never half-reported.

use crate::clock::now_nanos;
use crate::flight::{self, FlightKind, FlightRecord};
use crate::trace::{ContextGuard, TraceContext};
use std::collections::HashMap;

/// Terminal status of a finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStatus {
    /// The hop completed without a recorded error.
    Ok,
    /// The hop failed.
    Error,
}

/// A named point-in-time marker inside a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event name, e.g. `retry.attempt`.
    pub name: &'static str,
    /// Nanoseconds on the process clock when the event fired.
    pub at_nanos: u64,
}

/// A finished span, as the view reassembles it from flight records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Hop name, e.g. `relay.query`.
    pub name: &'static str,
    /// High 64 bits of the owning trace id.
    pub trace_hi: u64,
    /// Low 64 bits of the owning trace id.
    pub trace_lo: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (zero for the root).
    pub parent_span_id: u64,
    /// Start timestamp on the process monotonic clock.
    pub start_nanos: u64,
    /// End timestamp on the process monotonic clock.
    pub end_nanos: u64,
    /// Named events recorded while the span was active, oldest first.
    pub events: Vec<SpanEvent>,
    /// Terminal status.
    pub status: SpanStatus,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    /// True when the span ended in [`SpanStatus::Error`].
    pub fn is_error(&self) -> bool {
        self.status == SpanStatus::Error
    }
}

/// The flight-record code for a span or event name: its id in the crate's
/// one intern table, or 0 ("unknown") past the `u16` range.
fn name_code(name: &'static str) -> u16 {
    u16::try_from(crate::profile::intern(name)).unwrap_or(0)
}

/// Every finished span in the flight recorder, oldest close first.
pub fn snapshot_spans() -> Vec<SpanRecord> {
    assemble(&flight::snapshot(), |_| true)
}

/// Every finished span of the given 128-bit trace id, oldest close first.
pub fn spans_for_trace(trace_hi: u64, trace_lo: u64) -> Vec<SpanRecord> {
    assemble(&flight::snapshot(), |open| {
        open.c == trace_hi && open.d == trace_lo
    })
}

/// Pairs each `SpanOpen` accepted by `wanted` with its close by span id,
/// attaching the events in between. `records` must ascend by `seq`.
fn assemble(records: &[FlightRecord], wanted: impl Fn(&FlightRecord) -> bool) -> Vec<SpanRecord> {
    let name = |code: u16| crate::profile::tag_name(code.into()).unwrap_or("?");
    let mut open: HashMap<u64, SpanRecord> = HashMap::new();
    let mut out = Vec::new();
    for r in records {
        match r.kind {
            k if k == FlightKind::SpanOpen as u8 && wanted(r) => {
                let span = SpanRecord {
                    name: name(r.code),
                    trace_hi: r.c,
                    trace_lo: r.d,
                    span_id: r.a,
                    parent_span_id: r.b,
                    start_nanos: r.at_nanos,
                    end_nanos: r.at_nanos,
                    events: Vec::new(),
                    status: SpanStatus::Ok,
                };
                open.insert(r.a, span);
            }
            k if k == FlightKind::SpanEvent as u8 => {
                if let Some(span) = open.get_mut(&r.a) {
                    let (name, at_nanos) = (name(r.code), r.at_nanos);
                    span.events.push(SpanEvent { name, at_nanos });
                }
            }
            k if k == FlightKind::SpanClose as u8 || k == FlightKind::SpanFail as u8 => {
                if let Some(mut span) = open.remove(&r.a) {
                    span.end_nanos = span.start_nanos.saturating_add(r.b);
                    if k == FlightKind::SpanFail as u8 {
                        span.status = SpanStatus::Error;
                    }
                    out.push(span);
                }
            }
            _ => {}
        }
    }
    out
}

/// An in-flight measurement of one hop.
///
/// Inert (all methods are no-ops) when started from a non-recording
/// context. A live span writes its close into the calling thread's flight
/// ring when dropped; [`Span::fail`] or [`RecordErr::record_err`] make
/// that close a failure.
#[derive(Debug)]
pub struct Span {
    /// `None` for an inert span.
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    span_id: u64,
    start_nanos: u64,
    failed: bool,
}

impl Span {
    /// Starts a span for `ctx`. Inert unless `ctx.is_recording()`.
    pub fn start(name: &'static str, ctx: &TraceContext) -> Span {
        if !ctx.is_recording() {
            return Span::inert();
        }
        let start_nanos = flight::record_wide(
            FlightKind::SpanOpen,
            name_code(name),
            [ctx.span_id, ctx.parent_span_id, ctx.trace_hi, ctx.trace_lo],
        );
        Span {
            live: Some(LiveSpan {
                span_id: ctx.span_id,
                start_nanos,
                failed: false,
            }),
        }
    }

    /// A span that records nothing.
    pub fn inert() -> Span {
        Span { live: None }
    }

    /// True when this span will actually be recorded.
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    /// Records a named point-in-time event on this span.
    pub fn event(&mut self, name: &'static str) {
        if let Some(live) = &self.live {
            flight::record(FlightKind::SpanEvent, name_code(name), live.span_id, 0);
        }
    }

    /// Marks the span as failed.
    pub fn fail(&mut self) {
        if let Some(live) = &mut self.live {
            live.failed = true;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let kind = if live.failed {
                FlightKind::SpanFail
            } else {
                FlightKind::SpanClose
            };
            let duration = now_nanos().saturating_sub(live.start_nanos);
            flight::record(kind, 0, live.span_id, duration);
        }
    }
}

/// Starts a child span of the context currently installed on this thread.
///
/// Returns the span plus a guard holding the child context installed, so
/// anything called while the guard lives nests under this span. With no
/// recording context installed, both are no-ops.
pub fn enter(name: &'static str) -> (Span, ContextGuard) {
    match TraceContext::current() {
        Some(parent) if parent.is_recording() => {
            let ctx = parent.child();
            let guard = ctx.install();
            (Span::start(name, &ctx), guard)
        }
        _ => (Span::inert(), ContextGuard::noop()),
    }
}

/// Starts a child span of an explicit remote parent context (one carried
/// in from the wire), installing the child context on this thread.
pub fn enter_remote(name: &'static str, remote: &TraceContext) -> (Span, ContextGuard) {
    if !remote.is_recording() {
        return (Span::inert(), ContextGuard::noop());
    }
    let ctx = remote.child();
    let guard = ctx.install();
    (Span::start(name, &ctx), guard)
}

/// Extension trait recording `Err` outcomes onto the active span.
///
/// `result.record_err(&mut span)` is the idiom the `lint` `obs` pass
/// checks for in relay entry points: it marks the span failed on the
/// `Err` arm and hands the result back unchanged either way.
pub trait RecordErr {
    /// Marks `span` failed when `self` is `Err`.
    #[must_use]
    fn record_err(self, span: &mut Span) -> Self;
}

impl<T, E> RecordErr for Result<T, E> {
    fn record_err(self, span: &mut Span) -> Self {
        if self.is_err() {
            span.fail();
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Barrier;

    #[test]
    fn span_records_on_drop() {
        let ctx = TraceContext::root();
        {
            let mut span = Span::start("test.hop", &ctx);
            span.event("test.event");
        }
        let spans = spans_for_trace(ctx.trace_hi, ctx.trace_lo);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "test.hop");
        assert_eq!(spans[0].span_id, ctx.span_id);
        assert_eq!(spans[0].events.len(), 1);
        assert_eq!(spans[0].events[0].name, "test.event");
        assert_eq!(spans[0].status, SpanStatus::Ok);
        assert!(spans[0].end_nanos >= spans[0].start_nanos);
    }

    #[test]
    fn unsampled_span_is_inert() {
        let ctx = TraceContext::unsampled_root();
        {
            let mut span = Span::start("test.quiet", &ctx);
            span.event("ignored");
            span.fail();
            assert!(!span.is_recording());
        }
        assert!(spans_for_trace(ctx.trace_hi, ctx.trace_lo).is_empty());
    }

    #[test]
    fn record_err_sets_error_status() {
        let ctx = TraceContext::root();
        {
            let mut span = Span::start("test.err", &ctx);
            let out: Result<(), String> = Err("boom".to_string()).record_err(&mut span);
            assert!(out.is_err());
        }
        let spans = spans_for_trace(ctx.trace_hi, ctx.trace_lo);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].status, SpanStatus::Error);
        assert!(spans[0].is_error());
    }

    #[test]
    fn enter_nests_under_current() {
        let root = TraceContext::root();
        let _g = root.install();
        {
            let _root_span = Span::start("test.root", &root);
            let (_child, _cg) = enter("test.child");
            assert_eq!(
                TraceContext::current().map(|c| c.parent_span_id),
                Some(root.span_id)
            );
        }
        let spans = spans_for_trace(root.trace_hi, root.trace_lo);
        assert_eq!(spans.len(), 2);
        let child = spans
            .iter()
            .find(|s| s.name == "test.child")
            .expect("child span");
        assert_eq!(child.parent_span_id, root.span_id);
    }

    #[test]
    fn enter_without_context_is_inert() {
        let (span, _guard) = enter("test.orphan");
        assert!(!span.is_recording());
    }

    #[test]
    fn enter_remote_links_wire_parent() {
        let remote = TraceContext::root();
        {
            let (span, _g) = enter_remote("test.remote", &remote);
            assert!(span.is_recording());
        }
        let spans = spans_for_trace(remote.trace_hi, remote.trace_lo);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent_span_id, remote.span_id);
    }

    #[test]
    fn dead_thread_rings_are_reclaimed_and_spans_flushed() {
        let ctx = TraceContext::root();
        let before = flight::live_rings();
        const THREADS: u64 = 32;
        for _ in 0..THREADS {
            let ctx = ctx.child();
            std::thread::spawn(move || {
                let _span = Span::start("test.worker", &ctx);
            })
            .join()
            .expect("worker");
        }
        // Every worker's span survived its thread (flushed to orphans)...
        assert_eq!(
            spans_for_trace(ctx.trace_hi, ctx.trace_lo).len(),
            THREADS as usize
        );
        // ...but the dead workers' rings did not accumulate (slack for
        // rings other concurrently running tests legitimately create).
        assert!(
            flight::live_rings() < before + THREADS / 2,
            "dead rings not reclaimed: {} live before, {} after {} short-lived threads",
            before,
            flight::live_rings(),
            THREADS
        );
    }

    #[test]
    fn half_spans_are_never_reported() {
        // Still open: absent until it closes.
        let ctx = TraceContext::root();
        let mut span = Span::start("test.open", &ctx);
        span.event("test.midway");
        assert!(spans_for_trace(ctx.trace_hi, ctx.trace_lo).is_empty());
        drop(span);
        let spans = spans_for_trace(ctx.trace_hi, ctx.trace_lo);
        assert_eq!((spans.len(), spans[0].events.len()), (1, 1));
        // Open overwritten by RING_CAPACITY later records on its thread:
        // the close survives, the span is dropped whole.
        let ctx = TraceContext::root();
        let span = Span::start("test.evicted", &ctx);
        for i in 0..flight::RING_CAPACITY as u64 {
            flight::record(FlightKind::Mark, 300, i, 0);
        }
        drop(span);
        let closed = flight::snapshot()
            .iter()
            .any(|r| r.kind == FlightKind::SpanClose as u8 && r.a == ctx.span_id);
        assert!(closed, "the close record is still in the ring");
        assert!(spans_for_trace(ctx.trace_hi, ctx.trace_lo).is_empty());
    }

    const NAMES: [&str; 4] = ["prop.a", "prop.b", "prop.c", "prop.d"];
    const EVENTS: [&str; 3] = ["prop.ev.x", "prop.ev.y", "prop.ev.z"];

    /// What the view must report for one span: id, parent, name, events,
    /// failed.
    type Expected = (u64, u64, &'static str, Vec<&'static str>, bool);

    /// Records one thread's spans under `remote` (the wire parent) from
    /// `(parent choice, event indexes, fails)` plans, closing innermost
    /// first as scoped guards do.
    fn record_thread(remote: TraceContext, plan: &[(u8, Vec<u8>, bool)]) -> Vec<Expected> {
        let (mut ctxs, mut spans, mut expected) = (Vec::new(), Vec::new(), Vec::new());
        for (i, (parent, events, fails)) in plan.iter().enumerate() {
            // Parent: the wire context, or a span opened earlier here.
            let ctx = ctxs
                .get(usize::from(*parent) % (i + 1))
                .unwrap_or(&remote)
                .child();
            let mut span = Span::start(NAMES[i % 4], &ctx);
            let events: Vec<_> = events.iter().map(|&e| EVENTS[usize::from(e)]).collect();
            events.iter().for_each(|&e| span.event(e));
            if *fails {
                span.fail();
            }
            expected.push((
                ctx.span_id,
                ctx.parent_span_id,
                NAMES[i % 4],
                events,
                *fails,
            ));
            ctxs.push(ctx);
            spans.push(span);
        }
        while spans.pop().is_some() {}
        expected
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Span forests on several threads, some of which exit before the
        // snapshot: the view returns exactly what was recorded.
        #[test]
        fn view_returns_exactly_the_recorded_forest(
            threads in prop::collection::vec(
                prop::collection::vec(
                    (any::<u8>(), prop::collection::vec(0u8..3, 0..4), any::<bool>()),
                    1..7,
                ),
                1..5,
            ),
            exit_mask in any::<u8>(),
        ) {
            let root = TraceContext::root();
            let exits = |t: usize| exit_mask & (1 << t) != 0;
            let gate = Barrier::new(1 + (0..threads.len()).filter(|&t| !exits(t)).count());
            let (mut expected, got) = std::thread::scope(|s| {
                let handles: Vec<_> = threads
                    .iter()
                    .enumerate()
                    .map(|(t, plan)| {
                        let (remote, gate) = (root.child(), &gate);
                        s.spawn(move || {
                            let expected = record_thread(remote, plan);
                            if !exits(t) {
                                gate.wait(); // recorded
                                gate.wait(); // snapshot taken
                            }
                            expected
                        })
                    })
                    .collect();
                // Exiting threads are joined before the snapshot; the rest
                // stay alive across it.
                let (gone, live): (Vec<_>, Vec<_>) =
                    handles.into_iter().enumerate().partition(|(t, _)| exits(*t));
                let join = |(_, h): (usize, std::thread::ScopedJoinHandle<'_, Vec<Expected>>)| {
                    h.join().expect("recording thread")
                };
                let mut expected: Vec<Expected> = gone.into_iter().flat_map(join).collect();
                gate.wait();
                let got = spans_for_trace(root.trace_hi, root.trace_lo);
                gate.wait();
                expected.extend(live.into_iter().flat_map(join));
                (expected, got)
            });
            for span in &got {
                let during = span.start_nanos..=span.end_nanos;
                prop_assert!(span.start_nanos <= span.end_nanos, "{span:?}");
                prop_assert!(span.events.iter().all(|e| during.contains(&e.at_nanos)), "{span:?}");
            }
            let mut got: Vec<Expected> = got
                .iter()
                .map(|s| {
                    let events = s.events.iter().map(|e| e.name).collect();
                    (s.span_id, s.parent_span_id, s.name, events, s.is_error())
                })
                .collect();
            got.sort();
            expected.sort();
            prop_assert_eq!(got, expected);
        }
    }
}
