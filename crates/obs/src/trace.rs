//! Trace contexts and thread-local propagation.
//!
//! A [`TraceContext`] names one position in a distributed span tree: the
//! 128-bit trace id (`trace_hi`/`trace_lo`) identifies the whole tree, the
//! 64-bit `span_id` the current node, and `parent_span_id` its parent. The
//! context travels two ways:
//!
//! * **in-process** via a thread-local slot ([`TraceContext::install`] /
//!   [`TraceContext::current`]), restored on guard drop so nesting works;
//! * **on the wire** as a zero-elided optional field of the relay
//!   envelope, so legacy frames without tracing stay byte-identical.
//!
//! The all-zero context is "unset" and makes every span inert; `sampled`
//! is a head-based decision made once at the root and inherited by every
//! child, including across the wire. [`TraceContext::root`] roots a
//! sampled trace; [`TraceContext::unsampled_root`] one that propagates
//! without recording.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// The position of one span within a distributed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// High 64 bits of the 128-bit trace id (zero when unset).
    pub trace_hi: u64,
    /// Low 64 bits of the 128-bit trace id (zero when unset).
    pub trace_lo: u64,
    /// Id of the span this context currently names.
    pub span_id: u64,
    /// Id of the parent span (zero for a root span).
    pub parent_span_id: u64,
    /// Head-based sampling decision, made at the root and inherited.
    pub sampled: bool,
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// Weyl-sequence step used to decorrelate consecutive ids.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

static SEQ: AtomicU64 = AtomicU64::new(GOLDEN);

/// SplitMix64 finalizer — a cheap, well-mixed 64-bit permutation.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A fresh nonzero id mixed from a global counter, the monotonic clock and
/// the current thread id. Not cryptographic — collision resistance across
/// one process run is all tracing needs.
fn fresh_id() -> u64 {
    loop {
        let step = SEQ.fetch_add(GOLDEN, Ordering::Relaxed);
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        let id = mix64(step ^ crate::clock::now_nanos().rotate_left(17) ^ hasher.finish());
        if id != 0 {
            return id;
        }
    }
}

impl TraceContext {
    /// A fresh sampled root context: new 128-bit trace id, new span id,
    /// no parent.
    pub fn root() -> TraceContext {
        TraceContext {
            trace_hi: fresh_id(),
            trace_lo: fresh_id(),
            span_id: fresh_id(),
            parent_span_id: 0,
            sampled: true,
        }
    }

    /// A fresh root context whose spans will *not* be recorded. Useful to
    /// exercise the propagation plumbing at zero recording cost.
    pub fn unsampled_root() -> TraceContext {
        TraceContext {
            sampled: false,
            ..TraceContext::root()
        }
    }

    /// The all-zero "no tracing" context. Spans started from it are inert.
    pub fn unset() -> TraceContext {
        TraceContext::default()
    }

    /// True when this is the all-zero context (no trace in progress).
    pub fn is_unset(&self) -> bool {
        self.trace_hi == 0 && self.trace_lo == 0
    }

    /// True when spans under this context should actually be recorded.
    pub fn is_recording(&self) -> bool {
        self.sampled && !self.is_unset()
    }

    /// A child context: same trace, fresh span id, parent = this span.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_hi: self.trace_hi,
            trace_lo: self.trace_lo,
            span_id: fresh_id(),
            parent_span_id: self.span_id,
            sampled: self.sampled,
        }
    }

    /// The context installed on this thread, if any.
    pub fn current() -> Option<TraceContext> {
        CURRENT.with(|slot| slot.get())
    }

    /// Installs this context on the current thread, returning a guard that
    /// restores the previous context when dropped. Unset contexts clear
    /// the slot instead, so stale contexts cannot leak across requests.
    pub fn install(self) -> ContextGuard {
        let next = if self.is_unset() { None } else { Some(self) };
        let prev = CURRENT.with(|slot| slot.replace(next));
        ContextGuard { prev, armed: true }
    }
}

/// Restores the previously installed context on drop.
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<TraceContext>,
    armed: bool,
}

impl ContextGuard {
    /// A guard that changed nothing and will restore nothing.
    pub fn noop() -> ContextGuard {
        ContextGuard {
            prev: None,
            armed: false,
        }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.armed {
            let prev = self.prev.take();
            CURRENT.with(|slot| slot.set(prev));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_ids_nonzero_and_distinct() {
        let a = TraceContext::root();
        let b = TraceContext::root();
        assert!(a.is_recording());
        assert_ne!((a.trace_hi, a.trace_lo), (b.trace_hi, b.trace_lo));
        assert_ne!(a.span_id, b.span_id);
        assert_eq!(a.parent_span_id, 0);
    }

    #[test]
    fn child_keeps_trace_and_links_parent() {
        let root = TraceContext::root();
        let child = root.child();
        assert_eq!(child.trace_hi, root.trace_hi);
        assert_eq!(child.trace_lo, root.trace_lo);
        assert_eq!(child.parent_span_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);
        assert!(child.sampled);
    }

    #[test]
    fn install_nests_and_restores() {
        assert!(TraceContext::current().is_none());
        let outer = TraceContext::root();
        {
            let _g1 = outer.install();
            assert_eq!(TraceContext::current(), Some(outer));
            let inner = outer.child();
            {
                let _g2 = inner.install();
                assert_eq!(TraceContext::current(), Some(inner));
            }
            assert_eq!(TraceContext::current(), Some(outer));
        }
        assert!(TraceContext::current().is_none());
    }

    #[test]
    fn unset_install_clears_slot() {
        let outer = TraceContext::root();
        let _g1 = outer.install();
        {
            let _g2 = TraceContext::unset().install();
            assert!(TraceContext::current().is_none());
        }
        assert_eq!(TraceContext::current(), Some(outer));
    }

    #[test]
    fn unsampled_root_propagates_without_recording() {
        let ctx = TraceContext::unsampled_root();
        assert!(!ctx.is_unset());
        assert!(!ctx.is_recording());
        assert!(!ctx.child().is_recording());
    }

    #[test]
    fn ids_distinct_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..64).map(|_| fresh_id()).collect::<Vec<_>>()))
            .collect();
        let mut all: Vec<u64> = Vec::new();
        for h in handles {
            all.extend(h.join().expect("thread"));
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }
}
