//! ASCII span-timeline rendering.
//!
//! Turns the recorded spans of one trace into the per-hop waterfall the
//! paper draws as its message-flow figure — except every bar here comes
//! from real monotonic timestamps captured while the query ran.

use crate::span::{SpanRecord, SpanStatus};
use std::fmt::Write as _;

/// Width of the timeline bar column in characters.
const BAR_WIDTH: usize = 48;

/// Renders the spans of one trace as an indented waterfall.
///
/// Rows are ordered depth-first from each root (a span whose parent is
/// not in the set), children sorted by start time. Each row shows the
/// hop name (indented by depth), duration, a `#` bar positioned on the
/// shared timeline, an `!` suffix for error status, and any named events
/// with their offset from trace start.
///
/// Returns a placeholder line when `spans` is empty.
pub fn render(spans: &[SpanRecord]) -> String {
    let Some(first) = spans.first() else {
        return "(no spans recorded)\n".to_string();
    };
    let t0 = spans.iter().map(|s| s.start_nanos).min().unwrap_or(0);
    let t1 = spans.iter().map(|s| s.end_nanos).max().unwrap_or(t0);
    let total = (t1.saturating_sub(t0)).max(1);

    // Index spans and find the roots (parent missing from the set).
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut order: Vec<(usize, &SpanRecord)> = Vec::with_capacity(spans.len());
    let mut roots: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| !ids.contains(&s.parent_span_id))
        .collect();
    roots.sort_by_key(|s| s.start_nanos);
    let mut stack: Vec<(usize, &SpanRecord)> = roots.into_iter().map(|s| (0, s)).rev().collect();
    while let Some((depth, span)) = stack.pop() {
        order.push((depth, span));
        let mut children: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.parent_span_id == span.span_id && s.span_id != span.span_id)
            .collect();
        children.sort_by_key(|s| s.start_nanos);
        for child in children.into_iter().rev() {
            stack.push((depth + 1, child));
        }
    }

    let name_width = order
        .iter()
        .map(|(depth, s)| depth * 2 + s.name.len())
        .max()
        .unwrap_or(0)
        .max(4);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {:016x}{:016x}  total {}",
        first.trace_hi,
        first.trace_lo,
        fmt_nanos(total)
    );
    for (depth, span) in &order {
        let label = format!("{}{}", "  ".repeat(*depth), span.name);
        let start = span.start_nanos.saturating_sub(t0);
        let dur = span.duration_nanos().max(1);
        let lead = ((start as u128 * BAR_WIDTH as u128) / total as u128) as usize;
        let fill = (dur as u128 * BAR_WIDTH as u128)
            .div_ceil(total as u128)
            .max(1) as usize;
        let lead = lead.min(BAR_WIDTH.saturating_sub(1));
        let fill = fill.min(BAR_WIDTH - lead);
        let bar = format!(
            "{}{}{}",
            ".".repeat(lead),
            "#".repeat(fill),
            ".".repeat(BAR_WIDTH - lead - fill)
        );
        let status = match &span.status {
            SpanStatus::Ok => "",
            SpanStatus::Error => " !",
        };
        let _ = writeln!(
            out,
            "{label:<name_width$}  {:>9}  |{bar}|{status}",
            fmt_nanos(span.duration_nanos())
        );
        for event in &span.events {
            let _ = writeln!(
                out,
                "{:<name_width$}    · {} @ +{}",
                "",
                event.name,
                fmt_nanos(event.at_nanos.saturating_sub(t0))
            );
        }
    }
    out
}

/// Formats nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.3}s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanEvent;

    fn span(name: &'static str, span_id: u64, parent: u64, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            name,
            trace_hi: 1,
            trace_lo: 2,
            span_id,
            parent_span_id: parent,
            start_nanos: start,
            end_nanos: end,
            events: Vec::new(),
            status: SpanStatus::Ok,
        }
    }

    #[test]
    fn renders_tree_in_order() {
        let spans = vec![
            span("child.late", 3, 1, 600, 900),
            span("root", 1, 0, 0, 1000),
            span("child.early", 2, 1, 100, 500),
            span("grandchild", 4, 2, 200, 300),
        ];
        let text = render(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("trace"));
        assert!(lines[1].trim_start().starts_with("root"));
        assert!(lines[2].trim_start().starts_with("child.early"));
        assert!(lines[3].trim_start().starts_with("grandchild"));
        assert!(lines[4].trim_start().starts_with("child.late"));
        // Indentation grows with depth.
        assert!(lines[3].starts_with("    "));
    }

    #[test]
    fn marks_errors_and_events() {
        let mut failed = span("bad.hop", 2, 1, 100, 200);
        failed.status = SpanStatus::Error;
        failed.events.push(SpanEvent {
            name: "retry.attempt",
            at_nanos: 150,
        });
        let spans = vec![span("root", 1, 0, 0, 1000), failed];
        let text = render(&spans);
        assert!(text.contains("!"));
        assert!(text.contains("retry.attempt"));
    }

    #[test]
    fn empty_input_placeholder() {
        assert_eq!(render(&[]), "(no spans recorded)\n");
    }

    #[test]
    fn fmt_units() {
        assert_eq!(fmt_nanos(12), "12ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(1_234_000_000), "1.234s");
    }
}
