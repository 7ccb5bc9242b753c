//! Spans recorded by the harness around calls into each layer's public
//! functions, and the arithmetic that turns a span tree into a per-layer
//! budget: self time (a span minus the interval its children cover) and
//! the budget residual (how far a parent's children are from adding up to
//! it).
//!
//! The program's own `obs` spans are deliberately not used: a later change
//! may move or rewrite them, and a claim may not rest on a span the
//! claiming change touched.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span inside its [`SpanLog`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The operation this span belongs to.
    pub op_id: u32,
    /// `<layer>.<what>`; the part before the first dot is the layer the
    /// span's self time is charged to.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer (crate) this span's self time belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span log: pre-allocated, appended to while the run
/// measures, written out when it ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    /// Per span: where the next replayed child is placed.
    cursor: Vec<u64>,
}

impl SpanLog {
    /// A log with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            cursor: Vec::with_capacity(capacity),
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.cursor.push(span.start_ns);
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span measured in line, between two clock readings.
    pub fn record(
        &mut self,
        op_id: u32,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            op_id,
            name,
            parent,
            start_ns,
            end_ns,
        })
    }

    /// Records a span measured by *replaying* part of `parent`'s work on
    /// the same inputs after the operation completed. Only its duration is
    /// real; it is laid inside the parent directly after the parent's
    /// previously attached children, so that the self-time arithmetic
    /// treats replayed and in-line children alike.
    pub fn attach(&mut self, parent: SpanId, name: &'static str, duration: Duration) -> SpanId {
        let op_id = self.spans[parent as usize].op_id;
        let start_ns = self.cursor[parent as usize];
        let end_ns = start_ns + duration.as_nanos() as u64;
        self.cursor[parent as usize] = end_ns;
        self.push(Span {
            op_id,
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
        })
    }

    /// Self time of every span: the part of its parent's interval it
    /// occupies, minus the part of that its children cover. Overlapping
    /// children are counted once and a span reaching outside its parent is
    /// clipped to it (a replayed child can run longer than the interval it
    /// explains), so the self times of a tree whose siblings do not overlap
    /// — every tree this harness records — add up to its root's duration.
    pub fn self_times_ns(&self) -> Vec<u64> {
        // Parents precede their children in the log, so one forward pass
        // clips every span to its (already clipped) parent.
        let mut clipped: Vec<(u64, u64)> = Vec::with_capacity(self.spans.len());
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            let (mut start, mut end) = (span.start_ns, span.end_ns.max(span.start_ns));
            if let Some(parent) = span.parent {
                let (p_start, p_end) = clipped[parent as usize];
                start = start.clamp(p_start, p_end);
                end = end.clamp(start, p_end);
                children[parent as usize].push((start, end));
            }
            clipped.push((start, end));
        }
        clipped
            .iter()
            .zip(children.iter_mut())
            .map(|(&(span_start, span_end), intervals)| {
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span_start;
                for &(start, end) in intervals.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                span_end - span_start - covered
            })
            .collect()
    }

    /// For the spans named `parent_name`: |Σ children − Σ parents| / Σ
    /// parents, with children taken at their full (unclipped) duration.
    /// Zero when no such span has children.
    pub fn residual_ratio(&self, parent_name: &str) -> f64 {
        let mut parents = 0u64;
        let mut kids = 0u64;
        let mut has_children = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                if self.spans[p as usize].name == parent_name {
                    kids += span.duration_ns();
                    has_children[p as usize] = true;
                }
            }
        }
        for (span, has) in self.spans.iter().zip(&has_children) {
            if *has {
                parents += span.duration_ns();
            }
        }
        if parents == 0 {
            return 0.0;
        }
        (kids as f64 - parents as f64).abs() / parents as f64
    }

    /// The per-layer budget of the operations rooted at spans named
    /// `root_name`.
    pub fn budget(&self, root_name: &str) -> Budget {
        let self_ns = self.self_times_ns();
        let mut rows: BTreeMap<&'static str, BudgetRow> = BTreeMap::new();
        let mut ops = 0u64;
        let mut op_ns = 0u64;
        for (span, &own) in self.spans.iter().zip(&self_ns) {
            if span.parent.is_none() {
                if span.name != root_name {
                    continue;
                }
                ops += 1;
                op_ns += span.duration_ns();
            } else if self.root_of(span).name != root_name {
                continue;
            }
            let row = rows.entry(span.name).or_insert(BudgetRow {
                name: span.name,
                layer: span.layer(),
                spans: 0,
                self_ms_per_op: 0.0,
                share: 0.0,
            });
            row.spans += 1;
            row.self_ms_per_op += own as f64 / 1e6;
        }
        let mut rows: Vec<BudgetRow> = rows.into_values().collect();
        for row in &mut rows {
            row.self_ms_per_op /= ops.max(1) as f64;
            row.share = row.self_ms_per_op / (op_ns as f64 / 1e6 / ops.max(1) as f64);
        }
        rows.sort_by(|a, b| b.self_ms_per_op.total_cmp(&a.self_ms_per_op));
        Budget {
            ops,
            op_ms: op_ns as f64 / 1e6 / ops.max(1) as f64,
            rows,
        }
    }

    fn root_of<'a>(&'a self, mut span: &'a Span) -> &'a Span {
        while let Some(parent) = span.parent {
            span = &self.spans[parent as usize];
        }
        span
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"op_id\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.op_id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// One line of a budget table.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// Span name.
    pub name: &'static str,
    /// Layer (crate) the time is charged to.
    pub layer: &'static str,
    /// Spans of this name across all operations.
    pub spans: u64,
    /// Mean self time per operation, milliseconds.
    pub self_ms_per_op: f64,
    /// `self_ms_per_op` as a share of the mean operation.
    pub share: f64,
}

/// Where the mean operation's time went.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Operations (root spans) summarised.
    pub ops: u64,
    /// Mean root-span duration, milliseconds.
    pub op_ms: f64,
    /// Rows, largest self time first. Their shares sum to 1.
    pub rows: Vec<BudgetRow>,
}

impl Budget {
    /// Share of the mean operation spent in `layer`'s own code.
    pub fn layer_share(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.layer == layer)
            .map(|r| r.share)
            .sum()
    }

    /// The table as aligned text.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!(
            "budget: {title} — {} ops, mean op {:.3} ms\n  {:<34} {:>7} {:>12} {:>8}\n",
            self.ops, self.op_ms, "span (self time)", "spans", "self ms/op", "share"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "  {:<34} {:>7} {:>12.4} {:>7.1}%",
                row.name,
                row.spans,
                row.self_ms_per_op,
                row.share * 100.0
            );
        }
        let mut layers: Vec<&str> = self.rows.iter().map(|r| r.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let by_layer: Vec<String> = layers
            .iter()
            .map(|l| format!("{l} {:.1}%", self.layer_share(l) * 100.0))
            .collect();
        let _ = writeln!(out, "  by layer: {}", by_layer.join(", "));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A log whose spans are given directly in nanoseconds.
    fn log(spans: &[(&'static str, Option<SpanId>, u64, u64)]) -> SpanLog {
        let mut log = SpanLog::with_capacity(spans.len());
        for &(name, parent, start_ns, end_ns) in spans {
            log.push(Span {
                op_id: 0,
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
        log
    }

    #[test]
    fn self_time_nested_adjacent_and_overlapping_children() {
        let log = log(&[
            ("op", None, 0, 100),
            // adjacent children: cover 10..30 and 30..50
            ("a.x", Some(0), 10, 30),
            ("a.y", Some(0), 30, 50),
            // overlapping children: 60..80 and 70..90 cover 60..90 once
            ("b.x", Some(0), 60, 80),
            ("b.y", Some(0), 70, 90),
            // nested grandchild under a.x
            ("c.z", Some(1), 12, 20),
            // a child reaching past its parent is clipped to it
            ("d.w", Some(3), 75, 95),
        ]);
        let own = log.self_times_ns();
        assert_eq!(own[0], 100 - 40 - 30, "op: 0..10, 50..60, 90..100");
        assert_eq!(own[1], 20 - 8);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 20 - 5, "child clipped to 75..80");
        assert_eq!(own[4], 20);
        assert_eq!(own[5], 8);
        assert_eq!(own[6], 5, "only the part inside its parent counts");
        // The overlapping pair ran in parallel: 10 ns are counted in both.
        assert_eq!(own.iter().sum::<u64>(), 110);
    }

    #[test]
    fn attached_children_are_laid_end_to_end_inside_the_parent() {
        let mut log = log(&[("op", None, 1_000, 11_000)]);
        let a = log.attach(0, "x.a", Duration::from_nanos(4_000));
        let b = log.attach(0, "x.b", Duration::from_nanos(3_000));
        assert_eq!(
            (
                log.spans()[a as usize].start_ns,
                log.spans()[a as usize].end_ns
            ),
            (1_000, 5_000)
        );
        assert_eq!(
            (
                log.spans()[b as usize].start_ns,
                log.spans()[b as usize].end_ns
            ),
            (5_000, 8_000)
        );
        assert_eq!(log.self_times_ns()[0], 3_000);
        assert_eq!(log.spans()[b as usize].op_id, 0);
    }

    #[test]
    fn budget_shares_sum_to_one_and_group_by_layer() {
        let log = log(&[
            ("op", None, 0, 100),
            ("core.a", Some(0), 0, 40),
            ("crypto.s", Some(1), 0, 30),
            ("relay.r", Some(0), 40, 90),
            ("op", None, 200, 300),
            ("core.a", Some(4), 200, 260),
            ("other", None, 0, 1_000),
        ]);
        let budget = log.budget("op");
        assert_eq!(budget.ops, 2);
        let total: f64 = budget.rows.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        assert!((budget.layer_share("core") - 0.35).abs() < 1e-12);
        assert!((budget.layer_share("crypto") - 0.15).abs() < 1e-12);
        assert!((budget.layer_share("relay") - 0.25).abs() < 1e-12);
        assert!((budget.layer_share("op") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn residual_trips_on_a_doctored_tree() {
        let honest = log(&[
            ("op", None, 0, 100),
            ("a.x", Some(0), 0, 48),
            ("a.y", Some(0), 50, 98),
        ]);
        assert!(honest.residual_ratio("op") <= 0.10);
        // Children that claim 60 % more time than their parent had.
        let doctored = log(&[
            ("op", None, 0, 100),
            ("a.x", Some(0), 0, 80),
            ("a.y", Some(0), 0, 80),
        ]);
        assert!(doctored.residual_ratio("op") > 0.10);
        // Children that explain only half of it.
        let thin = log(&[("op", None, 0, 100), ("a.x", Some(0), 0, 50)]);
        assert!(thin.residual_ratio("op") > 0.10);
        assert_eq!(thin.residual_ratio("absent"), 0.0);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let log = log(&[("op", None, 0, 10), ("a.x", Some(0), 1, 2)]);
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\": null"));
        assert!(text.contains("\"name\": \"a.x\", \"parent\": 0"));
    }
}
