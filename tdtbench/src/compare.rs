//! `tdtbench compare A B`: the comparison of two result sets that every
//! later performance claim goes through.
//!
//! A result set is a file of JSON lines as a full `tdtbench` run prints
//! them (`{"workload", "seed", "trace", "result"}`); it may hold several
//! runs of each workload. For every (workload, end-to-end metric) pair the
//! comparer prints both medians and quartiles with the bound
//! `BENCHMARK.json` fixes, calls the pair `regressed` when B's median is
//! worse than A's by more than the bound, and `unresolved` when either
//! side's own inter-quartile spread exceeds the bound (so "no change" could
//! not have been seen). Any regression, and any rise in the share of failed
//! operations, makes the comparison fail.

use crate::harness::json::Json;
use crate::harness::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, for printing.
    pub unit: String,
    /// True when larger values are better.
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` section of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Malformed JSON or a missing or ill-typed member.
pub fn parse_manifest(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = Json::parse(text)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("manifest has no end_to_end array")?;
    entries
        .iter()
        .map(|entry| {
            let text = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("end_to_end entry lacks {key}"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: match text("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better must be higher or lower, not {other:?}")),
                },
                bound: entry
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks bound")?,
            })
        })
        .collect()
}

/// The untraced runs of one result set, grouped by workload.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ResultSet {
    /// workload → metric → one value per run.
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → (attempted, failed) summed over its runs.
    pub counts: BTreeMap<String, (f64, f64)>,
    /// Workloads with a run that reported `correct: false`.
    pub incorrect: Vec<String>,
}

/// Parses a result-set file; traced runs (`"trace": 1`) are skipped.
///
/// # Errors
///
/// Names the first line that is not a run record.
pub fn parse_result_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}", number + 1);
        let record = Json::parse(line).map_err(|e| bad(&e))?;
        if record.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?
            .to_string();
        let result = record.get("result").ok_or_else(|| bad("no result"))?;
        let number_of = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("result lacks {key}")))
        };
        let counts = set.counts.entry(workload.clone()).or_default();
        counts.0 += number_of("attempted")?;
        counts.1 += number_of("failed")?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            set.incorrect.push(workload.clone());
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("result lacks metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("metric {name} lacks a value")))?;
            set.values
                .entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    if set.values.is_empty() {
        return Err("no untraced runs in the result set".into());
    }
    Ok(set)
}

/// Median and quartiles of one side of a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Runs behind the figures.
    pub runs: usize,
    /// Median over the runs.
    pub median: f64,
    /// First and third quartile (both the median with fewer than two runs).
    pub quartiles: (f64, f64),
}

impl Side {
    fn of(values: &[f64]) -> Result<Side, String> {
        let median = stats::median_of(values).map_err(|e| e.to_string())?;
        let quartiles = match stats::quartiles(values) {
            Ok([q1, _, q3]) => (q1, q3),
            Err(_) => (median, median),
        };
        Ok(Side {
            runs: values.len(),
            median,
            quartiles,
        })
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.quartiles.1 - self.quartiles.0) / self.median.abs()
    }
}

/// What the comparer concluded about one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A side's own spread exceeds the bound: a change of the bound's size
    /// could not have been seen.
    Unresolved,
}

/// One (workload, metric) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric and its bound.
    pub spec: MetricSpec,
    /// The baseline.
    pub a: Side,
    /// The candidate.
    pub b: Side,
    /// By how much B is worse than A, as a share of A's median (negative
    /// when B is better).
    pub worsening: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per (workload, end-to-end metric) present in both sets.
    pub rows: Vec<Row>,
    /// Workloads whose failed share rose or that reported an incorrect
    /// run in B.
    pub failures: Vec<String>,
}

impl Comparison {
    /// True when nothing regressed and no failure share rose.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
    }

    /// The table, one row per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<15} {:<24} {:>38} {:>38} {:>8} {:>6}  verdict\n",
            "workload",
            "metric",
            "A median [q1, q3] (runs)",
            "B median [q1, q3] (runs)",
            "worse",
            "bound"
        );
        let side = |s: &Side| {
            format!(
                "{:.4} [{:.4}, {:.4}] ({})",
                s.median, s.quartiles.0, s.quartiles.1, s.runs
            )
        };
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<15} {:<24} {:>38} {:>38} {:>+7.1}% {:>5.0}%  {}",
                row.workload,
                format!("{} [{}]", row.spec.name, row.spec.unit),
                side(&row.a),
                side(&row.b),
                row.worsening * 100.0,
                row.spec.bound * 100.0,
                match row.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for failure in &self.failures {
            let _ = writeln!(out, "FAILED: {failure}");
        }
        out
    }
}

/// Compares candidate `b` against baseline `a` under `specs`.
///
/// # Errors
///
/// When the sets share no workload, or a shared workload lacks a metric.
pub fn compare(specs: &[MetricSpec], a: &ResultSet, b: &ResultSet) -> Result<Comparison, String> {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (workload, a_metrics) in &a.values {
        let Some(b_metrics) = b.values.get(workload) else {
            continue;
        };
        for spec in specs {
            let side = |metrics: &BTreeMap<String, Vec<f64>>, which: &str| {
                let values = metrics
                    .get(&spec.name)
                    .ok_or_else(|| format!("{which}: {workload} has no {}", spec.name))?;
                Side::of(values)
            };
            let side_a = side(a_metrics, "A")?;
            let side_b = side(b_metrics, "B")?;
            let delta = (side_b.median - side_a.median) / side_a.median.abs();
            let worsening = if spec.higher_is_better { -delta } else { delta };
            let verdict = if worsening > spec.bound {
                Verdict::Regressed
            } else if side_a.spread() > spec.bound || side_b.spread() > spec.bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                spec: spec.clone(),
                a: side_a,
                b: side_b,
                worsening,
                verdict,
            });
        }
        let share = |set: &ResultSet| {
            set.counts
                .get(workload)
                .map_or(0.0, |&(attempted, failed)| failed / attempted.max(1.0))
        };
        if share(b) > share(a) {
            failures.push(format!(
                "{workload}: failed share rose from {:.6} to {:.6}",
                share(a),
                share(b)
            ));
        }
        if b.incorrect.contains(workload) {
            failures.push(format!("{workload}: B holds a run that was not correct"));
        }
    }
    if rows.is_empty() {
        return Err("the result sets share no workload".into());
    }
    Ok(Comparison { rows, failures })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"{"end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.07},
        {"name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.07}
    ]}"#;

    fn set(latencies: &[f64], throughputs: &[f64], failed: u64) -> ResultSet {
        let lines: Vec<String> = latencies
            .iter()
            .zip(throughputs)
            .map(|(l, t)| {
                format!(
                    "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"result\": \
                     {{\"correct\": true, \"attempted\": 100, \"failed\": {failed}, \"metrics\": \
                     {{\"latency_p50_ms\": {{\"value\": {l}, \"unit\": \"ms\"}}, \
                     \"throughput_ops_s\": {{\"value\": {t}, \"unit\": \"1/s\"}}}}}}}}"
                )
            })
            .collect();
        parse_result_set(&lines.join("\n")).unwrap()
    }

    #[test]
    fn steady_sets_compare_ok() {
        let specs = parse_manifest(MANIFEST).unwrap();
        let a = set(&[10.0, 10.1, 9.9, 10.0], &[100.0, 101.0, 99.0, 100.0], 0);
        let b = set(&[10.2, 10.1, 10.3, 10.2], &[99.0, 100.0, 98.0, 99.5], 0);
        let cmp = compare(&specs, &a, &b).unwrap();
        assert!(cmp.passed());
        assert!(
            cmp.rows.iter().all(|r| r.verdict == Verdict::Ok),
            "{}",
            cmp.render()
        );
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let specs = parse_manifest(MANIFEST).unwrap();
        let a = set(&[10.0, 10.0, 10.0], &[100.0, 100.0, 100.0], 0);
        // Latency up 20 % and throughput up 20 %: only latency regressed.
        let b = set(&[12.0, 12.0, 12.0], &[120.0, 120.0, 120.0], 0);
        let cmp = compare(&specs, &a, &b).unwrap();
        assert!(!cmp.passed());
        let verdicts: Vec<Verdict> = cmp.rows.iter().map(|r| r.verdict).collect();
        assert_eq!(verdicts, [Verdict::Regressed, Verdict::Ok]);
        // Throughput down 20 % regresses too.
        let c = set(&[10.0, 10.0, 10.0], &[80.0, 80.0, 80.0], 0);
        assert_eq!(
            compare(&specs, &a, &c).unwrap().rows[1].verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let specs = parse_manifest(MANIFEST).unwrap();
        let a = set(&[10.0, 8.0, 12.0, 10.0], &[100.0; 4], 0);
        let b = set(&[10.0, 10.0, 10.0, 10.0], &[100.0; 4], 0);
        let cmp = compare(&specs, &a, &b).unwrap();
        assert_eq!(cmp.rows[0].verdict, Verdict::Unresolved);
        assert!(cmp.passed(), "unresolved is reported, not failed");
    }

    #[test]
    fn rising_failures_fail_the_comparison() {
        let specs = parse_manifest(MANIFEST).unwrap();
        let a = set(&[10.0, 10.0], &[100.0, 100.0], 0);
        let b = set(&[10.0, 10.0], &[100.0, 100.0], 1);
        let cmp = compare(&specs, &a, &b).unwrap();
        assert!(!cmp.passed());
        assert!(cmp.render().contains("failed share rose"));
    }

    #[test]
    fn traced_records_are_skipped_and_garbage_is_refused() {
        let traced = "{\"workload\": \"w\", \"seed\": 1, \"trace\": 1, \"result\": {}}";
        assert!(parse_result_set(traced).is_err(), "nothing untraced left");
        assert!(parse_result_set("not json").is_err());
        assert!(parse_manifest("{}").is_err());
    }
}
