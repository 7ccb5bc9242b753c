//! Keeps the benchmark from rotting or drifting from its manifest: a
//! smoke-sized pass of every workload through the library entry points,
//! checked against the metric names `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Duration;
use tdtbench::harness::json::Json;
use tdtbench::workloads::{RunConfig, Scale, WORKLOADS};
use tdtbench::{end_to_end_metrics, manifest, run_traced, run_untraced};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{section} array"))
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke_config(name: &str) -> (RunConfig, PathBuf) {
    let work_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("tdtbench-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("create work dir");
    let cfg = RunConfig {
        seed: 7,
        window: Duration::from_millis(700),
        work_dir: work_dir.clone(),
        scale: Scale::SMOKE,
    };
    (cfg, work_dir)
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_and_program_declare_the_same_benchmark() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), owned(&manifest::END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(&manifest::PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads array")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        doc.get("paths"),
        Some(&Json::Arr(vec![Json::Str("tdtbench".into())]))
    );
    // One metric must be the set-up time, in seconds, lower is better.
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|m| {
            m.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        })
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

#[test]
fn every_workload_runs_correctly_and_emits_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    let expected: BTreeSet<String> = declared(&doc, "end_to_end")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    for workload in WORKLOADS {
        let (cfg, work_dir) = smoke_config(workload);
        let run = run_untraced(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
        let _ = std::fs::remove_dir_all(work_dir);
        assert_eq!(run.failed, 0, "{workload}: {:?}", run.problems);
        assert!(run.problems.is_empty(), "{workload}: {:?}", run.problems);
        assert!(run.attempted > 0);
        let metrics = end_to_end_metrics(&run).expect("metrics");
        let emitted: BTreeSet<String> = metrics.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(emitted, expected, "{workload}");
        for (name, value, _) in metrics {
            assert!(
                value.is_finite() && value > 0.0,
                "{workload}: {name} = {value}"
            );
        }
    }
}

#[test]
fn query_tcp_refuses_the_outsider_and_counts_it_as_expected() {
    // Enough operations that the 5 % outsider share shows up.
    let (mut cfg, work_dir) = smoke_config("rejects");
    cfg.window = Duration::from_millis(2500);
    let run = run_untraced("query_tcp", &cfg).expect("query_tcp");
    let _ = std::fs::remove_dir_all(work_dir);
    assert_eq!(run.failed, 0, "{:?}", run.problems);
    assert!(
        run.expected_rejects > 0,
        "no outsider query in {} ops",
        run.attempted
    );
}

#[test]
fn traced_run_emits_exactly_the_declared_per_layer_metrics() {
    let doc = benchmark_json();
    let expected: Vec<String> = declared(&doc, "per_layer")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let (cfg, work_dir) = smoke_config("traced");
    let traced = run_traced("accept_commit", &cfg).expect("traced session");
    let _ = std::fs::remove_dir_all(work_dir);
    let metrics = traced
        .metrics()
        .expect("every per-layer metric has a value");
    let emitted: Vec<String> = metrics.iter().map(|m| m.0.to_string()).collect();
    assert_eq!(emitted, expected);
    assert!(metrics.iter().all(|m| m.1.is_finite()));
    // Every workload's loop ran and its budget accounts for all of the op.
    for workload in WORKLOADS {
        let budget = traced.budget(workload).expect("budget");
        assert!(budget.ops > 0, "{workload}");
        let shares: f64 = budget.rows.iter().map(|r| r.share).sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{workload}: shares sum to {shares}"
        );
    }
    assert!(run_traced("no_such_workload", &cfg).is_err());
}

#[test]
fn unknown_workload_is_refused() {
    let (cfg, work_dir) = smoke_config("unknown");
    assert!(run_untraced("no_such_workload", &cfg).is_err());
    let _ = std::fs::remove_dir_all(work_dir);
}
