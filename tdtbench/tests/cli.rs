//! The command line: the result line's shape, argument errors, and the
//! comparer's exit code.

use std::process::Command;
use tdtbench::harness::json::Json;

fn tdtbench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tdtbench"));
    cmd.env(
        "CARGO_TARGET_DIR",
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tdtbench-cli-test"),
    );
    cmd
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let out = tdtbench()
        .args([
            "--workload",
            "relay_echo",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .output()
        .expect("run tdtbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.trim_end().lines().last().expect("a result line");
    let result = Json::parse(last).expect("last line is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    let latency = result
        .get("metrics")
        .and_then(|m| m.get("latency_p50_ms"))
        .expect("latency_p50_ms");
    assert_eq!(latency.get("unit").and_then(Json::as_str), Some("ms"));
    assert!(latency.get("value").and_then(Json::as_f64).expect("value") > 0.0);
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--frobnicate"][..],
        &["--seconds", "0"],
        &["--workload"],
        &["compare", "only-one"],
    ] {
        let out = tdtbench().args(args).output().expect("run tdtbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    let out = tdtbench()
        .args(["--workload", "no_such_workload", "--smoke"])
        .output()
        .expect("run tdtbench");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn compare_passes_on_equal_sets_and_fails_on_a_regression() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("tdtbench-compare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("BENCHMARK.json");
    std::fs::write(
        &manifest,
        r#"{"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
    )
    .expect("write manifest");
    let set = |name: &str, values: &[f64]| {
        let lines: Vec<String> = values
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"result\": {{\"correct\": true, \
                     \"attempted\": 10, \"failed\": 0, \"metrics\": {{\"latency_p50_ms\": \
                     {{\"value\": {v}, \"unit\": \"ms\"}}}}}}}}"
                )
            })
            .collect();
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n")).expect("write set");
        path
    };
    let a = set("a.jsonl", &[10.0, 10.1, 9.9]);
    let same = set("same.jsonl", &[10.05, 10.0, 10.1]);
    let slow = set("slow.jsonl", &[12.0, 12.1, 11.9]);
    let run = |b: &std::path::Path| {
        tdtbench()
            .arg("compare")
            .args([&a, b])
            .arg("--manifest")
            .arg(&manifest)
            .output()
            .expect("run compare")
    };
    let ok = run(&same);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );
    let bad = run(&slow);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stdout).contains("REGRESSED"));
    let _ = std::fs::remove_dir_all(dir);
}
