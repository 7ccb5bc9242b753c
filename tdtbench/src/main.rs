//! Command line of the benchmark. See `README.md` beside this crate.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use tdtbench::harness::json::Json;
use tdtbench::workloads::{RunConfig, Scale, WORKLOADS};
use tdtbench::{compare, end_to_end_metrics, result_line, run_traced, run_untraced, Metric};

const USAGE: &str = "\
usage: tdtbench [--workload NAME] [--seed U64] [--seconds N] [--trace [0|1]] [--smoke]
       tdtbench compare A.jsonl B.jsonl [--manifest BENCHMARK.json]

Without --workload every workload runs in a fresh process of its own and one
record per workload is printed ({\"workload\", \"seed\", \"trace\", \"result\"});
collect those lines in a file to get a result set for `compare`.
Workloads: query_tcp relay_echo accept_commit ledger_durable ledger_recover";

/// Seconds one run measures when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Seconds a `--smoke` run measures.
const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it, or bare `--trace`.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Where run directories and span files go: under Cargo's target
/// directory, which the repository's `.gitignore` already covers.
fn artifact_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("tdtbench")
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for (name, value, unit) in metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
}

/// Runs one workload in this process. Returns whether it was correct.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let artifacts = artifact_dir();
    let work_dir = artifacts.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let cfg = RunConfig {
        seed: args.seed,
        window: Duration::from_secs_f64(seconds),
        work_dir: work_dir.clone(),
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
    };
    let outcome = if args.trace {
        traced(workload, &cfg, &artifacts)
    } else {
        untraced(workload, &cfg)
    };
    // Best effort: a leftover run directory is ignored by git and reused
    // by no later run (the name carries the process id).
    let _ = std::fs::remove_dir_all(&work_dir);
    outcome
}

fn untraced(workload: &str, cfg: &RunConfig) -> Result<bool, String> {
    let run = run_untraced(workload, cfg)?;
    let metrics = end_to_end_metrics(&run)?;
    println!(
        "== {workload} (seed {}, {:.1} s, untraced, {} cores) ==",
        cfg.seed,
        cfg.window.as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    print_metrics("end-to-end metrics", &metrics);
    println!(
        "diagnostics (not gated): attempted {} failed {} expected_rejects {}",
        run.attempted, run.failed, run.expected_rejects
    );
    for (name, (value, unit)) in &run.diagnostics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    for problem in &run.problems {
        println!("PROBLEM: {problem}");
    }
    let correct = run.failed == 0 && run.problems.is_empty();
    println!(
        "{}",
        result_line(correct, run.attempted.max(1), run.failed, &metrics)
    );
    Ok(correct)
}

fn traced(workload: &str, cfg: &RunConfig, artifacts: &std::path::Path) -> Result<bool, String> {
    let traced = run_traced(workload, cfg)?;
    let metrics = traced.metrics()?;
    println!(
        "== {workload} (seed {}, traced: {workload} for {:.1} s, the other loops at their minimum) ==",
        cfg.seed,
        cfg.window.as_secs_f64() / 4.0
    );
    println!("per-layer metrics (medians; samples)");
    for (name, value, unit) in &metrics {
        println!(
            "  {name:<36} {value:>16.6} {unit:<6} ({})",
            traced.layers.sample_count(name)
        );
    }
    for (name, log) in &traced.logs {
        println!("{}", log.budget("op").render(name));
        let path = artifacts.join(format!("{name}.spans.jsonl"));
        std::fs::write(&path, log.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!(
        "traced p50 {:.4} ms, untraced p50 {:.4} ms; spans written to {}",
        traced.summary.traced_p50_ms,
        traced.summary.untraced_p50_ms,
        artifacts.display()
    );
    let closes = traced.check_budget();
    if let Err(e) = &closes {
        println!("PROBLEM: {e}");
    }
    println!(
        "{}",
        result_line(closes.is_ok(), traced.attempted.max(1), 0, &metrics)
    );
    Ok(closes.is_ok())
}

/// Runs every workload in a child process each (so that peak memory and
/// warm caches are per workload) and prints one record per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut all_correct = true;
    let mut records = Vec::new();
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seconds) = args.seconds {
            cmd.args(["--seconds", &seconds.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (report, last) = match stdout.trim_end().rsplit_once('\n') {
            Some((report, last)) => (report, last),
            None => ("", stdout.trim_end()),
        };
        eprintln!("{report}");
        all_correct &= output.status.success();
        match Json::parse(last) {
            Ok(result) => records.push(Json::obj([
                ("workload", Json::Str(workload.to_string())),
                ("seed", Json::Num(args.seed as f64)),
                ("trace", Json::Num(f64::from(u8::from(args.trace)))),
                ("result", result),
            ])),
            Err(_) => {
                eprintln!("{workload}: no result (exit {:?})", output.status.code());
                all_correct = false;
            }
        }
    }
    for record in records {
        println!("{}", record.encode());
    }
    Ok(all_correct)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut manifest = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--manifest" => manifest = it.next().ok_or("--manifest needs a path")?.into(),
            path => files.push(path),
        }
    }
    let [a, b] = files[..] else {
        return Err("compare needs exactly two result-set files".into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    let specs = compare::parse_manifest(&read(&manifest.to_string_lossy())?)?;
    let a = compare::parse_result_set(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
    let b = compare::parse_result_set(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
    let comparison = compare::compare(&specs, &a, &b)?;
    print!("{}", comparison.render());
    Ok(comparison.passed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&args).and_then(|parsed| match &parsed.workload {
            Some(workload) => run_one(workload, &parsed),
            None => run_all(&parsed),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tdtbench: {e}");
            ExitCode::from(2)
        }
    }
}
