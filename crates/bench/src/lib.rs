//! Shared helpers for the `crypto_smoke` and `recovery_bench` binaries:
//! command-line flags and the `BENCH_*.json` trajectory files they write.

/// The value following `flag` on the command line.
pub fn arg_after(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).cloned()
}

/// The `"runs"` lines of a `BENCH_*.json` trajectory file: the rows `path`
/// already holds under labels other than `label`, then `rows` (this run's,
/// each starting `    {"label": "<label>", `), joined for the array body.
pub fn trajectory_rows(path: &str, label: &str, rows: &[String]) -> String {
    let mine = format!("    {{\"label\": \"{label}\", ");
    let kept = std::fs::read_to_string(path).unwrap_or_default();
    kept.lines()
        .filter(|line| line.starts_with("    {\"label\": ") && !line.starts_with(&mine))
        .map(|line| line.trim_end_matches(','))
        .chain(rows.iter().map(String::as_str))
        .collect::<Vec<_>>()
        .join(",\n")
}
