//! CLI entry point: `cargo run -p lint --release -- check|bless|sync-inventory`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("check");

    let start = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = lint::workspace::find_root(&start) else {
        eprintln!("lint: no workspace root (Cargo.toml with [workspace]) above {start:?}");
        return ExitCode::from(2);
    };

    match cmd {
        "check" => match lint::run_all(&root) {
            Ok(diags) if diags.is_empty() => {
                println!("lint: clean (lock-order, panic, ct, wire, obs, sync, unsafe)");
                ExitCode::SUCCESS
            }
            Ok(diags) => {
                for d in &diags {
                    eprintln!("{d}");
                }
                eprintln!("lint: {} diagnostic(s)", diags.len());
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("lint: i/o error: {e}");
                ExitCode::from(2)
            }
        },
        "bless" => match lint::bless(&root) {
            Ok(()) => {
                println!("lint: wire snapshot regenerated at {}", lint::SNAPSHOT_PATH);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("lint: bless failed: {e}");
                ExitCode::from(2)
            }
        },
        "sync-inventory" => match lint::sync_inventory(&root) {
            Ok(inv) => {
                print!("{}", inv.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("lint: i/o error: {e}");
                ExitCode::from(2)
            }
        },
        other => {
            eprintln!(
                "lint: unknown command `{other}` (expected `check`, `bless`, or `sync-inventory`)"
            );
            ExitCode::from(2)
        }
    }
}
