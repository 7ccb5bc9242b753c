//! `lint` — the workspace's own static analyzer.
//!
//! Seven passes guard invariants the compiler cannot see (ISSUE 3, 5,
//! 8 and 21; paper §4–5 trust model):
//!
//! | pass         | scope                              | invariant                         |
//! |--------------|------------------------------------|-----------------------------------|
//! | `lock-order` | relay, crypto, core, fabric        | no lock-graph cycles (deadlocks)  |
//! | `panic`      | relay, core, fabric, contracts, ledger, obs, bench | fail closed, never panic |
//! | `ct`         | crypto                             | constant-time secret comparisons  |
//! | `wire`       | wire message schema                | append-only field-tag evolution   |
//! | `obs`        | relay request path, admission gate, ledger durability | fallible entry points record span errors |
//! | `sync`       | relay, obs, crypto, core, fabric   | atomics: no racy RMW, no Relaxed sync edges, no lock bypass |
//! | `unsafe`     | every crate                        | `unsafe` only in the hash kernels, each use with its `SAFETY` |
//!
//! Run as `cargo run -p lint --release -- check`; CI fails on any
//! diagnostic. Opt-outs are per-site comments: `// lint:allow(<pass>)`,
//! with a mandatory justification for `panic` and `sync`
//! (`// lint:allow(panic: "why this cannot fire")`). The shared-state
//! inventory behind the `sync` pass is browsable via
//! `cargo run -p lint --release -- sync-inventory`.
//!
//! The analyzer is deliberately dependency-free: a small hand-written
//! lexer ([`lexer`]) feeds token-level passes; no rustc internals, no
//! syn. That keeps it consistent with the workspace's vendored-stub
//! policy and fast enough to run on every PR.

pub mod ct;
pub mod diag;
pub mod lexer;
pub mod locks;
pub mod obs;
pub mod panics;
pub mod sync;
pub mod unsafety;
pub mod wire;
pub mod workspace;

use diag::Diagnostic;
use std::path::Path;

/// Crates scanned by the lock-order pass.
pub const LOCK_ORDER_CRATES: &[&str] = &["relay", "crypto", "core", "fabric"];
/// Crates where panicking is forbidden outside tests.
pub const PANIC_CRATES: &[&str] = &[
    "relay",
    "core",
    "fabric",
    "contracts",
    "ledger",
    "obs",
    "bench",
];
/// Crates scanned for non-constant-time comparisons.
pub const CT_CRATES: &[&str] = &["crypto"];
/// Crates scanned by the memory-model (`sync`) pass.
pub const SYNC_CRATES: &[&str] = &["relay", "obs", "crypto", "core", "fabric", "ledger"];
/// Crates scanned by the observability (`obs`) pass; per-file scope and
/// error matching live in [`obs::OBS_FILES`].
pub const OBS_CRATES: &[&str] = &["relay", "ledger"];
/// The wire schema source, relative to the workspace root.
pub const MESSAGES_PATH: &str = "crates/wire/src/messages.rs";
/// The blessed tag snapshot, relative to the workspace root.
pub const SNAPSHOT_PATH: &str = "crates/lint/schema/wire.snapshot";

/// Runs all seven passes against the workspace at `root`.
pub fn run_all(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();

    let lock_files = workspace::load_crates(root, LOCK_ORDER_CRATES)?;
    locks::check(&lock_files, &mut out);

    for file in workspace::load_crates(root, PANIC_CRATES)? {
        panics::check_file(&file, &mut out);
    }

    for file in workspace::load_crates(root, CT_CRATES)? {
        ct::check_file(&file, &mut out);
    }

    for file in workspace::load_crates(root, OBS_CRATES)? {
        obs::check_file(&file, &mut out);
    }

    for file in workspace::load_crates(root, SYNC_CRATES)? {
        sync::check_file(&file, &mut out);
    }

    let crates = workspace::crate_names(root)?;
    let crates: Vec<&str> = crates.iter().map(String::as_str).collect();
    for file in workspace::load_crates(root, &crates)? {
        unsafety::check_file(&file, &mut out);
    }

    let messages = std::fs::read_to_string(root.join(MESSAGES_PATH))?;
    let rows = wire::extract_rows(&messages);
    let snapshot = std::fs::read_to_string(root.join(SNAPSHOT_PATH)).unwrap_or_default();
    wire::check_against_snapshot(&rows, &snapshot, MESSAGES_PATH, SNAPSHOT_PATH, &mut out);

    Ok(out)
}

/// Builds the shared-state inventory the `sync` pass analyzes.
pub fn sync_inventory(root: &Path) -> std::io::Result<sync::Inventory> {
    let files = workspace::load_crates(root, SYNC_CRATES)?;
    Ok(sync::inventory(&files))
}

/// Regenerates the wire snapshot from the current schema.
pub fn bless(root: &Path) -> std::io::Result<()> {
    let messages = std::fs::read_to_string(root.join(MESSAGES_PATH))?;
    let rows = wire::extract_rows(&messages);
    std::fs::write(root.join(SNAPSHOT_PATH), wire::render_snapshot(&rows))
}
