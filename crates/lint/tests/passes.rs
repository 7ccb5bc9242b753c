//! End-to-end checks for the analyzer: every pass must flag its seeded
//! fixture under `tests/fixtures/`, and the real workspace tree must be
//! clean (the fixtures live outside `src/` so `run_all` never sees them).

use lint::workspace::SourceFile;
use std::path::{Path, PathBuf};

fn fixture(name: &str, crate_name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    SourceFile {
        rel_path: format!("crates/lint/tests/fixtures/{name}"),
        crate_name: crate_name.to_owned(),
        text: std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}")),
    }
}

fn workspace_root() -> PathBuf {
    lint::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace")
}

#[test]
fn lock_order_flags_seeded_deadlock() {
    let mut out = Vec::new();
    lint::locks::check(&[fixture("deadlock.rs", "relay")], &mut out);
    assert_eq!(out.len(), 1, "expected exactly one cycle report: {out:?}");
    let d = &out[0];
    assert_eq!(d.pass, "lock-order");
    assert!(d.message.contains("cycle"), "{}", d.message);
    assert!(d.message.contains("Ledger::accounts"), "{}", d.message);
    assert!(d.message.contains("Ledger::audit"), "{}", d.message);
    // Witnesses must carry file:line for both edges.
    assert!(
        d.message.contains("fixtures/deadlock.rs:"),
        "cycle report lacks file:line witnesses: {}",
        d.message
    );
}

#[test]
fn panic_pass_flags_seeded_unwrap_but_not_test_code() {
    let mut out = Vec::new();
    lint::panics::check_file(&fixture("seeded_unwrap.rs", "relay"), &mut out);
    // One line carries both seeds: the slice index and the unwrap. The
    // identical constructs inside #[cfg(test)] must not be reported.
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out.iter().all(|d| d.pass == "panic"));
    assert!(out.iter().any(|d| d.message.contains("unwrap")), "{out:?}");
    assert!(out.iter().any(|d| d.message.contains("index")), "{out:?}");
    assert!(out.iter().all(|d| d.line == out[0].line), "{out:?}");
}

#[test]
fn ct_pass_flags_seeded_compare_and_secret_branch() {
    let mut out = Vec::new();
    lint::ct::check_file(&fixture("non_ct.rs", "crypto"), &mut out);
    assert_eq!(out.len(), 4, "{out:?}");
    assert!(out.iter().all(|d| d.pass == "ct"));
    assert!(
        out.iter()
            .filter(|d| d.message.contains("variable-time `==`"))
            .count()
            == 2,
        "{out:?}"
    );
    assert!(
        out.iter()
            .any(|d| d.message.contains("secret-derived bool `mac_ok`")),
        "{out:?}"
    );
    assert!(
        out.iter()
            .any(|d| d.message.contains("table lookup `table[...]`")),
        "{out:?}"
    );
}

/// Every non-test call of method `name` in `crates/*/src`, as
/// `(file, argument tokens joined)`.
fn call_sites(name: &str) -> Vec<(String, String)> {
    let root = workspace_root();
    let crates = lint::workspace::crate_names(&root).expect("crates/ readable");
    let crates: Vec<&str> = crates.iter().map(String::as_str).collect();
    let mut out = Vec::new();
    for file in lint::workspace::load_crates(&root, &crates).expect("workspace readable") {
        let tokens = lint::lexer::strip_test_items(&lint::lexer::lex(&file.text).tokens);
        for (i, t) in tokens.iter().enumerate() {
            let called = t.tok.is_ident(name)
                && i > 0
                && tokens[i - 1].tok.is_punct(".")
                && tokens.get(i + 1).is_some_and(|t| t.tok.is_punct("("));
            if !called {
                continue;
            }
            let mut depth = 1;
            let mut arg = String::new();
            for t in &tokens[i + 2..] {
                match &t.tok {
                    lint::lexer::Tok::Punct("(") => depth += 1,
                    lint::lexer::Tok::Punct(")") => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
                match &t.tok {
                    lint::lexer::Tok::Ident(s) | lint::lexer::Tok::Num(s) => arg.push_str(s),
                    lint::lexer::Tok::Punct(p) => arg.push_str(p),
                    _ => arg.push('?'),
                }
            }
            out.push((file.rel_path.clone(), arg));
        }
    }
    out.sort();
    out
}

#[test]
fn variable_time_subgroup_check_only_ever_sees_public_values() {
    // `BigUint::jacobi` branches on its operands, and its `lint:allow(ct)`
    // says they are public. That holds as long as `Group::is_element` is
    // its only caller and is itself only handed public-key elements (`y`)
    // and ciphertext headers (`c1`) — never a `SigningKey`/`DecryptionKey`
    // scalar (`x`). A new call site fails here until someone has looked at
    // what it passes and added it below.
    let pair = |file: &str, arg: &str| (file.to_owned(), arg.to_owned());
    assert_eq!(
        call_sites("jacobi"),
        vec![pair("crates/crypto/src/group.rs", "self.p()")]
    );
    assert_eq!(
        call_sites("is_element"),
        vec![
            pair("crates/bench/src/bin/crypto_smoke.rs", "vk.element()"), // a public key
            pair("crates/crypto/src/elgamal.rs", "&c1"),                  // DecryptionKey::decrypt
            pair("crates/crypto/src/elgamal.rs", "&y"), // EncryptionKey::from_bytes
            pair("crates/crypto/src/schnorr.rs", "&y"), // VerifyingKey::from_bytes
        ]
    );
}

#[test]
fn short_exponents_are_drawn_for_elgamal_only() {
    // `Group::short_exponent` is sound for ElGamal's `k` and `x`. A Schnorr
    // nonce drawn from it gives the signing key away after two signatures,
    // so `SigningKey::sign` (all of schnorr.rs) must never appear here.
    let elgamal = |arg: &str| ("crates/crypto/src/elgamal.rs".to_owned(), arg.to_owned());
    assert_eq!(
        call_sites("short_exponent"),
        vec![
            elgamal("&mutdrbg"), // DecryptionKey::from_seed, encrypt_deterministic
            elgamal("&mutdrbg"),
            elgamal("rng"), // DecryptionKey::generate, EncryptionKey::encrypt
            elgamal("rng"),
        ]
    );
}

#[test]
fn wire_pass_rejects_renumbered_fixture_tag() {
    let baseline = lint::wire::extract_rows(&fixture("wire_baseline.rs", "wire").text);
    assert_eq!(baseline.len(), 3, "{baseline:?}");
    let snapshot = lint::wire::render_snapshot(&baseline);

    // The baseline is clean against its own snapshot.
    let mut out = Vec::new();
    lint::wire::check_against_snapshot(&baseline, &snapshot, "wire_baseline.rs", "snap", &mut out);
    assert!(out.is_empty(), "{out:?}");

    // The renumbered variant (nonce: tag 2 -> 4) is rejected.
    let renumbered = lint::wire::extract_rows(&fixture("wire_renumbered.rs", "wire").text);
    let mut out = Vec::new();
    lint::wire::check_against_snapshot(
        &renumbered,
        &snapshot,
        "wire_renumbered.rs",
        "snap",
        &mut out,
    );
    assert!(!out.is_empty(), "renumbered tag not flagged");
    assert!(
        out.iter()
            .any(|d| d.pass == "wire" && d.message.contains("nonce")),
        "{out:?}"
    );
}

#[test]
fn real_wire_schema_rejects_deliberate_renumber() {
    let root = workspace_root();
    let messages = std::fs::read_to_string(root.join(lint::MESSAGES_PATH)).expect("messages.rs");
    let snapshot = std::fs::read_to_string(root.join(lint::SNAPSHOT_PATH)).expect("snapshot");

    // Renumber AuthInfo.network_id (tag 1) to an unused tag.
    let tampered = messages.replacen(
        "w.string(1, &self.network_id);",
        "w.string(31, &self.network_id);",
        1,
    );
    assert_ne!(tampered, messages, "renumber target not found");

    let rows = lint::wire::extract_rows(&tampered);
    let mut out = Vec::new();
    lint::wire::check_against_snapshot(
        &rows,
        &snapshot,
        lint::MESSAGES_PATH,
        lint::SNAPSHOT_PATH,
        &mut out,
    );
    assert!(!out.is_empty(), "deliberate renumber not rejected");
    assert!(
        out.iter()
            .any(|d| d.pass == "wire" && d.message.contains("network_id")),
        "{out:?}"
    );
}

#[test]
fn sync_pass_flags_seeded_rmw_and_bare_allow() {
    let mut out = Vec::new();
    lint::sync::check_file(&fixture("sync_rmw.rs", "relay"), &mut out);
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out.iter().all(|d| d.pass == "sync"));
    assert!(
        out.iter()
            .any(|d| d.message.contains("read-modify-write") && d.message.contains("`estimate`")),
        "{out:?}"
    );
    // The justified allow suppresses its site; the bare allow is itself
    // a finding.
    assert!(
        out.iter().any(|d| d.message.contains("justification")),
        "{out:?}"
    );
}

#[test]
fn sync_pass_flags_relaxed_flag_and_epoch_but_not_counter() {
    let mut out = Vec::new();
    lint::sync::check_file(&fixture("sync_flag.rs", "relay"), &mut out);
    assert_eq!(out.len(), 4, "{out:?}");
    assert!(out.iter().all(|d| d.pass == "sync"));
    assert_eq!(
        out.iter().filter(|d| d.message.contains("`ready`")).count(),
        2,
        "flag store + load: {out:?}"
    );
    assert_eq!(
        out.iter().filter(|d| d.message.contains("`epoch`")).count(),
        2,
        "epoch RMW + load: {out:?}"
    );
    assert!(
        !out.iter().any(|d| d.message.contains("`hits`")),
        "pure counter must pass inference: {out:?}"
    );
}

#[test]
fn sync_pass_flags_lock_bypass_but_not_guard_local() {
    let mut out = Vec::new();
    lint::sync::check_file(&fixture("sync_bypass.rs", "relay"), &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].pass, "sync");
    assert!(out[0].message.contains("bypass"), "{out:?}");
    assert!(out[0].message.contains("`pending`"), "{out:?}");
}

#[test]
fn sync_inventory_covers_real_tree() {
    let inv = lint::sync_inventory(&workspace_root()).expect("workspace readable");
    let relay = inv
        .by_crate
        .get("relay")
        .expect("relay crate inventoried: {inv:?}");
    // The breaker's trip counter and the service shutdown flag are
    // long-lived shared state the inventory must surface.
    assert!(
        relay.iter().any(|d| d.name == "trips"),
        "breaker counters missing: {relay:?}"
    );
    assert!(
        relay
            .iter()
            .any(|d| d.kind == lint::sync::SharedKind::Guarded),
        "lock-guarded fields missing: {relay:?}"
    );
    assert!(inv.render().contains("crate relay"));
}

#[test]
fn unsafe_pass_flags_each_kind_of_violation() {
    // In a reviewed kernel file: the undocumented block and the `unsafe fn`
    // without a `# Safety` section, not their documented twins.
    let mut text = fixture("unsafe_code.rs", "obs");
    text.rel_path = lint::unsafety::UNSAFE_FILES[1].to_owned();
    let mut out = Vec::new();
    lint::unsafety::check_file(&text, &mut out);
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out.iter().all(|d| d.pass == "unsafe"));
    assert!(out[0].message.contains("`// SAFETY:`"), "{out:?}");
    assert!(out[1].message.contains("`# Safety`"), "{out:?}");

    // Anywhere else every `unsafe` is a finding, documented or not.
    let mut out = Vec::new();
    lint::unsafety::check_file(&fixture("unsafe_code.rs", "relay"), &mut out);
    assert_eq!(out.len(), 6, "{out:?}");
    assert!(out.iter().all(|d| d.message.contains("outside")), "{out:?}");
}

#[test]
fn unsafe_lives_only_in_the_two_hash_kernel_files() {
    // The real tree: `UNSAFE_FILES` is exactly the files that use it.
    let root = workspace_root();
    let crates = lint::workspace::crate_names(&root).expect("crates/ readable");
    let crates: Vec<&str> = crates.iter().map(String::as_str).collect();
    let mut users: Vec<String> = lint::workspace::load_crates(&root, &crates)
        .expect("workspace readable")
        .into_iter()
        .filter(|f| {
            lint::lexer::lex(&f.text)
                .tokens
                .iter()
                .any(|t| t.tok.is_ident("unsafe"))
        })
        .map(|f| f.rel_path)
        .collect();
    users.sort();
    assert_eq!(users, lint::unsafety::UNSAFE_FILES);
}

#[test]
fn clean_tree_produces_no_diagnostics() {
    let out = lint::run_all(&workspace_root()).expect("workspace readable");
    assert!(out.is_empty(), "real tree must be lint-clean: {out:#?}");
}
