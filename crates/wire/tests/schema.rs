//! Append-only wire schema: every message's `FIELDS` table, rendered one
//! row per field, must match the committed `wire.snapshot` exactly.
//!
//! A committed row that disappears is what renumbering, retyping or
//! removing a field looks like, and fails naming the row. One tag written
//! by two wire methods in one message fails, because a reader cannot tell
//! the encodings apart. A new field fails until its row is added to the
//! snapshot by hand, so every schema change is a reviewed line in the diff.
//! There is no command that rewrites the file.

use std::collections::{BTreeMap, BTreeSet};
use tdt_wire::messages::*;
use tdt_wire::schema::FieldDesc;

const SNAPSHOT: &str = include_str!("wire.snapshot");

/// Every message declared with `message!`, by name.
const TABLES: &[(&str, &[FieldDesc])] = &[
    ("Attestation", Attestation::FIELDS),
    ("AuthInfo", AuthInfo::FIELDS),
    ("EventNotice", EventNotice::FIELDS),
    ("EventSubscribeRequest", EventSubscribeRequest::FIELDS),
    ("NetworkAddress", NetworkAddress::FIELDS),
    ("NetworkConfig", NetworkConfig::FIELDS),
    ("OrgConfig", OrgConfig::FIELDS),
    ("Proof", Proof::FIELDS),
    ("Query", Query::FIELDS),
    ("QueryResponse", QueryResponse::FIELDS),
    ("RelayEnvelope", RelayEnvelope::FIELDS),
    ("ResultMetadata", ResultMetadata::FIELDS),
    ("TraceHeader", TraceHeader::FIELDS),
    ("VerificationPolicy", VerificationPolicy::FIELDS),
];

/// `PolicyNode` is a hand-written oneof with no `FIELDS`: a kind varint
/// per variant (`Org`, `And`, `Or`, `OutOf`), then the org, the `OutOf`
/// threshold and the children.
const POLICY_NODE_ROWS: [&str; 7] = [
    "PolicyNode 1 u64 1",
    "PolicyNode 1 u64 2",
    "PolicyNode 1 u64 3",
    "PolicyNode 1 u64 4",
    "PolicyNode 2 string org",
    "PolicyNode 3 u64 thresholdasu64",
    "PolicyNode 4 repeated_messages children",
];

/// One row, `<message> <tag> <method> <descriptor>`: the `Writer` method
/// and the value the generated `encode` passes it.
fn row(message: &str, field: &FieldDesc) -> String {
    let (method, descriptor) = match field.kind {
        "enumeration" => ("u64", format!("{}.code()", field.name)),
        "repeated_string" => (
            "repeated_bytes",
            format!("{}.iter().map(String::as_bytes)", field.name),
        ),
        kind => (kind, field.name.to_owned()),
    };
    format!("{message} {} {method} {descriptor}", field.tag)
}

fn render(tables: &[(&str, &[FieldDesc])]) -> Vec<String> {
    let rows = tables
        .iter()
        .flat_map(|(message, fields)| fields.iter().map(|f| row(message, f)));
    rows.chain(POLICY_NODE_ROWS.map(str::to_owned)).collect()
}

/// Every way `rows` departs from `snapshot`, one message per problem.
fn check(rows: &[String], snapshot: &str) -> Vec<String> {
    let committed: BTreeSet<&str> = snapshot
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    if committed.is_empty() {
        return vec!["wire.snapshot has no rows".to_owned()];
    }
    let current: BTreeSet<&str> = rows.iter().map(String::as_str).collect();
    let mut errors = Vec::new();
    let mut methods: BTreeMap<(&str, &str), BTreeSet<&str>> = BTreeMap::new();
    for cols in current.iter().map(|r| Vec::from_iter(r.splitn(4, ' '))) {
        methods
            .entry((cols[0], cols[1]))
            .or_default()
            .insert(cols[2]);
    }
    for ((message, tag), used) in methods.iter().filter(|(_, m)| m.len() > 1) {
        errors.push(format!(
            "`{message}` tag {tag} is reused with different wire methods ({})",
            Vec::from_iter(used.iter().copied()).join(", ")
        ));
    }
    for gone in committed.difference(&current) {
        errors.push(format!(
            "`{gone}` is no longer encoded: a released field keeps its tag and kind"
        ));
    }
    for new in current.difference(&committed) {
        errors.push(format!(
            "`{new}` is not in wire.snapshot: add the row by hand with the new field"
        ));
    }
    errors
}

#[test]
fn every_fields_table_matches_the_committed_snapshot() {
    assert_eq!(check(&render(TABLES), SNAPSHOT), Vec::<String>::new());
}

/// `Attestation`'s table with `mutate` applied, against its own snapshot.
fn check_mutated(mutate: impl FnOnce(&mut Vec<FieldDesc>)) -> Vec<String> {
    let snapshot = render(&[("Attestation", Attestation::FIELDS)]).join("\n");
    let mut fields = Attestation::FIELDS.to_vec();
    mutate(&mut fields);
    check(&render(&[("Attestation", &fields)]), &snapshot)
}

#[test]
fn renumbered_field_fails_naming_the_row() {
    let errors = check_mutated(|f| f[1].tag = 7);
    assert_eq!(errors.len(), 2, "{errors:?}");
    assert!(errors[0].contains("`Attestation 2 bytes signature` is no longer encoded"));
    assert!(errors[1].contains("`Attestation 7 bytes signature` is not in"));
}

#[test]
fn removed_field_fails_naming_the_row() {
    let errors = check_mutated(|f| {
        f.pop();
    });
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("`Attestation 4 bool metadata_encrypted` is no longer"));
}

#[test]
fn new_field_fails_until_its_row_is_added() {
    let errors = check_mutated(|f| {
        f.push(FieldDesc {
            tag: 5,
            kind: "u64",
            name: "extra",
        })
    });
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("`Attestation 5 u64 extra` is not in wire.snapshot"));
}

#[test]
fn tag_reused_with_a_second_method_fails() {
    let errors = check_mutated(|f| {
        f.push(FieldDesc {
            tag: 3,
            kind: "string",
            name: "note",
        })
    });
    assert!(
        errors.contains(
            &"`Attestation` tag 3 is reused with different wire methods (bytes, string)".to_owned()
        ),
        "{errors:?}"
    );
}

#[test]
fn empty_snapshot_fails() {
    let rows = render(TABLES);
    assert_eq!(check(&rows, ""), ["wire.snapshot has no rows"]);
    assert_eq!(
        check(&rows, "# header only\n"),
        ["wire.snapshot has no rows"]
    );
}
