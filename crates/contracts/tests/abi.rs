//! The contracts' function tables: every `FUNCTIONS` row, rendered as it
//! is declared (name, typed arguments, caller class), must match the
//! committed `abi.snapshot` exactly.
//!
//! Clients, apps and the benchmark call functions by name (`ValidateProof`,
//! `CheckAccess`, `GetBillOfLading`, `UploadDispatchDocs`, ...), so a
//! renamed, removed or retyped row fails here naming the row, and a new row
//! fails until it is added to the snapshot by hand. There is no command
//! that rewrites the file.

use std::collections::BTreeSet;
use tdt_contracts::cmdac::Cmdac;
use tdt_contracts::ecc::Ecc;
use tdt_contracts::stl::StlChaincode;
use tdt_contracts::swt::SwtChaincode;
use tdt_contracts::{Caller, FunctionDesc, CMDAC_NAME, ECC_NAME};
use tdt_fabric::chaincode::RELAY_GATE_FN;

const SNAPSHOT: &str = include_str!("abi.snapshot");

/// Every contract declared with `chaincode!`, by deployment name.
const TABLES: &[(&str, &[FunctionDesc])] = &[
    (ECC_NAME, Ecc::FUNCTIONS),
    (CMDAC_NAME, Cmdac::FUNCTIONS),
    (StlChaincode::NAME, StlChaincode::FUNCTIONS),
    (SwtChaincode::NAME, SwtChaincode::FUNCTIONS),
];

/// One row per function, `<contract> <Name>(<arg>: <kind>, ..) <caller>`.
fn render(tables: &[(&str, &[FunctionDesc])]) -> Vec<String> {
    let rows = tables
        .iter()
        .flat_map(|(contract, functions)| functions.iter().map(move |f| format!("{contract} {f}")));
    rows.collect()
}

/// Every way `rows` departs from `snapshot`, one message per row.
fn check(rows: &[String], snapshot: &str) -> Vec<String> {
    let committed: BTreeSet<&str> = snapshot
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    if committed.is_empty() {
        return vec!["abi.snapshot has no rows".to_owned()];
    }
    let current: BTreeSet<&str> = rows.iter().map(String::as_str).collect();
    let gone = committed.difference(&current).map(|row| {
        format!("`{row}` is no longer declared: callers name it, so change them and the row")
    });
    let new = current
        .difference(&committed)
        .map(|row| format!("`{row}` is not in abi.snapshot: add the row by hand"));
    gone.chain(new).collect()
}

#[test]
fn every_function_table_matches_the_committed_snapshot() {
    assert_eq!(check(&render(TABLES), SNAPSHOT), Vec::<String>::new());
}

#[test]
fn only_the_two_allow_listed_system_functions_are_open() {
    let open: Vec<String> = render(TABLES)
        .into_iter()
        .filter(|row| row.ends_with(") Open"))
        .collect();
    assert_eq!(open.len(), 2, "{open:?}");
    assert!(open[0].starts_with("ECC CheckAccess("), "{open:?}");
    assert!(open[1].starts_with("CMDAC ValidateProof("), "{open:?}");
}

#[test]
fn the_gate_the_peer_calls_is_an_ecc_row() {
    assert!(Ecc::FUNCTIONS.iter().any(|f| f.name == RELAY_GATE_FN));
}

/// STL's table with `mutate` applied, against its own snapshot.
fn check_mutated(mutate: impl FnOnce(&mut Vec<FunctionDesc>)) -> Vec<String> {
    let snapshot = render(&[("TradeLensCC", StlChaincode::FUNCTIONS)]).join("\n");
    let mut functions = StlChaincode::FUNCTIONS.to_vec();
    mutate(&mut functions);
    check(&render(&[("TradeLensCC", &functions)]), &snapshot)
}

#[test]
fn renamed_function_fails_naming_the_row() {
    let errors = check_mutated(|f| f[8].name = "GetBL");
    assert_eq!(errors.len(), 2, "{errors:?}");
    assert!(errors[0].contains("`TradeLensCC GetBillOfLading(po_ref: str) Any` is no longer"));
    assert!(errors[1].contains("`TradeLensCC GetBL(po_ref: str) Any` is not in"));
}

#[test]
fn removed_function_fails_naming_the_row() {
    let errors = check_mutated(|f| {
        f.remove(0);
    });
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains(
        "`TradeLensCC CreateShipment(po_ref: str, goods: str) Org(seller_org)` is no longer"
    ));
}

#[test]
fn new_function_or_caller_class_fails_until_its_row_is_added() {
    let errors = check_mutated(|f| {
        f[4].caller = Caller::Open;
        f.push(FunctionDesc {
            name: "DeleteShipment",
            args: &[("po_ref", "str")],
            caller: Caller::Org("seller_org"),
        });
    });
    assert_eq!(errors.len(), 3, "{errors:?}");
    assert!(errors[0].contains("`TradeLensCC GetShipment(po_ref: str) Any` is no longer"));
    assert!(errors[1].contains("`TradeLensCC DeleteShipment(po_ref: str) Org(seller_org)` is not"));
    assert!(errors[2].contains("`TradeLensCC GetShipment(po_ref: str) Open` is not"));
}

#[test]
fn empty_snapshot_fails() {
    let rows = render(TABLES);
    assert_eq!(check(&rows, ""), ["abi.snapshot has no rows"]);
    assert_eq!(
        check(&rows, "# header only\n"),
        ["abi.snapshot has no rows"]
    );
}
