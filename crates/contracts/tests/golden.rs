//! Golden bytes for the ledger records the trade contracts store and for
//! the read/write set they are committed in: each fixture's encoding as
//! hex, the decode of that hex back to the fixture, and a SHA-256 over the
//! `Debug` of the decode result of every strict prefix of the encoding.
//!
//! The constants were recorded before the codec was generated from one
//! field table per message; regenerate them only for a deliberate format
//! change.

use std::fmt::Debug;
use tdt_contracts::stl::{BillOfLading, Shipment, ShipmentStatus};
use tdt_contracts::swt::{LcStatus, LetterOfCredit};
use tdt_crypto::{hex_decode, hex_encode, sha256};
use tdt_fabric::endorse::{decode_rwset, encode_rwset};
use tdt_ledger::rwset::{TxRwSet, Version};
use tdt_wire::codec::Message;
use tdt_wire::WireError;

/// Checks `fixture` (encoded as `bytes`) against its pinned encoding and
/// prefix digest.
fn pin<T: PartialEq + Debug>(
    fixture: &T,
    bytes: &[u8],
    decode: fn(&[u8]) -> Result<T, WireError>,
    hex: &str,
    prefixes: &str,
) {
    assert_eq!(hex_encode(bytes), hex, "encoding of {fixture:?}");
    assert_eq!(&decode(&hex_decode(hex).unwrap()).unwrap(), fixture);
    let mut transcript = String::new();
    for len in 0..bytes.len() {
        transcript.push_str(&format!("{:?}\n", decode(&bytes[..len])));
    }
    assert_eq!(hex_encode(&sha256(transcript.as_bytes())), prefixes);
}

fn pin_message<M: Message + PartialEq + Debug>(fixture: &M, hex: &str, prefixes: &str) {
    pin(
        fixture,
        &fixture.encode_to_vec(),
        M::decode_from_slice,
        hex,
        prefixes,
    );
}

#[test]
fn shipment() {
    let shipment = Shipment {
        po_ref: "PO-1001".into(),
        seller: "stl/seller-org/seller".into(),
        carrier: "stl/carrier-org/carrier".into(),
        goods: "20 pallets".into(),
        status: ShipmentStatus::BlIssued,
        bl_id: "BL-7".into(),
    };
    pin_message(
        &shipment,
        "0a07504f2d31303031121573746c2f73656c6c65722d6f72672f73656c6c6572\
         1a1773746c2f636172726965722d6f72672f63617272696572220a3230207061\
         6c6c65747328043204424c2d37",
        "4288339037e78f07625dadf3e196f1749db789c9c70a4a27c2740d45b7d1628b",
    );
}

#[test]
fn bill_of_lading() {
    let bl = BillOfLading {
        bl_id: "BL-7".into(),
        po_ref: "PO-1001".into(),
        carrier: "stl/carrier-org/carrier".into(),
        goods: "20 pallets".into(),
        issued_height: 300,
    };
    pin_message(
        &bl,
        "0a04424c2d371207504f2d313030311a1773746c2f636172726965722d6f7267\
         2f63617272696572220a32302070616c6c65747328ac02",
        "8637f9c00e0024612bf6026108929704c1d254c8806e3cc5a3ac9e5d830154ab",
    );
}

#[test]
fn letter_of_credit() {
    let lc = LetterOfCredit {
        lc_id: "LC-3".into(),
        po_ref: "PO-1001".into(),
        buyer: "buyer".into(),
        seller: "seller".into(),
        amount: 125_000,
        status: LcStatus::DocsUploaded,
        bl: b"bill".to_vec(),
    };
    pin_message(
        &lc,
        "0a044c432d331207504f2d313030311a056275796572220673656c6c657228c8\
         d00730033a0462696c6c",
        "a8fc11d0de8b6333cacc13fd8fcb44b83d12b2c7b2fd98d32642b84d958d6201",
    );
}

#[test]
fn rwset() {
    // A versioned read, an unversioned read, a write, a delete and an
    // empty namespace.
    let mut rwset = TxRwSet::new();
    let ns = "TradeLensCC";
    rwset.record_read(ns, "shipment:PO-1001", Some(Version::new(4, 0)));
    rwset.record_read(ns, "bl:BL-7", None);
    rwset.record_write(ns, "bl:BL-7", Some(b"bl".to_vec()));
    rwset.record_write(ns, "draft:PO-1001", None);
    rwset.namespace_mut("ECC");
    pin(
        &rwset,
        &encode_rwset(&rwset),
        decode_rwset,
        "0a540a0b54726164654c656e73434312180a10736869706d656e743a504f2d31\
         30303110011805200112090a07626c3a424c2d371a0f0a07626c3a424c2d3710\
         011a02626c1a0f0a0d64726166743a504f2d313030310a050a03454343",
        "61aa4ef950cbce44ac25ebe34ae520de5917ed9dbd83f5c8f5e48656c6160247",
    );
}
