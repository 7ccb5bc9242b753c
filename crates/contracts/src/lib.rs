#![warn(missing_docs)]

//! System contracts and application chaincodes.
//!
//! The paper's architecture (§3.2) rests on *system contracts* deployed on
//! every peer of each interoperating network:
//!
//! * [`ecc`] — the **Exposure Control Chaincode**: consensual access-control
//!   rules `<network, org, chaincode, function>`, checked by the gate every
//!   relay proposal passes before it runs, plus response encryption with
//!   the requester's public key.
//! * [`cmdac`] — the combined **Configuration Management & Data Acceptance
//!   Chaincode**: records foreign network configurations (MSP roots, peer
//!   certificates) and verification policies, validates attestation proofs
//!   against them, and tracks nonces to block replays.
//! * [`foreign`] — the rules every verifier of foreign-signed data shares:
//!   who may sign for a recorded network, and what an attestation proves.
//!
//! Plus the two application chaincodes of the use case (§4.2):
//!
//! * [`stl`] — Simplified TradeLens: shipments and bills of lading, with
//!   `GetBillOfLading` exposed cross-network by an exposure rule.
//! * [`swt`] — Simplified We.Trade: letters of credit and payments, with
//!   `UploadDispatchDocs` accepting a remotely fetched B/L plus proof.
//!
//! Each contract declares its functions once, in a `chaincode!` table: name,
//! typed arguments and caller class ([`FunctionDesc`]). The table generates
//! the dispatch and each contract's `FUNCTIONS`, which the ECC's gate reads.
//!
//! Interop-specific lines in the application chaincodes are marked with
//! `// interop-adaptation` comments so the adaptation-effort experiment
//! (paper §5, "Ease of Use and Adaptation") can count them.

mod abi;
pub mod cmdac;
pub mod ecc;
pub mod foreign;
pub mod stl;
pub mod swt;

pub use abi::{Caller, FunctionDesc};
pub use tdt_fabric::chaincode::ECC_NAME;
/// Conventional deployment name of the combined Configuration Management &
/// Data Acceptance Chaincode.
pub const CMDAC_NAME: &str = "CMDAC";
