#![warn(missing_docs)]

//! Network-neutral wire protocol for cross-network data transfer.
//!
//! The paper specifies that relays communicate "using a shared
//! network-neutral protocol specified using Protocol Buffers" (§3.2). This
//! crate reproduces that layer from scratch:
//!
//! * [`varint`] — LEB128 variable-length integers (proto3 wire rule).
//! * [`codec`] — a tag/wire-type field codec compatible with the proto3
//!   binary format, plus the [`codec::Message`] trait.
//! * [`messages`] — the relay protocol schema: [`messages::NetworkAddress`],
//!   [`messages::Query`], [`messages::QueryResponse`], attestation proofs,
//!   verification policies, and the [`messages::RelayEnvelope`] that wraps
//!   them on the wire. Evaluation of the [`messages::PolicyNode`] algebra
//!   lives beside it in the private `policy` module.
//! * [`schema`] — [`message!`] and [`wire_enum!`]: each field stated once,
//!   the codec and the `FIELDS` table generated from it.
//! * [`framing`] — length-prefixed frames for stream transports (TCP).
//!
//! # Example
//!
//! ```
//! use tdt_wire::codec::Message;
//! use tdt_wire::messages::NetworkAddress;
//!
//! let addr = NetworkAddress::new("simplified-tradelens", "trade-channel",
//!                                "TradeLensCC", "GetBillOfLading")
//!     .with_arg(b"PO-1001".to_vec());
//! let bytes = addr.encode_to_vec();
//! let decoded = NetworkAddress::decode_from_slice(&bytes)?;
//! assert_eq!(decoded, addr);
//! # Ok::<(), tdt_wire::WireError>(())
//! ```

pub mod codec;
pub mod error;
pub mod framing;
pub mod messages;
mod policy;
pub mod schema;
pub mod varint;

pub use error::WireError;
