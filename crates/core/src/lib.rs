#![warn(missing_docs)]

//! Trusted data transfer between permissioned blockchain networks.
//!
//! This crate is the paper's primary contribution: a network-neutral
//! protocol and component set for cross-network queries whose responses
//! carry *proofs* representing the consensus view of the source network —
//! with no trusted mediator. It composes the substrates in this workspace
//! (`tdt-crypto`, `tdt-wire`, `tdt-ledger`, `tdt-fabric`, `tdt-contracts`,
//! `tdt-relay`) into the architecture of Fig. 2:
//!
//! * [`plugin`] — the custom endorsement plugin that signs query metadata
//!   and encrypts it for the requesting client (paper §4.3).
//! * [`driver`] — the Fabric [`tdt_relay::driver::NetworkDriver`]:
//!   orchestrates proof collection against peers per the verification
//!   policy, consulting the Exposure Control contract.
//! * [`proof`] — client-side response processing: decrypt, pre-verify, and
//!   assemble the [`tdt_wire::messages::Proof`] submitted with the local
//!   transaction.
//! * [`client`] — [`client::InteropClient`]: the application-facing API
//!   for remote queries and proof-carrying local transactions.
//! * [`config`] — administrative helpers for the initialization phase:
//!   recording foreign configurations, verification policies, and exposure
//!   rules through the system contracts.
//! * [`setup`] — wiring helpers that connect networks with relays,
//!   drivers, discovery, and transports.
//! * [`events`] — cross-network event subscription: a peer-attested
//!   block-event feed pushed through the relays (paper §2 primitive,
//!   deferred in §7).
//! * [`corda_like`] — a second (notary-based) network driver, the
//!   extensibility demonstration of §5.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` at the workspace root for a complete
//! two-network data transfer.

pub mod client;
pub mod config;
pub mod corda_like;
pub mod driver;
pub mod error;
pub mod events;
pub mod plugin;
pub mod proof;
pub mod setup;

pub use client::{InteropClient, RemoteData};
pub use error::InteropError;
