//! Error type of the interoperability layer.

use std::error::Error;
use std::fmt;

/// Errors raised by the trusted-data-transfer protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InteropError {
    /// The addressed network does not match the driver's network.
    WrongNetwork {
        /// The network this driver serves.
        expected: String,
        /// The network the query addressed.
        got: String,
    },
    /// The verification policy cannot be satisfied (unknown orgs, empty
    /// expression, or peers unavailable).
    PolicyUnsatisfiable(String),
    /// The remote query was denied by exposure control.
    AccessDenied(String),
    /// The remote function/asset does not exist.
    NotFound(String),
    /// The query's authentication details failed verification.
    BadAuthentication(String),
    /// Peers returned divergent results.
    DivergentResults(String),
    /// The response (or proof) failed client-side verification.
    InvalidResponse(String),
    /// The client identity lacks a decryption key for confidential data.
    MissingDecryptionKey,
    /// A relay-layer failure.
    Relay(tdt_relay::RelayError),
    /// A blockchain-layer failure.
    Fabric(tdt_fabric::FabricError),
    /// A cryptographic failure.
    Crypto(tdt_crypto::CryptoError),
    /// A wire-encoding failure.
    Wire(tdt_wire::WireError),
}

impl fmt::Display for InteropError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InteropError::WrongNetwork { expected, got } => {
                write!(
                    f,
                    "query addressed to {got:?} but this driver serves {expected:?}"
                )
            }
            InteropError::PolicyUnsatisfiable(m) => {
                write!(f, "verification policy unsatisfiable: {m}")
            }
            InteropError::AccessDenied(m) => write!(f, "access denied by source network: {m}"),
            InteropError::NotFound(m) => write!(f, "not found on source network: {m}"),
            InteropError::BadAuthentication(m) => write!(f, "authentication failed: {m}"),
            InteropError::DivergentResults(m) => write!(f, "peers returned divergent results: {m}"),
            InteropError::InvalidResponse(m) => write!(f, "invalid response: {m}"),
            InteropError::MissingDecryptionKey => {
                write!(
                    f,
                    "client identity has no decryption key for confidential data"
                )
            }
            InteropError::Relay(e) => write!(f, "relay error: {e}"),
            InteropError::Fabric(e) => write!(f, "fabric error: {e}"),
            InteropError::Crypto(e) => write!(f, "crypto error: {e}"),
            InteropError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl Error for InteropError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InteropError::Relay(e) => Some(e),
            InteropError::Fabric(e) => Some(e),
            InteropError::Crypto(e) => Some(e),
            InteropError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tdt_relay::RelayError> for InteropError {
    fn from(e: tdt_relay::RelayError) -> Self {
        InteropError::Relay(e)
    }
}

impl From<tdt_fabric::FabricError> for InteropError {
    fn from(e: tdt_fabric::FabricError) -> Self {
        InteropError::Fabric(e)
    }
}

impl From<tdt_crypto::CryptoError> for InteropError {
    fn from(e: tdt_crypto::CryptoError) -> Self {
        InteropError::Crypto(e)
    }
}

impl From<tdt_wire::WireError> for InteropError {
    fn from(e: tdt_wire::WireError) -> Self {
        InteropError::Wire(e)
    }
}

/// Foreign-signed data the client refuses is an invalid response, whatever
/// the rule that refused it.
impl From<tdt_contracts::foreign::Rejection> for InteropError {
    fn from(rejection: tdt_contracts::foreign::Rejection) -> Self {
        InteropError::InvalidResponse(rejection.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            InteropError::WrongNetwork {
                expected: "a".into(),
                got: "b".into(),
            },
            InteropError::PolicyUnsatisfiable("x".into()),
            InteropError::AccessDenied("x".into()),
            InteropError::NotFound("x".into()),
            InteropError::BadAuthentication("x".into()),
            InteropError::DivergentResults("x".into()),
            InteropError::InvalidResponse("x".into()),
            InteropError::MissingDecryptionKey,
            InteropError::Relay(tdt_relay::RelayError::RateLimited),
            InteropError::Fabric(tdt_fabric::FabricError::Internal("x".into())),
            InteropError::Crypto(tdt_crypto::CryptoError::InvalidSignature),
            InteropError::Wire(tdt_wire::WireError::UnexpectedEof),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn sources_chain() {
        let e: InteropError = tdt_relay::RelayError::RateLimited.into();
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&InteropError::MissingDecryptionKey).is_none());
    }
}
