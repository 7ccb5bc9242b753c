//! Relay error type.

use std::error::Error;
use std::fmt;
use tdt_wire::WireError;

/// Errors raised by the relay layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayError {
    /// No relay endpoint could be found for a network.
    DiscoveryFailed(String),
    /// The transport could not reach the remote relay.
    TransportFailed(String),
    /// A pooled connection died while the request was in flight. The
    /// request may never have reached the remote; a retry on a freshly
    /// dialed connection is safe and usually succeeds.
    StaleConnection(String),
    /// The local relay shed the request (token bucket empty).
    RateLimited,
    /// A relay instance is down (fault injection / outage).
    RelayDown(String),
    /// No driver is registered for the addressed network.
    NoDriver(String),
    /// The driver failed to execute the query.
    DriverFailed(String),
    /// The remote relay answered with an error envelope.
    Remote(String),
    /// Wire encoding/decoding failed.
    Wire(WireError),
    /// The circuit breaker for an endpoint is open: the endpoint has
    /// been failing and requests are rejected locally without touching
    /// the network until a half-open probe succeeds.
    CircuitOpen(String),
    /// The caller's deadline budget was exhausted before a reply (or a
    /// terminal error) was obtained.
    DeadlineExceeded(String),
    /// A relay component was constructed with invalid configuration
    /// (e.g. an empty relay group).
    InvalidConfig(String),
    /// The remote relay's admission controller shed the request before
    /// queuing it: at current queue depth the deadline budget could not
    /// plausibly be met. The endpoint is alive and answering — this is
    /// a fast, retryable rejection, not a failure of the relay itself.
    Overloaded(String),
}

impl fmt::Display for RelayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelayError::DiscoveryFailed(m) => write!(f, "relay discovery failed: {m}"),
            RelayError::TransportFailed(m) => write!(f, "relay transport failed: {m}"),
            RelayError::StaleConnection(m) => {
                write!(f, "pooled relay connection died mid-request: {m}")
            }
            RelayError::RateLimited => write!(f, "request rate limited by relay"),
            RelayError::RelayDown(id) => write!(f, "relay {id:?} is down"),
            RelayError::NoDriver(net) => write!(f, "no driver registered for network {net:?}"),
            RelayError::DriverFailed(m) => write!(f, "network driver failed: {m}"),
            RelayError::Remote(m) => write!(f, "remote relay error: {m}"),
            RelayError::Wire(e) => write!(f, "wire error: {e}"),
            RelayError::CircuitOpen(ep) => write!(f, "circuit breaker open for {ep:?}"),
            RelayError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            RelayError::InvalidConfig(m) => write!(f, "invalid relay configuration: {m}"),
            RelayError::Overloaded(m) => write!(f, "relay overloaded, request shed: {m}"),
        }
    }
}

impl RelayError {
    /// Whether this is a transient fault worth retrying on the same
    /// endpoint.
    ///
    /// Transport failures, pooled connections that died mid-request (the
    /// next attempt dials a fresh stream), downed relays, and shed
    /// (rate-limited or admission-shed) requests may heal on their own.
    /// Anything the remote actually decided — protocol errors, unknown
    /// networks or drivers, malformed frames — will fail identically on
    /// every attempt.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            RelayError::TransportFailed(_)
                | RelayError::StaleConnection(_)
                | RelayError::RelayDown(_)
                | RelayError::RateLimited
                | RelayError::Overloaded(_)
        )
    }

    /// Whether a relay group should fail over to another member: every
    /// transient fault, an open circuit, an exhausted deadline, and a
    /// [`RelayError::Wire`] decode failure — *this* member returned a reply
    /// that does not parse, a path-integrity fault another member may not
    /// share. Errors the remote side decided fail identically everywhere
    /// and surface immediately.
    pub fn is_failover(&self) -> bool {
        self.is_transient()
            || matches!(
                self,
                RelayError::CircuitOpen(_) | RelayError::DeadlineExceeded(_) | RelayError::Wire(_)
            )
    }

    /// Whether this error counts against the endpoint's health in a
    /// circuit breaker: every failover error except an admission shed.
    ///
    /// A shed ([`RelayError::Overloaded`]) is an *answer* from a live
    /// endpoint protecting its queue: worth retrying (ideally elsewhere),
    /// but tripping the breaker on it would turn a transient load spike
    /// into minutes of self-inflicted unavailability.
    pub fn blames_endpoint(&self) -> bool {
        self.is_failover() && !matches!(self, RelayError::Overloaded(_))
    }
}

impl Error for RelayError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RelayError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for RelayError {
    fn from(e: WireError) -> Self {
        RelayError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            RelayError::DiscoveryFailed("x".into()),
            RelayError::TransportFailed("x".into()),
            RelayError::StaleConnection("x".into()),
            RelayError::RateLimited,
            RelayError::RelayDown("r".into()),
            RelayError::NoDriver("n".into()),
            RelayError::DriverFailed("d".into()),
            RelayError::Remote("m".into()),
            RelayError::Wire(WireError::UnexpectedEof),
            RelayError::CircuitOpen("e".into()),
            RelayError::DeadlineExceeded("t".into()),
            RelayError::InvalidConfig("c".into()),
            RelayError::Overloaded("q".into()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn every_variant_is_classified_once() {
        // (error, transient, failover, blames the endpoint)
        let table = [
            (RelayError::DiscoveryFailed("x".into()), false, false, false),
            (RelayError::TransportFailed("x".into()), true, true, true),
            (RelayError::StaleConnection("x".into()), true, true, true),
            (RelayError::RateLimited, true, true, true),
            (RelayError::RelayDown("r".into()), true, true, true),
            (RelayError::NoDriver("n".into()), false, false, false),
            (RelayError::DriverFailed("d".into()), false, false, false),
            (RelayError::Remote("m".into()), false, false, false),
            (
                RelayError::Wire(WireError::UnexpectedEof),
                false,
                true,
                true,
            ),
            (RelayError::CircuitOpen("e".into()), false, true, true),
            (RelayError::DeadlineExceeded("t".into()), false, true, true),
            (RelayError::InvalidConfig("c".into()), false, false, false),
            (RelayError::Overloaded("q".into()), true, true, false),
        ];
        for (error, transient, failover, blames) in table {
            // A new variant must be added to the table above.
            match error {
                RelayError::DiscoveryFailed(_)
                | RelayError::TransportFailed(_)
                | RelayError::StaleConnection(_)
                | RelayError::RateLimited
                | RelayError::RelayDown(_)
                | RelayError::NoDriver(_)
                | RelayError::DriverFailed(_)
                | RelayError::Remote(_)
                | RelayError::Wire(_)
                | RelayError::CircuitOpen(_)
                | RelayError::DeadlineExceeded(_)
                | RelayError::InvalidConfig(_)
                | RelayError::Overloaded(_) => {}
            }
            assert_eq!(error.is_transient(), transient, "{error:?} transient");
            assert_eq!(error.is_failover(), failover, "{error:?} failover");
            assert_eq!(error.blames_endpoint(), blames, "{error:?} blames");
        }
    }

    #[test]
    fn wire_error_sources() {
        let e = RelayError::Wire(WireError::UnexpectedEof);
        assert!(Error::source(&e).is_some());
    }
}
