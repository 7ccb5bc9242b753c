//! The relay protocol message schema (paper §3.2).
//!
//! The protocol carries, per the paper: *"details on addressing a network,
//! ledger and contract, the function name and arguments for remote queries,
//! a verification policy that is satisfied by the relay in a source network,
//! and authentication details of the requesting entity. Similarly, a
//! response includes the data queried along with a proof that satisfies the
//! verification policy."*
//!
//! All messages implement [`Message`] and therefore encode to the proto3
//! binary format via [`crate::codec`].

use crate::codec::{Message, Reader, Writer};
use crate::error::WireError;
use tdt_crypto::cert::{CertRole, Certificate, Subject};
use tdt_crypto::schnorr::Signature;

/// Addresses a contract function on a remote ledger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetworkAddress {
    /// Unique name of the target network, e.g. `simplified-tradelens`.
    pub network_id: String,
    /// Ledger (channel) within the network.
    pub ledger_id: String,
    /// Contract (chaincode) name.
    pub contract_id: String,
    /// Function to invoke.
    pub function: String,
    /// Function arguments, opaque bytes.
    pub args: Vec<Vec<u8>>,
}

impl NetworkAddress {
    /// Creates an address with no arguments.
    pub fn new(
        network_id: impl Into<String>,
        ledger_id: impl Into<String>,
        contract_id: impl Into<String>,
        function: impl Into<String>,
    ) -> Self {
        NetworkAddress {
            network_id: network_id.into(),
            ledger_id: ledger_id.into(),
            contract_id: contract_id.into(),
            function: function.into(),
            args: Vec::new(),
        }
    }

    /// Appends an argument (builder style).
    pub fn with_arg(mut self, arg: Vec<u8>) -> Self {
        self.args.push(arg);
        self
    }

    /// Canonical display form `network:ledger:contract:function`.
    pub fn display_name(&self) -> String {
        format!(
            "{}:{}:{}:{}",
            self.network_id, self.ledger_id, self.contract_id, self.function
        )
    }
}

impl Message for NetworkAddress {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.network_id);
        w.string(2, &self.ledger_id);
        w.string(3, &self.contract_id);
        w.string(4, &self.function);
        w.repeated_bytes(5, &self.args);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = NetworkAddress::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.network_id = value.as_string(1, "network_id")?,
                2 => out.ledger_id = value.as_string(2, "ledger_id")?,
                3 => out.contract_id = value.as_string(3, "contract_id")?,
                4 => out.function = value.as_string(4, "function")?,
                5 => out.args.push(value.as_bytes(5)?.to_vec()),
                _ => {}
            }
        }
        Ok(out)
    }
}

/// A node in a verification-policy expression tree.
///
/// The paper's proof-of-concept policy — "proof from a peer in both the
/// Seller and Carrier organizations" — is `And[Org(seller), Org(carrier)]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyNode {
    /// Satisfied by a valid attestation from any peer of the organization.
    Org(String),
    /// Satisfied when every child is satisfied.
    And(Vec<PolicyNode>),
    /// Satisfied when at least one child is satisfied.
    Or(Vec<PolicyNode>),
    /// Satisfied when at least `threshold` children are satisfied.
    OutOf(u32, Vec<PolicyNode>),
}

impl Default for PolicyNode {
    fn default() -> Self {
        PolicyNode::And(Vec::new())
    }
}

/// Deepest policy expression the decoder accepts ([`PolicyNode::depth`]).
/// Decoding recurses once per level on bytes the sender controls: left
/// unbounded, six bytes of frame per level overflow the stack — a process
/// abort, not an error — some three orders of magnitude below the frame
/// cap. Real policies are a handful of levels deep.
pub const MAX_POLICY_DEPTH: usize = 32;

impl PolicyNode {
    /// All organization ids referenced anywhere in the tree.
    pub fn organizations(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_orgs(&mut out);
        out
    }

    fn collect_orgs<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            PolicyNode::Org(o) => out.push(o),
            PolicyNode::And(cs) | PolicyNode::Or(cs) | PolicyNode::OutOf(_, cs) => {
                for c in cs {
                    c.collect_orgs(out);
                }
            }
        }
    }

    /// Evaluates the tree against the set of organizations that produced
    /// valid attestations.
    pub fn is_satisfied<S: AsRef<str>>(&self, endorsing_orgs: &[S]) -> bool {
        match self {
            PolicyNode::Org(org) => endorsing_orgs.iter().any(|o| o.as_ref() == org),
            PolicyNode::And(cs) => cs.iter().all(|c| c.is_satisfied(endorsing_orgs)),
            PolicyNode::Or(cs) => cs.iter().any(|c| c.is_satisfied(endorsing_orgs)),
            PolicyNode::OutOf(k, cs) => {
                cs.iter().filter(|c| c.is_satisfied(endorsing_orgs)).count() >= *k as usize
            }
        }
    }

    /// Depth of the expression tree (an `Org` leaf is depth 1).
    pub fn depth(&self) -> usize {
        match self {
            PolicyNode::Org(_) => 1,
            PolicyNode::And(cs) | PolicyNode::Or(cs) | PolicyNode::OutOf(_, cs) => {
                1 + cs.iter().map(PolicyNode::depth).max().unwrap_or(0)
            }
        }
    }
}

impl Message for PolicyNode {
    fn encode(&self, w: &mut Writer) {
        match self {
            PolicyNode::Org(org) => {
                w.u64(1, 1);
                w.string(2, org);
            }
            PolicyNode::And(children) => {
                w.u64(1, 2);
                w.repeated_messages(4, children);
            }
            PolicyNode::Or(children) => {
                w.u64(1, 3);
                w.repeated_messages(4, children);
            }
            PolicyNode::OutOf(threshold, children) => {
                w.u64(1, 4);
                w.u64(3, *threshold as u64);
                w.repeated_messages(4, children);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Self::decode_at_depth(r, 1)
    }
}

impl PolicyNode {
    fn decode_at_depth(r: &mut Reader<'_>, depth: usize) -> Result<Self, WireError> {
        if depth > MAX_POLICY_DEPTH {
            return Err(WireError::Invalid(format!(
                "policy nested deeper than {MAX_POLICY_DEPTH} levels"
            )));
        }
        let mut kind = 0u64;
        let mut org = String::new();
        let mut threshold = 0u64;
        let mut children = Vec::new();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => kind = value.as_u64(1)?,
                2 => org = value.as_string(2, "org")?,
                3 => threshold = value.as_u64(3)?,
                4 => {
                    let mut child = Reader::new(value.as_bytes(4)?);
                    children.push(Self::decode_at_depth(&mut child, depth + 1)?);
                }
                _ => {}
            }
        }
        match kind {
            1 => Ok(PolicyNode::Org(org)),
            2 => Ok(PolicyNode::And(children)),
            3 => Ok(PolicyNode::Or(children)),
            4 => Ok(PolicyNode::OutOf(threshold as u32, children)),
            v => Err(WireError::UnknownEnumValue {
                field: "policy kind",
                value: v,
            }),
        }
    }
}

/// A verification policy: the proof criteria a destination network demands.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerificationPolicy {
    /// The policy expression.
    pub expression: PolicyNode,
    /// True when result and metadata must be encrypted end-to-end with the
    /// requesting client's public key.
    pub confidential: bool,
}

impl VerificationPolicy {
    /// A policy requiring one peer from each listed organization.
    pub fn all_of_orgs<I, S>(orgs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        VerificationPolicy {
            expression: PolicyNode::And(
                orgs.into_iter()
                    .map(|o| PolicyNode::Org(o.into()))
                    .collect(),
            ),
            confidential: false,
        }
    }

    /// A policy requiring any one of the listed organizations.
    pub fn any_of_orgs<I, S>(orgs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        VerificationPolicy {
            expression: PolicyNode::Or(
                orgs.into_iter()
                    .map(|o| PolicyNode::Org(o.into()))
                    .collect(),
            ),
            confidential: false,
        }
    }

    /// Marks the policy as requiring end-to-end confidentiality.
    pub fn with_confidentiality(mut self) -> Self {
        self.confidential = true;
        self
    }
}

impl Message for VerificationPolicy {
    fn encode(&self, w: &mut Writer) {
        w.message(1, &self.expression);
        w.bool(2, self.confidential);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = VerificationPolicy::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.expression = value.as_message(1)?,
                2 => out.confidential = value.as_bool(2)?,
                _ => {}
            }
        }
        Ok(out)
    }
}

/// Authentication details of the requesting entity (paper §3.2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuthInfo {
    /// Network the requester belongs to.
    pub network_id: String,
    /// Organization within that network.
    pub organization_id: String,
    /// The requester's certificate (wire-encoded [`Certificate`]).
    pub certificate: Vec<u8>,
    /// Requester's signature over the query's canonical bytes.
    pub signature: Vec<u8>,
}

impl AuthInfo {
    /// Decodes the embedded certificate.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the certificate bytes are malformed.
    pub fn decode_certificate(&self) -> Result<Certificate, WireError> {
        decode_certificate(&self.certificate)
    }
}

impl Message for AuthInfo {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.network_id);
        w.string(2, &self.organization_id);
        w.bytes(3, &self.certificate);
        w.bytes(4, &self.signature);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = AuthInfo::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.network_id = value.as_string(1, "network_id")?,
                2 => out.organization_id = value.as_string(2, "organization_id")?,
                3 => out.certificate = value.as_bytes(3)?.to_vec(),
                4 => out.signature = value.as_bytes(4)?.to_vec(),
                _ => {}
            }
        }
        Ok(out)
    }
}

/// A cross-network query: Step 1 of the paper's message flow (Fig. 2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// Globally unique request id (set by the requesting relay).
    pub request_id: String,
    /// What to invoke, where.
    pub address: NetworkAddress,
    /// Proof criteria the source must satisfy.
    pub policy: VerificationPolicy,
    /// Who is asking.
    pub auth: AuthInfo,
    /// Anti-replay nonce generated by the requesting client and recorded on
    /// the destination ledger (paper §4.3).
    pub nonce: Vec<u8>,
    /// True for a cross-network *invocation* (ledger update) rather than a
    /// read-only query — the extension sketched in paper §5 and §7.
    pub invocation: bool,
}

impl Message for Query {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.request_id);
        w.message(2, &self.address);
        w.message(3, &self.policy);
        w.message(4, &self.auth);
        w.bytes(5, &self.nonce);
        w.bool(6, self.invocation);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = Query::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.request_id = value.as_string(1, "request_id")?,
                2 => out.address = value.as_message(2)?,
                3 => out.policy = value.as_message(3)?,
                4 => out.auth = value.as_message(4)?,
                5 => out.nonce = value.as_bytes(5)?.to_vec(),
                6 => out.invocation = value.as_bool(6)?,
                _ => {}
            }
        }
        Ok(out)
    }
}

/// The metadata each endorsing peer signs over a query result (paper §4.3:
/// "a signature over query result metadata ... including the result").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResultMetadata {
    /// Request this result answers.
    pub request_id: String,
    /// Canonical address string of the queried function.
    pub address: String,
    /// SHA-256 of the (plaintext) result bytes.
    pub result_hash: Vec<u8>,
    /// The requester's anti-replay nonce, echoed back.
    pub nonce: Vec<u8>,
    /// Qualified name of the responding peer.
    pub peer_id: String,
    /// Organization of the responding peer.
    pub org_id: String,
    /// Ledger height at execution time.
    pub ledger_height: u64,
    /// For cross-network *invocations*: the block the transaction
    /// committed in, plus one (zero means "not an invocation receipt").
    pub committed_block_plus_one: u64,
    /// For cross-network invocations: the committed transaction id.
    pub txid: String,
}

impl ResultMetadata {
    /// The committed block number when this metadata is an invocation
    /// receipt.
    pub fn committed_block(&self) -> Option<u64> {
        self.committed_block_plus_one.checked_sub(1)
    }
}

impl Message for ResultMetadata {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.request_id);
        w.string(2, &self.address);
        w.bytes(3, &self.result_hash);
        w.bytes(4, &self.nonce);
        w.string(5, &self.peer_id);
        w.string(6, &self.org_id);
        w.u64(7, self.ledger_height);
        w.u64(8, self.committed_block_plus_one);
        w.string(9, &self.txid);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = ResultMetadata::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.request_id = value.as_string(1, "request_id")?,
                2 => out.address = value.as_string(2, "address")?,
                3 => out.result_hash = value.as_bytes(3)?.to_vec(),
                4 => out.nonce = value.as_bytes(4)?.to_vec(),
                5 => out.peer_id = value.as_string(5, "peer_id")?,
                6 => out.org_id = value.as_string(6, "org_id")?,
                7 => out.ledger_height = value.as_u64(7)?,
                8 => out.committed_block_plus_one = value.as_u64(8)?,
                9 => out.txid = value.as_string(9, "txid")?,
                _ => {}
            }
        }
        Ok(out)
    }
}

/// One peer's attestation: `<encrypted metadata, signature>` per §4.3, plus
/// the signer's certificate so the destination can authenticate the signer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attestation {
    /// Wire-encoded [`Certificate`] of the signing peer.
    pub signer_cert: Vec<u8>,
    /// Schnorr signature over the (plaintext) metadata bytes.
    pub signature: Vec<u8>,
    /// Metadata — encrypted with the requester's public key when the policy
    /// is confidential, plaintext [`ResultMetadata`] encoding otherwise.
    pub metadata: Vec<u8>,
    /// True when `metadata` is an ElGamal ciphertext.
    pub metadata_encrypted: bool,
}

impl Message for Attestation {
    fn encode(&self, w: &mut Writer) {
        w.bytes(1, &self.signer_cert);
        w.bytes(2, &self.signature);
        w.bytes(3, &self.metadata);
        w.bool(4, self.metadata_encrypted);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = Attestation::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.signer_cert = value.as_bytes(1)?.to_vec(),
                2 => out.signature = value.as_bytes(2)?.to_vec(),
                3 => out.metadata = value.as_bytes(3)?.to_vec(),
                4 => out.metadata_encrypted = value.as_bool(4)?,
                _ => {}
            }
        }
        Ok(out)
    }
}

/// Query outcome status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResponseStatus {
    /// The query succeeded and carries a result + proof.
    #[default]
    Ok,
    /// The requester failed the source network's exposure-control check.
    AccessDenied,
    /// The source network could not satisfy the verification policy.
    PolicyUnsatisfiable,
    /// The addressed network/ledger/contract/function was not found.
    NotFound,
    /// Internal error in the source network or relay.
    Error,
}

impl ResponseStatus {
    fn code(self) -> u64 {
        match self {
            ResponseStatus::Ok => 0,
            ResponseStatus::AccessDenied => 1,
            ResponseStatus::PolicyUnsatisfiable => 2,
            ResponseStatus::NotFound => 3,
            ResponseStatus::Error => 4,
        }
    }

    fn from_code(code: u64) -> Result<Self, WireError> {
        match code {
            0 => Ok(ResponseStatus::Ok),
            1 => Ok(ResponseStatus::AccessDenied),
            2 => Ok(ResponseStatus::PolicyUnsatisfiable),
            3 => Ok(ResponseStatus::NotFound),
            4 => Ok(ResponseStatus::Error),
            v => Err(WireError::UnknownEnumValue {
                field: "status",
                value: v,
            }),
        }
    }
}

/// The reply to a [`Query`]: data plus proof (Steps 7-8 of Fig. 2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResponse {
    /// Echoes the request id.
    pub request_id: String,
    /// Outcome.
    pub status: ResponseStatus,
    /// Human-readable error when status is not [`ResponseStatus::Ok`].
    pub error: String,
    /// The query result — ElGamal ciphertext when confidential, plaintext
    /// otherwise.
    pub result: Vec<u8>,
    /// True when `result` is encrypted.
    pub result_encrypted: bool,
    /// The proof: one attestation per selected peer.
    pub attestations: Vec<Attestation>,
}

impl Message for QueryResponse {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.request_id);
        w.u64(2, self.status.code());
        w.string(3, &self.error);
        w.bytes(4, &self.result);
        w.bool(5, self.result_encrypted);
        w.repeated_messages(6, &self.attestations);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = QueryResponse::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.request_id = value.as_string(1, "request_id")?,
                2 => out.status = ResponseStatus::from_code(value.as_u64(2)?)?,
                3 => out.error = value.as_string(3, "error")?,
                4 => out.result = value.as_bytes(4)?.to_vec(),
                5 => out.result_encrypted = value.as_bool(5)?,
                6 => out.attestations.push(value.as_message(6)?),
                _ => {}
            }
        }
        Ok(out)
    }
}

/// Discriminates [`RelayEnvelope`] payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnvelopeKind {
    /// Payload is a [`Query`].
    #[default]
    QueryRequest,
    /// Payload is a [`QueryResponse`].
    QueryResponse,
    /// Payload is a UTF-8 error string.
    Error,
    /// Liveness probe.
    Ping,
    /// Liveness reply.
    Pong,
    /// Payload is an [`EventSubscribeRequest`] (cross-network events).
    EventSubscribe,
    /// Payload is a pushed [`EventNotice`].
    Event,
    /// Positive acknowledgement (subscription accepted, event received).
    Ack,
}

impl EnvelopeKind {
    fn code(self) -> u64 {
        match self {
            EnvelopeKind::QueryRequest => 0,
            EnvelopeKind::QueryResponse => 1,
            EnvelopeKind::Error => 2,
            EnvelopeKind::Ping => 3,
            EnvelopeKind::Pong => 4,
            EnvelopeKind::EventSubscribe => 5,
            EnvelopeKind::Event => 6,
            EnvelopeKind::Ack => 7,
        }
    }

    fn from_code(code: u64) -> Result<Self, WireError> {
        match code {
            0 => Ok(EnvelopeKind::QueryRequest),
            1 => Ok(EnvelopeKind::QueryResponse),
            2 => Ok(EnvelopeKind::Error),
            3 => Ok(EnvelopeKind::Ping),
            4 => Ok(EnvelopeKind::Pong),
            5 => Ok(EnvelopeKind::EventSubscribe),
            6 => Ok(EnvelopeKind::Event),
            7 => Ok(EnvelopeKind::Ack),
            v => Err(WireError::UnknownEnumValue {
                field: "envelope kind",
                value: v,
            }),
        }
    }
}

/// Distributed-trace position carried between relays (an embedded,
/// zero-elided message — the same backward-compat trick as
/// [`RelayEnvelope::correlation_id`]).
///
/// The all-default header means "no trace": every field is proto3
/// zero-elided, so a default header encodes to zero bytes, the embedded
/// field itself is elided, and frames from peers that do not trace stay
/// byte-identical to the pre-field encoding. Old decoders skip the field
/// as unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceHeader {
    /// High 64 bits of the 128-bit trace id (zero when untraced).
    pub trace_hi: u64,
    /// Low 64 bits of the 128-bit trace id (zero when untraced).
    pub trace_lo: u64,
    /// Sending span's id — the receiver parents its span under this.
    pub span_id: u64,
    /// Parent of the sending span (zero for a root span).
    pub parent_span_id: u64,
    /// Head-based sampling decision, propagated unchanged.
    pub sampled: bool,
}

impl TraceHeader {
    /// True when no trace is in progress (the header would be elided).
    pub fn is_unset(&self) -> bool {
        self.trace_hi == 0 && self.trace_lo == 0
    }
}

impl Message for TraceHeader {
    fn encode(&self, w: &mut Writer) {
        w.u64(1, self.trace_hi);
        w.u64(2, self.trace_lo);
        w.u64(3, self.span_id);
        w.u64(4, self.parent_span_id);
        w.bool(5, self.sampled);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = TraceHeader::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.trace_hi = value.as_u64(1)?,
                2 => out.trace_lo = value.as_u64(2)?,
                3 => out.span_id = value.as_u64(3)?,
                4 => out.parent_span_id = value.as_u64(4)?,
                5 => out.sampled = value.as_bool(5)?,
                _ => {}
            }
        }
        Ok(out)
    }
}

/// The unit of relay-to-relay communication (Steps 3-4 and 8-9 of Fig. 2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelayEnvelope {
    /// Payload discriminator.
    pub kind: EnvelopeKind,
    /// Identifier of the sending relay.
    pub source_relay: String,
    /// Network the payload is addressed to.
    pub dest_network: String,
    /// Encoded payload ([`Query`], [`QueryResponse`], or error text).
    pub payload: Vec<u8>,
    /// Correlates a reply with its request when many requests are
    /// multiplexed over one stream. Zero means "unset": peers that speak
    /// one request per connection never write the field (proto3 zero
    /// elision), so their frames are byte-identical to the pre-field
    /// encoding and old decoders skip it as an unknown field.
    pub correlation_id: u64,
    /// Distributed-trace position of the sender. The all-default header
    /// means "untraced" and is elided from the wire entirely, preserving
    /// byte-identical frames for peers without tracing.
    pub trace: TraceHeader,
    /// Batched sub-frames: each element is a complete encoded
    /// [`RelayEnvelope`] riding inside this one, amortizing framing over
    /// many queries per TCP frame. Empty means "unbatched": a repeated
    /// field with no elements writes zero bytes (proto3 elision), so
    /// frames from peers that never batch stay byte-identical to the
    /// pre-field encoding and old decoders skip the field as unknown.
    pub batch: Vec<Vec<u8>>,
}

impl RelayEnvelope {
    /// An uncorrelated, untraced, unbatched envelope of `kind`.
    fn new(
        kind: EnvelopeKind,
        source_relay: impl Into<String>,
        dest_network: impl Into<String>,
        payload: Vec<u8>,
    ) -> Self {
        RelayEnvelope {
            kind,
            source_relay: source_relay.into(),
            dest_network: dest_network.into(),
            payload,
            correlation_id: 0,
            trace: TraceHeader::default(),
            batch: Vec::new(),
        }
    }

    /// Wraps a query.
    pub fn query(
        source_relay: impl Into<String>,
        dest_network: impl Into<String>,
        q: &Query,
    ) -> Self {
        let payload = q.encode_to_vec();
        Self::new(
            EnvelopeKind::QueryRequest,
            source_relay,
            dest_network,
            payload,
        )
    }

    /// Wraps a query response.
    pub fn response(
        source_relay: impl Into<String>,
        dest_network: impl Into<String>,
        resp: &QueryResponse,
    ) -> Self {
        let payload = resp.encode_to_vec();
        Self::new(
            EnvelopeKind::QueryResponse,
            source_relay,
            dest_network,
            payload,
        )
    }

    /// Wraps a batch of per-item reply frames (each a complete encoded
    /// [`RelayEnvelope`], positionally matching the request batch).
    pub fn response_batch(
        source_relay: impl Into<String>,
        dest_network: impl Into<String>,
        batch: Vec<Vec<u8>>,
    ) -> Self {
        Self::new(
            EnvelopeKind::QueryResponse,
            source_relay,
            dest_network,
            Vec::new(),
        )
        .with_batch(batch)
    }

    /// Wraps an error string.
    pub fn error(
        source_relay: impl Into<String>,
        dest_network: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        let payload = message.into().into_bytes();
        Self::new(EnvelopeKind::Error, source_relay, dest_network, payload)
    }

    /// The empty-payload acknowledgement of a subscription or an event push.
    pub fn ack(source_relay: impl Into<String>, dest_network: impl Into<String>) -> Self {
        Self::new(EnvelopeKind::Ack, source_relay, dest_network, Vec::new())
    }

    /// The empty-payload answer to a [`EnvelopeKind::Ping`].
    pub fn pong(source_relay: impl Into<String>, dest_network: impl Into<String>) -> Self {
        Self::new(EnvelopeKind::Pong, source_relay, dest_network, Vec::new())
    }

    /// Tags the envelope with a correlation id (builder style), used by
    /// multiplexing stream transports to route replies to callers.
    pub fn with_correlation_id(mut self, correlation_id: u64) -> Self {
        self.correlation_id = correlation_id;
        self
    }

    /// Tags the envelope with the sender's trace position (builder
    /// style); an unset header leaves the frame byte-identical.
    pub fn with_trace(mut self, trace: TraceHeader) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches batched sub-frames (builder style); an empty batch
    /// leaves the frame byte-identical to the pre-field encoding.
    pub fn with_batch(mut self, batch: Vec<Vec<u8>>) -> Self {
        self.batch = batch;
        self
    }

    /// True when the envelope carries batched sub-frames.
    pub fn is_batch(&self) -> bool {
        !self.batch.is_empty()
    }
}

impl Message for RelayEnvelope {
    fn encode(&self, w: &mut Writer) {
        w.u64(1, self.kind.code());
        w.string(2, &self.source_relay);
        w.string(3, &self.dest_network);
        w.bytes(4, &self.payload);
        w.u64(5, self.correlation_id);
        w.message(6, &self.trace);
        w.repeated_bytes(7, &self.batch);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = RelayEnvelope::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.kind = EnvelopeKind::from_code(value.as_u64(1)?)?,
                2 => out.source_relay = value.as_string(2, "source_relay")?,
                3 => out.dest_network = value.as_string(3, "dest_network")?,
                4 => out.payload = value.as_bytes(4)?.to_vec(),
                5 => out.correlation_id = value.as_u64(5)?,
                6 => out.trace = value.as_message(6)?,
                7 => out.batch.push(value.as_bytes(7)?.to_vec()),
                _ => {}
            }
        }
        Ok(out)
    }
}

/// A decrypted proof bundle, as submitted by a destination-network client in
/// its transaction arguments (Step 10 of Fig. 2): the plaintext result plus
/// one attestation per source peer with *plaintext* metadata. The Data
/// Acceptance contract validates this bundle against the recorded
/// verification policy and source-network configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Proof {
    /// Request id the proof answers.
    pub request_id: String,
    /// Canonical address string of the queried function.
    pub address: String,
    /// The anti-replay nonce used in the query.
    pub nonce: Vec<u8>,
    /// The plaintext query result.
    pub result: Vec<u8>,
    /// Attestations with decrypted (plaintext) metadata.
    pub attestations: Vec<Attestation>,
}

impl Message for Proof {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.request_id);
        w.string(2, &self.address);
        w.bytes(3, &self.nonce);
        w.bytes(4, &self.result);
        w.repeated_messages(5, &self.attestations);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = Proof::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.request_id = value.as_string(1, "request_id")?,
                2 => out.address = value.as_string(2, "address")?,
                3 => out.nonce = value.as_bytes(3)?.to_vec(),
                4 => out.result = value.as_bytes(4)?.to_vec(),
                5 => out.attestations.push(value.as_message(5)?),
                _ => {}
            }
        }
        Ok(out)
    }
}

/// One organization's share of a network configuration: its root CA
/// certificate and member peer certificates (what CMDAC records).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OrgConfig {
    /// Organization id.
    pub org_id: String,
    /// Wire-encoded root CA [`Certificate`].
    pub root_cert: Vec<u8>,
    /// Wire-encoded peer [`Certificate`]s.
    pub peer_certs: Vec<Vec<u8>>,
}

impl Message for OrgConfig {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.org_id);
        w.bytes(2, &self.root_cert);
        w.repeated_bytes(3, &self.peer_certs);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = OrgConfig::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.org_id = value.as_string(1, "org_id")?,
                2 => out.root_cert = value.as_bytes(2)?.to_vec(),
                3 => out.peer_certs.push(value.as_bytes(3)?.to_vec()),
                _ => {}
            }
        }
        Ok(out)
    }
}

/// A foreign network's identity and topology information, the
/// "platform-independent schema" for configuration sharing (paper §5).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkConfig {
    /// Unique network name.
    pub network_id: String,
    /// Group the network's keys live in.
    pub group_name: String,
    /// Per-organization certificates.
    pub orgs: Vec<OrgConfig>,
}

impl Message for NetworkConfig {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.network_id);
        w.string(2, &self.group_name);
        w.repeated_messages(3, &self.orgs);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = NetworkConfig::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.network_id = value.as_string(1, "network_id")?,
                2 => out.group_name = value.as_string(2, "group_name")?,
                3 => out.orgs.push(value.as_message(3)?),
                _ => {}
            }
        }
        Ok(out)
    }
}

/// A request to receive a source network's block events (the
/// publish/subscribe primitive the paper lists in §2 and defers in §7).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventSubscribeRequest {
    /// Unique subscription id chosen by the subscriber.
    pub subscription_id: String,
    /// The source network whose events are requested.
    pub network_id: String,
    /// Relay endpoint events should be pushed back to.
    pub reply_endpoint: String,
    /// Authentication of the subscriber (same structure as queries).
    pub auth: AuthInfo,
}

impl Message for EventSubscribeRequest {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.subscription_id);
        w.string(2, &self.network_id);
        w.string(3, &self.reply_endpoint);
        w.message(4, &self.auth);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = EventSubscribeRequest::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.subscription_id = value.as_string(1, "subscription_id")?,
                2 => out.network_id = value.as_string(2, "network_id")?,
                3 => out.reply_endpoint = value.as_string(3, "reply_endpoint")?,
                4 => out.auth = value.as_message(4)?,
                _ => {}
            }
        }
        Ok(out)
    }
}

/// A pushed block-event notification, attested by a source-network peer so
/// the subscriber can authenticate it against the recorded configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventNotice {
    /// The subscription this notice answers.
    pub subscription_id: String,
    /// Source network.
    pub network_id: String,
    /// Committed block number.
    pub block_number: u64,
    /// Transaction ids in the block.
    pub txids: Vec<String>,
    /// Validation code per transaction (1 = valid, 0 = invalidated).
    pub validation: Vec<u8>,
    /// Wire-encoded certificate of the attesting peer.
    pub signer_cert: Vec<u8>,
    /// Peer signature over [`EventNotice::signing_bytes`].
    pub signature: Vec<u8>,
}

impl EventNotice {
    /// The canonical bytes covered by the peer signature.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"tdt-event-v1");
        let push = |out: &mut Vec<u8>, b: &[u8]| {
            out.extend_from_slice(&(b.len() as u32).to_be_bytes());
            out.extend_from_slice(b);
        };
        push(&mut out, self.subscription_id.as_bytes());
        push(&mut out, self.network_id.as_bytes());
        out.extend_from_slice(&self.block_number.to_be_bytes());
        out.extend_from_slice(&(self.txids.len() as u32).to_be_bytes());
        for txid in &self.txids {
            push(&mut out, txid.as_bytes());
        }
        push(&mut out, &self.validation);
        out
    }
}

impl Message for EventNotice {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.subscription_id);
        w.string(2, &self.network_id);
        w.u64(3, self.block_number);
        w.repeated_bytes(4, self.txids.iter().map(String::as_bytes));
        w.bytes(5, &self.validation);
        w.bytes(6, &self.signer_cert);
        w.bytes(7, &self.signature);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = EventNotice::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.subscription_id = value.as_string(1, "subscription_id")?,
                2 => out.network_id = value.as_string(2, "network_id")?,
                3 => out.block_number = value.as_u64(3)?,
                4 => out.txids.push(value.as_string(4, "txids")?),
                5 => out.validation = value.as_bytes(5)?.to_vec(),
                6 => out.signer_cert = value.as_bytes(6)?.to_vec(),
                7 => out.signature = value.as_bytes(7)?.to_vec(),
                _ => {}
            }
        }
        Ok(out)
    }
}

/// One peer's signature over a block header (used by [`BlockProof`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HeaderSig {
    /// Wire-encoded certificate of the signing peer.
    pub signer_cert: Vec<u8>,
    /// Signature over the domain-separated header hash.
    pub signature: Vec<u8>,
}

impl Message for HeaderSig {
    fn encode(&self, w: &mut Writer) {
        w.bytes(1, &self.signer_cert);
        w.bytes(2, &self.signature);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = HeaderSig::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.signer_cert = value.as_bytes(1)?.to_vec(),
                2 => out.signature = value.as_bytes(2)?.to_vec(),
                _ => {}
            }
        }
        Ok(out)
    }
}

/// One step of a Merkle inclusion path (sibling hash + side).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MerkleStep {
    /// The sibling node hash.
    pub sibling: Vec<u8>,
    /// True when the sibling sits to the right of the running hash.
    pub sibling_on_right: bool,
}

impl Message for MerkleStep {
    fn encode(&self, w: &mut Writer) {
        w.bytes(1, &self.sibling);
        w.bool(2, self.sibling_on_right);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = MerkleStep::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.sibling = value.as_bytes(1)?.to_vec(),
                2 => out.sibling_on_right = value.as_bool(2)?,
                _ => {}
            }
        }
        Ok(out)
    }
}

/// An *alternative proof scheme* (paper §6: "the architecture allows any
/// suitable proof scheme to be plugged in"): instead of per-result
/// attestations, prove that a specific transaction is *included in a
/// committed block* — peer signatures over the block header plus a Merkle
/// inclusion path from the transaction to the header's data hash.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlockProof {
    /// Source network id.
    pub network_id: String,
    /// Block number, plus one (zero means unset).
    pub block_number_plus_one: u64,
    /// The header's previous-block hash.
    pub prev_hash: Vec<u8>,
    /// The header's transaction Merkle root.
    pub data_hash: Vec<u8>,
    /// Peer signatures over the header hash.
    pub header_sigs: Vec<HeaderSig>,
    /// The full transaction payload being proven.
    pub tx_bytes: Vec<u8>,
    /// Merkle path from the transaction to `data_hash`.
    pub merkle_steps: Vec<MerkleStep>,
}

impl BlockProof {
    /// The proven block number.
    pub fn block_number(&self) -> Option<u64> {
        self.block_number_plus_one.checked_sub(1)
    }
}

impl Message for BlockProof {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.network_id);
        w.u64(2, self.block_number_plus_one);
        w.bytes(3, &self.prev_hash);
        w.bytes(4, &self.data_hash);
        w.repeated_messages(5, &self.header_sigs);
        w.bytes(6, &self.tx_bytes);
        w.repeated_messages(7, &self.merkle_steps);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = BlockProof::default();
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => out.network_id = value.as_string(1, "network_id")?,
                2 => out.block_number_plus_one = value.as_u64(2)?,
                3 => out.prev_hash = value.as_bytes(3)?.to_vec(),
                4 => out.data_hash = value.as_bytes(4)?.to_vec(),
                5 => out.header_sigs.push(value.as_message(5)?),
                6 => out.tx_bytes = value.as_bytes(6)?.to_vec(),
                7 => out.merkle_steps.push(value.as_message(7)?),
                _ => {}
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Certificate <-> wire conversion
// ---------------------------------------------------------------------------

fn role_code(role: CertRole) -> u64 {
    match role {
        CertRole::RootCa => 0,
        CertRole::Peer => 1,
        CertRole::Orderer => 2,
        CertRole::Client => 3,
    }
}

fn role_from_code(code: u64) -> Result<CertRole, WireError> {
    match code {
        0 => Ok(CertRole::RootCa),
        1 => Ok(CertRole::Peer),
        2 => Ok(CertRole::Orderer),
        3 => Ok(CertRole::Client),
        v => Err(WireError::UnknownEnumValue {
            field: "cert role",
            value: v,
        }),
    }
}

/// Encodes a [`Certificate`] to wire bytes.
pub fn encode_certificate(cert: &Certificate) -> Vec<u8> {
    let mut w = Writer::new();
    w.string(1, &cert.subject().common_name);
    w.string(2, &cert.subject().organization);
    w.string(3, &cert.subject().network);
    w.u64(4, role_code(cert.subject().role) + 1); // +1 so RootCa survives proto3 zero-elision
    w.u64(5, cert.serial() + 1);
    w.string(6, cert.group_name());
    w.bytes(7, cert.sign_key_bytes());
    if let Some(ek) = cert.enc_key_bytes() {
        w.bytes(8, ek);
    }
    w.string(9, &cert.issuer().common_name);
    w.string(10, &cert.issuer().organization);
    w.string(11, &cert.issuer().network);
    w.u64(12, role_code(cert.issuer().role) + 1);
    if let Some(sig) = cert.signature() {
        w.bytes(13, sig.e_bytes());
        w.bytes(14, sig.s_bytes());
    }
    w.into_bytes()
}

/// Decodes a [`Certificate`] from wire bytes.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input or missing required fields.
pub fn decode_certificate(bytes: &[u8]) -> Result<Certificate, WireError> {
    let mut r = Reader::new(bytes);
    let mut cn = String::new();
    let mut org = String::new();
    let mut network = String::new();
    let mut role = 0u64;
    let mut serial = 0u64;
    let mut group = String::new();
    let mut sign_key = Vec::new();
    let mut enc_key: Option<Vec<u8>> = None;
    let mut icn = String::new();
    let mut iorg = String::new();
    let mut inetwork = String::new();
    let mut irole = 0u64;
    let mut sig_e: Option<Vec<u8>> = None;
    let mut sig_s: Option<Vec<u8>> = None;
    while let Some((field, value)) = r.next_field()? {
        match field {
            1 => cn = value.as_string(1, "common_name")?,
            2 => org = value.as_string(2, "organization")?,
            3 => network = value.as_string(3, "network")?,
            4 => role = value.as_u64(4)?,
            5 => serial = value.as_u64(5)?,
            6 => group = value.as_string(6, "group")?,
            7 => sign_key = value.as_bytes(7)?.to_vec(),
            8 => enc_key = Some(value.as_bytes(8)?.to_vec()),
            9 => icn = value.as_string(9, "issuer_common_name")?,
            10 => iorg = value.as_string(10, "issuer_organization")?,
            11 => inetwork = value.as_string(11, "issuer_network")?,
            12 => irole = value.as_u64(12)?,
            13 => sig_e = Some(value.as_bytes(13)?.to_vec()),
            14 => sig_s = Some(value.as_bytes(14)?.to_vec()),
            _ => {}
        }
    }
    if role == 0 || irole == 0 || serial == 0 && cn.is_empty() {
        return Err(WireError::MissingField("certificate role/serial"));
    }
    if sign_key.is_empty() {
        return Err(WireError::MissingField("sign_key"));
    }
    let subject = Subject::new(cn, org, network, role_from_code(role - 1)?);
    let issuer = Subject::new(icn, iorg, inetwork, role_from_code(irole - 1)?);
    let signature = match (sig_e, sig_s) {
        (Some(e), Some(s)) => Some(Signature::from_scalars(e, s)),
        _ => None,
    };
    Ok(Certificate::assemble(
        subject,
        serial - 1,
        group,
        sign_key,
        enc_key,
        issuer,
        signature,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint;
    use tdt_crypto::cert::CertificateAuthority;
    use tdt_crypto::elgamal::DecryptionKey;
    use tdt_crypto::group::Group;
    use tdt_crypto::schnorr::SigningKey;

    fn sample_query() -> Query {
        Query {
            request_id: "req-001".into(),
            address: NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
                .with_arg(b"PO-1001".to_vec()),
            policy: VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"])
                .with_confidentiality(),
            auth: AuthInfo {
                network_id: "swt".into(),
                organization_id: "seller-bank-org".into(),
                certificate: vec![1, 2, 3],
                signature: vec![4, 5],
            },
            nonce: vec![9; 16],
            invocation: false,
        }
    }

    #[test]
    fn network_address_roundtrip() {
        let addr = NetworkAddress::new("n", "l", "c", "f")
            .with_arg(b"a1".to_vec())
            .with_arg(Vec::new())
            .with_arg(b"a3".to_vec());
        let decoded = NetworkAddress::decode_from_slice(&addr.encode_to_vec()).unwrap();
        // Repeated entries are written per element, so empty args survive
        // (unlike singular scalar fields, which elide defaults).
        assert_eq!(decoded, addr);
    }

    #[test]
    fn display_name_format() {
        let addr = NetworkAddress::new("stl", "ch", "cc", "Get");
        assert_eq!(addr.display_name(), "stl:ch:cc:Get");
    }

    #[test]
    fn policy_node_roundtrip() {
        let policy = PolicyNode::And(vec![
            PolicyNode::Org("seller-org".into()),
            PolicyNode::OutOf(
                2,
                vec![
                    PolicyNode::Org("a".into()),
                    PolicyNode::Org("b".into()),
                    PolicyNode::Or(vec![PolicyNode::Org("c".into())]),
                ],
            ),
        ]);
        let decoded = PolicyNode::decode_from_slice(&policy.encode_to_vec()).unwrap();
        assert_eq!(decoded, policy);
        assert_eq!(decoded.depth(), 4);
    }

    /// The encoding of `depth - 1` single-child `And` nodes around an `Org`
    /// leaf, written outside-in so a deep one costs linear time.
    fn nested_policy_bytes(depth: usize) -> Vec<u8> {
        let leaf = PolicyNode::Org("a".into()).encode_to_vec();
        let mut lens = vec![leaf.len()];
        for level in 1..depth {
            let inner = lens[level - 1];
            lens.push(3 + varint::encoded_len(inner as u64) + inner);
        }
        let mut out = Vec::with_capacity(lens[depth - 1]);
        for inner in lens.iter().rev().skip(1) {
            out.extend_from_slice(&[0x08, 0x02, 0x22]); // kind = And, child:
            varint::encode_u64(*inner as u64, &mut out);
        }
        out.extend_from_slice(&leaf);
        out
    }

    #[test]
    fn policy_nesting_is_bounded_instead_of_overflowing_the_stack() {
        let deepest = PolicyNode::decode_from_slice(&nested_policy_bytes(MAX_POLICY_DEPTH));
        assert_eq!(deepest.unwrap().depth(), MAX_POLICY_DEPTH);
        // One level more is an error; a million levels (a 6 MB frame, well
        // under the cap) is the same error, not a process abort.
        for depth in [MAX_POLICY_DEPTH + 1, 1_000_000] {
            let err = PolicyNode::decode_from_slice(&nested_policy_bytes(depth)).unwrap_err();
            assert!(matches!(err, WireError::Invalid(m) if m.contains("nested deeper")));
        }
    }

    #[test]
    fn policy_satisfaction() {
        let p = VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).expression;
        assert!(p.is_satisfied(&["seller-org", "carrier-org"]));
        assert!(p.is_satisfied(&["carrier-org", "seller-org", "extra"]));
        assert!(!p.is_satisfied(&["seller-org"]));
        let any = VerificationPolicy::any_of_orgs(["a", "b"]).expression;
        assert!(any.is_satisfied(&["b"]));
        assert!(!any.is_satisfied(&["c"]));
        let outof = PolicyNode::OutOf(
            2,
            vec![
                PolicyNode::Org("a".into()),
                PolicyNode::Org("b".into()),
                PolicyNode::Org("c".into()),
            ],
        );
        assert!(outof.is_satisfied(&["a", "c"]));
        assert!(!outof.is_satisfied(&["a"]));
    }

    #[test]
    fn policy_organizations_listing() {
        let p = VerificationPolicy::all_of_orgs(["x", "y"]).expression;
        assert_eq!(p.organizations(), vec!["x", "y"]);
    }

    #[test]
    fn unknown_policy_kind_rejected() {
        let mut w = Writer::new();
        w.u64(1, 9);
        let err = PolicyNode::decode_from_slice(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::UnknownEnumValue { .. }));
    }

    #[test]
    fn query_roundtrip() {
        let q = sample_query();
        let decoded = Query::decode_from_slice(&q.encode_to_vec()).unwrap();
        assert_eq!(decoded, q);
    }

    #[test]
    fn result_metadata_roundtrip() {
        let md = ResultMetadata {
            request_id: "r".into(),
            address: "stl:ch:cc:Get".into(),
            result_hash: vec![7; 32],
            nonce: vec![1; 16],
            peer_id: "stl/seller-org/peer0".into(),
            org_id: "seller-org".into(),
            ledger_height: 42,
            committed_block_plus_one: 0,
            txid: String::new(),
        };
        assert_eq!(
            ResultMetadata::decode_from_slice(&md.encode_to_vec()).unwrap(),
            md
        );
    }

    #[test]
    fn query_response_roundtrip() {
        let resp = QueryResponse {
            request_id: "req-001".into(),
            status: ResponseStatus::Ok,
            error: String::new(),
            result: vec![0xaa; 40],
            result_encrypted: true,
            attestations: vec![
                Attestation {
                    signer_cert: vec![1],
                    signature: vec![2],
                    metadata: vec![3],
                    metadata_encrypted: true,
                },
                Attestation::default(),
            ],
        };
        let decoded = QueryResponse::decode_from_slice(&resp.encode_to_vec()).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn response_status_codes() {
        for status in [
            ResponseStatus::Ok,
            ResponseStatus::AccessDenied,
            ResponseStatus::PolicyUnsatisfiable,
            ResponseStatus::NotFound,
            ResponseStatus::Error,
        ] {
            assert_eq!(ResponseStatus::from_code(status.code()).unwrap(), status);
        }
        assert!(ResponseStatus::from_code(42).is_err());
    }

    #[test]
    fn error_response_roundtrip() {
        let resp = QueryResponse {
            request_id: "r".into(),
            status: ResponseStatus::AccessDenied,
            error: "requester not permitted".into(),
            ..Default::default()
        };
        let decoded = QueryResponse::decode_from_slice(&resp.encode_to_vec()).unwrap();
        assert_eq!(decoded.status, ResponseStatus::AccessDenied);
        assert_eq!(decoded.error, "requester not permitted");
    }

    #[test]
    fn envelope_roundtrip() {
        let q = sample_query();
        let env = RelayEnvelope::query("swt-relay-0", "stl", &q);
        let decoded = RelayEnvelope::decode_from_slice(&env.encode_to_vec()).unwrap();
        assert_eq!(decoded, env);
        let inner = Query::decode_from_slice(&decoded.payload).unwrap();
        assert_eq!(inner, q);
    }

    #[test]
    fn envelope_correlation_id_roundtrip() {
        let env =
            RelayEnvelope::query("r", "stl", &sample_query()).with_correlation_id(0xDEAD_BEEF);
        let decoded = RelayEnvelope::decode_from_slice(&env.encode_to_vec()).unwrap();
        assert_eq!(decoded.correlation_id, 0xDEAD_BEEF);
        assert_eq!(decoded, env);
    }

    #[test]
    fn envelope_without_correlation_id_is_wire_compatible() {
        // A zero correlation id must encode to the exact bytes an
        // old peer (without the field) would produce: hand-encode the
        // legacy four fields and compare.
        let env = RelayEnvelope::query("swt-relay-0", "stl", &sample_query());
        assert_eq!(env.correlation_id, 0);
        let mut w = Writer::new();
        w.u64(1, 0); // QueryRequest elides to nothing, like an old writer
        w.string(2, "swt-relay-0");
        w.string(3, "stl");
        w.bytes(4, &sample_query().encode_to_vec());
        assert_eq!(env.encode_to_vec(), w.into_bytes());
        // And legacy bytes decode with correlation_id defaulting to zero.
        let decoded = RelayEnvelope::decode_from_slice(&env.encode_to_vec()).unwrap();
        assert_eq!(decoded.correlation_id, 0);
    }

    #[test]
    fn envelope_without_trace_is_wire_compatible() {
        // An unset trace header must encode to the exact bytes an old
        // peer (without the field) would produce: the embedded message
        // encodes empty and is elided entirely.
        let env = RelayEnvelope::query("swt-relay-0", "stl", &sample_query());
        assert!(env.trace.is_unset());
        let mut w = Writer::new();
        w.u64(1, 0);
        w.string(2, "swt-relay-0");
        w.string(3, "stl");
        w.bytes(4, &sample_query().encode_to_vec());
        assert_eq!(env.encode_to_vec(), w.into_bytes());
        // And legacy bytes decode with an unset trace header.
        let decoded = RelayEnvelope::decode_from_slice(&env.encode_to_vec()).unwrap();
        assert!(decoded.trace.is_unset());
        assert!(!decoded.trace.sampled);
    }

    #[test]
    fn envelope_trace_roundtrip() {
        let trace = TraceHeader {
            trace_hi: u64::MAX,
            trace_lo: 7,
            span_id: 42,
            parent_span_id: 41,
            sampled: true,
        };
        let env = RelayEnvelope::query("swt-relay-0", "stl", &sample_query()).with_trace(trace);
        let decoded = RelayEnvelope::decode_from_slice(&env.encode_to_vec()).unwrap();
        assert_eq!(decoded.trace, trace);
        assert!(!decoded.trace.is_unset());
        // A traced frame is a strict superset of the legacy frame: old
        // decoders skip field 6 and still read every legacy field.
        let legacy = RelayEnvelope::query("swt-relay-0", "stl", &sample_query());
        assert!(env.encode_to_vec().len() > legacy.encode_to_vec().len());
        assert_eq!(decoded.payload, legacy.payload);
    }

    #[test]
    fn envelope_without_batch_is_wire_compatible() {
        // An empty batch must encode to the exact bytes an old peer
        // (without the field) would produce: a repeated field with no
        // elements writes nothing.
        let env = RelayEnvelope::query("swt-relay-0", "stl", &sample_query());
        assert!(!env.is_batch());
        let mut w = Writer::new();
        w.u64(1, 0);
        w.string(2, "swt-relay-0");
        w.string(3, "stl");
        w.bytes(4, &sample_query().encode_to_vec());
        assert_eq!(env.encode_to_vec(), w.into_bytes());
        // And legacy bytes decode with an empty batch.
        let decoded = RelayEnvelope::decode_from_slice(&env.encode_to_vec()).unwrap();
        assert!(decoded.batch.is_empty());
    }

    #[test]
    fn envelope_batch_roundtrip() {
        let items: Vec<Vec<u8>> = (0..3)
            .map(|i| RelayEnvelope::query(format!("r{i}"), "stl", &sample_query()).encode_to_vec())
            .collect();
        let env =
            RelayEnvelope::query("swt-relay-0", "stl", &sample_query()).with_batch(items.clone());
        assert!(env.is_batch());
        let decoded = RelayEnvelope::decode_from_slice(&env.encode_to_vec()).unwrap();
        assert_eq!(decoded, env);
        assert_eq!(decoded.batch, items);
        // Order is preserved: reply correlation inside a batch is
        // positional.
        for (i, item) in decoded.batch.iter().enumerate() {
            let sub = RelayEnvelope::decode_from_slice(item).unwrap();
            assert_eq!(sub.source_relay, format!("r{i}"));
        }
        // A batched frame is a strict superset of the legacy frame: old
        // decoders skip field 7 and still read every legacy field.
        let legacy = RelayEnvelope::query("swt-relay-0", "stl", &sample_query());
        assert!(env.encode_to_vec().len() > legacy.encode_to_vec().len());
        assert_eq!(decoded.payload, legacy.payload);
    }

    #[test]
    fn trace_header_zero_elides_to_empty() {
        assert!(TraceHeader::default().encode_to_vec().is_empty());
        let decoded = TraceHeader::decode_from_slice(&[]).unwrap();
        assert_eq!(decoded, TraceHeader::default());
    }

    #[test]
    fn envelope_error_helper() {
        let env = RelayEnvelope::error("r", "n", "lookup failed");
        assert_eq!(env.kind, EnvelopeKind::Error);
        assert_eq!(env.payload, b"lookup failed");
    }

    #[test]
    fn envelope_ack_and_pong_encode_like_the_field_literal() {
        for (built, kind) in [
            (RelayEnvelope::ack("r", "n"), EnvelopeKind::Ack),
            (RelayEnvelope::pong("r", "n"), EnvelopeKind::Pong),
        ] {
            let literal = RelayEnvelope {
                kind,
                source_relay: "r".into(),
                dest_network: "n".into(),
                payload: Vec::new(),
                correlation_id: 0,
                trace: TraceHeader::default(),
                batch: Vec::new(),
            };
            assert_eq!(built.encode_to_vec(), literal.encode_to_vec());
        }
    }

    #[test]
    fn envelope_kind_codes() {
        for k in [
            EnvelopeKind::QueryRequest,
            EnvelopeKind::QueryResponse,
            EnvelopeKind::Error,
            EnvelopeKind::Ping,
            EnvelopeKind::Pong,
            EnvelopeKind::EventSubscribe,
            EnvelopeKind::Event,
            EnvelopeKind::Ack,
        ] {
            assert_eq!(EnvelopeKind::from_code(k.code()).unwrap(), k);
        }
        assert!(EnvelopeKind::from_code(99).is_err());
    }

    #[test]
    fn invocation_flag_roundtrip() {
        let mut q = sample_query();
        q.invocation = true;
        let decoded = Query::decode_from_slice(&q.encode_to_vec()).unwrap();
        assert!(decoded.invocation);
    }

    #[test]
    fn metadata_invocation_receipt_fields() {
        let md = ResultMetadata {
            request_id: "r".into(),
            committed_block_plus_one: 8,
            txid: "tx-4".into(),
            ..Default::default()
        };
        let decoded = ResultMetadata::decode_from_slice(&md.encode_to_vec()).unwrap();
        assert_eq!(decoded.committed_block(), Some(7));
        assert_eq!(decoded.txid, "tx-4");
        assert_eq!(ResultMetadata::default().committed_block(), None);
    }

    #[test]
    fn event_subscribe_roundtrip() {
        let req = EventSubscribeRequest {
            subscription_id: "sub-1".into(),
            network_id: "stl".into(),
            reply_endpoint: "inproc:swt-relay".into(),
            auth: AuthInfo {
                network_id: "swt".into(),
                organization_id: "org".into(),
                certificate: vec![1],
                signature: vec![2],
            },
        };
        let decoded = EventSubscribeRequest::decode_from_slice(&req.encode_to_vec()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn event_notice_roundtrip_and_signing_bytes() {
        let notice = EventNotice {
            subscription_id: "sub-1".into(),
            network_id: "stl".into(),
            block_number: 42,
            txids: vec!["tx-a".into(), "tx-b".into()],
            validation: vec![1, 0],
            signer_cert: vec![9],
            signature: vec![8],
        };
        let decoded = EventNotice::decode_from_slice(&notice.encode_to_vec()).unwrap();
        assert_eq!(decoded, notice);
        // Signing bytes exclude the signature/cert and are order-sensitive.
        let mut other = notice.clone();
        other.signature = vec![];
        other.signer_cert = vec![];
        assert_eq!(notice.signing_bytes(), other.signing_bytes());
        let mut reordered = notice.clone();
        reordered.txids.reverse();
        assert_ne!(notice.signing_bytes(), reordered.signing_bytes());
    }

    #[test]
    fn certificate_roundtrip_plain() {
        let mut ca = CertificateAuthority::new("stl", "seller-org", Group::test_group(), b"s");
        let key = SigningKey::from_seed(Group::test_group(), b"peer");
        let cert = ca.issue("peer0", CertRole::Peer, &key.verifying_key(), None);
        let decoded = decode_certificate(&encode_certificate(&cert)).unwrap();
        assert_eq!(decoded, cert);
        // Decoded certificate still verifies against the root.
        assert!(decoded.verify(ca.root_certificate()).is_ok());
    }

    #[test]
    fn certificate_roundtrip_with_enc_key() {
        let mut ca = CertificateAuthority::new("swt", "seller-bank", Group::test_group(), b"s");
        let key = SigningKey::from_seed(Group::test_group(), b"client");
        let dk = DecryptionKey::from_seed(Group::test_group(), b"client-enc");
        let cert = ca.issue(
            "swt-sc",
            CertRole::Client,
            &key.verifying_key(),
            Some(&dk.encryption_key()),
        );
        let decoded = decode_certificate(&encode_certificate(&cert)).unwrap();
        assert_eq!(decoded, cert);
        assert!(decoded.encryption_key().unwrap().is_some());
    }

    #[test]
    fn certificate_root_roundtrip() {
        let ca = CertificateAuthority::new("stl", "seller-org", Group::test_group(), b"s");
        let root = ca.root_certificate();
        let decoded = decode_certificate(&encode_certificate(root)).unwrap();
        assert_eq!(&decoded, root);
        assert!(decoded.verify_self_signed().is_ok());
    }

    #[test]
    fn certificate_missing_key_rejected() {
        let mut w = Writer::new();
        w.string(1, "cn");
        w.u64(4, 2);
        w.u64(12, 1);
        w.u64(5, 1);
        let err = decode_certificate(&w.into_bytes()).unwrap_err();
        assert_eq!(err, WireError::MissingField("sign_key"));
    }

    #[test]
    fn auth_info_cert_decode() {
        let mut ca = CertificateAuthority::new("swt", "org", Group::test_group(), b"s");
        let key = SigningKey::from_seed(Group::test_group(), b"c");
        let cert = ca.issue("client", CertRole::Client, &key.verifying_key(), None);
        let auth = AuthInfo {
            network_id: "swt".into(),
            organization_id: "org".into(),
            certificate: encode_certificate(&cert),
            signature: vec![],
        };
        let decoded = auth.decode_certificate().unwrap();
        assert_eq!(decoded, cert);
    }

    #[test]
    fn proof_roundtrip() {
        let proof = Proof {
            request_id: "req-1".into(),
            address: "stl:ch:cc:GetBillOfLading".into(),
            nonce: vec![5; 16],
            result: b"bill-of-lading".to_vec(),
            attestations: vec![Attestation {
                signer_cert: vec![1],
                signature: vec![2],
                metadata: vec![3],
                metadata_encrypted: false,
            }],
        };
        let decoded = Proof::decode_from_slice(&proof.encode_to_vec()).unwrap();
        assert_eq!(decoded, proof);
    }

    #[test]
    fn network_config_roundtrip() {
        let cfg = NetworkConfig {
            network_id: "stl".into(),
            group_name: "modp768".into(),
            orgs: vec![
                OrgConfig {
                    org_id: "seller-org".into(),
                    root_cert: vec![1, 2],
                    peer_certs: vec![vec![3], vec![4, 5]],
                },
                OrgConfig {
                    org_id: "carrier-org".into(),
                    root_cert: vec![9],
                    peer_certs: vec![],
                },
            ],
        };
        let decoded = NetworkConfig::decode_from_slice(&cfg.encode_to_vec()).unwrap();
        assert_eq!(decoded, cfg);
    }
}
