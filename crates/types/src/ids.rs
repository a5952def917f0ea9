//! Strongly-typed identifiers used across the protocol stack.
//!
//! Following the newtype guideline (C-NEWTYPE), every identifier that the
//! PBFT pseudocode treats as a bare integer gets its own type here, so that
//! a view number can never be confused with a sequence number and a replica
//! index can never be confused with a client index.

use crate::compartment::CompartmentKind;
use crate::config::ClusterConfig;
use crate::wire::{Decode, Encode, Reader, Sink, WireError};
use std::fmt;

/// Index of a replica in the cluster, in `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u32);

impl ReplicaId {
    /// Returns the replica index as a `usize`, for indexing into per-replica
    /// tables.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of a client of the replicated service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl ClientId {
    /// Returns the client index as a `usize`.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A view number. The view identifies the current primary via
/// [`View::primary`]; messages from earlier views are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct View(pub u64);

impl View {
    /// The first view of a fresh cluster (view 0).
    #[inline]
    pub fn initial() -> Self {
        View(0)
    }

    /// The next view (used when a view change is triggered).
    #[inline]
    pub fn next(self) -> Self {
        View(self.0 + 1)
    }

    /// The replica acting as primary in this view: `v mod n`, as in PBFT.
    #[inline]
    pub fn primary(self, config: &ClusterConfig) -> ReplicaId {
        ReplicaId((self.0 % config.n() as u64) as u32)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A sequence number assigned by the primary to order request batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// Sequence number zero, conventionally the genesis checkpoint.
    #[inline]
    pub fn zero() -> Self {
        SeqNum(0)
    }

    /// The next sequence number.
    #[inline]
    pub fn next(self) -> Self {
        SeqNum(self.0 + 1)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A client-side logical timestamp used to deduplicate requests: replicas
/// execute at most one request per `(client, timestamp)` pair and re-send the
/// cached reply for duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The next timestamp for the issuing client.
    #[inline]
    pub fn next(self) -> Self {
        Timestamp(self.0 + 1)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Globally unique identifier of a request: the issuing client plus its
/// logical timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The issuing client.
    pub client: ClientId,
    /// The client's logical timestamp for this request.
    pub timestamp: Timestamp,
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.timestamp)
    }
}

/// Identifier of one enclave: a compartment kind on a specific replica.
///
/// The paper distinguishes *compartments* (the logic shared by all enclaves
/// of one type) from *enclaves* (one compartment instance on one replica);
/// `EnclaveId` names the latter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnclaveId {
    /// The replica hosting this enclave.
    pub replica: ReplicaId,
    /// The compartment type this enclave runs.
    pub kind: CompartmentKind,
}

impl EnclaveId {
    /// Creates the identifier for `kind` on `replica`.
    #[inline]
    pub fn new(replica: ReplicaId, kind: CompartmentKind) -> Self {
        EnclaveId { replica, kind }
    }
}

impl fmt::Display for EnclaveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.replica, self.kind)
    }
}

/// The principal that signed (or MACed) a message.
///
/// In plain PBFT every protocol message is signed by a *replica*. In
/// SplitBFT inter-compartment messages are signed by individual *enclaves*,
/// and client requests are authenticated by *clients*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SignerId {
    /// A whole replica (plain PBFT, hybrid protocols).
    Replica(ReplicaId),
    /// A single enclave (SplitBFT inter-compartment messages).
    Enclave(EnclaveId),
    /// A client of the service.
    Client(ClientId),
}

impl SignerId {
    /// The replica this signer lives on, if any.
    pub fn replica(&self) -> Option<ReplicaId> {
        match self {
            SignerId::Replica(r) => Some(*r),
            SignerId::Enclave(e) => Some(e.replica),
            SignerId::Client(_) => None,
        }
    }
}

impl fmt::Display for SignerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignerId::Replica(r) => write!(f, "{r}"),
            SignerId::Enclave(e) => write!(f, "{e}"),
            SignerId::Client(c) => write!(f, "{c}"),
        }
    }
}

// --- wire impls -----------------------------------------------------------

impl Encode for ReplicaId {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.0.encode_to(out);
    }
}
impl Decode for ReplicaId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ReplicaId(u32::decode(r)?))
    }
}

impl Encode for ClientId {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.0.encode_to(out);
    }
}
impl Decode for ClientId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ClientId(u32::decode(r)?))
    }
}

impl Encode for View {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.0.encode_to(out);
    }
}
impl Decode for View {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(View(u64::decode(r)?))
    }
}

impl Encode for SeqNum {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.0.encode_to(out);
    }
}
impl Decode for SeqNum {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SeqNum(u64::decode(r)?))
    }
}

impl Encode for Timestamp {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.0.encode_to(out);
    }
}
impl Decode for Timestamp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Timestamp(u64::decode(r)?))
    }
}

impl Encode for RequestId {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.client.encode_to(out);
        self.timestamp.encode_to(out);
    }
}
impl Decode for RequestId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RequestId { client: ClientId::decode(r)?, timestamp: Timestamp::decode(r)? })
    }
}

impl Encode for EnclaveId {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.replica.encode_to(out);
        self.kind.encode_to(out);
    }
}
impl Decode for EnclaveId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EnclaveId { replica: ReplicaId::decode(r)?, kind: CompartmentKind::decode(r)? })
    }
}

impl Encode for SignerId {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        match self {
            SignerId::Replica(r) => {
                out.put(&[0]);
                r.encode_to(out);
            }
            SignerId::Enclave(e) => {
                out.put(&[1]);
                e.encode_to(out);
            }
            SignerId::Client(c) => {
                out.put(&[2]);
                c.encode_to(out);
            }
        }
    }
}
impl Decode for SignerId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(SignerId::Replica(ReplicaId::decode(r)?)),
            1 => Ok(SignerId::Enclave(EnclaveId::decode(r)?)),
            2 => Ok(SignerId::Client(ClientId::decode(r)?)),
            tag => Err(WireError::InvalidTag { ty: "SignerId", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    #[test]
    fn view_primary_rotates_through_replicas() {
        let cfg = ClusterConfig::new(4).unwrap();
        assert_eq!(View(0).primary(&cfg), ReplicaId(0));
        assert_eq!(View(1).primary(&cfg), ReplicaId(1));
        assert_eq!(View(4).primary(&cfg), ReplicaId(0));
        assert_eq!(View(7).primary(&cfg), ReplicaId(3));
    }

    #[test]
    fn next_increments() {
        assert_eq!(View(3).next(), View(4));
        assert_eq!(SeqNum(9).next(), SeqNum(10));
        assert_eq!(Timestamp(0).next(), Timestamp(1));
    }

    #[test]
    fn signer_replica_extraction() {
        let e = EnclaveId::new(ReplicaId(2), CompartmentKind::Execution);
        assert_eq!(SignerId::Enclave(e).replica(), Some(ReplicaId(2)));
        assert_eq!(SignerId::Replica(ReplicaId(1)).replica(), Some(ReplicaId(1)));
        assert_eq!(SignerId::Client(ClientId(9)).replica(), None);
    }

    #[test]
    fn ids_roundtrip_on_the_wire() {
        roundtrip(&ReplicaId(7));
        roundtrip(&ClientId(123));
        roundtrip(&View(u64::MAX));
        roundtrip(&SeqNum(42));
        roundtrip(&RequestId { client: ClientId(1), timestamp: Timestamp(99) });
        roundtrip(&EnclaveId::new(ReplicaId(3), CompartmentKind::Preparation));
        roundtrip(&SignerId::Client(ClientId(5)));
        roundtrip(&SignerId::Enclave(EnclaveId::new(
            ReplicaId(0),
            CompartmentKind::Confirmation,
        )));
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(ReplicaId(1).to_string(), "r1");
        assert_eq!(ClientId(2).to_string(), "c2");
        assert_eq!(View(3).to_string(), "v3");
        assert_eq!(SeqNum(4).to_string(), "s4");
        let e = EnclaveId::new(ReplicaId(1), CompartmentKind::Execution);
        assert_eq!(e.to_string(), "r1/exec");
        assert_eq!(
            RequestId { client: ClientId(1), timestamp: Timestamp(5) }.to_string(),
            "c1#t5"
        );
    }
}
