//! The PBFT / SplitBFT message vocabulary.
//!
//! These are the message types exchanged between clients, replicas, and —
//! in SplitBFT — between enclaves of different compartments. Digest
//! *computation* and signature *checking* live in `splitbft-crypto`; this
//! module defines the data layout, the canonical signing bytes (with a
//! per-type domain tag so a signature over a `Prepare` can never be replayed
//! as a `Commit`), and the *structural* validity rules of quorum
//! certificates (distinct signers, matching views/sequence numbers/digests,
//! sufficient counts).

use crate::digest::Digest;
use crate::ids::{ClientId, ReplicaId, RequestId, SeqNum, SignerId, View};
use crate::wire::{Decode, Encode, Reader, Sink, WireError};
use bytes::Bytes;
use std::collections::BTreeSet;
use std::fmt;

// The STATE_TRANSFER vocabulary (requests/responses a recovering replica
// exchanges with peers) lives in [`crate::durable`] next to the WAL and
// checkpoint records it moves; it is re-exported here because it is part
// of the replica-to-replica message surface.
pub use crate::durable::{StateTransferRequest, StateTransferResponse};

/// An opaque 64-byte signature produced by `splitbft-crypto`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; 64]);

impl Signature {
    /// The all-zero signature, useful as a placeholder in tests and for
    /// genesis artifacts that are validated structurally rather than
    /// cryptographically.
    pub const ZERO: Signature = Signature([0u8; 64]);
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({:02x}{:02x}…)", self.0[0], self.0[1])
    }
}

impl Default for Signature {
    fn default() -> Self {
        Signature::ZERO
    }
}

impl Encode for Signature {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        out.put(&self.0);
    }
}
impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Signature(r.take_array()?))
    }
}

/// An opaque 32-byte public key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PublicKey(pub [u8; 32]);

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:02x}{:02x}…)", self.0[0], self.0[1])
    }
}

impl Encode for PublicKey {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        out.put(&self.0);
    }
}
impl Decode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PublicKey(r.take_array()?))
    }
}

/// Payloads that can be wrapped in [`Signed`]. The `TAG` provides domain
/// separation between message types in the bytes-to-sign.
pub trait MessagePayload: Encode {
    /// A unique per-type domain-separation tag.
    const TAG: u8;
}

/// A payload together with its signer and signature.
///
/// The signature covers `[TAG, encode(payload)]`; verification is performed
/// by `splitbft-crypto` against the signer's registered public key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signed<T> {
    /// The signed payload.
    pub payload: T,
    /// Who signed it.
    pub signer: SignerId,
    /// The signature over [`Signed::signing_bytes`].
    pub signature: Signature,
}

impl<T: MessagePayload> Signed<T> {
    /// Assembles a signed message from its parts. The signature is taken at
    /// face value here; use `splitbft-crypto` to produce or verify it.
    pub fn new(payload: T, signer: SignerId, signature: Signature) -> Self {
        Signed { payload, signer, signature }
    }

    /// Streams the canonical bytes the signature must cover — the domain
    /// tag followed by the canonical encoding of the payload — into `out`,
    /// which may be a hasher: signing and verifying never materialise them.
    pub fn write_signing_bytes<S: Sink>(payload: &T, out: &mut S) {
        out.put(&[T::TAG]);
        payload.encode_to(out);
    }

    /// [`Signed::write_signing_bytes`] into a fresh buffer.
    pub fn signing_bytes(payload: &T) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 + payload.encoded_len());
        Self::write_signing_bytes(payload, &mut buf);
        buf
    }
}

impl<T: Encode> Encode for Signed<T> {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.payload.encode_to(out);
        self.signer.encode_to(out);
        self.signature.encode_to(out);
    }
}
impl<T: Decode> Decode for Signed<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Signed {
            payload: T::decode(r)?,
            signer: SignerId::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

// --------------------------------------------------------------------------
// Client-facing messages
// --------------------------------------------------------------------------

/// A client request.
///
/// In SplitBFT's confidential mode `op` is a ciphertext under the session
/// key the client installed in the Execution enclaves during attestation;
/// only Execution enclaves can decrypt it. `auth` is an HMAC tag over the
/// request contents under the client's shared MAC key (the paper
/// authenticates client traffic with HMAC-SHA2 and reserves signatures for
/// inter-replica messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request identity (client + client-local timestamp).
    pub id: RequestId,
    /// The operation, possibly encrypted.
    pub op: Bytes,
    /// `true` if `op` is a ciphertext for the Execution compartment.
    pub encrypted: bool,
    /// HMAC tag authenticating `(id, op, encrypted)`.
    pub auth: [u8; 32],
}

impl Request {
    /// Streams the bytes covered by the HMAC tag into `out` (a MAC in
    /// progress, on the replicas' hot paths).
    pub fn write_auth_bytes<S: Sink>(id: RequestId, op: &[u8], encrypted: bool, out: &mut S) {
        id.encode_to(out);
        out.put(op);
        out.put(&[encrypted as u8]);
    }

    /// [`Request::write_auth_bytes`] into a fresh buffer.
    pub fn auth_bytes(id: RequestId, op: &[u8], encrypted: bool) -> Vec<u8> {
        let mut buf = Vec::with_capacity(op.len() + 13);
        Self::write_auth_bytes(id, op, encrypted, &mut buf);
        buf
    }

    /// The issuing client.
    #[inline]
    pub fn client(&self) -> ClientId {
        self.id.client
    }
}

impl Encode for Request {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.id.encode_to(out);
        self.op.encode_to(out);
        self.encrypted.encode_to(out);
        self.auth.encode_to(out);
    }
}
impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Request {
            id: RequestId::decode(r)?,
            op: Bytes::decode(r)?,
            encrypted: bool::decode(r)?,
            auth: r.take_array()?,
        })
    }
}

/// An ordered batch of client requests, the unit of agreement.
///
/// Unbatched operation is simply a batch of size one; batching is performed
/// by the untrusted environment (P1: batching is liveness-only logic).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestBatch {
    /// The requests in execution order.
    pub requests: Vec<Request>,
}

impl RequestBatch {
    /// Creates a batch from requests.
    pub fn new(requests: Vec<Request>) -> Self {
        RequestBatch { requests }
    }

    /// A batch with a single request.
    pub fn single(request: Request) -> Self {
        RequestBatch { requests: vec![request] }
    }

    /// The empty (null) batch used by new primaries to fill gaps after a
    /// view change.
    pub fn null() -> Self {
        RequestBatch { requests: Vec::new() }
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` if this is a null batch.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

impl Encode for RequestBatch {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.requests.encode_to(out);
    }
}
impl Decode for RequestBatch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RequestBatch { requests: Vec::decode(r)? })
    }
}

/// A reply sent by (the Execution compartment of) a replica to a client.
///
/// Clients accept a result once they collect `f + 1` matching replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The view in which the request was executed.
    pub view: View,
    /// Which request this reply answers.
    pub request: RequestId,
    /// The replying replica.
    pub replica: ReplicaId,
    /// The execution result, possibly encrypted for the client.
    pub result: Bytes,
    /// `true` if `result` is a ciphertext under the client session key.
    pub encrypted: bool,
    /// HMAC tag authenticating the reply to the client.
    pub auth: [u8; 32],
}

impl Reply {
    /// Streams the bytes covered by the HMAC tag into `out`.
    pub fn write_auth_bytes<S: Sink>(
        view: View,
        request: RequestId,
        replica: ReplicaId,
        result: &[u8],
        encrypted: bool,
        out: &mut S,
    ) {
        view.encode_to(out);
        request.encode_to(out);
        replica.encode_to(out);
        out.put(result);
        out.put(&[encrypted as u8]);
    }

    /// [`Reply::write_auth_bytes`] into a fresh buffer.
    pub fn auth_bytes(
        view: View,
        request: RequestId,
        replica: ReplicaId,
        result: &[u8],
        encrypted: bool,
    ) -> Vec<u8> {
        let mut buf = Vec::with_capacity(result.len() + 25);
        Self::write_auth_bytes(view, request, replica, result, encrypted, &mut buf);
        buf
    }
}

impl Encode for Reply {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.view.encode_to(out);
        self.request.encode_to(out);
        self.replica.encode_to(out);
        self.result.encode_to(out);
        self.encrypted.encode_to(out);
        self.auth.encode_to(out);
    }
}
impl Decode for Reply {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Reply {
            view: View::decode(r)?,
            request: RequestId::decode(r)?,
            replica: ReplicaId::decode(r)?,
            result: Bytes::decode(r)?,
            encrypted: bool::decode(r)?,
            auth: r.take_array()?,
        })
    }
}

// --------------------------------------------------------------------------
// Agreement messages
// --------------------------------------------------------------------------

/// The primary's ordering proposal for one batch at one sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrePrepare {
    /// View in which the proposal is made.
    pub view: View,
    /// Proposed sequence number.
    pub seq: SeqNum,
    /// Digest of `batch` (over its canonical encoding).
    pub digest: Digest,
    /// The full request batch. `Prepare`/`Commit` carry only `digest`; the
    /// batch itself travels in the `PrePrepare`, which the broker duplicates
    /// into the input logs of all three compartments (§3.2).
    pub batch: RequestBatch,
}

impl MessagePayload for PrePrepare {
    const TAG: u8 = 1;
}

impl Encode for PrePrepare {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.view.encode_to(out);
        self.seq.encode_to(out);
        self.digest.encode_to(out);
        self.batch.encode_to(out);
    }
}
impl Decode for PrePrepare {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PrePrepare {
            view: View::decode(r)?,
            seq: SeqNum::decode(r)?,
            digest: Digest::decode(r)?,
            batch: RequestBatch::decode(r)?,
        })
    }
}

/// A backup's vote that it accepted the primary's proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prepare {
    /// View of the proposal.
    pub view: View,
    /// Sequence number of the proposal.
    pub seq: SeqNum,
    /// Digest of the proposed batch.
    pub digest: Digest,
    /// The voting replica.
    pub replica: ReplicaId,
}

impl MessagePayload for Prepare {
    const TAG: u8 = 2;
}

impl Encode for Prepare {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.view.encode_to(out);
        self.seq.encode_to(out);
        self.digest.encode_to(out);
        self.replica.encode_to(out);
    }
}
impl Decode for Prepare {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Prepare {
            view: View::decode(r)?,
            seq: SeqNum::decode(r)?,
            digest: Digest::decode(r)?,
            replica: ReplicaId::decode(r)?,
        })
    }
}

/// A replica's vote that the proposal is *prepared* (backed by a prepare
/// certificate) and may be committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// View of the proposal.
    pub view: View,
    /// Sequence number of the proposal.
    pub seq: SeqNum,
    /// Digest of the proposed batch.
    pub digest: Digest,
    /// The voting replica.
    pub replica: ReplicaId,
}

impl MessagePayload for Commit {
    const TAG: u8 = 3;
}

impl Encode for Commit {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.view.encode_to(out);
        self.seq.encode_to(out);
        self.digest.encode_to(out);
        self.replica.encode_to(out);
    }
}
impl Decode for Commit {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Commit {
            view: View::decode(r)?,
            seq: SeqNum::decode(r)?,
            digest: Digest::decode(r)?,
            replica: ReplicaId::decode(r)?,
        })
    }
}

/// A periodic proof of state: "my application state after executing
/// everything up to `seq` has digest `state_digest`".
///
/// A vote is `(seq, state_digest, replica)`: `2f + 1` matching ones make
/// the checkpoint stable, and a certificate of them — in a `ViewChange`,
/// a `NewView`, a sealed file — stays a few hundred bytes whatever the
/// state's size. The snapshot itself exists once per replica, beside its
/// checkpoint tracker, and moves only on request: after the certificate in
/// a `DurableCheckpoint`, to disk and to a lagging peer over
/// `STATE_TRANSFER`. Whoever restores it checks it against the digest
/// their own verified certificate vouches for.
///
/// `snapshot` is what is left of the paper's §3.2 form ("a checkpoint
/// message includes a snapshot of the application state"): replicas send
/// it empty. It keeps its place in the encoding — and under the signature
/// — so a certificate sealed or served by an older build, whose votes each
/// embed the snapshot, still decodes and verifies; nothing hashes or
/// restores from the field except the recovery of such a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The last executed sequence number covered by the snapshot.
    pub seq: SeqNum,
    /// Digest of the application snapshot (plus execution metadata).
    pub state_digest: Digest,
    /// The replica that took the snapshot.
    pub replica: ReplicaId,
    /// Empty. (The snapshot, in votes written by an older build.)
    pub snapshot: Bytes,
}

impl MessagePayload for Checkpoint {
    const TAG: u8 = 4;
}

impl Encode for Checkpoint {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.seq.encode_to(out);
        self.state_digest.encode_to(out);
        self.replica.encode_to(out);
        self.snapshot.encode_to(out);
    }
}
impl Decode for Checkpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Checkpoint {
            seq: SeqNum::decode(r)?,
            state_digest: Digest::decode(r)?,
            replica: ReplicaId::decode(r)?,
            snapshot: Bytes::decode(r)?,
        })
    }
}

// --------------------------------------------------------------------------
// Certificates
// --------------------------------------------------------------------------

/// A prepare certificate: one `PrePrepare` plus `2f` matching `Prepare`s
/// from distinct other replicas (P5: compartment transitions happen only on
/// such quorum decisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepareCertificate {
    /// The primary's signed proposal.
    pub pre_prepare: Signed<PrePrepare>,
    /// `2f` matching signed `Prepare`s from distinct backups.
    pub prepares: Vec<Signed<Prepare>>,
}

impl PrepareCertificate {
    /// The view the certificate belongs to.
    pub fn view(&self) -> View {
        self.pre_prepare.payload.view
    }

    /// The sequence number the certificate binds.
    pub fn seq(&self) -> SeqNum {
        self.pre_prepare.payload.seq
    }

    /// The batch digest the certificate binds.
    pub fn digest(&self) -> Digest {
        self.pre_prepare.payload.digest
    }

    /// Structural validity: `2f` prepares, all matching the pre-prepare's
    /// view/seq/digest, from distinct replicas, none of them the primary.
    ///
    /// Signature validity is checked separately by the caller with the key
    /// registry; structure and cryptography are deliberately decoupled so
    /// the model checker can exercise structure without a crypto dependency.
    pub fn is_structurally_valid(&self, f: usize) -> bool {
        if self.prepares.len() < 2 * f {
            return false;
        }
        let pp = &self.pre_prepare.payload;
        let mut seen = BTreeSet::new();
        for p in &self.prepares {
            let pl = &p.payload;
            if pl.view != pp.view || pl.seq != pp.seq || pl.digest != pp.digest {
                return false;
            }
            let Some(replica) = p.signer.replica() else { return false };
            if replica != pl.replica {
                return false;
            }
            if !seen.insert(replica) {
                return false;
            }
        }
        // The primary's vote is the PrePrepare itself; prepares must come
        // from other replicas.
        match self.pre_prepare.signer.replica() {
            Some(primary) => !seen.contains(&primary),
            None => false,
        }
    }
}

impl Encode for PrepareCertificate {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.pre_prepare.encode_to(out);
        self.prepares.encode_to(out);
    }
}
impl Decode for PrepareCertificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PrepareCertificate {
            pre_prepare: Signed::<PrePrepare>::decode(r)?,
            prepares: Vec::decode(r)?,
        })
    }
}

/// A commit certificate: `2f + 1` matching `Commit`s from distinct replicas.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommitCertificate {
    /// The matching signed commits.
    pub commits: Vec<Signed<Commit>>,
}

impl CommitCertificate {
    /// Structural validity: at least `2f + 1` commits, all matching in
    /// view/seq/digest, from distinct replicas.
    pub fn is_structurally_valid(&self, f: usize) -> bool {
        if self.commits.len() < 2 * f + 1 {
            return false;
        }
        let first = &self.commits[0].payload;
        let mut seen = BTreeSet::new();
        for c in &self.commits {
            let pl = &c.payload;
            if pl.view != first.view || pl.seq != first.seq || pl.digest != first.digest {
                return false;
            }
            let Some(replica) = c.signer.replica() else { return false };
            if replica != pl.replica || !seen.insert(replica) {
                return false;
            }
        }
        true
    }

    /// The sequence number bound by the certificate, if non-empty.
    pub fn seq(&self) -> Option<SeqNum> {
        self.commits.first().map(|c| c.payload.seq)
    }
}

impl Encode for CommitCertificate {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.commits.encode_to(out);
    }
}
impl Decode for CommitCertificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CommitCertificate { commits: Vec::decode(r)? })
    }
}

/// A checkpoint certificate: `2f + 1` matching `Checkpoint`s from distinct
/// replicas. The genesis certificate (sequence 0) is allowed to be empty.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointCertificate {
    /// The matching signed checkpoints.
    pub checkpoints: Vec<Signed<Checkpoint>>,
}

impl CheckpointCertificate {
    /// The certificate for the genesis state (stable sequence number 0).
    pub fn genesis() -> Self {
        CheckpointCertificate { checkpoints: Vec::new() }
    }

    /// The stable sequence number proven by the certificate (0 for genesis).
    pub fn seq(&self) -> SeqNum {
        self.checkpoints.first().map_or(SeqNum::zero(), |c| c.payload.seq)
    }

    /// The proven state digest, if any (genesis has none).
    pub fn state_digest(&self) -> Option<Digest> {
        self.checkpoints.first().map(|c| c.payload.state_digest)
    }

    /// Structural validity: empty (genesis) or `2f + 1` matching
    /// checkpoints from distinct replicas.
    pub fn is_structurally_valid(&self, f: usize) -> bool {
        if self.checkpoints.is_empty() {
            return true;
        }
        if self.checkpoints.len() < 2 * f + 1 {
            return false;
        }
        let first = &self.checkpoints[0].payload;
        let mut seen = BTreeSet::new();
        for c in &self.checkpoints {
            let pl = &c.payload;
            if pl.seq != first.seq || pl.state_digest != first.state_digest {
                return false;
            }
            let Some(replica) = c.signer.replica() else { return false };
            if replica != pl.replica || !seen.insert(replica) {
                return false;
            }
        }
        true
    }
}

impl Encode for CheckpointCertificate {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.checkpoints.encode_to(out);
    }
}
impl Decode for CheckpointCertificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CheckpointCertificate { checkpoints: Vec::decode(r)? })
    }
}

// --------------------------------------------------------------------------
// View change
// --------------------------------------------------------------------------

/// A replica's (in SplitBFT: a Confirmation enclave's) declaration that the
/// primary of `new_view - 1` is suspected faulty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChange {
    /// The view the sender wants to move to.
    pub new_view: View,
    /// The sender's last stable checkpoint sequence number.
    pub stable_seq: SeqNum,
    /// Proof of the stable checkpoint (2f+1 `Checkpoint`s, empty for
    /// genesis).
    pub checkpoint_proof: CheckpointCertificate,
    /// Prepare certificates for every request the sender prepared above the
    /// stable checkpoint.
    pub prepared: Vec<PrepareCertificate>,
    /// The sending replica.
    pub replica: ReplicaId,
}

impl MessagePayload for ViewChange {
    const TAG: u8 = 5;
}

impl ViewChange {
    /// Structural validity of the embedded proofs.
    pub fn is_structurally_valid(&self, f: usize) -> bool {
        if !self.checkpoint_proof.is_structurally_valid(f) {
            return false;
        }
        if self.checkpoint_proof.seq() != self.stable_seq {
            return false;
        }
        self.prepared.iter().all(|cert| {
            cert.is_structurally_valid(f) && cert.seq() > self.stable_seq
        })
    }
}

impl Encode for ViewChange {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.new_view.encode_to(out);
        self.stable_seq.encode_to(out);
        self.checkpoint_proof.encode_to(out);
        self.prepared.encode_to(out);
        self.replica.encode_to(out);
    }
}
impl Decode for ViewChange {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ViewChange {
            new_view: View::decode(r)?,
            stable_seq: SeqNum::decode(r)?,
            checkpoint_proof: CheckpointCertificate::decode(r)?,
            prepared: Vec::decode(r)?,
            replica: ReplicaId::decode(r)?,
        })
    }
}

/// The new primary's announcement of view `view`, carrying `2f + 1`
/// `ViewChange`s and the re-issued `PrePrepare`s for requests that were
/// prepared but not yet checkpointed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewView {
    /// The announced view.
    pub view: View,
    /// `2f + 1` signed view changes justifying the transition.
    pub view_changes: Vec<Signed<ViewChange>>,
    /// `PrePrepare`s re-issued in the new view (full batches, so Execution
    /// compartments receive the request payloads as well).
    pub pre_prepares: Vec<Signed<PrePrepare>>,
}

impl MessagePayload for NewView {
    const TAG: u8 = 6;
}

impl NewView {
    /// The highest stable checkpoint certificate among the view changes —
    /// the checkpoint every compartment applies when processing the
    /// `NewView` (handler 7' in the paper).
    pub fn max_checkpoint(&self) -> Option<&CheckpointCertificate> {
        self.view_changes
            .iter()
            .map(|vc| &vc.payload.checkpoint_proof)
            .max_by_key(|cp| cp.seq())
    }

    /// Structural validity: distinct view-change senders, all for this
    /// view, each internally valid; quorum size is checked by the caller
    /// (it needs `f`).
    pub fn is_structurally_valid(&self, f: usize) -> bool {
        if self.view_changes.len() < 2 * f + 1 {
            return false;
        }
        let mut seen = BTreeSet::new();
        for vc in &self.view_changes {
            if vc.payload.new_view != self.view {
                return false;
            }
            if !vc.payload.is_structurally_valid(f) {
                return false;
            }
            let Some(replica) = vc.signer.replica() else { return false };
            if replica != vc.payload.replica || !seen.insert(replica) {
                return false;
            }
        }
        self.pre_prepares.iter().all(|pp| pp.payload.view == self.view)
    }
}

impl Encode for NewView {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.view.encode_to(out);
        self.view_changes.encode_to(out);
        self.pre_prepares.encode_to(out);
    }
}
impl Decode for NewView {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NewView {
            view: View::decode(r)?,
            view_changes: Vec::decode(r)?,
            pre_prepares: Vec::decode(r)?,
        })
    }
}

// --------------------------------------------------------------------------
// Top-level envelope
// --------------------------------------------------------------------------

/// Any inter-replica (or inter-compartment) protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum ConsensusMessage {
    /// The primary's ordering proposal.
    PrePrepare(Signed<PrePrepare>),
    /// A backup's acceptance vote.
    Prepare(Signed<Prepare>),
    /// A replica's commit vote.
    Commit(Signed<Commit>),
    /// A periodic state proof.
    Checkpoint(Signed<Checkpoint>),
    /// A primary-suspicion declaration.
    ViewChange(Signed<ViewChange>),
    /// The new primary's view announcement.
    NewView(Signed<NewView>),
}

impl ConsensusMessage {
    /// The signer of the wrapped message.
    pub fn signer(&self) -> SignerId {
        match self {
            ConsensusMessage::PrePrepare(m) => m.signer,
            ConsensusMessage::Prepare(m) => m.signer,
            ConsensusMessage::Commit(m) => m.signer,
            ConsensusMessage::Checkpoint(m) => m.signer,
            ConsensusMessage::ViewChange(m) => m.signer,
            ConsensusMessage::NewView(m) => m.signer,
        }
    }

    /// A short human-readable kind name for logs and traces.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ConsensusMessage::PrePrepare(_) => "PrePrepare",
            ConsensusMessage::Prepare(_) => "Prepare",
            ConsensusMessage::Commit(_) => "Commit",
            ConsensusMessage::Checkpoint(_) => "Checkpoint",
            ConsensusMessage::ViewChange(_) => "ViewChange",
            ConsensusMessage::NewView(_) => "NewView",
        }
    }
}

impl Encode for ConsensusMessage {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        match self {
            ConsensusMessage::PrePrepare(m) => {
                out.put(&[1]);
                m.encode_to(out);
            }
            ConsensusMessage::Prepare(m) => {
                out.put(&[2]);
                m.encode_to(out);
            }
            ConsensusMessage::Commit(m) => {
                out.put(&[3]);
                m.encode_to(out);
            }
            ConsensusMessage::Checkpoint(m) => {
                out.put(&[4]);
                m.encode_to(out);
            }
            ConsensusMessage::ViewChange(m) => {
                out.put(&[5]);
                m.encode_to(out);
            }
            ConsensusMessage::NewView(m) => {
                out.put(&[6]);
                m.encode_to(out);
            }
        }
    }
}
impl Decode for ConsensusMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            1 => Ok(ConsensusMessage::PrePrepare(Signed::decode(r)?)),
            2 => Ok(ConsensusMessage::Prepare(Signed::decode(r)?)),
            3 => Ok(ConsensusMessage::Commit(Signed::decode(r)?)),
            4 => Ok(ConsensusMessage::Checkpoint(Signed::decode(r)?)),
            5 => Ok(ConsensusMessage::ViewChange(Signed::decode(r)?)),
            6 => Ok(ConsensusMessage::NewView(Signed::decode(r)?)),
            tag => Err(WireError::InvalidTag { ty: "ConsensusMessage", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Timestamp;
    use crate::wire::roundtrip;

    fn req(client: u32, ts: u64) -> Request {
        Request {
            id: RequestId { client: ClientId(client), timestamp: Timestamp(ts) },
            op: Bytes::from_static(b"put k v"),
            encrypted: false,
            auth: [9u8; 32],
        }
    }

    fn signed_prepare(view: u64, seq: u64, digest: Digest, replica: u32) -> Signed<Prepare> {
        Signed::new(
            Prepare { view: View(view), seq: SeqNum(seq), digest, replica: ReplicaId(replica) },
            SignerId::Replica(ReplicaId(replica)),
            Signature::ZERO,
        )
    }

    fn signed_pre_prepare(view: u64, seq: u64, digest: Digest, primary: u32) -> Signed<PrePrepare> {
        Signed::new(
            PrePrepare {
                view: View(view),
                seq: SeqNum(seq),
                digest,
                batch: RequestBatch::single(req(1, seq)),
            },
            SignerId::Replica(ReplicaId(primary)),
            Signature::ZERO,
        )
    }

    #[test]
    fn all_messages_roundtrip() {
        let d = Digest::from_bytes([3u8; 32]);
        roundtrip(&req(1, 2));
        roundtrip(&RequestBatch::new(vec![req(1, 2), req(2, 3)]));
        roundtrip(&signed_pre_prepare(0, 1, d, 0));
        roundtrip(&signed_prepare(0, 1, d, 1));
        roundtrip(&Signed::new(
            Commit { view: View(0), seq: SeqNum(1), digest: d, replica: ReplicaId(2) },
            SignerId::Replica(ReplicaId(2)),
            Signature::ZERO,
        ));
        roundtrip(&Signed::new(
            Checkpoint { seq: SeqNum(100), state_digest: d, replica: ReplicaId(0), snapshot: Bytes::from_static(b"snap") },
            SignerId::Replica(ReplicaId(0)),
            Signature::ZERO,
        ));
        let vc = ViewChange {
            new_view: View(1),
            stable_seq: SeqNum(0),
            checkpoint_proof: CheckpointCertificate::genesis(),
            prepared: vec![PrepareCertificate {
                pre_prepare: signed_pre_prepare(0, 1, d, 0),
                prepares: vec![signed_prepare(0, 1, d, 1), signed_prepare(0, 1, d, 2)],
            }],
            replica: ReplicaId(1),
        };
        roundtrip(&Signed::new(vc.clone(), SignerId::Replica(ReplicaId(1)), Signature::ZERO));
        let nv = NewView {
            view: View(1),
            view_changes: vec![Signed::new(
                vc,
                SignerId::Replica(ReplicaId(1)),
                Signature::ZERO,
            )],
            pre_prepares: vec![signed_pre_prepare(1, 1, d, 1)],
        };
        roundtrip(&ConsensusMessage::NewView(Signed::new(
            nv,
            SignerId::Replica(ReplicaId(1)),
            Signature::ZERO,
        )));
    }

    #[test]
    fn signing_bytes_are_domain_separated() {
        let d = Digest::from_bytes([3u8; 32]);
        let p = Prepare { view: View(0), seq: SeqNum(1), digest: d, replica: ReplicaId(1) };
        let c = Commit { view: View(0), seq: SeqNum(1), digest: d, replica: ReplicaId(1) };
        // Same field contents, different domain tag.
        assert_ne!(Signed::signing_bytes(&p), Signed::signing_bytes(&c));
        assert_eq!(Signed::signing_bytes(&p)[0], Prepare::TAG);
        assert_eq!(Signed::signing_bytes(&c)[0], Commit::TAG);
    }

    #[test]
    fn prepare_certificate_structural_checks() {
        let d = Digest::from_bytes([1u8; 32]);
        let good = PrepareCertificate {
            pre_prepare: signed_pre_prepare(0, 5, d, 0),
            prepares: vec![signed_prepare(0, 5, d, 1), signed_prepare(0, 5, d, 2)],
        };
        assert!(good.is_structurally_valid(1));
        assert_eq!(good.seq(), SeqNum(5));
        assert_eq!(good.view(), View(0));
        assert_eq!(good.digest(), d);

        // Too few prepares.
        let short = PrepareCertificate {
            pre_prepare: signed_pre_prepare(0, 5, d, 0),
            prepares: vec![signed_prepare(0, 5, d, 1)],
        };
        assert!(!short.is_structurally_valid(1));

        // Duplicate sender.
        let dup = PrepareCertificate {
            pre_prepare: signed_pre_prepare(0, 5, d, 0),
            prepares: vec![signed_prepare(0, 5, d, 1), signed_prepare(0, 5, d, 1)],
        };
        assert!(!dup.is_structurally_valid(1));

        // Mismatched digest.
        let other = Digest::from_bytes([2u8; 32]);
        let mismatch = PrepareCertificate {
            pre_prepare: signed_pre_prepare(0, 5, d, 0),
            prepares: vec![signed_prepare(0, 5, other, 1), signed_prepare(0, 5, d, 2)],
        };
        assert!(!mismatch.is_structurally_valid(1));

        // Primary voting twice (prepare from the pre-prepare sender).
        let self_vote = PrepareCertificate {
            pre_prepare: signed_pre_prepare(0, 5, d, 0),
            prepares: vec![signed_prepare(0, 5, d, 0), signed_prepare(0, 5, d, 2)],
        };
        assert!(!self_vote.is_structurally_valid(1));

        // Signer / claimed-replica mismatch.
        let mut forged = signed_prepare(0, 5, d, 1);
        forged.signer = SignerId::Replica(ReplicaId(3));
        let forged_cert = PrepareCertificate {
            pre_prepare: signed_pre_prepare(0, 5, d, 0),
            prepares: vec![forged, signed_prepare(0, 5, d, 2)],
        };
        assert!(!forged_cert.is_structurally_valid(1));
    }

    #[test]
    fn commit_certificate_structural_checks() {
        let d = Digest::from_bytes([1u8; 32]);
        let mk = |r: u32| {
            Signed::new(
                Commit { view: View(0), seq: SeqNum(3), digest: d, replica: ReplicaId(r) },
                SignerId::Replica(ReplicaId(r)),
                Signature::ZERO,
            )
        };
        let good = CommitCertificate { commits: vec![mk(0), mk(1), mk(2)] };
        assert!(good.is_structurally_valid(1));
        assert_eq!(good.seq(), Some(SeqNum(3)));

        let short = CommitCertificate { commits: vec![mk(0), mk(1)] };
        assert!(!short.is_structurally_valid(1));

        let dup = CommitCertificate { commits: vec![mk(0), mk(1), mk(1)] };
        assert!(!dup.is_structurally_valid(1));
    }

    #[test]
    fn checkpoint_certificate_structural_checks() {
        let d = Digest::from_bytes([4u8; 32]);
        let mk = |r: u32| {
            Signed::new(
                Checkpoint { seq: SeqNum(10), state_digest: d, replica: ReplicaId(r), snapshot: Bytes::new() },
                SignerId::Replica(ReplicaId(r)),
                Signature::ZERO,
            )
        };
        assert!(CheckpointCertificate::genesis().is_structurally_valid(1));
        assert_eq!(CheckpointCertificate::genesis().seq(), SeqNum(0));

        let good = CheckpointCertificate { checkpoints: vec![mk(0), mk(1), mk(2)] };
        assert!(good.is_structurally_valid(1));
        assert_eq!(good.seq(), SeqNum(10));
        assert_eq!(good.state_digest(), Some(d));

        let short = CheckpointCertificate { checkpoints: vec![mk(0), mk(1)] };
        assert!(!short.is_structurally_valid(1));
    }

    #[test]
    fn view_change_validity_binds_checkpoint_seq() {
        let vc = ViewChange {
            new_view: View(1),
            stable_seq: SeqNum(5), // claims 5 but proof is genesis (0)
            checkpoint_proof: CheckpointCertificate::genesis(),
            prepared: Vec::new(),
            replica: ReplicaId(1),
        };
        assert!(!vc.is_structurally_valid(1));

        let ok = ViewChange { stable_seq: SeqNum(0), ..vc };
        assert!(ok.is_structurally_valid(1));
    }

    #[test]
    fn view_change_rejects_prepared_below_checkpoint() {
        let d = Digest::from_bytes([1u8; 32]);
        let cert = PrepareCertificate {
            pre_prepare: signed_pre_prepare(0, 0, d, 0),
            prepares: vec![signed_prepare(0, 0, d, 1), signed_prepare(0, 0, d, 2)],
        };
        // Prepared entry at seq 0 is not above stable_seq 0.
        let vc = ViewChange {
            new_view: View(1),
            stable_seq: SeqNum(0),
            checkpoint_proof: CheckpointCertificate::genesis(),
            prepared: vec![cert],
            replica: ReplicaId(1),
        };
        assert!(!vc.is_structurally_valid(1));
    }

    #[test]
    fn new_view_structural_checks() {
        let mk_vc = |r: u32| {
            Signed::new(
                ViewChange {
                    new_view: View(1),
                    stable_seq: SeqNum(0),
                    checkpoint_proof: CheckpointCertificate::genesis(),
                    prepared: Vec::new(),
                    replica: ReplicaId(r),
                },
                SignerId::Replica(ReplicaId(r)),
                Signature::ZERO,
            )
        };
        let nv = NewView {
            view: View(1),
            view_changes: vec![mk_vc(0), mk_vc(1), mk_vc(2)],
            pre_prepares: Vec::new(),
        };
        assert!(nv.is_structurally_valid(1));
        assert_eq!(nv.max_checkpoint().map(|c| c.seq()), Some(SeqNum(0)));

        let short = NewView {
            view: View(1),
            view_changes: vec![mk_vc(0), mk_vc(1)],
            pre_prepares: Vec::new(),
        };
        assert!(!short.is_structurally_valid(1));

        // PrePrepare for the wrong view.
        let bad_pp = NewView {
            view: View(1),
            view_changes: vec![mk_vc(0), mk_vc(1), mk_vc(2)],
            pre_prepares: vec![signed_pre_prepare(0, 1, Digest::ZERO, 1)],
        };
        assert!(!bad_pp.is_structurally_valid(1));
    }

    #[test]
    fn consensus_message_kind_names() {
        let d = Digest::ZERO;
        let m = ConsensusMessage::Prepare(signed_prepare(0, 1, d, 1));
        assert_eq!(m.kind_name(), "Prepare");
        assert_eq!(m.signer(), SignerId::Replica(ReplicaId(1)));
    }
}
