//! The durable-state vocabulary of the durability plane.
//!
//! The paper's compartmentalized replicas survive host restarts by
//! persisting their per-compartment secrets and checkpoints through TEE
//! sealing (§4 "Enclave recovery"). This module defines the
//! protocol-agnostic records that the `splitbft-store` crate writes to a
//! replica's write-ahead log and sealed checkpoint files, and the
//! `STATE_TRANSFER` request/response pair a restarted or lagging replica
//! exchanges with its peers over the socket transport.
//!
//! Everything here is wire-encodable with the canonical codec
//! ([`crate::wire`]): WAL records and sealed blobs are byte-for-byte
//! deterministic, and the state-transfer messages travel in their own
//! frame kinds next to the regular protocol traffic.
//!
//! # Example: the WAL's record vocabulary
//!
//! A [`DurableEvent`] encodes canonically and decodes from untrusted
//! bytes — the payload each `splitbft-store` WAL record carries:
//!
//! ```
//! use splitbft_types::wire::{decode, encode};
//! use splitbft_types::{DurableEvent, SeqNum, View};
//!
//! let event = DurableEvent::EnteredView { view: View(3) };
//! let bytes = encode(&event);
//! assert_eq!(decode::<DurableEvent>(&bytes).unwrap(), event);
//!
//! // Canonical: re-encoding the decoded value is byte-identical, so
//! // WAL records (and their CRCs) are deterministic across replicas.
//! assert_eq!(encode(&decode::<DurableEvent>(&bytes).unwrap()), bytes);
//!
//! // Garbage never panics — it is a decode error, handled by replay.
//! assert!(decode::<DurableEvent>(&[0xFF, 0x01, 0x02]).is_err());
//!
//! // The checkpoint GC marker bounds the log: records at or below a
//! // stable checkpoint are dropped once it is sealed.
//! let marker = DurableEvent::StableCheckpoint { seq: SeqNum(128) };
//! assert!(matches!(
//!     decode::<DurableEvent>(&encode(&marker)).unwrap(),
//!     DurableEvent::StableCheckpoint { seq: SeqNum(128) },
//! ));
//! ```

use crate::digest::Digest;
use crate::ids::{ReplicaId, SeqNum, View};
use crate::message::RequestBatch;
use bytes::Bytes;

/// A consensus event that must be durable *before* the replica acts on
/// it (sends messages or replies derived from it).
///
/// Each protocol core buffers these as it processes inputs; the hosting
/// runtime drains and appends them to the write-ahead log — with an
/// fsync — before the corresponding outputs reach the network. On
/// restart the events are replayed into a fresh state machine in log
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableEvent {
    /// A proposal was accepted at `(view, seq)`. Replay restores the
    /// high-water mark of assigned sequence numbers so a restarted
    /// primary never reuses a slot it already proposed.
    Accepted {
        /// View of the accepted proposal.
        view: View,
        /// Slot of the accepted proposal.
        seq: SeqNum,
        /// Digest of the accepted batch.
        digest: Digest,
    },
    /// The batch at `seq` reached its commit point and was executed.
    /// Replay re-executes the batch against the application, restoring
    /// app state and the per-client reply cache beyond the last sealed
    /// checkpoint.
    Committed {
        /// The executed slot.
        seq: SeqNum,
        /// The full batch, so replay needs no peer contact.
        batch: RequestBatch,
    },
    /// The replica entered `view`. Replay restores the view so a
    /// restarted replica speaks the cluster's current dialect.
    EnteredView {
        /// The entered view.
        view: View,
    },
    /// A trusted monotonic counter issued `counter` (the hybrid
    /// protocol's USIG). Replay advances the restored counter past every
    /// value ever issued, so a restarted replica cannot equivocate by
    /// re-issuing a used counter value.
    CounterIssued {
        /// The issued counter value.
        counter: u64,
    },
    /// The checkpoint at `seq` became stable. This is the WAL
    /// garbage-collection point: once the matching sealed checkpoint is
    /// on disk, records at or below `seq` are dropped from the log.
    StableCheckpoint {
        /// The stable slot.
        seq: SeqNum,
    },
    /// The consensus group this WAL belongs to in a sharded deployment.
    /// Written once near the head of each per-shard log so a recovered
    /// directory self-identifies: replaying shard 1's log into shard 0's
    /// state machine is detected instead of silently corrupting state.
    ShardTag {
        /// The owning shard.
        shard: crate::shard::ShardId,
    },
}

crate::wire_enum!(DurableEvent {
    1 => Accepted { view, seq, digest },
    2 => Committed { seq, batch },
    3 => EnteredView { view },
    4 => CounterIssued { counter },
    5 => StableCheckpoint { seq },
    6 => ShardTag { shard },
});

/// A protocol's durable state at a stable checkpoint: the unit that is
/// sealed to disk locally and offered to lagging peers over
/// `STATE_TRANSFER`.
///
/// `state` is protocol-defined and opaque at this layer:
///
/// - the PBFT baseline and the SplitBFT broker encode their stable
///   [`crate::message::CheckpointCertificate`] (`2f + 1` signed
///   `Checkpoint` votes for the state digest) followed by the snapshot
///   that hashes to it, once;
/// - the hybrid encodes its application snapshot plus the
///   replica-independent core of its reply cache.
///
/// `digest` binds the checkpointed *content* in a replica-independent
/// way (for certificates, the certified state digest — not a hash of
/// the bytes, which differ per holder by signer subset). A recovering
/// replica accepts a peer checkpoint only when `f + 1` peers agree on
/// `(seq, digest)`, so at least one correct replica vouches for it; the
/// protocol re-validates internally on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableCheckpoint {
    /// The sequence number (or hybrid counter value) the state covers.
    pub seq: SeqNum,
    /// Replica-independent digest of the checkpointed content.
    pub digest: Digest,
    /// The protocol-defined state bytes.
    pub state: Bytes,
}

crate::wire_struct!(DurableCheckpoint { seq, digest, state });

/// A recovering (or lagging) replica's request for peer state.
///
/// Travels in its own frame kind (`STATE_REQUEST` in `splitbft-net`) so
/// it needs no slot in any protocol's message enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateTransferRequest {
    /// The requesting replica (responses are addressed back to it).
    pub replica: ReplicaId,
    /// The requester's current progress; peers may skip the checkpoint
    /// if it would not advance the requester.
    pub have_seq: SeqNum,
}

crate::wire_struct!(StateTransferRequest { replica, have_seq });

/// A peer's answer to a [`StateTransferRequest`]: its latest stable
/// checkpoint plus the log suffix above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateTransferResponse {
    /// The responding replica.
    pub replica: ReplicaId,
    /// The responder's stable checkpoint (`None` while still at
    /// genesis).
    pub checkpoint: Option<DurableCheckpoint>,
    /// Encoded `Vec<M>` of protocol messages (`M` = the protocol's wire
    /// vocabulary) that let the requester catch up from the checkpoint
    /// through its normal message handlers — re-verified like any other
    /// network input. Opaque at this layer because each protocol speaks
    /// its own `M`.
    pub suffix: Bytes,
}

crate::wire_struct!(StateTransferResponse { replica, checkpoint, suffix });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, RequestId, Timestamp};
    use crate::message::Request;
    use crate::wire::{decode, roundtrip};

    fn batch() -> RequestBatch {
        RequestBatch::single(Request {
            id: RequestId { client: ClientId(1), timestamp: Timestamp(7) },
            op: Bytes::from_static(b"inc"),
            encrypted: false,
            auth: [3u8; 32],
        })
    }

    #[test]
    fn durable_events_roundtrip() {
        roundtrip(&DurableEvent::Accepted {
            view: View(2),
            seq: SeqNum(9),
            digest: Digest::from_bytes([5u8; 32]),
        });
        roundtrip(&DurableEvent::Committed { seq: SeqNum(9), batch: batch() });
        roundtrip(&DurableEvent::EnteredView { view: View(3) });
        roundtrip(&DurableEvent::CounterIssued { counter: 42 });
        roundtrip(&DurableEvent::StableCheckpoint { seq: SeqNum(128) });
        roundtrip(&DurableEvent::ShardTag { shard: crate::shard::ShardId(3) });
    }

    #[test]
    fn checkpoint_and_transfer_messages_roundtrip() {
        let cp = DurableCheckpoint {
            seq: SeqNum(128),
            digest: Digest::from_bytes([9u8; 32]),
            state: Bytes::from_static(b"certified state"),
        };
        roundtrip(&cp);
        roundtrip(&StateTransferRequest { replica: ReplicaId(2), have_seq: SeqNum(64) });
        roundtrip(&StateTransferResponse {
            replica: ReplicaId(1),
            checkpoint: Some(cp),
            suffix: Bytes::from_static(b"encoded messages"),
        });
        roundtrip(&StateTransferResponse {
            replica: ReplicaId(0),
            checkpoint: None,
            suffix: Bytes::new(),
        });
    }

    #[test]
    fn garbage_event_tag_rejected() {
        assert!(decode::<DurableEvent>(&[99]).is_err());
        assert!(decode::<DurableEvent>(&[]).is_err());
    }
}
