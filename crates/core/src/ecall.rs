//! The typed ecall/ocall protocol between the untrusted broker and the
//! compartments.
//!
//! Everything crossing the enclave boundary is *serialized* — the paper:
//! "The broker expects the data that it needs to send over the network
//! serialized" — so inputs and outputs have canonical wire encodings, and
//! the host charges copy costs for the real byte counts. An ecall's
//! outputs leave the enclave as one ocall each, marshalled back to back
//! into the host's ocall arena (`splitbft_tee::OcallQueue`).
//!
//! `CompartmentInput::Message(m)` and `CompartmentOutput::Broadcast(m)`
//! deliberately share their encoding (`1 ‖ m`): the broker loops a
//! broadcast back into the replica's other compartments by handing them
//! the ocall's bytes as they are.

use bytes::Bytes;
use splitbft_types::wire::{Decode, Encode, Reader, Sink, WireError};
use splitbft_types::{
    ClientId, ConsensusMessage, Digest, Reply, Request, RequestBatch, RequestId, SeqNum, View,
};

/// The single ecall entry point id used by all compartments.
pub const ECALL_HANDLE: u32 = 1;
/// The single ocall id: each ocall carries one serialized
/// [`CompartmentOutput`].
pub const OCALL_OUTPUT: u32 = 1;

/// An event delivered into a compartment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompartmentInput {
    /// A protocol message routed to this compartment by the broker.
    Message(ConsensusMessage),
    /// A batch of client requests (Preparation on the primary).
    ClientBatch(Vec<Request>),
    /// The environment's view-change timer fired (Confirmation).
    ViewTimeout,
    /// A client installs its session key (Execution), wrapped under the
    /// Diffie–Hellman secret established during attestation.
    InstallSessionKey {
        /// The installing client.
        client: ClientId,
        /// The client's DH public value.
        client_dh_public: u64,
        /// The session key, sealed under the DH shared secret.
        wrapped_key: Vec<u8>,
    },
    /// Crash recovery: re-execute a batch whose commit point was WAL'd
    /// before the crash (Execution). Only applied when `seq` is exactly
    /// the next slot; no messages are emitted.
    ReplayCommitted {
        /// The committed slot.
        seq: SeqNum,
        /// The batch recorded at the commit point.
        batch: RequestBatch,
    },
    /// State transfer or recovery: replace the application state with
    /// `snapshot`, the state after `seq` (Execution). Applied only when
    /// the enclave's own stable checkpoint certificate is the one at
    /// `seq`, the enclave has executed less than `seq`, and the snapshot
    /// hashes to the certified digest; rejected otherwise.
    InstallSnapshot {
        /// The checkpoint the snapshot was taken at.
        seq: SeqNum,
        /// The checkpoint state.
        snapshot: Bytes,
    },
}

impl Encode for CompartmentInput {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        match self {
            CompartmentInput::Message(m) => {
                out.put(&[1]);
                m.encode_to(out);
            }
            CompartmentInput::ClientBatch(reqs) => {
                out.put(&[2]);
                reqs.encode_to(out);
            }
            CompartmentInput::ViewTimeout => out.put(&[3]),
            CompartmentInput::InstallSessionKey { client, client_dh_public, wrapped_key } => {
                out.put(&[4]);
                client.encode_to(out);
                client_dh_public.encode_to(out);
                // A byte string on the wire, like `Bytes`.
                (wrapped_key.len() as u32).encode_to(out);
                out.put(wrapped_key);
            }
            CompartmentInput::ReplayCommitted { seq, batch } => {
                out.put(&[5]);
                seq.encode_to(out);
                batch.encode_to(out);
            }
            CompartmentInput::InstallSnapshot { seq, snapshot } => {
                out.put(&[6]);
                seq.encode_to(out);
                snapshot.encode_to(out);
            }
        }
    }
}
impl Decode for CompartmentInput {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            1 => Ok(CompartmentInput::Message(ConsensusMessage::decode(r)?)),
            2 => Ok(CompartmentInput::ClientBatch(Vec::decode(r)?)),
            3 => Ok(CompartmentInput::ViewTimeout),
            4 => Ok(CompartmentInput::InstallSessionKey {
                client: ClientId::decode(r)?,
                client_dh_public: u64::decode(r)?,
                wrapped_key: Bytes::decode(r)?.to_vec(),
            }),
            5 => Ok(CompartmentInput::ReplayCommitted {
                seq: SeqNum::decode(r)?,
                batch: RequestBatch::decode(r)?,
            }),
            6 => Ok(CompartmentInput::InstallSnapshot {
                seq: SeqNum::decode(r)?,
                snapshot: Bytes::decode(r)?,
            }),
            tag => Err(WireError::InvalidTag { ty: "CompartmentInput", tag }),
        }
    }
}

/// An effect posted by a compartment through the ocall queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompartmentOutput {
    /// Send to every other replica (the broker handles fan-out and also
    /// loops the message back into this replica's *other* compartments).
    Broadcast(ConsensusMessage),
    /// Deliver an (authenticated, possibly encrypted) reply to a client.
    SendReply {
        /// The destination client.
        to: ClientId,
        /// The reply.
        reply: Reply,
    },
    /// Persist a sealed blob (blockchain blocks) to untrusted storage.
    Persist(Bytes),
    /// Observability: a batch committed at this slot.
    Committed {
        /// The slot.
        seq: SeqNum,
        /// The committed batch digest.
        digest: Digest,
    },
    /// Observability: a request finished executing.
    Executed {
        /// The slot.
        seq: SeqNum,
        /// The request.
        request: RequestId,
    },
    /// Observability: the checkpoint at `seq` became stable here.
    StableCheckpoint {
        /// The stable slot.
        seq: SeqNum,
    },
    /// Observability: this compartment moved to a new view.
    EnteredView(View),
    /// Observability: the input was rejected (normal under byzantine
    /// peers; surfaced for diagnostics and tests).
    Rejected {
        /// A short reason string.
        reason: String,
    },
}

impl Encode for CompartmentOutput {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        match self {
            CompartmentOutput::Broadcast(m) => {
                out.put(&[1]);
                m.encode_to(out);
            }
            CompartmentOutput::SendReply { to, reply } => {
                out.put(&[2]);
                to.encode_to(out);
                reply.encode_to(out);
            }
            CompartmentOutput::Persist(b) => {
                out.put(&[3]);
                b.encode_to(out);
            }
            CompartmentOutput::Committed { seq, digest } => {
                out.put(&[4]);
                seq.encode_to(out);
                digest.encode_to(out);
            }
            CompartmentOutput::Executed { seq, request } => {
                out.put(&[5]);
                seq.encode_to(out);
                request.encode_to(out);
            }
            CompartmentOutput::StableCheckpoint { seq } => {
                out.put(&[6]);
                seq.encode_to(out);
            }
            CompartmentOutput::EnteredView(v) => {
                out.put(&[7]);
                v.encode_to(out);
            }
            CompartmentOutput::Rejected { reason } => {
                out.put(&[8]);
                reason.encode_to(out);
            }
        }
    }
}
impl Decode for CompartmentOutput {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            1 => Ok(CompartmentOutput::Broadcast(ConsensusMessage::decode(r)?)),
            2 => Ok(CompartmentOutput::SendReply {
                to: ClientId::decode(r)?,
                reply: Reply::decode(r)?,
            }),
            3 => Ok(CompartmentOutput::Persist(Bytes::decode(r)?)),
            4 => Ok(CompartmentOutput::Committed {
                seq: SeqNum::decode(r)?,
                digest: Digest::decode(r)?,
            }),
            5 => Ok(CompartmentOutput::Executed {
                seq: SeqNum::decode(r)?,
                request: RequestId::decode(r)?,
            }),
            6 => Ok(CompartmentOutput::StableCheckpoint { seq: SeqNum::decode(r)? }),
            7 => Ok(CompartmentOutput::EnteredView(View::decode(r)?)),
            8 => Ok(CompartmentOutput::Rejected { reason: String::decode(r)? }),
            tag => Err(WireError::InvalidTag { ty: "CompartmentOutput", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::wire::{encode, roundtrip};
    use splitbft_types::{ReplicaId, Signature, Signed, SignerId, Timestamp};

    #[test]
    fn inputs_roundtrip() {
        roundtrip(&CompartmentInput::ViewTimeout);
        roundtrip(&CompartmentInput::ClientBatch(vec![]));
        roundtrip(&CompartmentInput::InstallSessionKey {
            client: ClientId(3),
            client_dh_public: 12345,
            wrapped_key: vec![1, 2, 3],
        });
        roundtrip(&CompartmentInput::ReplayCommitted {
            seq: SeqNum(7),
            batch: RequestBatch::default(),
        });
        roundtrip(&CompartmentInput::InstallSnapshot {
            seq: SeqNum(128),
            snapshot: Bytes::from_static(b"state"),
        });
        let prep = splitbft_types::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            replica: ReplicaId(1),
        };
        roundtrip(&CompartmentInput::Message(ConsensusMessage::Prepare(Signed::new(
            prep,
            SignerId::Replica(ReplicaId(1)),
            Signature::ZERO,
        ))));
    }

    #[test]
    fn a_broadcast_output_is_byte_for_byte_the_message_input() {
        // The broker relies on it: it feeds a compartment's `Broadcast`
        // ocall to the other compartments verbatim.
        let signer = SignerId::Replica(ReplicaId(2));
        let prepare = splitbft_types::Prepare {
            view: View(3),
            seq: SeqNum(9),
            digest: Digest::from_bytes([7; 32]),
            replica: ReplicaId(2),
        };
        let checkpoint = splitbft_types::Checkpoint {
            seq: SeqNum(128),
            state_digest: Digest::from_bytes([8; 32]),
            replica: ReplicaId(2),
            snapshot: Bytes::from_static(b"snapshot"),
        };
        let pre_prepare = splitbft_types::PrePrepare {
            view: View(3),
            seq: SeqNum(9),
            digest: Digest::from_bytes([7; 32]),
            batch: RequestBatch::default(),
        };
        for msg in [
            ConsensusMessage::Prepare(Signed::new(prepare, signer, Signature::ZERO)),
            ConsensusMessage::Checkpoint(Signed::new(checkpoint, signer, Signature::ZERO)),
            ConsensusMessage::PrePrepare(Signed::new(pre_prepare, signer, Signature::ZERO)),
        ] {
            assert_eq!(
                encode(&CompartmentOutput::Broadcast(msg.clone())),
                encode(&CompartmentInput::Message(msg)),
            );
        }
    }

    #[test]
    fn session_key_bytes_keep_their_length_prefixed_encoding() {
        let input = CompartmentInput::InstallSessionKey {
            client: ClientId(3),
            client_dh_public: 5,
            wrapped_key: vec![0xAA, 0xBB],
        };
        let mut expected = vec![4, 3, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0];
        expected.extend_from_slice(&[2, 0, 0, 0, 0xAA, 0xBB]);
        assert_eq!(encode(&input), expected);
    }

    #[test]
    fn outputs_roundtrip() {
        roundtrip(&CompartmentOutput::Persist(Bytes::from_static(b"block")));
        roundtrip(&CompartmentOutput::Committed { seq: SeqNum(4), digest: Digest::ZERO });
        roundtrip(&CompartmentOutput::Executed {
            seq: SeqNum(4),
            request: RequestId { client: ClientId(0), timestamp: Timestamp(9) },
        });
        roundtrip(&CompartmentOutput::StableCheckpoint { seq: SeqNum(128) });
        roundtrip(&CompartmentOutput::EnteredView(View(2)));
        roundtrip(&CompartmentOutput::Rejected { reason: "bad signature".into() });
    }
}
