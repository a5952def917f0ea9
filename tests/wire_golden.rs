//! Golden encodings of the wire types that live outside `splitbft-types`:
//! the compartment ecall/ocall vocabulary, the hybrid protocol's messages
//! and the applications' operation and block formats.
//!
//! Each fixed value must decode back to itself, and a SHA-256 over every
//! encoding, each prefixed by its length as a `u64`, must equal a digest
//! taken before these codecs were generated from declarations. Like
//! `ENCODINGS_AT_PR16` in `crates/types/tests/wire_props.rs`, the constant
//! is never regenerated: a mismatch means bytes crossing the enclave
//! boundary, on the wire, in a sealed block or under a signature changed.

use bytes::Bytes;
use splitbft::app::{Block, KvOp};
use splitbft::core::{CompartmentInput, CompartmentOutput};
use splitbft::crypto::sha256::Sha256;
use splitbft::hybrid::{HybridCommit, HybridMessage, HybridPrepare, UsigUi};
use splitbft::types::wire::{decode, encode, Decode, Encode};
use splitbft::types::{
    ClientId, ConsensusMessage, Digest, Prepare, ReplicaId, Reply, Request, RequestBatch,
    RequestId, SeqNum, Signature, Signed, SignerId, Timestamp, View,
};
use std::fmt::Debug;

/// The digest of every encoding below, in order, taken at the commit
/// before `wire_struct!`/`wire_enum!` existed (74a2ac9).
const GOLDEN: &str = "2ccdf236b218c2f8f032406b7704287d0c11ec6fa4cecaf285c92f7c8742fd73";

struct Fold(Sha256, usize);

impl Fold {
    fn add<T: Encode + Decode + PartialEq + Debug>(&mut self, value: &T) {
        let bytes = encode(value);
        assert_eq!(&decode::<T>(&bytes).expect("own encoding decodes"), value);
        self.0.update(&(bytes.len() as u64).to_le_bytes());
        self.0.update(&bytes);
        self.1 += 1;
    }
}

fn request(client: u32, op: &'static [u8]) -> Request {
    Request {
        id: RequestId { client: ClientId(client), timestamp: Timestamp(u64::from(client) * 7) },
        op: Bytes::from_static(op),
        encrypted: client % 2 == 1,
        auth: [client as u8; 32],
    }
}

fn batch() -> RequestBatch {
    RequestBatch::new(vec![request(1, b"put k v"), request(2, b"")])
}

fn reply() -> Reply {
    Reply {
        view: View(3),
        request: RequestId { client: ClientId(4), timestamp: Timestamp(5) },
        replica: ReplicaId(2),
        result: Bytes::from_static(b"ok"),
        encrypted: true,
        auth: [0xA5; 32],
    }
}

fn prepare_message() -> ConsensusMessage {
    ConsensusMessage::Prepare(Signed::new(
        Prepare {
            view: View(1),
            seq: SeqNum(9),
            digest: Digest::from_bytes([0x11; 32]),
            replica: ReplicaId(3),
        },
        SignerId::Replica(ReplicaId(3)),
        Signature([0x22; 64]),
    ))
}

fn usig_ui(counter: u64) -> UsigUi {
    UsigUi { counter, signature: Signature([counter as u8; 64]) }
}

#[test]
fn off_crate_encodings_are_byte_identical_to_the_parent_commit() {
    let mut fold = Fold(Sha256::new(), 0);

    // Every ecall input variant.
    fold.add(&CompartmentInput::Message(prepare_message()));
    fold.add(&CompartmentInput::ClientBatch(batch().requests));
    fold.add(&CompartmentInput::ViewTimeout);
    fold.add(&CompartmentInput::InstallSessionKey {
        client: ClientId(6),
        client_dh_public: 0x0123_4567_89AB_CDEF,
        wrapped_key: vec![1, 2, 3, 250, 251],
    });
    fold.add(&CompartmentInput::ReplayCommitted { seq: SeqNum(12), batch: batch() });
    fold.add(&CompartmentInput::InstallSnapshot {
        seq: SeqNum(128),
        snapshot: Bytes::from_static(b"snapshot bytes"),
    });

    // Every ocall output variant.
    fold.add(&CompartmentOutput::Broadcast(prepare_message()));
    fold.add(&CompartmentOutput::SendReply { to: ClientId(4), reply: reply() });
    fold.add(&CompartmentOutput::Persist(Bytes::from_static(b"sealed block")));
    fold.add(&CompartmentOutput::Committed { seq: SeqNum(13), digest: Digest::from_bytes([7; 32]) });
    fold.add(&CompartmentOutput::Executed {
        seq: SeqNum(14),
        request: RequestId { client: ClientId(8), timestamp: Timestamp(9) },
    });
    fold.add(&CompartmentOutput::StableCheckpoint { seq: SeqNum(256) });
    fold.add(&CompartmentOutput::EnteredView(View(17)));
    fold.add(&CompartmentOutput::Rejected { reason: "bad certificate".into() });

    // The hybrid protocol: both messages and the pieces they carry.
    let prepare = HybridPrepare { view: View(2), batch: batch(), ui: usig_ui(41) };
    let commit = HybridCommit {
        view: View(2),
        replica: ReplicaId(1),
        primary_counter: 41,
        batch_digest: Digest::from_bytes([0x33; 32]),
        ui: usig_ui(42),
    };
    fold.add(&usig_ui(43));
    fold.add(&prepare);
    fold.add(&commit);
    fold.add(&HybridMessage::Prepare(prepare));
    fold.add(&HybridMessage::Commit(commit));

    // The applications: every KVS operation and one ledger block.
    fold.add(&KvOp::put(b"key", b"value"));
    fold.add(&KvOp::get(b"key"));
    fold.add(&KvOp::delete(b""));
    fold.add(&Block {
        height: 5,
        parent: Digest::from_bytes([0x44; 32]),
        transactions: vec![Bytes::from_static(b"tx0"), Bytes::new(), Bytes::from_static(b"tx2")],
    });

    assert_eq!(fold.1, 23);
    let digest: String = fold.0.finalize().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(digest, GOLDEN);
}
