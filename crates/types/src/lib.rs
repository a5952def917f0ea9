//! Shared types for the SplitBFT reproduction.
//!
//! This crate contains everything that the paper's Table 2 calls the
//! *shared types* portion of the TCB: identifiers, protocol messages, the
//! wire codec, and cluster configuration. It deliberately has no dependency
//! on the cryptographic or runtime crates so that every other crate in the
//! workspace (protocol cores, TEE runtime, simulator, model checker) can
//! speak the same vocabulary.
//!
//! # Overview
//!
//! - [`ids`] — strongly-typed identifiers ([`ReplicaId`], [`ClientId`],
//!   [`View`], [`SeqNum`], …) following the newtype discipline.
//! - [`digest`] — the 32-byte [`Digest`] used to bind message contents.
//! - [`wire`] — a small deterministic binary codec ([`wire::Encode`] /
//!   [`wire::Decode`]). SplitBFT compartments exchange *serialized* messages
//!   across the enclave boundary, so the codec is part of the trusted
//!   computing base and is kept free of external dependencies (the
//!   crate forbids `unsafe_code`).
//! - [`message`] — the PBFT/SplitBFT message vocabulary (`Request`,
//!   `PrePrepare`, `Prepare`, `Commit`, `Reply`, `Checkpoint`, `ViewChange`,
//!   `NewView`) plus quorum certificates.
//! - [`durable`] — the durability plane's vocabulary: WAL records
//!   ([`DurableEvent`]), sealed checkpoints ([`DurableCheckpoint`]), and
//!   the `STATE_TRANSFER` request/response pair.
//! - [`fault`] — the fault-injection control vocabulary: runtime
//!   [`FaultCommand`]s steering per-link fault rules and named
//!   partitions on the transport.
//! - [`status`] — the telemetry plane's vocabulary: versioned
//!   [`NodeSnapshot`]s, typed journal [`StatusEvent`]s, and the
//!   [`StatusRequest`]/[`StatusResponse`] pair served on the `STATUS`
//!   frame kind.
//! - [`shard`] — the sharding plane's vocabulary: [`ShardId`], the
//!   shard-tagged [`ShardEnvelope`] multiplexing N consensus groups
//!   over one transport, and the deterministic [`shard_for_key`] hash.
//! - [`compartment`] — the three compartment kinds of the paper
//!   (Preparation, Confirmation, Execution).
//! - [`config`] — cluster and batching configuration with the `3f + 1`
//!   arithmetic used throughout.
//!
//! # Example
//!
//! ```
//! use splitbft_types::{ClusterConfig, ReplicaId, View};
//!
//! let cfg = ClusterConfig::new(4).expect("4 replicas is a valid BFT cluster");
//! assert_eq!(cfg.f(), 1);
//! assert_eq!(cfg.quorum(), 3);
//! assert_eq!(View::initial().primary(&cfg), ReplicaId(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compartment;
pub mod config;
pub mod digest;
pub mod durable;
pub mod error;
pub mod fault;
pub mod ids;
pub mod message;
pub mod shard;
pub mod status;
pub mod wire;

pub use compartment::CompartmentKind;
pub use fault::{FaultCommand, LinkRule};
pub use config::{BatchConfig, ClusterConfig, TimerConfig};
pub use digest::Digest;
pub use durable::{DurableCheckpoint, DurableEvent, StateTransferRequest, StateTransferResponse};
pub use error::ProtocolError;
pub use ids::{ClientId, EnclaveId, ReplicaId, RequestId, SeqNum, SignerId, Timestamp, View};
pub use message::{
    Checkpoint, CheckpointCertificate, Commit, CommitCertificate, ConsensusMessage, NewView,
    PrePrepare, Prepare, PrepareCertificate, PublicKey, Reply, Request, RequestBatch, Signature,
    Signed, ViewChange,
};
pub use shard::{shard_for_key, ShardEnvelope, ShardId};
pub use status::{
    NodeSnapshot, StatusEvent, StatusRequest, StatusResponse, StatusVerb, SNAPSHOT_VERSION,
};
