//! # SplitBFT
//!
//! A from-scratch Rust reproduction of *SplitBFT: Improving Byzantine
//! Fault Tolerance Safety Using Trusted Compartments* (Messadi, Becker,
//! Bleeke, Jehl, Ben Mokhtar, Kapitza — MIDDLEWARE 2022).
//!
//! SplitBFT splits PBFT's core logic into three compartments —
//! Preparation, Confirmation, Execution — each hosted in its own trusted
//! enclave on every replica, so that safety survives an attacker on the
//! environment of *all n* machines plus up to `f` byzantine enclaves per
//! compartment type, and client operations stay confidential end-to-end.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `splitbft-types` | ids, messages, wire codec, configuration |
//! | [`crypto`] | `splitbft-crypto` | SHA-256, HMAC, signatures, AEAD, keys |
//! | [`tee`] | `splitbft-tee` | simulated SGX: enclaves, sealing, attestation, cost model |
//! | [`net`] | `splitbft-net` | the `Protocol` trait, its TCP runtime and its in-memory lockstep cluster |
//! | [`app`] | `splitbft-app` | key-value store and blockchain applications |
//! | [`pbft`] | `splitbft-pbft` | the complete PBFT baseline |
//! | [`hybrid`] | `splitbft-hybrid` | MinBFT-style trusted-counter baseline |
//! | [`core`] | `splitbft-core` | **SplitBFT itself**: compartments, broker, client |
//! | [`sim`] | `splitbft-sim` | Figures 3 & 4: a timing policy over the lockstep cluster |
//! | [`model`] | `splitbft-model` | safety explorer and fault-model scenarios |
//!
//! # Quickstart
//!
//! ```
//! use splitbft::prelude::*;
//!
//! // A 4-replica SplitBFT cluster replicating a key-value store.
//! let config = ClusterConfig::new(4).unwrap();
//! let replica = SplitBftReplica::new(
//!     config,
//!     ReplicaId(0),
//!     42,
//!     KeyValueStore::new(),
//!     ExecMode::Hardware,
//!     CostModel::paper_calibrated(),
//! );
//! assert_eq!(replica.id(), ReplicaId(0));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use splitbft_app as app;
pub use splitbft_core as core;
pub use splitbft_crypto as crypto;
pub use splitbft_hybrid as hybrid;
pub use splitbft_model as model;
pub use splitbft_net as net;
pub use splitbft_pbft as pbft;
pub use splitbft_sim as sim;
pub use splitbft_tee as tee;
pub use splitbft_types as types;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use splitbft_app::{
        Application, Blockchain, ClientEvent, CounterApp, KeyValueStore, KvOp, LockstepClient,
    };
    pub use splitbft_core::{ReplicaEvent, SplitBftClient, SplitBftReplica};
    pub use splitbft_hybrid::{HybridConfig, HybridReplica, Usig};
    pub use splitbft_net::lockstep::Cluster;
    pub use splitbft_net::{
        BatchPolicy, EventedNode, NodeConfig, PeerAddr, Protocol, ProtocolOutput, TcpClient,
    };
    pub use splitbft_pbft::{make_request, Replica as PbftReplica};
    pub use splitbft_tee::{CostModel, ExecMode, FaultKind, FaultPlan, PlatformAuthority};
    pub use splitbft_types::{
        ClientId, ClusterConfig, CompartmentKind, ReplicaId, SeqNum, Timestamp, View,
    };
}
