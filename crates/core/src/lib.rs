//! SplitBFT — compartmentalized Byzantine fault tolerance with trusted
//! execution.
//!
//! This crate is the paper's primary contribution: PBFT decomposed into
//! three independently-failing compartments, each hosted in its own
//! (simulated) enclave, glued together by an untrusted broker, with
//! request/reply confidentiality end-to-end between clients and the
//! Execution compartment.
//!
//! # Architecture
//!
//! ```text
//!                       ┌──────────────── replica ────────────────┐
//!   clients ── requests │ broker (untrusted): batching, timers,   │
//!      ▲                │   network I/O, ecall/ocall queues       │
//!      │                │   │         │             │             │
//!      │                │ ┌─▼──────┐ ┌▼──────────┐ ┌▼───────────┐ │
//!      │                │ │ Prep.  │ │ Confirm.  │ │ Execution  │ │
//!      │                │ │enclave │ │ enclave   │ │ enclave    │ │
//!      └─ encrypted ────┼─┤(order) │ │(certify)  │ │(run app,   │ │
//!         replies       │ └────────┘ └───────────┘ │ checkpoint)│ │
//!                       │                          └────────────┘ │
//!                       └──────────────────────────────────────────┘
//! ```
//!
//! - [`prep::PreparationCompartment`] — ordering: `PrePrepare`/`Prepare`,
//!   view-change validation, `NewView` issuance and full re-validation.
//! - [`conf::ConfirmationCompartment`] — prepare certificates → `Commit`,
//!   `ViewChange` origination.
//! - [`exec::ExecutionCompartment`] — commit certificates → execution,
//!   encrypted replies, checkpoint generation, sealed persistence.
//! - [`replica::SplitBftReplica`] — the broker assembling the three
//!   enclave hosts, with §3.2's message duplication and fault injection
//!   hooks.
//! - [`client::SplitBftClient`] — attestation, session keys, encrypted
//!   requests, `f + 1` reply quorums.
//!
//! Quorum state transitions (P5) mean up to `f` enclaves *per
//! compartment type* may fail byzantine — on top of a fully compromised
//! environment on every replica — without endangering safety; see the
//! robustness tests and `splitbft-model`.
//!
//! # Example
//!
//! ```
//! use splitbft_app::KeyValueStore;
//! use splitbft_core::{ReplicaEvent, SplitBftReplica};
//! use splitbft_tee::{CostModel, ExecMode};
//! use splitbft_types::{ClusterConfig, ReplicaId};
//!
//! let cfg = ClusterConfig::new(4).unwrap();
//! let replica = SplitBftReplica::new(
//!     cfg,
//!     ReplicaId(0),
//!     42,
//!     KeyValueStore::new(),
//!     ExecMode::Hardware,
//!     CostModel::paper_calibrated(),
//! );
//! assert_eq!(replica.id(), ReplicaId(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod client;
pub mod conf;
pub mod ecall;
pub mod exec;
pub mod hosting;
pub mod prep;
pub mod replica;
pub mod scheme;
pub mod suffix;

pub use adapter::{Compartment, EnclaveAdapter};
pub use client::SplitBftClient;
pub use splitbft_app::ClientEvent;
pub use conf::ConfirmationCompartment;
pub use ecall::{CompartmentInput, CompartmentOutput};
pub use exec::ExecutionCompartment;
pub use prep::PreparationCompartment;
pub use replica::{CompartmentFaults, ReplicaEvent, SplitBftReplica};
pub use scheme::{compartment_measurement, enclave_signer, SPLITBFT_SCHEME};
pub use suffix::{SuffixRing, DEFAULT_SUFFIX_CAP};
