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
//! use bytes::Bytes;
//! use splitbft_app::CounterApp;
//! use splitbft_core::SplitBftReplica;
//! use splitbft_net::transport::{Protocol, ProtocolOutput};
//! use splitbft_pbft::make_request;
//! use splitbft_tee::{CostModel, ExecMode};
//! use splitbft_types::{ClientId, ClusterConfig, ConsensusMessage, ReplicaId, Timestamp};
//!
//! let cfg = ClusterConfig::new(4).unwrap();
//! let mut primary = SplitBftReplica::new(
//!     cfg,
//!     ReplicaId(0),
//!     42,
//!     CounterApp::new(),
//!     ExecMode::Hardware,
//!     CostModel::paper_calibrated(),
//! );
//! let request = make_request(42, ClientId(0), Timestamp(1), Bytes::from_static(b"inc"));
//! let outputs = primary.on_client_requests(vec![request]);
//! // The Preparation enclave orders the batch; the broker broadcasts it.
//! assert!(outputs
//!     .iter()
//!     .any(|o| matches!(o, ProtocolOutput::Broadcast(ConsensusMessage::PrePrepare(_)))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod client;
pub mod conf;
pub mod ecall;
pub mod exec;
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
pub use replica::SplitBftReplica;
pub use scheme::{compartment_measurement, enclave_signer, SPLITBFT_SCHEME};
pub use suffix::{SuffixRing, DEFAULT_SUFFIX_CAP};
