//! Practical Byzantine Fault Tolerance — the baseline protocol.
//!
//! This crate implements complete PBFT (Castro & Liskov, OSDI '99) as a
//! sans-I/O state machine: normal three-phase operation, checkpointing
//! with state transfer, the view-change sub-protocol with the `f + 1` join
//! rule, request batching, and the client-side reply-quorum logic. It is
//! the baseline the paper evaluates SplitBFT against, and it supplies the
//! building blocks ([`MessageLog`], [`CheckpointTracker`],
//! [`ViewChangeTracker`], new-view planning, deep verification) that the
//! SplitBFT compartments in `splitbft-core` reuse.
//!
//! # Architecture
//!
//! - [`replica::Replica`] — the per-replica state machine, driven
//!   through its `Protocol` impl (from `splitbft-net`): feed it messages,
//!   client requests and timer events, route the returned outputs.
//! - [`batcher::Batcher`] — size/timeout request batching (untrusted-side
//!   logic per principle P1).
//! - [`log`], [`votes`], [`checkpoint`], [`viewchange`], [`verify`] — the
//!   protocol's data structures, shared with `splitbft-core`.
//!
//! # Example
//!
//! ```
//! use splitbft_app::CounterApp;
//! use splitbft_net::transport::{Protocol, ProtocolOutput};
//! use splitbft_pbft::{Replica, make_request};
//! use splitbft_types::{ClusterConfig, ClientId, ConsensusMessage, ReplicaId, Timestamp};
//! use bytes::Bytes;
//!
//! let cfg = ClusterConfig::new(4).unwrap();
//! let mut primary = Replica::new(cfg.clone(), ReplicaId(0), 42, CounterApp::new());
//! let request = make_request(42, ClientId(0), Timestamp(1), Bytes::from_static(b"inc"));
//! let outputs = primary.on_client_requests(vec![request]);
//! // The primary broadcasts a PrePrepare for the new batch.
//! assert!(matches!(outputs[0], ProtocolOutput::Broadcast(ConsensusMessage::PrePrepare(_))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod checkpoint;
pub mod log;
pub mod replica;
pub mod verify;
pub mod viewchange;
pub mod votes;

pub use batcher::Batcher;
pub use checkpoint::CheckpointTracker;
pub use log::{MessageLog, Proposals, Slot};
pub use replica::{make_request, Replica, Status, CATCH_UP_CHUNK_SLOTS};
pub use verify::{SignerScheme, REPLICA_SCHEME};
pub use viewchange::{
    plan_new_view, validate_new_view, NewViewPlan, PendingRequests, ViewChangeTracker, ViewTimer,
};
pub use votes::VoteSet;
