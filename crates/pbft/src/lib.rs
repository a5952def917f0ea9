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
//! - [`replica::Replica`] — the per-replica state machine; feed it
//!   messages and timer events, interpret the returned
//!   [`action::Action`]s.
//! - [`LockstepClient`] (from `splitbft-app`, shared by all three stacks)
//!   — issues authenticated requests and collects `f + 1` matching
//!   replies.
//! - [`batcher::Batcher`] — size/timeout request batching (untrusted-side
//!   logic per principle P1).
//! - [`log`], [`votes`], [`checkpoint`], [`viewchange`], [`verify`] — the
//!   protocol's data structures, shared with `splitbft-core`.
//!
//! # Example
//!
//! ```
//! use splitbft_app::CounterApp;
//! use splitbft_pbft::{Action, Replica, make_request};
//! use splitbft_types::{ClusterConfig, ClientId, ReplicaId, Timestamp};
//! use bytes::Bytes;
//!
//! let cfg = ClusterConfig::new(4).unwrap();
//! let mut primary = Replica::new(cfg.clone(), ReplicaId(0), 42, CounterApp::new());
//! let request = make_request(42, ClientId(0), Timestamp(1), Bytes::from_static(b"inc"));
//! let actions = primary.on_client_batch(vec![request]);
//! // The primary broadcasts a PrePrepare for the new batch.
//! assert!(matches!(actions[0], Action::Broadcast { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod batcher;
pub mod checkpoint;
pub mod hosting;
pub mod log;
pub mod replica;
pub mod verify;
pub mod viewchange;
pub mod votes;

pub use action::{outbound, Action};
pub use batcher::Batcher;
pub use checkpoint::CheckpointTracker;
pub use log::{MessageLog, Proposals, Slot};
pub use replica::{make_request, Replica, Status, CATCH_UP_CHUNK_SLOTS};
pub use splitbft_app::{ClientEvent, LockstepClient};
pub use verify::{SignerScheme, REPLICA_SCHEME};
pub use viewchange::{
    plan_new_view, validate_new_view, NewViewPlan, PendingRequests, ViewChangeTracker, ViewTimer,
};
pub use votes::VoteSet;
