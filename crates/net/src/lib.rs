//! Network substrate for the SplitBFT reproduction.
//!
//! The paper's system model assumes an unreliable network that "may
//! discard, reorder, and delay messages but not indefinitely". This crate
//! provides that substrate, hosting the sans-I/O protocol state machines
//! through the [`transport::Protocol`] trait:
//!
//! - [`evented`] — the deployable socket runtime
//!   ([`evented::EventedNode`]) where every replica is its own process
//!   listening on a TCP address and messages travel as length-prefixed
//!   frames (see [`splitbft_types::wire`]): one readiness loop per node
//!   over nonblocking sockets, bounded per-peer rings with backpressure,
//!   and zero-copy frame decoding. [`client::TcpClient`] is its client;
//! - [`lockstep`] — the deterministic in-memory cluster
//!   ([`lockstep::Cluster`]): the same hosting core and the same frame
//!   classifier as the socket runtime, framed bytes through FIFOs on one
//!   thread, a virtual clock — what the examples, every socket-free
//!   cluster test and `splitbft-model`'s safety explorer run on.
//!
//! The in-memory cluster consults a [`fault::FaultPlan`] on its send
//! path — a seeded decision table for fault testing
//! (drop/delay/duplicate rules and named partitions), inert unless
//! faults are installed. The socket runtime has none.
//!
//! # `unsafe_code` policy
//!
//! The crate is `#![deny(unsafe_code)]` with exactly one scoped
//! `#[allow]`: the private `readiness` module, whose single foreign call
//! is the `ppoll(2)` the socket loop waits in. Its safety argument (one
//! live `&mut` slice supplies pointer and length, nothing else is
//! touched) is in that module's docs.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod evented;
pub mod fault;
mod host;
pub mod lockstep;
#[allow(unsafe_code)]
mod readiness;
mod ring;
pub mod status;
pub mod transport;

pub use client::TcpClient;
pub use evented::{BoundEventedNode, EventedNode};
pub use fault::{FaultDecision, FaultPlan};
pub use status::{await_event, fetch_events, fetch_snapshot, send_status_request, STATUS_CLIENT};
pub use host::{NodeConfig, PeerAddr, RecoveryPolicy};
pub use transport::{BatchPolicy, Protocol, ProtocolGauges, ProtocolOutput, WireMessage};
