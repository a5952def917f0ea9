//! Network substrate for the SplitBFT reproduction.
//!
//! The paper's system model assumes an unreliable network that "may
//! discard, reorder, and delay messages but not indefinitely". This crate
//! provides that substrate, hosting the sans-I/O protocol state machines
//! through the [`transport::Protocol`] trait:
//!
//! - [`link`] — a deterministic, seeded *link model* ([`link::LinkModel`])
//!   deciding per-message fate (deliver after latency / drop / reorder),
//!   used by the discrete-event simulator and by adversarial tests;
//! - [`evented`] — the deployable socket runtime
//!   ([`evented::EventedNode`]) where every replica is its own process
//!   listening on a TCP address and messages travel as length-prefixed
//!   frames (see [`splitbft_types::wire`]): one readiness loop per node
//!   over nonblocking sockets, bounded per-peer rings with backpressure,
//!   and zero-copy frame decoding. [`client::TcpClient`] is its client.
//!
//! The [`backend`] module puts the socket runtime and an in-process bus
//! ([`backend::InProcessBackend`]: one thread per replica, framed bytes
//! over channels — what the examples and socket-free tests run on) behind
//! the [`backend::TransportBackend`] trait, so one conformance suite runs
//! against both, and both run the same hosting core.
//!
//! Both backends additionally consult a shared
//! [`fault::FaultPlan`] on their send paths — a seeded, runtime-mutable
//! decision table for chaos testing (drop/delay/duplicate rules and
//! named partitions), inert unless the chaos plane installs faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod evented;
pub mod fault;
mod host;
pub mod link;
mod ring;
pub mod status;
pub mod transport;

pub use backend::{
    EventedBackend, InProcessBackend, RunningNode, TransportBackend, TransportClient,
};
pub use client::{ReplyHandler, TcpClient};
pub use evented::{BoundEventedNode, EventedNode};
pub use fault::{broadcast_fault_command, send_fault_command, FaultDecision, FaultPlan};
pub use link::{LinkFate, LinkModel, NetConfig};
pub use status::{
    await_event, fetch_events, fetch_snapshot, request_drain, send_status_request, STATUS_CLIENT,
};
pub use host::{NodeConfig, PeerAddr, RecoveryPolicy};
pub use transport::{BatchPolicy, Protocol, ProtocolGauges, ProtocolOutput, WireMessage};
