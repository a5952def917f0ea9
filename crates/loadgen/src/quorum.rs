//! Per-request reply-quorum tracking for pipelined clients.
//!
//! The lock-step client (`splitbft_app::LockstepClient`) holds one
//! in-flight request. Pipelined load generation needs the same acceptance
//! rule — `f + 1` MAC-verified matching replies from distinct replicas —
//! but *per request*, many at a time: one [`QuorumTracker`] each. It is the
//! very type the lock-step client counts with, re-exported here because
//! every load generator reaches for it through this crate.

pub use splitbft_app::QuorumTracker;
