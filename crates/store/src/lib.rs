//! The durability plane: durable replica state, sealed checkpoints, and
//! crash recovery for every protocol in the workspace.
//!
//! The paper's replicas persist compartment secrets and checkpoints
//! through TEE sealing so a compromised-then-restarted cloud node can
//! recover without trusting its host (§4). This crate is that plane for
//! the deployed socket clusters:
//!
//! - [`wal`] — an append-only write-ahead log with per-record CRC-32
//!   checksums and torn-tail truncation on recovery. Consensus events
//!   ([`splitbft_types::DurableEvent`]) are fsynced *before* the
//!   outputs they justify reach the network.
//! - [`sealed`] — checkpoint snapshots serialized with the wire codec
//!   and sealed with [`splitbft_tee::seal`] under the replica's
//!   measurement; they bound WAL growth (the log is GC'd past each
//!   sealed stable checkpoint) and corrupt files degrade to typed
//!   errors, never panics.
//! - [`durable`] — [`DurableProtocol`], the wrapper that adds all of
//!   the above to any [`splitbft_net::transport::Protocol`], plus
//!   [`DurableProtocol::recover`], the restart path.
//!
//! What local state cannot cover — everything after the crash — is
//! fetched from `f + 1` agreeing peers by the `STATE_TRANSFER` client
//! built into `splitbft-net`'s TCP runtime; this crate's job is to make
//! the local prefix cheap and the trusted-counter state (the hybrid's
//! USIG) survive, which no peer can supply.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod durable;
pub mod sealed;
pub mod wal;

pub use durable::{DurableProtocol, RecoveryReport};
pub use sealed::{replica_sealing_identity, CheckpointStore};
pub use wal::Wal;
