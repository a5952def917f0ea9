//! Replicated applications executed by the (Split)BFT Execution stage.
//!
//! The paper evaluates two use cases: "(i) the replication of a trusted
//! key/value store and (ii) as an ordering service for a blockchain
//! application". Both are implemented here behind the [`Application`]
//! trait, which is what the Execution compartment (and the plain-PBFT /
//! hybrid baselines) drive.
//!
//! The crate also holds the two pieces every stack wraps around an
//! application, written once: the exactly-once [`ReplyCache`] an
//! executing replica keeps (and the checkpoint-state format it travels
//! in), and the client end of the service — [`QuorumTracker`] and the
//! one sans-IO [`Client`] every runtime hosts.
//!
//! Determinism is the contract: every correct replica executes the same
//! operations in the same order and must reach bit-identical state, so
//! applications use ordered containers and canonical encodings throughout.
//!
//! # Example
//!
//! ```
//! use splitbft_app::{Application, KeyValueStore, KvOp};
//!
//! let mut kvs = KeyValueStore::new();
//! let put = KvOp::put(b"k", b"v").encode_op();
//! let get = KvOp::get(b"k").encode_op();
//! kvs.execute(&put);
//! assert_eq!(&kvs.execute(&get)[..], b"v");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockchain;
pub mod client;
pub mod counter;
pub mod kvs;
pub mod replies;

use bytes::Bytes;
use splitbft_types::wire::{Encode, Sink};
use splitbft_types::Digest;
use std::fmt;

pub use blockchain::{Block, Blockchain};
pub use client::{Client, ClientEvent, Completion, QuorumTracker};
pub use counter::CounterApp;
pub use kvs::{KeyValueStore, KvOp, KvResult};
pub use replies::{Cached, CheckpointState, ReplyCache};

/// Errors surfaced by applications (snapshot restore only; execution never
/// fails — malformed operations execute as deterministic no-ops, as the
/// paper prescribes for corrupted client operations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppError {
    /// The snapshot bytes could not be decoded.
    BadSnapshot(String),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::BadSnapshot(msg) => write!(f, "bad snapshot: {msg}"),
        }
    }
}

impl std::error::Error for AppError {}

/// A deterministic replicated state machine.
///
/// `Clone` is how checkpoints hold state: a checkpoint keeps a clone of
/// the application frozen at its sequence number
/// ([`replies::CheckpointState`]), not the snapshot's bytes. Clones must
/// therefore be cheap in memory — share immutable payloads (`Bytes`
/// values are reference-counted) rather than copy them — so a frozen
/// copy costs the containers, not the data. What it does keep alive is
/// every value the live state overwrites after the checkpoint, until a
/// newer checkpoint is stable: at most one more copy of the state.
pub trait Application: Clone + Send {
    /// Executes one operation and returns its result.
    ///
    /// Must be deterministic, and must treat malformed input as a
    /// deterministic no-op (returning an error marker) rather than
    /// panicking: in the byzantine model, clients *will* submit garbage.
    fn execute(&mut self, op: &[u8]) -> Bytes;

    /// Writes the canonical serialization of the full state to `out`:
    /// the snapshot carried by checkpoints and state transfer. Streamed,
    /// so a digest hashes the state and a seal or transfer encodes it
    /// without an intermediate copy.
    fn write_snapshot<S: Sink>(&self, out: &mut S);

    /// The canonical serialization as one buffer, allocated once at its
    /// final size ([`Application::write_snapshot`] into a `Vec`).
    fn snapshot(&self) -> Vec<u8> {
        Snapshot(self).to_wire()
    }

    /// Replaces the state from a snapshot produced by
    /// [`Application::snapshot`].
    ///
    /// # Errors
    ///
    /// [`AppError::BadSnapshot`] if the bytes are not a valid snapshot.
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), AppError>;

    /// Digest of the canonical snapshot, streamed into SHA-256.
    fn state_digest(&self) -> Digest {
        splitbft_crypto::digest_of(&Snapshot(self))
    }

    /// Blobs the hosting enclave must persist via ocall (e.g. finished
    /// blockchain blocks). Drained after every batch execution; empty for
    /// applications without a persistence stream.
    fn drain_persist(&mut self) -> Vec<Bytes> {
        Vec::new()
    }

    /// Approximate heap usage, for EPC accounting.
    fn memory_usage(&self) -> usize;
}

/// An application's snapshot as an [`Encode`] value: it writes exactly
/// the bytes of [`Application::write_snapshot`], with no length prefix.
struct Snapshot<'a, A>(&'a A);

impl<A: Application> Encode for Snapshot<'_, A> {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.0.write_snapshot(out);
    }
}

/// The deterministic result returned for a malformed operation.
pub const NOOP_RESULT: &[u8] = b"\0noop";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_digest_tracks_snapshot() {
        let mut kvs = KeyValueStore::new();
        let d0 = kvs.state_digest();
        kvs.execute(&KvOp::put(b"a", b"1").encode_op());
        let d1 = kvs.state_digest();
        assert_ne!(d0, d1);

        // Restoring the snapshot reproduces the digest.
        let snap = kvs.snapshot();
        let mut other = KeyValueStore::new();
        other.restore(&snap).unwrap();
        assert_eq!(other.state_digest(), d1);
    }

    #[test]
    fn app_error_display() {
        let e = AppError::BadSnapshot("truncated".into());
        assert!(e.to_string().contains("truncated"));
    }
}
