//! A MinBFT-style *hybrid* BFT protocol: `2f + 1` replicas, each with a
//! trusted monotonic counter.
//!
//! This is the second baseline in the paper's Table 1. Hybrid protocols
//! (MinBFT, CheapBFT, Hybster) put a minimal trusted subsystem — a
//! counter that signs *unique sequential identifiers* (USIG) — inside a
//! TEE to prevent equivocation: a replica cannot send two different
//! messages with the same counter value, so agreement needs only
//! `2f + 1` replicas and two phases.
//!
//! The flip side, and SplitBFT's motivation, is the hybrid fault model's
//! brittleness: the trusted subsystem is assumed to fail *only by
//! crashing*. If an attacker compromises the USIG enclave itself (the
//! paper: "a single byzantine fault, e.g., a bug or successful attack
//! breaching the trusted subsystem, puts safety at risk"), equivocation
//! returns and safety collapses with it. The fault-model experiments in
//! `splitbft-bench` demonstrate exactly that with a
//! [`usig::FaultyUsig`].
//!
//! # Scope
//!
//! Normal-case operation (request → Prepare → Commit → execute → reply)
//! is implemented in full, including USIG verification with gap-free
//! counter tracking. The MinBFT view change is out of scope — the
//! Table 1 experiments need the safety behaviour under TEE compromise,
//! which is a normal-case property; liveness rows are taken from the
//! protocol definitions (see `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod hosting;
pub mod message;
pub mod replica;
pub mod usig;

pub use config::HybridConfig;
pub use message::{HybridMessage, HybridPrepare, HybridCommit};
pub use replica::{HybridAction, HybridReplica};
pub use splitbft_app::{ClientEvent, LockstepClient};
pub use usig::{FaultyUsig, Usig, UsigError, UsigTrait, UsigUi, UsigVerifier};
