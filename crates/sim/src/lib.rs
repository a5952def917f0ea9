//! A timing policy over `lockstep::Cluster` for the SplitBFT evaluation.
//!
//! The paper measures SplitBFT and PBFT on a 4-node SGX-enabled Azure
//! cluster with up to 150 closed-loop clients. This crate reproduces that
//! testbed in virtual time without hosting anything itself: the *real*
//! replicas (the `splitbft-core` broker + enclaves and the
//! `splitbft-pbft` replica) run on a `splitbft_net::lockstep::Cluster`
//! behind their `Protocol` adapters, and the simulator only decides
//! *when* each waiting frame arrives and what each step costs. Compute is
//! charged from the calibrated [`CostModel`](splitbft_tee::CostModel) —
//! for SplitBFT, on top of the ecall counts and boundary time the
//! enclave hosts themselves recorded — and thread contention is modeled
//! with busy-until clocks:
//!
//! - SplitBFT runs "a dedicated thread for each enclave, which performs
//!   ecalls" — three serial enclave threads per replica (or one, in the
//!   single-thread ablation);
//! - the PBFT baseline parallelizes "networking and message
//!   authentication ... but the core protocol is not" — a 4-worker
//!   authentication pool plus one serial protocol thread.
//!
//! Saturation therefore emerges from the same queueing structure as on
//! the paper's testbed: unbatched SplitBFT is bound by its Execution
//! enclave thread, batched SplitBFT by the Preparation ecall that
//! authenticates 200 client MACs per batch, and PBFT by its serial
//! protocol core.
//!
//! # Entry point
//!
//! [`experiments::run_point`] simulates one configuration (system ×
//! application × client count × batching) and returns throughput, mean
//! latency and the per-compartment ecall profile; the `splitbft-bench`
//! harness sweeps it to regenerate Figure 3 and Figure 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod experiments;
pub mod metrics;
pub mod workload;

pub use experiments::{run_point, AppKind, SimConfig, SimResult, SystemKind};

/// Virtual time in nanoseconds.
pub type Ns = u64;
