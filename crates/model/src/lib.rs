//! Safety exploration for SplitBFT and its baselines.
//!
//! The paper verifies SplitBFT's safety with an Ivy proof (adapted from
//! Taube et al.'s PBFT proof). This crate is the executable counterpart:
//! a randomized schedule explorer that drives the *real* implementations
//! through adversarial deliveries — loss, reordering, duplication,
//! partitions, byzantine enclaves, and a key-forging adversary that has
//! compromised a chosen set of signing keys — while checking the safety
//! invariants after every schedule. It hosts nothing itself: replicas of
//! all three stacks run behind their `Protocol` impls on
//! `splitbft_net::lockstep::Cluster`, every message between them travels
//! as a frame through it, and the hostile environment is the cluster's
//! own fault vocabulary. The invariants:
//!
//! - **Agreement**: no two correct replicas commit different batches at
//!   the same sequence number.
//! - **Validity**: every executed batch was submitted by a client (no
//!   forged operations laundered through agreement).
//!
//! It deliberately includes *beyond-fault-model* scenarios that do break
//! safety (PBFT with `f + 1` compromised replicas; a hybrid protocol with
//! a compromised trusted counter; SplitBFT with `2f + 1` compromised
//! Confirmation enclaves) — both to demonstrate the checker actually
//! detects violations, and to regenerate the paper's Table 1 comparison
//! (`splitbft-bench --bin table1`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod byzantine;
pub mod chaos;
pub mod explorer;
pub mod invariants;
pub mod scenarios;

pub use adversary::Adversary;
pub use byzantine::{ByzantineMessage, ByzantineMode, ByzantineProtocol};
pub use explorer::{
    explore, explore_hybrid, explore_pbft, explore_splitbft, ExplorationReport, ExplorerConfig,
};
pub use invariants::{ExecutionLedger, SafetyViolation};
pub use scenarios::{run_scenario, Scenario, Verdict};
