//! Calibrated single-thread pump benchmark for the SplitBFT workspace.
//!
//! See `README.md` for what is measured and why; `BENCHMARK.json` at
//! the repository root names the command, workloads and metrics.

#![warn(missing_docs)]

pub mod alloc;
pub mod calib;
pub mod clock;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod pump;
pub mod report;
pub mod sock;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;
