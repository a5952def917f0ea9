//! Cluster load generation and measurement — the workspace's
//! performance plane.
//!
//! The simulator (`splitbft-sim`) predicts; this crate *measures*: it
//! drives real TCP clusters of any of the three protocol stacks (PBFT,
//! SplitBFT, MinBFT-style hybrid) with many concurrent, pipelined
//! clients and reports achieved throughput, latency percentiles and a
//! per-window throughput series as `BENCH_*.json`. Every future
//! performance PR is expected to justify itself through these reports.
//!
//! # Pieces
//!
//! - [`driver`]: closed-loop (bounded outstanding per client) and
//!   open-loop (fixed offered rate) workload drivers over
//!   `splitbft-net`'s TCP client.
//! - [`workload`]: operation generators for the counter, key-value
//!   store (keyspace / value-size / read-ratio knobs) and blockchain
//!   applications.
//! - [`QuorumTracker`]: per-request `f + 1` MAC-verified reply-quorum
//!   tracking — the acceptance rule all three protocols share, from
//!   `splitbft-app`, whose `Client` each driver thread runs.
//! - [`hist`]: allocation-light log-bucketed latency histogram and
//!   windowed throughput tracking (re-exported from `splitbft-obs`, so
//!   the node-side metrics registry shares the bucket scheme).
//! - [`report`]: the `BENCH_<name>.json` schema and writer.
//!
//! The `splitbft-node bench` subcommand is the command-line entry
//! point: it self-orchestrates a localhost cluster and feeds this
//! crate's driver.
//!
//! # Example
//!
//! ```no_run
//! use splitbft_loadgen::driver::{self, DriverConfig, LoadMode};
//! use splitbft_loadgen::workload::Workload;
//! use std::time::Duration;
//!
//! let addrs = vec!["127.0.0.1:7100".parse().unwrap()];
//! let mut config = DriverConfig::new(addrs, 42, 2);
//! config.clients = 8;
//! config.pipeline = 4;
//! config.duration = Duration::from_secs(5);
//! config.workload = Workload::paper_kvs();
//! config.mode = LoadMode::Closed;
//! let stats = driver::run(&config).unwrap();
//! println!("{} completions", stats.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
/// Latency histogram and per-window throughput series.
pub mod hist {
    pub use splitbft_obs::hist::{LatencyHistogram, Windows};
}
pub mod report;
pub mod workload;

pub use driver::{DriverConfig, LoadMode, LoadStats};
pub use hist::{LatencyHistogram, Windows};
pub use report::{BatchSummary, BenchReport, DurabilitySummary, LatencySummary};
pub use splitbft_app::QuorumTracker;
pub use workload::Workload;
