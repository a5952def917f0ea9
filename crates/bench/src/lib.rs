//! Shared infrastructure for the benchmark harness: the LOC analyzer
//! behind Table 2 and small table-printing helpers.
//!
//! Each table/figure of the paper has a dedicated binary:
//!
//! | target | regenerates |
//! |---|---|
//! | `cargo run -p splitbft-bench --bin table1` | Table 1 (fault-model comparison) |
//! | `cargo run -p splitbft-bench --bin table2` | Table 2 (TCB sizes) |
//! | `cargo run -p splitbft-bench --bin fig3 -- --mode unbatched` | Figure 3(a) |
//! | `cargo run -p splitbft-bench --bin fig3 -- --mode batched` | Figure 3(b) |
//! | `cargo run -p splitbft-bench --bin fig4` | Figure 4 (ecall latencies) |
//! | `cargo run -p splitbft-bench --bin limits` | §6 throughput upper-bound analysis |
//! | `cargo run -p splitbft-bench --bin ablations` | batch-size & checkpoint-interval sweeps |
//!
//! The `trajectory` binary is not a figure: it appends a parent/change
//! comparison of the repository benchmark to `BENCH_trajectory.json`
//! ([`trajectory`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loc;
pub mod trajectory;

/// Prints a row of cells padded to the given widths.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}", w = w))
        .collect();
    println!("| {} |", line.join(" | "));
}

/// Prints a separator row.
pub fn print_sep(widths: &[usize]) {
    let line: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", line.join("-|-"));
}
