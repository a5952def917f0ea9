//! The calibration kernel: a fixed amount of CPU work whose duration
//! tracks how fast this machine is *right now*.
//!
//! On a shared VM the same code runs 10–40 % faster or slower from one
//! second to the next (host frequency, neighbours, steal). The pump
//! interleaves this kernel with the measured work on the same thread
//! and divides it out, window by window (see `stats::Window`).

use crate::clock::thread_cpu_ns;
use std::hint::black_box;

/// The kernel time every normalised number is scaled to, in ns. A
/// machine on which [`calib`] takes exactly this long reports raw and
/// normalised values that are equal.
pub const CAL_REF_NS: f64 = 200_000.0;

const TABLE_WORDS: usize = 8192; // 64 KiB: spills L1, stays in L2
const STEPS: u32 = 100_000;

/// The lookup table and generator state of the kernel.
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Builds the 64 KiB table (contents are fixed, not seeded: the
    /// kernel must do identical work in every process).
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Calibrator {
            table,
            state: 0x2545_f491_4f6c_dd1d,
        }
    }

    /// Runs the kernel once and returns the CPU time it took, in ns.
    pub fn run(&mut self) -> u64 {
        let start = thread_cpu_ns();
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x = xorshift(x);
            acc = acc.wrapping_add(self.table[(x as usize) & (TABLE_WORDS - 1)]);
        }
        self.state = black_box(x ^ acc) | 1;
        thread_cpu_ns() - start
    }
}

#[inline]
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
