//! Runs the direct probes of `sut::probes` and reports ns (or µs) per
//! call: the median of several timed batches, on the CPU clock and
//! scaled by the calibration kernel like every other time — except
//! the probes marked `wall`, which measure the disk and are reported
//! as the wall clock saw them.

use crate::calib::{Calibrator, CAL_REF_NS};
use crate::clock::thread_cpu_ns;
use crate::stats::median;
use crate::sut::Probe;
use std::time::Instant;

const BATCHES: usize = 7;

/// `(metric, value in the metric's unit)` per probe.
pub fn run(probes: Vec<Probe>, calibrator: &mut Calibrator) -> Vec<(&'static str, f64)> {
    probes
        .into_iter()
        .map(|mut probe| {
            let mut per_call = Vec::with_capacity(BATCHES);
            for _ in 0..BATCHES {
                let cal = calibrator.run() as f64;
                let (wall, cpu) = (Instant::now(), thread_cpu_ns());
                for _ in 0..probe.iters {
                    (probe.op)();
                }
                let ns = if probe.wall {
                    wall.elapsed().as_nanos() as f64
                } else {
                    (thread_cpu_ns() - cpu) as f64 * CAL_REF_NS / cal
                };
                per_call.push(ns / f64::from(probe.iters));
            }
            (probe.metric, median(&per_call) / probe.ns_per_unit)
        })
        .collect()
}
