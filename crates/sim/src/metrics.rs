//! Throughput / latency / ecall-profile collection.

use crate::Ns;
use splitbft_types::CompartmentKind;

/// Metrics accumulated over a simulation's measurement window.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    window_start: Ns,
    window_end: Ns,
    /// Latencies (ns) of requests completed inside the window.
    latencies: Vec<Ns>,
    /// Per-compartment ecall time accumulated on the leader.
    ecall_ns: [u64; 3],
    /// Batches ordered by the leader in the window.
    pub batches: u64,
}

impl Metrics {
    /// Creates metrics for the window `[start, end)`.
    pub fn new(window_start: Ns, window_end: Ns) -> Self {
        Metrics { window_start, window_end, ..Default::default() }
    }

    /// `true` if `t` falls inside the measurement window.
    pub fn in_window(&self, t: Ns) -> bool {
        t >= self.window_start && t < self.window_end
    }

    /// Records a completed request.
    pub fn record_completion(&mut self, completed_at: Ns, latency: Ns) {
        if self.in_window(completed_at) {
            self.latencies.push(latency);
        }
    }

    /// Records `ns` of leader-side ecall time in compartment `kind`.
    pub fn record_ecall(&mut self, t: Ns, kind: CompartmentKind, ns: Ns) {
        if self.in_window(t) {
            self.ecall_ns[kind.index()] += ns;
        }
    }

    /// Completed requests in the window.
    pub fn completed(&self) -> usize {
        self.latencies.len()
    }

    /// Throughput over the window, in operations per second.
    pub fn throughput_ops(&self) -> f64 {
        let window = (self.window_end - self.window_start) as f64 / 1e9;
        self.latencies.len() as f64 / window
    }

    /// Mean latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.latencies.iter().map(|&l| l as u128).sum();
        (sum as f64 / self.latencies.len() as f64) / 1e6
    }

    /// The given percentile latency in milliseconds (`p` in `0..=100`).
    pub fn percentile_latency_ms(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx] as f64 / 1e6
    }

    /// Mean *total* ecall time attributed to each compartment per
    /// completed request on the leader — the Figure 4 bars (µs).
    pub fn ecall_profile_us_per_request(&self) -> [f64; 3] {
        self.ecall_us_per(self.latencies.len() as u64)
    }

    /// Same, per ordered batch (batched-mode Figure 4 bars, µs).
    pub fn ecall_profile_us_per_batch(&self) -> [f64; 3] {
        self.ecall_us_per(self.batches)
    }

    fn ecall_us_per(&self, n: u64) -> [f64; 3] {
        self.ecall_ns.map(|ns| ns as f64 / n.max(1) as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts_only_window_completions() {
        let mut m = Metrics::new(1_000_000_000, 2_000_000_000);
        m.record_completion(500, 100); // before window
        m.record_completion(1_500_000_000, 1_000_000);
        m.record_completion(2_500_000_000, 1_000_000); // after window
        assert_eq!(m.completed(), 1);
        assert!((m.throughput_ops() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_statistics() {
        let mut m = Metrics::new(0, 10);
        for l in [1_000_000u64, 2_000_000, 3_000_000] {
            m.record_completion(5, l);
        }
        assert!((m.mean_latency_ms() - 2.0).abs() < 1e-9);
        assert!((m.percentile_latency_ms(50.0) - 2.0).abs() < 1e-9);
        assert!((m.percentile_latency_ms(100.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ecall_profile_divides_by_completions() {
        let mut m = Metrics::new(0, 10);
        m.record_completion(1, 10);
        m.record_completion(1, 10);
        m.record_ecall(1, CompartmentKind::Execution, 600_000);
        let profile = m.ecall_profile_us_per_request();
        assert!((profile[2] - 300.0).abs() < 1e-9);
        assert_eq!(profile[0], 0.0);
    }
}
