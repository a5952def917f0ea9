//! Window arithmetic: calibration-normalised throughput and latency,
//! medians over windows, and the percentile picker.

use crate::calib::CAL_REF_NS;

/// One fixed-size batch of requests, timed as a unit.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Requests that reached a verified quorum in the window.
    pub ops: u64,
    /// Time on the pump clock (`clock::pump_ns`) over the window,
    /// calibration runs included, in ns.
    pub cpu_ns: u64,
    /// Wall time of the window, calibration runs included, in ns.
    pub wall_ns: u64,
    /// CPU time spent inside the calibration kernel, in ns.
    pub calib_ns: u64,
    /// Calibration kernel runs in the window.
    pub calib_runs: u64,
    /// Issue → verified-quorum latency of every request on the pump
    /// clock, in ns.
    pub latencies_ns: Vec<u64>,
    /// The same latencies on the wall clock, in ns.
    pub wall_latencies_ns: Vec<u64>,
}

impl Window {
    /// Mean calibration kernel time in the window (`cal_w`), or the
    /// reference time when the window ran no kernel.
    pub fn cal_ns(&self) -> f64 {
        if self.calib_runs == 0 {
            CAL_REF_NS
        } else {
            self.calib_ns as f64 / self.calib_runs as f64
        }
    }

    /// CPU time minus calibration time (`busy_w`), in ns.
    pub fn busy_ns(&self) -> u64 {
        self.cpu_ns.saturating_sub(self.calib_ns)
    }

    /// Requests per second as the wall clock saw them.
    pub fn wall_throughput(&self) -> f64 {
        self.ops as f64 / (self.wall_ns.saturating_sub(self.calib_ns).max(1) as f64 / 1e9)
    }

    /// `thr_w = ops_w / busy_w × cal_w / CAL_REF_NS`: what the window
    /// would have done on a machine whose kernel takes `CAL_REF_NS`.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / (self.busy_ns().max(1) as f64 / 1e9) * self.cal_ns() / CAL_REF_NS
    }

    /// The `q`-quantile of the window's CPU-clock latencies in µs,
    /// scaled by `CAL_REF_NS / cal_w`.
    pub fn latency_us(&self, q: f64) -> f64 {
        quantile_us(&self.latencies_ns, q) * CAL_REF_NS / self.cal_ns()
    }

    /// The `q`-quantile of the window's wall-clock latencies in µs.
    pub fn wall_latency_us(&self, q: f64) -> f64 {
        quantile_us(&self.wall_latencies_ns, q)
    }
}

fn quantile_us(latencies_ns: &[u64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

/// The nearest-rank `q`-quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so spreads computed here match the
/// ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median, in percent.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2 * 100.0
    }
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, for `samples` observations.
pub fn tail_percentile(samples: usize) -> f64 {
    // (percentile, samples beyond it per 10 000), in integers so that
    // 100 samples × 10 % is exactly 10.
    [
        (0.9999, 1),
        (0.999, 10),
        (0.99, 100),
        (0.95, 500),
        (0.9, 1000),
    ]
    .into_iter()
    .find(|(_, beyond)| samples * beyond >= 10 * 10_000)
    .map_or(0.5, |(p, _)| p)
}

/// What a run's measured windows add up to.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Median over windows of the normalised throughput, 1/s.
    pub throughput_rps: f64,
    /// Median over windows of the normalised per-window p50, µs.
    pub latency_p50_us: f64,
    /// Median over windows of the normalised per-window tail, µs.
    pub latency_tail_us: f64,
    /// Which percentile `latency_tail_us` is (from the window size).
    pub tail_pct: f64,
    /// Median over windows of the wall-clock throughput (disk waits
    /// and preemption included), 1/s.
    pub wall_throughput_rps: f64,
    /// Median over windows of the wall-clock per-window p50, µs.
    pub wall_latency_p50_us: f64,
    /// Mean calibration kernel time over all windows, ns.
    pub cal_ns: f64,
    /// IQR of the normalised per-window throughputs, % of their median.
    pub window_iqr_pct: f64,
    /// Latency samples per window.
    pub samples_per_window: usize,
}

/// Folds measured windows into the reported numbers.
pub fn summarise(windows: &[Window]) -> Summary {
    let samples = windows
        .iter()
        .map(|w| w.latencies_ns.len())
        .min()
        .unwrap_or(0);
    let tail_pct = tail_percentile(samples);
    let thr: Vec<f64> = windows.iter().map(Window::throughput).collect();
    let p50: Vec<f64> = windows.iter().map(|w| w.latency_us(0.5)).collect();
    let wall_p50: Vec<f64> = windows.iter().map(|w| w.wall_latency_us(0.5)).collect();
    let tail: Vec<f64> = windows.iter().map(|w| w.latency_us(tail_pct)).collect();
    let runs: u64 = windows.iter().map(|w| w.calib_runs).sum();
    let calib: u64 = windows.iter().map(|w| w.calib_ns).sum();
    Summary {
        throughput_rps: median(&thr),
        latency_p50_us: median(&p50),
        latency_tail_us: median(&tail),
        tail_pct,
        wall_throughput_rps: median(
            &windows
                .iter()
                .map(Window::wall_throughput)
                .collect::<Vec<_>>(),
        ),
        wall_latency_p50_us: median(&wall_p50),
        cal_ns: if runs == 0 {
            CAL_REF_NS
        } else {
            calib as f64 / runs as f64
        },
        window_iqr_pct: iqr_pct(&thr),
        samples_per_window: samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window on a thread that was never descheduled: CPU = wall.
    fn window(ops: u64, cpu_ns: u64, calib_ns: u64, calib_runs: u64, lat: &[u64]) -> Window {
        Window {
            ops,
            cpu_ns,
            wall_ns: cpu_ns,
            calib_ns,
            calib_runs,
            latencies_ns: lat.to_vec(),
            wall_latencies_ns: lat.to_vec(),
        }
    }

    #[test]
    fn normalisation_divides_out_a_slow_machine() {
        // The same work on a machine running at half speed: the work
        // and the kernel both take twice as long.
        let fast = window(
            1000,
            100_000_000 + 400_000,
            400_000,
            2,
            &[50_000, 60_000, 70_000],
        );
        let slow = window(
            1000,
            200_000_000 + 800_000,
            800_000,
            2,
            &[100_000, 120_000, 140_000],
        );
        assert_eq!(fast.busy_ns(), 100_000_000);
        assert!((fast.wall_throughput() - 10_000.0).abs() < 1e-6);
        assert!((slow.wall_throughput() - 5_000.0).abs() < 1e-6);
        assert!(
            (fast.throughput() - 10_000.0).abs() < 1e-6,
            "cal == CAL_REF: unchanged"
        );
        assert!(
            (slow.throughput() - 10_000.0).abs() < 1e-6,
            "slow machine divided out"
        );
        assert_eq!(
            (fast.wall_latency_us(0.5), fast.latency_us(0.5)),
            (60.0, 60.0)
        );
        assert_eq!(
            (slow.wall_latency_us(0.5), slow.latency_us(0.5)),
            (120.0, 60.0)
        );
    }

    #[test]
    fn time_off_the_cpu_moves_only_the_wall_numbers() {
        // 100 ms of work, 50 ms of it spent waiting for the disk.
        let mut w = window(1000, 100_000_000 + 200_000, 200_000, 1, &[50_000]);
        w.wall_ns += 50_000_000;
        w.wall_latencies_ns = vec![75_000];
        assert!((w.throughput() - 10_000.0).abs() < 1e-6);
        assert!((w.wall_throughput() - 1000.0 / 0.15).abs() < 1e-6);
        assert_eq!((w.latency_us(0.5), w.wall_latency_us(0.5)), (50.0, 75.0));
    }

    #[test]
    fn window_without_kernel_runs_reports_raw_values() {
        let w = window(10, 1_000_000, 0, 0, &[1000]);
        assert_eq!(w.cal_ns(), CAL_REF_NS);
        assert!((w.throughput() - w.wall_throughput()).abs() < 1e-9);
    }

    #[test]
    fn summary_takes_the_median_window() {
        let windows: Vec<Window> = [100u64, 50, 200]
            .iter()
            .map(|&ms| window(1000, ms * 1_000_000 + 200_000, 200_000, 1, &[ms * 1000; 3]))
            .collect();
        let s = summarise(&windows);
        assert!((s.throughput_rps - 10_000.0).abs() < 1e-6);
        assert!((s.latency_p50_us - 100.0).abs() < 1e-9);
        assert_eq!(s.samples_per_window, 3);
        assert_eq!(s.tail_pct, 0.5);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile(&sorted, 0.5), 5.0);
        assert_eq!(quantile(&sorted, 0.99), 10.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            [15.0, 40.0, 120.0]
        );
        assert!((iqr_pct(&values) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(50), 0.5);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(9_999), 0.99);
        assert_eq!(tail_percentile(10_000), 0.999);
        assert_eq!(tail_percentile(100_000), 0.9999);
    }
}
