//! The `split-sock` workload: the shipped `splitbft-node bench` CLI
//! over loopback sockets, read through its `splitbft-bench/v1` report.
//!
//! This is the deployed path — `net::evented`, `net::host`, rings,
//! syscalls, four node threads and a client on two cores — which the
//! pump bypasses. The benchmark calls no crate here: the CLI flags and
//! the report fields listed in README.md are the contract.

use crate::calib::{Calibrator, CAL_REF_NS};
use crate::json::{self, Value};
use crate::stats::median;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The repository root (the parent of `benchmark/`).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

/// Where cargo puts the root workspace's artifacts: `CARGO_TARGET_DIR`
/// (relative to the invoking directory, as cargo reads it) or the
/// root's own `target/`.
fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if Path::new(&dir).is_absolute() => PathBuf::from(dir),
        Some(dir) => std::env::current_dir()
            .unwrap_or_else(|_| repo_root())
            .join(dir),
        None => repo_root().join("target"),
    }
}

/// Builds the `splitbft-node` release binary (cargo decides what is
/// stale; a fresh build is a ≈ 0.3 s check) and returns its path.
///
/// # Errors
///
/// If cargo cannot build it.
pub fn ensure_node() -> Result<PathBuf, String> {
    let target = target_dir();
    let binary = target.join("release").join("splitbft-node");
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "splitbft-node",
        ])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() || !binary.exists() {
        return Err(format!("building splitbft-node failed ({status})"));
    }
    Ok(binary)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
/// of which the first is `ru_maxrss` in KB.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
}

/// How one child ended and what it used.
struct Exit {
    /// It exited with code 0.
    success: bool,
    /// The raw wait status, for the error message.
    status: i32,
    /// User + system CPU time of the child, s.
    cpu_s: f64,
    /// Peak RSS of the child alone, MB. (`RUSAGE_CHILDREN` would give
    /// the maximum over every child waited for so far, which here is
    /// the `cargo build` or `rustc --version` run before it.) The
    /// kernel carries the spawning process's peak across `exec`, so
    /// this is at least the benchmark's own ≈ 2 MB, far below a node's.
    peak_rss_mb: f64,
}

/// Waits for `child` with `wait4`, which is the one call that returns
/// the resource usage of that child only.
fn wait_with_usage(child: std::process::Child) -> std::io::Result<Exit> {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    let mut status = 0i32;
    loop {
        // SAFETY: `status` and `usage` are valid, exclusively borrowed
        // buffers of the size and layout `wait4` writes on 64-bit
        // Linux; `child` has not been waited for, so its pid still
        // names it.
        let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if rc >= 0 {
            break;
        }
        let error = std::io::Error::last_os_error();
        if error.kind() != std::io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    // The child is reaped: dropping `child` neither waits nor kills.
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(Exit {
        // WIFEXITED && WEXITSTATUS == 0
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        status,
        cpu_s: secs(usage.utime) + secs(usage.stime),
        peak_rss_mb: usage.longs[0] as f64 / 1024.0,
    })
}

/// What one socket run measured.
#[derive(Debug, Clone, Default)]
pub struct SockReport {
    /// Median 1 s window, first and trailing partial dropped,
    /// normalised, 1/s.
    pub throughput_rps: f64,
    /// The same median before normalisation.
    pub wall_throughput_rps: f64,
    /// Client-observed p50, normalised, µs.
    pub latency_p50_us: f64,
    /// Client-observed p50 as reported, µs.
    pub wall_latency_p50_us: f64,
    /// Client-observed p99, normalised, µs.
    pub latency_p99_us: f64,
    /// `metrics.bytes_out / completed`.
    pub bytes_out_per_req: f64,
    /// `metrics.bytes_in / completed`.
    pub bytes_in_per_req: f64,
    /// Median over the short launches of the `splitbft-node bench`
    /// process's peak RSS, MB: a four-replica cluster that has served
    /// ≈ 1 500 requests. (The long launch's peak grows with every
    /// request it completes, so it would follow the machine's speed and
    /// rise with any throughput gain.)
    pub peak_rss_mb: f64,
    /// Peak RSS of the long launch, MB.
    pub peak_rss_loaded_mb: f64,
    /// Median over the short launches of child wall time minus the
    /// measured duration: cluster start, connect, counter probes,
    /// shutdown.
    pub setup_s: f64,
    /// Child CPU time per completed request, µs.
    pub cpu_us_per_req: f64,
    /// Mean calibration kernel time (thread CPU clock), ns.
    pub cal_ns: f64,
    /// `requests.issued`.
    pub attempted: u64,
    /// Issued requests that timed out or were never committed.
    pub failed: u64,
    /// `metrics.ring_refusals`.
    pub ring_refusals: f64,
    /// `metrics.queue_depth_high_water`.
    pub queue_depth_high_water: f64,
    /// `metrics.reconnects`.
    pub reconnects: f64,
    /// Oracle violations; empty when correct.
    pub violations: Vec<String>,
}

struct Launch {
    report: Value,
    /// Spawn → child reaped, s.
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    cal_ns: f64,
}

/// Runs `splitbft-node bench` once for `duration`, with a low-duty
/// calibrator thread beside it.
fn launch(node: &Path, seed: u64, duration: Duration, out: &Path) -> Result<Launch, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let stop = AtomicBool::new(false);
    let (exit, cal_ns) = std::thread::scope(|scope| {
        // One kernel run every 20 ms (≈ 1 % of one core), timed on the
        // thread's CPU clock so that being descheduled by the five busy
        // threads next to it does not read as a slow machine.
        let calibrator = scope.spawn(|| {
            let mut calibrator = Calibrator::new();
            let mut samples = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                samples.push(calibrator.run() as f64);
                std::thread::sleep(Duration::from_millis(20));
            }
            samples.iter().sum::<f64>() / samples.len() as f64
        });
        let started = Instant::now();
        let exit = Command::new(node)
            .args(["bench", "--protocol", "splitbft", "--transport", "evented"])
            .args(["--clients", "1", "--pipeline", "16", "--name", "sock"])
            .args(["--seed", &seed.to_string()])
            .args(["--duration", &format!("{}ms", duration.as_millis())])
            .arg("--out")
            .arg(out)
            .stdout(Stdio::null())
            .spawn()
            .and_then(wait_with_usage)
            // Read the clock before joining the calibrator, whose 20 ms
            // sleep would otherwise round every launch up to its tick.
            .map(|exit| (exit, started.elapsed().as_secs_f64()));
        stop.store(true, Ordering::SeqCst);
        (exit, calibrator.join().expect("calibrator thread panicked"))
    });
    let (exit, wall_s) = exit.map_err(|e| format!("running {}: {e}", node.display()))?;
    if !exit.success {
        return Err(format!(
            "splitbft-node bench ended with wait status {:#x}",
            exit.status
        ));
    }
    let path = out.join("BENCH_sock.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let report = json::parse(&text)?;
    if report.get("schema").and_then(Value::str) != Some("splitbft-bench/v1") {
        return Err(format!(
            "{} is not a splitbft-bench/v1 report",
            path.display()
        ));
    }
    Ok(Launch {
        report,
        wall_s,
        cpu_s: exit.cpu_s,
        peak_rss_mb: exit.peak_rss_mb,
        cal_ns,
    })
}

fn field(report: &Value, path: &str) -> Result<f64, String> {
    report
        .path(path)
        .and_then(Value::num)
        .ok_or_else(|| format!("report has no number at {path}"))
}

/// Runs the socket workload: `setups` short launches for the set-up
/// time, then one launch of `duration`.
///
/// # Errors
///
/// If the binary cannot be run or its report cannot be read. Oracle
/// violations are reported in the result.
pub fn run(
    node: &Path,
    seed: u64,
    duration: Duration,
    setups: usize,
    scratch: &Path,
) -> Result<SockReport, String> {
    const SHORT: Duration = Duration::from_millis(100);
    let (mut setup_times, mut setup_peaks) = (Vec::new(), Vec::new());
    for i in 0..setups.max(1) {
        let short = launch(node, seed, SHORT, &scratch.join(format!("setup-{i}")))?;
        setup_times.push(short.wall_s - SHORT.as_secs_f64());
        setup_peaks.push(short.peak_rss_mb);
    }
    let main = launch(node, seed, duration, &scratch.join("main"))?;
    let r = &main.report;

    let windows: Vec<f64> = r
        .get("windows")
        .and_then(Value::arr)
        .ok_or("report has no windows")?
        .iter()
        .filter_map(|w| w.get("rps").and_then(Value::num))
        .collect();
    // The first window holds the ramp-up and the last one is the
    // partial window after the deadline.
    let full = if windows.len() > 2 {
        &windows[1..windows.len() - 1]
    } else {
        &windows[..]
    };
    let wall_throughput_rps = median(full);
    let scale = main.cal_ns / CAL_REF_NS;

    let issued = field(r, "requests.issued")? as u64;
    let completed = field(r, "requests.completed")? as u64;
    let timed_out = field(r, "requests.timed_out")? as u64;
    let mut violations = Vec::new();
    if completed + timed_out != issued {
        violations.push(format!(
            "{issued} issued ≠ {completed} completed + {timed_out} timed out"
        ));
    }
    // Counter workloads: the CLI reads the counter before and after.
    match r.get("committed").and_then(Value::num) {
        Some(committed) if committed as u64 == completed => {}
        other => violations.push(format!("committed {other:?} ≠ completed {completed}")),
    }
    let per_req = |path: &str| field(r, path).map(|v| v / completed.max(1) as f64);
    Ok(SockReport {
        throughput_rps: wall_throughput_rps * scale,
        wall_throughput_rps,
        latency_p50_us: field(r, "latency_us.p50")? / scale,
        wall_latency_p50_us: field(r, "latency_us.p50")?,
        latency_p99_us: field(r, "latency_us.p99")? / scale,
        bytes_out_per_req: per_req("metrics.bytes_out")?,
        bytes_in_per_req: per_req("metrics.bytes_in")?,
        peak_rss_mb: median(&setup_peaks),
        peak_rss_loaded_mb: main.peak_rss_mb,
        setup_s: median(&setup_times),
        cpu_us_per_req: main.cpu_s * 1e6 / completed.max(1) as f64,
        cal_ns: main.cal_ns,
        attempted: issued,
        failed: issued - completed.min(issued),
        ring_refusals: field(r, "metrics.ring_refusals")?,
        queue_depth_high_water: field(r, "metrics.queue_depth_high_water")?,
        reconnects: field(r, "metrics.reconnects")?,
        violations,
    })
}
