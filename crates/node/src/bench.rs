//! The `splitbft-node bench` subcommand: cluster benchmarking end to
//! end.
//!
//! Binds `--replicas` nodes of one `--protocol` on OS-assigned
//! localhost ports inside this process, drives them with
//! `splitbft-loadgen`'s pipelined workload driver over real TCP, writes
//! a `BENCH_<name>.json` report and shuts the nodes down. Each
//! measurement gets a fresh cluster.
//!
//! `--sweep-rate 500,2000,8000` runs an **open-loop saturation sweep**:
//! one fresh cluster and measurement per offered rate, folded into a
//! single `BENCH_rate_sweep_<protocol>.json` whose points chart the
//! latency/throughput curve and whose `knee_offered_rps` marks the
//! highest offered load the cluster still kept up with.
//!
//! `--data-dir <dir>` launches the replicas with the
//! durability plane enabled (WAL + sealed checkpoints and peer state
//! transfer) — the configuration the crash-recovery e2e exercises.
//! Every measurement starts its cluster from genesis, so each gets a
//! directory of its own, `<dir>/run-<k>/replica-<i>/` (the first `k`
//! not on disk yet): a sweep's second point, or a second invocation
//! over the same `<dir>`, must not recover the previous run's state.
//!
//! For counter workloads the harness independently verifies commits: it
//! reads the counter through a regular closed-loop client before and
//! after the run, and reports the difference as `committed` — which
//! must equal the clients' observed completions when nothing timed out.

use crate::{
    apply_batch_flags, check_retired_transport_flag, cli_flag as flag, fault_tolerance_for,
    parse_cli_flag as parse_flag, reply_quorum_for, run_client, start_replica_on,
    validate_cli_flags, AppKind, ClusterFile, NodeOptions, ProtocolKind,
};
use splitbft_loadgen::driver::{self, open_loop_period, DriverConfig, LoadMode};
use splitbft_loadgen::report::{
    BatchSummary, BenchReport, DurabilitySummary, MetricsSummary, RateSweepReport,
    ShardingSummary, SweepPoint,
};
use splitbft_obs::MetricsServer;
use splitbft_loadgen::workload::Workload;
use splitbft_net::transport::BatchPolicy;
use splitbft_net::{EventedNode, PeerAddr};
use splitbft_types::{ClientId, ReplicaId};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A localhost cluster: every replica is a full socket node (real
/// sockets, real threads) inside this process.
pub struct LocalCluster {
    nodes: Vec<EventedNode>,
    /// The cluster as a client sees it: membership in id order, seed,
    /// protocol, app and the options every node runs with.
    file: ClusterFile,
}

impl LocalCluster {
    /// Binds `n` listeners on OS-assigned ports, then starts all `n`
    /// replicas with the complete address book.
    pub fn launch(
        n: usize,
        protocol: ProtocolKind,
        app: AppKind,
        seed: u64,
        options: NodeOptions,
    ) -> io::Result<Self> {
        let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
        let mut bound = Vec::with_capacity(n);
        for id in 0..n {
            bound.push(EventedNode::bind(ReplicaId(id as u32), loopback)?);
        }
        let replicas: Vec<PeerAddr> = bound
            .iter()
            .map(|b| Ok(PeerAddr { id: b.id(), addr: b.local_addr()? }))
            .collect::<io::Result<_>>()?;
        let nodes = bound
            .into_iter()
            .map(|b| start_replica_on(b, replicas.clone(), protocol, app, seed, &options))
            .collect::<io::Result<Vec<_>>>()?;
        let file = ClusterFile { protocol, seed, app, options, replicas };
        Ok(LocalCluster { nodes, file })
    }

    /// Per-shard execution progress: the element-wise **max** across
    /// every node's gauge (replicas of one group track each other, so
    /// the max is the group's committed frontier), padded to `shards`
    /// entries.
    pub fn shard_progress(&self, shards: u32) -> Vec<u64> {
        let mut out = vec![0u64; shards.max(1) as usize];
        for node in &self.nodes {
            for (slot, value) in out.iter_mut().zip(node.shard_progress()) {
                *slot = (*slot).max(value);
            }
        }
        out
    }

    /// Per-shard WAL fsyncs **summed** across every node (each replica
    /// pays for its own log), padded to `shards` entries.
    pub fn shard_fsyncs(&self, shards: u32) -> Vec<u64> {
        let mut out = vec![0u64; shards.max(1) as usize];
        for node in &self.nodes {
            for (slot, value) in out.iter_mut().zip(node.shard_fsyncs()) {
                *slot += value;
            }
        }
        out
    }

    /// The cluster's final telemetry snapshot for the report's
    /// `metrics` section: counters summed across replicas, the inbound
    /// queue-depth high-water taken as the max (depths don't add
    /// meaningfully). The socket loop's own counters come from the
    /// telemetry handles: the `STATUS` snapshot is a pinned wire type.
    pub fn metrics_summary(&self) -> MetricsSummary {
        let mut out = MetricsSummary::default();
        for node in &self.nodes {
            let telemetry = node.telemetry();
            out.loop_waits += telemetry.loop_waits.get();
            out.socket_reads_empty += telemetry.socket_reads_empty.get();
            out.client_request_frames += telemetry.client_request_frames.get();
            out.client_requests += telemetry.client_requests.get();
            let snapshot = telemetry.snapshot();
            out.fsyncs += snapshot.fsyncs;
            out.ring_refusals += snapshot.ring_refusals;
            out.reconnects += snapshot.reconnects;
            out.queue_depth_high_water =
                out.queue_depth_high_water.max(snapshot.queue_depth_high_water);
            out.bytes_in += snapshot.bytes_in;
            out.bytes_out += snapshot.bytes_out;
        }
        out
    }

    /// Stops every node and joins their threads. The nodes stop
    /// together: one after another, each would sit out a whole readiness
    /// wait (up to 1 ms) begun when the previous one's connections
    /// closed.
    pub fn shutdown(self) {
        std::thread::scope(|s| {
            for node in self.nodes {
                s.spawn(move || node.shutdown());
            }
        });
    }
}

/// Everything one `bench` invocation needs, parsed from CLI flags.
#[derive(Debug, Clone)]
pub struct BenchInvocation {
    /// The protocol every replica runs.
    pub protocol: ProtocolKind,
    /// Replicated application.
    pub app: AppKind,
    /// Cluster size.
    pub replicas: usize,
    /// Master seed.
    pub seed: u64,
    /// Concurrent clients.
    pub clients: usize,
    /// Outstanding requests per client (closed loop).
    pub pipeline: usize,
    /// Measurement window.
    pub duration: Duration,
    /// Open-loop offered rate; `None` = closed loop.
    pub rate: Option<f64>,
    /// Open-loop saturation sweep (`--sweep-rate a,b,c`): one run per
    /// offered rate, summarized into a single
    /// `BENCH_rate_sweep_*.json` charting the latency/throughput knee.
    pub sweep_rates: Vec<f64>,
    /// Workload knobs.
    pub workload: Workload,
    /// Send-path batch policy.
    pub batch: BatchPolicy,
    /// Replica view-change timer period.
    pub timeout_every: Option<Duration>,
    /// Durability root for the replicas (`--data-dir`):
    /// enables the WAL + sealed-checkpoint plane and peer state
    /// transfer on every node.
    pub data_dir: Option<PathBuf>,
    /// WAL group-commit linger (`--wal-group-commit-us`); zero fsyncs
    /// once per drained event.
    pub wal_group_commit: Duration,
    /// Consensus groups per replica (`--shards`). Above one, the same
    /// invocation first measures a single-shard baseline and the
    /// multi-shard report carries a `sharding` section with the scaling
    /// factor and per-shard gauges.
    pub shards: u32,
    /// Report output directory.
    pub out_dir: PathBuf,
    /// Report name override (a multi-shard run appends `_s<shards>`).
    pub name: Option<String>,
    /// Serve replica 0's telemetry over HTTP for the run's duration
    /// (`--metrics-addr`): Prometheus text at `/metrics` plus
    /// `/healthz` and `/readyz`, so an operator (or a CI job) can
    /// scrape a live bench.
    pub metrics_addr: Option<SocketAddr>,
}

/// Parses `5s`, `500ms`, or a plain number of seconds.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let seconds = if let Some(ms) = s.strip_suffix("ms") {
        ms.parse::<f64>().map(|v| v / 1_000.0)
    } else if let Some(sec) = s.strip_suffix('s') {
        sec.parse::<f64>()
    } else {
        s.parse::<f64>()
    }
    .map_err(|_| format!("unparsable duration {s:?} (try 5s, 500ms)"))?;
    match Duration::try_from_secs_f64(seconds) {
        Ok(duration) if !duration.is_zero() => Ok(duration),
        _ => Err(format!("duration must be positive and finite, got {s:?}")),
    }
}

/// The `bench` subcommand's flags, all value-taking. The retired
/// `--transport` stays for compatibility.
const KNOWN_FLAGS: &[&str] = &[
    "--protocol", "--app", "--replicas", "--seed", "--clients", "--pipeline", "--duration",
    "--rate", "--keys", "--value-size", "--read-ratio", "--payload", "--batch-frames",
    "--batch-bytes", "--timeout-ms", "--out", "--name", "--data-dir", "--sweep-rate",
    "--wal-group-commit-us", "--shards", "--transport", "--metrics-addr",
];

/// Parses the `bench` subcommand's arguments.
///
/// # Errors
///
/// A human-readable message for unknown flags, unparsable or
/// out-of-range values, or inconsistent combinations (e.g. `--rate`
/// with `--sweep-rate`).
pub fn parse_args(args: &[String]) -> Result<BenchInvocation, String> {
    validate_cli_flags(args, KNOWN_FLAGS).map_err(|e| format!("bench: {e}"))?;
    let protocol: ProtocolKind = flag(args, "--protocol")
        .ok_or("pass --protocol <pbft|splitbft|minbft>")?
        .parse()
        .map_err(|e: crate::ConfigError| e.to_string())?;

    let app: AppKind = match flag(args, "--app") {
        Some(a) => a.parse().map_err(|e: crate::ConfigError| e.to_string())?,
        None => AppKind::Counter,
    };
    let workload = match app {
        AppKind::Counter => Workload::Counter,
        AppKind::Kvs => Workload::Kvs {
            keys: parse_flag(args, "--keys", 1_000u64)?,
            value_size: parse_flag(args, "--value-size", 10usize)?,
            read_ratio: parse_flag(args, "--read-ratio", 0.0f64)?,
        },
        AppKind::Blockchain => {
            Workload::Blockchain { payload: parse_flag(args, "--payload", 64usize)? }
        }
    };

    let mut batch = BatchPolicy::default();
    apply_batch_flags(args, &mut batch)?;

    let clients = parse_flag(args, "--clients", 4usize)?;
    // Every offered rate must give the driver a schedule it can keep,
    // checked here so a bad value fails before any node binds.
    let offered = |name: &str, value: &str| -> Result<f64, String> {
        let rate: f64 =
            value.trim().parse().map_err(|_| format!("{name} got unparsable value {value:?}"))?;
        open_loop_period(rate, clients).map_err(|e| format!("{name} {e}"))?;
        Ok(rate)
    };
    let timeout_ms: u64 = parse_flag(args, "--timeout-ms", 2_000u64)?;
    let rate = flag(args, "--rate").map(|r| offered("--rate", &r)).transpose()?;
    let sweep_rates: Vec<f64> = match flag(args, "--sweep-rate") {
        None => Vec::new(),
        Some(list) => {
            if rate.is_some() {
                return Err("--sweep-rate already chooses the offered rates; drop --rate".into());
            }
            let mut rates = list
                .split(',')
                .map(|v| offered("--sweep-rate", v))
                .collect::<Result<Vec<f64>, String>>()?;
            rates.sort_by(f64::total_cmp);
            rates
        }
    };

    let shards = parse_flag(args, "--shards", 1u32)?;
    if shards == 0 {
        return Err("--shards must be a positive integer".into());
    }

    check_retired_transport_flag(args)?;

    Ok(BenchInvocation {
        protocol,
        app,
        replicas: parse_flag(args, "--replicas", 4usize)?,
        seed: parse_flag(args, "--seed", 42u64)?,
        clients,
        pipeline: parse_flag(args, "--pipeline", 1usize)?,
        duration: parse_duration(&flag(args, "--duration").unwrap_or_else(|| "5s".into()))?,
        rate,
        sweep_rates,
        workload,
        batch,
        timeout_every: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        data_dir: flag(args, "--data-dir").map(PathBuf::from),
        wal_group_commit: Duration::from_micros(parse_flag(args, "--wal-group-commit-us", 0u64)?),
        shards,
        out_dir: PathBuf::from(flag(args, "--out").unwrap_or_else(|| ".".into())),
        name: flag(args, "--name"),
        metrics_addr: flag(args, "--metrics-addr")
            .map(|addr| {
                addr.parse().map_err(|_| format!("--metrics-addr must be host:port, got {addr:?}"))
            })
            .transpose()?,
    })
}

/// Runs the whole invocation: one measurement, or one per offered
/// rate of a `--sweep-rate`.
///
/// # Errors
///
/// Setup/driver failures, and — so CI can gate on it — any run that
/// completed **zero** requests.
pub fn run(args: &[String]) -> Result<Vec<BenchReport>, String> {
    let invocation = parse_args(args)?;
    let reports = if invocation.sweep_rates.is_empty() {
        let report = run_one(&invocation, invocation.rate).map_err(|e| e.to_string())?;
        let path = report
            .write_to(&invocation.out_dir)
            .map_err(|e| format!("writing report: {e}"))?;
        println!("  wrote {}", path.display());
        vec![report]
    } else {
        run_rate_sweep(&invocation)?
    };
    if let Some(empty) = reports.iter().find(|r| r.completed == 0) {
        return Err(format!("bench {:?} completed zero requests", empty.name));
    }
    Ok(reports)
}

/// The open-loop saturation sweep: one fresh cluster and run per
/// offered rate, folded into one `BENCH_rate_sweep_*.json` charting
/// the latency/throughput knee.
fn run_rate_sweep(invocation: &BenchInvocation) -> Result<Vec<BenchReport>, String> {
    let protocol = invocation.protocol;
    let mut runs = Vec::new();
    let mut points = Vec::new();
    for &rate in &invocation.sweep_rates {
        let report = run_one(invocation, Some(rate)).map_err(|e| e.to_string())?;
        points.push(SweepPoint {
            offered_rps: rate,
            achieved_rps: report.throughput_rps,
            p50_us: report.latency.p50_us,
            p99_us: report.latency.p99_us,
            timed_out: report.timed_out,
        });
        runs.push(report);
    }
    let sweep = RateSweepReport {
        name: invocation
            .name
            .clone()
            .map_or_else(|| protocol.to_string(), |n| format!("{n}_{protocol}")),
        protocol: protocol.to_string(),
        n: invocation.replicas,
        app: invocation.app.to_string(),
        clients: invocation.clients.max(1),
        duration: invocation.duration,
        points,
    };
    println!("{}", sweep.summary_line());
    let path = sweep
        .write_to(&invocation.out_dir)
        .map_err(|e| format!("writing sweep report: {e}"))?;
    println!("  wrote {}", path.display());
    Ok(runs)
}

/// One measurement at `rate` (`None`: closed loop), after its
/// single-shard baseline if the run is sharded; prints its summary.
fn run_one(invocation: &BenchInvocation, rate: Option<f64>) -> io::Result<BenchReport> {
    // Multi-shard runs measure their own single-shard baseline first —
    // same invocation, same knobs — so the report's `sharding` section
    // can state the scaling factor rather than leave it to a separate
    // run nobody correlates.
    let baseline_rps = if invocation.shards > 1 {
        let report = run_measurement(invocation, rate, 1, 0.0)?;
        println!(
            "  1-shard baseline: {:.1} req/s ({} completed)",
            report.throughput_rps, report.completed
        );
        report.throughput_rps
    } else {
        0.0
    };
    let report = run_measurement(invocation, rate, invocation.shards, baseline_rps)?;
    println!("{}", report.summary_line());
    Ok(report)
}

/// Claims the first `<base>/run-<k>` that does not exist yet. A cluster
/// launched over a previous measurement's directory would recover that
/// run's checkpoint, WAL and reply cache instead of starting at genesis.
fn fresh_run_dir(base: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(base)?;
    let mut k = 0u32;
    loop {
        let dir = base.join(format!("run-{k}"));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => k += 1,
            Err(e) => return Err(e),
        }
    }
}

/// Launches a fresh cluster, measures it once and shuts it down.
/// `baseline_rps` is the single-shard baseline a multi-shard run
/// reports its scaling against (unused at one shard).
fn run_measurement(
    invocation: &BenchInvocation,
    rate: Option<f64>,
    shards: u32,
    baseline_rps: f64,
) -> io::Result<BenchReport> {
    let options = NodeOptions {
        batch: invocation.batch,
        timeout_every: invocation.timeout_every,
        data_dir: invocation.data_dir.as_deref().map(fresh_run_dir).transpose()?,
        wal_group_commit: invocation.wal_group_commit,
        shards,
    };
    let (protocol, app, seed) = (invocation.protocol, invocation.app, invocation.seed);
    let cluster = LocalCluster::launch(invocation.replicas, protocol, app, seed, options)?;

    // Live telemetry for the run: replica 0's gauges over HTTP, so an
    // operator (or a CI job) can scrape a bench in flight.
    let metrics_server = match invocation.metrics_addr {
        None => None,
        Some(addr) => {
            let server = MetricsServer::serve(addr, cluster.nodes[0].telemetry())?;
            eprintln!(
                "bench: metrics on http://{}/metrics (health: /healthz, /readyz)",
                server.local_addr()
            );
            Some(server)
        }
    };
    let result = measure(invocation, &cluster, rate, baseline_rps);
    if let Some(server) = metrics_server {
        server.shutdown();
    }
    cluster.shutdown();
    result
}

/// Drives `cluster` for one measurement window and assembles the
/// report, closing with the nodes' own gauges: every report carries a
/// final telemetry snapshot (so BENCH_*.json is self-contained
/// evidence), durable runs add the durability plane's fsync cost, and
/// multi-shard runs the per-shard scaling evidence.
fn measure(
    invocation: &BenchInvocation,
    cluster: &LocalCluster,
    rate: Option<f64>,
    baseline_rps: f64,
) -> io::Result<BenchReport> {
    let file = &cluster.file;
    let protocol = file.protocol;
    let shards = file.options.shards;
    let mut config =
        DriverConfig::new(file.addrs(), file.seed, reply_quorum_for(protocol, file.n())?);
    config.clients = invocation.clients.max(1);
    config.pipeline = invocation.pipeline.max(1);
    config.duration = invocation.duration;
    config.mode = rate.map_or(LoadMode::Closed, |rate| LoadMode::Open { rate });
    config.workload = invocation.workload.clone();
    config.shards = shards;

    // Counter workloads get an independent commit probe: the counter
    // value before/after the run, read through a regular client.
    let before = probe_counter(file, invocation)?;
    let stats = driver::run(&config)?;
    let committed = match probe_counter(file, invocation)? {
        Some(after) => after - before.unwrap_or(0),
        None => stats.completed,
    };

    let batch = invocation.batch;
    let mut report = BenchReport::from_stats(
        report_name(invocation, shards),
        protocol.to_string(),
        file.n(),
        fault_tolerance_for(protocol, file.n())?,
        file.app.to_string(),
        invocation.workload.clone(),
        config.mode,
        config.clients,
        config.pipeline,
        config.duration,
        BatchSummary { max_frames: batch.max_frames, max_bytes: batch.max_bytes },
        &stats,
        committed,
        cluster.metrics_summary(),
    );
    if shards > 1 {
        // Per-shard completions from the clients' quorum trackers,
        // per-shard progress/fsync gauges from the nodes.
        let throughput = report.throughput_rps;
        report = report.with_sharding(ShardingSummary {
            shards,
            per_shard_completed: stats.per_shard_completed.clone(),
            per_shard_progress: cluster.shard_progress(shards),
            per_shard_fsyncs: cluster.shard_fsyncs(shards),
            baseline_rps,
            scaling_x: (baseline_rps > 0.0).then(|| throughput / baseline_rps),
        });
    }
    if invocation.data_dir.is_some() {
        let fsyncs = report.metrics.fsyncs;
        let completed = report.completed;
        report = report.with_durability(DurabilitySummary {
            wal_group_commit_us: invocation.wal_group_commit.as_micros() as u64,
            fsyncs,
            fsyncs_per_completed: (completed > 0).then(|| fsyncs as f64 / completed as f64),
        });
    }
    Ok(report)
}

/// Reads the replicated counter through a closed-loop client. `None`
/// for non-counter workloads (no independent probe exists for them).
fn probe_counter(file: &ClusterFile, invocation: &BenchInvocation) -> io::Result<Option<u64>> {
    if !matches!(invocation.workload, Workload::Counter) {
        return Ok(None);
    }
    // Just below the load clients' ids.
    let probe_id = ClientId(driver::CLIENT_ID_BASE - 1);
    let results =
        run_client(file, file.protocol, probe_id, b"read", 1, Duration::from_secs(30))?;
    let bytes: [u8; 8] = results[0][..].try_into().map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "counter read returned non-u64 result")
    })?;
    Ok(Some(u64::from_le_bytes(bytes)))
}

fn report_name(invocation: &BenchInvocation, shards: u32) -> String {
    let base = match &invocation.name {
        Some(name) => name.clone(),
        None => format!(
            "{}_{}_c{}_p{}",
            invocation.protocol, invocation.app, invocation.clients, invocation.pipeline
        ),
    };
    // Single-shard runs keep their pre-sharding names (and bytes).
    if shards > 1 {
        format!("{base}_s{shards}")
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The repository benchmark's `split-sock` workload launches the
    /// binary with exactly this command line.
    #[test]
    fn parses_the_split_sock_command_line() {
        let inv = parse_args(&args(&[
            "--protocol", "splitbft", "--transport", "evented", "--clients", "1", "--pipeline",
            "16", "--name", "sock", "--seed", "1", "--duration", "10000ms", "--out", "/tmp/o",
        ]))
        .unwrap();
        assert_eq!(inv.protocol, ProtocolKind::SplitBft);
        assert_eq!((inv.clients, inv.pipeline, inv.seed), (1, 16, 1));
        assert_eq!(inv.duration, Duration::from_secs(10));
        assert!(inv.rate.is_none());
        assert_eq!(inv.batch, BatchPolicy::default());
        assert_eq!(report_name(&inv, 1), "sock");
        assert_eq!(inv.out_dir, PathBuf::from("/tmp/o"));
    }

    #[test]
    fn durations_parse_with_suffixes() {
        assert_eq!(parse_duration("5s").unwrap(), Duration::from_secs(5));
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2").unwrap(), Duration::from_secs(2));
        for bad in ["0s", "fast", "inf", "1e30s", "NaN", "-1", "-0ms"] {
            assert!(parse_duration(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_unknown_flags_and_bad_combos() {
        assert!(parse_args(&args(&["--protcol", "pbft"])).is_err());
        assert!(parse_args(&args(&[])).is_err(), "needs a protocol");
        assert!(
            parse_args(&args(&["--protocol", "pbft", "--batch-frames", "0"])).is_err(),
            "batch limits must be positive, matching the TOML parser"
        );
    }

    #[test]
    fn sweep_rate_parses_sorted_and_rejects_bad_combos() {
        let inv = parse_args(&args(&[
            "--protocol", "splitbft", "--sweep-rate", "2000,500,8000",
        ]))
        .unwrap();
        assert_eq!(inv.sweep_rates, vec![500.0, 2000.0, 8000.0]);
        assert!(
            parse_args(&args(&[
                "--protocol", "pbft", "--sweep-rate", "100", "--rate", "50",
            ]))
            .is_err(),
            "--sweep-rate and --rate are exclusive"
        );
        assert!(
            parse_args(&args(&["--protocol", "pbft", "--sweep-rate", "0"])).is_err(),
            "rates must be positive"
        );
        assert!(
            parse_args(&args(&["--protocol", "pbft", "--sweep-rate", "fast"])).is_err(),
            "rates must parse"
        );
    }

    /// Rates the driver's schedule cannot keep fail at parse time, before
    /// any node binds, and the message names the flag.
    #[test]
    fn out_of_range_rates_are_rejected_naming_the_flag() {
        for (flag, value) in [
            ("--rate", "inf"), ("--rate", "NaN"), ("--rate", "1e-300"), ("--rate", "0"),
            ("--rate", "-5"), ("--rate", "1e9"), ("--sweep-rate", "100,1e300"),
            ("--sweep-rate", "inf"), ("--sweep-rate", "0"),
        ] {
            let err = parse_args(&args(&["--protocol", "pbft", flag, value]))
                .expect_err(&format!("{flag} {value}"));
            assert!(err.starts_with(&format!("{flag} ")), "{flag} {value}: {err}");
        }
    }

    #[test]
    fn shards_flag_parses_and_rejects_zero() {
        let inv = parse_args(&args(&["--protocol", "pbft", "--shards", "4"])).unwrap();
        assert_eq!(inv.shards, 4);
        let default = parse_args(&args(&["--protocol", "pbft"])).unwrap();
        assert_eq!(default.shards, 1);
        assert!(parse_args(&args(&["--protocol", "pbft", "--shards", "0"])).is_err());
        assert!(parse_args(&args(&["--protocol", "pbft", "--shards", "many"])).is_err());
    }

    #[test]
    fn transport_flag_is_parsed_for_compatibility_only() {
        for accepted in ["evented", "blocking"] {
            parse_args(&args(&["--protocol", "pbft", "--transport", accepted]))
                .unwrap_or_else(|e| panic!("{accepted}: {e}"));
        }
        for rejected in ["blocking,evented", "uring", ""] {
            let err = parse_args(&args(&["--protocol", "pbft", "--transport", rejected]))
                .expect_err(rejected);
            assert!(err.contains("only socket runtime"), "{rejected}: {err}");
        }
    }

    #[test]
    fn data_dir_flag_flows_into_the_invocation() {
        let inv = parse_args(&args(&["--protocol", "pbft", "--data-dir", "/tmp/x"])).unwrap();
        assert_eq!(inv.data_dir, Some(PathBuf::from("/tmp/x")));
    }

    #[test]
    fn kvs_knobs_flow_into_the_workload() {
        let inv = parse_args(&args(&[
            "--protocol", "pbft", "--app", "kvs", "--keys", "50", "--value-size", "100",
            "--read-ratio", "0.5",
        ]))
        .unwrap();
        assert_eq!(
            inv.workload,
            Workload::Kvs { keys: 50, value_size: 100, read_ratio: 0.5 }
        );
    }
}
