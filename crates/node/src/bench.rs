//! The `splitbft-node bench` subcommand: cluster benchmarking end to
//! end.
//!
//! Drives a real TCP cluster with `splitbft-loadgen`'s pipelined
//! workload drivers and writes a `BENCH_<name>.json` report per run.
//! Two ways to get a cluster:
//!
//! - **Self-orchestrated** (no `--config`): binds `--replicas` nodes on
//!   OS-assigned localhost ports, runs the bench, shuts them down.
//!   This is what CI's smoke bench and the comparison sweep use.
//! - **External** (`--config cluster.toml`): targets an already-running
//!   deployment described by a cluster file.
//!
//! `--compare` sweeps all three protocols (and optionally several
//! send-path batch sizes via `--sweep-batch-frames`) in one invocation,
//! writing one report per combination plus a summary table.
//!
//! `--sweep-rate 500,2000,8000` runs an **open-loop saturation sweep**:
//! one fresh cluster and measurement per offered rate, folded into a
//! single `BENCH_rate_sweep_<protocol>.json` whose points chart the
//! latency/throughput curve and whose `knee_offered_rps` marks the
//! highest offered load the cluster still kept up with.
//!
//! `--data-dir <dir>` launches self-orchestrated replicas with the
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
    parse_cli_flag as parse_flag, parse_cluster_toml, reply_quorum_for, run_client,
    start_replica_on, validate_cli_flags, AppKind, ClusterFile, NodeOptions, ProtocolKind,
};
use splitbft_loadgen::driver::{self, DriverConfig, LoadMode};
use splitbft_loadgen::report::{
    BatchSummary, BenchReport, MetricsSummary, RateSweepReport, ShardingSummary, SweepPoint,
};
use splitbft_obs::{MetricsServer, NodeTelemetry};
use splitbft_loadgen::workload::Workload;
use splitbft_net::transport::BatchPolicy;
use splitbft_net::{EventedNode, PeerAddr};
use splitbft_types::{ClientId, ReplicaId};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A self-orchestrated localhost cluster: every replica is a full
/// socket node (real sockets, real threads) inside this process.
pub struct LocalCluster {
    nodes: Vec<EventedNode>,
    replicas: Vec<PeerAddr>,
}

impl LocalCluster {
    /// Binds `n` listeners on OS-assigned ports, then starts all `n`
    /// replicas with the complete address book.
    pub fn launch(
        n: usize,
        protocol: ProtocolKind,
        app: AppKind,
        seed: u64,
        options: &NodeOptions,
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
            .map(|b| start_replica_on(b, replicas.clone(), protocol, app, seed, options))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(LocalCluster { nodes, replicas })
    }

    /// The membership (id-ordered).
    pub fn replicas(&self) -> &[PeerAddr] {
        &self.replicas
    }

    /// Replica addresses in id order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.replicas.iter().map(|p| p.addr).collect()
    }

    /// Total WAL fsyncs across every node so far (`0` unless the
    /// cluster was launched with a data dir).
    pub fn fsyncs(&self) -> u64 {
        self.nodes.iter().map(EventedNode::fsyncs).sum()
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

    /// One node's telemetry handle (for serving `/metrics` during a
    /// self-orchestrated run).
    pub fn node_telemetry(&self, id: usize) -> std::sync::Arc<NodeTelemetry> {
        self.nodes[id].telemetry()
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
    /// Target an external cluster file instead of self-orchestrating.
    pub config_path: Option<String>,
    /// Protocols to run (one, or all three under `--compare`).
    pub protocols: Vec<ProtocolKind>,
    /// Replicated application.
    pub app: AppKind,
    /// Self-orchestrated cluster size.
    pub replicas: usize,
    /// Master seed (self-orchestrated; external clusters use the file's).
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
    /// offered rate per protocol, summarized into a single
    /// `BENCH_rate_sweep_*.json` charting the latency/throughput knee.
    pub sweep_rates: Vec<f64>,
    /// Workload knobs.
    pub workload: Workload,
    /// Send-path batch policies to run (one per report).
    pub batch_variants: Vec<BatchPolicy>,
    /// Replica view-change timer period.
    pub timeout_every: Option<Duration>,
    /// Durability root for self-orchestrated replicas (`--data-dir`):
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
    /// Report name override (suffixed per combination when sweeping).
    pub name: Option<String>,
    /// Throughput-series window.
    pub window: Duration,
    /// Client retransmission interval.
    pub retry_every: Duration,
    /// Post-measurement drain budget.
    pub drain_timeout: Duration,
    /// First load-generator client id.
    pub client_id_base: u32,
    /// Serve replica 0's telemetry over HTTP for the run's duration
    /// (`--metrics-addr`): Prometheus text at `/metrics` plus
    /// `/healthz` and `/readyz`, so an operator (or the CI smoke job)
    /// can scrape a live bench. Self-orchestrated clusters only.
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
    if !(seconds > 0.0) {
        return Err(format!("duration must be positive, got {s:?}"));
    }
    Ok(Duration::from_secs_f64(seconds))
}

const KNOWN_FLAGS: &[&str] = &[
    "--config", "--protocol", "--app", "--replicas", "--seed", "--clients", "--pipeline",
    "--duration", "--rate", "--keys", "--value-size", "--read-ratio", "--payload",
    "--batch-frames", "--batch-bytes", "--sweep-batch-frames",
    "--timeout-ms", "--out", "--name", "--window-ms", "--retry-ms", "--drain-secs",
    "--client-base", "--data-dir", "--sweep-rate", "--wal-group-commit-us", "--shards",
    "--transport", "--metrics-addr",
];

/// Parses the `bench` subcommand's arguments.
///
/// # Errors
///
/// A human-readable message for unknown flags, unparsable values, or
/// inconsistent combinations (e.g. `--compare` against `--config`).
pub fn parse_args(args: &[String]) -> Result<BenchInvocation, String> {
    let compare = args.iter().any(|a| a == "--compare");
    validate_cli_flags(args, KNOWN_FLAGS, &["--compare"])
        .map_err(|e| format!("bench: {e}"))?;

    let config_path = flag(args, "--config");
    if compare && config_path.is_some() {
        return Err(
            "--compare runs several protocols, but a --config cluster serves exactly one; \
             drop --config to self-orchestrate the sweep"
                .into(),
        );
    }
    let protocols = match (flag(args, "--protocol"), compare) {
        (Some(p), _) => vec![p.parse().map_err(|e: crate::ConfigError| e.to_string())?],
        (None, true) => vec![ProtocolKind::Pbft, ProtocolKind::SplitBft, ProtocolKind::MinBft],
        (None, false) => {
            if config_path.is_none() {
                return Err("pass --protocol <p>, --compare, or --config <file>".into());
            }
            Vec::new() // resolved from the file later
        }
    };

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

    let mut base_batch = BatchPolicy::default();
    apply_batch_flags(args, &mut base_batch)?;
    let batch_variants: Vec<BatchPolicy> = match flag(args, "--sweep-batch-frames") {
        None => vec![base_batch],
        Some(list) => {
            if config_path.is_some() {
                return Err(
                    "--sweep-batch-frames needs a self-orchestrated cluster (batching is a \
                     replica-side knob); drop --config"
                        .into(),
                );
            }
            list.split(',')
                .map(|v| {
                    let frames: usize = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("--sweep-batch-frames got {v:?}"))?;
                    let mut policy = base_batch;
                    policy.max_frames = frames.max(1);
                    Ok(policy)
                })
                .collect::<Result<_, String>>()?
        }
    };

    let timeout_ms: u64 = parse_flag(args, "--timeout-ms", 2_000u64)?;
    let rate = match flag(args, "--rate") {
        None => None,
        Some(r) => {
            Some(r.parse::<f64>().map_err(|_| format!("--rate got unparsable value {r:?}"))?)
        }
    };
    let sweep_rates: Vec<f64> = match flag(args, "--sweep-rate") {
        None => Vec::new(),
        Some(list) => {
            if rate.is_some() {
                return Err("--sweep-rate already chooses the offered rates; drop --rate".into());
            }
            let mut rates = list
                .split(',')
                .map(|v| {
                    v.trim()
                        .parse::<f64>()
                        .map_err(|_| format!("--sweep-rate got {v:?}"))
                        .and_then(|r| {
                            if r > 0.0 {
                                Ok(r)
                            } else {
                                Err(format!("--sweep-rate rates must be positive, got {v:?}"))
                            }
                        })
                })
                .collect::<Result<Vec<f64>, String>>()?;
            if rates.is_empty() {
                return Err("--sweep-rate needs at least one rate".into());
            }
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
        config_path,
        protocols,
        app,
        replicas: parse_flag(args, "--replicas", 4usize)?,
        seed: parse_flag(args, "--seed", 42u64)?,
        clients: parse_flag(args, "--clients", 4usize)?,
        pipeline: parse_flag(args, "--pipeline", 1usize)?,
        duration: parse_duration(&flag(args, "--duration").unwrap_or_else(|| "5s".into()))?,
        rate,
        sweep_rates,
        workload,
        batch_variants,
        timeout_every: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        data_dir: flag(args, "--data-dir").map(PathBuf::from),
        wal_group_commit: Duration::from_micros(parse_flag(args, "--wal-group-commit-us", 0u64)?),
        shards,
        out_dir: PathBuf::from(flag(args, "--out").unwrap_or_else(|| ".".into())),
        name: flag(args, "--name"),
        window: Duration::from_millis(parse_flag(args, "--window-ms", 1_000u64)?.max(1)),
        retry_every: Duration::from_millis(parse_flag(args, "--retry-ms", 1_000u64)?.max(1)),
        drain_timeout: Duration::from_secs(parse_flag(args, "--drain-secs", 15u64)?),
        client_id_base: parse_flag(args, "--client-base", 1_000u32)?,
        metrics_addr: match flag(args, "--metrics-addr") {
            None => None,
            Some(addr) => Some(
                addr.parse()
                    .map_err(|_| format!("--metrics-addr must be host:port, got {addr:?}"))?,
            ),
        },
    })
}

/// Runs the whole invocation: every protocol × batch-policy
/// combination, one report each.
///
/// # Errors
///
/// Setup/driver failures, and — so CI can gate on it — any run that
/// completed **zero** requests.
pub fn run(args: &[String]) -> Result<Vec<BenchReport>, String> {
    let invocation = parse_args(args)?;
    if !invocation.sweep_rates.is_empty() {
        return run_rate_sweep(&invocation);
    }
    let mut reports = Vec::new();
    let combos: Vec<(ProtocolKind, BatchPolicy)> = resolve_combos(&invocation)?;
    for &(protocol, batch) in &combos {
        let report =
            run_one(&invocation, protocol, batch, invocation.rate).map_err(|e| e.to_string())?;
        println!("{}", report.summary_line());
        let path = report
            .write_to(&invocation.out_dir)
            .map_err(|e| format!("writing report: {e}"))?;
        println!("  wrote {}", path.display());
        reports.push(report);
    }
    if let Some(empty) = reports.iter().find(|r| r.completed == 0) {
        return Err(format!("bench {:?} completed zero requests", empty.name));
    }
    Ok(reports)
}

/// The open-loop saturation sweep: one fresh cluster and run per
/// (protocol, offered rate), folded into one `BENCH_rate_sweep_*.json`
/// per protocol charting the latency/throughput knee.
fn run_rate_sweep(invocation: &BenchInvocation) -> Result<Vec<BenchReport>, String> {
    let combos = resolve_combos(invocation)?;
    let protocols: Vec<ProtocolKind> = {
        let mut seen = Vec::new();
        for (p, _) in &combos {
            if !seen.contains(p) {
                seen.push(*p);
            }
        }
        seen
    };
    let batch = invocation.batch_variants[0];
    let mut all_runs = Vec::new();
    for &protocol in &protocols {
        let mut points = Vec::new();
        for &rate in &invocation.sweep_rates {
            let report =
                run_one(invocation, protocol, batch, Some(rate)).map_err(|e| e.to_string())?;
            println!("{}", report.summary_line());
            points.push(SweepPoint {
                offered_rps: rate,
                achieved_rps: report.throughput_rps,
                p50_us: report.latency.p50_us,
                p99_us: report.latency.p99_us,
                timed_out: report.timed_out,
            });
            all_runs.push(report);
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
    }
    if let Some(empty) = all_runs.iter().find(|r| r.completed == 0) {
        return Err(format!("bench {:?} completed zero requests", empty.name));
    }
    Ok(all_runs)
}

fn resolve_combos(
    invocation: &BenchInvocation,
) -> Result<Vec<(ProtocolKind, BatchPolicy)>, String> {
    let mut protocols = invocation.protocols.clone();
    if protocols.is_empty() {
        // `--config` without `--protocol`: the file decides.
        let path = invocation.config_path.as_deref().expect("checked in parse_args");
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        protocols.push(parse_cluster_toml(&text).map_err(|e| e.to_string())?.protocol);
    }
    let mut combos = Vec::new();
    for protocol in protocols {
        for batch in &invocation.batch_variants {
            combos.push((protocol, *batch));
        }
    }
    Ok(combos)
}

fn run_one(
    invocation: &BenchInvocation,
    protocol: ProtocolKind,
    batch: BatchPolicy,
    rate: Option<f64>,
) -> io::Result<BenchReport> {
    // Multi-shard runs measure their own single-shard baseline first —
    // same invocation, same knobs — so the report's `sharding` section
    // can state the scaling factor rather than leave it to a separate
    // run nobody correlates.
    let baseline_rps = if invocation.shards > 1 && invocation.config_path.is_none() {
        let report = run_measurement(invocation, protocol, batch, rate, 1, None)?;
        println!(
            "  1-shard baseline: {:.1} req/s ({} completed)",
            report.throughput_rps, report.completed
        );
        Some(report.throughput_rps)
    } else {
        None
    };
    run_measurement(invocation, protocol, batch, rate, invocation.shards, baseline_rps)
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

fn run_measurement(
    invocation: &BenchInvocation,
    protocol: ProtocolKind,
    batch: BatchPolicy,
    rate: Option<f64>,
    shards: u32,
    baseline_rps: Option<f64>,
) -> io::Result<BenchReport> {
    let mut options = NodeOptions {
        batch,
        timeout_every: invocation.timeout_every,
        data_dir: None,
        wal_group_commit: invocation.wal_group_commit,
        shards,
        fault_injection: false,
        status_admin: false,
    };

    // A cluster: launched here, or described by the external file.
    let (cluster, file) = match &invocation.config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            let file = parse_cluster_toml(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            (None, file)
        }
        None => {
            options.data_dir = invocation.data_dir.as_deref().map(fresh_run_dir).transpose()?;
            let cluster = LocalCluster::launch(
                invocation.replicas,
                protocol,
                invocation.app,
                invocation.seed,
                &options,
            )?;
            let file = ClusterFile {
                protocol,
                seed: invocation.seed,
                app: invocation.app,
                options,
                replicas: cluster.replicas().to_vec(),
            };
            (Some(cluster), file)
        }
    };

    // Live telemetry for the run: replica 0's gauges over HTTP, so an
    // operator (or the CI smoke job) can scrape a bench in flight.
    let metrics_server = match (&cluster, invocation.metrics_addr) {
        (Some(cluster), Some(addr)) => {
            let server = MetricsServer::serve(addr, cluster.node_telemetry(0))?;
            eprintln!(
                "bench: metrics on http://{}/metrics (health: /healthz, /readyz)",
                server.local_addr()
            );
            Some(server)
        }
        (None, Some(_)) => {
            eprintln!("bench: --metrics-addr ignored (external cluster has no local telemetry)");
            None
        }
        _ => None,
    };

    let result = (|| -> io::Result<BenchReport> {
        let mut config =
            DriverConfig::new(file.addrs(), file.seed, reply_quorum_for(protocol, file.n())?);
        config.clients = invocation.clients.max(1);
        config.pipeline = invocation.pipeline.max(1);
        config.duration = invocation.duration;
        config.mode = match rate {
            None => LoadMode::Closed,
            Some(rate) => LoadMode::Open { rate },
        };
        config.workload = invocation.workload.clone();
        config.window = invocation.window;
        config.retry_every = invocation.retry_every;
        config.drain_timeout = invocation.drain_timeout;
        config.client_id_base = invocation.client_id_base;
        config.shards = shards;

        // Counter workloads get an independent commit probe: the counter
        // value before/after the run, read through a regular client.
        let before = probe_counter(&file, protocol, invocation)?;
        let stats = driver::run(&config)?;
        let committed = match probe_counter(&file, protocol, invocation)? {
            Some(after) => after - before.unwrap_or(0),
            None => stats.completed,
        };

        let name = report_name(invocation, protocol, &batch, shards);
        let report = BenchReport::from_stats(
            name,
            protocol.to_string(),
            file.n(),
            fault_tolerance_for(protocol, file.n())?,
            file.app.to_string(),
            invocation.workload.clone(),
            config.mode,
            config.clients,
            config.pipeline,
            config.duration,
            BatchSummary {
                max_frames: batch.max_frames,
                max_bytes: batch.max_bytes,
            },
            &stats,
            committed,
        );
        // Multi-shard runs carry the scaling evidence: per-shard
        // completions from the clients' quorum trackers, per-shard
        // progress/fsync gauges from the in-process nodes, and the
        // baseline comparison.
        if shards <= 1 {
            return Ok(report);
        }
        let (progress, fsyncs) = match &cluster {
            Some(c) => (c.shard_progress(shards), c.shard_fsyncs(shards)),
            None => (vec![0; shards as usize], vec![0; shards as usize]),
        };
        let throughput = report.throughput_rps;
        Ok(report.with_sharding(ShardingSummary {
            shards,
            per_shard_completed: stats.per_shard_completed.clone(),
            per_shard_progress: progress,
            per_shard_fsyncs: fsyncs,
            baseline_rps,
            scaling_x: baseline_rps
                .filter(|b| *b > 0.0)
                .map(|b| throughput / b),
        }))
    })();

    // Self-orchestrated runs close with the nodes' own gauges: every
    // report carries a final telemetry snapshot (so BENCH_*.json is
    // self-contained evidence), and durable runs additionally report
    // the durability plane's fsync cost.
    let result = result.map(|report| match &cluster {
        Some(cluster) => {
            let report = report.with_metrics(cluster.metrics_summary());
            if invocation.data_dir.is_none() {
                return report;
            }
            let fsyncs = cluster.fsyncs();
            let completed = report.completed;
            report.with_durability(splitbft_loadgen::report::DurabilitySummary {
                wal_group_commit_us: invocation.wal_group_commit.as_micros() as u64,
                fsyncs,
                fsyncs_per_completed: (completed > 0).then(|| fsyncs as f64 / completed as f64),
            })
        }
        None => report,
    });
    if let Some(server) = metrics_server {
        server.shutdown();
    }
    if let Some(cluster) = cluster {
        cluster.shutdown();
    }
    result
}

/// Reads the replicated counter through a closed-loop client. `None`
/// for non-counter workloads (no independent probe exists for them).
fn probe_counter(
    file: &ClusterFile,
    protocol: ProtocolKind,
    invocation: &BenchInvocation,
) -> io::Result<Option<u64>> {
    if !matches!(invocation.workload, Workload::Counter) {
        return Ok(None);
    }
    let probe_id = ClientId(invocation.client_id_base.saturating_sub(1));
    let results =
        run_client(file, protocol, probe_id, b"read", 1, Duration::from_secs(30))?;
    let bytes: [u8; 8] = results[0][..].try_into().map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "counter read returned non-u64 result")
    })?;
    Ok(Some(u64::from_le_bytes(bytes)))
}

fn report_name(
    invocation: &BenchInvocation,
    protocol: ProtocolKind,
    batch: &BatchPolicy,
    shards: u32,
) -> String {
    let base = match &invocation.name {
        Some(name) => name.clone(),
        None => format!(
            "{protocol}_{}_c{}_p{}",
            invocation.app, invocation.clients, invocation.pipeline
        ),
    };
    let multi_protocol = invocation.protocols.len() > 1 && invocation.name.is_some();
    let base = if multi_protocol { format!("{base}_{protocol}") } else { base };
    // Single-shard runs keep their pre-sharding names (and bytes).
    let base = if shards > 1 { format!("{base}_s{shards}") } else { base };
    if invocation.batch_variants.len() > 1 {
        format!("{base}_bf{}", batch.max_frames)
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

    #[test]
    fn parses_the_issue_invocation() {
        let inv = parse_args(&args(&[
            "--protocol", "splitbft", "--clients", "8", "--pipeline", "4", "--duration", "5s",
        ]))
        .unwrap();
        assert_eq!(inv.protocols, vec![ProtocolKind::SplitBft]);
        assert_eq!(inv.clients, 8);
        assert_eq!(inv.pipeline, 4);
        assert_eq!(inv.duration, Duration::from_secs(5));
        assert!(inv.rate.is_none());
        assert_eq!(inv.batch_variants.len(), 1);
    }

    #[test]
    fn compare_covers_all_protocols_and_sweeps_batches() {
        let inv = parse_args(&args(&["--compare", "--sweep-batch-frames", "1,64"])).unwrap();
        assert_eq!(inv.protocols.len(), 3);
        assert_eq!(inv.batch_variants.len(), 2);
        assert_eq!(inv.batch_variants[0].max_frames, 1);
        assert_eq!(inv.batch_variants[1].max_frames, 64);
    }

    #[test]
    fn durations_parse_with_suffixes() {
        assert_eq!(parse_duration("5s").unwrap(), Duration::from_secs(5));
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2").unwrap(), Duration::from_secs(2));
        assert!(parse_duration("0s").is_err());
        assert!(parse_duration("fast").is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_combos() {
        assert!(parse_args(&args(&["--protcol", "pbft"])).is_err());
        assert!(parse_args(&args(&[])).is_err(), "needs protocol, compare, or config");
        assert!(
            parse_args(&args(&[
                "--config", "x.toml", "--sweep-batch-frames", "1,2",
            ]))
            .is_err(),
            "sweep requires self-orchestration"
        );
        assert!(
            parse_args(&args(&["--compare", "--config", "x.toml"])).is_err(),
            "compare runs several protocols; a config cluster serves one"
        );
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
