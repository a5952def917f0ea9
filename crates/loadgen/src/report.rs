//! `BENCH_*.json` report writing.
//!
//! Every measurement run serializes into one self-describing JSON file
//! named `BENCH_<name>.json`, so CI can archive reports as artifacts
//! and future performance PRs diff against them. The schema (version
//! `splitbft-bench/v1`) is stable and hand-rolled — the workspace has
//! no serde — with every key documented on [`BenchReport`]'s fields.

use crate::driver::{LoadMode, LoadStats};
use crate::workload::Workload;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "splitbft-bench/v1";

/// Latency percentiles of one run, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Largest observed.
    pub max_us: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
}

/// The send-path batching policy a run used (mirrors
/// `splitbft_net::transport::BatchPolicy`, flattened for the report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSummary {
    /// Frames coalesced per write at most.
    pub max_frames: usize,
    /// Bytes coalesced per write at most.
    pub max_bytes: usize,
}

/// What the durability plane cost during a run (only measurable for
/// self-orchestrated clusters, whose in-process nodes expose fsync
/// gauges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilitySummary {
    /// The WAL group-commit linger the replicas ran with
    /// (`0` = one fsync per drained event).
    pub wal_group_commit_us: u64,
    /// Total WAL fsyncs across all replicas during the run.
    pub fsyncs: u64,
    /// Fsyncs per client-verified completion (`None` with zero
    /// completions). The number group-commit exists to shrink.
    pub fsyncs_per_completed: Option<f64>,
}

/// What the sharding plane delivered during a run (only attached to
/// multi-shard runs — a single-shard report stays byte-identical to the
/// pre-sharding schema, so the key is omitted rather than `null`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingSummary {
    /// Consensus groups the cluster hosted.
    pub shards: u32,
    /// Client-verified completions per shard (from the per-shard quorum
    /// trackers).
    pub per_shard_completed: Vec<u64>,
    /// Execution progress per shard as reported by the replicas' gauges
    /// (element-wise max across replicas).
    pub per_shard_progress: Vec<u64>,
    /// WAL fsyncs per shard summed across replicas (`0`s without a data
    /// dir).
    pub per_shard_fsyncs: Vec<u64>,
    /// Throughput of the single-shard baseline run the same invocation
    /// measured first (`None` when no baseline ran, e.g. external
    /// clusters).
    pub baseline_rps: Option<f64>,
    /// `throughput_rps / baseline_rps` — the scaling factor the shard
    /// count bought.
    pub scaling_x: Option<f64>,
}

impl ShardingSummary {
    /// The section as a JSON object.
    pub fn to_json(&self) -> String {
        let join = |v: &[u64]| {
            v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
        };
        format!(
            r#"{{"shards": {}, "per_shard_completed": [{}], "per_shard_progress": [{}], "per_shard_fsyncs": [{}], "baseline_rps": {}, "scaling_x": {}}}"#,
            self.shards,
            join(&self.per_shard_completed),
            join(&self.per_shard_progress),
            join(&self.per_shard_fsyncs),
            self.baseline_rps.map_or("null".into(), |v| format!("{v:.3}")),
            self.scaling_x.map_or("null".into(), |v| format!("{v:.3}")),
        )
    }
}

/// The cluster's final telemetry snapshot, summed across replicas
/// (only measurable for self-orchestrated clusters, whose in-process
/// nodes expose their metrics registries). Attached as the report's
/// `metrics` section so a `BENCH_*.json` is self-contained: the
/// observability story of the run travels with its numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Total WAL fsyncs across every replica (`0` without a data dir).
    pub fsyncs: u64,
    /// Evented-backend outbound-ring refusals across every replica
    /// (`0` on the blocking backend, which blocks instead of refusing).
    pub ring_refusals: u64,
    /// Peer reconnect attempts across every replica.
    pub reconnects: u64,
    /// Largest per-node inbound queue depth observed (max across
    /// replicas, not a sum — depths don't add meaningfully).
    pub queue_depth_high_water: u64,
    /// Bytes received from peers across every replica.
    pub bytes_in: u64,
    /// Bytes sent to peers across every replica.
    pub bytes_out: u64,
    /// Returns from the socket loops' readiness waits across every
    /// replica.
    pub loop_waits: u64,
    /// Socket reads and accepts that returned `WouldBlock` across every
    /// replica.
    pub socket_reads_empty: u64,
    /// Client `REQUESTS` frames admitted across every replica.
    pub client_request_frames: u64,
    /// Requests those frames carried; over `client_request_frames` it is
    /// the mean proposal batch size when clients address the primary.
    pub client_requests: u64,
}

impl MetricsSummary {
    /// The section as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"fsyncs": {}, "ring_refusals": {}, "reconnects": {}, "queue_depth_high_water": {}, "bytes_in": {}, "bytes_out": {}, "loop_waits": {}, "socket_reads_empty": {}, "client_request_frames": {}, "client_requests": {}}}"#,
            self.fsyncs,
            self.ring_refusals,
            self.reconnects,
            self.queue_depth_high_water,
            self.bytes_in,
            self.bytes_out,
            self.loop_waits,
            self.socket_reads_empty,
            self.client_request_frames,
            self.client_requests,
        )
    }
}

/// One complete measurement: configuration, counts, latency
/// percentiles, and the per-window throughput series.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Report name; the file is `BENCH_<name>.json`.
    pub name: String,
    /// Protocol under test (`pbft`, `splitbft`, `minbft`).
    pub protocol: String,
    /// Cluster size.
    pub n: usize,
    /// Fault tolerance of that size.
    pub f: usize,
    /// Replicated application (`counter`, `kvs`, `blockchain`).
    pub app: String,
    /// Workload generator knobs.
    pub workload: Workload,
    /// Closed or open loop (open carries the offered rate).
    pub mode: LoadMode,
    /// Concurrent clients.
    pub clients: usize,
    /// Outstanding requests per client.
    pub pipeline: usize,
    /// Measurement window length.
    pub duration: Duration,
    /// Send-path batching policy.
    pub batch: BatchSummary,
    /// Requests issued.
    pub issued: u64,
    /// Client-observed completions (verified reply quorums).
    pub completed: u64,
    /// Requests that never completed within the drain window.
    pub timed_out: u64,
    /// Committed requests as observed on the cluster side (for counter
    /// workloads, the final counter value probed after the run); equals
    /// `completed` when no independent probe exists for the workload.
    pub committed: u64,
    /// Achieved throughput: completions per second of measurement window.
    pub throughput_rps: f64,
    /// Latency percentiles.
    pub latency: LatencySummary,
    /// Window length of the series below.
    pub window: Duration,
    /// Completions per window.
    pub window_counts: Vec<u64>,
    /// Durability-plane cost, when the run could measure it (`null` in
    /// the JSON otherwise).
    pub durability: Option<DurabilitySummary>,
    /// Sharding-plane measurement, attached only to multi-shard runs
    /// (the key is omitted from the JSON otherwise, keeping
    /// single-shard reports byte-identical to the pre-sharding schema).
    pub sharding: Option<ShardingSummary>,
    /// Final node-telemetry snapshot, attached to self-orchestrated
    /// runs (the key is omitted from the JSON otherwise — same
    /// byte-compatibility rule as `sharding`).
    pub metrics: Option<MetricsSummary>,
}

impl BenchReport {
    /// Assembles a report from a finished run. `f` is the protocol's
    /// fault tolerance at size `n` (`(n-1)/3` for the `3f+1` stacks,
    /// `(n-1)/2` for the hybrid — the caller knows which). `committed`
    /// should carry the cluster-side commit probe where one exists
    /// (pass `stats.completed` otherwise).
    #[allow(clippy::too_many_arguments)]
    pub fn from_stats(
        name: impl Into<String>,
        protocol: impl Into<String>,
        n: usize,
        f: usize,
        app: impl Into<String>,
        workload: Workload,
        mode: LoadMode,
        clients: usize,
        pipeline: usize,
        duration: Duration,
        batch: BatchSummary,
        stats: &LoadStats,
        committed: u64,
    ) -> Self {
        BenchReport {
            name: sanitize_name(&name.into()),
            protocol: protocol.into(),
            n,
            f,
            app: app.into(),
            workload,
            mode,
            clients,
            pipeline,
            duration,
            batch,
            issued: stats.issued,
            completed: stats.completed,
            timed_out: stats.timed_out,
            committed,
            throughput_rps: stats.completed as f64 / duration.as_secs_f64(),
            latency: LatencySummary {
                p50_us: stats.hist.percentile(0.50),
                p95_us: stats.hist.percentile(0.95),
                p99_us: stats.hist.percentile(0.99),
                max_us: stats.hist.max_us(),
                mean_us: stats.hist.mean_us(),
            },
            window: stats.windows.window(),
            window_counts: stats.windows.counts().to_vec(),
            durability: None,
            sharding: None,
            metrics: None,
        }
    }

    /// Attaches the durability-plane measurement (builder style).
    #[must_use]
    pub fn with_durability(mut self, durability: DurabilitySummary) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Attaches the sharding-plane measurement (builder style).
    #[must_use]
    pub fn with_sharding(mut self, sharding: ShardingSummary) -> Self {
        self.sharding = Some(sharding);
        self
    }

    /// Attaches the final node-telemetry snapshot (builder style).
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsSummary) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let window_secs = self.window.as_secs_f64();
        let windows: Vec<String> = self
            .window_counts
            .iter()
            .enumerate()
            .map(|(i, &completed)| {
                format!(
                    r#"{{"t_secs":{:.3},"completed":{completed},"rps":{:.3}}}"#,
                    i as f64 * window_secs,
                    completed as f64 / window_secs,
                )
            })
            .collect();
        let offered = match self.mode {
            LoadMode::Closed => "null".to_string(),
            LoadMode::Open { rate } => format!("{rate:.3}"),
        };
        let mode = match self.mode {
            LoadMode::Closed => "closed",
            LoadMode::Open { .. } => "open",
        };
        let durability = match &self.durability {
            None => "null".to_string(),
            Some(d) => format!(
                r#"{{"wal_group_commit_us": {}, "fsyncs": {}, "fsyncs_per_completed": {}}}"#,
                d.wal_group_commit_us,
                d.fsyncs,
                d.fsyncs_per_completed.map_or("null".into(), |v| format!("{v:.3}")),
            ),
        };
        // Omitted — not `null` — when absent, so single-shard reports
        // stay byte-identical to the pre-sharding schema.
        let sharding = match &self.sharding {
            None => String::new(),
            Some(s) => format!("  \"sharding\": {},\n", s.to_json()),
        };
        let metrics = match &self.metrics {
            None => String::new(),
            Some(m) => format!("  \"metrics\": {},\n", m.to_json()),
        };
        format!(
            concat!(
                "{{\n",
                "  \"schema\": \"{schema}\",\n",
                "  \"name\": \"{name}\",\n",
                "  \"protocol\": \"{protocol}\",\n",
                "  \"n\": {n},\n",
                "  \"f\": {f},\n",
                "  \"app\": \"{app}\",\n",
                "  \"workload\": {workload},\n",
                "  \"mode\": \"{mode}\",\n",
                "  \"offered_rps\": {offered},\n",
                "  \"clients\": {clients},\n",
                "  \"pipeline\": {pipeline},\n",
                "  \"duration_secs\": {duration:.3},\n",
                "  \"batch\": {{\"max_frames\": {max_frames}, \"max_bytes\": {max_bytes}}},\n",
                "  \"requests\": {{\"issued\": {issued}, \"completed\": {completed}, \"timed_out\": {timed_out}}},\n",
                "  \"committed\": {committed},\n",
                "  \"durability\": {durability},\n",
                "{sharding}",
                "{metrics}",
                "  \"throughput_rps\": {throughput:.3},\n",
                "  \"latency_us\": {{\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \"max\": {max}, \"mean\": {mean:.1}}},\n",
                "  \"window_secs\": {window_secs:.3},\n",
                "  \"windows\": [{windows}]\n",
                "}}\n",
            ),
            schema = SCHEMA,
            name = json_escape(&self.name),
            protocol = json_escape(&self.protocol),
            n = self.n,
            f = self.f,
            app = json_escape(&self.app),
            workload = self.workload.to_json(),
            mode = mode,
            offered = offered,
            clients = self.clients,
            pipeline = self.pipeline,
            duration = self.duration.as_secs_f64(),
            max_frames = self.batch.max_frames,
            max_bytes = self.batch.max_bytes,
            issued = self.issued,
            completed = self.completed,
            timed_out = self.timed_out,
            committed = self.committed,
            durability = durability,
            sharding = sharding,
            metrics = metrics,
            throughput = self.throughput_rps,
            p50 = self.latency.p50_us,
            p95 = self.latency.p95_us,
            p99 = self.latency.p99_us,
            max = self.latency.max_us,
            mean = self.latency.mean_us,
            window_secs = window_secs,
            windows = windows.join(", "),
        )
    }

    /// The file name this report writes to: `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Writes `BENCH_<name>.json` into `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// One human-readable summary line (used by the sweep mode's table).
    pub fn summary_line(&self) -> String {
        format!(
            "{:<9} {:<10} n={} c={} p={} | {:>9.1} req/s | p50 {:>7} µs | p99 {:>7} µs | {} issued / {} completed / {} timed out",
            self.protocol,
            self.app,
            self.n,
            self.clients,
            self.pipeline,
            self.throughput_rps,
            self.latency.p50_us,
            self.latency.p99_us,
            self.issued,
            self.completed,
            self.timed_out,
        )
    }
}

/// One point of an open-loop saturation sweep: what one offered rate
/// achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Offered load, requests per second.
    pub offered_rps: f64,
    /// Achieved throughput (completions per second of window).
    pub achieved_rps: f64,
    /// Median completion latency.
    pub p50_us: u64,
    /// 99th-percentile completion latency.
    pub p99_us: u64,
    /// Requests that never completed within the drain window.
    pub timed_out: u64,
}

impl SweepPoint {
    /// `true` while the cluster keeps up with the offered load (within
    /// 10% — scheduling slop, not saturation).
    pub fn keeping_up(&self) -> bool {
        self.achieved_rps >= 0.9 * self.offered_rps
    }
}

/// An open-loop rate sweep across one protocol: the latency/throughput
/// curve and its knee. Serialized as `BENCH_rate_sweep_<name>.json`
/// (schema [`SWEEP_SCHEMA`]).
#[derive(Debug, Clone)]
pub struct RateSweepReport {
    /// Report name; the file is `BENCH_rate_sweep_<name>.json`.
    pub name: String,
    /// Protocol under test.
    pub protocol: String,
    /// Cluster size.
    pub n: usize,
    /// Replicated application.
    pub app: String,
    /// Concurrent clients per point.
    pub clients: usize,
    /// Measurement window per point.
    pub duration: Duration,
    /// The measured points, in offered-rate order.
    pub points: Vec<SweepPoint>,
}

/// Schema identifier of [`RateSweepReport`] files.
pub const SWEEP_SCHEMA: &str = "splitbft-bench-rate-sweep/v1";

impl RateSweepReport {
    /// The knee of the curve: the highest offered rate the cluster
    /// still kept up with ([`SweepPoint::keeping_up`]). `None` when
    /// even the lowest offered rate saturated it.
    pub fn knee(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .filter(|p| p.keeping_up())
            .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    r#"{{"offered_rps":{:.3},"achieved_rps":{:.3},"p50_us":{},"p99_us":{},"timed_out":{},"keeping_up":{}}}"#,
                    p.offered_rps, p.achieved_rps, p.p50_us, p.p99_us, p.timed_out, p.keeping_up(),
                )
            })
            .collect();
        let knee = match self.knee() {
            Some(p) => format!("{:.3}", p.offered_rps),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\n",
                "  \"schema\": \"{schema}\",\n",
                "  \"name\": \"{name}\",\n",
                "  \"protocol\": \"{protocol}\",\n",
                // Kept for readers of the schema: one socket runtime exists.
                "  \"transport\": \"evented\",\n",
                "  \"n\": {n},\n",
                "  \"app\": \"{app}\",\n",
                "  \"clients\": {clients},\n",
                "  \"duration_secs\": {duration:.3},\n",
                "  \"knee_offered_rps\": {knee},\n",
                "  \"points\": [{points}]\n",
                "}}\n",
            ),
            schema = SWEEP_SCHEMA,
            name = json_escape(&self.name),
            protocol = json_escape(&self.protocol),
            n = self.n,
            app = json_escape(&self.app),
            clients = self.clients,
            duration = self.duration.as_secs_f64(),
            knee = knee,
            points = points.join(", "),
        )
    }

    /// The file name this report writes to.
    pub fn file_name(&self) -> String {
        format!("BENCH_rate_sweep_{}.json", sanitize_name(&self.name))
    }

    /// Writes the report into `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// A human-readable knee summary.
    pub fn summary_line(&self) -> String {
        match self.knee() {
            Some(p) => format!(
                "{}: knee ≈ {:.0} req/s offered ({:.0} achieved, p50 {} µs, p99 {} µs)",
                self.protocol, p.offered_rps, p.achieved_rps, p.p50_us, p.p99_us,
            ),
            None => format!(
                "{}: saturated at every offered rate (lowest {:.0} req/s)",
                self.protocol,
                self.points.first().map_or(0.0, |p| p.offered_rps),
            ),
        }
    }
}

/// Keeps report names shell- and filesystem-safe.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
        .collect()
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// the workspace has no serde, so every report writer shares this one.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{LatencyHistogram, Windows};

    fn sample_report() -> BenchReport {
        let mut hist = LatencyHistogram::new();
        let mut windows = Windows::new(Duration::from_secs(1));
        for us in [100u64, 200, 300, 400] {
            hist.record(Duration::from_micros(us));
            windows.record(Duration::from_millis(us));
        }
        let stats = LoadStats {
            issued: 4,
            completed: 4,
            timed_out: 0,
            elapsed: Duration::from_secs(2),
            hist,
            windows,
            per_shard_completed: vec![4],
        };
        BenchReport::from_stats(
            "unit test",
            "pbft",
            4,
            1,
            "counter",
            Workload::Counter,
            LoadMode::Closed,
            2,
            2,
            Duration::from_secs(2),
            BatchSummary { max_frames: 64, max_bytes: 262_144 },
            &stats,
            4,
        )
    }

    #[test]
    fn json_contains_every_schema_key() {
        let json = sample_report().to_json();
        for key in [
            "\"schema\"", "\"name\"", "\"protocol\"", "\"n\"", "\"f\"", "\"app\"",
            "\"workload\"", "\"mode\"", "\"offered_rps\"", "\"clients\"", "\"pipeline\"",
            "\"duration_secs\"", "\"batch\"", "\"requests\"", "\"issued\"", "\"completed\"",
            "\"timed_out\"", "\"committed\"", "\"throughput_rps\"", "\"latency_us\"",
            "\"p50\"", "\"p95\"", "\"p99\"", "\"max\"", "\"mean\"", "\"window_secs\"",
            "\"windows\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(json.contains(SCHEMA));
    }

    #[test]
    fn durability_section_serializes_when_present() {
        let json = sample_report().to_json();
        assert!(json.contains("\"durability\": null"), "absent by default:\n{json}");
        let with = sample_report().with_durability(DurabilitySummary {
            wal_group_commit_us: 200,
            fsyncs: 120,
            fsyncs_per_completed: Some(0.4),
        });
        let json = with.to_json();
        assert!(json.contains("\"wal_group_commit_us\": 200"), "{json}");
        assert!(json.contains("\"fsyncs\": 120"));
        assert!(json.contains("\"fsyncs_per_completed\": 0.400"));
    }

    #[test]
    fn sharding_section_is_omitted_until_attached() {
        let json = sample_report().to_json();
        assert!(
            !json.contains("sharding"),
            "single-shard reports must stay byte-identical to the pre-sharding schema:\n{json}"
        );
        let with = sample_report().with_sharding(ShardingSummary {
            shards: 2,
            per_shard_completed: vec![2, 2],
            per_shard_progress: vec![3, 2],
            per_shard_fsyncs: vec![0, 0],
            baseline_rps: Some(1.5),
            scaling_x: Some(1.333),
        });
        let json = with.to_json();
        assert!(json.contains("\"sharding\": {\"shards\": 2"), "{json}");
        assert!(json.contains("\"per_shard_completed\": [2, 2]"));
        assert!(json.contains("\"per_shard_progress\": [3, 2]"));
        assert!(json.contains("\"baseline_rps\": 1.500"));
        assert!(json.contains("\"scaling_x\": 1.333"));
    }

    #[test]
    fn metrics_section_is_omitted_until_attached() {
        let json = sample_report().to_json();
        assert!(
            !json.contains("metrics"),
            "reports without telemetry must stay byte-identical to the pre-metrics schema:\n{json}"
        );
        let with = sample_report().with_metrics(MetricsSummary {
            fsyncs: 120,
            ring_refusals: 3,
            reconnects: 2,
            queue_depth_high_water: 17,
            bytes_in: 4096,
            bytes_out: 8192,
            loop_waits: 900,
            socket_reads_empty: 5,
            client_request_frames: 40,
            client_requests: 640,
        });
        let json = with.to_json();
        assert!(json.contains("\"metrics\": {\"fsyncs\": 120"), "{json}");
        assert!(json.contains("\"ring_refusals\": 3"));
        assert!(json.contains("\"reconnects\": 2"));
        assert!(json.contains("\"queue_depth_high_water\": 17"));
        assert!(json.contains("\"bytes_in\": 4096"));
        assert!(json.contains("\"bytes_out\": 8192"));
        assert!(json.contains("\"loop_waits\": 900"));
        assert!(json.contains("\"socket_reads_empty\": 5"));
        assert!(json.contains("\"client_request_frames\": 40, \"client_requests\": 640}"));
    }

    #[test]
    fn name_is_sanitized_into_file_name() {
        let report = sample_report();
        assert_eq!(report.name, "unit_test");
        assert_eq!(report.file_name(), "BENCH_unit_test.json");
    }

    #[test]
    fn throughput_reflects_duration() {
        let report = sample_report();
        assert!((report.throughput_rps - 2.0).abs() < 1e-9);
    }

    #[test]
    fn write_and_read_back() {
        let dir = std::env::temp_dir().join("splitbft-loadgen-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = sample_report().write_to(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"protocol\": \"pbft\""));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn escaping_handles_quotes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    fn sweep_point(offered: f64, achieved: f64) -> SweepPoint {
        SweepPoint {
            offered_rps: offered,
            achieved_rps: achieved,
            p50_us: 500,
            p99_us: 2_000,
            timed_out: 0,
        }
    }

    #[test]
    fn sweep_knee_is_last_rate_the_cluster_keeps_up_with() {
        let sweep = RateSweepReport {
            name: "knee test".into(),
            protocol: "splitbft".into(),
            n: 4,
            app: "counter".into(),
            clients: 4,
            duration: Duration::from_secs(5),
            points: vec![
                sweep_point(100.0, 99.0),   // keeping up
                sweep_point(1_000.0, 980.0), // keeping up
                sweep_point(5_000.0, 3_100.0), // saturated
            ],
        };
        assert_eq!(sweep.knee().unwrap().offered_rps, 1_000.0);
        let json = sweep.to_json();
        assert!(json.contains(SWEEP_SCHEMA));
        assert!(json.contains("\"knee_offered_rps\": 1000.000"));
        assert!(json.contains("\"keeping_up\":false"));
        assert_eq!(sweep.file_name(), "BENCH_rate_sweep_knee_test.json");
    }

    #[test]
    fn sweep_with_no_sustainable_rate_has_no_knee() {
        let sweep = RateSweepReport {
            name: "flat".into(),
            protocol: "pbft".into(),
            n: 4,
            app: "counter".into(),
            clients: 4,
            duration: Duration::from_secs(5),
            points: vec![sweep_point(10_000.0, 2_000.0)],
        };
        assert!(sweep.knee().is_none());
        assert!(sweep.to_json().contains("\"knee_offered_rps\": null"));
        assert!(sweep.summary_line().contains("saturated"));
    }
}
