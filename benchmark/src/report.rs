//! Turns workload runs into the metric tables: the five end-to-end
//! metrics of an untraced run, and the per-layer metrics of a traced
//! one.

use crate::calib::{Calibrator, CAL_REF_NS};
use crate::metrics::{Scope, Values};
use crate::probes;
use crate::pump;
use crate::sock;
use crate::sut;
use crate::trace::{self, NameTotals};
use crate::workloads::{self, Kind, PumpOptions, PumpReport, ScratchDir, Sizing, Spec, Stack};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Spans written to `out/trace-<workload>.jsonl` at most (the rest
/// still count in every total).
const TRACE_FILE_SPANS: usize = 200_000;
/// Fresh clusters per fail-over median.
const FAILOVER_CLUSTERS: usize = 50;

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics, by name.
    pub values: Values,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that timed out, did not verify, or returned a wrong
    /// result.
    pub failed: u64,
    /// Oracle violations; empty when the run is correct.
    pub violations: Vec<String>,
    /// Human-readable notes for the report header and body.
    pub notes: String,
}

impl Outcome {
    /// `true` when every request succeeded and every oracle held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    fn absorb(&mut self, report: &PumpReport, what: &str) {
        self.attempted += report.attempted;
        self.failed += report.failures.total();
        if report.failures.total() > 0 {
            self.violations
                .push(format!("{what}: {:?}", report.failures));
        }
        self.violations
            .extend(report.violations.iter().map(|v| format!("{what}: {v}")));
    }
}

/// The socket run needs three of the CLI's 1 s windows to keep one
/// after dropping the ramp-up and the trailing partial window.
const MIN_SOCK_SECONDS: f64 = 3.0;

/// The traced run does a quarter of the untraced run's windows.
fn quarter(sizing: Sizing) -> Sizing {
    Sizing {
        windows: (sizing.windows / 4).max(workloads::MIN_WINDOWS),
        ..sizing
    }
}

/// The untraced run: the five end-to-end metrics.
///
/// # Errors
///
/// Set-up failures (I/O, a missing `splitbft-node`).
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, node: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match spec.kind {
        Kind::Pump(stack) => {
            let sizing = spec.sizing(seconds);
            let options = PumpOptions {
                setups: spec.setups,
                ..PumpOptions::default()
            };
            let report = workloads::run_pump(stack, spec, seed, sizing, options)?;
            out.absorb(&report, spec.name);
            let requests = report.run.requests.max(1) as f64;
            out.values
                .set("throughput_rps", report.summary.throughput_rps);
            out.values
                .set("latency_p50_us", report.summary.latency_p50_us);
            out.values.set(
                "net_bytes_per_req",
                report.run.net.replica_bytes_out() as f64 / requests,
            );
            out.values.set("peak_rss_mb", report.peak_rss_mb);
            out.values.set("setup_s", report.setup_s);
            let _ = writeln!(
                out.notes,
                "{}: {} windows of {} requests, pipeline {}, closed loop, 1 client; \
                 raw {:.0} req/s, p50 {:.1} us; cal {:.0} ns; window IQR {:.2} %; \
                 set-up x{} raw {:.4} s",
                spec.name,
                sizing.windows,
                sizing.window_requests,
                spec.pipeline,
                report.summary.wall_throughput_rps,
                report.summary.wall_latency_p50_us,
                report.summary.cal_ns,
                report.summary.window_iqr_pct,
                spec.setups,
                report.wall_setup_s,
            );
        }
        Kind::Sock => {
            let scratch = ScratchDir::create()?;
            let duration = Duration::from_secs_f64(seconds.max(MIN_SOCK_SECONDS));
            let report = sock::run(node, seed, duration, spec.setups, scratch.path())?;
            out.attempted = report.attempted;
            out.failed = report.failed;
            out.violations = report.violations.clone();
            out.values.set("throughput_rps", report.throughput_rps);
            out.values.set("latency_p50_us", report.latency_p50_us);
            out.values
                .set("net_bytes_per_req", report.bytes_out_per_req);
            out.values.set("peak_rss_mb", report.peak_rss_mb);
            out.values.set("setup_s", report.setup_s);
            let _ = writeln!(
                out.notes,
                "{}: splitbft-node bench, evented, 1 client x pipeline 16, closed loop, {:.1} s; \
                 raw {:.0} req/s, p50 {:.0} us; cal {:.0} ns (thread CPU clock); \
                 peak RSS after the run {:.1} MB",
                spec.name,
                duration.as_secs_f64(),
                report.wall_throughput_rps,
                report.wall_latency_p50_us,
                report.cal_ns,
                report.peak_rss_loaded_mb,
            );
        }
    }
    Ok(out)
}

fn us_per_req(ns: u64, requests: f64, cal_ns: f64) -> f64 {
    ns as f64 / 1e3 / requests * CAL_REF_NS / cal_ns
}

/// Per-layer times from the spans of a traced run.
fn span_metrics(report: &PumpReport, stack: Stack, out: &mut Outcome) {
    let totals = trace::totals_by_name(report.tracer.spans());
    let requests = report.run.requests.max(1) as f64;
    let cal = report.summary.cal_ns;
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let total = |name: &str| us_per_req(get(name).total_ns, requests, cal);
    let own = |name: &str| us_per_req(get(name).self_ns, requests, cal);

    out.values
        .set("loadgen.issue_us_per_req", own("loadgen.issue"));
    out.values
        .set("loadgen.verify_us_per_req", own("loadgen.verify"));
    out.values
        .set("types.encode_us_per_req", total("types.encode"));
    out.values
        .set("types.decode_us_per_req", total("types.decode"));
    out.values.set(
        "types.frame_us_per_req",
        total("types.frame") + total("types.parse_frame"),
    );
    out.values
        .set("store.flush_us_per_req", total("proto.flush_durable"));
    out.values.set("pump.glue_us_per_req", own(pump::ROOT_SPAN));

    let handlers: u64 = totals
        .iter()
        .filter(|(name, _)| name.starts_with("proto.on_"))
        .map(|(_, t)| t.total_ns)
        .sum();
    let roots = get(pump::ROOT_SPAN).total_ns.max(1);
    let share = handlers as f64 / roots as f64 * 100.0;
    let handler_metrics: [(&'static str, &'static str, &str); 5] = [
        (
            "core.on_client_requests_us_per_req",
            "pbft.on_client_requests_us_per_req",
            "proto.on_client_requests",
        ),
        (
            "core.on_preprepare_us_per_req",
            "pbft.on_preprepare_us_per_req",
            "proto.on_preprepare",
        ),
        (
            "core.on_prepare_us_per_req",
            "pbft.on_prepare_us_per_req",
            "proto.on_prepare",
        ),
        (
            "core.on_commit_us_per_req",
            "pbft.on_commit_us_per_req",
            "proto.on_commit",
        ),
        (
            "core.on_checkpoint_us_per_req",
            "pbft.on_checkpoint_us_per_req",
            "proto.on_checkpoint",
        ),
    ];
    let pbft = stack == Stack::PbftCounter;
    for (core, pbft_name, span) in handler_metrics {
        out.values
            .set(if pbft { pbft_name } else { core }, total(span));
    }
    out.values.set(
        if pbft {
            "pbft.self_share_pct"
        } else {
            "core.self_share_pct"
        },
        share,
    );

    // The blocking path, layer by layer: self times partition the root
    // spans, so the shares add up to 100 %.
    let by_self: BTreeMap<&str, NameTotals> = totals.into_iter().collect();
    let _ = writeln!(
        out.notes,
        "self time per request and share of the root spans ({requests} requests):"
    );
    for (name, t) in &by_self {
        let _ = writeln!(
            out.notes,
            "  {name:<28} {:>9.3} us/req {:>6.2} %  ({} spans)",
            us_per_req(t.self_ns, requests, cal),
            t.self_ns as f64 / roots as f64 * 100.0,
            t.count,
        );
    }
    let _ = writeln!(
        out.notes,
        "  sum of self times / root spans = {:.4}",
        trace::self_over_roots(report.tracer.spans(), pump::ROOT_SPAN)
    );
}

/// Metrics that do not depend on the workload ([`Scope::Once`]):
/// direct probes, the fault scenarios and the hybrid side pump.
fn side_metrics(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let scratch = ScratchDir::create()?;
    let mut calibrator = Calibrator::new();
    let probes = sut::probes(scratch.path()).map_err(|e| format!("probe set-up: {e}"))?;
    for (metric, value) in probes::run(probes, &mut calibrator) {
        out.values.set(metric, value);
    }

    for stack in [Stack::SplitCounter, Stack::PbftCounter] {
        if let Err(violation) = workloads::silent_backup_scenario(stack, seed) {
            out.violations.push(violation);
        }
    }
    match workloads::failover_scenario(Stack::SplitCounter, seed, FAILOVER_CLUSTERS) {
        Ok((us, msgs)) => {
            out.values.set("core.failover_us", us);
            out.values.set("core.failover_msgs", msgs);
        }
        Err(violation) => out.violations.push(violation),
    }
    match workloads::failover_scenario(Stack::PbftCounter, seed, FAILOVER_CLUSTERS) {
        Ok((us, _)) => out.values.set("pbft.failover_us", us),
        Err(violation) => out.violations.push(violation),
    }

    let batched = workloads::find("pbft-batched").expect("pbft-batched exists");
    let hybrid = Spec {
        name: "hybrid",
        ..*batched
    };
    let sizing = Sizing {
        window_requests: 512,
        windows: 20,
        warmup_requests: 1024,
    };
    let report = workloads::run_pump(
        Stack::HybridCounter,
        &hybrid,
        seed,
        sizing,
        PumpOptions::default(),
    )?;
    out.absorb(&report, "hybrid side pump");
    out.values.set(
        "hybrid.round_us_per_req",
        1e6 / report.summary.throughput_rps,
    );
    Ok(())
}

fn loadgen_metrics(report: &PumpReport, out: &mut Outcome) {
    let s = &report.summary;
    out.values.set("loadgen.latency_tail_us", s.latency_tail_us);
    out.values
        .set("loadgen.latency_tail_pct", s.tail_pct * 100.0);
    out.values
        .set("loadgen.samples_per_window", s.samples_per_window as f64);
    out.values
        .set("loadgen.wall_throughput_rps", s.wall_throughput_rps);
    out.values
        .set("loadgen.wall_latency_p50_us", s.wall_latency_p50_us);
    out.values.set("loadgen.cal_ns", s.cal_ns);
    out.values.set("loadgen.window_iqr_pct", s.window_iqr_pct);
}

fn count_metrics(report: &PumpReport, out: &mut Outcome) {
    let requests = report.run.requests.max(1) as f64;
    let net = &report.run.net;
    out.values
        .set("types.msgs_per_req", net.replica_msgs() as f64 / requests);
    out.values.set(
        "types.bytes_per_msg",
        net.replica_bytes_out() as f64 / net.replica_msgs().max(1) as f64,
    );
    out.values
        .set("store.fsyncs_per_req", report.fsyncs as f64 / requests);
    out.values
        .set("shard.imbalance_pct", report.shard_imbalance_pct);
    out.values
        .set("mem.allocs_per_req", report.allocs.0 as f64 / requests);
    out.values
        .set("mem.alloc_bytes_per_req", report.allocs.1 as f64 / requests);
    if let Some([prep, conf, exec]) = report.tee {
        let sum = |f: fn(&sut::TeeStats) -> u64| (f(&prep) + f(&conf) + f(&exec)) as f64 / requests;
        out.values.set("tee.ecalls_per_req", sum(|s| s.ecalls));
        out.values.set("tee.ocalls_per_req", sum(|s| s.ocalls));
        out.values.set("tee.bytes_in_per_req", sum(|s| s.bytes_in));
        out.values
            .set("tee.bytes_out_per_req", sum(|s| s.bytes_out));
        out.values.set(
            "tee.boundary_model_us_per_req",
            sum(|s| s.boundary_ns) / 1e3,
        );
        out.values
            .set("core.prep_ecalls_per_req", prep.ecalls as f64 / requests);
        out.values
            .set("core.conf_ecalls_per_req", conf.ecalls as f64 / requests);
        out.values
            .set("core.exec_ecalls_per_req", exec.ecalls as f64 / requests);
    }
}

/// The traced run: every per-layer metric. Pump workloads run at a
/// quarter of the request count, once untraced (counts, allocation
/// counting, the throughput tracing is compared with) and once with
/// spans; `split-kvs-durable` adds its volatile twin.
///
/// # Errors
///
/// Set-up failures (I/O, a missing `splitbft-node`).
pub fn per_layer(spec: &Spec, seed: u64, seconds: f64, node: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match spec.kind {
        Kind::Pump(stack) => {
            let requests = quarter(spec.sizing(seconds));
            let counted = PumpOptions {
                count_allocs: true,
                ..PumpOptions::default()
            };
            let base = workloads::run_pump(stack, spec, seed, requests, counted)?;
            out.absorb(&base, "untraced");
            loadgen_metrics(&base, &mut out);
            count_metrics(&base, &mut out);

            let spans = PumpOptions {
                traced: true,
                ..PumpOptions::default()
            };
            let traced = workloads::run_pump(stack, spec, seed, requests, spans)?;
            out.absorb(&traced, "traced");
            span_metrics(&traced, stack, &mut out);
            out.values.set(
                "trace.overhead_pct",
                (base.summary.throughput_rps - traced.summary.throughput_rps)
                    / base.summary.throughput_rps
                    * 100.0,
            );
            let path = workloads::out_dir().join(format!("trace-{}.jsonl", spec.name));
            std::fs::File::create(&path)
                .and_then(|file| {
                    let mut file = std::io::BufWriter::new(file);
                    trace::write_jsonl(traced.tracer.spans(), TRACE_FILE_SPANS, &mut file)?;
                    std::io::Write::flush(&mut file)
                })
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            let _ = writeln!(
                out.notes,
                "{} spans recorded, first {} written to {}",
                traced.tracer.spans().len(),
                traced.tracer.spans().len().min(TRACE_FILE_SPANS),
                path.display()
            );

            if stack == Stack::SplitKvsDurable {
                let twin = workloads::run_pump(
                    Stack::SplitKvsVolatile,
                    spec,
                    seed,
                    requests,
                    PumpOptions::default(),
                )?;
                out.absorb(&twin, "volatile twin");
                let twin_requests = twin.run.requests.max(1) as f64;
                out.values.set(
                    "store.wal_bytes_per_req",
                    twin.events.wal_bytes as f64 / twin_requests,
                );
                out.values.set(
                    "store.seals_per_kreq",
                    twin.events.stable_checkpoints as f64 / twin_requests * 1e3,
                );
                out.values.set(
                    "store.overhead_us_per_req",
                    1e6 / base.summary.throughput_rps - 1e6 / twin.summary.throughput_rps,
                );
            }
        }
        Kind::Sock => {
            let scratch = ScratchDir::create()?;
            let duration = Duration::from_secs_f64((seconds / 2.0).max(MIN_SOCK_SECONDS));
            let report = sock::run(node, seed, duration, 1, scratch.path())?;
            out.attempted = report.attempted;
            out.failed = report.failed;
            out.violations = report.violations.clone();
            out.values
                .set("loadgen.wall_throughput_rps", report.wall_throughput_rps);
            out.values
                .set("loadgen.wall_latency_p50_us", report.wall_latency_p50_us);
            out.values.set("loadgen.cal_ns", report.cal_ns);
            out.values
                .set("net.bytes_in_per_req", report.bytes_in_per_req);
            out.values
                .set("net.bytes_out_per_req", report.bytes_out_per_req);
            out.values.set("net.ring_refusals", report.ring_refusals);
            out.values
                .set("net.queue_depth_high_water", report.queue_depth_high_water);
            out.values.set("net.reconnects", report.reconnects);
            out.values.set("net.cpu_us_per_req", report.cpu_us_per_req);
            out.values.set("net.latency_p99_us", report.latency_p99_us);

            // What the transport costs: the same shape in the pump.
            let batched = workloads::find("split-batched").expect("split-batched exists");
            let requests = quarter(batched.sizing(seconds));
            let Kind::Pump(stack) = batched.kind else {
                unreachable!("split-batched is a pump workload")
            };
            let pump = workloads::run_pump(stack, batched, seed, requests, PumpOptions::default())?;
            out.absorb(&pump, "split-batched for net.sock_over_pump");
            out.values.set(
                "net.sock_over_pump",
                pump.summary.throughput_rps / report.throughput_rps,
            );
        }
    }
    let pbft = spec.kind == Kind::Pump(Stack::PbftCounter);
    let (throughput, ecall_us) = sut::sim_prediction(pbft, spec.pipeline, seed);
    out.values.set("sim.predicted_throughput_rps", throughput);
    out.values.set("sim.predicted_ecall_us_per_req", ecall_us);
    if Scope::Once.covers(spec) {
        side_metrics(seed, &mut out)?;
    }
    Ok(out)
}
