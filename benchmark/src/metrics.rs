//! The metric names, units and directions — the same table that
//! `BENCHMARK.json` holds (a test compares the two) — and which
//! workloads each metric is measured on.

use crate::workloads::{Kind, Spec, Stack};
use std::collections::BTreeMap;

/// Which workloads a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every workload.
    All,
    /// The four pump workloads.
    Pump,
    /// The pump workloads that host SplitBFT.
    SplitPump,
    /// `split-lockstep` and `split-batched`: SplitBFT replicas the
    /// benchmark holds directly.
    SplitCounter,
    /// `pbft-batched`.
    Pbft,
    /// `split-kvs-durable`.
    Durable,
    /// `split-sock`.
    Sock,
    /// Does not depend on the workload (direct probes, fault
    /// scenarios, the hybrid side pump): measured once, in the traced
    /// run of [`ONCE_ON`].
    Once,
}

/// The workload whose traced run carries the [`Scope::Once`] metrics.
pub const ONCE_ON: &str = "split-sock";

impl Scope {
    /// Whether the metric is measured on `spec`.
    pub fn covers(self, spec: &Spec) -> bool {
        let pump = matches!(spec.kind, Kind::Pump(_));
        match self {
            Scope::All => true,
            Scope::Pump => pump,
            Scope::SplitPump => pump && spec.kind != Kind::Pump(Stack::PbftCounter),
            Scope::SplitCounter => spec.kind == Kind::Pump(Stack::SplitCounter),
            Scope::Pbft => spec.kind == Kind::Pump(Stack::PbftCounter),
            Scope::Durable => spec.kind == Kind::Pump(Stack::SplitKvsDurable),
            Scope::Sock => spec.kind == Kind::Sock,
            Scope::Once => spec.name == ONCE_ON,
        }
    }

    /// Why a metric of this scope reads `n/a` on the other workloads.
    pub fn reason(self) -> &'static str {
        match self {
            Scope::All => "",
            Scope::Pump => "spans and counts exist in the pump only",
            Scope::SplitPump => "the workload does not run SplitBFT in the pump",
            Scope::SplitCounter => {
                "no SplitBftReplica::stats(kind) in reach (Sharded hides its replicas)"
            }
            Scope::Pbft => "the workload does not run PBFT",
            Scope::Durable => "the workload has no durable store",
            Scope::Sock => "the workload does not use sockets",
            Scope::Once => "workload-independent: measured once, on split-sock",
        }
    }
}

/// `(name, unit, better, measured on)`.
pub type MetricDef = (&'static str, &'static str, &'static str, Scope);

use Scope::{All, Durable, Once, Pbft, Pump, Sock, SplitCounter, SplitPump};

/// What a user of the system sees, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    ("throughput_rps", "1/s", "higher", All),
    ("latency_p50_us", "us", "lower", All),
    ("net_bytes_per_req", "B", "lower", All),
    ("peak_rss_mb", "MB", "lower", All),
    ("setup_s", "s", "lower", All),
];

/// One layer each; the prefix is the crate the number belongs to.
pub const PER_LAYER: &[MetricDef] = &[
    ("loadgen.issue_us_per_req", "us", "lower", Pump),
    ("loadgen.verify_us_per_req", "us", "lower", Pump),
    ("loadgen.latency_tail_us", "us", "lower", Pump),
    ("loadgen.latency_tail_pct", "%", "higher", Pump),
    ("loadgen.samples_per_window", "count", "higher", Pump),
    ("loadgen.wall_throughput_rps", "1/s", "higher", All),
    ("loadgen.wall_latency_p50_us", "us", "lower", All),
    ("loadgen.cal_ns", "ns", "lower", All),
    ("loadgen.window_iqr_pct", "%", "lower", Pump),
    ("types.encode_us_per_req", "us", "lower", Pump),
    ("types.decode_us_per_req", "us", "lower", Pump),
    ("types.frame_us_per_req", "us", "lower", Pump),
    ("types.msgs_per_req", "count", "lower", Pump),
    ("types.bytes_per_msg", "B", "lower", Pump),
    ("crypto.hmac_tag_ns_64b", "ns", "lower", Once),
    ("crypto.sha256_ns_per_kib", "ns", "lower", Once),
    ("crypto.sign_us", "us", "lower", Once),
    ("crypto.verify_us", "us", "lower", Once),
    ("crypto.aead_seal_ns_per_kib", "ns", "lower", Once),
    ("tee.ecalls_per_req", "count", "lower", SplitCounter),
    ("tee.ocalls_per_req", "count", "lower", SplitCounter),
    ("tee.bytes_in_per_req", "B", "lower", SplitCounter),
    ("tee.bytes_out_per_req", "B", "lower", SplitCounter),
    ("tee.boundary_model_us_per_req", "us", "lower", SplitCounter),
    ("tee.ecall_noop_ns", "ns", "lower", Once),
    (
        "core.on_client_requests_us_per_req",
        "us",
        "lower",
        SplitPump,
    ),
    ("core.on_preprepare_us_per_req", "us", "lower", SplitPump),
    ("core.on_prepare_us_per_req", "us", "lower", SplitPump),
    ("core.on_commit_us_per_req", "us", "lower", SplitPump),
    ("core.on_checkpoint_us_per_req", "us", "lower", SplitPump),
    ("core.prep_ecalls_per_req", "count", "lower", SplitCounter),
    ("core.conf_ecalls_per_req", "count", "lower", SplitCounter),
    ("core.exec_ecalls_per_req", "count", "lower", SplitCounter),
    ("core.self_share_pct", "%", "lower", SplitPump),
    ("core.failover_us", "us", "lower", Once),
    ("core.failover_msgs", "count", "lower", Once),
    ("pbft.on_client_requests_us_per_req", "us", "lower", Pbft),
    ("pbft.on_preprepare_us_per_req", "us", "lower", Pbft),
    ("pbft.on_prepare_us_per_req", "us", "lower", Pbft),
    ("pbft.on_commit_us_per_req", "us", "lower", Pbft),
    ("pbft.on_checkpoint_us_per_req", "us", "lower", Pbft),
    ("pbft.self_share_pct", "%", "lower", Pbft),
    ("pbft.failover_us", "us", "lower", Once),
    ("hybrid.round_us_per_req", "us", "lower", Once),
    ("app.counter_exec_ns", "ns", "lower", Once),
    ("app.kvs_put_ns", "ns", "lower", Once),
    ("app.kvs_get_ns", "ns", "lower", Once),
    ("app.kvs_snapshot_us_1mib", "us", "lower", Once),
    ("store.fsyncs_per_req", "count", "lower", Pump),
    ("store.wal_bytes_per_req", "B", "lower", Durable),
    ("store.seals_per_kreq", "count", "lower", Durable),
    ("store.flush_us_per_req", "us", "lower", Durable),
    ("store.overhead_us_per_req", "us", "lower", Durable),
    ("store.wal_append_us", "us", "lower", Once),
    ("store.wal_sync_us_disk", "us", "lower", Once),
    ("shard.route_ns_per_req", "ns", "lower", Once),
    ("shard.imbalance_pct", "%", "lower", Durable),
    ("net.bytes_in_per_req", "B", "lower", Sock),
    ("net.bytes_out_per_req", "B", "lower", Sock),
    ("net.ring_refusals", "count", "lower", Sock),
    ("net.queue_depth_high_water", "count", "lower", Sock),
    ("net.reconnects", "count", "lower", Sock),
    ("net.cpu_us_per_req", "us", "lower", Sock),
    ("net.latency_p99_us", "us", "lower", Sock),
    ("net.sock_over_pump", "ratio", "lower", Sock),
    ("obs.hist_record_ns", "ns", "lower", Once),
    ("obs.counter_inc_ns", "ns", "lower", Once),
    ("mem.allocs_per_req", "count", "lower", Pump),
    ("mem.alloc_bytes_per_req", "B", "lower", Pump),
    ("sim.predicted_throughput_rps", "1/s", "higher", All),
    ("sim.predicted_ecall_us_per_req", "us", "lower", All),
    ("pump.glue_us_per_req", "us", "lower", Pump),
    ("trace.overhead_pct", "%", "lower", Pump),
];

/// Metric values by name; [`Values::ordered`] lays them out as one of
/// the tables above.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// If `name` is in neither table: a typo would otherwise report 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, ..)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// One metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every metric of `table` in table order, with its unit; `None`
    /// where the metric is not measured on `spec`.
    ///
    /// # Panics
    ///
    /// If a metric that is measured on `spec` was never set.
    pub fn ordered(
        &self,
        table: &[MetricDef],
        spec: &Spec,
    ) -> Vec<(&'static str, Option<f64>, &'static str)> {
        table
            .iter()
            .map(|&(name, unit, _, scope)| {
                let value = scope.covers(spec).then(|| {
                    self.get(name)
                        .unwrap_or_else(|| panic!("{name} was not measured on {}", spec.name))
                });
                (name, value, unit)
            })
            .collect()
    }
}
