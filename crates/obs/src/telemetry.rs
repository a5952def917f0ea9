//! The per-node telemetry bundle.
//!
//! [`NodeTelemetry`] owns the node's [`Registry`], its bounded
//! [`EventJournal`], and the lifecycle flags (recovering / draining /
//! drained), and pre-registers a handle for every core series so the
//! layers that feed them (socket readers, rings, the hosting core, the
//! durable store mirror) update single atomics on their hot paths. The
//! same bundle answers both exposure surfaces: the `STATUS` frame
//! ([`NodeTelemetry::snapshot`] → a versioned
//! [`splitbft_types::NodeSnapshot`]) and the HTTP `/metrics` endpoint
//! ([`NodeTelemetry::render_prometheus`]).

use crate::journal::EventJournal;
use crate::registry::{Metric, Registry};
use splitbft_types::{NodeSnapshot, StatusEvent, SNAPSHOT_VERSION};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// How far behind the best peer checkpoint observed during recovery a
/// node may be and still report ready on `/readyz`. One checkpoint
/// interval of slack: the node is participating, just not at the exact
/// tip.
pub const READY_WATERMARK_GAP: u64 = 128;

/// One node's complete telemetry state. Cheap to share (`Arc`), safe to
/// update from any thread.
#[derive(Debug)]
pub struct NodeTelemetry {
    /// The underlying registry (for layer-specific extra series).
    pub registry: Arc<Registry>,
    /// The bounded structured event journal.
    pub journal: EventJournal,
    replica: u32,

    /// Highest executed sequence number (protocol progress).
    pub progress: Metric,
    /// The protocol's current view.
    pub view: Metric,
    /// View changes completed since startup.
    pub view_changes: Metric,
    /// Requests accepted but not yet executed.
    pub pending_requests: Metric,
    /// WAL fsyncs performed.
    pub fsyncs: Metric,
    /// Current WAL length in bytes.
    pub wal_bytes: Metric,
    /// Durable checkpoints sealed.
    pub checkpoint_seals: Metric,
    /// Successful peer-link reconnects.
    pub reconnects: Metric,
    /// Frames refused by bounded rings/queues.
    pub ring_refusals: Metric,
    /// Bytes read off the network.
    pub bytes_in: Metric,
    /// Bytes written to the network.
    pub bytes_out: Metric,
    /// Returns from the socket loop's readiness wait.
    pub loop_waits: Metric,
    /// Socket reads and accepts that found nothing (`WouldBlock`).
    pub socket_reads_empty: Metric,
    /// Client `REQUESTS` frames admitted to the protocol.
    pub client_request_frames: Metric,
    /// Requests those frames carried. On the primary, requests over
    /// frames is the mean proposal batch size.
    pub client_requests: Metric,
    /// High-water mark of the core event queue depth.
    pub queue_depth_high_water: Metric,
    /// Consensus groups hosted (1 for unsharded).
    pub shards: Metric,
    /// Best peer checkpoint sequence observed during recovery — the
    /// `/readyz` catch-up watermark.
    pub catchup_target: Metric,

    recovering: AtomicBool,
    draining: AtomicBool,
    drained: AtomicBool,
    recovering_gauge: Metric,
    draining_gauge: Metric,

    shard_progress: Mutex<Vec<Metric>>,
    shard_fsyncs: Mutex<Vec<Metric>>,
    shard_views: Mutex<Vec<Metric>>,
    shard_stable_checkpoints: Mutex<Vec<Metric>>,
}

impl NodeTelemetry {
    /// A fresh bundle for replica `replica` with every core series
    /// registered.
    pub fn new(replica: u32) -> Arc<Self> {
        let registry = Arc::new(Registry::new());
        let telemetry = NodeTelemetry {
            progress: registry
                .gauge("splitbft_progress", "highest executed sequence number"),
            view: registry.gauge("splitbft_view", "current protocol view"),
            view_changes: registry
                .counter("splitbft_view_changes_total", "view changes completed"),
            pending_requests: registry
                .gauge("splitbft_pending_requests", "requests accepted but not yet executed"),
            fsyncs: registry.counter("splitbft_fsyncs_total", "WAL fsyncs performed"),
            wal_bytes: registry.gauge("splitbft_wal_bytes", "current WAL length in bytes"),
            checkpoint_seals: registry
                .counter("splitbft_checkpoint_seals_total", "durable checkpoints sealed"),
            reconnects: registry
                .counter("splitbft_reconnects_total", "successful peer-link reconnects"),
            ring_refusals: registry.counter(
                "splitbft_ring_refusals_total",
                "frames refused by bounded rings and queues",
            ),
            bytes_in: registry.counter("splitbft_bytes_in_total", "bytes read off the network"),
            bytes_out: registry
                .counter("splitbft_bytes_out_total", "bytes written to the network"),
            loop_waits: registry.counter(
                "splitbft_loop_waits_total",
                "returns from the socket loop's readiness wait",
            ),
            socket_reads_empty: registry.counter(
                "splitbft_socket_reads_empty_total",
                "socket reads and accepts that returned WouldBlock",
            ),
            client_request_frames: registry.counter(
                "splitbft_client_request_frames_total",
                "client REQUESTS frames admitted to the protocol",
            ),
            client_requests: registry.counter(
                "splitbft_client_requests_total",
                "client requests admitted to the protocol",
            ),
            queue_depth_high_water: registry.gauge(
                "splitbft_queue_depth_high_water",
                "high-water mark of the core event queue depth",
            ),
            shards: registry.gauge("splitbft_shards", "consensus groups hosted"),
            catchup_target: registry.gauge(
                "splitbft_catchup_target",
                "best peer checkpoint sequence observed during recovery",
            ),
            recovering: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            recovering_gauge: registry
                .gauge("splitbft_recovering", "1 while startup recovery or catch-up runs"),
            draining_gauge: registry
                .gauge("splitbft_draining", "1 once a graceful drain was requested"),
            shard_progress: Mutex::new(Vec::new()),
            shard_fsyncs: Mutex::new(Vec::new()),
            shard_views: Mutex::new(Vec::new()),
            shard_stable_checkpoints: Mutex::new(Vec::new()),
            journal: EventJournal::default(),
            replica,
            registry: Arc::clone(&registry),
        };
        telemetry.shards.set(1);
        registry.gauge_with(
            "splitbft_replica",
            &[("replica", &replica.to_string())],
            "the replica id answering this endpoint (value is always 1)",
        )
        .set(1);
        Arc::new(telemetry)
    }

    /// The replica this bundle belongs to.
    pub fn replica(&self) -> u32 {
        self.replica
    }

    /// Appends one typed event to the journal, returning its sequence.
    pub fn record_event(&self, event: StatusEvent) -> u64 {
        self.journal.record(event)
    }

    /// Publishes the per-shard gauge vectors, registering labeled
    /// series on first sight of each shard index.
    pub fn set_shard_gauges(&self, progress: &[u64], fsyncs: &[u64]) {
        self.shards.set(progress.len().max(1) as u64);
        Self::publish_shard(
            &self.registry,
            &mut self.shard_progress.lock().expect("shard metrics"),
            "splitbft_shard_progress",
            "per-shard highest executed sequence number",
            progress,
        );
        Self::publish_shard(
            &self.registry,
            &mut self.shard_fsyncs.lock().expect("shard metrics"),
            "splitbft_shard_fsyncs",
            "per-shard WAL fsync count",
            fsyncs,
        );
    }

    fn publish_shard(
        registry: &Registry,
        metrics: &mut Vec<Metric>,
        name: &str,
        help: &str,
        values: &[u64],
    ) {
        while metrics.len() < values.len() {
            let shard = metrics.len().to_string();
            metrics.push(registry.gauge_with(name, &[("shard", &shard)], help));
        }
        for (metric, value) in metrics.iter().zip(values) {
            metric.set(*value);
        }
    }

    /// The per-shard progress last published (one entry when unsharded).
    pub fn shard_progress(&self) -> Vec<u64> {
        self.shard_progress.lock().expect("shard metrics").iter().map(Metric::get).collect()
    }

    /// The per-shard fsync counts last published.
    pub fn shard_fsyncs(&self) -> Vec<u64> {
        self.shard_fsyncs.lock().expect("shard metrics").iter().map(Metric::get).collect()
    }

    /// Publishes per-shard view gauges (one labeled series per shard).
    pub fn set_shard_views(&self, views: &[u64]) {
        Self::publish_shard(
            &self.registry,
            &mut self.shard_views.lock().expect("shard metrics"),
            "splitbft_shard_view",
            "per-shard current view",
            views,
        );
    }

    /// Publishes each group's latest stable checkpoint (one labeled
    /// series per shard). Read against `splitbft_shard_progress`: a group
    /// whose stable checkpoint is ahead of its progress has fallen behind
    /// what a quorum certified and is waiting on a state transfer.
    pub fn set_stable_checkpoints(&self, stable: &[u64]) {
        Self::publish_shard(
            &self.registry,
            &mut self.shard_stable_checkpoints.lock().expect("shard metrics"),
            "splitbft_stable_checkpoint",
            "per-shard latest stable checkpoint sequence number",
            stable,
        );
    }

    /// Marks the start/end of startup recovery & catch-up.
    pub fn set_recovering(&self, recovering: bool) {
        self.recovering.store(recovering, Ordering::SeqCst);
        self.recovering_gauge.set(recovering as u64);
    }

    /// `true` while startup recovery / catch-up runs.
    pub fn recovering(&self) -> bool {
        self.recovering.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain. Returns `true` the first time (the
    /// caller then records follow-up actions); repeat requests are
    /// idempotent no-ops.
    pub fn request_drain(&self) -> bool {
        let first = !self.draining.swap(true, Ordering::SeqCst);
        if first {
            self.draining_gauge.set(1);
            self.record_event(StatusEvent::DrainRequested);
        }
        first
    }

    /// `true` once a drain was requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Marks the drain finished (checkpoint sealed, WAL flushed, no
    /// pending requests). Idempotent.
    pub fn complete_drain(&self) {
        if !self.drained.swap(true, Ordering::SeqCst) {
            self.record_event(StatusEvent::DrainCompleted);
        }
    }

    /// `true` once the drain finished.
    pub fn drained(&self) -> bool {
        self.drained.load(Ordering::SeqCst)
    }

    /// `/readyz` semantics: recovered, caught up to within
    /// [`READY_WATERMARK_GAP`] of the best peer checkpoint observed
    /// during recovery, and not draining.
    pub fn ready(&self) -> bool {
        !self.recovering()
            && !self.draining()
            && self.progress.get() + READY_WATERMARK_GAP >= self.catchup_target.get()
    }

    /// Renders the node's registry as Prometheus exposition text.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// A versioned point-in-time copy of every gauge, served for
    /// `STATUS` snapshot requests.
    pub fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            version: SNAPSHOT_VERSION,
            replica: self.replica,
            progress: self.progress.get(),
            view: self.view.get(),
            view_changes: self.view_changes.get(),
            pending_requests: self.pending_requests.get(),
            fsyncs: self.fsyncs.get(),
            wal_bytes: self.wal_bytes.get(),
            checkpoint_seals: self.checkpoint_seals.get(),
            reconnects: self.reconnects.get(),
            ring_refusals: self.ring_refusals.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            queue_depth_high_water: self.queue_depth_high_water.get(),
            shard_progress: self.shard_progress(),
            shard_fsyncs: self.shard_fsyncs(),
            recovering: self.recovering(),
            draining: self.draining(),
            drained: self.drained(),
            journal_head: self.journal.head(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_mirrors_gauges_and_flags() {
        let telemetry = NodeTelemetry::new(3);
        telemetry.progress.set(500);
        telemetry.view.set(2);
        telemetry.fsyncs.set(41);
        telemetry.set_shard_gauges(&[250, 250], &[20, 21]);
        telemetry.record_event(StatusEvent::ViewChange { view: 2 });
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.version, SNAPSHOT_VERSION);
        assert_eq!(snapshot.replica, 3);
        assert_eq!(snapshot.progress, 500);
        assert_eq!(snapshot.view, 2);
        assert_eq!(snapshot.fsyncs, 41);
        assert_eq!(snapshot.shard_progress, vec![250, 250]);
        assert_eq!(snapshot.shard_fsyncs, vec![20, 21]);
        assert_eq!(snapshot.journal_head, 1);
        assert!(!snapshot.draining);
    }

    #[test]
    fn drain_lifecycle_is_idempotent_and_journaled() {
        let telemetry = NodeTelemetry::new(0);
        assert!(telemetry.request_drain(), "first request wins");
        assert!(!telemetry.request_drain(), "repeat is a no-op");
        assert!(telemetry.draining());
        assert!(!telemetry.drained());
        telemetry.complete_drain();
        telemetry.complete_drain();
        assert!(telemetry.drained());
        let events: Vec<StatusEvent> =
            telemetry.journal.since(0).into_iter().map(|(_, e)| e).collect();
        assert_eq!(events, vec![StatusEvent::DrainRequested, StatusEvent::DrainCompleted]);
    }

    #[test]
    fn readiness_tracks_recovery_catchup_and_drain() {
        let telemetry = NodeTelemetry::new(0);
        assert!(telemetry.ready(), "fresh node with no catch-up target is ready");
        telemetry.set_recovering(true);
        assert!(!telemetry.ready());
        telemetry.set_recovering(false);
        telemetry.catchup_target.set(10_000);
        assert!(!telemetry.ready(), "far behind the watermark");
        telemetry.progress.set(10_000 - READY_WATERMARK_GAP);
        assert!(telemetry.ready(), "within the gap counts as caught up");
        telemetry.request_drain();
        assert!(!telemetry.ready(), "a draining node stops reporting ready");
    }

    #[test]
    fn prometheus_output_includes_core_and_shard_series() {
        let telemetry = NodeTelemetry::new(1);
        telemetry.progress.set(7);
        telemetry.set_shard_gauges(&[3, 4], &[1, 1]);
        telemetry.set_shard_views(&[0, 2]);
        telemetry.set_stable_checkpoints(&[128, 0]);
        let text = telemetry.render_prometheus();
        for series in [
            "splitbft_progress 7",
            "splitbft_view ",
            "splitbft_fsyncs_total ",
            "splitbft_queue_depth_high_water ",
            "splitbft_loop_waits_total 0",
            "splitbft_socket_reads_empty_total 0",
            "splitbft_client_request_frames_total 0",
            "splitbft_client_requests_total 0",
            "splitbft_shards 2",
            "splitbft_shard_progress{shard=\"0\"} 3",
            "splitbft_shard_progress{shard=\"1\"} 4",
            "splitbft_shard_view{shard=\"1\"} 2",
            "splitbft_stable_checkpoint{shard=\"0\"} 128",
            "splitbft_replica{replica=\"1\"} 1",
        ] {
            assert!(text.contains(series), "missing {series:?} in:\n{text}");
        }
    }
}
