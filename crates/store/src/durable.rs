//! [`DurableProtocol`] — the hosting wrapper that makes any
//! [`Protocol`] durable.
//!
//! The wrapper interposes on every handler call: after the inner state
//! machine processes an input, its freshly recorded
//! [`DurableEvent`]s are appended to the WAL and fsynced **before** the
//! handler's outputs are returned to the runtime for routing. A crash
//! at any point therefore never "un-happens" anything the cluster may
//! already have observed from this replica.
//!
//! Checkpoints bound the log: whenever the inner protocol reports a new
//! stable checkpoint, its [`DurableCheckpoint`] is sealed to disk (see
//! [`crate::sealed`]) and the WAL is atomically rewritten down to the
//! records still needed beyond it — bounded disk growth under sustained
//! load.
//!
//! [`DurableProtocol::recover`] is the restart path: newest valid
//! sealed checkpoint (corrupt ones are skipped with typed errors),
//! then WAL replay, then normal hosting. Whatever the local data could
//! not cover is fetched from peers by the runtime's state-transfer
//! client (`splitbft-net`).
//!
//! # Group commit
//!
//! One fsync per handler call is the durability plane's throughput
//! ceiling: under load the core loop drains events far faster than a
//! disk can sync. [`DurableProtocol::with_group_commit`] moves the
//! fsync to the runtime's batch boundary — handler calls append their
//! WAL records *without* syncing and withhold their outputs; the
//! runtime's [`Protocol::flush_durable`] call at the end of each event
//! drain-batch performs one fsync for the whole batch and releases
//! everything withheld. The invariant is identical (no output escapes
//! before the records justifying it are on disk); only the fsync count
//! drops, from one per event to one per batch.
//!
//! # Example: the crash/recover lifecycle
//!
//! A protocol opts in by buffering [`DurableEvent`]s; the wrapper makes
//! them durable and replays them on restart:
//!
//! ```
//! use splitbft_net::transport::{Protocol, ProtocolOutput};
//! use splitbft_store::{replica_sealing_identity, DurableProtocol};
//! use splitbft_types::{DurableEvent, ReplicaId, Request, SeqNum};
//!
//! /// Counts executed requests; each execution is one durable event.
//! #[derive(Default)]
//! struct Counting {
//!     count: u64,
//!     buffered: Vec<DurableEvent>,
//! }
//!
//! impl Protocol for Counting {
//!     type Message = u64;
//!     fn on_message(&mut self, _: u64) -> Vec<ProtocolOutput<u64>> { Vec::new() }
//!     fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> { Vec::new() }
//!     fn on_client_requests(&mut self, requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
//!         for request in requests {
//!             self.count += 1;
//!             self.buffered.push(DurableEvent::Committed {
//!                 seq: SeqNum(self.count),
//!                 batch: splitbft_types::RequestBatch::single(request),
//!             });
//!         }
//!         Vec::new()
//!     }
//!     fn progress(&self) -> u64 { self.count }
//!     fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
//!         std::mem::take(&mut self.buffered)
//!     }
//!     fn replay_durable_event(&mut self, event: DurableEvent) {
//!         if let DurableEvent::Committed { seq, .. } = event { self.count = seq.0; }
//!     }
//! }
//!
//! # fn request(ts: u64) -> Request {
//! #     Request {
//! #         id: splitbft_types::RequestId {
//! #             client: splitbft_types::ClientId(1),
//! #             timestamp: splitbft_types::Timestamp(ts),
//! #         },
//! #         op: bytes::Bytes::from_static(b"inc"),
//! #         encrypted: false,
//! #         auth: [0u8; 32],
//! #     }
//! # }
//! let dir = std::env::temp_dir().join(format!("splitbft-doc-recover-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let identity = replica_sealing_identity(42, ReplicaId(0));
//!
//! // First incarnation: execute two requests, then "crash" (drop).
//! let mut node = DurableProtocol::recover(Counting::default(), &dir, identity.clone())?;
//! node.on_client_requests(vec![request(1)]);
//! node.on_client_requests(vec![request(2)]);
//! assert_eq!(node.progress(), 2);
//! drop(node); // no graceful shutdown: only the fsynced WAL survives
//!
//! // Second incarnation: the WAL replays both executions.
//! let recovered = DurableProtocol::recover(Counting::default(), &dir, identity)?;
//! assert_eq!(recovered.progress(), 2);
//! assert_eq!(recovered.recovery_report().replayed_events, 2);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::sealed::CheckpointStore;
use crate::wal::Wal;
use splitbft_net::transport::{Protocol, ProtocolGauges, ProtocolOutput};
use splitbft_tee::seal::SealingIdentity;
use splitbft_types::wire::{decode, encode};
use splitbft_types::{
    DurableCheckpoint, DurableEvent, ProtocolError, Request, SeqNum,
};
use std::io;
use std::path::Path;

/// What [`DurableProtocol::recover`] found on disk — surfaced so nodes
/// can log it and tests can assert on it.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sequence number of the restored sealed checkpoint, if any.
    pub restored_checkpoint: Option<SeqNum>,
    /// WAL events replayed after the checkpoint.
    pub replayed_events: usize,
    /// Corrupt sealed checkpoints that were skipped (typed, per file).
    pub checkpoint_errors: Vec<ProtocolError>,
    /// A checkpoint existed but the protocol rejected it (it will be
    /// re-fetched from peers instead).
    pub rejected_checkpoint: Option<ProtocolError>,
}

impl RecoveryReport {
    /// `true` when any local durable state was applied.
    pub fn recovered_anything(&self) -> bool {
        self.restored_checkpoint.is_some() || self.replayed_events > 0
    }
}

/// A [`Protocol`] wrapper adding write-ahead logging and sealed
/// checkpoints. See the module docs for the contract.
pub struct DurableProtocol<P: Protocol> {
    inner: P,
    wal: Wal,
    checkpoints: CheckpointStore,
    /// Sequence number of the newest checkpoint sealed to disk.
    sealed_seq: u64,
    /// In-memory mirror of the WAL's records, used to rewrite the log
    /// at GC time. Bounded by the checkpoint interval.
    tail: Vec<DurableEvent>,
    report: RecoveryReport,
    /// Group-commit mode: handler calls append WAL records without
    /// syncing and *withhold* their outputs; `flush_durable` performs
    /// the batch's single fsync and releases them. Off by default —
    /// only enable under a runtime that calls
    /// [`Protocol::flush_durable`] after every handler batch.
    group_commit: bool,
    /// Outputs withheld until the next group-commit fsync.
    withheld: Vec<ProtocolOutput<P::Message>>,
    /// Appended-but-unsynced WAL records exist.
    dirty: bool,
    /// Stable checkpoint seen since the last fsync, sealed after it.
    pending_stable: Option<SeqNum>,
    /// Monotone count of WAL fsyncs (the group-commit metric).
    fsyncs: u64,
    /// Monotone count of checkpoints sealed to disk since startup
    /// (excludes the one recovery restored).
    seals: u64,
}

impl<P: Protocol> DurableProtocol<P> {
    /// Recovers (or initializes) replica state from `dir` and wraps
    /// `inner` for durable hosting.
    ///
    /// Recovery order: the newest sealed checkpoint that unseals and
    /// validates — corrupt or protocol-rejected ones are *skipped*, not
    /// fatal — then WAL replay of everything beyond it. The report says
    /// what happened.
    pub fn recover(mut inner: P, dir: &Path, identity: SealingIdentity) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        // The first drain opts the inner protocol into event recording;
        // anything it had buffered before we owned it is not ours to
        // persist.
        let _ = inner.drain_durable_events();

        let checkpoints = CheckpointStore::new(dir, identity);
        let mut report = RecoveryReport::default();
        let mut sealed_seq = 0u64;
        let (found, errors) = checkpoints.load_latest()?;
        report.checkpoint_errors = errors;
        if let Some(cp) = found {
            match inner.restore_checkpoint(&cp) {
                Ok(()) => {
                    sealed_seq = cp.seq.0;
                    report.restored_checkpoint = Some(cp.seq);
                }
                Err(e) => report.rejected_checkpoint = Some(e),
            }
        }

        let (wal, records) = Wal::open(&dir.join("wal.log"))?;
        let mut tail = Vec::new();
        for record in records {
            // CRC-valid but undecodable records (version drift) are
            // skipped: replay is best-effort, state transfer covers the
            // rest.
            let Ok(event) = decode::<DurableEvent>(&record) else { continue };
            inner.replay_durable_event(event.clone());
            report.replayed_events += 1;
            tail.push(event);
        }
        // Replay may itself record events (it should not, but protocols
        // are free to); they describe state that is already durable.
        let _ = inner.drain_durable_events();

        let mut this = DurableProtocol {
            inner,
            wal,
            checkpoints,
            sealed_seq,
            tail,
            report,
            group_commit: false,
            withheld: Vec::new(),
            dirty: false,
            pending_stable: None,
            fsyncs: 0,
            seals: 0,
        };
        if this.sealed_seq > 0 {
            // A crash between sealing and GC leaves a long log; compact
            // it now so replay length stays bounded by one interval.
            this.gc(SeqNum(this.sealed_seq));
        }
        Ok(this)
    }

    /// Switches group-commit mode on or off (builder style, off by
    /// default).
    ///
    /// In group-commit mode, handler calls append their WAL records
    /// without syncing and **withhold their outputs**; the hosting
    /// runtime's [`Protocol::flush_durable`] call at the end of each
    /// event drain-batch performs one fsync for the whole batch and
    /// releases everything withheld. The fsync-before-release invariant
    /// is unchanged — outputs still cannot reach the network before the
    /// records justifying them are durable — but a batch of `k` events
    /// costs one fsync instead of `k`.
    ///
    /// Only enable this under a runtime that calls `flush_durable`
    /// after every batch (the TCP runtime does); otherwise outputs are
    /// withheld forever.
    #[must_use]
    pub fn with_group_commit(mut self, enabled: bool) -> Self {
        self.group_commit = enabled;
        self
    }

    /// Number of WAL fsyncs performed so far (one per handler call with
    /// events in plain mode; one per drain batch in group-commit mode).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// What recovery found on disk.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Current WAL size in bytes (tests assert bounded growth).
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Read access to the wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Makes the inner protocol's recent events durable. Called after
    /// every handler invocation. In plain mode the records are fsynced
    /// here, before the handler's outputs are released; in group-commit
    /// mode they are only appended, and [`DurableProtocol::sync_and_seal`]
    /// (driven by `flush_durable`) performs the batch's single fsync.
    ///
    /// # Panics
    ///
    /// On WAL I/O errors: a replica that cannot persist its log must
    /// not keep emitting messages, or a later restart could contradict
    /// what it already told the cluster.
    fn persist(&mut self) {
        let events = self.inner.drain_durable_events();
        if events.is_empty() {
            return;
        }
        let mut new_stable: Option<SeqNum> = None;
        for event in &events {
            #[allow(clippy::expect_used)] // fail-stop, see `# Panics`
            self.wal.append_value(event).expect("WAL append failed — cannot continue durably");
            if let DurableEvent::StableCheckpoint { seq } = event {
                new_stable = Some(new_stable.map_or(*seq, |s| s.max(*seq)));
            }
        }
        self.dirty = true;
        self.tail.extend(events);
        if let Some(stable) = new_stable {
            self.pending_stable =
                Some(self.pending_stable.map_or(stable, |s: SeqNum| s.max(stable)));
        }
        if !self.group_commit {
            self.sync_and_seal();
        }
    }

    /// Forces appended records to disk (one fsync) and seals/GCs any
    /// checkpoint that stabilized since the last sync. Sealing happens
    /// strictly *after* the fsync so a sealed checkpoint never claims
    /// events the log could still lose.
    fn sync_and_seal(&mut self) {
        if self.dirty {
            #[allow(clippy::expect_used)] // fail-stop, like a failed append in `persist`
            self.wal.sync().expect("WAL fsync failed — cannot continue durably");
            self.fsyncs += 1;
            self.dirty = false;
        }
        if let Some(stable) = self.pending_stable.take() {
            if stable.0 > self.sealed_seq {
                self.seal_and_gc();
            }
        }
    }

    /// Handler epilogue: persist the call's events, then either release
    /// its outputs (plain mode — they are durable now) or withhold them
    /// until the batch's group-commit fsync.
    fn finish(
        &mut self,
        outputs: Vec<ProtocolOutput<P::Message>>,
    ) -> Vec<ProtocolOutput<P::Message>> {
        self.persist();
        if self.group_commit {
            self.withheld.extend(outputs);
            Vec::new()
        } else {
            outputs
        }
    }

    /// Seals the inner protocol's current stable checkpoint and GCs the
    /// WAL past it. Seal failures are non-fatal: the WAL still holds
    /// everything, it just does not shrink this round.
    fn seal_and_gc(&mut self) {
        let Some(cp) = self.inner.durable_checkpoint() else { return };
        if cp.seq.0 <= self.sealed_seq {
            return;
        }
        match self.checkpoints.save(&cp) {
            Ok(_) => {
                self.sealed_seq = cp.seq.0;
                self.seals += 1;
                self.gc(cp.seq);
            }
            Err(e) => {
                eprintln!("splitbft-store: sealing checkpoint {} failed: {e}", cp.seq.0);
            }
        }
    }

    /// Rewrites the WAL with only the records still needed beyond
    /// `stable`: per-slot events above it, plus one summary each of the
    /// latest view and the highest issued counter (whose originals may
    /// predate the checkpoint but remain replay-relevant).
    fn gc(&mut self, stable: SeqNum) {
        let old = std::mem::take(&mut self.tail);
        let mut latest_view = None;
        let mut max_counter = 0u64;
        let mut kept = Vec::new();
        for event in old {
            match event {
                DurableEvent::Accepted { seq, .. } | DurableEvent::Committed { seq, .. }
                    if seq <= stable => {}
                DurableEvent::EnteredView { view } => {
                    latest_view = Some(latest_view.map_or(view, |v: splitbft_types::View| v.max(view)));
                }
                DurableEvent::CounterIssued { counter } => max_counter = max_counter.max(counter),
                DurableEvent::StableCheckpoint { .. } => {}
                other => kept.push(other),
            }
        }
        let mut tail = Vec::new();
        if max_counter > 0 {
            tail.push(DurableEvent::CounterIssued { counter: max_counter });
        }
        if let Some(view) = latest_view {
            tail.push(DurableEvent::EnteredView { view });
        }
        tail.extend(kept);
        let encoded: Vec<Vec<u8>> = tail.iter().map(encode).collect();
        match self.wal.rewrite(encoded.iter().map(Vec::as_slice)) {
            Ok(()) => self.tail = tail,
            Err(e) => {
                // Non-fatal: the un-GC'd log is merely larger.
                eprintln!("splitbft-store: WAL GC rewrite failed: {e}");
                self.tail = tail;
            }
        }
    }
}

impl<P: Protocol> Protocol for DurableProtocol<P> {
    type Message = P::Message;

    fn on_message(&mut self, msg: Self::Message) -> Vec<ProtocolOutput<Self::Message>> {
        let outputs = self.inner.on_message(msg);
        self.finish(outputs)
    }

    fn on_client_requests(
        &mut self,
        requests: Vec<Request>,
    ) -> Vec<ProtocolOutput<Self::Message>> {
        let outputs = self.inner.on_client_requests(requests);
        self.finish(outputs)
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<Self::Message>> {
        let outputs = self.inner.on_timeout();
        self.finish(outputs)
    }

    fn progress(&self) -> u64 {
        self.inner.progress()
    }

    fn has_pending_requests(&self) -> bool {
        self.inner.has_pending_requests()
    }

    fn probe_gauges(&self, gauges: &mut ProtocolGauges) {
        self.inner.probe_gauges(gauges);
        // The log belongs to the group the inner protocol just reported.
        if let Some(fsyncs) = gauges.shard_fsyncs.last_mut() {
            *fsyncs += self.fsyncs;
        }
        gauges.wal_bytes += self.wal.len();
        gauges.checkpoint_seals += self.seals;
    }

    fn drain_seal(&mut self) -> Vec<ProtocolOutput<Self::Message>> {
        let outputs = self.inner.drain_seal();
        // Even without a newly stabilized checkpoint, a drain wants the
        // latest durable one sealed and the log compacted, so a restart
        // after the drain replays as little WAL as possible.
        self.persist();
        self.sync_and_seal();
        self.seal_and_gc();
        self.finish(outputs)
    }

    // The wrapper consumes the inner protocol's durable events itself,
    // so it deliberately presents *no* durable events of its own
    // (`drain_durable_events` keeps the empty default): stacking two
    // DurableProtocols must not double-log.

    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        self.inner.durable_checkpoint()
    }

    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        // The peer state-transfer path: make the restored state durable
        // immediately, so a crash right after catch-up does not repeat
        // the whole transfer. Synced eagerly even in group-commit mode —
        // the sealed copy written below must never outrun the log.
        self.inner.restore_checkpoint(cp)?;
        self.persist();
        self.sync_and_seal();
        if cp.seq.0 > self.sealed_seq {
            match self.checkpoints.save(cp) {
                Ok(_) => {
                    self.sealed_seq = cp.seq.0;
                    self.seals += 1;
                    self.gc(cp.seq);
                }
                Err(e) => eprintln!(
                    "splitbft-store: sealing transferred checkpoint {} failed: {e}",
                    cp.seq.0
                ),
            }
        }
        Ok(())
    }

    fn catch_up_messages(&self, have_seq: SeqNum) -> Vec<Self::Message> {
        self.inner.catch_up_messages(have_seq)
    }

    fn flush_durable(&mut self) -> Vec<ProtocolOutput<Self::Message>> {
        self.sync_and_seal();
        let mut released = std::mem::take(&mut self.withheld);
        // An inner protocol stack may itself withhold (stacked durable
        // wrappers are prevented from double-*logging* but not from
        // forwarding the hook).
        released.extend(self.inner.flush_durable());
        released
    }

    fn durable_fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

impl<P: Protocol> std::fmt::Debug for DurableProtocol<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableProtocol")
            .field("sealed_seq", &self.sealed_seq)
            .field("wal_len", &self.wal.len())
            .field("tail_events", &self.tail.len())
            .finish_non_exhaustive()
    }
}
