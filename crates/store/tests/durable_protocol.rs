//! Lifecycle tests for [`DurableProtocol`] with a minimal deterministic
//! protocol: events are durable before outputs are released, sealed
//! checkpoints bound the WAL, and recovery replays exactly what was
//! synced — falling back gracefully when the checkpoint is corrupt.

use bytes::Bytes;
use splitbft_net::transport::{Protocol, ProtocolGauges, ProtocolOutput};
use splitbft_store::{replica_sealing_identity, DurableProtocol};
use splitbft_types::{
    ClientId, Digest, DurableCheckpoint, DurableEvent, ProtocolError, ReplicaId, Request,
    RequestBatch, RequestId, SeqNum, Timestamp,
};
use std::path::PathBuf;

/// Executes one request per call, checkpointing every 4 executions.
/// State is just the execution count, which makes divergence obvious.
#[derive(Default)]
struct ToyProtocol {
    count: u64,
    durable: Vec<DurableEvent>,
    enabled: bool,
    /// Prepended to the first non-empty drain, the way the sharding
    /// plane's `ShardMember` writes its `ShardTag` header.
    pending_tag: Option<DurableEvent>,
    /// Shard recorded from a replayed `ShardTag`, if any.
    seen_tag: Option<u32>,
}

const TOY_INTERVAL: u64 = 4;

fn toy_digest(count: u64) -> Digest {
    splitbft_crypto::digest_bytes(&count.to_le_bytes())
}

impl Protocol for ToyProtocol {
    type Message = u64;

    fn on_message(&mut self, _msg: u64) -> Vec<ProtocolOutput<u64>> {
        Vec::new()
    }

    fn on_client_requests(&mut self, requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
        for request in requests {
            self.count += 1;
            if self.enabled {
                self.durable.push(DurableEvent::Committed {
                    seq: SeqNum(self.count),
                    batch: RequestBatch::single(request),
                });
                if self.count % TOY_INTERVAL == 0 {
                    self.durable.push(DurableEvent::StableCheckpoint { seq: SeqNum(self.count) });
                }
            }
        }
        vec![ProtocolOutput::Broadcast(self.count)]
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> {
        Vec::new()
    }

    fn progress(&self) -> u64 {
        self.count
    }

    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        self.enabled = true;
        let mut events = std::mem::take(&mut self.durable);
        if !events.is_empty() {
            if let Some(tag) = self.pending_tag.take() {
                events.insert(0, tag);
            }
        }
        events
    }

    fn replay_durable_event(&mut self, event: DurableEvent) {
        match event {
            DurableEvent::Committed { seq, .. } if seq.0 == self.count + 1 => {
                self.count = seq.0;
            }
            DurableEvent::ShardTag { shard } => self.seen_tag = Some(shard.0),
            _ => {}
        }
    }

    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        let stable = self.count - self.count % TOY_INTERVAL;
        if stable == 0 {
            return None;
        }
        Some(DurableCheckpoint {
            seq: SeqNum(stable),
            digest: toy_digest(stable),
            state: Bytes::copy_from_slice(&stable.to_le_bytes()),
        })
    }

    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        let bytes: [u8; 8] = cp.state[..]
            .try_into()
            .map_err(|_| ProtocolError::CorruptState("toy state must be 8 bytes".into()))?;
        let count = u64::from_le_bytes(bytes);
        if toy_digest(count) != cp.digest || SeqNum(count) != cp.seq {
            return Err(ProtocolError::CorruptState("toy digest mismatch".into()));
        }
        self.count = count;
        Ok(())
    }
}

fn request(ts: u64) -> Request {
    Request {
        id: RequestId { client: ClientId(1), timestamp: Timestamp(ts) },
        op: Bytes::from_static(b"op"),
        encrypted: false,
        auth: [0u8; 32],
    }
}

fn scenario(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "splitbft-durable-proto-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn identity() -> splitbft_tee::seal::SealingIdentity {
    replica_sealing_identity(7, ReplicaId(0))
}

#[test]
fn crash_before_checkpoint_replays_the_wal() {
    let dir = scenario("wal-replay");
    {
        let mut durable =
            DurableProtocol::recover(ToyProtocol::default(), &dir, identity()).unwrap();
        for ts in 1..=3u64 {
            // Below the checkpoint interval: everything lives in the WAL.
            let out = durable.on_client_requests(vec![request(ts)]);
            assert_eq!(out, vec![ProtocolOutput::Broadcast(ts)]);
        }
        assert_eq!(durable.progress(), 3);
        // Dropped without any graceful shutdown: only the WAL survives.
    }
    let recovered = DurableProtocol::recover(ToyProtocol::default(), &dir, identity()).unwrap();
    assert_eq!(recovered.progress(), 3, "WAL replay must restore all three executions");
    assert_eq!(recovered.recovery_report().replayed_events, 3);
    assert!(recovered.recovery_report().restored_checkpoint.is_none());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn checkpoints_bound_the_wal_and_anchor_recovery() {
    let dir = scenario("gc");
    let wal_after_burst;
    {
        let mut durable =
            DurableProtocol::recover(ToyProtocol::default(), &dir, identity()).unwrap();
        for ts in 1..=41u64 {
            durable.on_client_requests(vec![request(ts)]);
        }
        // 41 executions = 10 sealed checkpoints; the WAL must hold only
        // the tail beyond the last one (seq 40), not all 41 commits.
        wal_after_burst = durable.wal_len();
        assert!(
            wal_after_burst < 1024,
            "WAL not GC'd past sealed checkpoints: {wal_after_burst} bytes"
        );
    }
    let recovered = DurableProtocol::recover(ToyProtocol::default(), &dir, identity()).unwrap();
    assert_eq!(recovered.progress(), 41);
    let report = recovered.recovery_report();
    assert_eq!(report.restored_checkpoint, Some(SeqNum(40)));
    assert_eq!(report.replayed_events, 1, "only the post-checkpoint tail replays");
    // At most two sealed files are retained.
    let sealed = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".sealed"))
        .count();
    assert!(sealed >= 1 && sealed <= 2, "expected 1-2 sealed checkpoints, found {sealed}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn shard_tag_survives_wal_gc_and_replays_on_recovery() {
    let dir = scenario("shard-tag");
    {
        let toy = ToyProtocol {
            pending_tag: Some(DurableEvent::ShardTag { shard: splitbft_types::ShardId(3) }),
            ..ToyProtocol::default()
        };
        let mut durable = DurableProtocol::recover(toy, &dir, identity()).unwrap();
        // Far past the checkpoint interval: the WAL is GC'd repeatedly,
        // and each GC must carry the shard tag forward even though every
        // pre-checkpoint Committed record is dropped.
        for ts in 1..=41u64 {
            durable.on_client_requests(vec![request(ts)]);
        }
        assert!(durable.wal_len() < 1024, "WAL must still be GC'd with a tag present");
    }
    let recovered = DurableProtocol::recover(ToyProtocol::default(), &dir, identity()).unwrap();
    assert_eq!(recovered.progress(), 41);
    assert_eq!(
        recovered.inner().seen_tag,
        Some(3),
        "the shard tag must survive every GC rewrite and replay on recovery"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_checkpoint_falls_back_to_the_older_one_and_the_wal() {
    let dir = scenario("corrupt");
    {
        let mut durable =
            DurableProtocol::recover(ToyProtocol::default(), &dir, identity()).unwrap();
        for ts in 1..=9u64 {
            durable.on_client_requests(vec![request(ts)]);
        }
    }
    // Newest checkpoint (seq 8) gets tampered with on disk.
    let newest = dir.join("checkpoint-8.sealed");
    let mut bytes = std::fs::read(&newest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&newest, &bytes).unwrap();

    let recovered = DurableProtocol::recover(ToyProtocol::default(), &dir, identity()).unwrap();
    let report = recovered.recovery_report();
    assert_eq!(
        report.checkpoint_errors.len(),
        1,
        "the tampered checkpoint must surface as a typed error"
    );
    assert!(matches!(report.checkpoint_errors[0], ProtocolError::CorruptState(_)));
    // Recovery fell back to checkpoint 4; the WAL covers 5..=9 — but it
    // was GC'd past 8, so only 9 replays locally. The replica comes up
    // at 4+ (peer state transfer would close the rest in a cluster):
    // startup is degraded, never aborted.
    assert_eq!(report.restored_checkpoint, Some(SeqNum(4)));
    assert!(recovered.progress() >= 4);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn group_commit_withholds_outputs_until_the_batch_fsync() {
    let dir = scenario("group-commit");
    {
        let mut durable = DurableProtocol::recover(ToyProtocol::default(), &dir, identity())
            .unwrap()
            .with_group_commit(true);
        assert_eq!(durable.fsyncs(), 0);

        // Three handler calls forming one drain batch: no output may
        // escape before the batch's single fsync returns...
        for ts in 1..=3u64 {
            let escaped = durable.on_client_requests(vec![request(ts)]);
            assert!(escaped.is_empty(), "output escaped before the batch fsync: {escaped:?}");
        }
        assert_eq!(durable.fsyncs(), 0, "fsync ran before the flush point");

        // ...and the flush releases all of them at once, after exactly
        // one fsync for the whole batch.
        let released = durable.flush_durable();
        assert_eq!(
            released,
            vec![
                ProtocolOutput::Broadcast(1),
                ProtocolOutput::Broadcast(2),
                ProtocolOutput::Broadcast(3),
            ]
        );
        assert_eq!(durable.fsyncs(), 1, "one fsync per drain batch");

        // A checkpoint stabilizing mid-batch seals only after the batch
        // fsync (the sealed file must never claim events the log could
        // still lose) — and everything released was durable.
        durable.on_client_requests(vec![request(4)]);
        let released = durable.flush_durable();
        assert_eq!(released, vec![ProtocolOutput::Broadcast(4)]);
        assert_eq!(durable.fsyncs(), 2);
        // Dropped without a graceful shutdown, like a crash.
    }
    let recovered = DurableProtocol::recover(ToyProtocol::default(), &dir, identity()).unwrap();
    assert_eq!(
        recovered.progress(),
        4,
        "everything released before the crash must replay after it"
    );
    assert_eq!(
        recovered.recovery_report().restored_checkpoint,
        Some(SeqNum(4)),
        "the mid-batch stable checkpoint was sealed at the flush point"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn plain_mode_fsyncs_every_handler_call() {
    // The group-commit baseline: without the mode, each handler call
    // with events pays its own fsync and returns its outputs directly.
    let dir = scenario("plain-fsyncs");
    let mut durable =
        DurableProtocol::recover(ToyProtocol::default(), &dir, identity()).unwrap();
    for ts in 1..=3u64 {
        let outputs = durable.on_client_requests(vec![request(ts)]);
        assert_eq!(outputs, vec![ProtocolOutput::Broadcast(ts)]);
    }
    assert_eq!(durable.fsyncs(), 3, "plain mode: one fsync per event");
    assert!(durable.flush_durable().is_empty(), "nothing withheld in plain mode");
    assert_eq!(durable.fsyncs(), 3, "an all-clean flush adds no fsync");

    // The wrapper's share of the gauges probe: its fsyncs land on the
    // group the inner protocol reported, next to the log's length.
    let mut gauges = ProtocolGauges::default();
    durable.probe_gauges(&mut gauges);
    assert_eq!((&gauges.shard_progress, &gauges.shard_fsyncs), (&vec![3], &vec![3]));
    assert!(gauges.wal_bytes > 0);
    assert_eq!(gauges.checkpoint_seals, 0, "no checkpoint before the fourth execution");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn wiped_data_dir_starts_fresh() {
    let dir = scenario("fresh");
    let durable = DurableProtocol::recover(ToyProtocol::default(), &dir, identity()).unwrap();
    assert_eq!(durable.progress(), 0);
    assert!(!durable.recovery_report().recovered_anything());
    let _ = std::fs::remove_dir_all(dir);
}

/// The sealed file holds the stable checkpoint once — certificate by
/// digest, then one snapshot — and a restart recovers from it. (It used
/// to hold `2f + 1` votes each embedding the snapshot: three times the
/// state to encrypt and sync at every checkpoint.)
#[test]
fn a_sealed_checkpoint_holds_the_snapshot_once() {
    use splitbft_app::{Application, KeyValueStore, KvOp};
    use splitbft_pbft::{make_request, Replica};
    use splitbft_types::{ClusterConfig, ConsensusMessage};

    const SEED: u64 = 7;
    const STATE: usize = 512 << 10;
    let dir = scenario("sealed-once");
    let replica = |id: u32| {
        let config = ClusterConfig::new(4).unwrap().with_checkpoint_interval(4);
        let mut kvs = KeyValueStore::new();
        kvs.execute(&KvOp::put(b"ballast", &vec![0xAB; STATE]).encode_op());
        Replica::new(config, ReplicaId(id), SEED, kvs)
    };
    let durable = |id: u32| {
        let identity = replica_sealing_identity(SEED, ReplicaId(id));
        DurableProtocol::recover(replica(id), &dir.join(id.to_string()), identity).unwrap()
    };
    let mut cluster: Vec<_> = (0..4).map(durable).collect();

    // Four slots through a FIFO pump: the checkpoint at 4 becomes stable
    // everywhere and every replica seals it.
    for ts in 1..=4u64 {
        let op = KvOp::put(&ts.to_le_bytes(), b"v").encode_op();
        let request = make_request(SEED, ClientId(1), Timestamp(ts), op);
        let mut queue: Vec<(usize, ConsensusMessage)> = Vec::new();
        let mut route = |from: usize, outputs: Vec<ProtocolOutput<ConsensusMessage>>| {
            for output in outputs {
                if let ProtocolOutput::Broadcast(msg) = output {
                    queue.extend((0..4).filter(|to| *to != from).map(|to| (to, msg.clone())));
                }
            }
            std::mem::take(&mut queue)
        };
        let mut inbox = route(0, cluster[0].on_client_requests(vec![request]));
        while !inbox.is_empty() {
            let mut next = Vec::new();
            for (to, msg) in inbox {
                next.extend(route(to, cluster[to].on_message(msg)));
            }
            inbox = next;
        }
    }

    let snapshot_len = cluster[3].inner().app().snapshot().len();
    assert!(snapshot_len >= STATE);
    let sealed = std::fs::metadata(dir.join("3").join("checkpoint-4.sealed")).unwrap().len();
    assert!(
        sealed <= snapshot_len as u64 + 4096,
        "sealed {sealed} bytes for a {snapshot_len}-byte snapshot"
    );

    let digest = cluster[3].inner().state_digest();
    drop(cluster.pop());
    let recovered = durable(3);
    assert_eq!(recovered.recovery_report().restored_checkpoint, Some(SeqNum(4)));
    assert_eq!(recovered.inner().state_digest(), digest);
    let _ = std::fs::remove_dir_all(dir);
}
