//! The system under test: every call this benchmark makes into the
//! repository's crates is in this file (the list is in README.md,
//! "What the benchmark calls").
//!
//! Everything above this file — the pump, the workloads, the probes
//! runner — speaks in frames (`Vec<u8>`), operation bytes and plain
//! numbers, so a later refactor of `Protocol`, `types::wire` or the
//! client plumbing is absorbed here.

use crate::clock::{set_aside, thread_cpu_ns};
use crate::trace::{Tracer, CLIENT};
pub use bytes::Bytes;
use splitbft_app::{Application, CounterApp, KeyValueStore, KvOp};
use splitbft_core::SplitBftReplica;
use splitbft_crypto::{client_mac_key, KeyPair, MacKey};
use splitbft_hybrid::{HybridConfig, HybridMessage, HybridReplica, Usig};
use splitbft_loadgen::QuorumTracker;
use splitbft_net::transport::{frame_kind, Protocol, ProtocolOutput};
use splitbft_pbft::Replica as PbftReplica;
use splitbft_shard::{ShardMember, ShardRouter, Sharded};
use splitbft_store::{replica_sealing_identity, DurableProtocol, Wal};
use splitbft_tee::{CostModel, Enclave, EnclaveHost, ExecMode, OcallSink};
use splitbft_types::wire::{decode, encode, frame, parse_frame, Encode};
use splitbft_types::{
    shard_for_key, ClientId, ClusterConfig, CompartmentKind, ConsensusMessage, DurableEvent,
    ReplicaId, Reply, Request, RequestId, ShardEnvelope, ShardId, Timestamp,
};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

/// Replicas in every 3f + 1 workload (f = 1).
pub const N: usize = 4;
/// Replicas in the hybrid (2f + 1) side pump.
pub const N_HYBRID: usize = 3;
/// Matching replies a client needs (f + 1).
pub const REPLY_QUORUM: usize = 2;
/// Consensus groups in the sharded KVS workload.
pub const KVS_SHARDS: u32 = 2;
/// Sequence numbers between checkpoints (`ClusterConfig`'s default):
/// the period with which a cluster's work repeats, which the
/// workloads size their windows by.
pub const CHECKPOINT_INTERVAL: u64 = 128;

// ---------------------------------------------------------------------------
// Hosted replicas
// ---------------------------------------------------------------------------

/// A framed message a replica emits at the end of a drain batch.
#[derive(Debug, Clone)]
pub enum Outbound {
    /// To every other replica (one buffer, shared by all links).
    Broadcast(Rc<Vec<u8>>),
    /// To one other replica.
    Send(usize, Rc<Vec<u8>>),
    /// To the client.
    Reply(Rc<Vec<u8>>),
}

/// A deliberate defect, for the fault scenarios and the oracle tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeFault {
    /// Honest.
    #[default]
    None,
    /// Flips one bit of the MAC of every reply this replica sends.
    CorruptReplyMac,
    /// Never sends a commit vote.
    DropCommits,
}

/// Boundary-crossing totals of one compartment (`stats(kind)`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TeeStats {
    /// Ecalls served.
    pub ecalls: u64,
    /// Ocalls posted.
    pub ocalls: u64,
    /// Bytes copied in.
    pub bytes_in: u64,
    /// Bytes copied out.
    pub bytes_out: u64,
    /// Modelled boundary time, ns.
    pub boundary_ns: u64,
}

/// What a durable wrapper would have logged (volatile twin runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Durable events drained.
    pub events: u64,
    /// Their size as WAL records (payload + 8-byte record header).
    pub wal_bytes: u64,
    /// `StableCheckpoint` events among them: one seal each.
    pub stable_checkpoints: u64,
}

/// One replica as the pump sees it: frames in, frames out.
pub trait Node {
    /// Feeds one inbound frame (`REQUESTS` or `PROTOCOL`) through
    /// `parse_frame` → `decode` → the matching `Protocol` handler.
    fn deliver(&mut self, frame: &[u8], tr: &mut Tracer);
    /// Fires the view-change timer.
    fn timeout(&mut self, tr: &mut Tracer);
    /// Ends the drain batch exactly as `net::host` does: one
    /// `flush_durable()`, then every accumulated output is encoded and
    /// framed into `out`.
    fn end_batch(&mut self, tr: &mut Tracer, out: &mut Vec<Outbound>);
    /// Arms a defect.
    fn set_fault(&mut self, fault: NodeFault);
    /// The replica's state digest (for sharded stacks: the composite
    /// digest of the latest stable checkpoints).
    fn state_digest(&self) -> [u8; 32];
    /// `Protocol::progress()`: sequence numbers executed, summed over
    /// consensus groups.
    fn progress(&self) -> u64;
    /// WAL fsyncs so far; 0 for volatile replicas.
    fn durable_fsyncs(&self) -> u64;
    /// `[preparation, confirmation, execution]` boundary statistics,
    /// where the stack exposes them.
    fn tee_stats(&self) -> Option<[TeeStats; 3]>;
    /// Totals of the durable events drained since the last call; only
    /// the volatile twin drains any.
    fn take_event_counts(&mut self) -> EventCounts;
}

/// What the benchmark needs to read from a concrete replica type.
trait Inspect {
    fn digest(&self) -> [u8; 32];
    fn tee(&self) -> Option<[TeeStats; 3]> {
        None
    }
}

impl<A: Application + 'static> Inspect for SplitBftReplica<A> {
    fn digest(&self) -> [u8; 32] {
        self.state_digest().0
    }

    fn tee(&self) -> Option<[TeeStats; 3]> {
        let of = |kind| {
            let s = self.stats(kind);
            TeeStats {
                ecalls: s.ecalls,
                ocalls: s.ocalls,
                bytes_in: s.bytes_in,
                bytes_out: s.bytes_out,
                boundary_ns: s.boundary_ns,
            }
        };
        Some([
            of(CompartmentKind::Preparation),
            of(CompartmentKind::Confirmation),
            of(CompartmentKind::Execution),
        ])
    }
}

impl<A: Application + 'static> Inspect for PbftReplica<A> {
    fn digest(&self) -> [u8; 32] {
        self.state_digest().0
    }
}

impl<A: Application + 'static> Inspect for HybridReplica<A, Usig> {
    fn digest(&self) -> [u8; 32] {
        self.state_digest().0
    }
}

/// `Sharded` exposes neither its instances nor their replicas, so the
/// digest is the composite one over the shards' stable checkpoints and
/// the compartment statistics are out of reach.
impl<P: Protocol> Inspect for Sharded<P> {
    fn digest(&self) -> [u8; 32] {
        self.durable_checkpoint().map_or([0; 32], |cp| cp.digest.0)
    }
}

/// Names the span a message's handler call is recorded under.
trait Classify {
    fn handler_span(&self) -> &'static str;
    fn is_commit(&self) -> bool;
    fn is_checkpoint(&self) -> bool {
        self.handler_span() == "proto.on_checkpoint"
    }
}

impl Classify for ConsensusMessage {
    fn handler_span(&self) -> &'static str {
        match self {
            ConsensusMessage::PrePrepare(_) => "proto.on_preprepare",
            ConsensusMessage::Prepare(_) => "proto.on_prepare",
            ConsensusMessage::Commit(_) => "proto.on_commit",
            ConsensusMessage::Checkpoint(_) => "proto.on_checkpoint",
            ConsensusMessage::ViewChange(_) => "proto.on_viewchange",
            ConsensusMessage::NewView(_) => "proto.on_newview",
        }
    }

    fn is_commit(&self) -> bool {
        matches!(self, ConsensusMessage::Commit(_))
    }
}

impl<M: Classify> Classify for ShardEnvelope<M> {
    fn handler_span(&self) -> &'static str {
        self.msg.handler_span()
    }

    fn is_commit(&self) -> bool {
        self.msg.is_commit()
    }

    fn is_checkpoint(&self) -> bool {
        self.msg.is_checkpoint()
    }
}

impl Classify for HybridMessage {
    fn handler_span(&self) -> &'static str {
        match self {
            HybridMessage::Prepare(_) => "proto.on_prepare",
            HybridMessage::Commit(_) => "proto.on_commit",
        }
    }

    fn is_commit(&self) -> bool {
        matches!(self, HybridMessage::Commit(_))
    }
}

/// Hosts one `Protocol` the way a `net` backend does, minus sockets.
struct Hosted<P: Protocol> {
    id: u8,
    proto: P,
    pending: Vec<ProtocolOutput<P::Message>>,
    fault: NodeFault,
    extras: Extras,
    events: EventCounts,
    /// A `Checkpoint` message arrived in the current drain batch, so
    /// its flush may seal a checkpoint besides syncing the WAL.
    checkpoint_in_batch: bool,
}

/// What a hosted replica does beyond hosting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Extras {
    /// Nothing.
    None,
    /// Drains and counts the durable events (the volatile twin).
    CountEvents,
    /// Takes the CPU time of every flush that only syncs the WAL out
    /// of the pump clock (durable stacks; see `clock`).
    SetSyncsAside,
}

impl<P: Protocol> Hosted<P> {
    fn boxed(id: usize, proto: P, extras: Extras) -> Box<dyn Node>
    where
        P: Inspect,
        P::Message: Classify,
    {
        Box::new(Hosted {
            id: id as u8,
            proto,
            pending: Vec::new(),
            fault: NodeFault::None,
            extras,
            events: EventCounts::default(),
            checkpoint_in_batch: false,
        })
    }

    fn after_handler(&mut self, outputs: Vec<ProtocolOutput<P::Message>>) {
        self.pending.extend(outputs);
        if self.extras == Extras::CountEvents {
            for event in self.proto.drain_durable_events() {
                self.events.events += 1;
                self.events.wal_bytes += encode(&event).len() as u64 + 8;
                if matches!(event, DurableEvent::StableCheckpoint { .. }) {
                    self.events.stable_checkpoints += 1;
                }
            }
        }
    }
}

impl<P> Node for Hosted<P>
where
    P: Protocol + Inspect,
    P::Message: Classify,
{
    fn deliver(&mut self, bytes: &[u8], tr: &mut Tracer) {
        let span = tr.enter("types.parse_frame", self.id);
        let (view, _) = parse_frame(bytes)
            .expect("the pump only carries frames it framed itself")
            .expect("complete frame");
        tr.exit(span);
        match view.kind {
            frame_kind::PROTOCOL => {
                let span = tr.enter("types.decode", self.id);
                let msg: P::Message = decode(view.payload).expect("peer message decodes");
                tr.exit(span);
                self.checkpoint_in_batch |= msg.is_checkpoint();
                let span = tr.enter(msg.handler_span(), self.id);
                let outputs = self.proto.on_message(msg);
                tr.exit(span);
                self.after_handler(outputs);
            }
            frame_kind::REQUESTS => {
                let span = tr.enter("types.decode", self.id);
                let requests: Vec<Request> = decode(view.payload).expect("requests decode");
                tr.exit(span);
                let span = tr.enter("proto.on_client_requests", self.id);
                let outputs = self.proto.on_client_requests(requests);
                tr.exit(span);
                self.after_handler(outputs);
            }
            other => panic!("pump delivered frame kind {other} to a replica"),
        }
    }

    fn timeout(&mut self, tr: &mut Tracer) {
        let span = tr.enter("proto.on_timeout", self.id);
        let outputs = self.proto.on_timeout();
        tr.exit(span);
        self.after_handler(outputs);
    }

    fn end_batch(&mut self, tr: &mut Tracer, out: &mut Vec<Outbound>) {
        let span = tr.enter("proto.flush_durable", self.id);
        let released = if self.extras == Extras::SetSyncsAside && !self.checkpoint_in_batch {
            let before = thread_cpu_ns();
            let released = self.proto.flush_durable();
            set_aside(thread_cpu_ns() - before);
            released
        } else {
            self.proto.flush_durable()
        };
        self.checkpoint_in_batch = false;
        tr.exit(span);
        self.pending.extend(released);
        for output in self.pending.drain(..) {
            match output {
                ProtocolOutput::Broadcast(msg) => {
                    if self.fault == NodeFault::DropCommits && msg.is_commit() {
                        continue;
                    }
                    out.push(Outbound::Broadcast(protocol_frame(&msg, self.id, tr)));
                }
                ProtocolOutput::Send { to, msg } => {
                    out.push(Outbound::Send(
                        to.as_usize(),
                        protocol_frame(&msg, self.id, tr),
                    ));
                }
                ProtocolOutput::Reply { mut reply, .. } => {
                    if self.fault == NodeFault::CorruptReplyMac {
                        reply.auth[0] ^= 1;
                    }
                    let span = tr.enter("types.encode", self.id);
                    let payload = encode(&reply);
                    tr.exit(span);
                    let span = tr.enter("types.frame", self.id);
                    let framed = frame(frame_kind::REPLY, &payload);
                    tr.exit(span);
                    out.push(Outbound::Reply(Rc::new(framed)));
                }
            }
        }
    }

    fn set_fault(&mut self, fault: NodeFault) {
        self.fault = fault;
    }

    fn state_digest(&self) -> [u8; 32] {
        self.proto.digest()
    }

    fn progress(&self) -> u64 {
        self.proto.progress()
    }

    fn durable_fsyncs(&self) -> u64 {
        // The one `Protocol` metric getter the benchmark reads; ROADMAP
        // moves it into `NodeTelemetry`, and then only this line moves.
        self.proto.durable_fsyncs()
    }

    fn tee_stats(&self) -> Option<[TeeStats; 3]> {
        self.proto.tee()
    }

    fn take_event_counts(&mut self) -> EventCounts {
        std::mem::take(&mut self.events)
    }
}

fn protocol_frame<M: Encode>(msg: &M, node: u8, tr: &mut Tracer) -> Rc<Vec<u8>> {
    let span = tr.enter("types.encode", node);
    let payload = encode(msg);
    tr.exit(span);
    let span = tr.enter("types.frame", node);
    let framed = frame(frame_kind::PROTOCOL, &payload);
    tr.exit(span);
    Rc::new(framed)
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

fn cluster() -> ClusterConfig {
    let config = ClusterConfig::new(N).expect("4 replicas is a valid 3f + 1 cluster");
    assert_eq!(
        config.checkpoint_interval, CHECKPOINT_INTERVAL,
        "windows are sized by the checkpoint period"
    );
    config
}

fn split_replica<A: Application + 'static>(id: usize, seed: u64, app: A) -> SplitBftReplica<A> {
    SplitBftReplica::new(
        cluster(),
        ReplicaId(id as u32),
        seed,
        app,
        ExecMode::Hardware,
        CostModel::paper_calibrated(),
    )
}

/// A volatile SplitBFT replica over the counter, built as
/// `splitbft-node` builds it.
pub fn split_counter(id: usize, seed: u64) -> Box<dyn Node> {
    Hosted::boxed(id, split_replica(id, seed, CounterApp::new()), Extras::None)
}

/// A volatile PBFT replica over the counter.
pub fn pbft_counter(id: usize, seed: u64) -> Box<dyn Node> {
    let replica = PbftReplica::new(cluster(), ReplicaId(id as u32), seed, CounterApp::new());
    Hosted::boxed(id, replica, Extras::None)
}

/// A volatile hybrid (MinBFT-style) replica over the counter, n = 3.
pub fn hybrid_counter(id: usize, seed: u64) -> Box<dyn Node> {
    let config = HybridConfig::new(N_HYBRID).expect("3 replicas is a valid 2f + 1 cluster");
    let replica_id = ReplicaId(id as u32);
    let replica = HybridReplica::new(
        config,
        replica_id,
        seed,
        Usig::new(seed, replica_id),
        CounterApp::new(),
    );
    Hosted::boxed(id, replica, Extras::None)
}

/// The sharded, durable SplitBFT KVS stack of `splitbft-node serve
/// --shards 2 --data-dir …`: `Sharded<DurableProtocol<ShardMember<
/// SplitBftReplica<KeyValueStore>>>>` in group-commit mode, each shard
/// recovering whatever `dir/shard-<s>/` holds.
///
/// # Errors
///
/// Any I/O error opening the WAL or the sealed checkpoints.
pub fn split_kvs_durable(id: usize, seed: u64, dir: &Path) -> io::Result<Box<dyn Node>> {
    let identity = replica_sealing_identity(seed, ReplicaId(id as u32));
    let mut shards = Vec::new();
    for s in 0..KVS_SHARDS {
        let member = ShardMember::new(ShardId(s), split_replica(id, seed, KeyValueStore::new()));
        let durable = DurableProtocol::recover(member, &dir.join(format!("shard-{s}")), identity)?
            .with_group_commit(true);
        shards.push(durable);
    }
    Ok(Hosted::boxed(
        id,
        Sharded::new(ShardRouter::new(KVS_SHARDS, true), shards),
        Extras::SetSyncsAside,
    ))
}

/// The same sharded KVS stack without the durable wrapper. It drains
/// the replicas' durable events itself and counts what a WAL would
/// have written, so `store.*` counts need no `Protocol` getter.
pub fn split_kvs_volatile(id: usize, seed: u64) -> Box<dyn Node> {
    let shards = (0..KVS_SHARDS)
        .map(|s| ShardMember::new(ShardId(s), split_replica(id, seed, KeyValueStore::new())))
        .collect();
    Hosted::boxed(
        id,
        Sharded::new(ShardRouter::new(KVS_SHARDS, true), shards),
        Extras::CountEvents,
    )
}

// ---------------------------------------------------------------------------
// The client
// ---------------------------------------------------------------------------

/// The verifying client's keys and codecs.
pub struct ClientKit {
    id: ClientId,
    mac: MacKey,
}

/// A decoded reply frame.
pub struct ReplyMsg(Reply);

impl ReplyMsg {
    /// The timestamp of the request this reply answers.
    pub fn timestamp(&self) -> u64 {
        self.0.request.timestamp.0
    }

    /// The view the request executed in.
    pub fn view(&self) -> u64 {
        self.0.view.0
    }
}

/// Collects one request's replies until f + 1 verified ones match.
pub struct Quorum(QuorumTracker);

impl Quorum {
    /// Delivers one reply; `Some(result)` once the quorum is reached.
    pub fn on_reply(&mut self, reply: &ReplyMsg) -> Option<Bytes> {
        self.0.on_reply(&reply.0)
    }
}

impl ClientKit {
    /// Derives the MAC key client `client` shares with the replicas.
    pub fn new(seed: u64, client: u32) -> Self {
        let id = ClientId(client);
        ClientKit {
            id,
            mac: client_mac_key(seed, id),
        }
    }

    /// Builds one authenticated request per operation, timestamps
    /// `first_ts, first_ts + 1, …`, and frames them as one `REQUESTS`
    /// frame — what `loadgen::driver` puts on a client connection.
    pub fn requests_frame(&self, first_ts: u64, ops: Vec<Bytes>, tr: &mut Tracer) -> Vec<u8> {
        let requests: Vec<Request> = ops
            .into_iter()
            .zip(first_ts..)
            .map(|(op, ts)| {
                let id = RequestId {
                    client: self.id,
                    timestamp: Timestamp(ts),
                };
                let auth = self.mac.tag(&Request::auth_bytes(id, &op, false));
                Request {
                    id,
                    op,
                    encrypted: false,
                    auth,
                }
            })
            .collect();
        let span = tr.enter("types.encode", CLIENT);
        let payload = encode(&requests);
        tr.exit(span);
        let span = tr.enter("types.frame", CLIENT);
        let framed = frame(frame_kind::REQUESTS, &payload);
        tr.exit(span);
        framed
    }

    /// A fresh reply collector for one request.
    pub fn quorum(&self) -> Quorum {
        Quorum(QuorumTracker::new(self.mac.clone(), REPLY_QUORUM))
    }

    /// Parses and decodes one `REPLY` frame.
    pub fn decode_reply(&self, bytes: &[u8], tr: &mut Tracer) -> ReplyMsg {
        let span = tr.enter("types.parse_frame", CLIENT);
        let (view, _) = parse_frame(bytes)
            .expect("reply frame parses")
            .expect("complete frame");
        tr.exit(span);
        assert_eq!(
            view.kind,
            frame_kind::REPLY,
            "client received a non-reply frame"
        );
        let span = tr.enter("types.decode", CLIENT);
        let reply: Reply = decode(view.payload).expect("reply decodes");
        tr.exit(span);
        ReplyMsg(reply)
    }
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

/// The counter's increment.
pub fn counter_inc() -> Bytes {
    Bytes::from_static(b"inc")
}

/// A KVS `PUT`.
pub fn kv_put(key: &[u8], value: &[u8]) -> Bytes {
    KvOp::put(key, value).encode_op()
}

/// A KVS `GET`.
pub fn kv_get(key: &[u8]) -> Bytes {
    KvOp::get(key).encode_op()
}

/// The consensus group a KVS key routes to.
pub fn kv_shard(key: &[u8]) -> usize {
    shard_for_key(key, KVS_SHARDS).as_usize()
}

// ---------------------------------------------------------------------------
// Direct probes
// ---------------------------------------------------------------------------

/// One primitive operation of a layer, timed in a tight loop.
pub struct Probe {
    /// The per-layer metric the probe reports.
    pub metric: &'static str,
    /// Nanoseconds per unit of the metric (1 for `ns`, 1000 for `us`).
    pub ns_per_unit: f64,
    /// How often to call `op` per timed batch.
    pub iters: u32,
    /// Time on the wall clock, unscaled (the probe waits for the disk).
    pub wall: bool,
    /// The operation.
    pub op: Box<dyn FnMut()>,
}

struct NoopEnclave;

impl Enclave for NoopEnclave {
    fn measurement(&self) -> [u8; 32] {
        [0; 32]
    }

    fn handle_ecall(&mut self, _id: u32, _input: &[u8], _env: &mut dyn OcallSink) -> Vec<u8> {
        Vec::new()
    }
}

fn kv_key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

fn loaded_kvs() -> KeyValueStore {
    let mut kvs = KeyValueStore::new();
    let value = [7u8; 1024];
    for i in 0..1024 {
        kvs.execute(&kv_put(&kv_key(i), &value));
    }
    kvs
}

/// The probes, one per `*_ns` / `*_us` primitive metric. WAL probes
/// write under `dir`.
///
/// # Errors
///
/// Any I/O error opening the probe WALs.
pub fn probes(dir: &Path) -> io::Result<Vec<Probe>> {
    fn probe(
        metric: &'static str,
        ns_per_unit: f64,
        iters: u32,
        op: impl FnMut() + 'static,
    ) -> Probe {
        Probe {
            metric,
            ns_per_unit,
            iters,
            wall: false,
            op: Box::new(op),
        }
    }

    let mac = MacKey::derive(b"probe", b"hmac");
    let kib = vec![0x5au8; 1024];
    let pair = KeyPair::from_seed(7);
    let public = pair.public_key();
    let signature = pair.sign(&kib[..64]);
    let aead = splitbft_crypto::AeadKey::derive(b"probe", b"aead");
    let mut host = EnclaveHost::new(
        NoopEnclave,
        ExecMode::Hardware,
        CostModel::paper_calibrated(),
    );
    let mut counter = CounterApp::new();
    let (mut put_kvs, get_kvs, snap_kvs) = (loaded_kvs(), loaded_kvs(), loaded_kvs());
    let puts: Vec<Bytes> = (0..1024).map(|i| kv_put(&kv_key(i), &kib)).collect();
    let gets: Vec<Bytes> = (0..1024).map(|i| kv_get(&kv_key(i))).collect();
    let mut get_kvs = get_kvs;
    let (mut put_i, mut get_i, mut route_i) = (0usize, 0usize, 0usize);
    let router = ShardRouter::new(KVS_SHARDS, true);
    let route_ops = puts.clone();
    std::fs::create_dir_all(dir)?;
    let (mut append_wal, _) = Wal::open(&dir.join("probe-append.log"))?;
    let (mut sync_wal, _) = Wal::open(&dir.join("probe-sync.log"))?;
    let record = vec![0xa5u8; 256];
    let sync_record = record.clone();
    let hist = splitbft_obs::AtomicHistogram::new();
    let metric = splitbft_obs::Metric::detached();
    let mut nonce = 0u64;
    let (k1, k2, k3, k4) = (kib.clone(), kib.clone(), kib.clone(), kib.clone());

    Ok(vec![
        probe("crypto.hmac_tag_ns_64b", 1.0, 2_000, move || {
            black_box(mac.tag(black_box(&k1[..64])));
        }),
        probe("crypto.sha256_ns_per_kib", 1.0, 500, move || {
            black_box(splitbft_crypto::sha256::sha256(black_box(&k2)));
        }),
        probe("crypto.sign_us", 1e3, 500, move || {
            black_box(pair.sign(black_box(&k3[..64])));
        }),
        probe("crypto.verify_us", 1e3, 500, move || {
            black_box(KeyPair::verify(&public, black_box(&k4[..64]), &signature));
        }),
        probe("crypto.aead_seal_ns_per_kib", 1.0, 200, move || {
            nonce += 1;
            black_box(splitbft_crypto::seal(
                &aead,
                nonce,
                b"probe",
                black_box(&kib),
            ));
        }),
        probe("tee.ecall_noop_ns", 1.0, 5_000, move || {
            black_box(host.ecall(0, black_box(&[])).expect("noop ecall"));
        }),
        probe("app.counter_exec_ns", 1.0, 5_000, move || {
            black_box(counter.execute(black_box(b"inc")));
        }),
        probe("app.kvs_put_ns", 1.0, 1_000, move || {
            put_i = (put_i + 1) % puts.len();
            black_box(put_kvs.execute(&puts[put_i]));
        }),
        probe("app.kvs_get_ns", 1.0, 1_000, move || {
            get_i = (get_i + 1) % gets.len();
            black_box(get_kvs.execute(&gets[get_i]));
        }),
        probe("app.kvs_snapshot_us_1mib", 1e3, 3, move || {
            black_box(snap_kvs.snapshot());
        }),
        probe("store.wal_append_us", 1e3, 500, move || {
            append_wal.append(black_box(&record)).expect("WAL append");
        }),
        Probe {
            wall: true,
            ..probe("store.wal_sync_us_disk", 1e3, 5, move || {
                sync_wal.append(&sync_record).expect("WAL append");
                sync_wal.sync().expect("WAL sync");
            })
        },
        probe("shard.route_ns_per_req", 1.0, 2_000, move || {
            route_i = (route_i + 1) % route_ops.len();
            black_box(router.route_op(&route_ops[route_i]));
        }),
        probe("obs.hist_record_ns", 1.0, 10_000, move || {
            hist.record(black_box(Duration::from_micros(1234)));
        }),
        probe("obs.counter_inc_ns", 1.0, 10_000, move || {
            metric.inc();
        }),
    ])
}

// ---------------------------------------------------------------------------
// The simulator's prediction for the same shape
// ---------------------------------------------------------------------------

/// `(throughput in op/s, summed ecall µs per request)` that
/// `splitbft_sim::run_point` predicts for one closed-loop client with
/// `pipeline` outstanding requests.
pub fn sim_prediction(pbft: bool, pipeline: usize, seed: u64) -> (f64, f64) {
    use splitbft_sim::{run_point, AppKind, SimConfig, SystemKind};
    let system = if pbft {
        SystemKind::Pbft
    } else {
        SystemKind::SplitBft
    };
    let config = if pipeline <= 1 {
        SimConfig::unbatched(system, AppKind::Kvs, 1)
    } else {
        SimConfig {
            outstanding: pipeline,
            ..SimConfig::batched(system, AppKind::Kvs, 1)
        }
    };
    let result = run_point(&SimConfig { seed, ..config });
    (
        result.throughput_ops,
        result.ecall_us_per_request.iter().sum(),
    )
}
