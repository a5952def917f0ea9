//! The transport-independent replica hosting core.
//!
//! Both runtimes — the evented readiness loop ([`crate::evented`]) and
//! the deterministic in-memory cluster ([`crate::lockstep::Cluster`]) —
//! host a [`Protocol`] the same way: classify each inbound frame by its
//! kind and the sender's identity ([`classify`]), feed the resulting
//! [`Event`]s to the state machine one drain batch at a time, fsync once
//! per batch, then route the outputs. This module owns that shared core
//! ([`Host`]), including the request-aware view-change timer and the
//! state-transfer client, plus the [`NodeConfig`] a socket node starts
//! from, so the runtimes differ only in how bytes move and in who
//! supplies the clock: [`Host`] never reads one. Every entry point that
//! needs the time takes `now` from its caller — how long the node has
//! been up, on whatever clock the runtime keeps (the socket loop's
//! monotonic one, the in-memory cluster's virtual one).
//!
//! Runtimes plug in through two small sinks: [`PeerSink`] (pre-framed
//! bytes toward other replicas) and [`ClientSink`] (replies toward
//! connected clients). The sinks speak frames, not typed messages, so a
//! broadcast encodes once regardless of fan-out — and so the core stays
//! byte-identical on the wire across runtimes.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::transport::{
    frame_kind, BatchPolicy, Protocol, ProtocolGauges, ProtocolOutput, WireMessage,
};
use splitbft_obs::NodeTelemetry;
use splitbft_types::wire::{decode, encode, frame_message};
use splitbft_types::status::StatusRequest;
use splitbft_types::{
    ClientId, Digest, DurableCheckpoint, ReplicaId, Reply, Request, SeqNum, StateTransferRequest,
    StateTransferResponse, StatusEvent,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// State-transfer policy of a node.
///
/// Every node runs the state-transfer client: checkpoint votes carry a
/// digest, not the state, so a replica that falls behind a stable
/// checkpoint — or stalls behind a gap in its log — can only heal by
/// asking its peers, which the hosting core's timer does on a stall. Peer
/// checkpoints are applied once `agreement` responders vouch for the same
/// `(seq, digest)` — with `agreement = f + 1` at least one of them is
/// correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Matching peer checkpoints required before restoring (`f + 1`).
    pub agreement: usize,
    /// Also broadcast a `STATE_REQUEST` at startup and hunt for peer state
    /// until live traffic executes: right for a node restarting from a
    /// data directory, which may have missed anything while it was down.
    pub at_startup: bool,
}

impl RecoveryPolicy {
    /// The policy of a node that starts with its cluster: no startup
    /// round, and an agreement that is at least `f + 1` under either
    /// fault model for a cluster of `n` (`n >= 3f + 1` or `n >= 2f + 1`).
    pub fn for_cluster_of(n: usize) -> Self {
        RecoveryPolicy { agreement: n.saturating_sub(1) / 2 + 1, at_startup: false }
    }
}

/// Address book entry: where a replica listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerAddr {
    /// The replica.
    pub id: ReplicaId,
    /// Its listen address.
    pub addr: SocketAddr,
}

/// Configuration for one socket-hosted node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This replica's id.
    pub id: ReplicaId,
    /// The local listen address (use port 0 to let the OS pick).
    pub listen: SocketAddr,
    /// The full cluster address book (entries for `id` itself are
    /// ignored).
    pub peers: Vec<PeerAddr>,
    /// Send-path batching limits.
    pub batch: BatchPolicy,
    /// If set, fire the protocol's view-change timer at this period.
    /// `None` (the default) leaves timeouts to explicit triggers, which
    /// is right for tests and demos that never need a view change.
    pub timeout_every: Option<Duration>,
    /// The state-transfer client's policy (see [`RecoveryPolicy`]).
    pub recovery: RecoveryPolicy,
    /// Group-commit linger of the node's loop. `Duration::ZERO` (the
    /// default) closes a drain batch — one [`Protocol::flush_durable`]
    /// call, so one fsync for a durable protocol — after every pass
    /// that handled an event. A non-zero linger keeps the batch open
    /// for up to that long, so everything arriving meanwhile shares a
    /// single fsync.
    pub group_commit: Duration,
}

impl NodeConfig {
    /// A config with default batching, no timer, and no startup state
    /// request.
    pub fn new(id: ReplicaId, listen: SocketAddr, peers: Vec<PeerAddr>) -> Self {
        let cluster = peers.iter().filter(|peer| peer.id != id).count() + 1;
        NodeConfig {
            id,
            listen,
            peers,
            batch: BatchPolicy::default(),
            timeout_every: None,
            recovery: RecoveryPolicy::for_cluster_of(cluster),
            group_commit: Duration::ZERO,
        }
    }
}

/// One input to the hosted protocol, already decoded from the wire (or
/// synthesized by the runtime's timer/drain machinery).
pub(crate) enum Event<M> {
    /// A protocol message from a peer replica.
    Peer(M),
    /// A batch of client requests.
    Requests(Vec<Request>),
    /// A peer asks for our checkpoint + log suffix.
    StateRequest(StateTransferRequest),
    /// A peer's answer to our state request.
    StateResponse(StateTransferResponse),
    /// View-change timer tick.
    Timeout,
    /// A graceful drain was requested (`SIGTERM` on a socket node,
    /// [`crate::lockstep::Cluster::drain`] in memory). The request
    /// itself is recorded on the node's telemetry before this event is
    /// queued; the event exists only to force a drain batch through
    /// [`Host::finish_batch`], where the drain epilogue (seal + flush)
    /// runs once nothing is pending.
    Drain,
}

/// Who a frame came from: a socket connection's hello-claimed identity,
/// or the origin the in-memory cluster attaches by construction
/// (unauthenticated either way: protocol payloads carry their own
/// signatures/MACs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Identity {
    /// No hello seen yet; only hello frames are legal.
    Unknown,
    /// A replica, pinned to the hello-claimed id.
    Peer(ReplicaId),
    /// A client; replies route back to it.
    Client(ClientId),
}

/// What one inbound frame means for the runtime that received it.
pub(crate) enum Parsed<M> {
    /// Feed it to [`Host::handle`].
    Event(Event<M>),
    /// The connection identified itself as a replica.
    PeerHello(ReplicaId),
    /// The connection identified itself as a client.
    ClientHello(ClientId),
    /// A STATUS request: answered by the socket loop, which owns the
    /// connection's reply ring and the telemetry hub.
    Status(StatusRequest),
    /// Tolerated and ignored.
    Skip,
    /// Protocol garbage: hang up on the sender.
    Close,
}

/// Classifies one frame by `(kind, identity)` — the only place either
/// runtime decides what an inbound frame is. Hellos first; `PROTOCOL`
/// and state-transfer frames only from a peer (nothing but [`route`]
/// and the state-transfer client ever send them, and only over peer
/// links), the latter pinned to the identity they claim, so one
/// connection cannot speak for several replicas; `STATUS` only from a
/// client; unknown kinds — the retired `FAULT_CONTROL` kind 8 among
/// them — tolerated and skipped.
pub(crate) fn classify<P: Protocol>(
    kind: u8,
    payload: &[u8],
    identity: Identity,
) -> Parsed<P::Message> {
    if identity == Identity::Unknown {
        return match kind {
            frame_kind::PEER_HELLO => match decode::<ReplicaId>(payload) {
                Ok(id) => Parsed::PeerHello(id),
                Err(_) => Parsed::Close,
            },
            frame_kind::CLIENT_HELLO => match decode::<ClientId>(payload) {
                Ok(id) => Parsed::ClientHello(id),
                Err(_) => Parsed::Close,
            },
            _ => Parsed::Close, // connection opened with a non-hello frame
        };
    }
    match kind {
        frame_kind::PROTOCOL => match identity {
            Identity::Peer(_) => match decode::<P::Message>(payload) {
                Ok(msg) => Parsed::Event(Event::Peer(msg)),
                Err(_) => Parsed::Close,
            },
            // A client speaking the replicas' vocabulary is garbage.
            _ => Parsed::Close,
        },
        frame_kind::REQUESTS => match decode(payload) {
            Ok(requests) => Parsed::Event(Event::Requests(requests)),
            Err(_) => Parsed::Close,
        },
        frame_kind::STATE_REQUEST => match decode::<StateTransferRequest>(payload) {
            // Peers only, and the requester must be who the sender
            // claims to be.
            Ok(req) if identity == Identity::Peer(req.replica) => {
                Parsed::Event(Event::StateRequest(req))
            }
            Ok(_) => Parsed::Skip,
            Err(_) => Parsed::Close,
        },
        frame_kind::STATE_RESPONSE => match decode::<StateTransferResponse>(payload) {
            Ok(resp) if identity == Identity::Peer(resp.replica) => {
                Parsed::Event(Event::StateResponse(resp))
            }
            Ok(_) => Parsed::Skip,
            Err(_) => Parsed::Close,
        },
        frame_kind::STATUS => match identity {
            // Clients only: a peer sending STATUS is protocol garbage.
            Identity::Client(_) => match decode::<StatusRequest>(payload) {
                Ok(req) => Parsed::Status(req),
                Err(_) => Parsed::Close,
            },
            _ => Parsed::Close,
        },
        _ => Parsed::Skip, // tolerate unknown kinds from newer peers
    }
}

/// A runtime's outbound path toward peer replicas. Frames are pre-built
/// (header + payload) and `Arc`-shared so broadcasts clone pointers,
/// not buffers.
pub(crate) trait PeerSink {
    /// Queues `framed` toward every other replica.
    fn broadcast_frame(&mut self, framed: Arc<Vec<u8>>);
    /// Queues `framed` toward `to`; silently dropped when `to` is this
    /// replica itself or unknown (protocol cores process their own copy
    /// internally before emitting).
    fn send_frame(&mut self, to: ReplicaId, framed: Arc<Vec<u8>>);
    /// `true` when `id` is another member of this cluster.
    fn is_peer(&self, id: ReplicaId) -> bool;
}

/// A runtime's outbound path toward connected clients. Delivery is
/// at-most-once: a gone or stalled client loses the reply and its own
/// retry logic recovers.
pub(crate) trait ClientSink {
    /// Queues `reply` toward client `to`.
    fn reply(&mut self, to: ClientId, reply: Reply);
}

/// Upper bound on events coalesced into one group-commit drain batch,
/// so a flooded queue still flushes (and routes) regularly.
pub(crate) const MAX_DRAIN_BATCH: usize = 128;

/// How long one `STATE_REQUEST` round stays in flight before a
/// no-progress tick may broadcast a new one. Without this guard every
/// tick of a stalled replica re-requested, hammering slow responders
/// with duplicate transfers of the same (possibly large) state.
const STATE_TRANSFER_RETRY: Duration = Duration::from_millis(1500);

/// The state-transfer client's bookkeeping inside the hosting core.
///
/// Two rules keep a catching-up replica from livelocking against
/// sustained load (the rolling-restart stall this design
/// fixes):
///
/// - **Productive rounds retry immediately.** Peers serve the log
///   suffix in bounded chunks, so closing a large gap takes many
///   rounds. If every round had to wait out [`STATE_TRANSFER_RETRY`],
///   transfer throughput would be capped at one chunk per deadline —
///   slower than a loaded cluster commits, so the gap could grow
///   faster than it closed. A round whose response advanced progress
///   therefore clears the in-flight guard and the next tick
///   re-requests at the new offset; only *unproductive* rounds are
///   rate-limited.
/// - **Responses outlive request rounds.** Checkpoint agreement needs
///   `f + 1` matching `(seq, digest)` votes, and peers seal
///   checkpoints at their own pace — votes for the same checkpoint
///   can straddle a re-request boundary. Keeping the latest response
///   per peer across rounds (bounded by cluster size) lets a late
///   matching vote complete the quorum instead of being forgotten.
struct Recovery {
    policy: RecoveryPolicy,
    /// Hunting for peer state: from startup (when the policy says so)
    /// and from every stall, until progress flows from live traffic
    /// rather than transfers.
    active: bool,
    /// Progress attributable to startup recovery plus state transfer:
    /// anything beyond it was made organically. Raised by exactly the
    /// progress each transfer application buys (not to the protocol's
    /// total progress, which would swallow organic progress made
    /// earlier in the same drain batch).
    baseline: u64,
    /// Latest response per peer, kept across request rounds (see the
    /// struct docs for why).
    responses: HashMap<ReplicaId, StateTransferResponse>,
    /// When the in-flight request round was sent; a new round may only
    /// go out once [`STATE_TRANSFER_RETRY`] has elapsed — or
    /// immediately, if the round already proved productive and the
    /// guard was cleared.
    requested_at: Option<Duration>,
    /// The current stall (requests pending or a stable checkpoint ahead,
    /// no progress across a whole timer period) has already spent one
    /// tick asking peers for state instead of accusing the primary; see
    /// the timer in [`Host::handle`]. Cleared by any progress.
    asked_on_stall: bool,
}

impl Recovery {
    /// `baseline` is the protocol's progress at startup — anything the
    /// local WAL/checkpoint recovery already restored is not "organic"
    /// progress and must not end the hunt by itself.
    fn new(policy: RecoveryPolicy, baseline: u64) -> Self {
        Recovery {
            policy,
            active: policy.at_startup,
            baseline,
            responses: HashMap::new(),
            requested_at: None,
            asked_on_stall: false,
        }
    }

    /// `true` once the current round's retry deadline has passed, no
    /// round was ever sent, or the current round was productive.
    fn may_request(&self, now: Duration) -> bool {
        self.requested_at.is_none_or(|at| now.saturating_sub(at) >= STATE_TRANSFER_RETRY)
    }
}

/// The hosting core: one hosted [`Protocol`] plus the request-aware
/// view-change timer and the state-transfer client, independent of how
/// frames reach the process.
///
/// A runtime's drive loop calls [`Host::handle`] for every classified
/// event of a drain batch, accumulates the returned outputs, then calls
/// [`Host::finish_batch`] once — the group-commit point: a single fsync
/// covers the batch, outputs are routed strictly after it, deferred
/// peer state requests are answered after that, and the node's
/// [`NodeTelemetry`] is brought up to date — the one place orchestrators
/// (benches, tests, `/metrics`, `STATUS`) read a node's numbers from.
pub(crate) struct Host<P: Protocol> {
    id: ReplicaId,
    protocol: P,
    recovery: Recovery,
    /// Stall timer state: a tick counts as stalled only when a request
    /// has been pending — or a stable checkpoint has been ahead of this
    /// replica — across one full period with no commit progress. So the
    /// primary gets a whole tick to make progress (`armed`), idle
    /// clusters never churn views, and a genuinely stalled replica asks
    /// its peers on the second tick and fails over on the third.
    armed: bool,
    last_progress: u64,
    /// Peer `STATE_REQUEST`s seen this batch, *deferred* to
    /// [`Host::finish_batch`]: a response reads the protocol's current
    /// durable checkpoint and log suffix, which mid-batch may rest on
    /// WAL records the group-commit fsync has not covered yet —
    /// answering after the batch's `flush_durable` keeps the
    /// nothing-on-the-wire-before-fsync invariant for state transfer
    /// too.
    state_requests: Vec<StateTransferRequest>,
    /// The node's telemetry bundle (metrics registry, event journal,
    /// lifecycle flags), shared with the transport layer and whatever
    /// serves `/metrics` and `STATUS`.
    telemetry: Arc<NodeTelemetry>,
    /// Scratch for [`Protocol::probe_gauges`], reused every batch.
    gauges: ProtocolGauges,
    /// Last published view / seal count — change detectors for the
    /// view-change counter and the journal's `ViewChange` /
    /// `CheckpointSealed` events, compared once per drain batch.
    last_view: u64,
    last_seals: u64,
}

impl<P: Protocol> Host<P> {
    /// Wraps `protocol` for hosting. When `recovery` asks for it, the
    /// startup `STATE_REQUEST` round goes out through `peers` right
    /// away, in flight since `now`.
    pub(crate) fn new(
        id: ReplicaId,
        protocol: P,
        recovery: RecoveryPolicy,
        telemetry: Arc<NodeTelemetry>,
        now: Duration,
        peers: &mut impl PeerSink,
    ) -> Self {
        let baseline = protocol.progress();
        let mut recovery = Recovery::new(recovery, baseline);
        if recovery.active {
            recovery.requested_at = Some(now);
            request_state(id, baseline, peers);
            telemetry.set_recovering(true);
        }
        let mut gauges = ProtocolGauges::default();
        protocol.probe_gauges(&mut gauges);
        Host {
            id,
            protocol,
            recovery,
            armed: false,
            last_progress: baseline,
            state_requests: Vec::new(),
            telemetry,
            last_view: gauges.view(),
            last_seals: gauges.checkpoint_seals,
            gauges,
        }
    }

    /// The hosted protocol.
    pub(crate) fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The hosted protocol, for a runtime that lets its caller invoke a
    /// handler directly (outputs still go through [`Host::finish_batch`]).
    pub(crate) fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// The node's telemetry bundle (metrics, event journal, lifecycle
    /// flags).
    pub(crate) fn telemetry(&self) -> &Arc<NodeTelemetry> {
        &self.telemetry
    }

    /// `true` while the state-transfer client is still hunting for
    /// peer state.
    #[cfg(test)]
    pub(crate) fn recovering(&self) -> bool {
        self.recovery.active
    }

    /// Handles one event at the caller's `now`, returning the outputs
    /// to accumulate for [`Host::finish_batch`].
    pub(crate) fn handle(
        &mut self,
        event: Event<P::Message>,
        now: Duration,
        peers: &mut impl PeerSink,
    ) -> Vec<ProtocolOutput<P::Message>> {
        match event {
            Event::Peer(msg) => self.protocol.on_message(msg),
            Event::Requests(requests) => {
                if self.telemetry.draining() {
                    // Draining: stop admitting new client requests. The
                    // client's retry logic finds another replica (or the
                    // restarted one).
                    return Vec::new();
                }
                self.telemetry.client_request_frames.inc();
                self.telemetry.client_requests.add(requests.len() as u64);
                self.protocol.on_client_requests(requests)
            }
            Event::Drain => Vec::new(),
            Event::StateRequest(req) => {
                self.state_requests.push(req);
                Vec::new()
            }
            // Only cluster members' responses count toward the f + 1
            // agreement ([`classify`] already pinned the id to the
            // sender's identity).
            Event::StateResponse(resp) if self.recovery.active && peers.is_peer(resp.replica) => {
                apply_state_response(&mut self.protocol, &mut self.recovery, resp, &self.telemetry)
            }
            Event::StateResponse(_) => Vec::new(),
            Event::Timeout => {
                let progress = self.protocol.progress();
                let pending = self.protocol.has_pending_requests();
                // Behind a stable checkpoint: 2f + 1 replicas certified
                // state this one has not reached. Votes carry only its
                // digest, so nothing in the message stream closes the gap.
                self.gauges.clear();
                self.protocol.probe_gauges(&mut self.gauges);
                let waiting = pending || self.gauges.behind_stable_checkpoint();
                let stalled = waiting && self.armed && progress == self.last_progress;
                // A stall looks the same from inside whether the primary
                // is faulty or this replica is stranded behind a gap: it
                // missed votes while it was down or catching up, nobody
                // resends them, and an idle cluster produces no
                // checkpoint to pull it level. A view change entered
                // alone would only strand it further, so the first
                // stalled tick asks the peers — reopening the hunt, past
                // the in-flight guard — and only if the next tick is
                // stalled too, with a request still waiting, is the
                // primary accused.
                let rec = &mut self.recovery;
                if progress != self.last_progress {
                    rec.asked_on_stall = false;
                }
                let ask_first = stalled && !rec.asked_on_stall;
                if ask_first {
                    rec.asked_on_stall = true;
                    rec.active = true;
                    rec.baseline = progress;
                    rec.requested_at = None;
                    self.telemetry.set_recovering(true);
                }
                // Recovery retry: progress beyond the baseline means
                // live traffic is executing again — the hunt is over.
                // Otherwise re-request (peers answer with ever-newer
                // checkpoints until the gap closes) — immediately after
                // a productive round, else once the in-flight round's
                // retry deadline passes.
                if rec.active {
                    if progress > rec.baseline {
                        rec.active = false;
                        rec.responses.clear();
                        self.telemetry.set_recovering(false);
                    } else if rec.may_request(now) {
                        rec.baseline = progress;
                        rec.requested_at = Some(now);
                        request_state(self.id, progress, peers);
                    }
                }
                let fire = stalled && pending && !ask_first;
                self.armed = waiting && !fire;
                self.last_progress = progress;
                if fire {
                    self.protocol.on_timeout()
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Completes one drain batch: performs the batch's single fsync
    /// ([`Protocol::flush_durable`]), routes `outputs` plus whatever
    /// the fsync released, answers deferred peer state requests
    /// strictly after the fsync, and publishes the batch's telemetry.
    pub(crate) fn finish_batch(
        &mut self,
        mut outputs: Vec<ProtocolOutput<P::Message>>,
        peers: &mut impl PeerSink,
        clients: &mut impl ClientSink,
    ) {
        outputs.extend(self.protocol.flush_durable());
        // Graceful-drain epilogue: once a drain was requested, no new
        // requests are admitted (see [`Host::handle`]); the first batch
        // that ends with nothing pending seals a final checkpoint and
        // flushes the WAL, then marks the drain complete so the
        // socket loop can exit 0.
        let telemetry = &self.telemetry;
        if telemetry.draining()
            && !telemetry.drained()
            && !self.protocol.has_pending_requests()
        {
            outputs.extend(self.protocol.drain_seal());
            outputs.extend(self.protocol.flush_durable());
            telemetry.complete_drain();
        }
        for output in outputs {
            route(output, peers, clients);
        }
        for req in self.state_requests.drain(..) {
            answer_state_request(self.id, &self.protocol, &req, peers);
        }

        // Publish the batch's telemetry: single atomic stores on the
        // pre-registered handles, plus change detection for the
        // view-change counter and the journal events.
        let gauges = &mut self.gauges;
        gauges.clear();
        self.protocol.probe_gauges(gauges);
        let progress = self.protocol.progress();
        telemetry.progress.set(progress);
        telemetry.fsyncs.set(self.protocol.durable_fsyncs());
        telemetry.wal_bytes.set(gauges.wal_bytes);
        telemetry.pending_requests.set(gauges.pending_requests);
        let view = gauges.view();
        telemetry.view.set(view);
        if view > self.last_view {
            telemetry.view_changes.add(view - self.last_view);
            telemetry.record_event(StatusEvent::ViewChange { view });
            self.last_view = view;
        }
        telemetry.checkpoint_seals.set(gauges.checkpoint_seals);
        if gauges.checkpoint_seals > self.last_seals {
            telemetry.record_event(StatusEvent::CheckpointSealed { seq: progress });
            self.last_seals = gauges.checkpoint_seals;
        }
        telemetry.set_shard_gauges(&gauges.shard_progress, &gauges.shard_fsyncs);
        telemetry.set_shard_views(&gauges.shard_views);
        telemetry.set_stable_checkpoints(&gauges.stable_checkpoint);
    }
}

/// Broadcasts a `STATE_REQUEST` to every peer.
fn request_state(id: ReplicaId, have_seq: u64, peers: &mut impl PeerSink) {
    let req = StateTransferRequest { replica: id, have_seq: SeqNum(have_seq) };
    peers.broadcast_frame(Arc::new(frame_message(frame_kind::STATE_REQUEST, &req)));
}

/// Serves one peer's `STATE_REQUEST`: current durable checkpoint plus
/// the retained log suffix above the requester's progress. `local` is
/// the responding replica's own id.
fn answer_state_request<P: Protocol>(
    local: ReplicaId,
    protocol: &P,
    req: &StateTransferRequest,
    peers: &mut impl PeerSink,
) {
    if !peers.is_peer(req.replica) {
        return;
    }
    let checkpoint = protocol.durable_checkpoint();
    let suffix = protocol.catch_up_messages(req.have_seq);
    if checkpoint.is_none() && suffix.is_empty() {
        return; // nothing to offer (genesis node)
    }
    let resp = StateTransferResponse {
        replica: local,
        checkpoint,
        suffix: encode(&suffix).into(),
    };
    peers.send_frame(req.replica, Arc::new(frame_message(frame_kind::STATE_RESPONSE, &resp)));
}

/// Ingests one peer's state response: its catch-up messages feed the
/// normal (verifying) message path immediately; its checkpoint is held
/// until `agreement` peers vouch for the same `(seq, digest)`, then
/// restored and the suffixes replayed.
///
/// Progress is recorded as typed journal events
/// ([`StatusEvent::StateTransferApplied`],
/// [`StatusEvent::CheckpointRestored`]), which operators poll over the
/// `STATUS` frame and the fault catalog reads from the journal, to
/// distinguish a log-suffix rejoin from a checkpoint restore.
fn apply_state_response<P: Protocol>(
    protocol: &mut P,
    rec: &mut Recovery,
    resp: StateTransferResponse,
    telemetry: &NodeTelemetry,
) -> Vec<ProtocolOutput<P::Message>> {
    let before = protocol.progress();
    // Every offered peer checkpoint raises the catch-up watermark:
    // `/readyz` stays 503 until this node's progress closes to within
    // the gap of the best checkpoint any peer has shown it.
    if let Some(cp) = &resp.checkpoint {
        telemetry.catchup_target.record_max(cp.seq.0);
    }
    let mut outputs = feed_suffix(protocol, &resp, telemetry);
    rec.responses.insert(resp.replica, resp);

    // Checkpoint agreement: group by (seq, digest), newest qualifying
    // group first.
    let mut groups: HashMap<(u64, Digest), (usize, &DurableCheckpoint)> = HashMap::new();
    for r in rec.responses.values() {
        if let Some(cp) = &r.checkpoint {
            if cp.seq.0 > protocol.progress() {
                groups.entry((cp.seq.0, cp.digest)).or_insert((0, cp)).0 += 1;
            }
        }
    }
    let agreed = groups
        .into_iter()
        .filter(|(_, (n, _))| *n >= rec.policy.agreement)
        .max_by_key(|((seq, _), _)| *seq)
        .map(|(_, (agreeing, cp))| (agreeing, cp.clone()));
    if let Some((agreeing, agreed)) = agreed {
        if protocol.restore_checkpoint(&agreed).is_ok() {
            telemetry.record_event(StatusEvent::CheckpointRestored {
                seq: agreed.seq.0,
                agreeing_peers: agreeing as u64,
            });
            // Replay every stored suffix on top of the restored state:
            // what was out of the watermark window before the restore
            // lands now.
            let responses: Vec<StateTransferResponse> =
                rec.responses.values().cloned().collect();
            for r in &responses {
                outputs.extend(feed_suffix(protocol, r, telemetry));
            }
            rec.responses.clear();
        }
    }
    // Progress made *by* the transfer is not organic progress: raise
    // the baseline by exactly what this application bought, so only
    // live-traffic execution (including any made earlier in the same
    // drain batch) ends the hunt.
    let gained = protocol.progress().saturating_sub(before);
    rec.baseline = rec.baseline.saturating_add(gained);
    if gained > 0 {
        // A productive round: clear the in-flight guard so the next
        // tick immediately requests the next chunk instead of waiting
        // out the retry deadline (the rolling-restart livelock fix —
        // chunked transfer must outpace the live commit rate).
        rec.requested_at = None;
    }
    outputs
}

/// Feeds one response's suffix messages through the protocol's normal
/// verifying message path, collecting any outputs for routing.
fn feed_suffix<P: Protocol>(
    protocol: &mut P,
    resp: &StateTransferResponse,
    telemetry: &NodeTelemetry,
) -> Vec<ProtocolOutput<P::Message>> {
    let Ok(msgs) = decode::<Vec<P::Message>>(&resp.suffix) else {
        return Vec::new(); // malformed suffix: ignore the responder
    };
    if msgs.is_empty() {
        return Vec::new();
    }
    let count = msgs.len();
    let before = protocol.progress();
    let mut outputs = Vec::new();
    for msg in msgs {
        outputs.extend(protocol.on_message(msg));
    }
    // Recorded *after* feeding, with the execution progress the suffix
    // actually bought — acceptance is protocol-internal (each message
    // re-verifies like network input), so the progress delta, not the
    // count, is the honest rejoin evidence.
    telemetry.record_event(StatusEvent::StateTransferApplied {
        messages: count as u64,
        from_progress: before,
        to_progress: protocol.progress(),
    });
    outputs
}

/// Routes one protocol output through the runtime's sinks.
pub(crate) fn route<M: WireMessage>(
    output: ProtocolOutput<M>,
    peers: &mut impl PeerSink,
    clients: &mut impl ClientSink,
) {
    match output {
        ProtocolOutput::Broadcast(msg) => {
            // Encode and frame once; every peer link shares the buffer.
            peers.broadcast_frame(Arc::new(frame_message(frame_kind::PROTOCOL, &msg)));
        }
        ProtocolOutput::Send { to, msg } => {
            peers.send_frame(to, Arc::new(frame_message(frame_kind::PROTOCOL, &msg)));
        }
        ProtocolOutput::Reply { to, reply } => clients.reply(to, reply),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::wire::parse_frame;
    use splitbft_types::{Digest, DurableCheckpoint, ProtocolError};

    /// Test time: the node has been up `ms`. `Host` sees only what it
    /// is handed, so most tests stand still at `at(0)`.
    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    /// A protocol whose progress is simply the largest message value it
    /// has seen — enough to distinguish organic progress (fed as
    /// [`Event::Peer`]) from transfer progress (fed through suffixes)
    /// at the hosting layer.
    struct CatchUp {
        progress: u64,
    }

    impl Protocol for CatchUp {
        type Message = u64;

        fn on_message(&mut self, msg: u64) -> Vec<ProtocolOutput<u64>> {
            self.progress = self.progress.max(msg);
            Vec::new()
        }

        fn on_client_requests(&mut self, _requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn progress(&self) -> u64 {
            self.progress
        }

        fn has_pending_requests(&self) -> bool {
            false
        }

        fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
            self.progress = self.progress.max(cp.seq.0);
            Ok(())
        }
    }

    /// A recording peer sink: keeps every frame and decodes the state
    /// requests back out for assertions.
    struct Peers {
        members: Vec<ReplicaId>,
        frames: Vec<Arc<Vec<u8>>>,
    }

    impl Peers {
        fn new(members: &[u32]) -> Self {
            Peers { members: members.iter().map(|&id| ReplicaId(id)).collect(), frames: Vec::new() }
        }

        fn state_requests(&self) -> Vec<StateTransferRequest> {
            self.frames
                .iter()
                .filter_map(|framed| {
                    let (view, _) = parse_frame(framed).expect("well-formed frame")?;
                    (view.kind == frame_kind::STATE_REQUEST)
                        .then(|| decode(view.payload).expect("state request payload"))
                })
                .collect()
        }
    }

    impl PeerSink for Peers {
        fn broadcast_frame(&mut self, framed: Arc<Vec<u8>>) {
            self.frames.push(framed);
        }

        fn send_frame(&mut self, _to: ReplicaId, framed: Arc<Vec<u8>>) {
            self.frames.push(framed);
        }

        fn is_peer(&self, id: ReplicaId) -> bool {
            self.members.contains(&id)
        }
    }

    struct NoClients;

    impl ClientSink for NoClients {
        fn reply(&mut self, _to: ClientId, _reply: Reply) {}
    }

    fn response(
        from: u32,
        suffix_to: Option<u64>,
        checkpoint: Option<(u64, u8)>,
    ) -> StateTransferResponse {
        StateTransferResponse {
            replica: ReplicaId(from),
            checkpoint: checkpoint.map(|(seq, d)| DurableCheckpoint {
                seq: SeqNum(seq),
                digest: Digest([d; 32]),
                state: bytes::Bytes::new(),
            }),
            suffix: encode(&suffix_to.into_iter().collect::<Vec<u64>>()).into(),
        }
    }

    fn recovering_host(
        agreement: usize,
        peers: &mut Peers,
    ) -> Host<CatchUp> {
        Host::new(
            ReplicaId(0),
            CatchUp { progress: 0 },
            RecoveryPolicy { agreement, at_startup: true },
            NodeTelemetry::new(0),
            at(0),
            peers,
        )
    }

    /// Requests pending forever and no progress: every tick after the
    /// first is a stall. A fired timeout shows up as a broadcast.
    struct Stalled;

    impl Protocol for Stalled {
        type Message = u64;

        fn on_message(&mut self, _msg: u64) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn on_client_requests(&mut self, _requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> {
            vec![ProtocolOutput::Broadcast(0)]
        }
    }

    /// A policy with no startup round: what a node without a data
    /// directory runs.
    const ON_STALL_ONLY: RecoveryPolicy = RecoveryPolicy { agreement: 1, at_startup: false };

    #[test]
    fn a_stalled_replica_asks_its_peers_before_accusing_the_primary() {
        let mut peers = Peers::new(&[1, 2]);
        let policy = RecoveryPolicy { agreement: 1, at_startup: true };
        let mut host = Host::new(ReplicaId(0), Stalled, policy, NodeTelemetry::new(0), at(0), &mut peers);
        assert_eq!(peers.state_requests().len(), 1, "startup round");

        // First tick arms the timer; the startup round is in flight.
        assert!(host.handle(Event::Timeout, at(0), &mut peers).is_empty());
        assert_eq!(peers.state_requests().len(), 1);
        // First stalled tick: ask again at once — the in-flight guard
        // is 1.5 s away — and do not accuse yet.
        assert!(host.handle(Event::Timeout, at(0), &mut peers).is_empty());
        assert_eq!(peers.state_requests().len(), 2);
        // Still stalled a tick later: now the timeout fires.
        assert_eq!(host.handle(Event::Timeout, at(0), &mut peers).len(), 1);

        // Every node can ask, data directory or not: the same three
        // ticks, minus the startup round.
        let mut peers = Peers::new(&[1, 2]);
        let mut host =
            Host::new(ReplicaId(0), Stalled, ON_STALL_ONLY, NodeTelemetry::new(0), at(0), &mut peers);
        assert!(!host.recovering());
        assert!(host.handle(Event::Timeout, at(0), &mut peers).is_empty());
        assert!(host.handle(Event::Timeout, at(0), &mut peers).is_empty());
        assert_eq!(peers.state_requests().len(), 1, "asked on the first stalled tick");
        assert_eq!(host.handle(Event::Timeout, at(0), &mut peers).len(), 1);
    }

    /// Nothing pending, but a stable checkpoint at 128 while progress
    /// moves as the test says.
    struct Behind {
        progress: u64,
    }

    impl Protocol for Behind {
        type Message = u64;

        fn on_message(&mut self, _msg: u64) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn on_client_requests(&mut self, _requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> {
            vec![ProtocolOutput::Broadcast(0)]
        }

        fn progress(&self) -> u64 {
            self.progress
        }

        fn has_pending_requests(&self) -> bool {
            false
        }

        fn probe_gauges(&self, gauges: &mut ProtocolGauges) {
            gauges.add_group(self.progress, 0, 0, 128);
        }
    }

    /// Checkpoint votes carry a digest, not the state: a replica whose
    /// stable checkpoint is ahead of it can only ask. While it still
    /// executes slots it holds it is not stalled; once it stops, the
    /// second stalled tick asks the peers — and with no request waiting,
    /// nobody is accused however long it lasts.
    #[test]
    fn a_replica_behind_a_stable_checkpoint_asks_its_peers_once_it_stops_progressing() {
        let mut peers = Peers::new(&[1, 2]);
        let behind = Behind { progress: 100 };
        let mut host =
            Host::new(ReplicaId(0), behind, ON_STALL_ONLY, NodeTelemetry::new(0), at(0), &mut peers);

        for _ in 0..4 {
            host.protocol.progress += 1;
            assert!(host.handle(Event::Timeout, at(0), &mut peers).is_empty());
        }
        assert!(peers.state_requests().is_empty(), "still executing: nothing to ask for");

        assert!(host.handle(Event::Timeout, at(0), &mut peers).is_empty());
        assert_eq!(peers.state_requests().len(), 1, "one request once a whole period passed without progress");
        assert_eq!(peers.state_requests()[0].have_seq, SeqNum(104));
        assert!(host.recovering());
        for _ in 0..3 {
            assert!(host.handle(Event::Timeout, at(0), &mut peers).is_empty(), "no view change");
        }
        assert_eq!(peers.state_requests().len(), 1, "the round in flight is rate-limited");

        // Level with the stable checkpoint: nothing left to wait for.
        host.protocol.progress = 128;
        host.handle(Event::Timeout, at(0), &mut peers);
        host.handle(Event::Timeout, at(0), &mut peers);
        assert_eq!(peers.state_requests().len(), 1);
    }

    /// Regression test for the rolling-restart state-transfer livelock:
    /// peers serve the suffix in bounded chunks, so throttling
    /// *productive* rounds to the retry deadline capped transfer
    /// throughput below a loaded cluster's commit rate — the victim's
    /// gap grew faster than it closed. A round that advanced progress
    /// must re-request on the very next tick.
    #[test]
    fn productive_transfer_rounds_rerequest_on_the_next_tick() {
        let mut peers = Peers::new(&[1, 2]);
        let mut host = recovering_host(1, &mut peers);
        assert_eq!(peers.state_requests().len(), 1, "startup round");

        // Peer 1's chunk advances progress 0 -> 5: a productive round.
        let outputs = host.handle(Event::StateResponse(response(1, Some(5), None)), at(0), &mut peers);
        assert!(outputs.is_empty());
        assert_eq!(host.protocol.progress(), 5);

        // The next tick fires well within the 1.5 s retry deadline and
        // must still open the next round, at the new offset.
        host.handle(Event::Timeout, at(0), &mut peers);
        let requests = peers.state_requests();
        assert_eq!(requests.len(), 2, "productive rounds are not rate-limited");
        assert_eq!(requests[1].have_seq, SeqNum(5), "re-request starts where the chunk ended");
    }

    /// The converse guard: a round that bought nothing stays behind the
    /// retry deadline, so a dead or empty responder is not hammered.
    #[test]
    fn unproductive_rounds_stay_rate_limited() {
        let mut peers = Peers::new(&[1, 2]);
        let mut host = recovering_host(1, &mut peers);

        host.handle(Event::StateResponse(response(1, None, None)), at(0), &mut peers);
        for _ in 0..5 {
            host.handle(Event::Timeout, at(0), &mut peers);
        }
        assert_eq!(
            peers.state_requests().len(),
            1,
            "only the startup round may be in flight within the retry deadline"
        );
        assert!(host.recovering(), "the hunt continues until progress flows");
    }

    /// Organic progress made earlier in the same drain batch as a
    /// transfer application must still end the hunt: the baseline is
    /// raised by exactly what the transfer bought, not to the
    /// protocol's total progress (which silently swallowed the organic
    /// share and kept the hunt alive forever under sustained load).
    #[test]
    fn organic_progress_in_a_transfer_batch_still_ends_the_hunt() {
        let mut peers = Peers::new(&[1, 2]);
        let mut host = recovering_host(1, &mut peers);

        // Live traffic lands first (organic progress 0 -> 3), then a
        // transfer chunk follows in the same batch (3 -> 10).
        host.handle(Event::Peer(3), at(0), &mut peers);
        host.handle(Event::StateResponse(response(1, Some(10), None)), at(0), &mut peers);

        host.handle(Event::Timeout, at(0), &mut peers);
        assert!(!host.recovering(), "organic progress ends the hunt");
        host.handle(Event::Timeout, at(0), &mut peers);
        assert_eq!(peers.state_requests().len(), 1, "an ended hunt never re-requests");
    }

    /// Checkpoint votes must survive a re-request round: peers seal
    /// checkpoints at their own pace, so the f + 1 matching
    /// `(seq, digest)` votes can straddle a round boundary. Clearing
    /// the response set on every re-request (the old behavior) made
    /// agreement unreachable whenever rounds turned over faster than
    /// all peers answered.
    #[test]
    fn late_checkpoint_votes_survive_rerequest_rounds() {
        let mut peers = Peers::new(&[1, 2, 3]);
        let mut host = recovering_host(2, &mut peers);

        // Round 1: peer 1 vouches for checkpoint (50, d) and its chunk
        // nudges progress to 1 — one vote, no restore yet.
        host.handle(Event::StateResponse(response(1, Some(1), Some((50, 7)))), at(0), &mut peers);
        assert_eq!(host.protocol.progress(), 1, "a single vote must not restore");

        // The productive round re-requests immediately (round 2).
        host.handle(Event::Timeout, at(0), &mut peers);
        assert_eq!(peers.state_requests().len(), 2);

        // Peer 2's matching vote arrives after the round turned over:
        // agreement is reached across rounds and the checkpoint lands.
        host.handle(Event::StateResponse(response(2, None, Some((50, 7)))), at(0), &mut peers);
        assert_eq!(host.protocol.progress(), 50, "cross-round votes must reach agreement");
    }

    /// A protocol that implements no probe reports a single group whose
    /// progress is its `progress()`, and a 0/1 pending signal — what the
    /// seven getters this probe replaced used to default to.
    #[test]
    fn the_default_probe_reports_one_group_at_the_protocols_progress() {
        let mut gauges = ProtocolGauges::default();
        let protocol = CatchUp { progress: 17 };
        protocol.probe_gauges(&mut gauges);
        let one_group = ProtocolGauges {
            shard_progress: vec![protocol.progress()],
            shard_fsyncs: vec![0],
            shard_views: vec![0],
            stable_checkpoint: vec![0],
            ..ProtocolGauges::default()
        };
        assert_eq!(gauges, one_group, "CatchUp never has requests pending");

        // The probe adds; the host clears between batches.
        Stalled.probe_gauges(&mut gauges);
        assert_eq!(gauges.shard_progress, vec![17, 0]);
        assert_eq!(gauges.pending_requests, 1, "Stalled keeps the always-pending default");
        gauges.clear();
        assert_eq!(gauges, ProtocolGauges::default());
    }

    /// Telemetry publishes at batch end, and deferred state requests are
    /// answered after the flush.
    #[test]
    fn finish_batch_publishes_gauges_and_answers_deferred_requests() {
        let mut peers = Peers::new(&[1]);
        let telemetry = NodeTelemetry::new(0);
        let mut host = Host::new(
            ReplicaId(0),
            CatchUp { progress: 0 },
            ON_STALL_ONLY,
            Arc::clone(&telemetry),
            at(0),
            &mut peers,
        );

        host.handle(Event::Peer(42), at(0), &mut peers);
        host.handle(
            Event::StateRequest(StateTransferRequest {
                replica: ReplicaId(1),
                have_seq: SeqNum(0),
            }),
            at(0),
            &mut peers,
        );
        assert!(peers.frames.is_empty(), "state requests are deferred to batch end");

        host.finish_batch(Vec::new(), &mut peers, &mut NoClients);
        assert_eq!(telemetry.progress.get(), 42, "telemetry mirrors the batch");
        assert_eq!(telemetry.shard_progress(), vec![42]);
        assert_eq!(telemetry.shard_fsyncs(), vec![0]);
        // CatchUp has no checkpoint and no suffix to offer, so the
        // deferred request is answered with silence — but a protocol
        // with state would have been consulted only now, after the
        // batch's flush point (covered end-to-end by the conformance
        // suite and the fault catalog).
        assert!(peers.frames.is_empty());
    }

    /// A protocol that counts the client requests it is handed and
    /// reports one durable seal once drained — enough to observe the
    /// host's drain gating and epilogue.
    struct Drainable {
        requests_seen: usize,
        pending: bool,
        seals: u64,
        sealed_on_drain: bool,
    }

    impl Protocol for Drainable {
        type Message = u64;

        fn on_message(&mut self, _msg: u64) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn on_client_requests(&mut self, requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
            self.requests_seen += requests.len();
            Vec::new()
        }

        fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn has_pending_requests(&self) -> bool {
            self.pending
        }

        fn probe_gauges(&self, gauges: &mut ProtocolGauges) {
            gauges.add_group(0, 0, 0, 0);
            gauges.checkpoint_seals += self.seals;
        }

        fn drain_seal(&mut self) -> Vec<ProtocolOutput<u64>> {
            self.sealed_on_drain = true;
            self.seals += 1;
            Vec::new()
        }
    }

    fn request(n: u64) -> Request {
        Request {
            id: splitbft_types::RequestId {
                client: ClientId(7),
                timestamp: splitbft_types::Timestamp(n),
            },
            op: bytes::Bytes::new(),
            encrypted: false,
            auth: [0; 32],
        }
    }

    /// The drain contract at the hosting layer: requests accepted before
    /// the drain execute, requests arriving after are refused, and the
    /// first idle batch seals + completes the drain (journaled).
    #[test]
    fn drain_refuses_new_requests_then_seals_and_completes() {
        let mut peers = Peers::new(&[1]);
        let telemetry = NodeTelemetry::new(0);
        let protocol =
            Drainable { requests_seen: 0, pending: true, seals: 0, sealed_on_drain: false };
        let mut host =
            Host::new(ReplicaId(0), protocol, ON_STALL_ONLY, Arc::clone(&telemetry), at(0), &mut peers);

        host.handle(Event::Requests(vec![request(1)]), at(0), &mut peers);
        assert_eq!(host.protocol.requests_seen, 1, "pre-drain requests are admitted");

        telemetry.request_drain();
        host.handle(Event::Requests(vec![request(2)]), at(0), &mut peers);
        assert_eq!(host.protocol.requests_seen, 1, "post-drain requests are refused");

        // Still pending: the batch must NOT complete the drain yet.
        host.finish_batch(Vec::new(), &mut peers, &mut NoClients);
        assert!(!telemetry.drained(), "in-flight work holds the drain open");
        assert!(!host.protocol.sealed_on_drain);

        // The in-flight batch finishes; the next drain batch seals.
        host.protocol.pending = false;
        host.handle(Event::Drain, at(0), &mut peers);
        host.finish_batch(Vec::new(), &mut peers, &mut NoClients);
        assert!(host.protocol.sealed_on_drain, "drain epilogue forces a seal");
        assert!(telemetry.drained());
        let events: Vec<StatusEvent> =
            telemetry.journal.since(0).into_iter().map(|(_, e)| e).collect();
        assert!(events.contains(&StatusEvent::DrainRequested));
        assert!(events.contains(&StatusEvent::DrainCompleted));
        assert!(
            events.contains(&StatusEvent::CheckpointSealed { seq: 0 }),
            "the drain seal is journaled: {events:?}"
        );
    }
}
