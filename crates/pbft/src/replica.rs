//! The sans-I/O PBFT replica state machine.
//!
//! This is the baseline the paper evaluates SplitBFT against: a complete
//! PBFT replica — normal operation, checkpointing, and view changes — as a
//! deterministic state machine. All I/O, timers, and batching live in the
//! surrounding runtime, which drives it through its [`Protocol`] impl and
//! routes the returned [`ProtocolOutput`]s.
//!
//! # Protocol summary
//!
//! Normal operation is the classic three-phase pattern: the view's primary
//! assigns a sequence number in a `PrePrepare`; backups validate and vote
//! `Prepare`; once a replica holds a *prepare certificate* (the proposal
//! plus `2f` matching prepares) it votes `Commit`; once it holds `2f + 1`
//! matching commits the batch is committed and executed in sequence order,
//! with one authenticated `Reply` per request. Every
//! `checkpoint_interval` executions the replica snapshots its state and
//! broadcasts a `Checkpoint` carrying the snapshot's digest; `2f + 1`
//! matching checkpoints advance the watermark and garbage-collect the
//! log. When the environment's timer fires
//! ([`Protocol::on_timeout`]) the replica votes `ViewChange`; the
//! next primary assembles `2f + 1` votes into a `NewView` that re-issues
//! every prepared-but-unstable proposal (see
//! [`crate::viewchange::plan_new_view`]).

use crate::checkpoint::{split_durable_checkpoint, CheckpointTracker};
use crate::log::MessageLog;
use crate::verify::{
    self, verify_signed_from, SignerScheme, REPLICA_SCHEME,
};
use crate::viewchange::{
    plan_new_view, validate_new_view, NewViewPlan, PendingRequests, ViewChangeTracker, ViewTimer,
};
use splitbft_app::{Application, Cached, CheckpointState, ReplyCache};
use splitbft_crypto::{client_mac_key, digest_of, ClientMacKeys, KeyPair, KeyRegistry};
use splitbft_net::transport::{Protocol, ProtocolGauges, ProtocolOutput};
use splitbft_types::{
    Checkpoint, ClientId, ClusterConfig, Commit, ConsensusMessage, Digest, DurableCheckpoint,
    DurableEvent, NewView, PrePrepare, Prepare, PrepareCertificate, ProtocolError, ReplicaId,
    Request, RequestBatch, SeqNum, Signed, SignerId, View, ViewChange,
};
use std::collections::BTreeMap;

/// Where a handler puts what the replica sends.
type Out = Vec<ProtocolOutput<ConsensusMessage>>;

/// Upper bound on buffered future-view messages (defence against memory
/// exhaustion by a byzantine peer flooding messages for far-future views).
const MAX_FUTURE_BUFFER: usize = 4_096;

/// Most slots served per catch-up response (state transfer is chunked:
/// a deeply lagging peer requests again with a higher `have_seq`).
/// Shared with the SplitBFT broker's suffix ring for the same reason.
pub const CATCH_UP_CHUNK_SLOTS: usize = 64;

/// Where the replica is in the view-change life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Normal three-phase operation.
    Normal,
    /// Voted for a view change and waiting for the `NewView`.
    InViewChange,
}

/// A complete PBFT replica.
///
/// Generic over the [`Application`] it replicates (the paper's key-value
/// store or blockchain).
pub struct Replica<A> {
    config: ClusterConfig,
    id: ReplicaId,
    signer: SignerId,
    keypair: KeyPair,
    registry: KeyRegistry,
    /// MAC keys of the clients whose requests verified here before.
    client_keys: ClientMacKeys,
    scheme: SignerScheme,

    view: View,
    status: Status,
    log: MessageLog,
    /// Checkpoint votes, and this replica's frozen state at each of its
    /// own checkpoints from the stable one upward.
    checkpoints: CheckpointTracker<CheckpointState<A>>,
    view_changes: ViewChangeTracker,
    /// Highest-view prepare certificate per slot, kept across view changes
    /// for inclusion in `ViewChange` messages.
    prepared_certs: BTreeMap<SeqNum, PrepareCertificate>,
    /// Buffered messages for views above the current one, re-injected
    /// after entering a new view.
    future_buffer: Vec<ConsensusMessage>,
    /// The latest `NewView` this replica emitted or accepted, retained
    /// for peer catch-up: a replica that was down during the broadcast
    /// can only join the view through this (self-certifying) message,
    /// so it leads every served catch-up suffix.
    last_new_view: Option<Signed<NewView>>,
    /// Re-broadcast-or-advance backoff while awaiting a `NewView`.
    view_timer: ViewTimer,

    app: A,
    /// Highest sequence number assigned by this replica as primary.
    next_seq: SeqNum,
    /// Highest sequence number executed.
    last_exec: SeqNum,
    /// Cached last reply per client, for duplicate suppression and resend.
    replies: ReplyCache,
    /// Authenticated-but-not-yet-executed requests: the evidence a
    /// request-aware view-change timer needs. Markers clear on execution
    /// and on starting a view change.
    pending_requests: PendingRequests,
    /// Durable consensus events buffered for the hosting runtime's WAL.
    /// Only populated once a durable runtime opted in by draining them
    /// ([`Protocol::drain_durable_events`]); plain in-memory hosting pays
    /// nothing.
    durable: Vec<DurableEvent>,
    /// Whether durable events are being recorded.
    durable_enabled: bool,
}

impl<A: Application> Replica<A> {
    /// Creates replica `id` of an `n`-replica cluster. All keys are
    /// derived deterministically from `master_seed` (see
    /// [`KeyRegistry::with_signers`]).
    pub fn new(config: ClusterConfig, id: ReplicaId, master_seed: u64, app: A) -> Self {
        let signer = SignerId::Replica(id);
        let registry =
            KeyRegistry::with_signers(master_seed, config.replicas().map(SignerId::Replica));
        let keypair = KeyPair::for_signer(master_seed, signer);
        let log = MessageLog::new(&config);
        Replica {
            config,
            id,
            signer,
            keypair,
            registry,
            client_keys: ClientMacKeys::new(master_seed),
            scheme: REPLICA_SCHEME,
            view: View::initial(),
            status: Status::Normal,
            log,
            checkpoints: CheckpointTracker::new(),
            view_changes: ViewChangeTracker::new(),
            prepared_certs: BTreeMap::new(),
            future_buffer: Vec::new(),
            last_new_view: None,
            view_timer: ViewTimer::default(),
            app,
            next_seq: SeqNum::zero(),
            last_exec: SeqNum::zero(),
            replies: ReplyCache::new(),
            pending_requests: PendingRequests::default(),
            durable: Vec::new(),
            durable_enabled: false,
        }
    }

    // --- accessors ---------------------------------------------------------

    /// This replica's identifier.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The current status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// `true` if this replica is the primary of its current view.
    pub fn is_primary(&self) -> bool {
        self.view.primary(&self.config) == self.id
    }

    /// Highest executed sequence number.
    pub fn last_executed(&self) -> SeqNum {
        self.last_exec
    }

    /// The last stable checkpoint.
    pub fn stable_seq(&self) -> SeqNum {
        self.checkpoints.stable_seq()
    }

    /// Read access to the replicated application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Digest of the current checkpointable state (application snapshot
    /// plus reply cache).
    pub fn state_digest(&self) -> Digest {
        self.replies.state_digest(&self.app)
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Approximate memory in use by protocol state (for EPC accounting).
    pub fn memory_usage(&self) -> usize {
        self.log.len() * 512
            + self.app.memory_usage()
            + self.replies.len() * 128
            + self.client_keys.memory_usage()
    }

    // --- durability --------------------------------------------------------

    /// Records `event` if a durable runtime opted in (by draining the
    /// events once). Takes a closure so disabled replicas do not even
    /// build the event (the `Committed` variant clones the whole batch).
    fn record(&mut self, event: impl FnOnce() -> DurableEvent) {
        if self.durable_enabled {
            self.durable.push(event());
        }
    }

    // --- event handlers ------------------------------------------------

    /// Handles one verified-on-arrival protocol message.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]: rejected messages are normal in a byzantine
    /// system. Whatever the call pushed to `out` before failing is void,
    /// and the callers truncate it away.
    fn handle(&mut self, msg: ConsensusMessage, out: &mut Out) -> Result<(), ProtocolError> {
        match msg {
            ConsensusMessage::PrePrepare(pp) => self.handle_pre_prepare(pp, out),
            ConsensusMessage::Prepare(p) => self.handle_prepare(p, out),
            ConsensusMessage::Commit(c) => self.handle_commit(c, out),
            ConsensusMessage::Checkpoint(c) => self.handle_checkpoint(c),
            ConsensusMessage::ViewChange(vc) => self.handle_view_change(vc, out),
            ConsensusMessage::NewView(nv) => self.handle_new_view(nv, out),
        }
    }

    /// This replica's `ViewChange` for `target`, freshly signed.
    fn signed_view_change(&self, target: View) -> Signed<ViewChange> {
        let vc = ViewChange {
            new_view: target,
            stable_seq: self.checkpoints.stable_seq(),
            checkpoint_proof: self.checkpoints.stable_proof().clone(),
            prepared: self
                .prepared_certs
                .range(SeqNum(self.checkpoints.stable_seq().0 + 1)..)
                .map(|(_, cert)| cert.clone())
                .collect(),
            replica: self.id,
        };
        self.keypair.sign_payload(vc, self.signer)
    }

    // --- normal operation ------------------------------------------------

    /// Authenticates every request in a proposed batch at once: the
    /// per-request tags are still computed, but accept/reject collapses
    /// to a single constant-time comparison
    /// ([`splitbft_crypto::verify_tag_batch`]) — the whole batch is
    /// rejected on any failure, so no per-request verdict is needed.
    fn verify_request_batch(&mut self, requests: &[Request]) -> bool {
        self.client_keys.verify_requests(requests)
    }

    fn check_active_view(&self, view: View, seq: SeqNum) -> Result<(), ProtocolError> {
        if view != self.view {
            return Err(ProtocolError::WrongView { got: view, current: self.view });
        }
        if self.status != Status::Normal {
            return Err(ProtocolError::Other("in view change".into()));
        }
        self.log.check_window(seq)
    }

    fn buffer_future(&mut self, msg: ConsensusMessage) {
        if self.future_buffer.len() < MAX_FUTURE_BUFFER {
            self.future_buffer.push(msg);
        }
    }

    fn handle_pre_prepare(
        &mut self,
        pp: Signed<PrePrepare>,
        out: &mut Out,
    ) -> Result<(), ProtocolError> {
        let view = pp.payload.view;
        let seq = pp.payload.seq;
        if view > self.view {
            self.buffer_future(ConsensusMessage::PrePrepare(pp));
            return Ok(());
        }
        let primary = view.primary(&self.config);
        verify_signed_from(&self.registry, &pp, (self.scheme.proposer)(primary))?;
        self.check_active_view(view, seq)?;
        if digest_of(&pp.payload.batch) != pp.payload.digest {
            return Err(ProtocolError::BadCertificate { kind: "pre-prepare digest" });
        }
        // Backups refuse to prepare a batch containing unauthenticated
        // requests: a byzantine primary must not be able to launder
        // forged client operations through agreement.
        if !self.verify_request_batch(&pp.payload.batch.requests) {
            return Err(ProtocolError::BadAuthenticator { kind: "request in batch" });
        }
        self.accept_pre_prepare(pp, out)
    }

    /// Inserts an already-validated proposal and emits this backup's
    /// `Prepare`. Shared between the network path and `NewView`
    /// processing.
    fn accept_pre_prepare(
        &mut self,
        pp: Signed<PrePrepare>,
        out: &mut Out,
    ) -> Result<(), ProtocolError> {
        let view = pp.payload.view;
        let seq = pp.payload.seq;
        let digest = pp.payload.digest;
        self.log.insert_pre_prepare(pp)?;
        self.record(|| DurableEvent::Accepted { view, seq, digest });

        if !self.is_primary() && !self.log.slot(seq).is_some_and(|s| s.prepare_sent) {
            let prepare = self.keypair.sign_payload(
                Prepare { view, seq, digest, replica: self.id },
                self.signer,
            );
            self.log.insert_prepare(prepare.clone());
            self.log.slot_mut(seq).prepare_sent = true;
            out.push(ProtocolOutput::Broadcast(ConsensusMessage::Prepare(prepare)));
        }
        self.maybe_prepared(seq, out);
        Ok(())
    }

    fn handle_prepare(&mut self, p: Signed<Prepare>, out: &mut Out) -> Result<(), ProtocolError> {
        let view = p.payload.view;
        let seq = p.payload.seq;
        if view > self.view {
            self.buffer_future(ConsensusMessage::Prepare(p));
            return Ok(());
        }
        verify_signed_from(&self.registry, &p, (self.scheme.preparer)(p.payload.replica))?;
        if !self.config.contains(p.payload.replica) {
            return Err(ProtocolError::UnknownReplica(p.payload.replica));
        }
        self.check_active_view(view, seq)?;
        self.log.insert_prepare(p);
        self.maybe_prepared(seq, out);
        Ok(())
    }

    fn maybe_prepared(&mut self, seq: SeqNum, out: &mut Out) {
        if !self.log.prepared(seq, self.view, &self.config) {
            return;
        }
        // Remember the certificate for future view changes.
        if let Some(cert) = self.log.prepare_certificate(seq, self.view, &self.config) {
            match self.prepared_certs.get(&seq) {
                Some(existing) if existing.view() >= cert.view() => {}
                _ => {
                    self.prepared_certs.insert(seq, cert);
                }
            }
        }
        if !self.log.slot_mut(seq).commit_sent {
            let digest = self.log.accepted_digest(seq).expect("prepared implies proposal");
            let commit = self.keypair.sign_payload(
                Commit { view: self.view, seq, digest, replica: self.id },
                self.signer,
            );
            self.log.insert_commit(commit.clone());
            self.log.slot_mut(seq).commit_sent = true;
            out.push(ProtocolOutput::Broadcast(ConsensusMessage::Commit(commit)));
        }
        self.try_execute(out);
    }

    fn handle_commit(&mut self, c: Signed<Commit>, out: &mut Out) -> Result<(), ProtocolError> {
        let view = c.payload.view;
        let seq = c.payload.seq;
        if view > self.view {
            self.buffer_future(ConsensusMessage::Commit(c));
            return Ok(());
        }
        verify_signed_from(&self.registry, &c, (self.scheme.confirmer)(c.payload.replica))?;
        if !self.config.contains(c.payload.replica) {
            return Err(ProtocolError::UnknownReplica(c.payload.replica));
        }
        self.check_active_view(view, seq)?;
        self.log.insert_commit(c);
        self.maybe_prepared(seq, out);
        self.try_execute(out);
        Ok(())
    }

    fn try_execute(&mut self, out: &mut Out) {
        loop {
            let next = self.last_exec.next();
            if !self.log.committed(next, self.view, &self.config) {
                break;
            }
            // Executing borrows the whole replica, so the proposal leaves
            // its slot for the duration instead of being cloned; the slot
            // keeps it afterwards for `catch_up_messages`.
            let pp = self
                .log
                .slot_mut(next)
                .pre_prepare
                .take()
                .expect("committed implies proposal");
            self.record(|| DurableEvent::Committed { seq: next, batch: pp.payload.batch.clone() });
            self.execute_batch(&pp.payload.batch, out);
            self.log.slot_mut(next).pre_prepare = Some(pp);
            self.last_exec = next;

            if next.0.is_multiple_of(self.config.checkpoint_interval) {
                self.emit_checkpoint(next, out);
            }
        }
        self.collect_log_garbage();
    }

    /// Executes `batch` once per fresh request, pushing the replies
    /// (cached ones for retransmissions).
    fn execute_batch(&mut self, batch: &RequestBatch, out: &mut Out) {
        for req in &batch.requests {
            let client = req.client();
            match self.replies.lookup(req.id) {
                Cached::Resend(reply) => {
                    out.push(ProtocolOutput::Reply { to: client, reply: reply.clone() });
                    continue;
                }
                Cached::Stale => continue,
                Cached::Fresh => {}
            }
            // The baseline executes plaintext operations; an encrypted
            // operation (SplitBFT's confidential mode) is opaque bytes
            // here and will execute as a no-op.
            let result = self.app.execute(&req.op);
            let reply =
                self.replies.record(&self.client_keys, self.view, self.id, req.id, result, false);
            self.pending_requests.executed(req.id);
            out.push(ProtocolOutput::Reply { to: client, reply });
        }
        // The baseline has no enclave to seal an application's blobs
        // (blockchain blocks) in, and no runtime stores them: dropped.
        self.app.drain_persist();
    }

    // --- checkpointing ----------------------------------------------------

    /// The one place application state is replaced wholesale: installs
    /// `snapshot` as the state after `seq`, if the tracker admits it
    /// ([`CheckpointTracker::admit_snapshot`]).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptState`] when it does not (or the snapshot
    /// does not parse); nothing has changed then.
    fn install_snapshot(&mut self, seq: SeqNum, snapshot: &[u8]) -> Result<(), ProtocolError> {
        let certified = self.checkpoints.admit_snapshot(seq, self.last_exec, snapshot)?;
        self.replies.restore_state(snapshot, &mut self.app, &self.client_keys, self.view, self.id)?;
        // The transfer executed (on our behalf) everything up to the
        // checkpoint: drop pending markers the restored replies cover.
        for executed in self.replies.executed() {
            self.pending_requests.executed(executed);
        }
        self.last_exec = seq;
        if self.next_seq < seq {
            self.next_seq = seq;
        }
        let state = CheckpointState::capture(&self.app, &self.replies);
        self.checkpoints.retain_snapshot(seq, certified, state);
        self.collect_log_garbage();
        Ok(())
    }

    /// Takes the periodic checkpoint: the state, frozen, stays here
    /// beside the tracker, and the broadcast vote carries its digest
    /// alone.
    fn emit_checkpoint(&mut self, seq: SeqNum, out: &mut Out) {
        let state = CheckpointState::capture(&self.app, &self.replies);
        let ckpt = self.checkpoints.vote_on(seq, self.id, state);
        let signed = self.keypair.sign_payload(ckpt, self.signer);
        if let Some(cert) = self.checkpoints.insert(signed.clone(), &self.config) {
            self.apply_stable_checkpoint(cert.seq());
        }
        out.push(ProtocolOutput::Broadcast(ConsensusMessage::Checkpoint(signed)));
    }

    fn handle_checkpoint(&mut self, c: Signed<Checkpoint>) -> Result<(), ProtocolError> {
        verify_signed_from(&self.registry, &c, (self.scheme.executor)(c.payload.replica))?;
        if !self.config.contains(c.payload.replica) {
            return Err(ProtocolError::UnknownReplica(c.payload.replica));
        }
        if let Some(cert) = self.checkpoints.insert(c, &self.config) {
            self.apply_stable_checkpoint(cert.seq());
        }
        Ok(())
    }

    /// Bookkeeping for a checkpoint that just became stable at `seq`. A
    /// replica that has not executed up to `seq` is now *behind*: it
    /// keeps executing the slots it holds, and what it is missing reaches
    /// it as a snapshot through [`Protocol::restore_checkpoint`].
    fn apply_stable_checkpoint(&mut self, seq: SeqNum) {
        self.collect_log_garbage();
        self.prepared_certs = self.prepared_certs.split_off(&SeqNum(seq.0 + 1));
        self.record(|| DurableEvent::StableCheckpoint { seq });
    }

    /// Discards log slots that are both stable and executed. While the
    /// replica is behind its stable checkpoint the low watermark trails
    /// at what it has executed, so committed slots it still has to
    /// execute stay in the log and in the window.
    fn collect_log_garbage(&mut self) {
        self.log.collect_garbage(self.checkpoints.stable_seq().min(self.last_exec));
    }

    // --- view changes -----------------------------------------------------

    fn start_view_change(&mut self, target: View, out: &mut Out) {
        if target <= self.view && self.status == Status::InViewChange {
            return;
        }
        let target = target.max(self.view.next());
        self.status = Status::InViewChange;
        self.view = target;
        self.view_timer.on_vote_sent();
        self.record(|| DurableEvent::EnteredView { view: target });
        self.pending_requests.clear();

        let signed = self.signed_view_change(target);
        self.view_changes.insert(signed.clone());
        out.push(ProtocolOutput::Broadcast(ConsensusMessage::ViewChange(signed)));
        self.maybe_new_view(target, out);
    }

    fn handle_view_change(
        &mut self,
        vc: Signed<ViewChange>,
        out: &mut Out,
    ) -> Result<(), ProtocolError> {
        verify::verify_view_change(&self.registry, &vc, &self.config, &self.scheme)?;
        let target = vc.payload.new_view;
        if target <= self.view && !(target == self.view && self.status == Status::InViewChange) {
            return Err(ProtocolError::WrongView { got: target, current: self.view });
        }
        self.view_changes.insert(vc);

        // Join rule: f + 1 replicas already want a higher view.
        if let Some(join) = self.view_changes.join_view(self.view, &self.config) {
            if join > self.view || self.status == Status::Normal {
                self.start_view_change(join, out);
                return Ok(());
            }
        }
        self.maybe_new_view(target, out);
        Ok(())
    }

    fn maybe_new_view(&mut self, target: View, out: &mut Out) {
        if target.primary(&self.config) != self.id {
            return;
        }
        if !(self.status == Status::InViewChange && self.view == target) {
            return;
        }
        let Some(quorum) = self.view_changes.quorum(target, &self.config) else {
            return;
        };
        let plan = plan_new_view(target, &quorum);
        let pre_prepares: Vec<Signed<PrePrepare>> = plan
            .pre_prepares
            .iter()
            .cloned()
            .map(|pp| self.keypair.sign_payload(pp, self.signer))
            .collect();
        let nv = NewView { view: target, view_changes: quorum, pre_prepares: pre_prepares.clone() };
        let signed_nv = self.keypair.sign_payload(nv, self.signer);
        self.last_new_view = Some(signed_nv.clone());
        out.push(ProtocolOutput::Broadcast(ConsensusMessage::NewView(signed_nv)));

        self.enter_view(target, &plan);
        // The new primary installs its own re-issued proposals; backups
        // will Prepare them on receipt of the NewView.
        for pp in pre_prepares {
            if self.log.in_window(pp.payload.seq) {
                let _ = self.log.insert_pre_prepare(pp);
            }
        }
        self.next_seq = SeqNum(plan.max_s.0.max(self.next_seq.0).max(self.last_exec.0));
        self.drain_future_buffer(out);
    }

    fn handle_new_view(&mut self, nv: Signed<NewView>, out: &mut Out) -> Result<(), ProtocolError> {
        let target = nv.payload.view;
        if target < self.view || (target == self.view && self.status == Status::Normal) {
            return Err(ProtocolError::WrongView { got: target, current: self.view });
        }
        let primary = target.primary(&self.config);
        verify_signed_from(&self.registry, &nv, (self.scheme.proposer)(primary))?;
        verify::verify_new_view_contents(&self.registry, &nv.payload, &self.config, &self.scheme)?;
        let plan = validate_new_view(&nv.payload, &self.config)?;
        self.last_new_view = Some(nv.clone());

        self.enter_view(target, &plan);
        for pp in nv.payload.pre_prepares {
            if self.log.in_window(pp.payload.seq) {
                // A re-issued proposal that does not insert pushed
                // nothing: it fails before its `Prepare`.
                let _ = self.accept_pre_prepare(pp, out);
            }
        }
        self.drain_future_buffer(out);
        Ok(())
    }

    /// Common view-entry bookkeeping: apply the plan's checkpoint, clear
    /// stale agreement state, leave view-change status.
    fn enter_view(&mut self, view: View, plan: &NewViewPlan) {
        if self.checkpoints.install_certificate(plan.checkpoint.clone()) {
            self.apply_stable_checkpoint(plan.checkpoint.seq());
        }
        self.log.clear_above(self.checkpoints.stable_seq());
        self.view = view;
        self.status = Status::Normal;
        self.view_timer.on_view_entered();
        self.view_changes.collect_garbage(view);
        self.record(|| DurableEvent::EnteredView { view });
    }

    /// Re-handles the messages buffered for the view just entered; one
    /// that fails contributes nothing to `out`.
    fn drain_future_buffer(&mut self, out: &mut Out) {
        for msg in std::mem::take(&mut self.future_buffer) {
            let len = out.len();
            if self.handle(msg, out).is_err() {
                out.truncate(len);
            }
        }
    }
}

impl<A: Application + 'static> Protocol for Replica<A> {
    type Message = ConsensusMessage;

    fn on_message(&mut self, msg: ConsensusMessage) -> Out {
        // A malformed or unverifiable message yields no outputs — the
        // byzantine-tolerant stance is to ignore it, not to crash.
        let mut out = Vec::new();
        if self.handle(msg, &mut out).is_err() {
            out.clear();
        }
        out
    }

    /// The primary orders fresh, authenticated requests; *every* replica
    /// re-sends its cached reply for an already-executed timestamp (the
    /// PBFT retransmission rule — clients broadcast after a timeout, and
    /// backups answering from cache is what completes the reply quorum
    /// when the reply was lost) and records fresh requests as pending so
    /// the request-aware view-change timer can detect a stalled primary.
    fn on_client_requests(&mut self, requests: Vec<Request>) -> Out {
        let keys = &mut self.client_keys;
        let (resends, fresh) = self.replies.admit(requests, |req| keys.verify_request(req));
        let mut out: Out = resends
            .into_iter()
            .map(|reply| ProtocolOutput::Reply { to: reply.request.client, reply })
            .collect();
        for req in &fresh {
            self.pending_requests.note(req.id);
        }
        if !self.is_primary() || self.status != Status::Normal || fresh.is_empty() {
            return out;
        }

        let seq = SeqNum(self.next_seq.0.max(self.last_exec.0) + 1);
        if !self.log.in_window(seq) {
            // Watermark exhausted: wait for a checkpoint to stabilize.
            // The runtime will retry the batch.
            return out;
        }
        self.next_seq = seq;
        let batch = RequestBatch::new(fresh);
        let digest = digest_of(&batch);
        let pp = self.keypair.sign_payload(
            PrePrepare { view: self.view, seq, digest, batch },
            self.signer,
        );
        self.log
            .insert_pre_prepare(pp.clone())
            .expect("own fresh slot cannot conflict");
        self.record(|| DurableEvent::Accepted { view: pp.payload.view, seq, digest });
        out.push(ProtocolOutput::Broadcast(ConsensusMessage::PrePrepare(pp)));
        out
    }

    /// Votes to depose the current primary (or escalates to the next
    /// view if already changing).
    fn on_timeout(&mut self) -> Out {
        let mut out = Vec::new();
        if self.status == Status::InViewChange && self.view_timer.rebroadcast_on_timeout() {
            // Still awaiting the NewView for the view we already voted:
            // re-broadcast the vote instead of hopping onward.
            let signed = self.signed_view_change(self.view);
            out.push(ProtocolOutput::Broadcast(ConsensusMessage::ViewChange(signed)));
        } else {
            self.start_view_change(self.view.next(), &mut out);
        }
        out
    }

    fn progress(&self) -> u64 {
        self.last_exec.0
    }

    /// `true` while an authenticated client request has been accepted
    /// but not yet executed.
    fn has_pending_requests(&self) -> bool {
        !self.pending_requests.is_empty()
    }

    fn probe_gauges(&self, gauges: &mut ProtocolGauges) {
        gauges.add_group(self.last_exec.0, 0, self.view.0, self.stable_seq().0);
        gauges.pending_requests += u64::from(self.has_pending_requests());
    }

    /// The first drain opts in: in-memory hosting never drains, never
    /// records, and pays nothing.
    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        self.durable_enabled = true;
        std::mem::take(&mut self.durable)
    }

    /// Replay is idempotent (`Committed` below the current execution
    /// point is skipped) and produces no outputs.
    fn replay_durable_event(&mut self, event: DurableEvent) {
        match event {
            DurableEvent::Accepted { seq, .. } => {
                // Never reuse a slot this replica already proposed or
                // accepted — a restarted primary re-proposing a used
                // sequence number would equivocate.
                if self.next_seq < seq {
                    self.next_seq = seq;
                }
            }
            DurableEvent::Committed { seq, batch } => {
                if seq == self.last_exec.next() {
                    self.execute_batch(&batch, &mut Vec::new());
                    self.last_exec = seq;
                    if self.next_seq < seq {
                        self.next_seq = seq;
                    }
                }
            }
            DurableEvent::EnteredView { view } => {
                if self.view < view {
                    self.view = view;
                    self.status = Status::Normal;
                }
            }
            // Trusted counters are the hybrid's concern, the stable
            // marker only matters to the WAL's garbage collector, and
            // the shard tag to the sharding shim above this replica.
            DurableEvent::CounterIssued { .. }
            | DurableEvent::StableCheckpoint { .. }
            | DurableEvent::ShardTag { .. } => {}
        }
    }

    /// The stable [`splitbft_types::CheckpointCertificate`] (`2f + 1`
    /// signed votes for the state digest) followed by this replica's
    /// snapshot of that state. `None` at genesis, and while this replica
    /// is behind its own stable checkpoint and so has no snapshot of it.
    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        self.checkpoints.durable_checkpoint()
    }

    /// The embedded certificate is deep verified (structure + every
    /// signature) before it becomes this replica's stable checkpoint,
    /// and the snapshot is installed only if it hashes to the digest
    /// that certificate vouches for.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptState`] when the bytes do not decode, do
    /// not match the claimed `(seq, digest)` or carry no matching
    /// snapshot; certificate validation errors pass through.
    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        let (cert, snapshot) = split_durable_checkpoint(cp)?;
        verify::verify_checkpoint_certificate(&self.registry, &cert, &self.config, &self.scheme)?;
        if self.checkpoints.install_certificate(cert.clone()) {
            self.apply_stable_checkpoint(cp.seq);
        }
        if self.last_exec >= cp.seq {
            return Ok(()); // already at or past the certified state
        }
        // A checkpoint sealed or served by an older build has no bytes
        // after the certificate: its votes each embed the snapshot.
        let snapshot = match snapshot {
            [] => verify::certified_snapshot(&cert).ok_or_else(|| {
                ProtocolError::CorruptState("no snapshot matches the certified digest".into())
            })?,
            trailing => trailing,
        };
        self.install_snapshot(cp.seq, snapshot)
    }

    /// For every slot above `max(have_seq, stable)` up to the last
    /// executed one, the accepted proposal plus all collected prepare
    /// and commit votes — the receiver's committed-local predicate needs
    /// both quorums, and in an idle cluster nobody else will ever resend
    /// them.
    fn catch_up_messages(&self, have_seq: SeqNum) -> Vec<ConsensusMessage> {
        let from = have_seq.max(self.checkpoints.stable_seq());
        let mut msgs = Vec::new();
        // The latest NewView leads: a peer that was down during the
        // view-change broadcast rejects everything from the current
        // view until it processes this (a receiver already in the view
        // simply drops it).
        if let Some(nv) = &self.last_new_view {
            msgs.push(ConsensusMessage::NewView(nv.clone()));
        }
        // Chunked: a deeply lagging peer catches up incrementally (its
        // next state-request round carries a higher have_seq) instead
        // of drowning in one giant suffix. A requester reporting no
        // progress cannot page that way — it is at genesis, or it is a
        // sharded host whose one number cannot say where each group
        // stands — and is served the whole retained suffix, which the
        // watermark window bounds.
        let chunk =
            if have_seq == SeqNum::zero() { usize::MAX } else { CATCH_UP_CHUNK_SLOTS };
        let mut served = 0usize;
        for seq in (from.0 + 1)..=self.last_exec.0 {
            if served >= chunk {
                break;
            }
            let Some(slot) = self.log.slot(SeqNum(seq)) else { continue };
            let Some(pp) = &slot.pre_prepare else { continue };
            msgs.push(ConsensusMessage::PrePrepare(pp.clone()));
            for prepare in slot.prepares.values() {
                msgs.push(ConsensusMessage::Prepare(prepare.clone()));
            }
            for commit in slot.commits.values() {
                msgs.push(ConsensusMessage::Commit(commit.clone()));
            }
            served += 1;
        }
        msgs
    }
}

impl<A: Application> std::fmt::Debug for Replica<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("view", &self.view)
            .field("status", &self.status)
            .field("last_exec", &self.last_exec)
            .field("stable", &self.checkpoints.stable_seq())
            .finish_non_exhaustive()
    }
}

/// Builds an authenticated request the way a client library would —
/// shared by tests and benchmarks.
pub fn make_request(
    master_seed: u64,
    client: ClientId,
    timestamp: splitbft_types::Timestamp,
    op: bytes::Bytes,
) -> Request {
    let id = splitbft_types::RequestId { client, timestamp };
    let key = client_mac_key(master_seed, client);
    let auth = key.request_tag(id, &op, false);
    Request { id, op, encrypted: false, auth }
}

