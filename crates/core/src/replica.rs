//! The untrusted **broker** and the assembled SplitBFT replica.
//!
//! The broker is the shim layer of §5: it owns the three enclave hosts,
//! "intercepts incoming messages and sends them to the corresponding
//! enclave using ecalls", drains the enclaves' ocall queues, and pushes
//! outbound traffic to the network. It also implements the message
//! *duplication* of §3.2: every incoming `PrePrepare`, `Checkpoint` and
//! `NewView` is delivered to multiple compartments' private input logs —
//! serialized once, the same bytes copied into each enclave, which
//! decodes and verifies them for itself.
//!
//! The broker is untrusted: "this layer can be compromised, causing
//! liveness issues ... However, confidentiality and integrity are not
//! affected". The robustness tests exercise that by wrapping the broker
//! in hostile variants (dropping, duplicating, cross-wiring messages)
//! and checking that safety invariants still hold.

use crate::adapter::{Compartment, EnclaveAdapter};
use crate::conf::ConfirmationCompartment;
use crate::ecall::{CompartmentInput, CompartmentOutput, ECALL_HANDLE, OCALL_OUTPUT};
use crate::exec::ExecutionCompartment;
use crate::prep::PreparationCompartment;
use crate::suffix::{SuffixRing, DEFAULT_SUFFIX_CAP};
use bytes::Bytes;
use splitbft_app::Application;
use splitbft_net::transport::{Protocol, ProtocolGauges, ProtocolOutput};
use splitbft_pbft::checkpoint::split_durable_checkpoint;
use splitbft_pbft::verify::certified_snapshot;
use splitbft_pbft::PendingRequests;
use splitbft_tee::attest::{PlatformAuthority, Quote};
use splitbft_tee::enclave::recycle;
use splitbft_tee::fault::{FaultPlan, FaultyEnclave};
use splitbft_tee::host::{EnclaveHost, ExecMode, TransitionStats};
use splitbft_tee::CostModel;
use splitbft_types::wire::{decode, encode, Encode};
use splitbft_types::{
    ClientId, ClusterConfig, CompartmentKind, ConsensusMessage, Digest, DurableCheckpoint,
    DurableEvent, ProtocolError, ReplicaId, Request, RequestBatch, RequestId, SeqNum, View,
};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// Where a handler puts what the replica sends.
type Out = Vec<ProtocolOutput<ConsensusMessage>>;

/// What [`SplitBftReplica::after_call`] reads of one handler call: the
/// broker's own bookkeeping, in call order.
enum Noted {
    /// `Dispatch::out[i]` is a broadcast, for the suffix ring.
    Broadcast(usize),
    /// A request executed, so it is no longer pending.
    Executed(RequestId),
    /// Execution committed `digest` at `seq`.
    Committed { seq: SeqNum, digest: Digest },
    /// Execution's checkpoint at this slot became stable.
    StableCheckpoint(SeqNum),
    /// Execution entered this view.
    EnteredView(View),
}

type Hosted<C> = EnclaveHost<FaultyEnclave<EnclaveAdapter<C>>>;

/// Hosts `compartment` as an enclave that starts benign.
fn hosted<C: Compartment>(compartment: C, mode: ExecMode, cost: &CostModel) -> Hosted<C> {
    let enclave = FaultyEnclave::new(EnclaveAdapter::new(compartment), FaultPlan::benign());
    EnclaveHost::new(enclave, mode, cost.clone())
}

/// One serialized [`CompartmentInput`] awaiting delivery.
struct QueuedInput {
    /// Its bytes in [`Dispatch::bytes`].
    bytes: Range<usize>,
    /// The compartments it is for, in delivery order.
    route: &'static [CompartmentKind],
    /// The local compartment that produced it, which is skipped (`None`
    /// for input from outside the replica).
    origin: Option<CompartmentKind>,
}

/// The broker's working memory for one handler call, kept between calls
/// so a steady stream of messages allocates nothing here.
///
/// Every input is serialized **once**, into `bytes`, and each routed
/// compartment is handed that same slice. A message a local compartment
/// broadcasts is queued by copying its ocall payload: an encoded
/// `CompartmentOutput::Broadcast(m)` and an encoded
/// `CompartmentInput::Message(m)` are the same bytes, `1 ‖ m` (pinned by a
/// test in [`crate::ecall`]).
#[derive(Default)]
struct Dispatch {
    bytes: Vec<u8>,
    queue: VecDeque<QueuedInput>,
    /// What the call sends so far.
    out: Out,
    /// What the call noted for the broker itself so far.
    noted: Vec<Noted>,
}

/// A complete SplitBFT replica: three enclaves plus the untrusted broker.
pub struct SplitBftReplica<A: Application> {
    id: ReplicaId,
    config: ClusterConfig,
    prep: Hosted<PreparationCompartment>,
    conf: Hosted<ConfirmationCompartment>,
    exec: Hosted<ExecutionCompartment<A>>,
    /// Not-yet-executed requests, tracked by the
    /// broker so a request-aware view-change timer can detect a stalled
    /// primary. The broker cannot verify request MACs (it must not hold
    /// client keys — a compromised broker with forging power would break
    /// the integrity model), so unauthenticated spam can arm the timer;
    /// that only costs liveness, which a compromised broker may take
    /// anyway per the paper's threat model.
    pending: PendingRequests,
    /// Batches seen in `PrePrepare`s, keyed by slot and then by the
    /// batch's *recomputed* digest, kept until their slot commits so
    /// the broker can WAL the full batch at the commit point. Keying by
    /// our own digest (not the PrePrepare's claimed one) means a
    /// byzantine proposal can never substitute the batch recorded for a
    /// commit — the commit event's digest selects the matching bytes.
    /// GC'd at each stable checkpoint.
    seen_batches: BTreeMap<SeqNum, BTreeMap<Digest, RequestBatch>>,
    /// Durable consensus events buffered for a durable runtime's WAL
    /// (empty and free until it first calls
    /// [`Protocol::drain_durable_events`]).
    durable: Vec<DurableEvent>,
    durable_enabled: bool,
    dispatch: Dispatch,
    /// Committed-certificate suffix ring serving the log path of peer
    /// state transfer (see [`crate::suffix`]). Harvested alongside the
    /// WAL batches, so it is also gated on `durable_enabled` — pure
    /// in-memory hosting pays nothing for it.
    suffix: SuffixRing,
}

impl<A: Application> SplitBftReplica<A> {
    /// Assembles replica `id` in the given execution mode. Every enclave
    /// starts benign; [`SplitBftReplica::arm_fault`] makes one misbehave.
    pub fn new(
        config: ClusterConfig,
        id: ReplicaId,
        master_seed: u64,
        app: A,
        mode: ExecMode,
        cost: CostModel,
    ) -> Self {
        let prep = PreparationCompartment::new(config.clone(), id, master_seed);
        let conf = ConfirmationCompartment::new(config.clone(), id, master_seed);
        let exec = ExecutionCompartment::new(config.clone(), id, master_seed, app);
        let suffix = SuffixRing::for_cluster(DEFAULT_SUFFIX_CAP, config.n());
        SplitBftReplica {
            id,
            config,
            prep: hosted(prep, mode, &cost),
            conf: hosted(conf, mode, &cost),
            exec: hosted(exec, mode, &cost),
            pending: PendingRequests::default(),
            seen_batches: BTreeMap::new(),
            durable: Vec::new(),
            durable_enabled: false,
            dispatch: Dispatch::default(),
            suffix,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// §3.2 message duplication: which compartments receive each message
    /// type.
    fn route(msg: &ConsensusMessage) -> &'static [CompartmentKind] {
        use CompartmentKind::*;
        match msg {
            // Duplicated into all three input logs.
            ConsensusMessage::PrePrepare(_) => &[Preparation, Confirmation, Execution],
            ConsensusMessage::Checkpoint(_) => &[Preparation, Confirmation, Execution],
            ConsensusMessage::NewView(_) => &[Preparation, Confirmation, Execution],
            // Single-compartment events.
            ConsensusMessage::Prepare(_) => &[Confirmation],
            ConsensusMessage::Commit(_) => &[Execution],
            // ViewChange also feeds Confirmation's join rule: f + 1
            // distinct votes for a higher view make it join that view
            // change instead of diverging one view per local timeout.
            ConsensusMessage::ViewChange(_) => &[Preparation, Confirmation],
        }
    }

    /// Queues `input` for `route`, serializing it once.
    fn enqueue(&mut self, input: &CompartmentInput, route: &'static [CompartmentKind]) {
        let Dispatch { bytes, queue, .. } = &mut self.dispatch;
        let start = bytes.len();
        bytes.reserve(input.encoded_len());
        input.encode_to(bytes);
        queue.push_back(QueuedInput { bytes: start..bytes.len(), route, origin: None });
    }

    /// Delivers every queued input to its compartments, and the messages
    /// they broadcast in response to this replica's other compartments,
    /// until quiescent. What the enclaves output is appended to the
    /// call's outputs and notes.
    fn run_to_quiescence(&mut self) {
        while let Some(QueuedInput { bytes, route, origin }) = self.dispatch.queue.pop_front() {
            for &kind in route.iter().filter(|kind| Some(**kind) != origin) {
                self.ecall_into(kind, bytes.clone());
            }
        }
        // The queue has drained, so the serialized inputs are dead.
        recycle(&mut self.dispatch.bytes);
    }

    /// One ecall: hands `kind` the queued input at `input` and processes
    /// the ocalls it posted.
    fn ecall_into(&mut self, kind: CompartmentKind, input: Range<usize>) {
        let Dispatch { bytes, queue, out, noted } = &mut self.dispatch;
        let input = &bytes[input];
        let reply = match kind {
            CompartmentKind::Preparation => self.prep.ecall(ECALL_HANDLE, input),
            CompartmentKind::Confirmation => self.conf.ecall(ECALL_HANDLE, input),
            CompartmentKind::Execution => self.exec.ecall(ECALL_HANDLE, input),
        };
        // A crashed enclave has nothing to say.
        let Ok(reply) = reply else { return };
        let execution = kind == CompartmentKind::Execution;
        for (id, data) in reply.ocalls.iter() {
            if id != OCALL_OUTPUT {
                continue;
            }
            // Ocall payloads from a possibly-compromised enclave are
            // untrusted bytes; garbage is dropped.
            let Ok(output) = decode::<CompartmentOutput>(data) else { continue };
            match output {
                CompartmentOutput::Broadcast(msg) => {
                    // Loop the message back into this replica's other
                    // compartments as the bytes the enclave marshalled.
                    let start = bytes.len();
                    bytes.extend_from_slice(data);
                    queue.push_back(QueuedInput {
                        bytes: start..bytes.len(),
                        route: Self::route(&msg),
                        origin: Some(kind),
                    });
                    noted.push(Noted::Broadcast(out.len()));
                    out.push(ProtocolOutput::Broadcast(msg));
                }
                CompartmentOutput::SendReply { to, reply } => {
                    out.push(ProtocolOutput::Reply { to, reply })
                }
                CompartmentOutput::Executed { request, .. } => {
                    noted.push(Noted::Executed(request))
                }
                CompartmentOutput::Committed { seq, digest } if execution => {
                    noted.push(Noted::Committed { seq, digest })
                }
                CompartmentOutput::StableCheckpoint { seq } if execution => {
                    noted.push(Noted::StableCheckpoint(seq))
                }
                CompartmentOutput::EnteredView(view) if execution => {
                    noted.push(Noted::EnteredView(view))
                }
                // Sealed blocks (`Persist`) have nowhere to go: no
                // runtime stores them (see ARCHITECTURE.md). The other
                // compartments' progress reports and every rejection
                // are nothing the broker acts on.
                _ => {}
            }
        }
    }

    /// Routes one message from the network into every subscribed
    /// compartment, then drains the cascade of follow-up messages.
    fn route_message(&mut self, msg: ConsensusMessage) {
        let route = Self::route(&msg);
        self.enqueue(&CompartmentInput::Message(msg), route);
        self.run_to_quiescence();
    }

    /// Ends a handler call: pending-request markers and the durable
    /// plane read the call's notes, then its outputs leave in a vector
    /// allocated once at their count (the broker keeps its own buffers
    /// for the next call).
    fn after_call(&mut self) -> Out {
        let mut noted = std::mem::take(&mut self.dispatch.noted);
        let mut out = std::mem::take(&mut self.dispatch.out);
        for note in noted.drain(..) {
            self.observe(note, &out);
        }
        self.dispatch.noted = noted;
        let mut outputs = Vec::with_capacity(out.len());
        outputs.append(&mut out);
        self.dispatch.out = out;
        outputs
    }

    /// Acts on one note. Execution is the durable plane's authority: its
    /// commit points carry the replayable batches, its stable
    /// checkpoints set the GC point, and its view entries track the
    /// replicated view variable.
    fn observe(&mut self, note: Noted, out: &Out) {
        match note {
            Noted::Executed(request) => self.pending.executed(request),
            _ if !self.durable_enabled => {}
            Noted::Broadcast(i) => {
                if let ProtocolOutput::Broadcast(msg) = &out[i] {
                    self.note_batch_of(msg);
                }
            }
            Noted::Committed { seq, digest } => {
                // Only the batch whose bytes hash to the committed
                // digest may enter the WAL for this slot; the suffix
                // ring freezes to the same digest.
                self.suffix.mark_committed(seq, digest);
                let batch =
                    self.seen_batches.remove(&seq).and_then(|mut by_digest| by_digest.remove(&digest));
                if let Some(batch) = batch {
                    self.durable.push(DurableEvent::Committed { seq, batch });
                }
            }
            Noted::StableCheckpoint(seq) => {
                self.seen_batches = self.seen_batches.split_off(&SeqNum(seq.0 + 1));
                self.suffix.gc(seq);
                self.durable.push(DurableEvent::StableCheckpoint { seq });
            }
            Noted::EnteredView(view) => self.durable.push(DurableEvent::EnteredView { view }),
        }
    }

    /// Forgets what a call that leaves no trace produced.
    fn discard_call(&mut self) {
        self.dispatch.out.clear();
        self.dispatch.noted.clear();
    }

    // --- durability --------------------------------------------------------

    /// Remembers the batch of a passing `PrePrepare` so the commit point
    /// can be WAL'd with its full batch (commits carry only the digest),
    /// and harvests `PrePrepare`/`Commit`/`NewView` traffic into the
    /// suffix ring serving lagging peers. The ring recomputes the batch
    /// digest anyway, so `seen_batches` reuses it — one hash per
    /// proposal, not two.
    fn note_batch_of(&mut self, msg: &ConsensusMessage) {
        if !self.durable_enabled {
            return;
        }
        // The Execution compartment's view bounds which NewViews the
        // ring may retain (see suffix::NEW_VIEW_SLACK).
        let current_view = self.exec.enclave().inner().inner().view();
        let digest = self.suffix.observe(msg, current_view);
        if let (ConsensusMessage::PrePrepare(pp), Some(digest)) = (msg, digest) {
            self.seen_batches
                .entry(pp.payload.seq)
                .or_default()
                .insert(digest, pp.payload.batch.clone());
        }
    }

    /// Installs a client session key in the Execution enclave (the tail
    /// of the attestation handshake).
    ///
    /// # Errors
    ///
    /// Why the enclave refused the key (a wrapped key that does not
    /// unwrap under this enclave's key exchange), or that it crashed.
    pub fn install_session_key(
        &mut self,
        client: ClientId,
        client_dh_public: u64,
        wrapped_key: Vec<u8>,
    ) -> Result<(), ProtocolError> {
        let input = CompartmentInput::InstallSessionKey { client, client_dh_public, wrapped_key };
        let reply = self
            .exec
            .ecall(ECALL_HANDLE, &encode(&input))
            .map_err(|e| ProtocolError::Other(e.to_string()))?;
        for (id, data) in reply.ocalls.iter() {
            if let (OCALL_OUTPUT, Ok(CompartmentOutput::Rejected { reason })) = (id, decode(data)) {
                return Err(ProtocolError::Other(reason));
            }
        }
        Ok(())
    }

    /// Produces the Execution enclave's attestation quote (report data =
    /// its DH public value), signed by the platform authority.
    pub fn attestation_quote(&self, authority: &PlatformAuthority) -> Quote {
        let dh = self.exec.enclave().inner().inner().dh_public_value();
        authority.quote(self.exec.measurement(), dh.to_le_bytes().to_vec())
    }

    // --- inspection & fault injection --------------------------------------

    /// The Execution compartment's last executed slot.
    pub fn last_executed(&self) -> SeqNum {
        self.exec.enclave().inner().inner().last_executed()
    }

    /// The Execution compartment's stable checkpoint (0 at genesis).
    pub fn stable_seq(&self) -> SeqNum {
        self.exec.enclave().inner().inner().stable_seq()
    }

    /// The Execution compartment's state digest (divergence checks).
    pub fn state_digest(&self) -> Digest {
        self.exec.enclave().inner().inner().state_digest()
    }

    /// Read access to the replicated application.
    pub fn app(&self) -> &A {
        self.exec.enclave().inner().inner().app()
    }

    /// Each compartment's current view `(prep, conf, exec)`.
    pub fn views(&self) -> (View, View, View) {
        (
            self.prep.enclave().inner().inner().view(),
            self.conf.enclave().inner().inner().view(),
            self.exec.enclave().inner().inner().view(),
        )
    }

    /// Boundary statistics of one compartment's host.
    pub fn stats(&self, kind: CompartmentKind) -> TransitionStats {
        match kind {
            CompartmentKind::Preparation => self.prep.stats(),
            CompartmentKind::Confirmation => self.conf.stats(),
            CompartmentKind::Execution => self.exec.stats(),
        }
    }

    /// Arms a byzantine fault plan on one enclave at runtime.
    pub fn arm_fault(&mut self, kind: CompartmentKind, plan: FaultPlan) {
        match kind {
            CompartmentKind::Preparation => self.prep.enclave_mut().set_plan(plan),
            CompartmentKind::Confirmation => self.conf.enclave_mut().set_plan(plan),
            CompartmentKind::Execution => self.exec.enclave_mut().set_plan(plan),
        }
    }
}

/// The broker is exactly the paper's untrusted host process: it owns
/// batching, timers and network I/O around the three enclaves, so the
/// whole three-compartment replica drops into any `splitbft-net`
/// runtime, including the TCP socket runtime used by `splitbft-node`.
impl<A: Application + 'static> Protocol for SplitBftReplica<A> {
    type Message = ConsensusMessage;

    fn on_message(&mut self, msg: ConsensusMessage) -> Out {
        self.note_batch_of(&msg);
        self.route_message(msg);
        self.after_call()
    }

    /// Hands the batch to the Preparation enclave (the batcher lives in
    /// the runtime, per P1).
    fn on_client_requests(&mut self, requests: Vec<Request>) -> Out {
        for req in &requests {
            self.pending.note(req.id);
        }
        self.enqueue(&CompartmentInput::ClientBatch(requests), &[CompartmentKind::Preparation]);
        self.run_to_quiescence();
        self.after_call()
    }

    /// Notifies Confirmation, which votes for the next view.
    fn on_timeout(&mut self) -> Out {
        // One stall buys one failover attempt; retransmitting clients
        // re-arm the timer if the next primary stalls too.
        self.pending.clear();
        self.enqueue(&CompartmentInput::ViewTimeout, &[CompartmentKind::Confirmation]);
        self.run_to_quiescence();
        self.after_call()
    }

    fn progress(&self) -> u64 {
        self.last_executed().0
    }

    /// `true` while a client request has been seen by the broker but not
    /// yet reported executed by the Execution compartment.
    fn has_pending_requests(&self) -> bool {
        !self.pending.is_empty()
    }

    fn probe_gauges(&self, gauges: &mut ProtocolGauges) {
        // The preparation compartment leads view changes; the other two
        // follow, so its view is the replica's externally visible one.
        gauges.add_group(self.last_executed().0, 0, self.views().0 .0, self.stable_seq().0);
        gauges.pending_requests += u64::from(self.has_pending_requests());
    }

    /// The first drain opts in: only then does the broker harvest WAL
    /// records and fill the suffix ring, so pure in-memory hosting pays
    /// nothing for either.
    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        self.durable_enabled = true;
        std::mem::take(&mut self.durable)
    }

    /// Committed batches are re-executed inside the Execution enclave;
    /// everything else is either hybrid-specific or a GC marker.
    fn replay_durable_event(&mut self, event: DurableEvent) {
        if let DurableEvent::Committed { seq, batch } = event {
            let input = CompartmentInput::ReplayCommitted { seq, batch };
            self.enqueue(&input, &[CompartmentKind::Execution]);
            // Replay produces no network traffic: one ecall, and the
            // local follow-ups it queued (e.g. a checkpoint vote) are
            // dropped along with its outputs.
            let queued = self.dispatch.queue.pop_front().expect("just enqueued");
            self.ecall_into(CompartmentKind::Execution, queued.bytes);
            self.dispatch.queue.clear();
            self.discard_call();
            recycle(&mut self.dispatch.bytes);
        }
    }

    /// The Execution compartment's stable checkpoint — certificate, then
    /// its snapshot of the certified state, once. `None` at genesis and
    /// while Execution is behind its own stable checkpoint.
    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        self.exec.enclave().inner().inner().durable_checkpoint()
    }

    /// The checkpoint's `2f + 1` signed `Checkpoint`s go through the
    /// normal message path — every compartment re-verifies them exactly
    /// like network input — and then the snapshot is offered to
    /// Execution, which installs it only under the certificate it just
    /// verified. Corrupt or forged checkpoints cannot take effect.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptState`] when the bytes do not decode,
    /// do not match the claimed `(seq, digest)`, or fail to move the
    /// Execution compartment to the certified state.
    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        let (cert, snapshot) = split_durable_checkpoint(cp)?;
        if self.last_executed() >= cp.seq {
            return Ok(()); // already at or past the certified state
        }
        for signed in &cert.checkpoints {
            self.route_message(ConsensusMessage::Checkpoint(signed.clone()));
        }
        // A checkpoint sealed or served by an older build has no bytes
        // after the certificate: its votes each embed the snapshot. The
        // broker only picks the candidate; Execution checks it.
        let snapshot = match snapshot {
            [] => certified_snapshot(&cert),
            trailing => Some(trailing),
        };
        let Some(snapshot) = snapshot else {
            self.discard_call();
            return Err(ProtocolError::CorruptState(
                "no snapshot matches the certified digest".into(),
            ));
        };
        let input = CompartmentInput::InstallSnapshot {
            seq: cp.seq,
            snapshot: Bytes::copy_from_slice(snapshot),
        };
        self.enqueue(&input, &[CompartmentKind::Execution]);
        self.run_to_quiescence();
        self.discard_call();
        if self.last_executed() < cp.seq {
            return Err(ProtocolError::CorruptState(
                "checkpoint was rejected by the compartments".into(),
            ));
        }
        Ok(())
    }

    /// The broker's suffix ring: for every committed slot it still
    /// holds, the committed `PrePrepare` plus its `Commit` votes,
    /// retained above the stable checkpoint even though the compartments
    /// themselves discard executed slots (see [`crate::suffix`]). Empty
    /// until a durable runtime drains events.
    fn catch_up_messages(&self, have_seq: SeqNum) -> Vec<ConsensusMessage> {
        self.suffix.messages_from(have_seq)
    }
}

impl<A: Application> std::fmt::Debug for SplitBftReplica<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitBftReplica")
            .field("id", &self.id)
            .field("views", &self.views())
            .field("last_exec", &self.last_executed())
            .finish_non_exhaustive()
    }
}
