//! The **Confirmation compartment**: confirms that a request was prepared
//! by a quorum (paper §3.2).
//!
//! Event handlers hosted here: (3) prepare-certificate collection →
//! `Commit`, (5) view-change initiation on primary suspicion — co-located
//! with (3) per principle P3 because a `ViewChange` carries the prepare
//! certificates from `in_conf` — plus the duplicated checkpoint handler
//! (9) and the `NewView` checkpoint/view application (7').
//!
//! Per principle P5, this compartment changes state only on a *quorum*:
//! one `PrePrepare` and `2f` matching `Prepare`s, all signed by distinct
//! Preparation enclaves. A single faulty Preparation enclave (even the
//! primary's) cannot make it commit to anything.

use crate::ecall::{CompartmentInput, CompartmentOutput};
use crate::scheme::{enclave_signer, SPLITBFT_SCHEME};
use splitbft_crypto::{KeyPair, KeyRegistry};
use splitbft_pbft::verify::{verify_new_view_votes, verify_signed_from, verify_view_change};
use splitbft_pbft::{CheckpointTracker, Proposals, ViewTimer, VoteSet};
use splitbft_types::{
    Checkpoint, ClusterConfig, CompartmentKind, Commit, ConsensusMessage, Digest, NewView,
    PrePrepare, Prepare, PrepareCertificate, ProtocolError, ReplicaId, SeqNum, Signed, SignerId,
    View, ViewChange,
};
use std::collections::BTreeMap;

/// One agreement slot as Confirmation sees it. A byzantine primary
/// Preparation enclave may equivocate, so multiple candidate proposals
/// (by digest) are retained; only a quorum of matching prepares elevates
/// one of them.
#[derive(Debug, Default)]
struct ConfSlot {
    /// Candidate proposals (forwarded `PrePrepare`s), sorted by digest.
    proposals: Proposals,
    /// Prepare votes by sender.
    prepares: VoteSet<Signed<Prepare>>,
    /// This compartment already emitted its `Commit` for the slot.
    commit_sent: bool,
}

/// The Confirmation compartment state machine.
pub struct ConfirmationCompartment {
    config: ClusterConfig,
    replica: ReplicaId,
    signer: SignerId,
    keypair: KeyPair,
    registry: KeyRegistry,

    /// This compartment's copy of the replicated view variable. Advanced
    /// when *sending* a `ViewChange` (handler 5) and when applying a
    /// `NewView` (7').
    view: View,
    /// The `in_conf` log.
    slots: BTreeMap<SeqNum, ConfSlot>,
    /// Private checkpoint tracker.
    checkpoints: CheckpointTracker,
    /// Prepare certificates formed here, carried into `ViewChange`s.
    prepared_certs: BTreeMap<SeqNum, PrepareCertificate>,
    /// `true` between sending a `ViewChange` for `view` and applying the
    /// matching `NewView`.
    awaiting_new_view: bool,
    /// Re-broadcast-or-advance backoff while awaiting a `NewView`, the
    /// PBFT baseline's (each hop resets the others' quorum hunt, so
    /// unbounded divergence is a real wedge, not a theoretical one).
    view_timer: ViewTimer,
    /// Peer `ViewChange` votes by target view — the PBFT *join rule*'s
    /// evidence: once `f + 1` distinct replicas vote for a view above
    /// ours, at least one correct replica timed out, so this
    /// compartment joins that view change instead of walking its own
    /// view up one step per timeout (which can diverge forever when
    /// timeouts interleave across replicas).
    join_votes: BTreeMap<View, std::collections::BTreeSet<ReplicaId>>,
}

/// Distinct future target views tracked for the join rule. Correct
/// replicas advance one view per timeout, so legitimate targets cluster
/// just above the current view; anything further is byzantine noise.
const MAX_JOIN_TARGETS: usize = 16;

impl ConfirmationCompartment {
    /// Creates the Confirmation enclave logic for `replica`.
    pub fn new(config: ClusterConfig, replica: ReplicaId, master_seed: u64) -> Self {
        let signer = enclave_signer(replica, CompartmentKind::Confirmation);
        let registry =
            KeyRegistry::with_signers(master_seed, crate::scheme::all_enclave_signers(config.n()));
        let keypair = KeyPair::for_signer(master_seed, signer);
        ConfirmationCompartment {
            config,
            replica,
            signer,
            keypair,
            registry,
            view: View::initial(),
            slots: BTreeMap::new(),
            checkpoints: CheckpointTracker::new(),
            prepared_certs: BTreeMap::new(),
            awaiting_new_view: false,
            view_timer: ViewTimer::default(),
            join_votes: BTreeMap::new(),
        }
    }

    /// This compartment's current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Approximate heap usage for EPC accounting.
    pub fn memory_usage(&self) -> usize {
        self.slots.len() * 768 + self.prepared_certs.len() * 1024
    }

    fn in_window(&self, seq: SeqNum) -> bool {
        self.checkpoints.check_window(seq, self.config.window).is_ok()
    }

    /// The single event-handler entry point. Effects are appended to
    /// `outputs`.
    ///
    /// # Errors
    ///
    /// Why the event was rejected; what it appended before that is void
    /// (the enclave adapter replaces it with one `Rejected` output).
    pub fn handle(
        &mut self,
        input: CompartmentInput,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        match input {
            CompartmentInput::Message(ConsensusMessage::PrePrepare(pp)) => {
                self.on_pre_prepare(pp, outputs)
            }
            CompartmentInput::Message(ConsensusMessage::Prepare(p)) => self.on_prepare(p, outputs),
            CompartmentInput::Message(ConsensusMessage::Checkpoint(c)) => {
                self.on_checkpoint(c, outputs)
            }
            CompartmentInput::Message(ConsensusMessage::NewView(nv)) => {
                self.on_new_view(nv, outputs)
            }
            CompartmentInput::Message(ConsensusMessage::ViewChange(vc)) => {
                self.on_view_change_vote(vc, outputs)
            }
            CompartmentInput::ViewTimeout => {
                self.on_view_timeout(outputs);
                Ok(())
            }
            other => Err(ProtocolError::Other(format!("not a Confirmation event: {other:?}"))),
        }
    }

    /// The broker forwards every `PrePrepare` here (§3.2: duplicated into
    /// `in_conf`). Only the signature and window are checked — the batch
    /// contents are the Preparation compartment's business; a quorum of
    /// prepares is what gives the digest authority (P5).
    fn on_pre_prepare(
        &mut self,
        pp: Signed<PrePrepare>,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        let view = pp.payload.view;
        let seq = pp.payload.seq;
        if view != self.view {
            return Err(ProtocolError::WrongView { got: view, current: self.view });
        }
        let primary = view.primary(&self.config);
        verify_signed_from(&self.registry, &pp, (SPLITBFT_SCHEME.proposer)(primary))?;
        self.checkpoints.check_window(seq, self.config.window)?;
        self.slots.entry(seq).or_default().proposals.insert(pp);
        self.maybe_commit(seq, outputs);
        Ok(())
    }

    /// Handler (3): collect prepares toward the certificate.
    fn on_prepare(
        &mut self,
        p: Signed<Prepare>,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        let view = p.payload.view;
        let seq = p.payload.seq;
        if view != self.view {
            return Err(ProtocolError::WrongView { got: view, current: self.view });
        }
        // Early drop: once this slot's Commit is out, further prepares are
        // redundant — skip the (expensive) signature verification. This is
        // the optimization that keeps Confirmation ecalls short.
        if self.slots.get(&seq).map_or(false, |s| s.commit_sent) {
            return Ok(());
        }
        verify_signed_from(&self.registry, &p, (SPLITBFT_SCHEME.preparer)(p.payload.replica))?;
        if !self.config.contains(p.payload.replica) {
            return Err(ProtocolError::UnknownReplica(p.payload.replica));
        }
        self.checkpoints.check_window(seq, self.config.window)?;
        let n = self.config.n();
        self.slots.entry(seq).or_default().prepares.insert(p.payload.replica, p, n);
        self.maybe_commit(seq, outputs);
        Ok(())
    }

    fn maybe_commit(&mut self, seq: SeqNum, outputs: &mut Vec<CompartmentOutput>) {
        let view = self.view;
        let prepare_quorum = self.config.prepare_quorum();
        let primary = view.primary(&self.config);
        let Some(slot) = self.slots.get_mut(&seq) else { return };
        if slot.commit_sent {
            return;
        }
        // Find a proposal whose digest gathered 2f matching prepares from
        // distinct non-primary Preparation enclaves.
        let prepares = &slot.prepares;
        let matching = |digest: Digest| {
            prepares.values().filter(move |p| {
                p.payload.view == view && p.payload.digest == digest && p.payload.replica != primary
            })
        };
        let chosen = slot
            .proposals
            .iter()
            .filter(|pp| pp.payload.view == view)
            .map(|pp| pp.payload.digest)
            .find(|digest| matching(*digest).count() >= prepare_quorum);
        let Some(digest) = chosen else { return };

        // The proposal moves from the slot into the certificate: once the
        // `Commit` is out the slot only ever answers "already sent", and a
        // view change voids its proposals anyway.
        let cert = PrepareCertificate {
            prepares: matching(digest).take(prepare_quorum).cloned().collect(),
            pre_prepare: slot.proposals.take(digest).expect("chosen among the proposals"),
        };
        slot.commit_sent = true;
        self.prepared_certs.insert(seq, cert);
        let commit = self
            .keypair
            .sign_payload(Commit { view, seq, digest, replica: self.replica }, self.signer);
        outputs.push(CompartmentOutput::Committed { seq, digest });
        outputs.push(CompartmentOutput::Broadcast(ConsensusMessage::Commit(commit)));
    }

    /// Handler (5): the environment suspects the primary; this
    /// compartment emits the `ViewChange` and advances its view, after
    /// which it "will no longer process Prepares or send commits in the
    /// old view" (§4).
    fn on_view_timeout(&mut self, outputs: &mut Vec<CompartmentOutput>) {
        if self.awaiting_new_view && self.view_timer.rebroadcast_on_timeout() {
            // Still waiting for the NewView of the current target:
            // re-broadcast the vote instead of hopping to yet another view.
            let signed = self.signed_view_change(self.view);
            outputs.push(CompartmentOutput::Broadcast(ConsensusMessage::ViewChange(signed)));
            return;
        }
        self.start_view_change(self.view.next(), outputs);
    }

    /// This compartment's `ViewChange` for `target`, freshly signed.
    fn signed_view_change(&self, target: View) -> Signed<ViewChange> {
        let vc = ViewChange {
            new_view: target,
            stable_seq: self.checkpoints.stable_seq(),
            checkpoint_proof: self.checkpoints.stable_proof().clone(),
            prepared: self
                .prepared_certs
                .range(SeqNum(self.checkpoints.stable_seq().0 + 1)..)
                .map(|(_, c)| c.clone())
                .collect(),
            replica: self.replica,
        };
        self.keypair.sign_payload(vc, self.signer)
    }

    /// The join rule (handler 5'): a peer Confirmation enclave's
    /// `ViewChange` vote. Once `f + 1` distinct replicas vote for a view
    /// above ours, at least one correct replica suspects the primary —
    /// join their view change instead of waiting for our own timeout
    /// (whose `view + 1` target may never match theirs).
    fn on_view_change_vote(
        &mut self,
        vc: Signed<ViewChange>,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        verify_view_change(&self.registry, &vc, &self.config, &SPLITBFT_SCHEME)?;
        let target = vc.payload.new_view;
        if target <= self.view {
            return Err(ProtocolError::WrongView { got: target, current: self.view });
        }
        self.join_votes.entry(target).or_default().insert(vc.payload.replica);
        while self.join_votes.len() > MAX_JOIN_TARGETS {
            self.join_votes.pop_last();
        }
        // Join the *smallest* sufficiently-supported future view.
        let joinable = self
            .join_votes
            .iter()
            .find(|(view, votes)| **view > self.view && votes.len() > self.config.f())
            .map(|(view, _)| *view);
        if let Some(target) = joinable {
            self.start_view_change(target, outputs);
        }
        Ok(())
    }

    /// Emits this compartment's `ViewChange` for `target` and enters it
    /// (handler 5 proper — "will no longer process Prepares or send
    /// commits in the old view", §4).
    fn start_view_change(&mut self, target: View, outputs: &mut Vec<CompartmentOutput>) {
        let signed = self.signed_view_change(target);
        self.view = target;
        self.awaiting_new_view = true;
        self.view_timer.on_vote_sent();
        self.join_votes = self.join_votes.split_off(&target.next());
        // Old-view agreement state is void in the new view.
        for slot in self.slots.values_mut() {
            slot.commit_sent = false;
        }
        outputs.push(CompartmentOutput::EnteredView(target));
        outputs.push(CompartmentOutput::Broadcast(ConsensusMessage::ViewChange(signed)));
    }

    /// Handler (7'): Confirmation applies only the checkpoint and the
    /// view from a `NewView` — it does *not* re-validate the re-issued
    /// `PrePrepare`s (§4); their digests have no authority here until 2f
    /// prepares confirm them.
    fn on_new_view(
        &mut self,
        nv: Signed<NewView>,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        let target = nv.payload.view;
        if target < self.view || (target == self.view && !self.awaiting_new_view) {
            return Err(ProtocolError::WrongView { got: target, current: self.view });
        }
        verify_new_view_votes(&self.registry, &nv, &self.config, &SPLITBFT_SCHEME)?;

        // Validate and apply the checkpoint.
        if let Some(ckpt) = nv.payload.max_checkpoint() {
            splitbft_pbft::verify::verify_checkpoint_certificate(
                &self.registry,
                ckpt,
                &self.config,
                &SPLITBFT_SCHEME,
            )?;
            if self.checkpoints.install_certificate(ckpt.clone()) {
                let stable = self.checkpoints.stable_seq();
                self.slots = self.slots.split_off(&SeqNum(stable.0 + 1));
                self.prepared_certs = self.prepared_certs.split_off(&SeqNum(stable.0 + 1));
            }
        }

        self.view = target;
        self.awaiting_new_view = false;
        self.view_timer.on_view_entered();
        self.join_votes = self.join_votes.split_off(&target.next());
        // Fresh view: old candidate proposals and votes are view-bound
        // and dead; drop them, then adopt the re-issued proposals.
        self.slots.clear();
        for pp in nv.payload.pre_prepares {
            if pp.payload.view == target && self.in_window(pp.payload.seq) {
                self.slots.entry(pp.payload.seq).or_default().proposals.insert(pp);
            }
        }
        outputs.push(CompartmentOutput::EnteredView(target));
        Ok(())
    }

    /// Duplicated handler (9).
    fn on_checkpoint(
        &mut self,
        c: Signed<Checkpoint>,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        verify_signed_from(&self.registry, &c, (SPLITBFT_SCHEME.executor)(c.payload.replica))?;
        if !self.config.contains(c.payload.replica) {
            return Err(ProtocolError::UnknownReplica(c.payload.replica));
        }
        if let Some(cert) = self.checkpoints.insert(c, &self.config) {
            let seq = cert.seq();
            self.slots = self.slots.split_off(&SeqNum(seq.0 + 1));
            self.prepared_certs = self.prepared_certs.split_off(&SeqNum(seq.0 + 1));
            outputs.push(CompartmentOutput::StableCheckpoint { seq });
        }
        Ok(())
    }
}

impl std::fmt::Debug for ConfirmationCompartment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConfirmationCompartment")
            .field("replica", &self.replica)
            .field("view", &self.view)
            .field("slots", &self.slots.len())
            .finish_non_exhaustive()
    }
}
