//! The **Preparation compartment**: receives client requests and
//! initializes their order distribution (paper §3.2).
//!
//! Event handlers hosted here (paper Figure 2): (1) request batch →
//! `PrePrepare` (primary), (2) `PrePrepare` → `Prepare` (backups),
//! (6)/(7) `NewView` send/receive — co-located with (1)/(2) per principle
//! P4 because re-issuing `PrePrepare`s repeats the proposal logic — and
//! the duplicated checkpoint handler (9)/(7').
//!
//! Safety-critical state owned: the `in_prep` log of accepted proposals
//! (amnesia protection), the compartment's replicated `view` variable,
//! and the primary's sequence counter.

use crate::ecall::{CompartmentInput, CompartmentOutput};
use crate::scheme::{enclave_signer, SPLITBFT_SCHEME};
use splitbft_crypto::{digest_of, ClientMacKeys, KeyPair, KeyRegistry};
use splitbft_pbft::verify::{verify_signed_from, verify_view_change};
use splitbft_pbft::viewchange::{plan_new_view, validate_new_view};
use splitbft_pbft::{CheckpointTracker, MessageLog, ViewChangeTracker};
use splitbft_types::{
    Checkpoint, ClusterConfig, CompartmentKind, ConsensusMessage, NewView, PrePrepare, Prepare,
    ProtocolError, ReplicaId, Request, RequestBatch, SeqNum, Signed, SignerId, View, ViewChange,
};

/// The Preparation compartment state machine (one per replica, hosted in
/// its own enclave).
pub struct PreparationCompartment {
    config: ClusterConfig,
    replica: ReplicaId,
    signer: SignerId,
    keypair: KeyPair,
    registry: KeyRegistry,
    /// MAC keys of the clients whose requests verified here before.
    client_keys: ClientMacKeys,

    /// This compartment's copy of the replicated view variable.
    view: View,
    /// The `in_prep` message log: accepted proposals, windowed.
    in_prep: MessageLog,
    /// Private checkpoint tracker (duplicated handler 9).
    checkpoints: CheckpointTracker,
    /// View-change votes (this compartment validates them and, as the new
    /// primary, emits the `NewView`).
    view_changes: ViewChangeTracker,
    /// Primary-only: last assigned sequence number.
    next_seq: SeqNum,
}

impl PreparationCompartment {
    /// Creates the Preparation enclave logic for `replica`.
    pub fn new(config: ClusterConfig, replica: ReplicaId, master_seed: u64) -> Self {
        let signer = enclave_signer(replica, CompartmentKind::Preparation);
        let registry =
            KeyRegistry::with_signers(master_seed, crate::scheme::all_enclave_signers(config.n()));
        let keypair = KeyPair::for_signer(master_seed, signer);
        let in_prep = MessageLog::new(&config);
        PreparationCompartment {
            config,
            replica,
            signer,
            keypair,
            registry,
            client_keys: ClientMacKeys::new(master_seed),
            view: View::initial(),
            in_prep,
            checkpoints: CheckpointTracker::new(),
            view_changes: ViewChangeTracker::new(),
            next_seq: SeqNum::zero(),
        }
    }

    /// This compartment's current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// `true` if this replica is the primary of the compartment's view.
    pub fn is_primary(&self) -> bool {
        self.view.primary(&self.config) == self.replica
    }

    /// Approximate heap usage for EPC accounting.
    pub fn memory_usage(&self) -> usize {
        self.in_prep.len() * 512
            + self.view_changes.len() * 1024
            + self.client_keys.memory_usage()
    }

    /// The single event-handler entry point (P2: handlers run to
    /// completion inside one compartment). Effects are appended to
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
            CompartmentInput::ClientBatch(requests) => {
                self.on_client_batch(requests, outputs);
                Ok(())
            }
            CompartmentInput::Message(ConsensusMessage::PrePrepare(pp)) => {
                self.on_pre_prepare(pp, outputs)
            }
            CompartmentInput::Message(ConsensusMessage::Checkpoint(c)) => {
                self.on_checkpoint(c, outputs)
            }
            CompartmentInput::Message(ConsensusMessage::ViewChange(vc)) => {
                self.on_view_change(vc, outputs)
            }
            CompartmentInput::Message(ConsensusMessage::NewView(nv)) => {
                self.on_new_view(nv, outputs)
            }
            // Prepares, Commits, timeouts, key installs are not this
            // compartment's events; a correct broker never routes them
            // here, so receiving one is evidence of a faulty environment.
            other => Err(ProtocolError::Other(format!("not a Preparation event: {other:?}"))),
        }
    }

    /// Handler (1): the primary orders a batch.
    fn on_client_batch(&mut self, mut requests: Vec<Request>, outputs: &mut Vec<CompartmentOutput>) {
        if !self.is_primary() {
            return;
        }
        requests.retain(|r| self.client_keys.verify_request(r));
        if requests.is_empty() {
            return;
        }
        let seq = self.next_seq.next();
        if !self.in_prep.in_window(seq) {
            outputs.push(CompartmentOutput::Rejected {
                reason: "watermark window exhausted; awaiting checkpoint".into(),
            });
            return;
        }
        self.next_seq = seq;
        let batch = RequestBatch::new(requests);
        let digest = digest_of(&batch);
        let pp = self
            .keypair
            .sign_payload(PrePrepare { view: self.view, seq, digest, batch }, self.signer);
        self.in_prep.insert_pre_prepare(pp.clone()).expect("fresh slot");
        outputs.push(CompartmentOutput::Broadcast(ConsensusMessage::PrePrepare(pp)));
    }

    /// Handler (2): a backup validates the proposal and votes `Prepare`.
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
        self.in_prep.check_window(seq)?;
        if digest_of(&pp.payload.batch) != pp.payload.digest {
            return Err(ProtocolError::BadCertificate { kind: "pre-prepare digest" });
        }
        // One constant-time digest comparison authenticates the whole
        // batch ([`splitbft_crypto::verify_tag_batch`]); any failing
        // member rejects it, so per-request verdicts are unnecessary here.
        if !self.client_keys.verify_requests(&pp.payload.batch.requests) {
            return Err(ProtocolError::BadAuthenticator { kind: "request in batch" });
        }
        self.accept_pre_prepare(pp, outputs)
    }

    fn accept_pre_prepare(
        &mut self,
        pp: Signed<PrePrepare>,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        let view = pp.payload.view;
        let seq = pp.payload.seq;
        let digest = pp.payload.digest;
        self.in_prep.insert_pre_prepare(pp)?;
        if view.primary(&self.config) != self.replica
            && !self.in_prep.slot(seq).map_or(false, |s| s.prepare_sent)
        {
            let prepare = self
                .keypair
                .sign_payload(Prepare { view, seq, digest, replica: self.replica }, self.signer);
            self.in_prep.slot_mut(seq).prepare_sent = true;
            outputs.push(CompartmentOutput::Broadcast(ConsensusMessage::Prepare(prepare)));
        }
        Ok(())
    }

    /// Duplicated handler (9): collect checkpoints, garbage-collect the
    /// private log.
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
            self.in_prep.collect_garbage(seq);
            if self.next_seq < seq {
                self.next_seq = seq;
            }
            outputs.push(CompartmentOutput::StableCheckpoint { seq });
        }
        Ok(())
    }

    /// Handler (6): validate view changes; as the new primary, emit the
    /// `NewView`.
    fn on_view_change(
        &mut self,
        vc: Signed<ViewChange>,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        verify_view_change(&self.registry, &vc, &self.config, &SPLITBFT_SCHEME)?;
        let target = vc.payload.new_view;
        if target <= self.view {
            return Err(ProtocolError::WrongView { got: target, current: self.view });
        }
        self.view_changes.insert(vc);
        if target.primary(&self.config) != self.replica {
            return Ok(());
        }
        let Some(quorum) = self.view_changes.quorum(target, &self.config) else {
            return Ok(());
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

        outputs.push(CompartmentOutput::Broadcast(ConsensusMessage::NewView(signed_nv)));
        outputs.push(self.enter_view(target, plan.checkpoint.seq()));
        if self.checkpoints.stable_proof().seq() < plan.checkpoint.seq() {
            self.checkpoints.install_certificate(plan.checkpoint.clone());
        }
        for pp in pre_prepares {
            if self.in_prep.in_window(pp.payload.seq) {
                let _ = self.in_prep.insert_pre_prepare(pp);
            }
        }
        self.next_seq = SeqNum(plan.max_s.0.max(self.next_seq.0));
        Ok(())
    }

    /// Handler (7): full validation of the `NewView` — this compartment
    /// *re-runs the planning logic* (§4), unlike Confirmation/Execution.
    fn on_new_view(
        &mut self,
        nv: Signed<NewView>,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        let target = nv.payload.view;
        if target <= self.view {
            return Err(ProtocolError::WrongView { got: target, current: self.view });
        }
        let primary = target.primary(&self.config);
        verify_signed_from(&self.registry, &nv, (SPLITBFT_SCHEME.proposer)(primary))?;
        splitbft_pbft::verify::verify_new_view_contents(
            &self.registry,
            &nv.payload,
            &self.config,
            &SPLITBFT_SCHEME,
        )?;
        let plan = validate_new_view(&nv.payload, &self.config)?;

        outputs.push(self.enter_view(target, plan.checkpoint.seq()));
        if self.checkpoints.stable_proof().seq() < plan.checkpoint.seq() {
            self.checkpoints.install_certificate(plan.checkpoint.clone());
        }
        for pp in nv.payload.pre_prepares {
            if self.in_prep.in_window(pp.payload.seq) {
                // A refused re-proposal (equivocation) emits nothing.
                let _ = self.accept_pre_prepare(pp, outputs);
            }
        }
        Ok(())
    }

    /// Handler (7'): apply the checkpoint baseline and update the view —
    /// duplicated across all compartments.
    fn enter_view(&mut self, view: View, stable: SeqNum) -> CompartmentOutput {
        self.in_prep.collect_garbage(stable);
        self.in_prep.clear_above(self.in_prep.low());
        self.view = view;
        self.view_changes.collect_garbage(view);
        CompartmentOutput::EnteredView(view)
    }
}

impl std::fmt::Debug for PreparationCompartment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparationCompartment")
            .field("replica", &self.replica)
            .field("view", &self.view)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}
