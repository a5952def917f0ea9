//! The **Preparation compartment**: receives client requests and
//! initializes their order distribution (paper §3.2).
//!
//! Event handlers hosted here (paper Figure 2): (1) request batch →
//! `PrePrepare` (primary), (2) `PrePrepare` → `Prepare` (backups),
//! (6)/(7) `NewView` send/receive — co-located with (1)/(2) per principle
//! P4 because re-issuing `PrePrepare`s repeats the proposal logic — and
//! the duplicated checkpoint handler (9)/(7').
//!
//! Safety-critical state owned: the header log of accepted proposals
//! (amnesia protection), the compartment's replicated `view` variable,
//! and the primary's sequence counter.
//!
//! The header log keeps one `(view, digest, prepare_sent)` entry per
//! slot, not the proposal: once handler (1) or (2) has checked the
//! signature, the digest and the client MACs, every later decision here
//! reads only the slot's digest (the equivocation check) and whether this
//! enclave's `Prepare` went out. The batch itself is dropped when the
//! ecall returns — on SGX every retained byte is EPC, and Confirmation and
//! the broker already keep the batch for the view change and catch-up
//! that read it.

use crate::ecall::{CompartmentInput, CompartmentOutput};
use crate::scheme::{enclave_signer, SPLITBFT_SCHEME};
use splitbft_crypto::{digest_of, ClientMacKeys, KeyPair, KeyRegistry};
use splitbft_pbft::verify::{verify_signed_from, verify_view_change};
use splitbft_pbft::viewchange::{plan_new_view, validate_new_view};
use splitbft_pbft::{CheckpointTracker, ViewChangeTracker};
use splitbft_types::{
    Checkpoint, CheckpointCertificate, ClusterConfig, CompartmentKind, ConsensusMessage, Digest,
    NewView, PrePrepare, Prepare, ProtocolError, ReplicaId, Request, RequestBatch, SeqNum, Signed,
    SignerId, View, ViewChange,
};
use std::collections::BTreeMap;

/// What Preparation keeps of a proposal it accepted for a slot.
#[derive(Debug)]
struct Header {
    view: View,
    digest: Digest,
    /// This enclave already broadcast its `Prepare` for the slot.
    prepare_sent: bool,
}

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
    /// The header log: one entry per accepted slot above the stable
    /// checkpoint, windowed off `checkpoints`.
    headers: BTreeMap<SeqNum, Header>,
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
        PreparationCompartment {
            config,
            replica,
            signer,
            keypair,
            registry,
            client_keys: ClientMacKeys::new(master_seed),
            view: View::initial(),
            headers: BTreeMap::new(),
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

    /// Approximate heap usage for EPC accounting: the header log's
    /// entries at their in-memory size (no batch is retained), plus the
    /// view-change votes and the client MAC keys.
    pub fn memory_usage(&self) -> usize {
        self.headers.len() * std::mem::size_of::<(SeqNum, Header)>()
            + self.view_changes.len() * 1024
            + self.client_keys.memory_usage()
    }

    fn check_window(&self, seq: SeqNum) -> Result<(), ProtocolError> {
        self.checkpoints.check_window(seq, self.config.window)
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
        if self.check_window(seq).is_err() {
            outputs.push(CompartmentOutput::Rejected {
                reason: "watermark window exhausted; awaiting checkpoint".into(),
            });
            return;
        }
        self.next_seq = seq;
        let batch = RequestBatch::new(requests);
        let digest = digest_of(&batch);
        self.record(self.view, seq, digest).expect("fresh slot");
        let pp = self
            .keypair
            .sign_payload(PrePrepare { view: self.view, seq, digest, batch }, self.signer);
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
        self.check_window(seq)?;
        if digest_of(&pp.payload.batch) != pp.payload.digest {
            return Err(ProtocolError::BadCertificate { kind: "pre-prepare digest" });
        }
        // One constant-time comparison over all the batch's tags
        // authenticates it ([`splitbft_crypto::verify_tag_batch`]); any
        // failing member rejects it, so per-request verdicts are
        // unnecessary here.
        if !self.client_keys.verify_requests(&pp.payload.batch.requests) {
            return Err(ProtocolError::BadAuthenticator { kind: "request in batch" });
        }
        self.accept(&pp.payload, outputs)
    }

    /// Records a validated proposal's header and, on a backup, votes
    /// `Prepare` for it once.
    fn accept(
        &mut self,
        pp: &PrePrepare,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        let PrePrepare { view, seq, digest, .. } = *pp;
        let primary = view.primary(&self.config) == self.replica;
        let header = self.record(view, seq, digest)?;
        if !primary && !header.prepare_sent {
            header.prepare_sent = true;
            let prepare = self
                .keypair
                .sign_payload(Prepare { view, seq, digest, replica: self.replica }, self.signer);
            outputs.push(CompartmentOutput::Broadcast(ConsensusMessage::Prepare(prepare)));
        }
        Ok(())
    }

    /// The slot's header, written on first acceptance.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Equivocation`] if a *different* proposal was
    /// already accepted for `seq` (re-delivering the same one is
    /// idempotent).
    fn record(
        &mut self,
        view: View,
        seq: SeqNum,
        digest: Digest,
    ) -> Result<&mut Header, ProtocolError> {
        let header =
            self.headers.entry(seq).or_insert(Header { view, digest, prepare_sent: false });
        if (header.view, header.digest) != (view, digest) {
            return Err(ProtocolError::Equivocation { view, seq });
        }
        Ok(header)
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
            self.headers = self.headers.split_off(&SeqNum(seq.0 + 1));
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
        let pre_prepares = plan
            .pre_prepares
            .into_iter()
            .map(|pp| self.keypair.sign_payload(pp, self.signer))
            .collect();
        let nv = NewView { view: target, view_changes: quorum, pre_prepares };
        let signed_nv = self.keypair.sign_payload(nv, self.signer);

        let entered = self.enter_view(target, plan.checkpoint);
        for pp in &signed_nv.payload.pre_prepares {
            if self.check_window(pp.payload.seq).is_ok() {
                let _ = self.record(pp.payload.view, pp.payload.seq, pp.payload.digest);
            }
        }
        outputs.push(CompartmentOutput::Broadcast(ConsensusMessage::NewView(signed_nv)));
        outputs.push(entered);
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

        outputs.push(self.enter_view(target, plan.checkpoint));
        for pp in &nv.payload.pre_prepares {
            if self.check_window(pp.payload.seq).is_ok() {
                // A refused re-proposal (equivocation) emits nothing.
                let _ = self.accept(&pp.payload, outputs);
            }
        }
        Ok(())
    }

    /// Handler (7'): apply the checkpoint baseline and update the view —
    /// duplicated across all compartments. Every header is dropped: those
    /// at or below the checkpoint are garbage, and old-view acceptances
    /// above it are void (the new primary re-proposes those slots).
    fn enter_view(&mut self, view: View, checkpoint: CheckpointCertificate) -> CompartmentOutput {
        self.checkpoints.install_certificate(checkpoint);
        self.headers.clear();
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

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use splitbft_pbft::make_request;
    use splitbft_types::{ClientId, Digest, Timestamp};

    const SEED: u64 = 9;

    /// `kind`'s enclave on `replica` signs `payload`.
    fn signed<T: splitbft_types::message::MessagePayload>(
        replica: u32,
        kind: CompartmentKind,
        payload: T,
    ) -> Signed<T> {
        let signer = enclave_signer(ReplicaId(replica), kind);
        KeyPair::for_signer(SEED, signer).sign_payload(payload, signer)
    }

    /// Replica 1: a backup in view 0, whose primary is replica 0.
    fn backup() -> PreparationCompartment {
        PreparationCompartment::new(ClusterConfig::new(4).unwrap(), ReplicaId(1), SEED)
    }

    /// View 0's primary proposes `op` at `seq`: a validly signed
    /// proposal with a correct digest and a client MAC that verifies.
    fn proposal(seq: u64, op: &str) -> Signed<PrePrepare> {
        let op = Bytes::copy_from_slice(op.as_bytes());
        let request = make_request(SEED, ClientId(1), Timestamp(seq), op);
        let batch = RequestBatch::single(request);
        let digest = digest_of(&batch);
        let pp = PrePrepare { view: View::initial(), seq: SeqNum(seq), digest, batch };
        signed(0, CompartmentKind::Preparation, pp)
    }

    fn deliver(
        prep: &mut PreparationCompartment,
        message: ConsensusMessage,
    ) -> (Result<(), ProtocolError>, Vec<CompartmentOutput>) {
        let mut outputs = Vec::new();
        let result = prep.handle(CompartmentInput::Message(message), &mut outputs);
        (result, outputs)
    }

    /// The digests of the `Prepare`s among `outputs`.
    fn prepares(outputs: &[CompartmentOutput]) -> Vec<Digest> {
        outputs
            .iter()
            .filter_map(|o| match o {
                CompartmentOutput::Broadcast(ConsensusMessage::Prepare(p)) => {
                    Some(p.payload.digest)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_second_proposal_for_an_accepted_slot_is_refused_as_equivocation() {
        let mut prep = backup();
        let first = proposal(1, "first");
        let d1 = first.payload.digest;
        let (result, outputs) = deliver(&mut prep, ConsensusMessage::PrePrepare(first));
        assert_eq!(result, Ok(()));
        assert_eq!(prepares(&outputs), vec![d1]);

        let second = proposal(1, "second");
        assert_ne!(second.payload.digest, d1);
        let (result, outputs) = deliver(&mut prep, ConsensusMessage::PrePrepare(second));
        assert_eq!(
            result,
            Err(ProtocolError::Equivocation { view: View::initial(), seq: SeqNum(1) })
        );
        assert!(prepares(&outputs).is_empty(), "an equivocation earns no Prepare");
    }

    #[test]
    fn a_redelivered_proposal_earns_no_second_prepare() {
        let mut prep = backup();
        let (result, outputs) = deliver(&mut prep, ConsensusMessage::PrePrepare(proposal(1, "op")));
        assert_eq!(result, Ok(()));
        assert_eq!(prepares(&outputs).len(), 1);
        let (result, outputs) = deliver(&mut prep, ConsensusMessage::PrePrepare(proposal(1, "op")));
        assert_eq!(result, Ok(()));
        assert!(prepares(&outputs).is_empty());
    }

    #[test]
    fn a_slot_beyond_the_window_is_refused() {
        let mut prep = backup();
        let high = ClusterConfig::new(4).unwrap().window;
        let (result, outputs) =
            deliver(&mut prep, ConsensusMessage::PrePrepare(proposal(high + 1, "op")));
        assert!(
            matches!(result, Err(ProtocolError::OutOfWindow { seq, .. }) if seq == SeqNum(high + 1)),
            "{result:?}"
        );
        assert!(prepares(&outputs).is_empty());
        let (result, _) = deliver(&mut prep, ConsensusMessage::PrePrepare(proposal(high, "op")));
        assert_eq!(result, Ok(()), "the window's last slot is inside it");
    }

    #[test]
    fn a_stable_checkpoint_drops_the_slots_at_or_below_it_and_moves_the_window() {
        let mut prep = backup();
        let window = ClusterConfig::new(4).unwrap().window;
        let mut one_slot = 0;
        for seq in 1..=4 {
            let pp = proposal(seq, &format!("op-{seq}"));
            let (result, _) = deliver(&mut prep, ConsensusMessage::PrePrepare(pp));
            assert_eq!(result, Ok(()));
            if seq == 1 {
                one_slot = prep.memory_usage();
            }
        }
        assert!(prep.memory_usage() > one_slot);
        let (result, _) =
            deliver(&mut prep, ConsensusMessage::PrePrepare(proposal(window + 4, "op")));
        assert!(matches!(result, Err(ProtocolError::OutOfWindow { .. })), "{result:?}");

        // 2f + 1 Execution enclaves vote for the state after slot 4.
        let state_digest = Digest::from_bytes([7; 32]);
        let mut stable = Vec::new();
        for replica in 0..3 {
            let vote = Checkpoint {
                seq: SeqNum(4),
                state_digest,
                replica: ReplicaId(replica),
                snapshot: Bytes::new(),
            };
            let vote = signed(replica, CompartmentKind::Execution, vote);
            let (result, outputs) = deliver(&mut prep, ConsensusMessage::Checkpoint(vote));
            assert_eq!(result, Ok(()));
            stable.extend(outputs);
        }
        assert!(matches!(stable[..], [CompartmentOutput::StableCheckpoint { seq: SeqNum(4) }]));

        // Slots 1–4 are gone: a different proposal there is out of the
        // window, not an equivocation, and earns no Prepare.
        for seq in 1..=4 {
            let (result, outputs) =
                deliver(&mut prep, ConsensusMessage::PrePrepare(proposal(seq, "late")));
            assert!(matches!(result, Err(ProtocolError::OutOfWindow { .. })), "{result:?}");
            assert!(prepares(&outputs).is_empty());
        }
        // The window moved up by four, and one live slot costs what the
        // first one did.
        let (result, outputs) =
            deliver(&mut prep, ConsensusMessage::PrePrepare(proposal(window + 4, "op")));
        assert_eq!(result, Ok(()));
        assert_eq!(prepares(&outputs).len(), 1);
        assert_eq!(prep.memory_usage(), one_slot);
    }
}
