//! The **Execution compartment**: collects a quorum of confirmations,
//! executes authenticated requests, replies to clients, and generates
//! checkpoints (paper §3.2).
//!
//! Event handlers hosted here: (4) commit-certificate collection →
//! execute + `Reply`, (8) checkpoint generation — co-located with (4)
//! per principle P3 because both touch the application state — plus the
//! duplicated checkpoint GC handler (9) and `NewView` application (7').
//!
//! A checkpoint vote carries the state digest; the snapshot itself stays
//! in this enclave, beside its checkpoint tracker. The only way
//! application state enters from outside is
//! [`CompartmentInput::InstallSnapshot`], which takes a snapshot just when
//! this enclave's own stable certificate vouches for its digest.
//!
//! This is the *confidentiality* compartment: client operations arrive
//! encrypted under per-client session keys installed during attestation
//! and are decrypted only here; results are encrypted before leaving.
//! "Confidentiality is maintained as long as all enclaves of type
//! Execution are correct" (§2).

use crate::ecall::{CompartmentInput, CompartmentOutput};
use crate::scheme::{compartment_measurement, enclave_signer, SPLITBFT_SCHEME};
use bytes::Bytes;
use splitbft_app::{Application, Cached, ReplyCache};
use splitbft_crypto::aead::{open, seal, AeadKey};
use splitbft_crypto::sig::{dh_public, dh_shared};
use splitbft_crypto::{digest_bytes, digest_of, ClientMacKeys, KeyPair, KeyRegistry};
use splitbft_pbft::verify::{verify_new_view_votes, verify_signed_from};
use splitbft_pbft::{CheckpointTracker, Proposals, VoteSet};
use splitbft_tee::seal::SealingIdentity;
use splitbft_types::wire::Encode;
use splitbft_types::{
    Checkpoint, ClientId, ClusterConfig, CompartmentKind, Commit, ConsensusMessage, Digest,
    DurableCheckpoint, NewView, PrePrepare, ProtocolError, ReplicaId, Request, RequestBatch,
    SeqNum, Signed, SignerId, View,
};
use std::collections::BTreeMap;

/// AAD label binding request ciphertexts (shared with the client).
pub const REQ_AAD: &[u8] = b"splitbft-request";
/// AAD label binding reply ciphertexts (shared with the client).
pub const REPLY_AAD: &[u8] = b"splitbft-reply";
/// Wrapping nonce for session-key installation.
const WRAP_NONCE: u64 = 0;

/// Derives the Execution enclave's Diffie–Hellman secret. In real SGX
/// this would be generated inside the enclave at startup; the simulation
/// derives it so provisioning code can compute the matching public value
/// for the attestation quote.
pub fn exec_dh_secret(master_seed: u64, replica: ReplicaId) -> u64 {
    let d = digest_bytes(&[b"exec-dh".as_slice(), &master_seed.to_le_bytes(), &replica.0.to_le_bytes()].concat());
    u64::from_le_bytes(d.0[..8].try_into().expect("8 bytes"))
}

#[derive(Debug, Default)]
struct ExecSlot {
    /// Candidate full-request proposals by digest (forwarded
    /// `PrePrepare`s; commits carry only the hash).
    proposals: Proposals,
    /// Commit votes by sender.
    commits: VoteSet<Signed<Commit>>,
}

/// The Execution compartment state machine, generic over the replicated
/// [`Application`].
pub struct ExecutionCompartment<A> {
    config: ClusterConfig,
    replica: ReplicaId,
    signer: SignerId,
    keypair: KeyPair,
    registry: KeyRegistry,
    /// MAC keys of the clients whose requests verified here before.
    client_keys: ClientMacKeys,

    /// This compartment's copy of the replicated view variable.
    view: View,
    /// The `in_exec` log.
    slots: BTreeMap<SeqNum, ExecSlot>,
    /// Private checkpoint tracker.
    checkpoints: CheckpointTracker,
    /// Highest executed slot.
    last_exec: SeqNum,
    /// The application state — the paper notes this dominates the
    /// Execution TCB.
    app: A,
    /// Cached last reply per client.
    replies: ReplyCache,
    /// Per-client session keys installed through attestation.
    session_keys: BTreeMap<ClientId, AeadKey>,
    /// This enclave's key-exchange secret.
    dh_secret: u64,
    /// Sealing identity for persisted blobs (SGX sealing, MRENCLAVE
    /// policy) and the monotonic seal nonce.
    seal_identity: SealingIdentity,
    seal_nonce: u64,
}

impl<A: Application> ExecutionCompartment<A> {
    /// Creates the Execution enclave logic for `replica`, hosting `app`.
    pub fn new(config: ClusterConfig, replica: ReplicaId, master_seed: u64, app: A) -> Self {
        let signer = enclave_signer(replica, CompartmentKind::Execution);
        let registry =
            KeyRegistry::with_signers(master_seed, crate::scheme::all_enclave_signers(config.n()));
        let keypair = KeyPair::for_signer(master_seed, signer);
        let dh_secret = exec_dh_secret(master_seed, replica);
        let platform = digest_bytes(&[b"platform".as_slice(), &replica.0.to_le_bytes()].concat());
        ExecutionCompartment {
            config,
            replica,
            signer,
            keypair,
            registry,
            client_keys: ClientMacKeys::new(master_seed),
            view: View::initial(),
            slots: BTreeMap::new(),
            checkpoints: CheckpointTracker::new(),
            last_exec: SeqNum::zero(),
            app,
            replies: ReplyCache::new(),
            session_keys: BTreeMap::new(),
            dh_secret,
            seal_identity: SealingIdentity {
                platform_secret: platform.0,
                measurement: compartment_measurement(CompartmentKind::Execution),
            },
            seal_nonce: 0,
        }
    }

    /// This compartment's current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Highest executed slot.
    pub fn last_executed(&self) -> SeqNum {
        self.last_exec
    }

    /// Read access to the application (inspection in tests/examples).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Digest of the canonical checkpointable state.
    pub fn state_digest(&self) -> Digest {
        digest_bytes(&self.checkpoint_state_bytes())
    }

    /// The current stable checkpoint — certificate, then this enclave's
    /// snapshot of the certified state — for the broker to seal and to
    /// serve to lagging peers. Only Execution holds the application
    /// state, so only it can produce one. `None` at genesis and while
    /// this enclave is behind its own stable checkpoint.
    pub fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        self.checkpoints.durable_checkpoint()
    }

    /// Sequence number of the current stable checkpoint.
    pub fn stable_seq(&self) -> SeqNum {
        self.checkpoints.stable_seq()
    }

    /// The enclave's DH public value, placed in its attestation quote.
    pub fn dh_public_value(&self) -> u64 {
        dh_public(self.dh_secret)
    }

    /// Approximate heap usage for EPC accounting.
    pub fn memory_usage(&self) -> usize {
        self.slots.len() * 1024
            + self.app.memory_usage()
            + self.replies.len() * 128
            + self.session_keys.len() * 96
            + self.client_keys.memory_usage()
    }

    /// The acceptance window hangs off the stable checkpoint — or, while
    /// this enclave is behind it, off what it has executed, so the
    /// committed slots it still has to execute stay admissible.
    fn check_window(&self, seq: SeqNum) -> Result<(), ProtocolError> {
        let low = self.checkpoints.stable_seq().min(self.last_exec);
        splitbft_pbft::checkpoint::check_window(low, seq, self.config.window)
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
            CompartmentInput::Message(ConsensusMessage::Commit(c)) => self.on_commit(c, outputs),
            CompartmentInput::Message(ConsensusMessage::Checkpoint(c)) => {
                self.on_checkpoint(c, outputs)
            }
            CompartmentInput::Message(ConsensusMessage::NewView(nv)) => {
                self.on_new_view(nv, outputs)
            }
            CompartmentInput::InstallSessionKey { client, client_dh_public, wrapped_key } => {
                self.on_install_session_key(client, client_dh_public, &wrapped_key)
            }
            CompartmentInput::ReplayCommitted { seq, batch } => {
                self.replay_committed(seq, &batch, outputs);
                Ok(())
            }
            CompartmentInput::InstallSnapshot { seq, snapshot } => {
                self.install_snapshot(seq, &snapshot)
            }
            other => Err(ProtocolError::Other(format!("not an Execution event: {other:?}"))),
        }
    }

    /// Forwarded proposals: Execution needs the full requests since
    /// `Commit`s carry only the batch hash (§3.2). Validity of the
    /// *contents* is established by the digest binding: the batch must
    /// hash to a digest that later gathers a commit quorum.
    fn on_pre_prepare(
        &mut self,
        pp: Signed<PrePrepare>,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        let seq = pp.payload.seq;
        self.check_window(seq)?;
        if digest_of(&pp.payload.batch) != pp.payload.digest {
            return Err(ProtocolError::BadCertificate { kind: "pre-prepare digest" });
        }
        self.slots.entry(seq).or_default().proposals.insert(pp);
        self.try_execute(outputs);
        Ok(())
    }

    /// Handler (4): collect the commit quorum.
    fn on_commit(
        &mut self,
        c: Signed<Commit>,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        let seq = c.payload.seq;
        if c.payload.view != self.view {
            return Err(ProtocolError::WrongView { got: c.payload.view, current: self.view });
        }
        // Early drop: commits for already-executed slots are redundant;
        // skip signature verification.
        if seq <= self.last_exec {
            return Ok(());
        }
        verify_signed_from(&self.registry, &c, (SPLITBFT_SCHEME.confirmer)(c.payload.replica))?;
        if !self.config.contains(c.payload.replica) {
            return Err(ProtocolError::UnknownReplica(c.payload.replica));
        }
        self.check_window(seq)?;
        let n = self.config.n();
        self.slots.entry(seq).or_default().commits.insert(c.payload.replica, c, n);
        self.try_execute(outputs);
        Ok(())
    }

    /// A slot is executable once `2f + 1` commits from distinct
    /// Confirmation enclaves agree on (view, digest) *and* the full batch
    /// with that digest is present. One vote per replica and
    /// `2 (2f + 1) > n` mean at most one (view, digest) reaches the quorum.
    fn committed_digest(&self, seq: SeqNum) -> Option<Digest> {
        let slot = self.slots.get(&seq)?;
        let agreeing = |with: &Commit| {
            slot.commits
                .values()
                .filter(|c| c.payload.view == with.view && c.payload.digest == with.digest)
                .count()
        };
        slot.commits
            .values()
            .find(|c| agreeing(&c.payload) >= self.config.quorum())
            .map(|c| c.payload.digest)
            .filter(|d| slot.proposals.contains(*d))
    }

    fn try_execute(&mut self, outputs: &mut Vec<CompartmentOutput>) {
        loop {
            let next = self.last_exec.next();
            let Some(digest) = self.committed_digest(next) else { break };
            // The slot is done: its proposal is consumed, not cloned.
            let batch = self
                .slots
                .remove(&next)
                .and_then(|mut slot| slot.proposals.take(digest))
                .expect("committed_digest checked presence")
                .payload
                .batch;
            outputs.push(CompartmentOutput::Committed { seq: next, digest });

            for req in &batch.requests {
                self.execute_request(next, req, outputs);
            }
            self.seal_persisted_blobs(outputs);
            self.last_exec = next;

            if next.0 % self.config.checkpoint_interval == 0 {
                self.emit_checkpoint(next, outputs);
            }
        }
    }

    /// Sealed persistence of application blobs (blockchain blocks): one
    /// ocall per blob, as in the paper's evaluation.
    fn seal_persisted_blobs(&mut self, outputs: &mut Vec<CompartmentOutput>) {
        for blob in self.app.drain_persist() {
            let nonce = self.seal_nonce;
            self.seal_nonce += 1;
            let sealed =
                splitbft_tee::seal::seal_data(&self.seal_identity, nonce, b"splitbft-block", &blob);
            outputs.push(CompartmentOutput::Persist(Bytes::from(sealed)));
        }
    }

    /// Crash recovery: re-executes a batch whose commit point was made
    /// durable before the crash. Strictly sequential and quorum-free —
    /// the WAL record *is* the evidence the quorum existed — and emits
    /// only the execution-observability outputs (the broker discards
    /// them during replay anyway).
    fn replay_committed(
        &mut self,
        seq: SeqNum,
        batch: &RequestBatch,
        outputs: &mut Vec<CompartmentOutput>,
    ) {
        if seq != self.last_exec.next() {
            return; // stale or gapped record: replay skips it
        }
        for req in &batch.requests {
            self.execute_request(seq, req, outputs);
        }
        self.seal_persisted_blobs(outputs);
        self.slots.remove(&seq);
        self.last_exec = seq;
    }

    fn execute_request(&mut self, seq: SeqNum, req: &Request, outputs: &mut Vec<CompartmentOutput>) {
        let client = req.client();
        match self.replies.lookup(req.id) {
            Cached::Resend(reply) => {
                outputs.push(CompartmentOutput::SendReply { to: client, reply: reply.clone() });
                return;
            }
            Cached::Stale => return,
            Cached::Fresh => {}
        }
        // Re-verify the client MAC inside the trusted boundary: the
        // Preparation compartment checked it, but per the fault model a
        // faulty Preparation enclave could have laundered a forged
        // request into the batch. Corrupt requests execute as no-ops
        // (§4: "the Execution Compartment will detect this and execute a
        // no-op instead").
        let authentic = self.client_keys.verify_request(req);

        let session = if req.encrypted { self.session_keys.get(&client) } else { None };
        let result = if !authentic {
            None
        } else if !req.encrypted {
            Some(self.app.execute(&req.op))
        } else {
            session
                .and_then(|key| open(key, req.id.timestamp.0, REQ_AAD, &req.op).ok())
                .map(|op| self.app.execute(&op))
        };
        let result = result.unwrap_or(Bytes::from_static(splitbft_app::NOOP_RESULT));

        // Encrypt the result for the client when a session exists; the
        // deterministic nonce (the request timestamp) makes every correct
        // replica produce the same ciphertext, so reply quorums match.
        let (result, encrypted) = match session.filter(|_| authentic) {
            Some(key) => (Bytes::from(seal(key, req.id.timestamp.0, REPLY_AAD, &result)), true),
            None => (result, false),
        };
        let reply = self.replies.record(
            &self.client_keys,
            self.view,
            self.replica,
            req.id,
            result,
            encrypted,
        );
        outputs.push(CompartmentOutput::Executed { seq, request: req.id });
        outputs.push(CompartmentOutput::SendReply { to: client, reply });
    }

    // --- checkpointing -----------------------------------------------------

    /// The canonical checkpoint state (see [`ReplyCache::encode_state`]).
    fn checkpoint_state_bytes(&self) -> Vec<u8> {
        self.replies.encode_state(&self.app.snapshot())
    }

    /// The one place application state is replaced wholesale: installs
    /// `snapshot` as the state after `seq`, if this enclave's own tracker
    /// admits it ([`CheckpointTracker::admit_snapshot`]: under the stable
    /// certificate it verified, ahead of what it executed, hashing to the
    /// certified digest).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptState`] when it does not (or the snapshot
    /// does not parse); nothing has changed then.
    fn install_snapshot(&mut self, seq: SeqNum, snapshot: &Bytes) -> Result<(), ProtocolError> {
        let certified = self.checkpoints.admit_snapshot(seq, self.last_exec, snapshot)?;
        self.replies.restore_state(
            snapshot,
            &mut self.app,
            &self.client_keys,
            self.view,
            self.replica,
        )?;
        self.last_exec = seq;
        self.checkpoints.retain_snapshot(seq, certified, snapshot.clone());
        self.apply_stable(seq);
        Ok(())
    }

    /// Handler (8): generate the periodic checkpoint. Only Execution
    /// holds the application state, so only it originates `Checkpoint`s.
    /// The snapshot stays here; the vote carries its digest alone.
    fn emit_checkpoint(&mut self, seq: SeqNum, outputs: &mut Vec<CompartmentOutput>) {
        let ckpt = self.checkpoints.vote_on(seq, self.replica, self.checkpoint_state_bytes());
        let signed = self.keypair.sign_payload(ckpt, self.signer);
        if let Some(cert) = self.checkpoints.insert(signed.clone(), &self.config) {
            outputs.push(self.apply_stable(cert.seq()));
        }
        outputs.push(CompartmentOutput::Broadcast(ConsensusMessage::Checkpoint(signed)));
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
            outputs.push(self.apply_stable(cert.seq()));
        }
        Ok(())
    }

    /// Garbage-collects at a stable checkpoint — executed slots only: an
    /// enclave behind the checkpoint keeps the committed slots it still
    /// has to execute, and what it is missing arrives as a snapshot.
    fn apply_stable(&mut self, seq: SeqNum) -> CompartmentOutput {
        self.slots = self.slots.split_off(&SeqNum(seq.min(self.last_exec).0 + 1));
        CompartmentOutput::StableCheckpoint { seq }
    }

    /// Handler (7'): apply the checkpoint and the view from a `NewView`;
    /// the re-issued `PrePrepare`s are adopted as candidate proposals but
    /// not validated (commit quorums will vouch for them).
    fn on_new_view(
        &mut self,
        nv: Signed<NewView>,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        let target = nv.payload.view;
        if target <= self.view {
            return Err(ProtocolError::WrongView { got: target, current: self.view });
        }
        verify_new_view_votes(&self.registry, &nv, &self.config, &SPLITBFT_SCHEME)?;

        if let Some(ckpt) = nv.payload.max_checkpoint() {
            splitbft_pbft::verify::verify_checkpoint_certificate(
                &self.registry,
                ckpt,
                &self.config,
                &SPLITBFT_SCHEME,
            )?;
            self.checkpoints.install_certificate(ckpt.clone());
        }

        self.view = target;
        self.slots.clear();
        for pp in nv.payload.pre_prepares {
            if pp.payload.view == target
                && self.check_window(pp.payload.seq).is_ok()
                && digest_of(&pp.payload.batch) == pp.payload.digest
            {
                self.slots.entry(pp.payload.seq).or_default().proposals.insert(pp);
            }
        }
        outputs.push(CompartmentOutput::EnteredView(target));
        Ok(())
    }

    // --- attestation / session keys ----------------------------------------

    /// Installs a client session key wrapped under the DH shared secret
    /// (the tail end of the attestation handshake).
    fn on_install_session_key(
        &mut self,
        client: ClientId,
        client_dh_public: u64,
        wrapped_key: &[u8],
    ) -> Result<(), ProtocolError> {
        let shared = dh_shared(self.dh_secret, client_dh_public);
        let wrap_key = AeadKey::new(&digest_bytes(&shared.to_le_bytes()).0);
        let mut aad = b"session-key:".to_vec();
        client.encode_to(&mut aad);
        let key_bytes = open(&wrap_key, WRAP_NONCE, &aad, wrapped_key)
            .map_err(|_| ProtocolError::BadAuthenticator { kind: "wrapped session key" })?;
        let key_bytes: [u8; 32] = key_bytes
            .try_into()
            .map_err(|_| ProtocolError::BadAuthenticator { kind: "session key length" })?;
        self.session_keys.insert(client, AeadKey::new(&key_bytes));
        Ok(())
    }
}

impl<A: Application> std::fmt::Debug for ExecutionCompartment<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionCompartment")
            .field("replica", &self.replica)
            .field("view", &self.view)
            .field("last_exec", &self.last_exec)
            .finish_non_exhaustive()
    }
}
