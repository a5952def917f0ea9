//! The hybrid replica state machine (normal-case MinBFT).

use crate::config::HybridConfig;
use crate::message::{HybridCommit, HybridMessage, HybridPrepare};
use crate::usig::{UsigTrait, UsigVerifier};
use splitbft_app::{Application, Cached, CheckpointState, ReplyCache};
use splitbft_crypto::{digest_bytes, digest_of, ClientMacKeys};
use splitbft_net::transport::{Protocol, ProtocolOutput};
use splitbft_types::wire::Encode;
use splitbft_types::{
    Digest, DurableCheckpoint, DurableEvent, ProtocolError, ReplicaId, Request, RequestBatch,
    SeqNum, View,
};
use std::collections::BTreeMap;

/// How many executions between durable snapshots. The hybrid has no
/// checkpoint *messages* (its log is implicitly bounded by sequential
/// execution), so the durability plane snapshots locally at this cadence
/// to bound WAL replay length and give state transfer a discrete,
/// cluster-wide agreed-upon point (every replica snapshots at the same
/// counter values).
const HYBRID_CHECKPOINT_INTERVAL: u64 = 64;

/// Where a handler puts what the replica sends.
type Out = Vec<ProtocolOutput<HybridMessage>>;

#[derive(Debug, Default)]
struct HybridSlot {
    batch: Option<RequestBatch>,
    digest: Option<Digest>,
    /// Committing replicas (the primary's prepare counts as its commit).
    committers: BTreeMap<ReplicaId, ()>,
}

/// A replica of the hybrid protocol.
///
/// Generic over the trusted counter so the fault-model experiments can
/// swap in a [`crate::usig::FaultyUsig`].
pub struct HybridReplica<A, U> {
    config: HybridConfig,
    id: ReplicaId,
    view: View,
    usig: U,
    verifier: UsigVerifier,
    /// MAC keys of the clients whose requests verified here before.
    client_keys: ClientMacKeys,
    slots: BTreeMap<u64, HybridSlot>,
    last_exec: u64,
    app: A,
    /// Cached last reply per client.
    replies: ReplyCache,
    /// Latest durable snapshot `(counter, frozen state)`, refreshed every
    /// [`HYBRID_CHECKPOINT_INTERVAL`] executions while durable events
    /// are enabled. Encoded only when sealed or served.
    last_snapshot: Option<(u64, CheckpointState<A>)>,
    /// Durable consensus events buffered for a durable runtime's WAL.
    durable: Vec<DurableEvent>,
    durable_enabled: bool,
}

impl<A: Application, U: UsigTrait> HybridReplica<A, U> {
    /// Creates replica `id` with its trusted counter `usig`.
    pub fn new(config: HybridConfig, id: ReplicaId, master_seed: u64, usig: U, app: A) -> Self {
        let verifier = UsigVerifier::new(master_seed, config.replicas());
        HybridReplica {
            config,
            id,
            view: View::initial(),
            usig,
            verifier,
            client_keys: ClientMacKeys::new(master_seed),
            slots: BTreeMap::new(),
            last_exec: 0,
            app,
            replies: ReplyCache::new(),
            last_snapshot: None,
            durable: Vec::new(),
            durable_enabled: false,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// `true` if this replica is the primary.
    pub fn is_primary(&self) -> bool {
        self.config.primary(self.view) == self.id
    }

    /// Highest executed slot (primary counter value).
    pub fn last_executed(&self) -> u64 {
        self.last_exec
    }

    /// Read access to the application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the trusted counter — used by the fault-model
    /// experiments to compromise it (e.g. roll a
    /// [`crate::usig::FaultyUsig`] back).
    pub fn usig_mut(&mut self) -> &mut U {
        &mut self.usig
    }

    /// Digest of the application state, for divergence checks in tests
    /// and experiments.
    pub fn state_digest(&self) -> Digest {
        self.app.state_digest()
    }

    fn verify_request(&mut self, req: &Request) -> bool {
        self.client_keys.verify_request(req)
    }

    /// Handles one protocol message.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]; USIG violations surface as
    /// [`ProtocolError::BadAuthenticator`]. What the call pushed to `out`
    /// before failing is void.
    fn handle(&mut self, msg: HybridMessage, out: &mut Out) -> Result<(), ProtocolError> {
        match msg {
            HybridMessage::Prepare(p) => self.handle_prepare(p, out),
            HybridMessage::Commit(c) => self.handle_commit(c, out),
        }
    }

    fn handle_prepare(&mut self, p: HybridPrepare, out: &mut Out) -> Result<(), ProtocolError> {
        if p.view != self.view {
            return Err(ProtocolError::WrongView { got: p.view, current: self.view });
        }
        let primary = self.config.primary(p.view);
        if primary == self.id {
            return Err(ProtocolError::Other("primary received its own prepare".into()));
        }
        let digest = p.batch_digest();
        self.verifier
            .verify(primary, &digest, &p.ui)
            .map_err(|_| ProtocolError::BadAuthenticator { kind: "USIG on prepare" })?;
        if !p.batch.requests.iter().all(|r| self.verify_request(r)) {
            return Err(ProtocolError::BadAuthenticator { kind: "request in hybrid batch" });
        }

        let counter = p.ui.counter;
        let slot = self.slots.entry(counter).or_default();
        slot.batch = Some(p.batch);
        slot.digest = Some(digest);
        slot.committers.insert(primary, ());

        // This backup's commit, sealed by its own counter.
        let mut commit = HybridCommit {
            view: self.view,
            replica: self.id,
            primary_counter: counter,
            batch_digest: digest,
            ui: crate::usig::UsigUi { counter: 0, signature: splitbft_types::Signature::ZERO },
        };
        commit.ui = self.usig.create_ui(&commit.commit_digest());
        let issued = commit.ui.counter;
        self.record(|| DurableEvent::CounterIssued { counter: issued });
        self.slots.entry(counter).or_default().committers.insert(self.id, ());

        out.push(ProtocolOutput::Broadcast(HybridMessage::Commit(commit)));
        self.try_execute(out);
        Ok(())
    }

    fn handle_commit(&mut self, c: HybridCommit, out: &mut Out) -> Result<(), ProtocolError> {
        if c.view != self.view {
            return Err(ProtocolError::WrongView { got: c.view, current: self.view });
        }
        if !self.config.contains(c.replica) {
            return Err(ProtocolError::UnknownReplica(c.replica));
        }
        self.verifier
            .verify(c.replica, &c.commit_digest(), &c.ui)
            .map_err(|_| ProtocolError::BadAuthenticator { kind: "USIG on commit" })?;

        let slot = self.slots.entry(c.primary_counter).or_default();
        // A commit only counts toward slots whose digest it matches;
        // commits for unknown slots park the digest for later comparison.
        match slot.digest {
            Some(d) if d != c.batch_digest => {
                return Err(ProtocolError::BadCertificate { kind: "hybrid commit digest" })
            }
            _ => {}
        }
        slot.committers.insert(c.replica, ());
        self.try_execute(out);
        Ok(())
    }

    fn try_execute(&mut self, out: &mut Out) {
        loop {
            let next = self.last_exec + 1;
            let ready = self.slots.get(&next).is_some_and(|s| {
                s.batch.is_some() && s.committers.len() >= self.config.commit_quorum()
            });
            if !ready {
                break;
            }
            let batch = self.slots.get(&next).and_then(|s| s.batch.clone()).expect("checked");
            self.record(|| DurableEvent::Committed {
                seq: SeqNum(next),
                batch: batch.clone(),
            });
            self.execute_batch(&batch, out);
            self.slots.remove(&next);
            self.last_exec = next;
            self.maybe_snapshot(next);
        }
    }

    /// Executes `batch` once per fresh request, pushing the replies
    /// (cached ones for retransmissions).
    fn execute_batch(&mut self, batch: &RequestBatch, out: &mut Out) {
        for req in &batch.requests {
            let to = req.client();
            let reply = match self.replies.lookup(req.id) {
                Cached::Resend(reply) => reply.clone(),
                Cached::Stale => continue,
                Cached::Fresh => {
                    let result = self.app.execute(&req.op);
                    self.replies.record(&self.client_keys, self.view, self.id, req.id, result, false)
                }
            };
            out.push(ProtocolOutput::Reply { to, reply });
        }
        // No enclave seals an application's blobs (blockchain blocks)
        // here, and no runtime stores them: dropped.
        self.app.drain_persist();
    }

    // --- durability --------------------------------------------------------

    /// Records `event` if a durable runtime opted in (the closure keeps
    /// disabled replicas from even building the event).
    fn record(&mut self, event: impl FnOnce() -> DurableEvent) {
        if self.durable_enabled {
            self.durable.push(event());
        }
    }

    /// Takes the periodic durable snapshot at interval boundaries.
    fn maybe_snapshot(&mut self, executed: u64) {
        if !self.durable_enabled || !executed.is_multiple_of(HYBRID_CHECKPOINT_INTERVAL) {
            return;
        }
        // Identical on every correct replica at the same counter value,
        // which is what lets a recovering replica demand `f + 1` peer
        // agreement on the digest.
        self.last_snapshot = Some((executed, CheckpointState::capture(&self.app, &self.replies)));
        self.durable.push(DurableEvent::StableCheckpoint { seq: SeqNum(executed) });
    }
}

/// The hybrid speaks its own two-phase message vocabulary
/// ([`HybridMessage`]), which is why [`Protocol::Message`] is an
/// associated type rather than a fixed `ConsensusMessage`: the same
/// runtimes host MinBFT-style clusters without any enum-wrapping.
impl<A, U> Protocol for HybridReplica<A, U>
where
    A: Application + 'static,
    U: UsigTrait + Send + 'static,
{
    type Message = HybridMessage;

    fn on_message(&mut self, msg: HybridMessage) -> Out {
        // Unverifiable USIG certificates and malformed messages are
        // ignored, not fatal — byzantine peers may send anything.
        let mut out = Vec::new();
        if self.handle(msg, &mut out).is_err() {
            out.clear();
        }
        out
    }

    /// Every replica re-sends its cached reply to a retransmitted request
    /// (so a client whose replies were lost still gathers `f + 1`), and
    /// the primary orders the fresh ones.
    fn on_client_requests(&mut self, requests: Vec<Request>) -> Out {
        let keys = &mut self.client_keys;
        let (resends, fresh) = self.replies.admit(requests, |req| keys.verify_request(req));
        let mut out: Out = resends
            .into_iter()
            .map(|reply| ProtocolOutput::Reply { to: reply.request.client, reply })
            .collect();
        if !self.is_primary() || fresh.is_empty() {
            return out;
        }
        let batch = RequestBatch::new(fresh);
        let digest = digest_of(&batch);
        let ui = self.usig.create_ui(&digest);
        let counter = ui.counter;
        self.record(|| DurableEvent::CounterIssued { counter });

        let slot = self.slots.entry(counter).or_default();
        slot.batch = Some(batch.clone());
        slot.digest = Some(digest);
        slot.committers.insert(self.id, ());

        out.push(ProtocolOutput::Broadcast(HybridMessage::Prepare(HybridPrepare {
            view: self.view,
            batch,
            ui,
        })));
        self.try_execute(&mut out);
        out
    }

    fn on_timeout(&mut self) -> Out {
        // The MinBFT view change is out of scope (see the crate docs);
        // timeouts are a no-op rather than an error.
        Vec::new()
    }

    fn progress(&self) -> u64 {
        self.last_exec
    }

    fn has_pending_requests(&self) -> bool {
        // With no view change to fire, reporting pending requests would
        // only make runtimes call the no-op timeout handler; keep the
        // timer permanently quiet instead.
        false
    }

    /// The first drain opts in: only then does the replica record events
    /// and take periodic snapshots.
    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        self.durable_enabled = true;
        std::mem::take(&mut self.durable)
    }

    /// `CounterIssued` is the safety-critical event: it advances the
    /// restored trusted counter past every value the pre-crash replica
    /// ever signed with, so the restart cannot equivocate — the paper's
    /// sealed-counter recovery. `Committed` re-executes batches beyond
    /// the last snapshot.
    fn replay_durable_event(&mut self, event: DurableEvent) {
        // Replay only happens during crash recovery, and recovery means
        // this replica's verifier windows are stale: re-anchor them on
        // the first live message from each peer (see
        // [`UsigVerifier::resync`]). Idempotent, and recovery precedes
        // networking, so repeating it per event is harmless.
        self.verifier.resync();
        match event {
            DurableEvent::CounterIssued { counter } => self.usig.advance_to(counter),
            // Replies are cached for duplicate suppression, but nobody
            // is listening yet.
            DurableEvent::Committed { seq, batch } if seq.0 == self.last_exec + 1 => {
                self.execute_batch(&batch, &mut Vec::new());
                self.last_exec = seq.0;
            }
            _ => {}
        }
    }

    /// The latest durable snapshot, if one was taken, encoded.
    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        let (seq, state) = self.last_snapshot.as_ref()?;
        let state = state.to_wire();
        Some(DurableCheckpoint {
            seq: SeqNum(*seq),
            digest: digest_bytes(&state),
            state: state.into(),
        })
    }

    /// Restores a snapshot locally unsealed or agreed on by `f + 1`
    /// peers (the hybrid has no self-authenticating checkpoint
    /// certificates, so peer agreement *is* the trust anchor).
    /// Re-anchors the USIG verifier windows afterwards: the counters this
    /// replica saw before crashing are gone with its memory.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptState`] when the bytes do not hash to the
    /// claimed digest or fail to decode.
    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        if digest_bytes(&cp.state) != cp.digest {
            return Err(ProtocolError::CorruptState(
                "snapshot bytes do not hash to the claimed digest".into(),
            ));
        }
        if cp.seq.0 <= self.last_exec {
            return Ok(()); // already at or past the snapshot
        }
        self.replies.restore_state(&cp.state, &mut self.app, &self.client_keys, self.view, self.id)?;
        self.last_exec = cp.seq.0;
        self.slots = self.slots.split_off(&(cp.seq.0 + 1));
        self.last_snapshot = Some((cp.seq.0, CheckpointState::capture(&self.app, &self.replies)));
        self.verifier.resync();
        Ok(())
    }

    // `catch_up_messages` keeps the empty default: executed slots are
    // discarded, so lagging peers recover from the snapshot plus the
    // live message stream (re-requesting until they reconnect to it).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usig::{FaultyUsig, Usig};
    use bytes::Bytes;
    use splitbft_app::CounterApp;
    use splitbft_types::{ClientId, Timestamp};

    const SEED: u64 = 77;

    type R = HybridReplica<CounterApp, Usig>;

    fn cluster(n: usize) -> Vec<R> {
        let cfg = HybridConfig::new(n).unwrap();
        (0..n as u32)
            .map(|i| {
                HybridReplica::new(
                    cfg.clone(),
                    ReplicaId(i),
                    SEED,
                    Usig::new(SEED, ReplicaId(i)),
                    CounterApp::new(),
                )
            })
            .collect()
    }

    fn request(client: u32, ts: u64) -> Request {
        let id = splitbft_types::RequestId { client: ClientId(client), timestamp: Timestamp(ts) };
        let op = Bytes::from_static(b"inc");
        let key = splitbft_crypto::client_mac_key(SEED, ClientId(client));
        let auth = key.request_tag(id, &op, false);
        Request { id, op, encrypted: false, auth }
    }

    #[test]
    fn three_replicas_commit_and_execute() {
        let mut cluster = splitbft_net::lockstep::Cluster::new(cluster(3));
        cluster.submit(0, &[request(0, 1)]);

        for i in 0..3 {
            let r = cluster.replica(i);
            assert_eq!(r.last_executed(), 1, "replica {} executed", r.id());
            assert_eq!(r.app().value(), 1);
        }
        // Replies from all three replicas (primary executes on quorum of
        // commits arriving back).
        assert!(cluster.replies.len() >= 2);
    }

    #[test]
    fn a_retransmission_whose_replies_were_lost_is_answered_from_every_cache() {
        let mut cluster = splitbft_net::lockstep::Cluster::new(cluster(3));
        let req = request(0, 1);
        cluster.submit(0, std::slice::from_ref(&req));
        assert_eq!(cluster.replica(0).last_executed(), 1);
        // The client saw none of the replies and rebroadcasts.
        cluster.replies.clear();
        for i in 0..3 {
            cluster.submit(i, std::slice::from_ref(&req));
        }
        let f = HybridConfig::new(3).unwrap().f();
        let repliers: std::collections::BTreeSet<u32> =
            cluster.replies.iter().map(|r| r.replica.0).collect();
        assert!(repliers.len() > f, "f + 1 = {} replicas must re-send: {repliers:?}", f + 1);
        let one = 1u64.to_le_bytes();
        assert!(cluster.replies.iter().all(|r| r.request == req.id && r.result[..] == one));
        for i in 0..3 {
            assert_eq!(cluster.replica(i).last_executed(), 1, "replica {i} re-executed");
        }
    }

    /// The `Prepare` a primary broadcast.
    fn prepare_in(outputs: &[ProtocolOutput<HybridMessage>]) -> HybridPrepare {
        outputs
            .iter()
            .find_map(|o| match o {
                ProtocolOutput::Broadcast(HybridMessage::Prepare(p)) => Some(p.clone()),
                _ => None,
            })
            .expect("a Prepare")
    }

    fn has_commit(outputs: &[ProtocolOutput<HybridMessage>]) -> bool {
        outputs.iter().any(|o| matches!(o, ProtocolOutput::Broadcast(HybridMessage::Commit(_))))
    }

    #[test]
    fn forged_request_rejected() {
        let mut replicas = cluster(3);
        let mut req = request(0, 1);
        req.auth = [0; 32];
        assert!(replicas[0].on_client_requests(vec![req]).is_empty());
    }

    #[test]
    fn equivocation_blocked_by_genuine_usig() {
        // With a genuine counter, the primary physically cannot produce
        // two prepares with the same counter: the second create_ui call
        // advances the counter, and backups reject the gap/out-of-order.
        let mut replicas = cluster(3);
        let p1 = prepare_in(&replicas[0].on_client_requests(vec![request(0, 1)]));
        let p2 = prepare_in(&replicas[0].on_client_requests(vec![request(1, 1)]));
        assert_ne!(p1.ui.counter, p2.ui.counter, "counters are unique");

        // Delivering p2 before p1 is rejected (gap): no outputs. Once p1
        // fills the gap, p2 earns this backup's Commit.
        assert!(replicas[1].on_message(HybridMessage::Prepare(p2.clone())).is_empty());
        assert!(has_commit(&replicas[1].on_message(HybridMessage::Prepare(p1))));
        assert!(has_commit(&replicas[1].on_message(HybridMessage::Prepare(p2))));
    }

    #[test]
    fn compromised_usig_breaks_safety() {
        // The Table 1 scenario: the primary's "trusted" counter is
        // compromised and rolled back, producing two conflicting batches
        // under the same counter. Disjoint backups each accept one —
        // divergent execution, a safety violation PBFT-with-3f+1 would
        // have prevented.
        let cfg = HybridConfig::new(3).unwrap();
        let mut evil_primary = HybridReplica::new(
            cfg.clone(),
            ReplicaId(0),
            SEED,
            FaultyUsig::new(SEED, ReplicaId(0)),
            CounterApp::new(),
        );
        let mk_backup = |i: u32| {
            HybridReplica::new(
                cfg.clone(),
                ReplicaId(i),
                SEED,
                Usig::new(SEED, ReplicaId(i)),
                CounterApp::new(),
            )
        };
        let mut r1 = mk_backup(1);
        let mut r2 = mk_backup(2);

        let p_a = prepare_in(&evil_primary.on_client_requests(vec![request(0, 1)]));

        // Roll the counter back and order a *different* batch under the
        // same counter value.
        evil_primary.usig.rollback(1);
        let p_b = prepare_in(&evil_primary.on_client_requests(vec![request(1, 1)]));
        assert_eq!(p_a.ui.counter, p_b.ui.counter);
        assert_ne!(p_a.batch_digest(), p_b.batch_digest());

        // r1 sees batch A, r2 sees batch B; both execute immediately
        // (own commit + primary's prepare = f+1 = 2).
        assert!(has_commit(&r1.on_message(HybridMessage::Prepare(p_a))));
        assert!(has_commit(&r2.on_message(HybridMessage::Prepare(p_b))));
        assert_eq!(r1.last_executed(), 1);
        assert_eq!(r2.last_executed(), 1);
        // Divergent state at the same slot: safety violated.
        // (Both executed "inc" from different clients here, so check the
        // reply bindings rather than the counter value: the slot's batch
        // digests differed.)
        assert_ne!(
            r1.replies.executed().collect::<Vec<_>>(),
            r2.replies.executed().collect::<Vec<_>>(),
            "replicas executed different requests at the same slot"
        );
    }

    #[test]
    fn five_replica_cluster_needs_three_commits() {
        let mut replicas = cluster(5);
        let prepare =
            HybridMessage::Prepare(prepare_in(&replicas[0].on_client_requests(vec![request(0, 1)])));

        // Deliver the prepare to one backup only: primary+r1 = 2 < 3.
        // r1's commit reaches nobody.
        assert!(has_commit(&replicas[1].on_message(prepare.clone())));
        assert_eq!(replicas[1].last_executed(), 0, "2 of 3 commits is not enough");

        // Give the prepare to r2: now r2 has primary+own = 2 < 3 as well.
        assert!(has_commit(&replicas[2].on_message(prepare)));
        assert_eq!(replicas[2].last_executed(), 0);
    }
}
