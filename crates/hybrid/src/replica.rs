//! The hybrid replica state machine (normal-case MinBFT).

use crate::config::HybridConfig;
use crate::message::{HybridCommit, HybridMessage, HybridPrepare};
use crate::usig::{UsigTrait, UsigVerifier};
use splitbft_app::{Application, Cached, ReplyCache};
use splitbft_crypto::{digest_bytes, digest_of, ClientMacKeys};
use splitbft_types::{
    ClientId, Digest, DurableCheckpoint, DurableEvent, ProtocolError, ReplicaId, Reply, Request,
    RequestBatch, SeqNum, View,
};
use std::collections::BTreeMap;

/// How many executions between durable snapshots. The hybrid has no
/// checkpoint *messages* (its log is implicitly bounded by sequential
/// execution), so the durability plane snapshots locally at this cadence
/// to bound WAL replay length and give state transfer a discrete,
/// cluster-wide agreed-upon point (every replica snapshots at the same
/// counter values).
const HYBRID_CHECKPOINT_INTERVAL: u64 = 64;

/// Effects requested by a [`HybridReplica`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HybridAction {
    /// Send to every other replica.
    Broadcast(HybridMessage),
    /// Deliver a reply to a client.
    SendReply {
        /// Destination client.
        to: ClientId,
        /// The authenticated reply.
        reply: Reply,
    },
    /// Persist an application blob.
    Persist(bytes::Bytes),
    /// Observability: the batch at this primary counter executed.
    Executed {
        /// The agreement slot (primary counter value).
        counter: u64,
    },
}

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
    /// Latest durable snapshot `(counter, state bytes)`, refreshed every
    /// [`HYBRID_CHECKPOINT_INTERVAL`] executions while durable events
    /// are enabled.
    last_snapshot: Option<(u64, Vec<u8>)>,
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
        splitbft_crypto::digest_bytes(&self.app.snapshot())
    }

    fn verify_request(&mut self, req: &Request) -> bool {
        self.client_keys.verify_request(req)
    }

    /// Handles a batch of client requests: every replica re-sends its
    /// cached reply to a retransmitted request (so a client whose
    /// replies were lost still gathers `f + 1`), and the primary orders
    /// the fresh ones.
    pub fn on_client_batch(&mut self, requests: Vec<Request>) -> Vec<HybridAction> {
        let keys = &mut self.client_keys;
        let (resends, fresh) = self.replies.admit(requests, |req| keys.verify_request(req));
        let mut actions: Vec<HybridAction> = resends
            .into_iter()
            .map(|reply| HybridAction::SendReply { to: reply.request.client, reply })
            .collect();
        if !self.is_primary() || fresh.is_empty() {
            return actions;
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

        actions.push(HybridAction::Broadcast(HybridMessage::Prepare(HybridPrepare {
            view: self.view,
            batch,
            ui,
        })));
        actions.extend(self.try_execute());
        actions
    }

    /// Handles one protocol message.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]; USIG violations surface as
    /// [`ProtocolError::BadAuthenticator`].
    pub fn on_message(&mut self, msg: HybridMessage) -> Result<Vec<HybridAction>, ProtocolError> {
        match msg {
            HybridMessage::Prepare(p) => self.handle_prepare(p),
            HybridMessage::Commit(c) => self.handle_commit(c),
        }
    }

    fn handle_prepare(&mut self, p: HybridPrepare) -> Result<Vec<HybridAction>, ProtocolError> {
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

        let mut actions = vec![HybridAction::Broadcast(HybridMessage::Commit(commit))];
        actions.extend(self.try_execute());
        Ok(actions)
    }

    fn handle_commit(&mut self, c: HybridCommit) -> Result<Vec<HybridAction>, ProtocolError> {
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
        Ok(self.try_execute())
    }

    fn try_execute(&mut self) -> Vec<HybridAction> {
        let mut actions = Vec::new();
        loop {
            let next = self.last_exec + 1;
            let ready = self.slots.get(&next).map_or(false, |s| {
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
            self.execute_batch(&batch, &mut actions);
            self.slots.remove(&next);
            self.last_exec = next;
            actions.push(HybridAction::Executed { counter: next });
            self.maybe_snapshot(next);
        }
        actions
    }

    /// Executes `batch` once per fresh request, appending the replies
    /// (cached ones for retransmissions) and the application's blobs.
    fn execute_batch(&mut self, batch: &RequestBatch, actions: &mut Vec<HybridAction>) {
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
            actions.push(HybridAction::SendReply { to, reply });
        }
        actions.extend(self.app.drain_persist().into_iter().map(HybridAction::Persist));
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
        if !self.durable_enabled || executed % HYBRID_CHECKPOINT_INTERVAL != 0 {
            return;
        }
        // Identical on every correct replica at the same counter value,
        // which is what lets a recovering replica demand `f + 1` peer
        // agreement on the digest.
        self.last_snapshot = Some((executed, self.replies.encode_state(&self.app.snapshot())));
        self.durable.push(DurableEvent::StableCheckpoint { seq: SeqNum(executed) });
    }

    /// Starts recording durable consensus events.
    pub fn enable_durable_events(&mut self) {
        self.durable_enabled = true;
    }

    /// Drains the durable events recorded since the last drain.
    pub fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        std::mem::take(&mut self.durable)
    }

    /// Replays one WAL event during crash recovery.
    ///
    /// `CounterIssued` is the safety-critical one: it advances the
    /// restored trusted counter past every value the pre-crash replica
    /// ever signed with, so the restart cannot equivocate — the paper's
    /// sealed-counter recovery. `Committed` re-executes batches beyond
    /// the last snapshot.
    pub fn replay_durable_event(&mut self, event: DurableEvent) {
        // Replay only happens during crash recovery, and recovery means
        // this replica's verifier windows are stale: re-anchor them on
        // the first live message from each peer (see
        // [`UsigVerifier::resync`]). Idempotent, and recovery precedes
        // networking, so repeating it per event is harmless.
        self.verifier.resync();
        match event {
            DurableEvent::CounterIssued { counter } => self.usig.advance_to(counter),
            DurableEvent::Committed { seq, batch } => {
                if seq.0 == self.last_exec + 1 {
                    // Replies are cached for duplicate suppression, but
                    // nobody is listening yet.
                    self.execute_batch(&batch, &mut Vec::new());
                    self.last_exec = seq.0;
                }
            }
            _ => {}
        }
    }

    /// The latest durable snapshot, if one was taken.
    pub fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        let (seq, state) = self.last_snapshot.as_ref()?;
        Some(DurableCheckpoint {
            seq: SeqNum(*seq),
            digest: digest_bytes(state),
            state: bytes::Bytes::from(state.clone()),
        })
    }

    /// Restores from a snapshot produced by
    /// [`HybridReplica::durable_checkpoint`] — locally unsealed, or
    /// agreed on by `f + 1` peers (the hybrid has no self-authenticating
    /// checkpoint certificates, so peer agreement *is* the trust
    /// anchor). Re-anchors the USIG verifier windows afterwards: the
    /// counters this replica saw before crashing are gone with its
    /// memory.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptState`] when the bytes do not hash to the
    /// claimed digest or fail to decode.
    pub fn restore_durable_checkpoint(
        &mut self,
        cp: &DurableCheckpoint,
    ) -> Result<(), ProtocolError> {
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
        self.last_snapshot = Some((cp.seq.0, cp.state.to_vec()));
        self.verifier.resync();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usig::{FaultyUsig, Usig};
    use bytes::Bytes;
    use splitbft_app::CounterApp;
    use splitbft_types::Timestamp;

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

    #[test]
    fn forged_request_rejected() {
        let mut replicas = cluster(3);
        let mut req = request(0, 1);
        req.auth = [0; 32];
        let actions = replicas[0].on_client_batch(vec![req]);
        assert!(actions.is_empty());
    }

    #[test]
    fn equivocation_blocked_by_genuine_usig() {
        // With a genuine counter, the primary physically cannot produce
        // two prepares with the same counter: the second create_ui call
        // advances the counter, and backups reject the gap/out-of-order.
        let mut replicas = cluster(3);
        let a1 = replicas[0].on_client_batch(vec![request(0, 1)]);
        let p1 = a1.iter().find_map(|a| match a {
            HybridAction::Broadcast(HybridMessage::Prepare(p)) => Some(p.clone()),
            _ => None,
        }).unwrap();
        let a2 = replicas[0].on_client_batch(vec![request(1, 1)]);
        let p2 = a2.iter().find_map(|a| match a {
            HybridAction::Broadcast(HybridMessage::Prepare(p)) => Some(p.clone()),
            _ => None,
        }).unwrap();
        assert_ne!(p1.ui.counter, p2.ui.counter, "counters are unique");

        // Delivering p2 before p1 is rejected (gap); p1 then p2 is fine.
        assert!(replicas[1].on_message(HybridMessage::Prepare(p2.clone())).is_err());
        assert!(replicas[1].on_message(HybridMessage::Prepare(p1)).is_ok());
        assert!(replicas[1].on_message(HybridMessage::Prepare(p2)).is_ok());
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

        let a1 = evil_primary.on_client_batch(vec![request(0, 1)]);
        let p_a = a1.iter().find_map(|a| match a {
            HybridAction::Broadcast(HybridMessage::Prepare(p)) => Some(p.clone()),
            _ => None,
        }).unwrap();

        // Roll the counter back and order a *different* batch under the
        // same counter value.
        evil_primary.usig.rollback(1);
        let a2 = evil_primary.on_client_batch(vec![request(1, 1)]);
        let p_b = a2.iter().find_map(|a| match a {
            HybridAction::Broadcast(HybridMessage::Prepare(p)) => Some(p.clone()),
            _ => None,
        }).unwrap();
        assert_eq!(p_a.ui.counter, p_b.ui.counter);
        assert_ne!(p_a.batch_digest(), p_b.batch_digest());

        // r1 sees batch A, r2 sees batch B; both execute immediately
        // (own commit + primary's prepare = f+1 = 2).
        r1.on_message(HybridMessage::Prepare(p_a)).unwrap();
        r2.on_message(HybridMessage::Prepare(p_b)).unwrap();
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
        let actions = replicas[0].on_client_batch(vec![request(0, 1)]);
        let prepare = actions.iter().find_map(|a| match a {
            HybridAction::Broadcast(m) => Some(m.clone()),
            _ => None,
        }).unwrap();

        // Deliver the prepare to one backup only: primary+r1 = 2 < 3.
        let HybridMessage::Prepare(_) = &prepare else { panic!() };
        let acts = replicas[1].on_message(prepare.clone()).unwrap();
        assert_eq!(replicas[1].last_executed(), 0, "2 of 3 commits is not enough");

        // Deliver r1's commit to nobody; give the prepare to r2: now r2
        // has primary+own = 2 < 3 as well.
        let _ = acts;
        replicas[2].on_message(prepare).unwrap();
        assert_eq!(replicas[2].last_executed(), 0);
    }
}
