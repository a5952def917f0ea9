//! End-to-end tests of the PBFT replica over a deterministic in-memory
//! message pump: normal operation, batching, checkpoint garbage
//! collection, state transfer, view changes (crash + byzantine primary),
//! and the safety of equivocation handling.

use bytes::Bytes;
use splitbft_app::{Application, CounterApp, KeyValueStore, KvOp};
use splitbft_pbft::{make_request, Action, ClientEvent, LockstepClient, Replica, Status};
use splitbft_crypto::KeyPair;
use splitbft_types::wire::{encode, frame_message, MAX_FRAME_LEN};
use splitbft_types::{
    Checkpoint, CheckpointCertificate, ClientId, ClusterConfig, ConsensusMessage,
    DurableCheckpoint, ReplicaId, Reply, Request, SeqNum, SignerId, Timestamp, View,
};
use std::collections::VecDeque;

const SEED: u64 = 1234;

/// A deterministic cluster harness: delivers messages in FIFO order,
/// optionally dropping everything to/from "down" replicas.
struct Cluster<A> {
    replicas: Vec<Replica<A>>,
    queues: Vec<VecDeque<ConsensusMessage>>,
    replies: Vec<Reply>,
    down: Vec<bool>,
    /// Replicas whose inbound queue fills but is not processed.
    held: Vec<bool>,
    /// Framed size of every `ViewChange` and `NewView` broadcast so far.
    view_change_frames: Vec<usize>,
}

impl<A: Application> Cluster<A> {
    fn new(n: usize, interval: u64, mk: impl Fn() -> A) -> Self {
        let cfg = ClusterConfig::new(n).unwrap().with_checkpoint_interval(interval);
        let replicas = (0..n as u32)
            .map(|i| Replica::new(cfg.clone(), ReplicaId(i), SEED, mk()))
            .collect();
        Cluster {
            replicas,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            replies: Vec::new(),
            down: vec![false; n],
            held: vec![false; n],
            view_change_frames: Vec::new(),
        }
    }

    fn n(&self) -> usize {
        self.replicas.len()
    }

    fn handle_actions(&mut self, from: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Broadcast { msg } => {
                    if matches!(msg, ConsensusMessage::ViewChange(_) | ConsensusMessage::NewView(_))
                    {
                        self.view_change_frames.push(frame_message(0, &msg).len());
                    }
                    for to in 0..self.n() {
                        if to != from && !self.down[to] {
                            self.queues[to].push_back(msg.clone());
                        }
                    }
                }
                Action::Send { to, msg } => {
                    if !self.down[to.as_usize()] {
                        self.queues[to.as_usize()].push_back(msg);
                    }
                }
                Action::SendReply { reply, .. } => self.replies.push(reply),
                _ => {}
            }
        }
    }

    /// Runs the message pump until no replica has pending input.
    fn run(&mut self) {
        loop {
            let mut progressed = false;
            for i in 0..self.n() {
                if self.down[i] {
                    self.queues[i].clear();
                    continue;
                }
                if self.held[i] {
                    continue;
                }
                while let Some(msg) = self.queues[i].pop_front() {
                    progressed = true;
                    let actions = self.replicas[i].on_message(msg).unwrap_or_default();
                    self.handle_actions(i, actions);
                }
            }
            if !progressed {
                break;
            }
        }
    }

    fn submit(&mut self, primary: usize, requests: Vec<Request>) {
        let actions = self.replicas[primary].on_client_batch(requests);
        self.handle_actions(primary, actions);
        self.run();
    }

    fn timeout_all_up(&mut self) {
        for i in 0..self.n() {
            if !self.down[i] {
                let actions = self.replicas[i].on_view_timeout();
                self.handle_actions(i, actions);
            }
        }
        self.run();
    }
}

fn request(client: u32, ts: u64, op: Bytes) -> Request {
    make_request(SEED, ClientId(client), Timestamp(ts), op)
}

#[test]
fn single_request_executes_on_all_replicas() {
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    cluster.submit(0, vec![request(0, 1, Bytes::from_static(b"inc"))]);

    for r in &cluster.replicas {
        assert_eq!(r.last_executed(), SeqNum(1), "replica {} lags", r.id());
        assert_eq!(r.app().value(), 1);
    }
    // One reply from each of the four replicas.
    assert_eq!(cluster.replies.len(), 4);
    assert!(cluster.replies.iter().all(|r| r.result == Bytes::copy_from_slice(&1u64.to_le_bytes())));
}

#[test]
fn client_collects_reply_quorum() {
    let cfg = ClusterConfig::new(4).unwrap();
    let mut cluster = Cluster::new(4, 128, KeyValueStore::new);
    let mut client = LockstepClient::new(cfg.reply_quorum(), ClientId(3), SEED);
    let req = client.issue(KvOp::put(b"k", b"v").encode_op());
    cluster.submit(0, vec![req]);

    let mut completed = None;
    for reply in &cluster.replies {
        if let ClientEvent::Completed(result) = client.on_reply(reply) {
            completed = Some(result);
            break;
        }
    }
    // PUT returns the previous value: empty.
    assert_eq!(completed, Some(Bytes::new()));
}

#[test]
fn sequence_of_requests_stays_consistent() {
    let mut cluster = Cluster::new(4, 128, KeyValueStore::new);
    for i in 0..20u64 {
        let op = KvOp::put(format!("key{}", i % 4).as_bytes(), &i.to_le_bytes()).encode_op();
        cluster.submit(0, vec![request(0, i + 1, op)]);
    }
    let digest = cluster.replicas[0].state_digest();
    for r in &cluster.replicas {
        assert_eq!(r.last_executed(), SeqNum(20));
        assert_eq!(r.state_digest(), digest, "state divergence at {}", r.id());
    }
}

#[test]
fn duplicate_request_resends_cached_reply_without_reexecution() {
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    let req = request(0, 1, Bytes::from_static(b"inc"));
    cluster.submit(0, vec![req.clone()]);
    assert_eq!(cluster.replicas[0].app().value(), 1);
    let replies_before = cluster.replies.len();

    // Re-submission with the same timestamp: cached reply, no state change.
    cluster.submit(0, vec![req]);
    assert_eq!(cluster.replicas[0].app().value(), 1);
    assert_eq!(cluster.replicas[0].last_executed(), SeqNum(1));
    assert!(cluster.replies.len() > replies_before, "cached reply resent");
}

#[test]
fn forged_request_rejected_by_primary() {
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    let mut req = request(0, 1, Bytes::from_static(b"inc"));
    req.auth = [0u8; 32];
    cluster.submit(0, vec![req]);
    for r in &cluster.replicas {
        assert_eq!(r.last_executed(), SeqNum(0));
        assert_eq!(r.app().value(), 0);
    }
}

#[test]
fn checkpoints_advance_watermark_and_gc() {
    let mut cluster = Cluster::new(4, 4, CounterApp::new);
    for i in 0..9u64 {
        cluster.submit(0, vec![request(0, i + 1, Bytes::from_static(b"inc"))]);
    }
    for r in &cluster.replicas {
        assert_eq!(r.last_executed(), SeqNum(9));
        // Two checkpoints (at 4 and 8) should have stabilized.
        assert_eq!(r.stable_seq(), SeqNum(8), "stable at {}", r.id());
    }
}

/// Replica 3 misses twelve slots behind a partition; the others stabilize
/// checkpoints at 4, 8 and 12. Returns the healed cluster.
fn cluster_with_replica_3_behind() -> Cluster<CounterApp> {
    let mut cluster = Cluster::new(4, 4, CounterApp::new);
    // The other three keep the protocol live (n=4 tolerates one fault).
    cluster.down[3] = true;
    for i in 0..8u64 {
        cluster.submit(0, vec![request(0, i + 1, Bytes::from_static(b"inc"))]);
    }
    assert_eq!(cluster.replicas[3].last_executed(), SeqNum(0));
    // Partition heals; replica 3 sees the next checkpoint's votes.
    cluster.down[3] = false;
    for i in 8..12u64 {
        cluster.submit(0, vec![request(0, i + 1, Bytes::from_static(b"inc"))]);
    }
    cluster
}

#[test]
fn lagging_replica_catches_up_via_state_transfer() {
    let mut cluster = cluster_with_replica_3_behind();
    // The votes carry a digest, not the state: replica 3 knows the
    // checkpoint at 12 is stable and that it is behind it, no more.
    let r3 = &cluster.replicas[3];
    assert_eq!(r3.stable_seq(), SeqNum(12));
    assert_eq!(r3.last_executed(), SeqNum(0));
    assert!(r3.durable_checkpoint().is_none(), "no snapshot of a state it never reached");

    // What the state-transfer client does with a peer's answer.
    let cp = cluster.replicas[0].durable_checkpoint().expect("replica 0 is at its stable point");
    cluster.replicas[3].restore_durable_checkpoint(&cp).expect("a peer's checkpoint restores");
    let r3 = &cluster.replicas[3];
    assert_eq!(r3.last_executed(), SeqNum(12));
    assert_eq!(r3.app().value(), 12, "state transfer restored the counter");
    assert_eq!(r3.state_digest(), cluster.replicas[0].state_digest());
    assert_eq!(r3.durable_checkpoint().map(|cp| cp.digest), Some(cp.digest), "and serves it on");

    // Level again: it executes live traffic with everyone else.
    cluster.submit(0, vec![request(0, 13, Bytes::from_static(b"inc"))]);
    assert_eq!(cluster.replicas[3].app().value(), 13);
}

#[test]
fn a_checkpoint_in_the_older_layout_still_restores() {
    let mut cluster = cluster_with_replica_3_behind();
    let cp = cluster.replicas[0].durable_checkpoint().unwrap();
    let (cert, snapshot) = splitbft_pbft::checkpoint::split_durable_checkpoint(&cp).unwrap();
    assert!(cert.checkpoints.iter().all(|vote| vote.payload.snapshot.is_empty()));

    // The layout before votes went by digest: the certificate alone,
    // each vote signed over its own embedded copy of the snapshot.
    let v1 = CheckpointCertificate {
        checkpoints: (0..3u32)
            .map(|r| {
                let signer = SignerId::Replica(ReplicaId(r));
                let vote = Checkpoint {
                    seq: cp.seq,
                    state_digest: cp.digest,
                    replica: ReplicaId(r),
                    snapshot: Bytes::copy_from_slice(snapshot),
                };
                KeyPair::for_signer(SEED, signer).sign_payload(vote, signer)
            })
            .collect(),
    };
    let v1 = DurableCheckpoint { seq: cp.seq, digest: cp.digest, state: encode(&v1).into() };
    assert!(v1.state.len() > 3 * snapshot.len());

    cluster.replicas[3].restore_durable_checkpoint(&v1).expect("the older layout restores");
    assert_eq!(cluster.replicas[3].app().value(), 12);
    assert_eq!(cluster.replicas[3].state_digest(), cluster.replicas[0].state_digest());
}

#[test]
fn a_snapshot_installs_only_under_the_replicas_own_stable_certificate() {
    let mut cluster = cluster_with_replica_3_behind();
    let cp = cluster.replicas[0].durable_checkpoint().unwrap();
    let (cert, snapshot) = splitbft_pbft::checkpoint::split_durable_checkpoint(&cp).unwrap();
    let with_snapshot = |snapshot: &[u8]| {
        let mut state = encode(&cert);
        state.extend_from_slice(snapshot);
        DurableCheckpoint { seq: cp.seq, digest: cp.digest, state: state.into() }
    };
    let untouched = cluster.replicas[3].state_digest();

    let mut wrong = snapshot.to_vec();
    *wrong.last_mut().unwrap() ^= 1;
    let truncated = &snapshot[..snapshot.len() - 1];
    // A certificate for a state nobody certified: forged digest, or a
    // claim that does not match what the votes say.
    let mut relabelled = cp.clone();
    relabelled.seq = SeqNum(8);
    for bad in [with_snapshot(&wrong), with_snapshot(truncated), relabelled] {
        assert!(cluster.replicas[3].restore_durable_checkpoint(&bad).is_err());
        assert_eq!(cluster.replicas[3].last_executed(), SeqNum(0));
        assert_eq!(cluster.replicas[3].state_digest(), untouched);
    }

    // The genuine one lands; offered again, it is not ahead any more and
    // changes nothing.
    cluster.replicas[3].restore_durable_checkpoint(&cp).unwrap();
    cluster.submit(0, vec![request(0, 13, Bytes::from_static(b"inc"))]);
    let level = cluster.replicas[3].state_digest();
    cluster.replicas[3].restore_durable_checkpoint(&cp).expect("a no-op, not an error");
    assert_eq!(cluster.replicas[3].state_digest(), level);
    assert_eq!(cluster.replicas[3].last_executed(), SeqNum(13));
}

#[test]
fn catch_up_suffix_alone_brings_a_lagging_replica_to_the_frontier() {
    // A checkpoint interval the run never reaches: only the log suffix
    // can help replica 3. More slots than one catch-up chunk: a
    // requester reporting no progress must still get all of them.
    const SLOTS: u64 = splitbft_pbft::CATCH_UP_CHUNK_SLOTS as u64 + 6;
    let mut cluster = Cluster::new(4, 100, CounterApp::new);
    cluster.down[3] = true;
    for i in 0..SLOTS {
        cluster.submit(0, vec![request(0, i + 1, Bytes::from_static(b"inc"))]);
    }

    // Replica 3 sees nothing but what one peer's state response carries
    // (an idle cluster sends it no live traffic to fill in votes).
    for msg in cluster.replicas[0].catch_up_messages(SeqNum(0)) {
        let _ = cluster.replicas[3].on_message(msg);
    }
    assert_eq!(cluster.replicas[3].last_executed(), SeqNum(SLOTS));
    assert_eq!(cluster.replicas[3].app().value(), SLOTS);

    // A requester that does report progress pages in chunks.
    let page = cluster.replicas[0].catch_up_messages(SeqNum(1));
    let proposals =
        page.iter().filter(|m| matches!(m, ConsensusMessage::PrePrepare(_))).count();
    assert_eq!(proposals, splitbft_pbft::CATCH_UP_CHUNK_SLOTS);
}

#[test]
fn view_change_elects_next_primary_after_crash() {
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    cluster.submit(0, vec![request(0, 1, Bytes::from_static(b"inc"))]);

    // Primary r0 crashes.
    cluster.down[0] = true;
    cluster.timeout_all_up();

    for i in 1..4 {
        let r = &cluster.replicas[i];
        assert_eq!(r.view(), View(1), "replica {i} entered view 1");
        assert_eq!(r.status(), Status::Normal, "replica {i} back to normal");
    }

    // The new primary (r1) orders new requests.
    cluster.submit(1, vec![request(0, 2, Bytes::from_static(b"inc"))]);
    for i in 1..4 {
        assert_eq!(cluster.replicas[i].app().value(), 2, "replica {i} executed");
    }
}

#[test]
fn a_replica_a_few_slots_behind_a_stable_checkpoint_executes_its_way_level() {
    let mut cluster = Cluster::new(4, 4, CounterApp::new);
    for i in 0..3u64 {
        cluster.submit(0, vec![request(0, i + 1, Bytes::from_static(b"inc"))]);
    }
    // Replica 3's link delivers the checkpoint votes for slot 4 ahead of
    // the slot's own messages.
    cluster.held[3] = true;
    cluster.submit(0, vec![request(0, 4, Bytes::from_static(b"inc"))]);
    let is_vote = |msg: &ConsensusMessage| matches!(msg, ConsensusMessage::Checkpoint(_));
    let (votes, slot): (Vec<_>, Vec<_>) = cluster.queues[3].drain(..).partition(is_vote);
    assert_eq!(votes.len(), 3);
    cluster.queues[3].extend(votes);
    cluster.held[3] = false;
    cluster.run();
    assert_eq!(cluster.replicas[3].stable_seq(), SeqNum(4));
    assert_eq!(cluster.replicas[3].last_executed(), SeqNum(3), "behind, and nothing to restore");

    // The slot is still admissible and nothing it needs was collected:
    // no transfer, it just executes.
    cluster.queues[3].extend(slot);
    cluster.run();
    assert_eq!(cluster.replicas[3].last_executed(), SeqNum(4));
    assert_eq!(cluster.replicas[3].state_digest(), cluster.replicas[0].state_digest());
    assert!(cluster.replicas[3].durable_checkpoint().is_some(), "it holds the snapshot it took");
    cluster.submit(0, vec![request(0, 5, Bytes::from_static(b"inc"))]);
    assert_eq!(cluster.replicas[3].app().value(), 5);
}

/// The framed `ViewChange`s and `NewView` of a view change that follows
/// one stable checkpoint of a store holding `state_bytes`.
fn view_change_frames_over_a_state_of(state_bytes: usize) -> Vec<usize> {
    let mut cluster = Cluster::new(4, 4, || {
        let mut kvs = KeyValueStore::new();
        kvs.execute(&KvOp::put(b"ballast", &vec![0xAB; state_bytes]).encode_op());
        kvs
    });
    for i in 0..4u64 {
        cluster.submit(0, vec![request(0, i + 1, KvOp::put(b"k", b"v").encode_op())]);
    }
    assert!(cluster.replicas.iter().all(|r| r.stable_seq() == SeqNum(4)));
    cluster.down[0] = true;
    cluster.timeout_all_up();
    assert!(cluster.replicas[1..].iter().all(|r| r.view() == View(1)));
    cluster.submit(1, vec![request(0, 5, KvOp::put(b"k", b"w").encode_op())]);
    assert!(cluster.replicas[1..].iter().all(|r| r.last_executed() == SeqNum(5)));
    cluster.view_change_frames
}

#[test]
fn view_change_messages_do_not_grow_with_the_state() {
    // Three votes and one NewView, each carrying stable-checkpoint
    // certificates: by digest, so a thousand times the state is not one
    // byte more on the wire (each vote used to embed the snapshot, and
    // nine of them put this NewView past MAX_FRAME_LEN).
    let small = view_change_frames_over_a_state_of(4 << 10);
    let large = view_change_frames_over_a_state_of(4 << 20);
    assert_eq!(small.len(), 4);
    assert_eq!(small, large);
    assert!(large.iter().all(|len| *len < MAX_FRAME_LEN as usize / 1000));
}

#[test]
fn prepared_request_survives_view_change() {
    let mut cluster = Cluster::new(4, 128, CounterApp::new);

    // The primary proposes, prepares happen, but we cut commits off by
    // downing the primary after the proposal fully propagates prepares:
    // deliver the pre-prepare + prepares but then crash r0 before anyone
    // can finish. Simplest deterministic approximation: run the full
    // round but only to the point where prepares are exchanged. We do it
    // by submitting while replica 0 processes, then manually timing out.
    let actions = cluster.replicas[0].on_client_batch(vec![request(
        0,
        1,
        Bytes::from_static(b"inc"),
    )]);
    cluster.handle_actions(0, actions);
    // Deliver only to backups 1..3 and let them exchange prepares among
    // themselves but not commits back to a living primary.
    cluster.down[0] = true;
    cluster.run();

    // Execution may or may not have completed on backups depending on
    // commit exchange; either way, a view change must preserve the value.
    cluster.timeout_all_up();
    cluster.run();

    // After the view change the new primary re-issued the prepared
    // request (or it already executed); order more work and check the
    // counter reflects both.
    cluster.submit(1, vec![request(0, 2, Bytes::from_static(b"inc"))]);
    for i in 1..4 {
        assert_eq!(
            cluster.replicas[i].app().value(),
            2,
            "replica {i}: first request lost across view change"
        );
        assert_eq!(cluster.replicas[i].view(), View(1));
    }
}

#[test]
fn cascading_timeouts_reach_view_two() {
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    // r0 and r1 both down: view 1 (primary r1) cannot form either; the
    // remaining two replicas escalate to view 2, but with only 2
    // correct replicas there is no quorum — they stay in view change.
    // Escalation is *damped*: after voting a view, a replica spends two
    // timeouts re-broadcasting that vote (so stragglers can converge on
    // it) before targeting the next view, so reaching view 2 takes four
    // timeout rounds, not two.
    cluster.down[0] = true;
    cluster.down[1] = true;
    for _ in 0..4 {
        cluster.timeout_all_up();
    }
    for i in 2..4 {
        let r = &cluster.replicas[i];
        assert!(r.view() >= View(2), "replica {i} escalated");
        assert_eq!(r.status(), Status::InViewChange);
    }
}

#[test]
fn equivocating_primary_cannot_split_the_cluster() {
    // A byzantine primary sends different batches to different backups.
    // We simulate by constructing two conflicting client batches and
    // delivering the resulting PrePrepares selectively.
    let mut cluster = Cluster::new(4, 128, CounterApp::new);

    let a1 = cluster.replicas[0].on_client_batch(vec![request(0, 1, Bytes::from_static(b"inc"))]);
    let pp1 = a1.iter().find_map(Action::message).cloned().expect("pre-prepare");

    // Reset replica 0 by building a second, different proposal at the
    // same sequence from a fresh twin (same keys — byzantine behaviour).
    let cfg = ClusterConfig::new(4).unwrap();
    let mut twin = Replica::new(cfg, ReplicaId(0), SEED, CounterApp::new());
    let a2 = twin.on_client_batch(vec![request(1, 1, Bytes::from_static(b"inc"))]);
    let pp2 = a2.iter().find_map(Action::message).cloned().expect("pre-prepare");

    // r1 gets proposal A; r2 and r3 get proposal B.
    cluster.queues[1].push_back(pp1);
    cluster.queues[2].push_back(pp2.clone());
    cluster.queues[3].push_back(pp2);
    cluster.run();

    // No slot may execute two different batches: r1 prepared A but can
    // never gather 2f matching prepares (r2/r3 prepared B), so r1 must
    // not execute. r2/r3 can commit B only with primary+r2+r3 commits.
    let digests: Vec<_> = (1..4)
        .filter(|&i| cluster.replicas[i].last_executed() == SeqNum(1))
        .map(|i| cluster.replicas[i].state_digest())
        .collect();
    for w in digests.windows(2) {
        assert_eq!(w[0], w[1], "executed replicas diverged: safety violation");
    }
}

#[test]
fn batch_of_many_requests_executes_in_order() {
    let mut cluster = Cluster::new(4, 128, KeyValueStore::new);
    let requests: Vec<Request> = (0..50u64)
        .map(|i| {
            request(
                i as u32 % 7,
                i / 7 + 1,
                KvOp::put(format!("k{i}").as_bytes(), b"v").encode_op(),
            )
        })
        .collect();
    cluster.submit(0, requests);
    for r in &cluster.replicas {
        assert_eq!(r.last_executed(), SeqNum(1), "one batch, one slot");
        assert_eq!(r.app().len(), 50);
    }
}
