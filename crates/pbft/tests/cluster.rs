//! End-to-end tests of the PBFT replica hosted in the deterministic
//! in-memory cluster (`splitbft_net::lockstep`): normal operation,
//! batching, checkpoint garbage collection, state transfer, view changes
//! (crash + byzantine primary), and the safety of equivocation handling.

mod shared;

use bytes::Bytes;
use shared::{heal, isolate, replicas, time_out, Stack};
use splitbft_app::{Application, Client, ClientEvent, CounterApp, KeyValueStore, KvOp};
use splitbft_crypto::KeyPair;
use splitbft_net::lockstep::Cluster;
use splitbft_net::transport::{Protocol, ProtocolOutput};
use splitbft_pbft::{make_request, Replica, Status};
use splitbft_types::wire::encode;
use splitbft_types::{
    Checkpoint, CheckpointCertificate, ClientId, ClusterConfig, ConsensusMessage,
    DurableCheckpoint, ReplicaId, Request, SeqNum, SignerId, Timestamp, View,
};

const SEED: u64 = 1234;

fn stack<A: Application + 'static>() -> Stack<A, Replica<A>> {
    Stack {
        replica: |config, id, app| Replica::new(config, id, SEED, app),
        request: |ts, op| request(0, ts, op),
        app: Replica::app,
        in_view_one: |r| r.view() == View(1),
    }
}

/// An `n`-replica cluster checkpointing every `interval` slots.
fn cluster<A: Application + 'static>(
    n: usize,
    interval: u64,
    app: impl Fn() -> A,
) -> Cluster<Replica<A>> {
    stack().cluster(n, interval, app)
}

fn request(client: u32, ts: u64, op: Bytes) -> Request {
    make_request(SEED, ClientId(client), Timestamp(ts), op)
}

fn inc(ts: u64) -> Request {
    request(0, ts, Bytes::from_static(b"inc"))
}

#[test]
fn single_request_executes_on_all_replicas() {
    let mut cluster = cluster(4, 128, CounterApp::new);
    cluster.submit(0, &[inc(1)]);

    for r in replicas(&cluster) {
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
    let mut cluster = cluster(4, 128, KeyValueStore::new);
    let mut client = Client::new(cfg.reply_quorum(), ClientId(3), SEED);
    let req = client.issue(KvOp::put(b"k", b"v").encode_op());
    cluster.submit(0, &[req]);

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
    let mut cluster = cluster(4, 128, KeyValueStore::new);
    for i in 0..20u64 {
        let op = KvOp::put(format!("key{}", i % 4).as_bytes(), &i.to_le_bytes()).encode_op();
        cluster.submit(0, &[request(0, i + 1, op)]);
    }
    let digest = cluster.replica(0).state_digest();
    for r in replicas(&cluster) {
        assert_eq!(r.last_executed(), SeqNum(20));
        assert_eq!(r.state_digest(), digest, "state divergence at {}", r.id());
    }
}

#[test]
fn duplicate_request_resends_cached_reply_without_reexecution() {
    let mut cluster = cluster(4, 128, CounterApp::new);
    cluster.submit(0, &[inc(1)]);
    assert_eq!(cluster.replica(0).app().value(), 1);
    let replies_before = cluster.replies.len();

    // Re-submission with the same timestamp: cached reply, no state change.
    cluster.submit(0, &[inc(1)]);
    assert_eq!(cluster.replica(0).app().value(), 1);
    assert_eq!(cluster.replica(0).last_executed(), SeqNum(1));
    assert!(cluster.replies.len() > replies_before, "cached reply resent");
}

#[test]
fn forged_request_rejected_by_primary() {
    let mut cluster = cluster(4, 128, CounterApp::new);
    let mut req = inc(1);
    req.auth = [0u8; 32];
    cluster.submit(0, &[req]);
    for r in replicas(&cluster) {
        assert_eq!(r.last_executed(), SeqNum(0));
        assert_eq!(r.app().value(), 0);
    }
}

#[test]
fn checkpoints_advance_watermark_and_gc() {
    let mut cluster = cluster(4, 4, CounterApp::new);
    for ts in 1..=9 {
        cluster.submit(0, &[inc(ts)]);
    }
    for r in replicas(&cluster) {
        assert_eq!(r.last_executed(), SeqNum(9));
        // Two checkpoints (at 4 and 8) should have stabilized.
        assert_eq!(r.stable_seq(), SeqNum(8), "stable at {}", r.id());
    }
}

/// Replica 3 misses twelve slots behind a partition; the others stabilize
/// checkpoints at 4, 8 and 12. Returns the healed cluster.
fn cluster_with_replica_3_behind() -> Cluster<Replica<CounterApp>> {
    let mut cluster = cluster(4, 4, CounterApp::new);
    // The other three keep the protocol live (n=4 tolerates one fault).
    isolate(&mut cluster, 3);
    for ts in 1..=8 {
        cluster.submit(0, &[inc(ts)]);
    }
    assert_eq!(cluster.replica(3).last_executed(), SeqNum(0));
    // Partition heals; replica 3 sees the next checkpoint's votes.
    heal(&mut cluster);
    for ts in 9..=12 {
        cluster.submit(0, &[inc(ts)]);
    }
    cluster
}

#[test]
fn lagging_replica_catches_up_via_state_transfer() {
    let mut cluster = cluster_with_replica_3_behind();
    // The votes carry a digest, not the state: replica 3 knows the
    // checkpoint at 12 is stable and that it is behind it, no more.
    let r3 = cluster.replica(3);
    assert_eq!(r3.stable_seq(), SeqNum(12));
    assert_eq!(r3.last_executed(), SeqNum(0));
    assert!(r3.durable_checkpoint().is_none(), "no snapshot of a state it never reached");

    // What the state-transfer client does with a peer's answer.
    let cp = cluster.replica(0).durable_checkpoint().expect("replica 0 is at its stable point");
    cluster.replica_mut(3).restore_checkpoint(&cp).expect("a peer's checkpoint restores");
    let r3 = cluster.replica(3);
    assert_eq!(r3.last_executed(), SeqNum(12));
    assert_eq!(r3.app().value(), 12, "state transfer restored the counter");
    assert_eq!(r3.state_digest(), cluster.replica(0).state_digest());
    assert_eq!(r3.durable_checkpoint().map(|cp| cp.digest), Some(cp.digest), "and serves it on");

    // Level again: it executes live traffic with everyone else.
    cluster.submit(0, &[inc(13)]);
    assert_eq!(cluster.replica(3).app().value(), 13);
}

#[test]
fn a_checkpoint_in_the_older_layout_still_restores() {
    let mut cluster = cluster_with_replica_3_behind();
    let cp = cluster.replica(0).durable_checkpoint().unwrap();
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

    cluster.replica_mut(3).restore_checkpoint(&v1).expect("the older layout restores");
    assert_eq!(cluster.replica(3).app().value(), 12);
    assert_eq!(cluster.replica(3).state_digest(), cluster.replica(0).state_digest());
}

#[test]
fn a_snapshot_installs_only_under_the_replicas_own_stable_certificate() {
    let mut cluster = cluster_with_replica_3_behind();
    let cp = cluster.replica(0).durable_checkpoint().unwrap();
    let (cert, snapshot) = splitbft_pbft::checkpoint::split_durable_checkpoint(&cp).unwrap();
    let with_snapshot = |snapshot: &[u8]| {
        let mut state = encode(&cert);
        state.extend_from_slice(snapshot);
        DurableCheckpoint { seq: cp.seq, digest: cp.digest, state: state.into() }
    };
    let untouched = cluster.replica(3).state_digest();

    let mut wrong = snapshot.to_vec();
    *wrong.last_mut().unwrap() ^= 1;
    let truncated = &snapshot[..snapshot.len() - 1];
    // A certificate for a state nobody certified: forged digest, or a
    // claim that does not match what the votes say.
    let mut relabelled = cp.clone();
    relabelled.seq = SeqNum(8);
    for bad in [with_snapshot(&wrong), with_snapshot(truncated), relabelled] {
        assert!(cluster.replica_mut(3).restore_checkpoint(&bad).is_err());
        assert_eq!(cluster.replica(3).last_executed(), SeqNum(0));
        assert_eq!(cluster.replica(3).state_digest(), untouched);
    }

    // The genuine one lands; offered again, it is not ahead any more and
    // changes nothing.
    cluster.replica_mut(3).restore_checkpoint(&cp).unwrap();
    cluster.submit(0, &[inc(13)]);
    let level = cluster.replica(3).state_digest();
    cluster.replica_mut(3).restore_checkpoint(&cp).expect("a no-op, not an error");
    assert_eq!(cluster.replica(3).state_digest(), level);
    assert_eq!(cluster.replica(3).last_executed(), SeqNum(13));
}

#[test]
fn catch_up_suffix_alone_brings_a_lagging_replica_to_the_frontier() {
    // A checkpoint interval the run never reaches: only the log suffix
    // can help replica 3. More slots than one catch-up chunk: a
    // requester reporting no progress must still get all of them.
    const SLOTS: u64 = splitbft_pbft::CATCH_UP_CHUNK_SLOTS as u64 + 6;
    let mut cluster = cluster(4, 100, CounterApp::new);
    cluster.crash(3);
    for ts in 1..=SLOTS {
        cluster.submit(0, &[inc(ts)]);
    }

    // Replica 3 sees nothing but what one peer's state response carries
    // (an idle cluster sends it no live traffic to fill in votes).
    for msg in cluster.replica(0).catch_up_messages(SeqNum(0)) {
        let _ = cluster.replica_mut(3).on_message(msg);
    }
    assert_eq!(cluster.replica(3).last_executed(), SeqNum(SLOTS));
    assert_eq!(cluster.replica(3).app().value(), SLOTS);

    // A requester that does report progress pages in chunks.
    let page = cluster.replica(0).catch_up_messages(SeqNum(1));
    let proposals = page
        .iter()
        .filter(|m| matches!(m, ConsensusMessage::PrePrepare(_)))
        .count();
    assert_eq!(proposals, splitbft_pbft::CATCH_UP_CHUNK_SLOTS);
}

#[test]
fn view_change_elects_next_primary_after_crash() {
    let mut cluster = cluster(4, 128, CounterApp::new);
    cluster.submit(0, &[inc(1)]);

    // Primary r0 crashes.
    cluster.crash(0);
    time_out(&mut cluster, 1..4);

    for i in 1..4 {
        let r = cluster.replica(i);
        assert_eq!(r.view(), View(1), "replica {i} entered view 1");
        assert_eq!(r.status(), Status::Normal, "replica {i} back to normal");
    }

    // The new primary (r1) orders new requests.
    cluster.submit(1, &[inc(2)]);
    for i in 1..4 {
        assert_eq!(cluster.replica(i).app().value(), 2, "replica {i} executed");
    }
}

#[test]
fn a_replica_a_few_slots_behind_a_stable_checkpoint_executes_its_way_level() {
    shared::a_replica_a_few_slots_behind_a_stable_checkpoint_executes_its_way_level(&stack());
}

#[test]
fn view_change_messages_do_not_grow_with_the_state() {
    shared::view_change_messages_do_not_grow_with_the_state(&stack());
}

#[test]
fn prepared_request_survives_view_change() {
    let mut cluster = cluster(4, 128, CounterApp::new);

    // The primary proposes and then crashes before anything reaches it
    // back: the backups exchange prepares (and commits) among themselves
    // but not with a living primary.
    cluster.drive(0, |r| r.on_client_requests(vec![inc(1)]));
    cluster.crash(0);
    cluster.run();

    // Execution may or may not have completed on backups depending on
    // commit exchange; either way, a view change must preserve the value.
    time_out(&mut cluster, 1..4);

    // After the view change the new primary re-issued the prepared
    // request (or it already executed); order more work and check the
    // counter reflects both.
    cluster.submit(1, &[inc(2)]);
    for i in 1..4 {
        assert_eq!(
            cluster.replica(i).app().value(),
            2,
            "replica {i}: first request lost across view change"
        );
        assert_eq!(cluster.replica(i).view(), View(1));
    }
}

#[test]
fn cascading_timeouts_reach_view_two() {
    let mut cluster = cluster(4, 128, CounterApp::new);
    // r0 and r1 both down: view 1 (primary r1) cannot form either; the
    // remaining two replicas escalate to view 2, but with only 2
    // correct replicas there is no quorum — they stay in view change.
    // Escalation is *damped*: after voting a view, a replica spends two
    // timeouts re-broadcasting that vote (so stragglers can converge on
    // it) before targeting the next view, so reaching view 2 takes four
    // timeout rounds, not two.
    cluster.crash(0);
    cluster.crash(1);
    for _ in 0..4 {
        time_out(&mut cluster, 2..4);
    }
    for i in 2..4 {
        let r = cluster.replica(i);
        assert!(r.view() >= View(2), "replica {i} escalated");
        assert_eq!(r.status(), Status::InViewChange);
    }
}

/// The message a primary broadcast for a client batch.
fn proposal_in(outputs: Vec<ProtocolOutput<ConsensusMessage>>) -> ConsensusMessage {
    outputs
        .into_iter()
        .find_map(|o| match o {
            ProtocolOutput::Broadcast(msg) => Some(msg),
            _ => None,
        })
        .expect("pre-prepare")
}

#[test]
fn equivocating_primary_cannot_split_the_cluster() {
    // A byzantine primary sends different batches to different backups.
    // We simulate by constructing two conflicting client batches and
    // delivering the resulting PrePrepares selectively.
    let mut cluster = cluster(4, 128, CounterApp::new);

    let pp1 = proposal_in(cluster.replica_mut(0).on_client_requests(vec![inc(1)]));

    // Reset replica 0 by building a second, different proposal at the
    // same sequence from a fresh twin (same keys — byzantine behaviour).
    let cfg = ClusterConfig::new(4).unwrap();
    let mut twin = Replica::new(cfg, ReplicaId(0), SEED, CounterApp::new());
    let pp2 = proposal_in(twin.on_client_requests(vec![request(1, 1, Bytes::from_static(b"inc"))]));

    // r1 gets proposal A; r2 and r3 get proposal B.
    cluster.drive(0, |_| {
        [(1, pp1), (2, pp2.clone()), (3, pp2)]
            .into_iter()
            .map(|(to, msg)| ProtocolOutput::Send { to: ReplicaId(to), msg })
            .collect()
    });
    cluster.run();

    // No slot may execute two different batches: r1 prepared A but can
    // never gather 2f matching prepares (r2/r3 prepared B), so r1 must
    // not execute. r2/r3 can commit B only with primary+r2+r3 commits.
    let digests: Vec<_> = (1..4)
        .filter(|&i| cluster.replica(i).last_executed() == SeqNum(1))
        .map(|i| cluster.replica(i).state_digest())
        .collect();
    for w in digests.windows(2) {
        assert_eq!(w[0], w[1], "executed replicas diverged: safety violation");
    }
}

#[test]
fn batch_of_many_requests_executes_in_order() {
    let mut cluster = cluster(4, 128, KeyValueStore::new);
    let requests: Vec<Request> = (0..50u64)
        .map(|i| {
            request(
                i as u32 % 7,
                i / 7 + 1,
                KvOp::put(format!("k{i}").as_bytes(), b"v").encode_op(),
            )
        })
        .collect();
    cluster.submit(0, &requests);
    for r in replicas(&cluster) {
        assert_eq!(r.last_executed(), SeqNum(1), "one batch, one slot");
        assert_eq!(r.app().len(), 50);
    }
}
