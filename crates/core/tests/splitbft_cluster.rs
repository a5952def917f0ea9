//! End-to-end tests of SplitBFT hosted in the deterministic in-memory
//! cluster (`splitbft_net::lockstep`): normal operation through all
//! three compartments, the confidential client path with attestation,
//! checkpointing, view changes, and — the point of the paper — safety
//! under faulty enclaves and hostile environments.

#[path = "../../pbft/tests/shared/mod.rs"]
mod shared;

use bytes::Bytes;
use shared::{heal, isolate, replicas, time_out, Stack};
use splitbft_app::{Application, CounterApp, KeyValueStore, KvOp};
use splitbft_core::ecall::ECALL_HANDLE;
use splitbft_core::{
    enclave_signer, ClientEvent, CompartmentInput, CompartmentOutput, EnclaveAdapter,
    ExecutionCompartment, ReplicaEvent, SplitBftClient, SplitBftReplica,
};
use splitbft_crypto::KeyPair;
use splitbft_net::lockstep::Cluster;
use splitbft_net::transport::{frame_kind, Protocol};
use splitbft_pbft::checkpoint::split_durable_checkpoint;
use splitbft_tee::attest::PlatformAuthority;
use splitbft_tee::enclave::{Enclave, OcallQueue};
use splitbft_tee::fault::{FaultKind, FaultPlan};
use splitbft_tee::{CostModel, ExecMode};
use splitbft_types::wire::{decode, encode};
use splitbft_types::{
    Checkpoint, CheckpointCertificate, ClientId, ClusterConfig, CompartmentKind, ConsensusMessage,
    DurableCheckpoint, ReplicaId, Request, SeqNum, View,
};
use std::cell::RefCell;
use std::rc::Rc;

const SEED: u64 = 2024;

fn stack<A: Application + 'static>() -> Stack<A, SplitBftReplica<A>> {
    Stack {
        replica: |config, id, app| {
            let (mode, cost) = (ExecMode::Hardware, CostModel::paper_calibrated());
            SplitBftReplica::new(config, id, SEED, app, mode, cost)
        },
        request: |ts, op| plain_request(0, ts, op),
        app: SplitBftReplica::app,
        in_view_one: |r| r.views() == (View(1), View(1), View(1)),
    }
}

/// An `n`-replica cluster checkpointing every `interval` slots.
fn cluster<A: Application + 'static>(
    n: usize,
    interval: u64,
    app: impl Fn() -> A,
) -> Cluster<SplitBftReplica<A>> {
    stack().cluster(n, interval, app)
}

fn plain_request(client: u32, ts: u64, op: Bytes) -> Request {
    splitbft_pbft::make_request(SEED, ClientId(client), splitbft_types::Timestamp(ts), op)
}

fn inc(ts: u64) -> Request {
    plain_request(0, ts, Bytes::from_static(b"inc"))
}

#[test]
fn plaintext_request_executes_on_all_replicas() {
    let mut cluster = cluster(4, 128, CounterApp::new);
    cluster.submit(0, &[inc(1)]);

    for r in replicas(&cluster) {
        assert_eq!(r.last_executed(), SeqNum(1), "replica {} executed", r.id());
        assert_eq!(r.app().value(), 1);
    }
    assert_eq!(cluster.replies.len(), 4);
}

#[test]
fn state_stays_consistent_across_many_requests() {
    let mut cluster = cluster(4, 128, KeyValueStore::new);
    for i in 0..25u64 {
        let op = KvOp::put(format!("k{}", i % 5).as_bytes(), &i.to_le_bytes()).encode_op();
        cluster.submit(0, &[plain_request(0, i + 1, op)]);
    }
    let digest = cluster.replica(0).state_digest();
    for r in replicas(&cluster) {
        assert_eq!(r.last_executed(), SeqNum(25));
        assert_eq!(r.state_digest(), digest, "divergence at {}", r.id());
    }
}

#[test]
fn confidential_client_roundtrip_with_attestation() {
    let mut cluster = cluster(4, 128, KeyValueStore::new);
    let authority = PlatformAuthority::from_seed(7);
    let cfg = ClusterConfig::new(4).unwrap();
    let mut client = SplitBftClient::new(cfg, ClientId(5), SEED, 99);

    // Attestation: verify each Execution enclave's quote, install the
    // session key.
    for i in 0..4 {
        let quote = cluster.replica_mut(i).attestation_quote(&authority);
        let (dh_pub, wrapped) = client
            .attest_execution_enclave(&authority.public_key(), &quote)
            .expect("genuine quote verifies");
        let events = cluster.replica_mut(i).install_session_key(ClientId(5), dh_pub, wrapped);
        assert!(
            !events.iter().any(|e| matches!(e, ReplicaEvent::Rejected { .. })),
            "session key install rejected: {events:?}"
        );
    }

    // Issue an encrypted PUT, then an encrypted GET.
    let put = client.issue(&KvOp::put(b"secret-key", b"secret-value").encode_op());
    assert!(put.encrypted);
    cluster.submit(0, &[put]);
    let mut done = false;
    let replies = std::mem::take(&mut cluster.replies);
    for reply in &replies {
        if let ClientEvent::Completed(result) = client.on_reply(reply) {
            assert_eq!(result, Bytes::new(), "PUT returns previous value (empty)");
            done = true;
            break;
        }
    }
    assert!(done, "PUT completed");

    let get = client.issue(&KvOp::get(b"secret-key").encode_op());
    cluster.submit(0, &[get]);
    let mut result = None;
    let replies = std::mem::take(&mut cluster.replies);
    for reply in &replies {
        if let ClientEvent::Completed(r) = client.on_reply(reply) {
            result = Some(r);
            break;
        }
    }
    assert_eq!(result, Some(Bytes::from_static(b"secret-value")));
}

#[test]
fn confidentiality_environment_never_sees_plaintext() {
    // Capture every byte that crosses the network and the broker: the
    // secret must never appear anywhere outside the enclaves.
    let mut cluster = cluster(4, 128, KeyValueStore::new);
    let authority = PlatformAuthority::from_seed(7);
    let cfg = ClusterConfig::new(4).unwrap();
    let mut client = SplitBftClient::new(cfg, ClientId(5), SEED, 99);
    for i in 0..4 {
        let quote = cluster.replica_mut(i).attestation_quote(&authority);
        let (dh_pub, wrapped) =
            client.attest_execution_enclave(&authority.public_key(), &quote).unwrap();
        cluster.replica_mut(i).install_session_key(ClientId(5), dh_pub, wrapped);
    }

    const SECRET: &[u8] = b"TOP-SECRET-PAYLOAD";
    let put = client.issue(&KvOp::put(b"k", SECRET).encode_op());

    // The request bytes on the wire do not contain the secret.
    let wire = splitbft_types::wire::encode(&put);
    assert!(!wire.windows(SECRET.len()).any(|w| w == SECRET));

    cluster.submit(0, &[put]);

    // Neither do any replies (they are encrypted too).
    for reply in &cluster.replies {
        let bytes = splitbft_types::wire::encode(reply);
        assert!(!bytes.windows(SECRET.len()).any(|w| w == SECRET));
    }
    // But the client can read its result.
    let replies = std::mem::take(&mut cluster.replies);
    let mut completed = false;
    for reply in &replies {
        if let ClientEvent::Completed(_) = client.on_reply(reply) {
            completed = true;
            break;
        }
    }
    assert!(completed);
}

#[test]
fn checkpoints_garbage_collect_all_compartments() {
    let mut cluster = cluster(4, 4, CounterApp::new);
    for i in 0..9u64 {
        cluster.submit(0, &[inc(i + 1)]);
    }
    for r in replicas(&cluster) {
        assert_eq!(r.last_executed(), SeqNum(9));
        assert_eq!(r.app().value(), 9);
    }
    // All three compartments should have seen the stable checkpoint at 8
    // (verified indirectly: further requests keep executing, and the
    // window has moved — submit enough to cross the old window).
    for i in 9..20u64 {
        cluster.submit(0, &[inc(i + 1)]);
    }
    for r in replicas(&cluster) {
        assert_eq!(r.app().value(), 20);
    }
}

/// Replica 3 misses twelve slots behind a partition; the others stabilize
/// checkpoints at 4, 8 and 12. Returns the healed cluster.
fn cluster_with_replica_3_behind() -> Cluster<SplitBftReplica<CounterApp>> {
    let mut cluster = cluster(4, 4, CounterApp::new);
    isolate(&cluster, 3);
    for i in 0..8u64 {
        cluster.submit(0, &[inc(i + 1)]);
    }
    heal(&cluster);
    for i in 8..12u64 {
        cluster.submit(0, &[inc(i + 1)]);
    }
    cluster
}

#[test]
fn lagging_replica_catches_up_via_state_transfer() {
    let mut cluster = cluster_with_replica_3_behind();
    // The votes carry a digest, not the state: every compartment of
    // replica 3 saw the checkpoint at 12 become stable, and Execution is
    // behind it with nothing to restore from.
    let r3 = cluster.replica(3);
    assert_eq!(r3.stable_seq(), SeqNum(12));
    assert_eq!(r3.last_executed(), SeqNum(0));
    assert!(r3.durable_checkpoint().is_none(), "no snapshot of a state it never reached");

    // What the state-transfer client does with a peer's answer.
    let cp = cluster.replica(0).durable_checkpoint().expect("replica 0 is at its stable point");
    cluster.replica_mut(3).restore_durable_checkpoint(&cp).expect("a peer's checkpoint restores");
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
    let (cert, snapshot) = split_durable_checkpoint(&cp).unwrap();
    assert!(cert.checkpoints.iter().all(|vote| vote.payload.snapshot.is_empty()));

    // The layout before votes went by digest: the certificate alone,
    // each vote signed over its own embedded copy of the snapshot.
    let v1 = CheckpointCertificate {
        checkpoints: (0..3u32)
            .map(|r| {
                let signer = enclave_signer(ReplicaId(r), CompartmentKind::Execution);
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

    cluster.replica_mut(3).restore_durable_checkpoint(&v1).expect("the older layout restores");
    assert_eq!(cluster.replica(3).app().value(), 12);
    assert_eq!(cluster.replica(3).state_digest(), cluster.replica(0).state_digest());
}

/// One ecall into `exec`, returning how many of its ocalls were
/// rejections and how many were anything else.
fn ecall(
    exec: &mut EnclaveAdapter<ExecutionCompartment<CounterApp>>,
    input: &CompartmentInput,
) -> (usize, usize) {
    let mut queue = OcallQueue::new();
    exec.handle_ecall(ECALL_HANDLE, &encode(input), &mut queue);
    let rejected = queue
        .iter()
        .filter(|(_, data)| {
            matches!(decode::<CompartmentOutput>(data), Ok(CompartmentOutput::Rejected { .. }))
        })
        .count();
    (rejected, queue.len() - rejected)
}

#[test]
fn execution_installs_a_snapshot_only_under_its_own_stable_certificate() {
    let cluster = cluster_with_replica_3_behind();
    let cp = cluster.replica(0).durable_checkpoint().unwrap();
    let (cert, snapshot) = split_durable_checkpoint(&cp).unwrap();
    let install = |seq: SeqNum, snapshot: &[u8]| CompartmentInput::InstallSnapshot {
        seq,
        snapshot: Bytes::copy_from_slice(snapshot),
    };

    let cfg = ClusterConfig::new(4).unwrap().with_checkpoint_interval(4);
    let mut exec = EnclaveAdapter::new(ExecutionCompartment::new(
        cfg,
        ReplicaId(3),
        SEED,
        CounterApp::new(),
    ));
    let untouched = exec.inner().state_digest();
    let assert_untouched = |exec: &EnclaveAdapter<ExecutionCompartment<CounterApp>>, case| {
        assert_eq!(exec.inner().last_executed(), SeqNum(0), "{case}");
        assert_eq!(exec.inner().state_digest(), untouched, "{case}");
    };

    // The right snapshot, but this enclave has verified no certificate.
    assert_eq!(ecall(&mut exec, &install(cp.seq, snapshot)), (1, 0));
    assert_untouched(&exec, "no stable certificate");

    // The votes, verified like any network input, make 12 stable here.
    for vote in &cert.checkpoints {
        let msg = CompartmentInput::Message(ConsensusMessage::Checkpoint(vote.clone()));
        assert_eq!(ecall(&mut exec, &msg).0, 0);
    }
    assert_eq!(exec.inner().stable_seq(), SeqNum(12));

    let mut wrong = snapshot.to_vec();
    *wrong.last_mut().unwrap() ^= 1;
    for (case, input) in [
        ("wrong digest", install(cp.seq, &wrong)),
        ("truncated", install(cp.seq, &snapshot[..snapshot.len() - 1])),
        ("not the stable sequence number", install(SeqNum(8), snapshot)),
    ] {
        assert_eq!(ecall(&mut exec, &input), (1, 0), "{case}: exactly one Rejected ocall");
        assert_untouched(&exec, case);
    }

    assert_eq!(ecall(&mut exec, &install(cp.seq, snapshot)).0, 0);
    assert_eq!(exec.inner().last_executed(), SeqNum(12));
    assert_eq!(exec.inner().state_digest(), cp.digest);

    // Offered again it is no longer ahead of what was executed.
    assert_eq!(ecall(&mut exec, &install(cp.seq, snapshot)), (1, 0));
    assert_eq!(exec.inner().state_digest(), cp.digest);
}

#[test]
fn view_change_moves_all_compartments_to_view_one() {
    let mut cluster = cluster(4, 128, CounterApp::new);
    cluster.submit(0, &[inc(1)]);

    cluster.crash(0);
    time_out(&mut cluster, 1..4);

    for i in 1..4 {
        let (prep_v, conf_v, exec_v) = cluster.replica(i).views();
        assert_eq!(conf_v, View(1), "replica {i} confirmation view");
        assert_eq!(prep_v, View(1), "replica {i} preparation view");
        assert_eq!(exec_v, View(1), "replica {i} execution view");
    }

    // New primary (r1) orders fresh work.
    cluster.submit(1, &[inc(2)]);
    for i in 1..4 {
        assert_eq!(cluster.replica(i).app().value(), 2, "replica {i}");
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
fn staggered_timeouts_converge_through_the_join_rule() {
    // The divergence chaos testing exposed: with the primary dead,
    // replica 1's timer fires *twice* before its first ViewChange
    // reaches anyone (its Confirmation walks to view 2), while replicas
    // 2 and 3 fire once (view 1). Without the join rule the cluster can
    // wedge: r1's Confirmation refuses view-1 work, leaving only 2f
    // commit voters. With it, the stragglers' next timeout plus r1's
    // retained view-2 vote converge everyone on a common view.
    let mut cluster = cluster(4, 128, CounterApp::new);
    cluster.submit(0, &[inc(1)]);
    cluster.crash(0);

    // r1 times out twice back to back; nothing is delivered in between
    // (messages sit in the peers' queues until `run`).
    cluster.drive(1, Protocol::on_timeout);
    cluster.drive(1, Protocol::on_timeout);
    // r2 and r3 time out once.
    for i in [2usize, 3] {
        cluster.drive(i, Protocol::on_timeout);
    }
    cluster.run();

    // A second timeout round for whoever is still behind (the live
    // cluster's timer keeps ticking); the join rule must fold everyone
    // into one view rather than letting targets leapfrog forever.
    for _ in 0..2 {
        let views: Vec<View> =
            (1..4).map(|i| cluster.replica(i).views().1).collect();
        if views.iter().all(|v| *v == views[0])
            && !cluster.replica(1).has_pending_requests()
        {
            break;
        }
        time_out(&mut cluster, 1..4);
    }

    let conf_views: Vec<View> = (1..4).map(|i| cluster.replica(i).views().1).collect();
    assert!(
        conf_views.iter().all(|v| *v == conf_views[0]),
        "confirmation views diverged permanently: {conf_views:?}"
    );

    // And the converged view is *live*: its primary orders fresh work.
    let primary = (conf_views[0].0 as usize) % 4;
    assert_ne!(primary, 0, "view 0's primary is down");
    cluster.submit(primary, &[inc(2)]);
    for i in 1..4 {
        assert_eq!(
            cluster.replica(i).app().value(),
            2,
            "replica {i} did not execute in the converged view"
        );
    }
}

#[test]
fn confirmation_joins_a_view_change_on_f_plus_one_votes() {
    // Direct compartment-level check that the join rule is live (not
    // silently dead behind signature verification): two peer
    // Confirmation enclaves vote for view 1; the third, which never
    // timed out itself, must join on the f + 1 = 2nd vote.
    use splitbft_core::{CompartmentInput, CompartmentOutput, ConfirmationCompartment};
    let cfg = ClusterConfig::new(4).unwrap();
    let mut confs: Vec<ConfirmationCompartment> =
        (0..4u32).map(|i| ConfirmationCompartment::new(cfg.clone(), ReplicaId(i), SEED)).collect();

    let vote_of = |outputs: Vec<CompartmentOutput>| {
        outputs
            .into_iter()
            .find_map(|o| match o {
                CompartmentOutput::Broadcast(msg @ ConsensusMessage::ViewChange(_)) => Some(msg),
                _ => None,
            })
            .expect("timeout must broadcast a ViewChange")
    };
    let mut handle = |replica: usize, input| {
        let mut outputs = Vec::new();
        confs[replica].handle(input, &mut outputs).expect("the event is accepted");
        (outputs, confs[replica].view())
    };
    let vote1 = vote_of(handle(1, CompartmentInput::ViewTimeout).0);
    let vote2 = vote_of(handle(2, CompartmentInput::ViewTimeout).0);

    let (_, view) = handle(3, CompartmentInput::Message(vote1));
    assert_eq!(view, View(0), "one vote may be byzantine — no join yet");
    let (outputs, view) = handle(3, CompartmentInput::Message(vote2));
    assert_eq!(view, View(1), "f + 1 votes must trigger the join");
    assert!(
        outputs.iter().any(|o| matches!(
            o,
            CompartmentOutput::Broadcast(ConsensusMessage::ViewChange(vc))
                if vc.payload.new_view == View(1) && vc.payload.replica == ReplicaId(3)
        )),
        "joining must contribute this compartment's own vote"
    );
}

#[test]
fn f_muted_prep_enclaves_do_not_stop_the_cluster() {
    // One Preparation enclave (f = 1) goes mute: its replica stops
    // voting Prepare, but 2f prepares from the other backups suffice.
    let mut cluster = cluster(4, 128, CounterApp::new);
    cluster.replica_mut(2).arm_fault(
        CompartmentKind::Preparation,
        FaultPlan::immediate(FaultKind::MuteOcalls),
    );
    cluster.submit(0, &[inc(1)]);
    for i in [0usize, 1, 3] {
        assert_eq!(cluster.replica(i).app().value(), 1, "replica {i} executed");
    }
}

#[test]
fn f_muted_conf_enclaves_do_not_stop_the_cluster() {
    let mut cluster = cluster(4, 128, CounterApp::new);
    cluster.replica_mut(3).arm_fault(
        CompartmentKind::Confirmation,
        FaultPlan::immediate(FaultKind::MuteOcalls),
    );
    cluster.submit(0, &[inc(1)]);
    for i in 0..3 {
        assert_eq!(cluster.replica(i).app().value(), 1, "replica {i} executed");
    }
}

#[test]
fn one_faulty_enclave_per_compartment_type_on_different_replicas() {
    // The paper's Figure 1 scenario: failures in different compartments
    // on multiple replicas — one faulty enclave of each type, each on a
    // different replica — and the system still makes progress safely.
    let mut cluster = cluster(4, 128, CounterApp::new);
    cluster.replica_mut(1).arm_fault(
        CompartmentKind::Preparation,
        FaultPlan::immediate(FaultKind::MuteOcalls),
    );
    cluster.replica_mut(2).arm_fault(
        CompartmentKind::Confirmation,
        FaultPlan::immediate(FaultKind::MuteOcalls),
    );
    cluster.replica_mut(3).arm_fault(
        CompartmentKind::Execution,
        FaultPlan::immediate(FaultKind::DropEcalls),
    );
    cluster.submit(0, &[inc(1)]);

    // Replica 0 (fully healthy) must have executed; replicas with a
    // healthy Execution enclave likewise. Replica 3's execution is dead
    // but nobody else is affected.
    for i in 0..3 {
        assert_eq!(cluster.replica(i).app().value(), 1, "replica {i} executed");
    }
    assert_eq!(cluster.replica(3).app().value(), 0);

    // Clients still reach their f+1 reply quorum.
    let matching = cluster
        .replies
        .iter()
        .filter(|r| r.result == Bytes::copy_from_slice(&1u64.to_le_bytes()))
        .count();
    assert!(matching >= 2, "reply quorum reachable with {matching} replies");
}

#[test]
fn corrupting_exec_enclave_cannot_forge_accepted_replies() {
    // A byzantine Execution enclave flips bits in everything it emits.
    // Clients verify reply MACs, so the corrupted replica's replies are
    // ignored and the quorum comes from the three healthy ones.
    let mut cluster = cluster(4, 128, CounterApp::new);
    cluster.replica_mut(1).arm_fault(
        CompartmentKind::Execution,
        FaultPlan::immediate(FaultKind::CorruptOcalls { xor: 0x55 }),
    );
    let cfg = ClusterConfig::new(4).unwrap();
    let mut client = SplitBftClient::new(cfg, ClientId(0), SEED, 1).with_plaintext();
    let req = client.issue(b"inc");
    cluster.submit(0, &[req]);

    let replies = std::mem::take(&mut cluster.replies);
    let mut completed = None;
    for reply in &replies {
        if let ClientEvent::Completed(result) = client.on_reply(reply) {
            completed = Some(result);
            break;
        }
    }
    assert_eq!(
        completed,
        Some(Bytes::copy_from_slice(&1u64.to_le_bytes())),
        "client gets the correct result despite the corrupted replica"
    );
}

#[test]
fn hostile_broker_dropping_messages_cannot_break_safety() {
    // A compromised environment on replica 3 delivers only every third
    // message. Liveness for r3 may suffer; safety must not: any replica
    // that executes a slot executes the same batch.
    let mut cluster = cluster(4, 128, CounterApp::new);
    let mut deliveries = 0usize;
    cluster.observe(move |frame| {
        if frame.to != ReplicaId(3) {
            return true;
        }
        deliveries += 1;
        deliveries % 3 == 0 // the hostile broker drops the other two
    });
    for i in 0..10u64 {
        cluster.submit(0, &[inc(i + 1)]);
    }
    // Healthy replicas executed everything.
    for i in 0..3 {
        assert_eq!(cluster.replica(i).app().value(), 10, "replica {i}");
    }
    // r3 executed a prefix — never a divergent value.
    let v3 = cluster.replica(3).app().value();
    assert!(v3 <= 10);
    let executed3 = cluster.replica(3).last_executed().0;
    assert_eq!(v3, executed3, "r3's state matches its executed prefix");
}

#[test]
fn blockchain_blocks_are_sealed_before_persistence() {
    use splitbft_app::Blockchain;
    let mut cluster = cluster(4, 128, Blockchain::new);
    let tx = |ts| plain_request(0, ts, Bytes::from_static(b"tx-data-10"));
    for ts in 1..=4 {
        cluster.submit(0, &[tx(ts)]);
    }
    // The fifth transaction closes a block on every replica, as each
    // executes the slot. The hosting adapter drops `Persist` (it has no
    // network footprint), so for this step the commit votes are taken
    // off the wire and handed to the brokers directly.
    let commits = Rc::new(RefCell::new(Vec::new()));
    cluster.observe({
        let commits = Rc::clone(&commits);
        move |frame| {
            if frame.kind == frame_kind::PROTOCOL {
                if let Ok(vote @ ConsensusMessage::Commit(_)) = decode(frame.payload) {
                    commits.borrow_mut().push((frame.to.as_usize(), vote));
                    return false;
                }
            }
            true
        }
    });
    cluster.submit(0, &[tx(5)]);
    let mut persisted = Vec::new();
    for (to, vote) in commits.take() {
        for event in cluster.replica_mut(to).on_network_message(vote) {
            if let ReplicaEvent::Persist(blob) = event {
                persisted.push(blob);
            }
        }
    }
    for r in replicas(&cluster) {
        assert_eq!(r.app().height(), 1, "replica {} built a block", r.id());
    }
    // Four replicas each persisted one sealed block.
    assert_eq!(persisted.len(), 4);
    for blob in &persisted {
        // Sealed: the raw transaction bytes are not visible.
        assert!(!blob.windows(10).any(|w| w == b"tx-data-10"));
    }
}

#[test]
fn exponential_backoff_converges_under_interleaved_timeouts() {
    // The re-broadcast budget doubles per escalation and caps at 8× (the
    // 2, 4, 8, 16, 16 table is pinned with `splitbft_pbft::ViewTimer`,
    // which Confirmation shares with the baseline). What it buys is
    // convergence under *interleaved* timers: with the primary dead,
    // replica 1's clock runs double speed, replica 3's half speed, and
    // messages only flow at round boundaries. With a fixed re-broadcast
    // budget the fast replica escalates at a constant rate and can
    // leapfrog the stragglers' targets round after round; exponential
    // backoff makes every further hop strictly cheaper to catch, so the
    // views must fold together within a bounded number of rounds.
    let mut cluster = cluster(4, 128, CounterApp::new);
    cluster.submit(0, &[inc(1)]);
    cluster.crash(0);

    let mut converged = false;
    for round in 0..12 {
        for _ in 0..2 {
            cluster.drive(1, Protocol::on_timeout);
        }
        cluster.drive(2, Protocol::on_timeout);
        if round % 2 == 0 {
            cluster.drive(3, Protocol::on_timeout);
        }
        cluster.run();

        let views: Vec<View> = (1..4).map(|i| cluster.replica(i).views().1).collect();
        if views.iter().all(|v| *v == views[0]) && !cluster.replica(1).has_pending_requests() {
            converged = true;
            break;
        }
    }
    assert!(converged, "confirmation views failed to converge within 12 interleaved rounds");

    // The converged view must be live. If its primary happens to be the
    // dead replica 0, the cluster's own timers move it along first.
    for _ in 0..4 {
        let view = cluster.replica(1).views().1;
        if (view.0 as usize) % 4 != 0 && !cluster.replica(1).has_pending_requests() {
            break;
        }
        time_out(&mut cluster, 1..4);
    }
    let view = cluster.replica(1).views().1;
    let primary = (view.0 as usize) % 4;
    assert_ne!(primary, 0, "converged view's primary is the dead replica");
    cluster.submit(primary, &[inc(2)]);
    for i in 1..4 {
        assert_eq!(
            cluster.replica(i).app().value(),
            2,
            "replica {i} did not execute in the converged view"
        );
    }
}
