//! End-to-end tests of SplitBFT over a deterministic in-memory message
//! pump: normal operation through all three compartments, the
//! confidential client path with attestation, checkpointing, view
//! changes, and — the point of the paper — safety under faulty enclaves
//! and hostile environments.

use bytes::Bytes;
use splitbft_app::{Application, CounterApp, KeyValueStore, KvOp};
use splitbft_core::{ReplicaEvent, SplitBftClient, SplitBftReplica, ClientEvent};
use splitbft_tee::attest::PlatformAuthority;
use splitbft_tee::fault::{FaultKind, FaultPlan};
use splitbft_tee::{CostModel, ExecMode};
use splitbft_types::{
    ClientId, ClusterConfig, CompartmentKind, ConsensusMessage, ReplicaId, Reply, Request, SeqNum,
    View,
};
use std::collections::VecDeque;

const SEED: u64 = 2024;

struct Cluster<A: Application> {
    replicas: Vec<SplitBftReplica<A>>,
    queues: Vec<VecDeque<ConsensusMessage>>,
    replies: Vec<Reply>,
    persisted: Vec<Bytes>,
    down: Vec<bool>,
}

impl<A: Application> Cluster<A> {
    fn new(n: usize, interval: u64, mk: impl Fn() -> A) -> Self {
        let cfg = ClusterConfig::new(n).unwrap().with_checkpoint_interval(interval);
        let replicas = (0..n as u32)
            .map(|i| {
                SplitBftReplica::new(
                    cfg.clone(),
                    ReplicaId(i),
                    SEED,
                    mk(),
                    ExecMode::Hardware,
                    CostModel::paper_calibrated(),
                )
            })
            .collect();
        Cluster {
            replicas,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            replies: Vec::new(),
            persisted: Vec::new(),
            down: vec![false; n],
        }
    }

    fn n(&self) -> usize {
        self.replicas.len()
    }

    fn handle_events(&mut self, from: usize, events: Vec<ReplicaEvent>) {
        for event in events {
            match event {
                ReplicaEvent::Broadcast(msg) => {
                    for to in 0..self.n() {
                        if to != from && !self.down[to] {
                            self.queues[to].push_back(msg.clone());
                        }
                    }
                }
                ReplicaEvent::Reply { reply, .. } => self.replies.push(reply),
                ReplicaEvent::Persist(blob) => self.persisted.push(blob),
                _ => {}
            }
        }
    }

    fn run(&mut self) {
        loop {
            let mut progressed = false;
            for i in 0..self.n() {
                if self.down[i] {
                    self.queues[i].clear();
                    continue;
                }
                while let Some(msg) = self.queues[i].pop_front() {
                    progressed = true;
                    let events = self.replicas[i].on_network_message(msg);
                    self.handle_events(i, events);
                }
            }
            if !progressed {
                break;
            }
        }
    }

    fn submit(&mut self, primary: usize, requests: Vec<Request>) {
        let events = self.replicas[primary].on_client_batch(requests);
        self.handle_events(primary, events);
        self.run();
    }

    fn timeout_all_up(&mut self) {
        for i in 0..self.n() {
            if !self.down[i] {
                let events = self.replicas[i].on_view_timeout();
                self.handle_events(i, events);
            }
        }
        self.run();
    }
}

fn plain_request(client: u32, ts: u64, op: Bytes) -> Request {
    splitbft_pbft::make_request(SEED, ClientId(client), splitbft_types::Timestamp(ts), op)
}

#[test]
fn plaintext_request_executes_on_all_replicas() {
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    cluster.submit(0, vec![plain_request(0, 1, Bytes::from_static(b"inc"))]);

    for r in &cluster.replicas {
        assert_eq!(r.last_executed(), SeqNum(1), "replica {} executed", r.id());
        assert_eq!(r.app().value(), 1);
    }
    assert_eq!(cluster.replies.len(), 4);
}

#[test]
fn state_stays_consistent_across_many_requests() {
    let mut cluster = Cluster::new(4, 128, KeyValueStore::new);
    for i in 0..25u64 {
        let op = KvOp::put(format!("k{}", i % 5).as_bytes(), &i.to_le_bytes()).encode_op();
        cluster.submit(0, vec![plain_request(0, i + 1, op)]);
    }
    let digest = cluster.replicas[0].state_digest();
    for r in &cluster.replicas {
        assert_eq!(r.last_executed(), SeqNum(25));
        assert_eq!(r.state_digest(), digest, "divergence at {}", r.id());
    }
}

#[test]
fn confidential_client_roundtrip_with_attestation() {
    let mut cluster = Cluster::new(4, 128, KeyValueStore::new);
    let authority = PlatformAuthority::from_seed(7);
    let cfg = ClusterConfig::new(4).unwrap();
    let mut client = SplitBftClient::new(cfg, ClientId(5), SEED, 99);

    // Attestation: verify each Execution enclave's quote, install the
    // session key.
    for i in 0..4 {
        let quote = cluster.replicas[i].attestation_quote(&authority);
        let (dh_pub, wrapped) = client
            .attest_execution_enclave(&authority.public_key(), &quote)
            .expect("genuine quote verifies");
        let events = cluster.replicas[i].install_session_key(ClientId(5), dh_pub, wrapped);
        assert!(
            !events.iter().any(|e| matches!(e, ReplicaEvent::Rejected { .. })),
            "session key install rejected: {events:?}"
        );
    }

    // Issue an encrypted PUT, then an encrypted GET.
    let put = client.issue(&KvOp::put(b"secret-key", b"secret-value").encode_op());
    assert!(put.encrypted);
    cluster.submit(0, vec![put]);
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
    cluster.submit(0, vec![get]);
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
    let mut cluster = Cluster::new(4, 128, KeyValueStore::new);
    let authority = PlatformAuthority::from_seed(7);
    let cfg = ClusterConfig::new(4).unwrap();
    let mut client = SplitBftClient::new(cfg, ClientId(5), SEED, 99);
    for i in 0..4 {
        let quote = cluster.replicas[i].attestation_quote(&authority);
        let (dh_pub, wrapped) =
            client.attest_execution_enclave(&authority.public_key(), &quote).unwrap();
        cluster.replicas[i].install_session_key(ClientId(5), dh_pub, wrapped);
    }

    const SECRET: &[u8] = b"TOP-SECRET-PAYLOAD";
    let put = client.issue(&KvOp::put(b"k", SECRET).encode_op());

    // The request bytes on the wire do not contain the secret.
    let wire = splitbft_types::wire::encode(&put);
    assert!(!wire.windows(SECRET.len()).any(|w| w == SECRET));

    cluster.submit(0, vec![put]);

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
    let mut cluster = Cluster::new(4, 4, CounterApp::new);
    for i in 0..9u64 {
        cluster.submit(0, vec![plain_request(0, i + 1, Bytes::from_static(b"inc"))]);
    }
    for r in &cluster.replicas {
        assert_eq!(r.last_executed(), SeqNum(9));
        assert_eq!(r.app().value(), 9);
    }
    // All three compartments should have seen the stable checkpoint at 8
    // (verified indirectly: further requests keep executing, and the
    // window has moved — submit enough to cross the old window).
    for i in 9..20u64 {
        cluster.submit(0, vec![plain_request(0, i + 1, Bytes::from_static(b"inc"))]);
    }
    for r in &cluster.replicas {
        assert_eq!(r.app().value(), 20);
    }
}

#[test]
fn view_change_moves_all_compartments_to_view_one() {
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    cluster.submit(0, vec![plain_request(0, 1, Bytes::from_static(b"inc"))]);

    cluster.down[0] = true;
    cluster.timeout_all_up();

    for i in 1..4 {
        let (prep_v, conf_v, exec_v) = cluster.replicas[i].views();
        assert_eq!(conf_v, View(1), "replica {i} confirmation view");
        assert_eq!(prep_v, View(1), "replica {i} preparation view");
        assert_eq!(exec_v, View(1), "replica {i} execution view");
    }

    // New primary (r1) orders fresh work.
    cluster.submit(1, vec![plain_request(0, 2, Bytes::from_static(b"inc"))]);
    for i in 1..4 {
        assert_eq!(cluster.replicas[i].app().value(), 2, "replica {i}");
    }
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
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    cluster.submit(0, vec![plain_request(0, 1, Bytes::from_static(b"inc"))]);
    cluster.down[0] = true;

    // r1 times out twice back to back; nothing is delivered in between
    // (messages sit in the peers' queues until `run`).
    let events = cluster.replicas[1].on_view_timeout();
    cluster.handle_events(1, events);
    let events = cluster.replicas[1].on_view_timeout();
    cluster.handle_events(1, events);
    // r2 and r3 time out once.
    for i in [2usize, 3] {
        let events = cluster.replicas[i].on_view_timeout();
        cluster.handle_events(i, events);
    }
    cluster.run();

    // A second timeout round for whoever is still behind (the live
    // cluster's timer keeps ticking); the join rule must fold everyone
    // into one view rather than letting targets leapfrog forever.
    for _ in 0..2 {
        let views: Vec<View> =
            (1..4).map(|i| cluster.replicas[i].views().1).collect();
        if views.iter().all(|v| *v == views[0])
            && !cluster.replicas[1].has_pending_requests()
        {
            break;
        }
        cluster.timeout_all_up();
    }

    let conf_views: Vec<View> = (1..4).map(|i| cluster.replicas[i].views().1).collect();
    assert!(
        conf_views.iter().all(|v| *v == conf_views[0]),
        "confirmation views diverged permanently: {conf_views:?}"
    );

    // And the converged view is *live*: its primary orders fresh work.
    let primary = (conf_views[0].0 as usize) % 4;
    assert_ne!(primary, 0, "view 0's primary is down");
    cluster.submit(primary, vec![plain_request(0, 2, Bytes::from_static(b"inc"))]);
    for i in 1..4 {
        assert_eq!(
            cluster.replicas[i].app().value(),
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
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    cluster.replicas[2].arm_fault(
        CompartmentKind::Preparation,
        FaultPlan::immediate(FaultKind::MuteOcalls),
    );
    cluster.submit(0, vec![plain_request(0, 1, Bytes::from_static(b"inc"))]);
    for i in [0usize, 1, 3] {
        assert_eq!(cluster.replicas[i].app().value(), 1, "replica {i} executed");
    }
}

#[test]
fn f_muted_conf_enclaves_do_not_stop_the_cluster() {
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    cluster.replicas[3].arm_fault(
        CompartmentKind::Confirmation,
        FaultPlan::immediate(FaultKind::MuteOcalls),
    );
    cluster.submit(0, vec![plain_request(0, 1, Bytes::from_static(b"inc"))]);
    for i in 0..3 {
        assert_eq!(cluster.replicas[i].app().value(), 1, "replica {i} executed");
    }
}

#[test]
fn one_faulty_enclave_per_compartment_type_on_different_replicas() {
    // The paper's Figure 1 scenario: failures in different compartments
    // on multiple replicas — one faulty enclave of each type, each on a
    // different replica — and the system still makes progress safely.
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    cluster.replicas[1].arm_fault(
        CompartmentKind::Preparation,
        FaultPlan::immediate(FaultKind::MuteOcalls),
    );
    cluster.replicas[2].arm_fault(
        CompartmentKind::Confirmation,
        FaultPlan::immediate(FaultKind::MuteOcalls),
    );
    cluster.replicas[3].arm_fault(
        CompartmentKind::Execution,
        FaultPlan::immediate(FaultKind::DropEcalls),
    );
    cluster.submit(0, vec![plain_request(0, 1, Bytes::from_static(b"inc"))]);

    // Replica 0 (fully healthy) must have executed; replicas with a
    // healthy Execution enclave likewise. Replica 3's execution is dead
    // but nobody else is affected.
    for i in 0..3 {
        assert_eq!(cluster.replicas[i].app().value(), 1, "replica {i} executed");
    }
    assert_eq!(cluster.replicas[3].app().value(), 0);

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
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    cluster.replicas[1].arm_fault(
        CompartmentKind::Execution,
        FaultPlan::immediate(FaultKind::CorruptOcalls { xor: 0x55 }),
    );
    let cfg = ClusterConfig::new(4).unwrap();
    let mut client = SplitBftClient::new(cfg, ClientId(0), SEED, 1).with_plaintext();
    let req = client.issue(b"inc");
    cluster.submit(0, vec![req]);

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
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    let mut drop_counter = 0usize;
    for i in 0..10u64 {
        let events =
            cluster.replicas[0].on_client_batch(vec![plain_request(0, i + 1, Bytes::from_static(b"inc"))]);
        cluster.handle_events(0, events);
        // Custom pump: filter r3's deliveries.
        loop {
            let mut progressed = false;
            for r in 0..4 {
                while let Some(msg) = cluster.queues[r].pop_front() {
                    progressed = true;
                    if r == 3 {
                        drop_counter += 1;
                        if drop_counter % 3 != 0 {
                            continue; // hostile broker drops it
                        }
                    }
                    let events = cluster.replicas[r].on_network_message(msg);
                    cluster.handle_events(r, events);
                }
            }
            if !progressed {
                break;
            }
        }
    }
    // Healthy replicas executed everything.
    for i in 0..3 {
        assert_eq!(cluster.replicas[i].app().value(), 10, "replica {i}");
    }
    // r3 executed a prefix — never a divergent value.
    let v3 = cluster.replicas[3].app().value();
    assert!(v3 <= 10);
    let executed3 = cluster.replicas[3].last_executed().0;
    assert_eq!(v3, executed3, "r3's state matches its executed prefix");
}

#[test]
fn blockchain_blocks_are_sealed_before_persistence() {
    use splitbft_app::Blockchain;
    let mut cluster = Cluster::new(4, 128, Blockchain::new);
    // 5 transactions close one block on every replica.
    for i in 0..5u64 {
        cluster.submit(0, vec![plain_request(0, i + 1, Bytes::from_static(b"tx-data-10"))]);
    }
    for r in &cluster.replicas {
        assert_eq!(r.app().height(), 1, "replica {} built a block", r.id());
    }
    // Four replicas each persisted one sealed block.
    assert_eq!(cluster.persisted.len(), 4);
    for blob in &cluster.persisted {
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
    let mut cluster = Cluster::new(4, 128, CounterApp::new);
    cluster.submit(0, vec![plain_request(0, 1, Bytes::from_static(b"inc"))]);
    cluster.down[0] = true;

    let mut converged = false;
    for round in 0..12 {
        for _ in 0..2 {
            let events = cluster.replicas[1].on_view_timeout();
            cluster.handle_events(1, events);
        }
        let events = cluster.replicas[2].on_view_timeout();
        cluster.handle_events(2, events);
        if round % 2 == 0 {
            let events = cluster.replicas[3].on_view_timeout();
            cluster.handle_events(3, events);
        }
        cluster.run();

        let views: Vec<View> = (1..4).map(|i| cluster.replicas[i].views().1).collect();
        if views.iter().all(|v| *v == views[0]) && !cluster.replicas[1].has_pending_requests() {
            converged = true;
            break;
        }
    }
    assert!(converged, "confirmation views failed to converge within 12 interleaved rounds");

    // The converged view must be live. If its primary happens to be the
    // dead replica 0, the cluster's own timers move it along first.
    for _ in 0..4 {
        let view = cluster.replicas[1].views().1;
        if (view.0 as usize) % 4 != 0 && !cluster.replicas[1].has_pending_requests() {
            break;
        }
        cluster.timeout_all_up();
    }
    let view = cluster.replicas[1].views().1;
    let primary = (view.0 as usize) % 4;
    assert_ne!(primary, 0, "converged view's primary is the dead replica");
    cluster.submit(primary, vec![plain_request(0, 2, Bytes::from_static(b"inc"))]);
    for i in 1..4 {
        assert_eq!(
            cluster.replicas[i].app().value(),
            2,
            "replica {i} did not execute in the converged view"
        );
    }
}
