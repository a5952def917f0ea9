//! Cross-crate integration: the facade's in-memory cluster hosting both
//! protocol stacks end to end — framed bytes between real hosting cores,
//! the same stall timer and state-transfer client the socket runtime
//! runs, on one thread and a virtual clock.

use splitbft::net::ProtocolGauges;
use splitbft::prelude::*;
use splitbft::types::{FaultCommand, Reply, Request};

const SEED: u64 = 31337;
const N: usize = 4;

fn cluster<P: Protocol>(make: impl Fn(ReplicaId) -> P) -> Cluster<P> {
    Cluster::new((0..N as u32).map(|i| make(ReplicaId(i))))
}

/// Cuts the view-0 primary off from every other replica (clients still
/// reach it).
fn isolate_primary<P: Protocol>(cluster: &mut Cluster<P>) {
    cluster.faults.apply(FaultCommand::Partition {
        name: "isolate-primary".into(),
        side_a: vec![ReplicaId(0)],
        side_b: vec![ReplicaId(1), ReplicaId(2), ReplicaId(3)],
        symmetric: true,
    });
}

/// Sends `request` to `replicas` and feeds replies to `on_reply` until
/// it reports completion. The transport is at-most-once, so the request
/// is retransmitted like a real client would (replicas dedup by
/// timestamp and re-send the cached reply once executed), one period of
/// the replicas' stall timers apart.
fn complete<P: Protocol>(
    cluster: &mut Cluster<P>,
    request: &Request,
    replicas: &[usize],
    mut on_reply: impl FnMut(&Reply) -> bool,
) -> bool {
    for _ in 0..30 {
        for &replica in replicas {
            cluster.submit(replica, std::slice::from_ref(request));
        }
        if cluster.replies.drain(..).any(|reply| on_reply(&reply)) {
            return true;
        }
        cluster.tick();
    }
    false
}

fn splitbft_replica<A: Application>(id: ReplicaId, app: A) -> SplitBftReplica<A> {
    SplitBftReplica::new(
        ClusterConfig::new(N).unwrap(),
        id,
        SEED,
        app,
        ExecMode::Hardware,
        CostModel::paper_calibrated(),
    )
}

#[test]
fn splitbft_kvs_on_lockstep() {
    let config = ClusterConfig::new(N).unwrap();
    let mut client = Client::new(config.reply_quorum(), ClientId(9), SEED);
    let mut cluster = cluster(|id| splitbft_replica(id, KeyValueStore::new()));

    for i in 0..5u32 {
        let op = KvOp::put(format!("k{i}").as_bytes(), b"v").encode_op();
        let request = client.issue(&op);
        let done = complete(&mut cluster, &request, &[0], |reply| {
            matches!(client.on_reply(reply), ClientEvent::Completed(_))
        });
        assert!(done, "request {i} did not complete");
    }
}

#[test]
fn pbft_counter_on_lockstep() {
    let config = ClusterConfig::new(N).unwrap();
    let mut client = Client::new(config.reply_quorum(), ClientId(2), SEED);
    let mut cluster =
        cluster(|id| PbftReplica::new(ClusterConfig::new(N).unwrap(), id, SEED, CounterApp::new()));
    let request = client.issue(bytes::Bytes::from_static(b"inc"));

    let mut result = None;
    complete(&mut cluster, &request, &[0], |reply| {
        if let ClientEvent::Completed(r) = client.on_reply(reply) {
            result = Some(r);
        }
        result.is_some()
    });
    assert_eq!(result, Some(bytes::Bytes::copy_from_slice(&1u64.to_le_bytes())));
}

#[test]
fn splitbft_survives_view_change_on_lockstep() {
    // Cut the view-0 primary off from everyone. The client broadcasts, so
    // the three connected replicas hold a pending request nobody orders;
    // their request-aware timers fire, they move to view 1 (or beyond)
    // without replica 0, and the new primary serves the request.
    let config = ClusterConfig::new(N).unwrap();
    let mut client = Client::new(config.reply_quorum(), ClientId(5), SEED);
    let mut cluster = cluster(|id| splitbft_replica(id, CounterApp::new()));
    isolate_primary(&mut cluster);

    let request = client.issue(b"inc");
    let mut committed_in = None;
    complete(&mut cluster, &request, &[0, 1, 2, 3], |reply| {
        if let ClientEvent::Completed(_) = client.on_reply(reply) {
            committed_in = Some(reply.view);
        }
        committed_in.is_some()
    });
    let view = committed_in.expect("request did not complete after the view change");
    assert!(view >= View(1), "committed in {view:?}, but view 0's primary is unreachable");
}

/// A key-value store already holding one `bytes`-long value, the same on
/// every replica that builds it.
fn kvs_holding(bytes: usize) -> KeyValueStore {
    let mut kvs = KeyValueStore::new();
    kvs.execute(&KvOp::put(b"ballast", &vec![0xAB; bytes]).encode_op());
    kvs
}

/// Drives a cluster holding 4 MiB of state through one stable checkpoint,
/// cuts the view-0 primary off, and requires the next request to commit
/// in a later view. A `ViewChange` carries the stable checkpoint's
/// certificate and a `NewView` carries `2f + 1` of those; while every vote
/// in a certificate embedded the snapshot, nine copies of this state made
/// the `NewView` larger than `MAX_FRAME_LEN` and the view change could
/// not be delivered.
fn view_change_with_a_large_state<P: Protocol>(
    mut client: Client,
    make: impl Fn(ReplicaId, ClusterConfig, KeyValueStore) -> P,
) {
    const STATE: usize = 4 << 20;
    let mut cluster = cluster(|id| {
        let config = ClusterConfig::new(N).unwrap().with_checkpoint_interval(4);
        make(id, config, kvs_holding(STATE))
    });
    let mut put = |cluster: &mut Cluster<P>, key: u32, replicas: &[usize]| {
        let request = client.issue(KvOp::put(&key.to_le_bytes(), b"v").encode_op());
        let mut committed_in = None;
        complete(cluster, &request, replicas, |reply| {
            if let ClientEvent::Completed(_) = client.on_reply(reply) {
                committed_in = Some(reply.view);
            }
            committed_in.is_some()
        });
        committed_in.unwrap_or_else(|| panic!("put {key} did not complete"))
    };

    // Four slots: the checkpoint at 4 becomes stable.
    for key in 0..4 {
        assert_eq!(put(&mut cluster, key, &[0]), View(0));
    }
    isolate_primary(&mut cluster);
    let view = put(&mut cluster, 4, &[0, 1, 2, 3]);
    assert!(view >= View(1), "committed in {view:?}, but view 0's primary is unreachable");
}

#[test]
fn pbft_changes_view_with_a_large_state() {
    let quorum = ClusterConfig::new(N).unwrap().reply_quorum();
    view_change_with_a_large_state(
        Client::new(quorum, ClientId(11), SEED),
        |id, config, kvs| PbftReplica::new(config, id, SEED, kvs),
    );
}

#[test]
fn splitbft_changes_view_with_a_large_state() {
    let quorum = ClusterConfig::new(N).unwrap().reply_quorum();
    view_change_with_a_large_state(
        Client::new(quorum, ClientId(12), SEED),
        |id, config, kvs| {
            let (mode, cost) = (ExecMode::Hardware, CostModel::paper_calibrated());
            SplitBftReplica::new(config, id, SEED, kvs, mode, cost)
        },
    );
}

/// Stall-timer periods a request waits for its quorum before the client
/// holds it due again, for every replica (the fault catalog's period).
const RESEND_PERIODS: u64 = 2;

/// Replica `i`'s current view.
fn view_of<P: Protocol>(cluster: &Cluster<P>, i: usize) -> u64 {
    let mut gauges = ProtocolGauges::default();
    cluster.replica(i).probe_gauges(&mut gauges);
    gauges.shard_views[0]
}

/// The lockstep cluster as the client's runtime, its clock counting
/// stall-timer periods: issues `op` to the client's primary, then runs
/// one period at a time, sending whatever the client holds due to every
/// replica, until a reply completes it. Returns the view the completing
/// reply named and how many times the request went out again.
fn serve<P: Protocol>(
    cluster: &mut Cluster<P>,
    client: &mut Client,
    clock: &mut u64,
    op: &'static [u8],
) -> Option<(View, usize)> {
    let request = client.issue_at(bytes::Bytes::from_static(op), false, *clock, 0);
    cluster.submit(client.primary(cluster.n()), &[request]);
    settle(cluster, client, clock)
}

/// Runs `cluster` one stall-timer period at a time, sending whatever the
/// client holds due to every replica, until a reply completes a request.
/// Returns the view the completing reply named and how many times a
/// request went out again.
fn settle<P: Protocol>(
    cluster: &mut Cluster<P>,
    client: &mut Client,
    clock: &mut u64,
) -> Option<(View, usize)> {
    let mut resent = 0;
    for _ in 0..30 {
        for reply in std::mem::take(&mut cluster.replies) {
            if let ClientEvent::Completed(_) = client.on_reply(&reply) {
                return Some((reply.view, resent));
            }
        }
        cluster.tick();
        *clock += 1;
        let due = client.due(*clock);
        if !due.is_empty() {
            resent += due.len();
            (0..cluster.n()).for_each(|i| cluster.submit(i, &due));
        }
    }
    None
}

/// Cuts replica 0 off until its peers install view 1 without it, then
/// heals the cut. Replica 0 is up again but no longer the primary, and
/// backups do not forward requests: a client that kept sending to
/// replica 0 would reach replica 1 only once each request fell due for
/// every replica. The client follows the view its replies name instead,
/// so every later request completes on its first send.
fn a_view_change_that_leaves_replica_0_up<P: Protocol>(make: impl Fn(ReplicaId) -> P) {
    let quorum = ClusterConfig::new(N).unwrap().reply_quorum();
    let mut client = Client::new(quorum, ClientId(13), SEED).resending_after(RESEND_PERIODS);
    let mut cluster = cluster(make);
    let mut clock = 0;
    isolate_primary(&mut cluster);
    let (view, _) = serve(&mut cluster, &mut client, &mut clock, b"inc")
        .expect("the view change completes the first request");
    assert_eq!(view, View(1));
    assert!((1..N).all(|i| view_of(&cluster, i) == 1), "view 1 is installed");
    cluster.faults.apply(FaultCommand::HealAll);

    for i in 0..5 {
        let (view, resent) = serve(&mut cluster, &mut client, &mut clock, b"inc")
            .unwrap_or_else(|| panic!("request {i} did not complete"));
        assert_eq!((view, resent), (View(1), 0), "request {i}");
    }
}

#[test]
fn pbft_follows_a_view_change_that_leaves_replica_0_up() {
    a_view_change_that_leaves_replica_0_up(|id| {
        PbftReplica::new(ClusterConfig::new(N).unwrap(), id, SEED, CounterApp::new())
    });
}

#[test]
fn splitbft_follows_a_view_change_that_leaves_replica_0_up() {
    a_view_change_that_leaves_replica_0_up(|id| splitbft_replica(id, CounterApp::new()));
}

/// One faulty replica, before the client's first request completes, sends
/// it one authentic reply naming a view no correct replica is in — any
/// replica can, since each holds the client's MAC key. Backups do not
/// forward requests, so a client that followed that view would send every
/// later request to a replica that drops it and complete it only once it
/// fell due for every replica. It follows only a view `f + 1` replicas
/// named instead: every request completes in view 0 on its first send.
fn one_faulty_replica_cannot_steer_the_client<P: Protocol>(
    reply_quorum: usize,
    faulty: u32,
    views: [u64; 3],
    make: impl Fn(ReplicaId) -> P,
) {
    for (client_id, view) in (20..).zip(views) {
        let mut cluster = Cluster::new((0..=faulty).map(|i| make(ReplicaId(i))));
        let mut client =
            Client::new(reply_quorum, ClientId(client_id), SEED).resending_after(RESEND_PERIODS);
        let mut clock = 0;
        let first = client.issue_at(bytes::Bytes::from_static(b"inc"), false, clock, 0);
        let (named, replica, result) = (View(view), ReplicaId(faulty), bytes::Bytes::from_static(b"?"));
        let auth = splitbft::crypto::client_mac_key(SEED, first.id.client)
            .reply_tag(named, first.id, replica, &result, false);
        let forged = Reply { view: named, request: first.id, replica, result, encrypted: false, auth };
        assert_eq!(client.on_reply(&forged), ClientEvent::Pending, "the forged reply is authentic");
        cluster.submit(client.primary(cluster.n()), &[first]);
        settle(&mut cluster, &mut client, &mut clock).expect("the first request completes");

        for i in 0..5 {
            let (completed_in, resent) = serve(&mut cluster, &mut client, &mut clock, b"inc")
                .unwrap_or_else(|| panic!("request {i} did not complete"));
            assert_eq!((completed_in, resent), (View(0), 0), "view {view} named, request {i}");
        }
    }
}

#[test]
fn pbft_clients_are_not_steered_by_one_faulty_replica() {
    let quorum = ClusterConfig::new(N).unwrap().reply_quorum();
    one_faulty_replica_cannot_steer_the_client(quorum, 3, [3, 5, u64::MAX], |id| {
        PbftReplica::new(ClusterConfig::new(N).unwrap(), id, SEED, CounterApp::new())
    });
}

#[test]
fn splitbft_clients_are_not_steered_by_one_faulty_replica() {
    let quorum = ClusterConfig::new(N).unwrap().reply_quorum();
    one_faulty_replica_cannot_steer_the_client(quorum, 3, [3, 5, u64::MAX], |id| {
        splitbft_replica(id, CounterApp::new())
    });
}

#[test]
fn hybrid_clients_are_not_steered_by_one_faulty_replica() {
    // n = 3: views whose primary is replica 1 or 2, not 0.
    let config = HybridConfig::new(3).unwrap();
    one_faulty_replica_cannot_steer_the_client(config.reply_quorum(), 2, [4, 5, u64::MAX - 1], |id| {
        HybridReplica::new(config.clone(), id, SEED, Usig::new(SEED, id), CounterApp::new())
    });
}
