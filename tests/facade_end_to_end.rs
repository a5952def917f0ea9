//! Cross-crate integration: the facade's in-memory cluster hosting both
//! protocol stacks end to end — framed bytes between real hosting cores,
//! the same stall timer and state-transfer client the socket runtime
//! runs, on one thread and a virtual clock. (The `_over_threads` names
//! date from the thread bus these scenarios first ran on.)

use splitbft::prelude::*;
use splitbft::types::{FaultCommand, Reply, Request};

const SEED: u64 = 31337;
const N: usize = 4;

fn cluster<P: Protocol>(make: impl Fn(ReplicaId) -> P) -> Cluster<P> {
    Cluster::new((0..N as u32).map(|i| make(ReplicaId(i))))
}

/// Cuts the view-0 primary off from every other replica (clients still
/// reach it).
fn isolate_primary<P: Protocol>(cluster: &Cluster<P>) {
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
fn splitbft_kvs_over_threads() {
    let config = ClusterConfig::new(N).unwrap();
    let mut client = SplitBftClient::new(config, ClientId(9), SEED, 1).with_plaintext();
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
fn pbft_counter_over_threads() {
    let config = ClusterConfig::new(N).unwrap();
    let mut client = LockstepClient::new(config.reply_quorum(), ClientId(2), SEED);
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
fn splitbft_survives_view_change_over_threads() {
    // Cut the view-0 primary off from everyone. The client broadcasts, so
    // the three connected replicas hold a pending request nobody orders;
    // their request-aware timers fire, they move to view 1 (or beyond)
    // without replica 0, and the new primary serves the request.
    let config = ClusterConfig::new(N).unwrap();
    let mut client = SplitBftClient::new(config, ClientId(5), SEED, 3).with_plaintext();
    let mut cluster = cluster(|id| splitbft_replica(id, CounterApp::new()));
    isolate_primary(&cluster);

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
    mut client: LockstepClient,
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
    isolate_primary(&cluster);
    let view = put(&mut cluster, 4, &[0, 1, 2, 3]);
    assert!(view >= View(1), "committed in {view:?}, but view 0's primary is unreachable");
}

#[test]
fn pbft_changes_view_with_a_large_state() {
    let quorum = ClusterConfig::new(N).unwrap().reply_quorum();
    view_change_with_a_large_state(
        LockstepClient::new(quorum, ClientId(11), SEED),
        |id, config, kvs| PbftReplica::new(config, id, SEED, kvs),
    );
}

#[test]
fn splitbft_changes_view_with_a_large_state() {
    let quorum = ClusterConfig::new(N).unwrap().reply_quorum();
    view_change_with_a_large_state(
        LockstepClient::new(quorum, ClientId(12), SEED),
        |id, config, kvs| {
            let (mode, cost) = (ExecMode::Hardware, CostModel::paper_calibrated());
            SplitBftReplica::new(config, id, SEED, kvs, mode, cost)
        },
    );
}
