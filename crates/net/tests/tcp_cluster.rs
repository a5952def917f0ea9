//! End-to-end socket clusters: four replicas of each protocol — PBFT,
//! SplitBFT, and the MinBFT-style hybrid — running over localhost TCP,
//! committing client requests through the full consensus pipeline, and
//! shutting down cleanly.
//!
//! This is the acceptance test for the deployable runtime: everything
//! travels as length-prefixed frames over real sockets, exactly like the
//! `splitbft-node` binary deploys it, just inside one test process.

use splitbft_app::{Client, ClientEvent, CounterApp};
use splitbft_core::SplitBftReplica;
use splitbft_hybrid::{HybridConfig, HybridReplica, Usig};
use splitbft_net::{EventedNode, NodeConfig, PeerAddr, TcpClient};
use splitbft_net::transport::Protocol;
use splitbft_pbft::Replica as PbftReplica;
use splitbft_tee::{CostModel, ExecMode};
use splitbft_types::{ClientId, ClusterConfig, ReplicaId, Reply};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const SEED: u64 = 1331;
const N: usize = 4;

/// Binds `N` listeners on ephemeral ports, builds the address book, and
/// starts one node per replica. Returns the nodes and the address book.
fn spawn_cluster<P: Protocol>(
    make: impl Fn(ReplicaId) -> P,
) -> (Vec<EventedNode>, Vec<SocketAddr>) {
    spawn_cluster_with(None, make)
}

/// [`spawn_cluster`] with the view-change timer armed at `timeout`.
fn spawn_cluster_with<P: Protocol>(
    timeout: Option<Duration>,
    make: impl Fn(ReplicaId) -> P,
) -> (Vec<EventedNode>, Vec<SocketAddr>) {
    let bound: Vec<_> = (0..N)
        .map(|i| {
            EventedNode::bind(ReplicaId(i as u32), "127.0.0.1:0".parse().unwrap())
                .expect("bind listener")
        })
        .collect();
    let peers: Vec<PeerAddr> = bound
        .iter()
        .map(|b| PeerAddr { id: b.id(), addr: b.local_addr().expect("bound addr") })
        .collect();
    let addrs: Vec<SocketAddr> = peers.iter().map(|p| p.addr).collect();
    let nodes: Vec<EventedNode> = bound
        .into_iter()
        .map(|b| {
            let id = b.id();
            let mut config =
                NodeConfig::new(id, "127.0.0.1:0".parse().unwrap(), peers.clone());
            config.timeout_every = timeout;
            b.start(config, make(id)).expect("start node")
        })
        .collect();
    (nodes, addrs)
}

/// Pumps replies from the socket into `on_reply` until it reports
/// completion or the deadline passes.
fn await_completion(
    client: &mut TcpClient,
    mut on_reply: impl FnMut(&Reply) -> bool,
    what: &str,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Some(reply) = client.recv_timeout(Duration::from_millis(500)) {
            if on_reply(&reply) {
                return;
            }
        }
    }
    panic!("{what}: no completion before deadline");
}

#[test]
fn pbft_cluster_commits_over_tcp() {
    let (nodes, addrs) = spawn_cluster(|id| {
        PbftReplica::new(ClusterConfig::new(N).unwrap(), id, SEED, CounterApp::new())
    });

    let config = ClusterConfig::new(N).unwrap();
    let mut protocol_client = Client::new(config.reply_quorum(), ClientId(3), SEED);
    let mut tcp = TcpClient::connect(ClientId(3), &addrs, Duration::from_secs(10)).unwrap();

    for expected in 1..=3u64 {
        let request = protocol_client.issue(bytes::Bytes::from_static(b"inc"));
        tcp.send_to(0, &[request]).unwrap(); // replica 0 is primary in view 0
        let mut result = None;
        await_completion(
            &mut tcp,
            |reply| match protocol_client.on_reply(reply) {
                ClientEvent::Completed(r) => {
                    result = Some(r);
                    true
                }
                _ => false,
            },
            "pbft request",
        );
        assert_eq!(
            result.unwrap(),
            bytes::Bytes::copy_from_slice(&expected.to_le_bytes()),
            "counter should reach {expected}"
        );
    }

    tcp.close();
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn pbft_cluster_tolerates_f_crashed_backups() {
    let (mut nodes, addrs) = spawn_cluster(|id| {
        PbftReplica::new(ClusterConfig::new(N).unwrap(), id, SEED, CounterApp::new())
    });

    // Crash one backup (f = 1): the cluster must still commit, and the
    // client must still connect and assemble its f + 1 reply quorum.
    nodes.pop().unwrap().shutdown();

    let config = ClusterConfig::new(N).unwrap();
    let mut protocol_client = Client::new(config.reply_quorum(), ClientId(4), SEED);
    let mut tcp = TcpClient::connect(ClientId(4), &addrs, Duration::from_secs(3)).unwrap();
    assert_eq!(tcp.connected(), N - 1, "client should skip the dead replica");

    let request = protocol_client.issue(bytes::Bytes::from_static(b"inc"));
    tcp.send_to(0, &[request]).unwrap();
    let mut result = None;
    await_completion(
        &mut tcp,
        |reply| match protocol_client.on_reply(reply) {
            ClientEvent::Completed(r) => {
                result = Some(r);
                true
            }
            _ => false,
        },
        "pbft request with crashed backup",
    );
    assert_eq!(result.unwrap(), bytes::Bytes::copy_from_slice(&1u64.to_le_bytes()));

    tcp.close();
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn pbft_cluster_fails_over_a_crashed_primary() {
    // Arm the request-aware view-change timer: a deployed cluster must
    // depose a crashed primary once clients keep retransmitting.
    let (mut nodes, addrs) = spawn_cluster_with(Some(Duration::from_millis(300)), |id| {
        PbftReplica::new(ClusterConfig::new(N).unwrap(), id, SEED, CounterApp::new())
    });

    // Crash the view-0 primary (replica 0 is first in the vec).
    nodes.remove(0).shutdown();

    let config = ClusterConfig::new(N).unwrap();
    let mut protocol_client = Client::new(config.reply_quorum(), ClientId(6), SEED);
    let mut tcp = TcpClient::connect(ClientId(6), &addrs, Duration::from_secs(3)).unwrap();
    assert_eq!(tcp.connected(), N - 1);

    let request = protocol_client.issue(bytes::Bytes::from_static(b"inc"));
    // The primary is dead: broadcast, then keep retransmitting while the
    // backups' timers arm, fire, and elect replica 1.
    tcp.send_all(std::slice::from_ref(&request)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut result = None;
    while Instant::now() < deadline && result.is_none() {
        match tcp.recv_timeout(Duration::from_millis(500)) {
            Some(reply) => {
                if let ClientEvent::Completed(r) = protocol_client.on_reply(&reply) {
                    result = Some(r);
                }
            }
            None => {
                let _ = tcp.send_all(std::slice::from_ref(&request));
            }
        }
    }
    assert_eq!(
        result.expect("request should commit in the new view"),
        bytes::Bytes::copy_from_slice(&1u64.to_le_bytes())
    );

    tcp.close();
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn pbft_idle_cluster_does_not_churn_views() {
    let (nodes, addrs) = spawn_cluster_with(Some(Duration::from_millis(100)), |id| {
        PbftReplica::new(ClusterConfig::new(N).unwrap(), id, SEED, CounterApp::new())
    });

    // Many timer periods pass with no traffic: the request-aware tick
    // must not start view changes.
    std::thread::sleep(Duration::from_millis(600));

    // Replica 0 must still be primary: a request sent *only* to it (no
    // broadcast fallback, no retransmission) completes only in view 0.
    let config = ClusterConfig::new(N).unwrap();
    let mut protocol_client = Client::new(config.reply_quorum(), ClientId(7), SEED);
    let mut tcp = TcpClient::connect(ClientId(7), &addrs, Duration::from_secs(3)).unwrap();
    let request = protocol_client.issue(bytes::Bytes::from_static(b"inc"));
    tcp.send_to(0, &[request]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut completed = false;
    while Instant::now() < deadline && !completed {
        if let Some(reply) = tcp.recv_timeout(Duration::from_millis(200)) {
            completed =
                matches!(protocol_client.on_reply(&reply), ClientEvent::Completed(_));
        }
    }
    assert!(
        completed,
        "request to replica 0 went unanswered — the idle timers must have churned \
         the view away from it, which the request-aware tick exists to prevent"
    );

    tcp.close();
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn splitbft_cluster_commits_over_tcp() {
    let (nodes, addrs) = spawn_cluster(|id| {
        SplitBftReplica::new(
            ClusterConfig::new(N).unwrap(),
            id,
            SEED,
            CounterApp::new(),
            ExecMode::Hardware,
            CostModel::paper_calibrated(),
        )
    });

    let config = ClusterConfig::new(N).unwrap();
    let mut protocol_client = Client::new(config.reply_quorum(), ClientId(8), SEED);
    let mut tcp = TcpClient::connect(ClientId(8), &addrs, Duration::from_secs(10)).unwrap();

    for _ in 0..3 {
        let request = protocol_client.issue(b"inc");
        tcp.send_to(0, &[request]).unwrap();
        await_completion(
            &mut tcp,
            |reply| matches!(protocol_client.on_reply(reply), ClientEvent::Completed(_)),
            "splitbft request",
        );
    }

    tcp.close();
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn minbft_cluster_commits_over_tcp() {
    let (nodes, addrs) = spawn_cluster(|id| {
        HybridReplica::new(
            HybridConfig::new(N).unwrap(),
            id,
            SEED,
            Usig::new(SEED, id),
            CounterApp::new(),
        )
    });

    let config = HybridConfig::new(N).unwrap();
    let mut protocol_client = Client::new(config.reply_quorum(), ClientId(5), SEED);
    let mut tcp = TcpClient::connect(ClientId(5), &addrs, Duration::from_secs(10)).unwrap();

    for expected in 1..=3u64 {
        let request = protocol_client.issue(bytes::Bytes::from_static(b"inc"));
        tcp.send_to(0, &[request]).unwrap();
        let mut result = None;
        await_completion(
            &mut tcp,
            |reply| match protocol_client.on_reply(reply) {
                ClientEvent::Completed(r) => {
                    result = Some(r);
                    true
                }
                _ => false,
            },
            "minbft request",
        );
        assert_eq!(result.unwrap(), bytes::Bytes::copy_from_slice(&expected.to_le_bytes()));
    }

    tcp.close();
    for node in nodes {
        node.shutdown();
    }
}
