//! Socket cluster walkthrough: a 4-replica SplitBFT deployment over real
//! localhost TCP connections, inside one process for convenience.
//!
//! ```sh
//! cargo run --example socket_cluster
//! ```
//!
//! The `quickstart` example runs its replicas in the in-memory lockstep
//! cluster; here every replica owns a real listener, peers connect over
//! TCP, and every protocol message crosses a socket as a length-prefixed
//! frame — the same path the `splitbft-node` binary uses when the four
//! replicas are four separate processes (or VMs, as deployed in the
//! paper). See `docs/ARCHITECTURE.md` for the layer diagram.

use splitbft::prelude::*;
use std::time::Duration;

const MASTER_SEED: u64 = 42;

fn main() {
    let config = ClusterConfig::new(4).expect("4 replicas");
    println!("Starting a {}-replica SplitBFT cluster over TCP…", config.n());

    // Step 1: reserve a listener per replica. Binding first and starting
    // second lets the OS pick free ports while every node still learns
    // the complete address book before any traffic flows.
    let bound: Vec<_> = (0..config.n())
        .map(|i| {
            EventedNode::bind(ReplicaId(i as u32), "127.0.0.1:0".parse().unwrap())
                .expect("bind listener")
        })
        .collect();
    let peers: Vec<PeerAddr> = bound
        .iter()
        .map(|b| PeerAddr { id: b.id(), addr: b.local_addr().expect("addr") })
        .collect();
    let addrs: Vec<std::net::SocketAddr> = peers.iter().map(|p| p.addr).collect();
    for peer in &peers {
        println!("  replica {} listens on {}", peer.id.0, peer.addr);
    }

    // Step 2: start the nodes. Each one is a single readiness-loop
    // thread: it accepts connections, keeps one reconnecting link per
    // peer (batching message bursts into single writes), and owns the
    // replica state machine — here a full SplitBFT broker with its
    // three compartments.
    let nodes: Vec<EventedNode> = bound
        .into_iter()
        .map(|b| {
            let id = b.id();
            let node_config = NodeConfig::new(id, "127.0.0.1:0".parse().unwrap(), peers.clone());
            b.start(
                node_config,
                SplitBftReplica::new(
                    ClusterConfig::new(4).unwrap(),
                    id,
                    MASTER_SEED,
                    KeyValueStore::new(),
                    ExecMode::Hardware,
                    CostModel::paper_calibrated(),
                ),
            )
            .expect("start node")
        })
        .collect();

    // Step 3: connect a client. The TCP client dials *every* replica —
    // replies must come from f + 1 distinct replicas to count — while
    // the protocol client (`SplitBftClient`) owns request authentication
    // and the reply-quorum rule.
    let mut protocol_client =
        SplitBftClient::new(config.clone(), ClientId(1), MASTER_SEED, 7).with_plaintext();
    let mut tcp = TcpClient::connect(ClientId(1), &addrs, Duration::from_secs(10))
        .expect("connect client");

    let ops: Vec<(&str, bytes::Bytes)> = vec![
        ("PUT city=Braunschweig", KvOp::put(b"city", b"Braunschweig").encode_op()),
        ("PUT proto=SplitBFT", KvOp::put(b"proto", b"SplitBFT").encode_op()),
        ("GET city", KvOp::get(b"city").encode_op()),
        ("DELETE proto", KvOp::delete(b"proto").encode_op()),
        ("GET proto", KvOp::get(b"proto").encode_op()),
    ];

    for (label, op) in ops {
        // Requests go to the view-0 primary (replica 0). From there the
        // Preparation compartments order the batch, Confirmation
        // certifies it, and Execution runs it and replies — all across
        // sockets.
        let request = protocol_client.issue(&op);
        tcp.send_to(0, &[request]).expect("send request");

        let result = loop {
            let reply = tcp.recv_timeout(Duration::from_secs(10)).expect("reply before timeout");
            if let ClientEvent::Completed(result) = protocol_client.on_reply(&reply) {
                break result;
            }
        };
        println!("  {label:24} -> {:?}", String::from_utf8_lossy(&result));
    }

    println!("All operations agreed over TCP. Shutting down.");
    tcp.close();
    for node in nodes {
        node.shutdown();
    }
}
