//! Quickstart: a live 4-replica SplitBFT cluster replicating a key-value
//! store, with a client doing authenticated PUT/GET round-trips.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use splitbft::prelude::*;
use std::net::SocketAddr;
use std::time::Duration;

const MASTER_SEED: u64 = 42;

fn main() {
    let config = ClusterConfig::new(4).expect("4 replicas");
    println!("Spawning a {}-replica SplitBFT cluster (f = {})…", config.n(), config.f());

    // Each replica hosts three enclaves (Preparation / Confirmation /
    // Execution) behind an untrusted broker, here one replica per thread
    // on an in-process bus: no sockets, but the same hosting core and the
    // same framed bytes as the TCP runtime (see `socket_cluster`).
    let backend = InProcessBackend::new();
    let any: SocketAddr = "127.0.0.1:0".parse().expect("address");
    let bound: Vec<_> =
        config.replicas().map(|id| backend.bind(id, any).expect("reserve a bus slot")).collect();
    let peers: Vec<PeerAddr> = config
        .replicas()
        .zip(&bound)
        .map(|(id, b)| PeerAddr { id, addr: backend.local_addr(b).expect("bus address") })
        .collect();
    let nodes: Vec<_> = bound
        .into_iter()
        .zip(&peers)
        .map(|(bound, me)| {
            let replica = SplitBftReplica::new(
                config.clone(),
                me.id,
                MASTER_SEED,
                KeyValueStore::new(),
                ExecMode::Hardware,
                CostModel::paper_calibrated(),
            );
            backend
                .start(bound, NodeConfig::new(me.id, me.addr, peers.clone()), replica)
                .expect("start node")
        })
        .collect();

    // A plaintext-mode client (see the `confidentiality` example for the
    // encrypted path with attestation).
    let mut client =
        SplitBftClient::new(config.clone(), ClientId(1), MASTER_SEED, 7).with_plaintext();
    let addrs: Vec<SocketAddr> = peers.iter().map(|p| p.addr).collect();
    let mut link = backend
        .connect_client(client.id(), &addrs, Duration::from_secs(1))
        .expect("connect to the cluster");

    let ops: Vec<(&str, bytes::Bytes)> = vec![
        ("PUT city=Braunschweig", KvOp::put(b"city", b"Braunschweig").encode_op()),
        ("PUT proto=SplitBFT", KvOp::put(b"proto", b"SplitBFT").encode_op()),
        ("GET city", KvOp::get(b"city").encode_op()),
        ("DELETE proto", KvOp::delete(b"proto").encode_op()),
        ("GET proto", KvOp::get(b"proto").encode_op()),
    ];

    for (label, op) in ops {
        let request = client.issue(&op);
        // Clients send to the current primary (replica 0 in view 0).
        link.send_to(0, &[request]).expect("primary reachable");

        // Collect replies until f + 1 match.
        let result = loop {
            let reply =
                link.replies().recv_timeout(Duration::from_secs(10)).expect("cluster replies");
            if let ClientEvent::Completed(result) = client.on_reply(&reply) {
                break result;
            }
        };
        println!("  {label:24} -> {:?}", String::from_utf8_lossy(&result));
    }

    println!("All operations agreed by a byzantine quorum. Shutting down.");
    nodes.into_iter().for_each(RunningNode::shutdown);
}
