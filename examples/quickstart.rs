//! Quickstart: a live 4-replica SplitBFT cluster replicating a key-value
//! store, with a client doing authenticated PUT/GET round-trips.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use splitbft::prelude::*;

const MASTER_SEED: u64 = 42;

fn main() {
    let config = ClusterConfig::new(4).expect("4 replicas");
    println!("Starting a {}-replica SplitBFT cluster (f = {})…", config.n(), config.f());

    // Each replica hosts three enclaves (Preparation / Confirmation /
    // Execution) behind an untrusted broker. Here the four of them run
    // in the deterministic in-memory cluster: no sockets and no threads,
    // but the same hosting core and the same framed bytes as the TCP
    // runtime (see `socket_cluster`).
    let mut cluster = Cluster::new(config.replicas().map(|id| {
        SplitBftReplica::new(
            config.clone(),
            id,
            MASTER_SEED,
            KeyValueStore::new(),
            ExecMode::Hardware,
            CostModel::paper_calibrated(),
        )
    }));

    // A plaintext-mode client (see the `confidentiality` example for the
    // encrypted path with attestation).
    let mut client =
        SplitBftClient::new(config.clone(), ClientId(1), MASTER_SEED, 7).with_plaintext();

    let ops: Vec<(&str, bytes::Bytes)> = vec![
        ("PUT city=Braunschweig", KvOp::put(b"city", b"Braunschweig").encode_op()),
        ("PUT proto=SplitBFT", KvOp::put(b"proto", b"SplitBFT").encode_op()),
        ("GET city", KvOp::get(b"city").encode_op()),
        ("DELETE proto", KvOp::delete(b"proto").encode_op()),
        ("GET proto", KvOp::get(b"proto").encode_op()),
    ];

    for (label, op) in ops {
        let request = client.issue(&op);
        // Clients send to the current primary (replica 0 in view 0);
        // `submit` returns once the cluster has nothing left to deliver.
        cluster.submit(0, &[request]);

        // Collect replies until f + 1 match.
        let result = cluster
            .replies
            .drain(..)
            .find_map(|reply| match client.on_reply(&reply) {
                ClientEvent::Completed(result) => Some(result),
                _ => None,
            })
            .expect("the cluster answers with a quorum");
        println!("  {label:24} -> {:?}", String::from_utf8_lossy(&result));
    }

    println!("All operations agreed by a byzantine quorum.");
}
