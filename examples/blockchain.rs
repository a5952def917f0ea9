//! SplitBFT as the ordering service of a permissioned blockchain — the
//! paper's Blockchain-as-a-Service scenario. Transactions are totally
//! ordered by the compartmentalized agreement; every five form a block
//! that the Execution enclave seals before handing it to untrusted
//! storage.
//!
//! ```sh
//! cargo run --example blockchain
//! ```

use splitbft::net::transport::frame_kind;
use splitbft::prelude::*;
use splitbft::types::wire::decode;
use splitbft::types::ConsensusMessage;
use splitbft_app::blockchain::Block;
use std::cell::RefCell;
use std::rc::Rc;

const MASTER_SEED: u64 = 77;

fn main() {
    let config = ClusterConfig::new(4).expect("4 replicas");
    println!("SplitBFT ordering service, {} replicas, blocks of 5 transactions\n", config.n());

    let mut cluster = Cluster::new(config.replicas().map(|id| {
        SplitBftReplica::new(
            config.clone(),
            id,
            MASTER_SEED,
            Blockchain::new(),
            ExecMode::Hardware,
            CostModel::paper_calibrated(),
        )
    }));

    // A sealed block leaves the Execution enclave as a `Persist` event,
    // which has no network footprint and so never reaches the hosting
    // runtime. To watch replica 0's, its commit votes are taken off the
    // wire and handed to its broker here, where every event is visible.
    let votes = Rc::new(RefCell::new(Vec::new()));
    cluster.observe({
        let votes = Rc::clone(&votes);
        move |frame| {
            if frame.to == ReplicaId(0) && frame.kind == frame_kind::PROTOCOL {
                if let Ok(vote @ ConsensusMessage::Commit(_)) = decode(frame.payload) {
                    votes.borrow_mut().push(vote);
                    return false;
                }
            }
            true
        }
    });
    let mut sealed_blocks: Vec<bytes::Bytes> = Vec::new();

    // Submit 12 transactions: 2 full blocks + 2 pending.
    for tx in 0..12u64 {
        let payload = format!("transfer#{tx:02}");
        let request = make_request(
            MASTER_SEED,
            ClientId(0),
            Timestamp(tx + 1),
            bytes::Bytes::from(payload.into_bytes()),
        );
        cluster.submit(0, &[request]);
        for vote in votes.take() {
            cluster.drive(0, |replica| {
                let mut outputs = Vec::new();
                for event in replica.on_network_message(vote) {
                    match event {
                        ReplicaEvent::Broadcast(msg) => outputs.push(ProtocolOutput::Broadcast(msg)),
                        ReplicaEvent::Reply { to, reply } => {
                            outputs.push(ProtocolOutput::Reply { to, reply })
                        }
                        ReplicaEvent::Persist(blob) => sealed_blocks.push(blob),
                        _ => {}
                    }
                }
                outputs
            });
        }
        cluster.run();
    }

    println!("Chain state per replica:");
    for r in (0..4).map(|i| cluster.replica(i)) {
        println!(
            "  {}: height {} | head {} | pending {}",
            r.id(),
            r.app().height(),
            r.app().head().short(),
            r.app().pending_len()
        );
    }

    println!("\nSealed blocks persisted by replica 0's Execution enclave: {}", sealed_blocks.len());
    for (i, blob) in sealed_blocks.iter().enumerate() {
        // The environment sees only ciphertext — it cannot decode a Block.
        let as_block: Result<Block, _> = decode(blob);
        println!(
            "  block #{i}: {} bytes, decodable by the environment: {}",
            blob.len(),
            as_block.is_ok()
        );
    }
    println!("\nThe chain heads match on every replica: byzantine agreement over blocks.");
}
