//! SplitBFT as the ordering service of a permissioned blockchain — the
//! paper's Blockchain-as-a-Service scenario. Transactions are totally
//! ordered by the compartmentalized agreement; every five form a block
//! that the Execution enclave seals and hands out by ocall. No runtime
//! stores those sealed blobs (ARCHITECTURE.md, "Sealed blocks"), so the
//! chain shows in each replica's state.
//!
//! ```sh
//! cargo run --example blockchain
//! ```

use splitbft::prelude::*;

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
    println!("\nThe chain heads match on every replica: byzantine agreement over blocks.");
}
