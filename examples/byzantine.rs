//! Byzantine enclaves in action: arm one faulty enclave of each
//! compartment type on three different replicas (the paper's Figure 1
//! scenario) and watch the cluster stay both safe and live; then push
//! past the fault model and watch the safety checker catch the
//! violation.
//!
//! ```sh
//! cargo run --example byzantine
//! ```

use splitbft::model::{run_scenario, Scenario};
use splitbft::prelude::*;

const MASTER_SEED: u64 = 404;

fn main() {
    let config = ClusterConfig::new(4).expect("4 replicas");
    let mut cluster = Cluster::new(config.replicas().map(|id| {
        SplitBftReplica::new(
            config.clone(),
            id,
            MASTER_SEED,
            CounterApp::new(),
            ExecMode::Hardware,
            CostModel::paper_calibrated(),
        )
    }));

    println!("Arming faults (one enclave per compartment type, different replicas):");
    println!("  r1 Preparation  -> mute (drops all its outputs)");
    println!("  r2 Confirmation -> corrupt (flips bits in every ocall)");
    println!("  r3 Execution    -> dead (swallows every ecall)\n");
    cluster
        .replica_mut(1)
        .arm_fault(CompartmentKind::Preparation, FaultPlan::immediate(FaultKind::MuteOcalls));
    cluster.replica_mut(2).arm_fault(
        CompartmentKind::Confirmation,
        FaultPlan::immediate(FaultKind::CorruptOcalls { xor: 0x5A }),
    );
    cluster
        .replica_mut(3)
        .arm_fault(CompartmentKind::Execution, FaultPlan::immediate(FaultKind::DropEcalls));

    for ts in 1..=5u64 {
        let request =
            make_request(MASTER_SEED, ClientId(0), Timestamp(ts), bytes::Bytes::from_static(b"inc"));
        cluster.submit(0, &[request]);
    }

    println!("After 5 requests:");
    for r in (0..4).map(|i| cluster.replica(i)) {
        println!("  {}: counter = {}", r.id(), r.app().value());
    }
    assert!((0..3).all(|i| cluster.replica(i).app().value() == 5));
    println!("\nReplicas with healthy Execution enclaves executed everything —");
    println!("three byzantine enclaves (one per type) could not stop or split the cluster.\n");

    println!("Now exceeding the fault model via the safety explorer:");
    for scenario in [Scenario::SplitBftFEnclavesPerType, Scenario::SplitBftBeyondModel] {
        let verdict = run_scenario(scenario, 7);
        println!(
            "  {:52} -> {}",
            scenario.describe(),
            if verdict.safety_held { "SAFE" } else { "SAFETY VIOLATED (as the model predicts)" }
        );
    }
}
