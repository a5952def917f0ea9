//! Crash the primary and watch all three compartments of every surviving
//! replica move to the next view, elect the new primary, and keep
//! serving requests.
//!
//! ```sh
//! cargo run --example view_change
//! ```

use splitbft::prelude::*;

const MASTER_SEED: u64 = 11;

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
    let inc = |ts| {
        make_request(MASTER_SEED, ClientId(0), Timestamp(ts), bytes::Bytes::from_static(b"inc"))
    };

    // Normal operation under primary r0.
    println!("View 0, primary r0: ordering one request…");
    cluster.submit(0, &[inc(1)]);
    for r in (0..4).map(|i| cluster.replica(i)) {
        println!("  {}: counter = {}, views (prep/conf/exec) = {:?}", r.id(), r.app().value(), r.views());
    }

    // The primary's machine dies.
    println!("\n*** replica 0 (the primary) crashes ***\n");
    cluster.crash(0);

    // The environments' request timers expire: each surviving replica's
    // Confirmation enclave votes for a view change (timers are untrusted
    // liveness logic, per principle P1).
    println!("Timers expire; Confirmation enclaves send ViewChange for view 1…");
    for i in 1..4 {
        cluster.drive(i, Protocol::on_timeout);
    }
    cluster.run();

    for i in 1..4 {
        let r = cluster.replica(i);
        let (prep, conf, exec) = r.views();
        println!("  {}: views prep={prep} conf={conf} exec={exec}", r.id());
        assert_eq!(conf, View(1));
    }

    // The new primary (r1) serves clients.
    println!("\nView 1, primary r1: ordering the next request…");
    cluster.submit(1, &[inc(2)]);
    for i in 1..4 {
        let r = cluster.replica(i);
        println!("  {}: counter = {}", r.id(), r.app().value());
        assert_eq!(r.app().value(), 2);
    }
    println!("\nThe cluster survived the primary failure: liveness restored in view 1,");
    println!("no execution lost or duplicated.");
}
