//! Disk compatibility across the crypto rewrite: a data directory written
//! by the build *before* the SHA-NI kernel, keyed-state HMAC and
//! division-free signatures must recover under the build after it.
//!
//! The fixture (see its README) holds a sealed checkpoint and a WAL
//! suffix. Recovering it exercises every changed primitive against bytes
//! the old code produced: the AEAD keystream and streamed tag (unseal),
//! SHA-256 (checkpoint digest), and the client MAC check each replayed
//! request passes inside the Execution compartment before it executes.

use splitbft_app::CounterApp;
use splitbft_core::SplitBftReplica;
use splitbft_net::transport::Protocol;
use splitbft_store::{replica_sealing_identity, DurableProtocol};
use splitbft_tee::{CostModel, ExecMode};
use splitbft_types::{ClusterConfig, ReplicaId, SeqNum};
use std::path::Path;

const SEED: u64 = 42;
const REPLICA: ReplicaId = ReplicaId(3);

#[test]
fn data_dir_written_by_the_parent_build_recovers() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr14-splitbft-replica-3");
    // Recovery may rewrite the directory, so work on a copy.
    let dir = std::env::temp_dir().join(format!("splitbft-parent-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    // The WAL is committed as `wal.bin`: the repository ignores `*.log`.
    for (from, to) in [("checkpoint-128.sealed", "checkpoint-128.sealed"), ("wal.bin", "wal.log")] {
        std::fs::copy(fixture.join(from), dir.join(to)).expect("copy fixture file");
    }

    let replica = SplitBftReplica::new(
        ClusterConfig::new(4).expect("n = 4"),
        REPLICA,
        SEED,
        CounterApp::new(),
        ExecMode::Hardware,
        CostModel::paper_calibrated(),
    );
    let durable = DurableProtocol::recover(replica, &dir, replica_sealing_identity(SEED, REPLICA))
        .expect("recover the parent's data directory");

    let report = durable.recovery_report();
    assert!(report.checkpoint_errors.is_empty(), "{:?}", report.checkpoint_errors);
    assert!(report.rejected_checkpoint.is_none(), "{:?}", report.rejected_checkpoint);
    assert_eq!(report.restored_checkpoint, Some(SeqNum(128)));
    assert_eq!(report.replayed_events, 22);
    // 150 lock-step increments were committed before the kill; a replayed
    // request whose client MAC failed would have executed as a no-op.
    assert_eq!(durable.progress(), 150);
    assert_eq!(durable.inner().app().value(), 150);

    let _ = std::fs::remove_dir_all(&dir);
}
