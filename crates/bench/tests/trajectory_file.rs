//! The committed `BENCH_trajectory.json` keeps its shape: every record
//! carries all five end-to-end metrics, pairs won ≤ pairs, and each
//! median inside its quartiles.

use splitbft_bench::loc::workspace_root;
use splitbft_bench::trajectory::{check, FILE};

#[test]
fn the_committed_trajectory_file_checks() {
    let path = workspace_root().join(FILE);
    let text = std::fs::read_to_string(&path).expect("the trajectory file is committed");
    let records = check(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(records > 0, "the trajectory holds at least one record");
}
