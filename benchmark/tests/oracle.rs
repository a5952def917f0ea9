//! The oracle bites: a corrupted reply MAC and dropped commit votes
//! both fail the check; the two tolerated fault scenarios pass it.

use splitbft_benchmark::sut::NodeFault;
use splitbft_benchmark::workloads::{self, Kind, PumpOptions, Sizing, Stack};

const ALL: &[usize] = &[0, 1, 2, 3];

fn run_with(fault: Option<(NodeFault, &'static [usize])>) -> workloads::PumpReport {
    let spec = workloads::find("split-batched").expect("workload exists");
    let Kind::Pump(stack) = spec.kind else {
        panic!("pump workload")
    };
    let options = PumpOptions {
        fault,
        ..PumpOptions::default()
    };
    let sizing = Sizing {
        window_requests: 32,
        windows: 20,
        warmup_requests: 64,
    };
    workloads::run_pump(stack, spec, 3, sizing, options).expect("runs")
}

#[test]
fn a_clean_run_passes() {
    let report = run_with(None);
    assert_eq!(report.failures.total(), 0);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.completed, report.attempted);
}

#[test]
fn one_corrupt_reply_mac_fails_the_check() {
    // Replica 0's reply is the first the client reads; with its MAC
    // broken every request needs a third reply to reach f + 1.
    let report = run_with(Some((NodeFault::CorruptReplyMac, &[0])));
    assert!(report.failures.unverified > 0, "{:?}", report.failures);
    // The defect is armed after set-up: every measured request fails.
    assert_eq!(report.failures.unverified, report.run.requests);
    assert_eq!(report.completed, report.attempted - report.run.requests);
}

#[test]
fn dropped_commits_fail_the_check() {
    // With no commit vote on the wire nothing executes: the pump runs
    // dry and every outstanding request counts as failed.
    let report = run_with(Some((NodeFault::DropCommits, ALL)));
    assert!(report.failures.timed_out > 0, "{:?}", report.failures);
    assert!(
        report.violations.iter().any(|v| v.contains("ran dry")),
        "{:?}",
        report.violations
    );
}

#[test]
fn one_lying_replica_out_of_reach_of_the_client_is_tolerated() {
    // Replica 3's reply arrives after the quorum: f = 1 is tolerated
    // and the oracle must not cry wolf.
    let report = run_with(Some((NodeFault::CorruptReplyMac, &[3])));
    assert_eq!(report.failures.total(), 0, "{:?}", report.failures);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn fault_scenarios_hold_their_oracles() {
    for stack in [Stack::SplitCounter, Stack::PbftCounter] {
        workloads::silent_backup_scenario(stack, 5).expect("a silent backup is tolerated");
        let (us, msgs) = workloads::failover_scenario(stack, 5, 3).expect("fail-over commits");
        assert!(us > 0.0 && msgs > 0.0);
    }
}
