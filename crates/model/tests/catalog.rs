//! The fault catalog on the lock-step cluster: every schedule, on every
//! stack it supports, at `n = 4` and `n = 7`.

use splitbft_model::chaos::{self, schedule, Deployment, RunReport, Schedule, Stack};
use std::time::{Duration, Instant};

fn run(schedule: &Schedule, deployment: &Deployment) -> RunReport {
    let report = chaos::run(schedule, deployment).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.ok(), "{report}");
    report
}

/// The schedules that crash a replica, commit through the gap and
/// restart it.
const CRASH_GAPS: [&str; 3] = ["rolling-restart", "repeated-kill", "drain-restart"];

/// Every victim rejoins and commits advance in every phase — and, the
/// point of the broker's suffix ring, at least one victim rejoins
/// through the log suffix: suffix messages were applied and executing
/// them bought progress. The gaps cross sealed checkpoints, so victims
/// also restore a peer checkpoint on the way.
#[test]
fn splitbft_rolling_restart_rejoins_through_the_log_suffix() {
    let report = run(&schedule::rolling_restart(4), &Deployment::new(Stack::SplitBft, 4));
    assert_eq!(report.phases.len(), 4, "one phase per replica");
    for phase in &report.phases {
        assert_eq!(phase.rejoined, Some(true), "{}", phase.name);
        assert!(phase.commits > 0, "{}", phase.name);
    }
    assert!(report.suffix_messages_applied() > 0, "{report}");
    assert!(report.suffix_progress() > 0, "{report}");
    assert!(report.checkpoint_restores() > 0, "{report}");
}

/// The hybrid has no view change, so while its fixed primary is down
/// nothing commits. Restarted from its WAL, the primary must answer
/// fresh requests and commits must resume — without a peer checkpoint,
/// which a primary that lost its executed log would have to wait for
/// (the hybrid's checkpoints are 64 executions apart). The backups
/// after it rejoin through a peer checkpoint.
#[test]
fn minbft_rolling_restart_brings_the_fixed_primary_back_from_its_wal() {
    for schedule in [schedule::rolling_restart(4), schedule::drain_restart(4)] {
        let report = run(&schedule, &Deployment::new(Stack::Hybrid, 4));
        let primary = &report.phases[0];
        assert_eq!(primary.rejoined, Some(true), "{report}");
        assert!(primary.commits > 0, "{report}");
        assert_eq!(primary.checkpoint_restores, 0, "{report}");
        assert!(report.phases[1..].iter().all(|p| p.checkpoint_restores > 0), "{report}");
    }
}

#[test]
fn the_same_schedule_gives_the_same_replies() {
    for (schedule, deployment) in [
        (schedule::primary_kill(4, 2), Deployment::new(Stack::Pbft, 4)),
        (schedule::reorder_under_load(4), Deployment::new(Stack::SplitBft, 4)),
    ] {
        let first = run(&schedule, &deployment);
        assert!(!first.replies.is_empty());
        assert_eq!(first, run(&schedule, &deployment), "{first}");
    }
}

#[test]
fn pbft_survives_an_equivocating_primary() {
    let report = run(&schedule::equivocate_under_load(4), &Deployment::new(Stack::Pbft, 4));
    assert!(report.phases.iter().all(|p| p.commits > 0), "{report}");
    // Nothing commits in view 0: every accepted reply comes from a
    // later view, after the backups deposed the equivocator.
    assert!(report.replies.iter().all(|r| r.view.0 > 0), "{report}");
}

/// The whole matrix: every schedule on every stack it supports at
/// `n = 4` and `n = 7`, plus the sharded rolling restart. Every phase
/// must pass — commits advance where expected, every victim rejoins —
/// the oracle must see no fork or rollback, every crash-gap run must
/// restore at least one peer checkpoint, and each run must take under
/// ten seconds. `--nocapture` prints a report per run.
#[test]
fn every_schedule_passes_on_every_stack_it_supports() {
    let mut deployments: Vec<Deployment> = [4, 7]
        .into_iter()
        .flat_map(|n| Stack::ALL.map(|stack| Deployment::new(stack, n)))
        .collect();
    deployments.push(Deployment { shards: 2, ..Deployment::new(Stack::Pbft, 4) });
    let started = Instant::now();
    let (mut runs, mut skipped, mut failed) = (0, 0, Vec::new());
    for deployment in &deployments {
        for name in Schedule::NAMES {
            if deployment.shards > 1 && *name != "rolling-restart" {
                continue;
            }
            let schedule = Schedule::by_name(name, deployment.n, 3).unwrap();
            if let Err(reason) = chaos::validate(&schedule, deployment) {
                println!("skipped {reason}");
                skipped += 1;
                continue;
            }
            let began = Instant::now();
            let report = chaos::run(&schedule, deployment).unwrap_or_else(|e| panic!("{e}"));
            let took = began.elapsed();
            print!("{took:>8.2?}  {report}");
            let no_checkpoint = CRASH_GAPS.contains(name) && report.checkpoint_restores() == 0;
            if !report.ok() || no_checkpoint || took >= Duration::from_secs(10) {
                failed.push(format!("{name} on {deployment} ({took:.2?})"));
            }
            runs += 1;
        }
    }
    println!("{runs} runs, {skipped} rejected up front, in {:.1?}", started.elapsed());
    assert!(failed.is_empty(), "failed or took 10 s or more: {failed:#?}");
}
