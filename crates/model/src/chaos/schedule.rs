//! Deterministic fault schedules: the scenario catalog.
//!
//! A [`Schedule`] is a fixed list of [`Phase`]s, each a sequence of
//! [`FaultStep`]s that [`super::run`] executes verbatim on a
//! `lockstep::Cluster` — no randomness beyond the fault plan's seed, no
//! wall clock — so a failing run names the exact phase and step that
//! broke, and replays. The catalog mirrors the failure sequences
//! operators actually perform or fear:
//!
//! - [`rolling_restart`] — crash + restart every replica in sequence
//!   (the "upgrade the whole fleet" drill);
//! - [`repeated_kill`] — crash the same replica over and over (a
//!   crash-looping node must not poison its data dir);
//! - [`primary_kill`] — target whoever is expected to lead, forcing a
//!   view change each round;
//! - [`staggered_start`] — bring the cluster up one replica at a time
//!   under client traffic that started before quorum existed;
//! - [`partition_primary`] — cut the primary off bidirectionally (no
//!   replica dies), demand the majority side view-changes and commits,
//!   then heal;
//! - [`asymmetric_link`] — break exactly one direction of one backup
//!   link; redundancy must mask it without a view change;
//! - [`equivocate_under_load`] — replica 0 runs as an
//!   [`ByzantineMode::EquivocatingPrimary`] the whole run; honest
//!   replicas must view-change past it and keep committing, with the
//!   client oracle watching for forks throughout;
//! - [`concurrent_victim`] — on `n = 7` (`f = 2`), partition *two*
//!   replicas at once (the full fault budget), then heal and demand
//!   commits resume;
//! - [`lossy_link`] — drop a quarter of the frames in both directions
//!   of one backup↔backup link; quorum redundancy must mask the loss
//!   with commits advancing throughout;
//! - [`reorder_under_load`] — hold back a share of that link's frames
//!   so later ones overtake them; protocol buffering must absorb the
//!   inversion without a view change;
//! - [`duplicate_storm`] — deliver half the primary's frames to two
//!   backups twice (and one backup's frames to the primary); every
//!   handler must be idempotent under replayed traffic;
//! - [`drain_restart`] — gracefully drain + restart every replica in
//!   sequence; each victim must seal a checkpoint, flush its WAL, and
//!   rejoin with zero lost committed requests;
//! - [`silent_backup`] and [`corrupt_mac_backup`] — replica 3 swallows
//!   every output, or flips one authenticator byte on each; the honest
//!   replicas must mask it within `f`.
//!
//! Partitions and link rules are [`FaultCommand`]s on the cluster's
//! fault plan (`Cluster::faults`). The link-rule rows exercise the
//! per-link drop/duplicate/reorder rules instead of named cuts.

use crate::byzantine::ByzantineMode;
use splitbft_types::{FaultCommand, LinkRule, ReplicaId};
use std::time::Duration;

/// One action inside a phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultStep {
    /// Crash the replica — no flush, no goodbye.
    Kill(usize),
    /// Drain the replica gracefully, as `SIGTERM` does, then crash it:
    /// it stops admitting client requests, finishes in-flight batches,
    /// seals a checkpoint and flushes its WAL. The opposite drill to
    /// [`FaultStep::Kill`] — an upgrade, not a crash — and the client
    /// oracle doubles as the zero-lost-commits assertion (a post-drain
    /// rollback would re-issue counter values and register as a fork).
    Drain(usize),
    /// (Re)start the replica from its data directory.
    Start(usize),
    /// Wait for the replica to answer a *fresh* request (a reply
    /// carrying its id), proving it caught up and rejoined.
    AwaitRejoin(usize),
    /// Wait (bounded by the step budget) until the client has seen at
    /// least this many more commits. The evidence-based kill gap:
    /// commits made *while the victim is down* are exactly what its
    /// later log-suffix rejoin must replay.
    AwaitCommits(u64),
    /// Let the cluster run undisturbed (virtual time, stall timers
    /// ticking, the client still submitting).
    Sleep(Duration),
    /// Apply a partition, heal or link rule to the cluster's fault
    /// plan. Link rules draw from each link's seeded decision stream,
    /// so a schedule replays identically.
    Net(FaultCommand),
}

/// Cuts `side_a` off from `side_b`; one-way (`side_a → side_b` only)
/// unless `symmetric`.
fn cut(
    name: &str,
    side_a: impl IntoIterator<Item = u32>,
    side_b: impl IntoIterator<Item = u32>,
    symmetric: bool,
) -> FaultStep {
    FaultStep::Net(FaultCommand::Partition {
        name: name.into(),
        side_a: side_a.into_iter().map(ReplicaId).collect(),
        side_b: side_b.into_iter().map(ReplicaId).collect(),
        symmetric,
    })
}

/// The `from → to` link rule `rule` makes of a clean one.
fn degrade(from: u32, to: u32, rule: impl Fn(LinkRule) -> LinkRule) -> FaultStep {
    FaultStep::Net(FaultCommand::SetRule(rule(LinkRule::clean(ReplicaId(from), ReplicaId(to)))))
}

/// A named step sequence with its own commit-advance assertion window.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name (lands in the report).
    pub name: String,
    /// The replica this phase victimizes, if any (its event journal is
    /// read for rejoin evidence).
    pub victim: Option<usize>,
    /// Steps, executed in order.
    pub steps: Vec<FaultStep>,
    /// Whether commits must have advanced by the end of the phase
    /// (`false` only for phases that cannot have a quorum yet, e.g. the
    /// early steps of a staggered start).
    pub expect_advance: bool,
}

/// A complete scenario.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Scenario name.
    pub scenario: String,
    /// Whether the whole cluster starts before phase 1 (`false` for
    /// staggered start, whose phases start the replicas themselves).
    pub start_all: bool,
    /// Replicas hosted in a Byzantine mode for the whole run.
    pub byzantine: Vec<(usize, ByzantineMode)>,
    /// The phases, in order.
    pub phases: Vec<Phase>,
}

impl Schedule {
    /// Looks a scenario up by name.
    ///
    /// # Errors
    ///
    /// A human-readable message listing the known scenarios.
    pub fn by_name(name: &str, n: usize, rounds: usize) -> Result<Schedule, String> {
        match name {
            "rolling-restart" => Ok(rolling_restart(n)),
            "repeated-kill" => Ok(repeated_kill(n - 1, rounds)),
            "primary-kill" => Ok(primary_kill(n, rounds)),
            "staggered-start" => Ok(staggered_start(n)),
            "partition-primary" => Ok(partition_primary(n)),
            "asymmetric-link" => Ok(asymmetric_link(n)),
            "equivocate-under-load" => Ok(equivocate_under_load(n)),
            "concurrent-victim" => Ok(concurrent_victim(n)),
            "lossy-link" => Ok(lossy_link(n)),
            "reorder-under-load" => Ok(reorder_under_load(n)),
            "duplicate-storm" => Ok(duplicate_storm(n)),
            "drain-restart" => Ok(drain_restart(n)),
            "silent-backup" => Ok(silent_backup(n)),
            "corrupt-mac-backup" => Ok(corrupt_mac_backup(n)),
            other => Err(format!(
                "unknown scenario {other:?} (expected one of: {})",
                Schedule::NAMES.join(", ")
            )),
        }
    }

    /// Every scenario name [`Schedule::by_name`] accepts.
    pub const NAMES: &'static [&'static str] = &[
        "rolling-restart",
        "repeated-kill",
        "primary-kill",
        "staggered-start",
        "partition-primary",
        "asymmetric-link",
        "equivocate-under-load",
        "concurrent-victim",
        "lossy-link",
        "reorder-under-load",
        "duplicate-storm",
        "drain-restart",
        "silent-backup",
        "corrupt-mac-backup",
    ];

    /// The Byzantine mode replica `i` is hosted in, if any.
    pub fn mode_of(&self, i: usize) -> Option<ByzantineMode> {
        self.byzantine.iter().find(|(r, _)| *r == i).map(|(_, mode)| *mode)
    }
}

/// The pause after killing a *primary*: long enough for the cluster to
/// notice, view-change, and commit past the victim. Backup kills use
/// the evidence-based [`FaultStep::AwaitCommits`] gap instead — see
/// [`KILL_GAP_COMMITS`].
const KILL_GAP: Duration = Duration::from_millis(1_200);

/// Commits the survivors must make while a killed replica is down
/// before it is restarted. Above the runner's checkpoint interval, so
/// the gap crosses a sealed checkpoint the victim restores, and enough
/// past it that the log suffix still has real work to replay (and to
/// execute — the `suffix_progress` evidence).
const KILL_GAP_COMMITS: u64 = 5;

/// Kill + restart every replica in id order, awaiting a full rejoin
/// (including the victim executing fresh requests) before moving on.
pub fn rolling_restart(n: usize) -> Schedule {
    let phases = (0..n)
        .map(|replica| Phase {
            name: format!("restart-replica-{replica}"),
            victim: Some(replica),
            steps: vec![
                FaultStep::Kill(replica),
                FaultStep::AwaitCommits(KILL_GAP_COMMITS),
                FaultStep::Start(replica),
                FaultStep::AwaitRejoin(replica),
            ],
            expect_advance: true,
        })
        .collect();
    Schedule { scenario: "rolling-restart".into(), start_all: true, byzantine: Vec::new(), phases }
}

/// Crash the same replica `rounds` times in a row — each round must
/// recover from a data directory the previous crash left behind.
pub fn repeated_kill(victim: usize, rounds: usize) -> Schedule {
    let phases = (0..rounds.max(1))
        .map(|round| Phase {
            name: format!("kill-{victim}-round-{round}"),
            victim: Some(victim),
            steps: vec![
                FaultStep::Kill(victim),
                FaultStep::AwaitCommits(KILL_GAP_COMMITS),
                FaultStep::Start(victim),
                FaultStep::AwaitRejoin(victim),
            ],
            expect_advance: true,
        })
        .collect();
    Schedule { scenario: "repeated-kill".into(), start_all: true, byzantine: Vec::new(), phases }
}

/// Kill the expected leader each round: replica `r % n` in round `r`,
/// tracking the view-change succession (view `v`'s primary is
/// `v % n` in every protocol here). Each downed leader is restarted and
/// must rejoin before the next round fires.
pub fn primary_kill(n: usize, rounds: usize) -> Schedule {
    let phases = (0..rounds.max(1))
        .map(|round| {
            let victim = round % n;
            Phase {
                name: format!("kill-primary-{victim}-round-{round}"),
                victim: Some(victim),
                steps: vec![
                    FaultStep::Kill(victim),
                    // Longer gap: the cluster has to view-change before
                    // commits can resume.
                    FaultStep::Sleep(KILL_GAP * 2),
                    FaultStep::Start(victim),
                    FaultStep::AwaitRejoin(victim),
                ],
                expect_advance: true,
            }
        })
        .collect();
    Schedule { scenario: "primary-kill".into(), start_all: true, byzantine: Vec::new(), phases }
}

/// Start the cluster one replica at a time under client traffic that
/// began before any quorum existed. Commits are only required to
/// advance once enough replicas are up.
pub fn staggered_start(n: usize) -> Schedule {
    // 3f+1 stacks commit with one replica down, so the quorum exists
    // once n-1 replicas run; before that nothing may be asserted.
    let quorum_at = n.saturating_sub(1).max(1);
    let mut phases: Vec<Phase> = (0..n)
        .map(|replica| Phase {
            name: format!("start-replica-{replica}"),
            // The last starter is the scenario's victim from the moment
            // it starts, so its recovery/state-transfer markers (printed
            // during *this* phase) land in the report's evidence rather
            // than being skipped by a cursor created one phase later.
            victim: (replica == n - 1).then_some(replica),
            steps: vec![
                FaultStep::Start(replica),
                FaultStep::Sleep(Duration::from_millis(700)),
            ],
            expect_advance: replica + 1 >= quorum_at,
        })
        .collect();
    phases.push(Phase {
        name: "late-starter-catches-up".into(),
        victim: Some(n - 1),
        steps: vec![FaultStep::AwaitRejoin(n - 1)],
        expect_advance: true,
    });
    Schedule { scenario: "staggered-start".into(), start_all: false, byzantine: Vec::new(), phases }
}

/// Gracefully drain + restart every replica in id order — the
/// "upgrade the fleet without losing a commit" drill. Each phase drains
/// its victim (which must seal a checkpoint and flush its WAL), lets
/// the survivors commit through the gap, restarts the victim from its
/// drained data directory, and awaits a full rejoin. The client oracle
/// asserts zero lost committed requests across every drain: a rollback
/// would re-issue counter values and register as a fork.
pub fn drain_restart(n: usize) -> Schedule {
    let phases = (0..n)
        .map(|replica| Phase {
            name: format!("drain-replica-{replica}"),
            victim: Some(replica),
            steps: vec![
                FaultStep::Drain(replica),
                FaultStep::AwaitCommits(KILL_GAP_COMMITS),
                FaultStep::Start(replica),
                FaultStep::AwaitRejoin(replica),
            ],
            expect_advance: true,
        })
        .collect();
    Schedule { scenario: "drain-restart".into(), start_all: true, byzantine: Vec::new(), phases }
}

/// The settle window for partition scenarios: generous multiples of the
/// default 400 ms view-change timer, so even a backoff-escalated view
/// change (budgets 2, 4, 8 stalls) completes inside one phase.
const PARTITION_SETTLE: Duration = Duration::from_secs(6);

/// Cut the primary off from every backup — bidirectionally, replicas
/// intact — and demand the majority side view-changes and keeps
/// committing; then heal and demand commits continue (the healed
/// ex-primary may lag, but `n − 1` live-and-connected replicas are a
/// commit quorum regardless).
pub fn partition_primary(n: usize) -> Schedule {
    let phases = vec![
        Phase {
            name: "isolate-primary".into(),
            victim: Some(0),
            steps: vec![
                cut("cut-primary", [0], 1..n as u32, true),
                FaultStep::Sleep(PARTITION_SETTLE),
            ],
            expect_advance: true,
        },
        Phase {
            name: "heal-and-recover".into(),
            victim: Some(0),
            steps: vec![FaultStep::Net(FaultCommand::HealAll), FaultStep::Sleep(PARTITION_SETTLE)],
            expect_advance: true,
        },
    ];
    Schedule { scenario: "partition-primary".into(), start_all: true, byzantine: Vec::new(), phases }
}

/// Break exactly one direction of one backup-to-backup link
/// (`1 → 2` drops, `2 → 1` flows). Quorum paths route around a single
/// asymmetric link, so commits must keep advancing with no view change;
/// the heal phase then restores full connectivity.
pub fn asymmetric_link(n: usize) -> Schedule {
    assert!(n >= 3, "asymmetric-link needs two backups");
    let phases = vec![
        Phase {
            name: "break-one-direction".into(),
            victim: None,
            steps: vec![
                cut("lossy-link", [1], [2], false),
                FaultStep::Sleep(PARTITION_SETTLE),
            ],
            expect_advance: true,
        },
        Phase {
            name: "heal-link".into(),
            victim: None,
            steps: vec![
                FaultStep::Net(FaultCommand::Heal { name: "lossy-link".into() }),
                FaultStep::Sleep(PARTITION_SETTLE),
            ],
            expect_advance: true,
        },
    ];
    Schedule { scenario: "asymmetric-link".into(), start_all: true, byzantine: Vec::new(), phases }
}

/// Host replica 0 as an `equivocating-primary` for the entire run: in
/// view 0 it sends conflicting proposals to different backups, so no
/// prepare quorum forms and the honest replicas must view-change past
/// it — after which commits flow for the rest of the run while the
/// client oracle checks every completion for forks. Two phases
/// split the run so the report shows commits advancing both during the
/// fail-over window and under sustained load after it.
pub fn equivocate_under_load(n: usize) -> Schedule {
    let phases = vec![
        Phase {
            name: "survive-equivocation".into(),
            victim: Some(0),
            steps: vec![FaultStep::Sleep(PARTITION_SETTLE)],
            expect_advance: true,
        },
        Phase {
            name: "sustained-load-past-equivocator".into(),
            victim: Some(0),
            steps: vec![FaultStep::Sleep(PARTITION_SETTLE)],
            expect_advance: true,
        },
    ];
    let _ = n;
    Schedule {
        scenario: "equivocate-under-load".into(),
        start_all: true,
        byzantine: vec![(0, ByzantineMode::EquivocatingPrimary)],
        phases,
    }
}

/// Partition two non-primary replicas at once — the full `f = 2` fault
/// budget of an `n = 7` cluster — leaving exactly a `2f + 1 = 5` commit
/// quorum connected; then heal and demand commits keep flowing within
/// the phase budget. Run with `n < 3f_victims + 1` this leaves no
/// quorum, which [`super::validate`] rejects up front.
pub fn concurrent_victim(n: usize) -> Schedule {
    let phases = vec![
        Phase {
            name: "partition-two-victims".into(),
            victim: Some(1),
            steps: vec![
                cut("double-cut", [1, 2], (0..n as u32).filter(|r| ![1, 2].contains(r)), true),
                FaultStep::Sleep(PARTITION_SETTLE),
            ],
            expect_advance: true,
        },
        Phase {
            name: "heal-both-victims".into(),
            victim: Some(1),
            steps: vec![FaultStep::Net(FaultCommand::HealAll), FaultStep::Sleep(PARTITION_SETTLE)],
            expect_advance: true,
        },
    ];
    Schedule { scenario: "concurrent-victim".into(), start_all: true, byzantine: Vec::new(), phases }
}

/// A degraded-then-cleared pair of phases shared by the link-rule
/// scenarios: install `rules`, run under load, then clear and demand
/// commits keep advancing on the clean network too.
fn degrade_then_clear(scenario: &str, phase: &str, rules: Vec<FaultStep>) -> Schedule {
    let mut steps = rules;
    steps.push(FaultStep::Sleep(PARTITION_SETTLE));
    let phases = vec![
        Phase { name: phase.into(), victim: None, steps, expect_advance: true },
        Phase {
            name: "clear-link-rules".into(),
            victim: None,
            steps: vec![
                FaultStep::Net(FaultCommand::ClearRules),
                FaultStep::Sleep(PARTITION_SETTLE),
            ],
            expect_advance: true,
        },
    ];
    Schedule { scenario: scenario.into(), start_all: true, byzantine: Vec::new(), phases }
}

/// Drop 25% of the frames in *both* directions of the backup link
/// `1 ↔ 2`. Quorum paths route around a single lossy link — each
/// replica still hears `2f` intact peers — so commits must keep
/// advancing with no view change, and again after the rules clear.
pub fn lossy_link(n: usize) -> Schedule {
    assert!(n >= 3, "lossy-link needs two backups");
    let drop = |from, to| degrade(from, to, |rule| LinkRule { drop_percent: 25, ..rule });
    degrade_then_clear("lossy-link", "degrade-backup-link", vec![drop(1, 2), drop(2, 1)])
}

/// Hold back 40% of the frames on the backup link `1 ↔ 2` by 50 ms so
/// later frames overtake them. Consensus messages carry explicit
/// sequence/view numbers and the replicas buffer ahead, so inverted
/// delivery must be absorbed without a view change or a stall.
pub fn reorder_under_load(n: usize) -> Schedule {
    assert!(n >= 3, "reorder-under-load needs two backups");
    let reorder =
        |from, to| degrade(from, to, |rule| LinkRule { reorder_percent: 40, delay_ms: 50, ..rule });
    degrade_then_clear(
        "reorder-under-load",
        "reorder-backup-link",
        vec![reorder(1, 2), reorder(2, 1)],
    )
}

/// Deliver half the primary's frames to backups 1 and 2 twice, and
/// half of backup 1's frames to the primary twice. Every protocol
/// handler must be idempotent — duplicate pre-prepares, prepares, and
/// commits may not double-count votes or re-execute requests (the
/// client oracle checks results for exactly that).
pub fn duplicate_storm(n: usize) -> Schedule {
    assert!(n >= 3, "duplicate-storm needs two backups");
    let dup = |from, to| degrade(from, to, |rule| LinkRule { duplicate_percent: 50, ..rule });
    degrade_then_clear(
        "duplicate-storm",
        "duplicate-primary-links",
        vec![dup(0, 1), dup(0, 2), dup(1, 0)],
    )
}

/// Host replica 3 in `mode` for the whole run, one phase: commits must
/// keep advancing past a faulty backup within `f`, and the client
/// oracle must see no fork.
fn faulty_backup(scenario: &str, mode: ByzantineMode) -> Schedule {
    let phases = vec![Phase {
        name: format!("mask-{mode}-replica-3"),
        victim: None,
        steps: vec![FaultStep::AwaitCommits(KILL_GAP_COMMITS), FaultStep::Sleep(PARTITION_SETTLE)],
        expect_advance: true,
    }];
    Schedule { scenario: scenario.into(), start_all: true, byzantine: vec![(3, mode)], phases }
}

/// Replica 3 swallows every output: a crash the failure detector
/// cannot tell from a slow link.
pub fn silent_backup(n: usize) -> Schedule {
    assert!(n >= 4, "silent-backup hosts replica 3");
    faulty_backup("silent-backup", ByzantineMode::SilentBackup)
}

/// Replica 3 flips one authenticator byte on every message and reply:
/// honest receivers must reject it through the crypto layer.
pub fn corrupt_mac_backup(n: usize) -> Schedule {
    assert!(n >= 4, "corrupt-mac-backup hosts replica 3");
    faulty_backup("corrupt-mac-backup", ByzantineMode::CorruptMac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_deterministic_and_complete() {
        for name in Schedule::NAMES {
            let schedule = Schedule::by_name(name, 4, 3).unwrap();
            assert!(!schedule.phases.is_empty(), "{name} has no phases");
            // Determinism: building the same scenario twice yields the
            // same step sequence.
            let again = Schedule::by_name(name, 4, 3).unwrap();
            for (a, b) in schedule.phases.iter().zip(&again.phases) {
                assert_eq!(a.steps, b.steps);
                assert_eq!(a.name, b.name);
            }
        }
        assert!(Schedule::by_name("coffee-spill", 4, 1).is_err());
    }

    #[test]
    fn rolling_restart_covers_every_replica() {
        let schedule = rolling_restart(4);
        assert!(schedule.start_all);
        assert_eq!(schedule.phases.len(), 4);
        for (i, phase) in schedule.phases.iter().enumerate() {
            assert_eq!(phase.victim, Some(i));
            assert!(phase.steps.contains(&FaultStep::Kill(i)));
            assert!(phase.steps.contains(&FaultStep::Start(i)));
            assert!(phase.steps.contains(&FaultStep::AwaitRejoin(i)));
        }
    }

    #[test]
    fn partition_scenarios_cut_then_heal() {
        let schedule = partition_primary(4);
        assert!(schedule.byzantine.is_empty());
        assert_eq!(schedule.phases[0].steps[0], cut("cut-primary", [0], [1, 2, 3], true));
        assert!(schedule.phases[1].steps.contains(&FaultStep::Net(FaultCommand::HealAll)));
        assert!(schedule.phases.iter().all(|p| p.expect_advance));

        let link = asymmetric_link(4);
        assert_eq!(link.phases[0].steps[0], cut("lossy-link", [1], [2], false));
        let heal = FaultStep::Net(FaultCommand::Heal { name: "lossy-link".into() });
        assert!(link.phases[1].steps.contains(&heal));
    }

    #[test]
    fn equivocate_marks_replica_0_byzantine() {
        let schedule = equivocate_under_load(4);
        assert_eq!(schedule.byzantine, vec![(0, ByzantineMode::EquivocatingPrimary)]);
        assert_eq!(schedule.mode_of(0), Some(ByzantineMode::EquivocatingPrimary));
        assert_eq!(schedule.mode_of(1), None);
        for (name, mode) in [
            ("silent-backup", ByzantineMode::SilentBackup),
            ("corrupt-mac-backup", ByzantineMode::CorruptMac),
        ] {
            let schedule = Schedule::by_name(name, 4, 1).unwrap();
            assert_eq!(schedule.byzantine, vec![(3, mode)], "{name}");
            assert_eq!(schedule.phases.len(), 1, "{name}");
            assert!(schedule.phases[0].expect_advance, "{name}");
        }
        assert!(schedule.phases.iter().all(|p| p.expect_advance));
    }

    #[test]
    fn concurrent_victim_spends_the_full_fault_budget() {
        let schedule = concurrent_victim(7);
        let Some(FaultStep::Net(FaultCommand::Partition { side_a, side_b, symmetric, .. })) =
            schedule.phases[0].steps.first()
        else {
            panic!("first step must open the double cut");
        };
        assert_eq!(side_a.len(), 2, "two concurrent victims");
        assert_eq!(side_b.len(), 5, "exactly a 2f+1 quorum stays connected");
        assert!(symmetric);
        assert!(schedule.phases[1].steps.contains(&FaultStep::Net(FaultCommand::HealAll)));
    }

    #[test]
    fn link_rule_scenarios_degrade_then_clear() {
        for name in ["lossy-link", "reorder-under-load", "duplicate-storm"] {
            let schedule = Schedule::by_name(name, 4, 1).unwrap();
            assert_eq!(schedule.phases.len(), 2, "{name}");
            assert!(
                schedule.phases[0]
                    .steps
                    .iter()
                    .any(|s| matches!(s, FaultStep::Net(FaultCommand::SetRule(_)))),
                "{name} must install link rules"
            );
            assert!(
                schedule.phases[1].steps.contains(&FaultStep::Net(FaultCommand::ClearRules)),
                "{name} must clear its rules"
            );
            assert!(
                schedule.phases.iter().all(|p| p.expect_advance),
                "{name}: commits must advance both degraded and clean"
            );
        }
    }

    #[test]
    fn lossy_link_degrades_both_directions_of_a_backup_link() {
        let rules = |schedule: Schedule| -> Vec<LinkRule> {
            schedule.phases[0]
                .steps
                .iter()
                .filter_map(|s| match s {
                    FaultStep::Net(FaultCommand::SetRule(rule)) => Some(*rule),
                    _ => None,
                })
                .collect()
        };
        let lossy: Vec<_> =
            rules(lossy_link(4)).iter().map(|r| (r.from.0, r.to.0, r.drop_percent)).collect();
        assert_eq!(lossy, vec![(1, 2, 25), (2, 1, 25)]);
        assert!(
            rules(reorder_under_load(4)).iter().all(|r| r.drop_percent == 0),
            "reorder-under-load must not also drop"
        );
        assert!(
            rules(duplicate_storm(4)).iter().any(|r| r.from.0 == 0 || r.to.0 == 0),
            "duplicate-storm must replay primary traffic"
        );
    }

    #[test]
    fn drain_restart_drains_every_replica_gracefully() {
        let schedule = drain_restart(4);
        assert!(schedule.start_all);
        assert_eq!(schedule.phases.len(), 4);
        for (i, phase) in schedule.phases.iter().enumerate() {
            assert_eq!(phase.victim, Some(i));
            assert!(phase.steps.contains(&FaultStep::Drain(i)));
            assert!(
                !phase.steps.contains(&FaultStep::Kill(i)),
                "a drain drill must never crash its victim unannounced"
            );
            assert!(phase.steps.contains(&FaultStep::Start(i)));
            assert!(phase.steps.contains(&FaultStep::AwaitRejoin(i)));
            assert!(phase.expect_advance);
        }
    }

    #[test]
    fn staggered_start_asserts_only_after_quorum() {
        let schedule = staggered_start(4);
        assert!(!schedule.start_all);
        assert!(!schedule.phases[0].expect_advance);
        assert!(!schedule.phases[1].expect_advance);
        assert!(schedule.phases[2].expect_advance, "n-1 replicas form a quorum");
        assert!(schedule.phases.last().unwrap().expect_advance);
    }
}
