//! Chaos orchestration plane: scripted whole-cluster failure sequences
//! against live subprocess clusters under load.
//!
//! The durability plane (WAL, sealed checkpoints, peer state transfer)
//! made single crashes survivable; this crate makes *failure sequences*
//! a first-class, repeatable workload. A [`schedule::Schedule`] is a
//! deterministic list of fault steps — rolling restarts of every
//! replica, repeated SIGKILLs of one, primary-targeted kills across
//! view changes, staggered cold starts — that [`run_scenario`] executes
//! against a real `splitbft-node serve` subprocess cluster while a
//! background load generator keeps committing. After each phase it
//! asserts the recovery story end to end:
//!
//! 1. **commits advance** — a quorum counter read strictly increased;
//! 2. **the victim rejoins** — its `STATUS` snapshot reports recovery
//!    finished and execution progress caught up to the live peers'
//!    frontier ([`probe::await_rejoin_via_status`]);
//! 3. **how it rejoined is observable** — the victim's structured
//!    event journal, polled over `STATUS` with a phase-scoped
//!    [`cluster::EventCursor`], is distilled into
//!    [`cluster::RejoinEvidence`], distinguishing the log-suffix path
//!    from a checkpoint restore from pure WAL replay.
//!
//! Results land as `BENCH_chaos_<scenario>_<protocol>.json`
//! ([`report::ChaosReport`]), next to the regular bench reports.
//!
//! The `splitbft-node chaos` subcommand is the command-line entry
//! point; this crate stays protocol-agnostic (the protocol is a string
//! in the cluster file, the quorum size a number), so it never depends
//! on the node crate that embeds it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod error;
pub mod probe;
pub mod report;
pub mod schedule;

pub use cluster::{ChaosCluster, ClusterSpec, EventCursor, RejoinEvidence};
pub use error::ChaosError;
pub use report::{ChaosReport, GroupCommitDelta, GroupCommitSample, PhaseOutcome};
pub use schedule::{FaultStep, Phase, Schedule};

use splitbft_loadgen::driver::{self, DriverConfig};
use splitbft_net::fault::broadcast_fault_command;
use splitbft_types::{ClientId, FaultCommand, LinkRule, ReplicaId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything one chaos run needs.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Path to the `splitbft-node` binary to spawn replicas from.
    pub serve_binary: PathBuf,
    /// Protocol name as the CLI spells it.
    pub protocol: String,
    /// Cluster size.
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// `f + 1` for the protocol at size `n` (the caller knows the
    /// protocol's arithmetic).
    pub reply_quorum: usize,
    /// View-change timer period for the replicas.
    pub timeout_ms: u64,
    /// WAL group-commit linger for the replicas (`0` = off).
    pub wal_group_commit_us: u64,
    /// Consensus groups per replica (written into the cluster file as
    /// the `shards` key when above one). The chaos probes drive the
    /// counter app, which pins to shard 0, so a sharded run asserts
    /// that fault recovery and liveness survive with the *other* shards
    /// idle — every shard still recovers its own WAL on restart.
    pub shards: u32,
    /// Scratch root (cluster file, data dirs, stderr logs).
    pub root: PathBuf,
    /// Background-load client threads.
    pub load_clients: usize,
    /// Outstanding requests per load client.
    pub load_pipeline: usize,
    /// Offered background load in requests/second (open loop). Chaos
    /// load is *fixed-rate by design*: a closed loop saturates the
    /// surviving replicas, and a victim that replays at less than
    /// saturation speed can then never reach the live edge to rejoin.
    /// A modest steady rate keeps commits advancing while leaving
    /// victims headroom to catch up.
    pub load_rate: f64,
    /// Budget for each victim's rejoin.
    pub rejoin_timeout: Duration,
    /// Budget for each commit probe.
    pub probe_timeout: Duration,
    /// Keep the scratch root on teardown (post-mortems).
    pub keep_data: bool,
}

impl ChaosConfig {
    /// Sensible defaults around the required knobs.
    pub fn new(
        serve_binary: PathBuf,
        protocol: impl Into<String>,
        n: usize,
        reply_quorum: usize,
        root: PathBuf,
    ) -> Self {
        ChaosConfig {
            serve_binary,
            protocol: protocol.into(),
            n,
            seed: 42,
            reply_quorum,
            timeout_ms: 400,
            wal_group_commit_us: 200,
            shards: 1,
            root,
            load_clients: 3,
            load_pipeline: 4,
            load_rate: 150.0,
            rejoin_timeout: Duration::from_secs(45),
            probe_timeout: Duration::from_secs(30),
            keep_data: false,
        }
    }
}

/// Client-id lanes: the background load uses `1000+`, probes count up
/// from here so no id is ever reused across roles.
const PROBE_CLIENT_BASE: u32 = 64;

/// Background load that survives the whole scenario: short driver
/// chunks in a loop (each chunk reconnects, so replicas restarted
/// mid-run are picked back up), accumulated into one total.
struct BackgroundLoad {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(u64, u64, u64)>,
}

impl BackgroundLoad {
    fn start(config: &ChaosConfig, addrs: Vec<std::net::SocketAddr>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let seed = config.seed;
        let quorum = config.reply_quorum;
        let clients = config.load_clients.max(1);
        let pipeline = config.load_pipeline.max(1);
        let rate = config.load_rate.max(1.0);
        let handle = std::thread::Builder::new()
            .name("chaos-load".into())
            .spawn(move || {
                let (mut issued, mut completed, mut timed_out) = (0u64, 0u64, 0u64);
                while !stop_flag.load(Ordering::SeqCst) {
                    let mut cfg = DriverConfig::new(addrs.clone(), seed, quorum);
                    cfg.clients = clients;
                    cfg.pipeline = pipeline;
                    cfg.mode = driver::LoadMode::Open { rate };
                    cfg.duration = Duration::from_secs(2);
                    cfg.retry_every = Duration::from_millis(500);
                    cfg.drain_timeout = Duration::from_secs(5);
                    cfg.connect_timeout = Duration::from_secs(3);
                    // Leadership-agnostic: kills move the primary mid-run,
                    // so every submission broadcasts (out-of-range index)
                    // instead of betting on a view-0 address.
                    cfg.primary_index = usize::MAX;
                    match driver::run(&cfg) {
                        Ok(stats) => {
                            issued += stats.issued;
                            completed += stats.completed;
                            timed_out += stats.timed_out;
                        }
                        // No quorum up yet (staggered start) or all
                        // replicas briefly unreachable: back off, retry.
                        Err(_) => std::thread::sleep(Duration::from_millis(300)),
                    }
                }
                (issued, completed, timed_out)
            })
            .expect("spawn chaos load thread");
        BackgroundLoad { stop, handle }
    }

    fn stop(self) -> (u64, u64, u64) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("chaos load thread panicked")
    }
}

/// Rejects schedules that cannot possibly pass on this protocol or
/// cluster shape *before* any subprocess spawns.
///
/// The rules encode protocol facts, not taste:
///
/// - the hybrid (`minbft`) has no view change, so killing or
///   symmetrically cutting off its fixed primary wedges the cluster by
///   design — there is nothing to assert but a hang;
/// - the hybrid's USIG counter makes primary equivocation unforgeable,
///   so `equivocating-primary` would silently serve honestly and the
///   scenario would vacuously "pass";
/// - a symmetric partition whose smaller side exceeds `f` leaves *no*
///   component with a live commit quorum, so every `expect_advance`
///   phase under the cut is doomed.
///
/// # Errors
///
/// [`ChaosError::Unsupported`] naming the scenario, protocol and rule.
pub fn validate(config: &ChaosConfig, schedule: &Schedule) -> Result<(), ChaosError> {
    let unsupported = |reason: String| ChaosError::Unsupported {
        scenario: schedule.scenario.clone(),
        protocol: config.protocol.clone(),
        reason,
    };
    let minbft = config.protocol == "minbft";
    let f = config.reply_quorum.saturating_sub(1);

    if config.shards == 0 {
        return Err(unsupported("shards must be at least 1".into()));
    }
    if minbft {
        if schedule.scenario == "primary-kill" {
            return Err(unsupported(
                "the hybrid has a fixed primary and no view change; killing it \
                 wedges the cluster by design"
                    .into(),
            ));
        }
        if schedule.byzantine.iter().any(|(_, mode)| mode == "equivocating-primary") {
            return Err(unsupported(
                "the USIG's monotone counter makes primary equivocation \
                 unforgeable, so the mode would silently serve honestly and \
                 the scenario would vacuously pass"
                    .into(),
            ));
        }
    }
    for phase in &schedule.phases {
        for step in &phase.steps {
            // Frame loss on the hybrid's fixed-primary links is
            // unrecoverable by design: no view change can move traffic
            // off the primary, so sustained drops starve USIG quorums.
            if let FaultStep::DegradeLink { from, to, drop_percent, .. } = step {
                if minbft && *drop_percent > 0 && (*from == 0 || *to == 0) {
                    return Err(unsupported(format!(
                        "link {from} -> {to} drops {drop_percent}% of frames on the \
                         fixed primary's path, and there is no view change to \
                         route around sustained loss"
                    )));
                }
                continue;
            }
            let FaultStep::Partition { name, side_a, side_b, symmetric } = step else {
                continue;
            };
            if !symmetric {
                continue;
            }
            // Unlisted replicas stay connected to both sides, so the two
            // components have n - |side_b| and n - |side_a| members: the
            // larger one holds a commit quorum (n - f) exactly when the
            // smaller named side fits inside f.
            let smaller = side_a.len().min(side_b.len());
            if smaller > f {
                return Err(unsupported(format!(
                    "partition {name:?} cuts {smaller} replicas off at once but \
                     f = {f}: no component keeps a live commit quorum, so \
                     commits cannot advance under the cut"
                )));
            }
            if minbft && (side_a.contains(&0) || side_b.contains(&0)) {
                let other = if side_a.contains(&0) { side_b.len() } else { side_a.len() };
                if other > f {
                    return Err(unsupported(format!(
                        "partition {name:?} cuts the fixed primary off from \
                         {other} replicas but f = {f}: it cannot reach a USIG \
                         quorum across the cut and there is no view change to \
                         route around it"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Executes one scenario end to end and writes nothing — the caller
/// owns report persistence (and may attach a group-commit A/B first).
///
/// While the schedule runs, a [`probe::SafetyMonitor`] commits its own
/// authenticated `inc` stream and cross-checks every quorum-accepted
/// result for duplicates — a committed fork fails the run even if every
/// phase's liveness assertion held.
///
/// # Errors
///
/// [`ChaosError::Unsupported`] before anything spawns (see
/// [`validate`]); [`ChaosError::Io`] for cluster/spawn/probe I/O; and
/// [`ChaosError::Failed`] — carrying the complete report — when a phase
/// assertion (commits stalled where they must advance, a victim that
/// never rejoined) or the safety cross-check failed.
pub fn run_scenario(config: &ChaosConfig, schedule: &Schedule) -> Result<ChaosReport, ChaosError> {
    validate(config, schedule)?;
    let spec = ClusterSpec {
        serve_binary: config.serve_binary.clone(),
        protocol: config.protocol.clone(),
        n: config.n,
        seed: config.seed,
        timeout_ms: config.timeout_ms,
        wal_group_commit_us: config.wal_group_commit_us,
        shards: config.shards,
        root: config.root.clone(),
        byzantine: schedule.byzantine.clone(),
    };
    let mut cluster = ChaosCluster::prepare(spec)?;
    let mut probe_client = PROBE_CLIENT_BASE;
    let mut next_probe = || {
        probe_client += 1;
        ClientId(probe_client)
    };
    // Which replicas we believe are up: commit probes are skipped while
    // fewer than n-1 run (below every protocol's consensus quorum here),
    // so staggered starts don't burn probe timeouts against a cluster
    // that cannot commit yet.
    let mut live = vec![schedule.start_all; config.n];
    let quorum_live = config.n.saturating_sub(1).max(1);

    if schedule.start_all {
        cluster.start_all()?;
        // Up once a quorum answers a read end to end.
        probe::read_counter(
            &cluster.addrs,
            config.seed,
            config.reply_quorum,
            next_probe(),
            config.probe_timeout,
        )?;
    }

    let load = BackgroundLoad::start(config, cluster.addrs.clone());
    let safety = probe::SafetyMonitor::start(
        cluster.addrs.clone(),
        config.seed,
        config.reply_quorum,
        2,
    );
    let mut phases = Vec::with_capacity(schedule.phases.len());
    let mut failure: Option<String> = None;

    'phases: for phase in &schedule.phases {
        let mut event_cursor = phase
            .victim
            .map(|v| EventCursor::at_head(cluster.addrs[v]));
        let commits_before = if live.iter().filter(|l| **l).count() >= quorum_live {
            probe::read_counter(
                &cluster.addrs,
                config.seed,
                config.reply_quorum,
                next_probe(),
                config.probe_timeout,
            )
            .ok()
        } else {
            None
        };
        let mut rejoined = None;

        for step in &phase.steps {
            match step {
                FaultStep::Kill(replica) => {
                    cluster.kill(*replica);
                    live[*replica] = false;
                }
                FaultStep::Drain(replica) => {
                    if let Err(e) = cluster.drain(*replica, config.rejoin_timeout) {
                        failure = Some(format!(
                            "{}: draining replica {replica} failed: {e}",
                            phase.name
                        ));
                        break 'phases;
                    }
                    live[*replica] = false;
                }
                FaultStep::Start(replica) => {
                    live[*replica] = true;
                    // A victim's fresh incarnation starts a fresh event
                    // journal; rewind so its recovery events all count
                    // as this phase's evidence.
                    if phase.victim == Some(*replica) {
                        if let Some(cursor) = event_cursor.as_mut() {
                            cursor.rewind();
                        }
                    }
                    if let Err(e) = cluster.start(*replica) {
                        failure = Some(format!(
                            "{}: starting replica {replica} failed: {e}",
                            phase.name
                        ));
                        break 'phases;
                    }
                }
                FaultStep::Sleep(duration) => std::thread::sleep(*duration),
                FaultStep::AwaitCommits(delta) => {
                    // Soft wait: if the survivors cannot commit within
                    // the probe budget the phase assertions (advance,
                    // suffix evidence) will say so with better detail
                    // than a step failure could.
                    let deadline = std::time::Instant::now() + config.probe_timeout;
                    let mut baseline = None;
                    loop {
                        let now = probe::read_counter(
                            &cluster.addrs,
                            config.seed,
                            config.reply_quorum,
                            next_probe(),
                            Duration::from_secs(5).min(config.probe_timeout),
                        )
                        .ok();
                        match (baseline, now) {
                            (None, Some(v)) => baseline = Some(v),
                            (Some(b), Some(v)) if v >= b + *delta => break,
                            _ => {}
                        }
                        if std::time::Instant::now() >= deadline {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(150));
                    }
                }
                FaultStep::AwaitRejoin(replica) => {
                    // STATUS-based with an explicit deadline: a direct
                    // read of the victim's own recovery flag and
                    // progress gauge, immune to the reply races the old
                    // fresh-request probe could lose on loaded machines.
                    let ok = probe::await_rejoin_via_status(
                        &cluster.addrs,
                        *replica,
                        config.rejoin_timeout,
                    );
                    rejoined = Some(rejoined.unwrap_or(true) && ok);
                }
                // Partitions are enforced inside every replica's own
                // transport, so the control frames below ride the same
                // client port — the orchestrator itself is never cut.
                // All replicas are alive when these steps run (the new
                // schedules never mix kills with cuts), so a delivery
                // failure is a real fault, not a dead victim.
                FaultStep::Partition { name, side_a, side_b, symmetric } => {
                    let cmd = FaultCommand::Partition {
                        name: name.clone(),
                        side_a: side_a.iter().map(|&r| ReplicaId(r as u32)).collect(),
                        side_b: side_b.iter().map(|&r| ReplicaId(r as u32)).collect(),
                        symmetric: *symmetric,
                    };
                    if let Err(e) = broadcast_fault_command(&cluster.addrs, &cmd) {
                        failure = Some(format!(
                            "{}: opening partition {name:?} failed: {e}",
                            phase.name
                        ));
                        break 'phases;
                    }
                }
                FaultStep::DegradeLink {
                    from,
                    to,
                    drop_percent,
                    duplicate_percent,
                    reorder_percent,
                    delay_ms,
                } => {
                    let cmd = FaultCommand::SetRule(LinkRule {
                        from: ReplicaId(*from as u32),
                        to: ReplicaId(*to as u32),
                        drop_percent: *drop_percent,
                        duplicate_percent: *duplicate_percent,
                        reorder_percent: *reorder_percent,
                        delay_ms: *delay_ms,
                    });
                    if let Err(e) = broadcast_fault_command(&cluster.addrs, &cmd) {
                        failure = Some(format!(
                            "{}: degrading link {from} -> {to} failed: {e}",
                            phase.name
                        ));
                        break 'phases;
                    }
                }
                FaultStep::ClearLinkRules => {
                    if let Err(e) =
                        broadcast_fault_command(&cluster.addrs, &FaultCommand::ClearRules)
                    {
                        failure =
                            Some(format!("{}: clearing link rules failed: {e}", phase.name));
                        break 'phases;
                    }
                }
                FaultStep::Heal(name) => {
                    let cmd = FaultCommand::Heal { name: name.clone() };
                    if let Err(e) = broadcast_fault_command(&cluster.addrs, &cmd) {
                        failure = Some(format!(
                            "{}: healing partition {name:?} failed: {e}",
                            phase.name
                        ));
                        break 'phases;
                    }
                }
                FaultStep::HealAll => {
                    if let Err(e) =
                        broadcast_fault_command(&cluster.addrs, &FaultCommand::HealAll)
                    {
                        failure =
                            Some(format!("{}: healing all partitions failed: {e}", phase.name));
                        break 'phases;
                    }
                }
            }
        }

        // "Commits advance" means *eventually within the phase budget*:
        // a freshly restarted primary (or a cluster mid-view-change)
        // legitimately needs a moment before the counter moves again,
        // so the after-probe polls until it exceeds the before-value or
        // the budget runs out.
        let commits_after = if live.iter().filter(|l| **l).count() >= quorum_live {
            let deadline = std::time::Instant::now() + config.probe_timeout;
            let mut after = None;
            loop {
                after = probe::read_counter(
                    &cluster.addrs,
                    config.seed,
                    config.reply_quorum,
                    next_probe(),
                    Duration::from_secs(5).min(config.probe_timeout),
                )
                .ok()
                .or(after);
                let advanced_enough = !phase.expect_advance
                    || match (commits_before, after) {
                        (Some(before), Some(now)) => now > before,
                        (None, Some(_)) => true,
                        _ => false,
                    };
                if advanced_enough || std::time::Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(400));
            }
            after
        } else {
            None
        };
        let advanced = matches!((commits_before, commits_after), (Some(b), Some(a)) if a > b)
            || (commits_before.is_none() && commits_after.is_some());
        let evidence = event_cursor
            .as_mut()
            .map(|c| RejoinEvidence::from_events(&c.read_new()))
            .unwrap_or_default();

        let outcome = PhaseOutcome {
            name: phase.name.clone(),
            victim: phase.victim,
            commits_before,
            commits_after,
            advanced,
            expected_advance: phase.expect_advance,
            rejoined,
            evidence,
        };
        eprintln!(
            "chaos: phase {:<24} commits {:?} -> {:?}, rejoined {:?}, suffix {} msg(s), checkpoint {}, {}",
            outcome.name,
            outcome.commits_before,
            outcome.commits_after,
            outcome.rejoined,
            outcome.evidence.suffix_messages_applied,
            outcome.evidence.checkpoint_restored,
            if outcome.ok() { "ok" } else { "FAILED" },
        );
        if !outcome.ok() && failure.is_none() {
            failure = Some(format!(
                "phase {:?}: advanced={} (expected {}), rejoined={:?}",
                outcome.name, outcome.advanced, outcome.expected_advance, outcome.rejoined
            ));
        }
        phases.push(outcome);
    }

    let (issued, completed, timed_out) = load.stop();
    let safety_outcome = safety.stop();
    cluster.teardown(config.keep_data);

    eprintln!(
        "chaos: safety monitor {} commit(s), {} violation(s)",
        safety_outcome.commits,
        safety_outcome.violations.len(),
    );
    if failure.is_none() {
        if let Some(violation) = safety_outcome.violations.first() {
            failure = Some(format!("safety cross-check: {violation}"));
        }
    }

    let report = ChaosReport {
        scenario: schedule.scenario.clone(),
        protocol: config.protocol.clone(),
        n: config.n,
        seed: config.seed,
        wal_group_commit_us: config.wal_group_commit_us,
        shards: config.shards,
        phases,
        load_issued: issued,
        load_completed: completed,
        load_timed_out: timed_out,
        safety_commits: safety_outcome.commits,
        safety_violations: safety_outcome.violations,
        group_commit: None,
    };
    match failure {
        Some(reason) => Err(ChaosError::Failed { reason, report: Box::new(report) }),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(protocol: &str, n: usize, reply_quorum: usize) -> ChaosConfig {
        ChaosConfig::new(
            PathBuf::from("/nonexistent/splitbft-node"),
            protocol,
            n,
            reply_quorum,
            PathBuf::from("/nonexistent/scratch"),
        )
    }

    fn unsupported(result: Result<(), ChaosError>) -> String {
        match result {
            Err(ChaosError::Unsupported { reason, .. }) => reason,
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn minbft_rejects_primary_kill_up_front() {
        let reason =
            unsupported(validate(&config("minbft", 3, 2), &schedule::primary_kill(3, 1)));
        assert!(reason.contains("no view change"), "got: {reason}");
    }

    #[test]
    fn minbft_rejects_equivocating_primary() {
        let reason =
            unsupported(validate(&config("minbft", 3, 2), &schedule::equivocate_under_load(3)));
        assert!(reason.contains("USIG"), "got: {reason}");
    }

    #[test]
    fn minbft_rejects_cutting_off_its_fixed_primary() {
        let reason =
            unsupported(validate(&config("minbft", 3, 2), &schedule::partition_primary(3)));
        assert!(reason.contains("fixed primary"), "got: {reason}");
    }

    #[test]
    fn quorum_destroying_partition_is_rejected_on_any_protocol() {
        // concurrent-victim cuts two replicas at once: fine at n = 7
        // (f = 2), fatal at n = 4 (f = 1) where no side keeps 2f + 1.
        let reason =
            unsupported(validate(&config("pbft", 4, 2), &schedule::concurrent_victim(4)));
        assert!(reason.contains("commit quorum"), "got: {reason}");
        validate(&config("pbft", 7, 3), &schedule::concurrent_victim(7))
            .expect("n = 7 keeps a five-replica majority side");
    }

    #[test]
    fn supported_shapes_validate_cleanly() {
        for (name, n, quorum) in [
            ("rolling-restart", 4, 2),
            ("partition-primary", 4, 2),
            ("asymmetric-link", 4, 2),
            ("equivocate-under-load", 4, 2),
        ] {
            let schedule = Schedule::by_name(name, n, 1).unwrap();
            validate(&config("pbft", n, quorum), &schedule)
                .unwrap_or_else(|e| panic!("{name} must validate on pbft: {e}"));
        }
        // The hybrid keeps its supported catalog too.
        let schedule = Schedule::by_name("rolling-restart", 3, 1).unwrap();
        validate(&config("minbft", 3, 2), &schedule).unwrap();
    }

    #[test]
    fn link_rule_scenarios_validate_on_every_protocol() {
        for name in ["lossy-link", "reorder-under-load", "duplicate-storm"] {
            let schedule = Schedule::by_name(name, 4, 1).unwrap();
            for protocol in ["pbft", "splitbft", "minbft"] {
                validate(&config(protocol, 4, 2), &schedule)
                    .unwrap_or_else(|e| panic!("{name} must validate on {protocol}: {e}"));
            }
        }
    }

    #[test]
    fn minbft_rejects_drops_on_the_fixed_primarys_links() {
        let mut schedule = schedule::lossy_link(4);
        schedule.phases[0].steps[0] = FaultStep::DegradeLink {
            from: 0,
            to: 1,
            drop_percent: 10,
            duplicate_percent: 0,
            reorder_percent: 0,
            delay_ms: 0,
        };
        let reason = unsupported(validate(&config("minbft", 4, 2), &schedule));
        assert!(reason.contains("fixed primary"), "got: {reason}");
        // View-change protocols mask partial loss on any single link.
        validate(&config("pbft", 4, 2), &schedule).unwrap();
    }

    #[test]
    fn zero_shards_is_rejected_up_front() {
        let mut cfg = config("pbft", 4, 2);
        cfg.shards = 0;
        let reason = unsupported(validate(&cfg, &schedule::rolling_restart(4)));
        assert!(reason.contains("shards"), "got: {reason}");
        cfg.shards = 2;
        validate(&cfg, &schedule::rolling_restart(4)).unwrap();
    }
}
