//! The `splitbft-node chaos` subcommand: scripted whole-cluster fault
//! injection end to end.
//!
//! Thin CLI glue over `splitbft-chaos`: it resolves the protocol's
//! quorum arithmetic, spawns the scenario against subprocess replicas
//! launched from **this very binary** (`std::env::current_exe`), and —
//! unless `--skip-group-commit` — attaches a WAL group-commit A/B
//! measurement to the report: two identical short in-process bench
//! windows, one with `wal_group_commit_us = 0` (an fsync per drained
//! event) and one with the configured linger, comparing total fsyncs
//! per committed request.
//!
//! ```text
//! splitbft-node chaos --scenario rolling-restart --protocol splitbft
//! splitbft-node chaos --scenario primary-kill --compare --rounds 4
//! splitbft-node chaos --scenario equivocate-under-load --protocol pbft
//! splitbft-node chaos --scenario concurrent-victim --protocol splitbft
//! ```
//!
//! One `BENCH_chaos_<scenario>_<protocol>.json` lands per run; the
//! command exits nonzero when any phase assertion fails (commits
//! stalled, a victim never rejoined, or the safety cross-check caught
//! a committed fork). Scenario/protocol combinations the protocol's
//! own design rules out — `primary-kill` or primary partitions on the
//! view-change-less hybrid, `equivocate-under-load` against the USIG —
//! fail fast with a typed `ChaosError::Unsupported` before anything
//! spawns, and are skipped (loudly) under `--compare`.

use crate::bench::LocalCluster;
use crate::{
    check_retired_transport_flag, cli_flag as flag, parse_cli_flag as parse_flag, reply_quorum_for,
    validate_cli_flags, AppKind, NodeOptions, ProtocolKind,
};
use splitbft_chaos::report::{ChaosReport, GroupCommitDelta, GroupCommitSample};
use splitbft_chaos::schedule::Schedule;
use splitbft_chaos::{run_scenario, ChaosConfig, ChaosError};
use splitbft_loadgen::driver::{self, DriverConfig};
use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// Everything one `chaos` invocation needs, parsed from CLI flags.
#[derive(Debug, Clone)]
pub struct ChaosInvocation {
    /// Scenario name (see `splitbft_chaos::schedule::Schedule::NAMES`).
    pub scenario: String,
    /// Protocols to run (one, or all three under `--compare`).
    pub protocols: Vec<ProtocolKind>,
    /// Cluster size.
    pub replicas: usize,
    /// Master seed.
    pub seed: u64,
    /// Rounds for the repeating scenarios.
    pub rounds: usize,
    /// Background-load client threads.
    pub clients: usize,
    /// Outstanding requests per load client.
    pub pipeline: usize,
    /// Offered background load (req/s, open loop — see
    /// `splitbft_chaos::ChaosConfig::load_rate`).
    pub rate: f64,
    /// Replica view-change timer period (ms).
    pub timeout_ms: u64,
    /// WAL group-commit linger the cluster runs with (µs).
    pub wal_group_commit_us: u64,
    /// Consensus groups per replica (`1` = unsharded, the default).
    pub shards: u32,
    /// Per-victim rejoin budget.
    pub rejoin_timeout: Duration,
    /// Per-probe commit-read budget.
    pub probe_timeout: Duration,
    /// Scratch *parent* override (default: a unique temp dir per run).
    /// Each run uses `<root>/<scenario>-<protocol>/`; pre-existing
    /// directories that don't look like chaos runs are refused, never
    /// cleared.
    pub root: Option<PathBuf>,
    /// Keep scratch dirs for post-mortems.
    pub keep_data: bool,
    /// Skip the group-commit A/B measurement.
    pub skip_group_commit: bool,
    /// Report output directory.
    pub out_dir: PathBuf,
}

const VALUE_FLAGS: &[&str] = &[
    "--scenario", "--protocol", "--replicas", "--seed", "--rounds", "--clients", "--pipeline",
    "--timeout-ms", "--wal-group-commit-us", "--rejoin-secs", "--probe-secs", "--root", "--out",
    "--rate", "--shards", "--transport",
];
const BARE_FLAGS: &[&str] = &["--compare", "--keep-data", "--skip-group-commit"];

/// Parses the `chaos` subcommand's arguments.
///
/// # Errors
///
/// A human-readable message for unknown flags, unparsable values, or a
/// missing/unknown scenario.
pub fn parse_args(args: &[String]) -> Result<ChaosInvocation, String> {
    validate_cli_flags(args, VALUE_FLAGS, BARE_FLAGS).map_err(|e| format!("chaos: {e}"))?;

    let scenario = flag(args, "--scenario").ok_or_else(|| {
        format!("missing --scenario <name> (one of: {})", Schedule::NAMES.join(", "))
    })?;
    if !Schedule::NAMES.contains(&scenario.as_str()) {
        return Err(format!(
            "unknown scenario {scenario:?} (one of: {})",
            Schedule::NAMES.join(", ")
        ));
    }
    check_retired_transport_flag(args)?;
    let compare = args.iter().any(|a| a == "--compare");
    let protocols = match (flag(args, "--protocol"), compare) {
        (Some(_), true) => {
            return Err("--protocol and --compare are exclusive".into());
        }
        (Some(p), false) => vec![p.parse().map_err(|e: crate::ConfigError| e.to_string())?],
        (None, true) => vec![ProtocolKind::Pbft, ProtocolKind::SplitBft, ProtocolKind::MinBft],
        (None, false) => return Err("pass --protocol <p> or --compare".into()),
    };

    // concurrent-victim cuts two replicas off at once, so it needs
    // f >= 2: its default cluster is n = 7 rather than 4.
    let default_replicas = if scenario == "concurrent-victim" { 7usize } else { 4usize };
    let replicas: usize = parse_flag(args, "--replicas", default_replicas)?;
    if replicas < 4 {
        return Err("chaos needs --replicas >= 4 (commits must survive one victim)".into());
    }
    Ok(ChaosInvocation {
        scenario,
        protocols,
        replicas,
        seed: parse_flag(args, "--seed", 42u64)?,
        rounds: parse_flag(args, "--rounds", 3usize)?.max(1),
        clients: parse_flag(args, "--clients", 3usize)?.max(1),
        pipeline: parse_flag(args, "--pipeline", 4usize)?.max(1),
        rate: parse_flag(args, "--rate", 150.0f64)?.max(1.0),
        timeout_ms: parse_flag(args, "--timeout-ms", 400u64)?.max(50),
        wal_group_commit_us: parse_flag(args, "--wal-group-commit-us", 200u64)?,
        shards: {
            let shards = parse_flag(args, "--shards", 1u32)?;
            if shards == 0 {
                return Err("--shards must be a positive integer".into());
            }
            shards
        },
        rejoin_timeout: Duration::from_secs(parse_flag(args, "--rejoin-secs", 45u64)?.max(1)),
        probe_timeout: Duration::from_secs(parse_flag(args, "--probe-secs", 30u64)?.max(1)),
        root: flag(args, "--root").map(PathBuf::from),
        keep_data: args.iter().any(|a| a == "--keep-data"),
        skip_group_commit: args.iter().any(|a| a == "--skip-group-commit"),
        out_dir: PathBuf::from(flag(args, "--out").unwrap_or_else(|| ".".into())),
    })
}

/// Runs the invocation: one scenario per selected protocol, one report
/// each.
///
/// Unsupported scenario/protocol combinations (the orchestrator's
/// `validate` rules: no view change on the hybrid, unforgeable USIG
/// equivocation, quorum-destroying partitions) are skipped with a
/// notice under `--compare` and are a hard error when the protocol was
/// requested explicitly. A run that *failed its assertions* still
/// writes its report before erroring, so post-mortems have the data.
///
/// # Errors
///
/// Parse errors, unsupported single-protocol requests, orchestration
/// I/O errors, and any failed phase assertion or safety violation.
pub fn run(args: &[String]) -> Result<Vec<ChaosReport>, String> {
    let invocation = parse_args(args)?;
    let serve_binary =
        std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut reports = Vec::new();
    for &protocol in &invocation.protocols {
        let report = match run_for(&invocation, protocol, &serve_binary) {
            Ok(report) => report,
            Err(e @ ChaosError::Unsupported { .. }) => {
                if invocation.protocols.len() > 1 {
                    eprintln!("chaos: skipping — {e}");
                    continue;
                }
                return Err(e.to_string());
            }
            Err(ChaosError::Failed { reason, report }) => {
                println!("{}", report.summary_line());
                if let Ok(path) = report.write_to(&invocation.out_dir) {
                    println!("  wrote {}", path.display());
                }
                return Err(format!("chaos scenario {} failed: {reason}", report.scenario));
            }
            Err(e) => return Err(e.to_string()),
        };
        println!("{}", report.summary_line());
        let path =
            report.write_to(&invocation.out_dir).map_err(|e| format!("writing report: {e}"))?;
        println!("  wrote {}", path.display());
        reports.push(report);
    }
    Ok(reports)
}

fn run_for(
    invocation: &ChaosInvocation,
    protocol: ProtocolKind,
    serve_binary: &PathBuf,
) -> Result<ChaosReport, ChaosError> {
    let quorum = reply_quorum_for(protocol, invocation.replicas)?;
    let schedule = Schedule::by_name(&invocation.scenario, invocation.replicas, invocation.rounds)
        .map_err(|e| ChaosError::Io(io::Error::new(io::ErrorKind::InvalidInput, e)))?;
    let root = scratch_root(invocation, protocol)?;

    let mut config = ChaosConfig::new(
        serve_binary.clone(),
        protocol.to_string(),
        invocation.replicas,
        quorum,
        root,
    );
    config.seed = invocation.seed;
    config.timeout_ms = invocation.timeout_ms;
    config.wal_group_commit_us = invocation.wal_group_commit_us;
    config.shards = invocation.shards;
    config.load_clients = invocation.clients;
    config.load_pipeline = invocation.pipeline;
    config.load_rate = invocation.rate;
    config.rejoin_timeout = invocation.rejoin_timeout;
    config.probe_timeout = invocation.probe_timeout;
    config.keep_data = invocation.keep_data;

    let mut report = run_scenario(&config, &schedule)?;
    if !invocation.skip_group_commit {
        report.group_commit = Some(measure_group_commit_delta(invocation, protocol)?);
    }
    Ok(report)
}

/// Resolves the scratch root for one (scenario, protocol) run.
///
/// Self-generated temp roots are pre-cleaned wholesale. A user-supplied
/// `--root` is treated as a **parent**: each run lives in its own
/// `<root>/<scenario>-<protocol>/` subdirectory (so `--compare` runs
/// and `--keep-data` post-mortems never collide), only that
/// subdirectory is ever pre-cleaned, and even then only when it is
/// recognizably a previous chaos run (it holds a `cluster.toml`) or
/// empty — never arbitrary user data.
fn scratch_root(invocation: &ChaosInvocation, protocol: ProtocolKind) -> io::Result<PathBuf> {
    let shard_suffix =
        if invocation.shards > 1 { format!("-s{}", invocation.shards) } else { String::new() };
    match &invocation.root {
        None => {
            let root = std::env::temp_dir().join(format!(
                "splitbft-chaos-{}-{protocol}{shard_suffix}-{}",
                invocation.scenario,
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            Ok(root)
        }
        Some(base) => {
            let root = base.join(format!("{}-{protocol}{shard_suffix}", invocation.scenario));
            if root.exists()
                && !root.join("cluster.toml").exists()
                && std::fs::read_dir(&root)?.next().is_some()
            {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!(
                        "refusing to clear {}: it exists, is not empty, and does not look \
                         like a previous chaos run (no cluster.toml)",
                        root.display()
                    ),
                ));
            }
            let _ = std::fs::remove_dir_all(&root);
            Ok(root)
        }
    }
}

/// The group-commit A/B: two identical short in-process durable bench
/// windows, linger off vs. on, compared by fsyncs per committed
/// request.
fn measure_group_commit_delta(
    invocation: &ChaosInvocation,
    protocol: ProtocolKind,
) -> io::Result<GroupCommitDelta> {
    let linger = invocation.wal_group_commit_us.max(200);
    let off = measure_group_commit(invocation, protocol, 0)?;
    let on = measure_group_commit(invocation, protocol, linger)?;
    eprintln!(
        "chaos: group-commit A/B — off: {} fsyncs / {} commits, on ({} µs): {} fsyncs / {} commits",
        off.fsyncs, off.completed, linger, on.fsyncs, on.completed,
    );
    Ok(GroupCommitDelta { off, on })
}

fn measure_group_commit(
    invocation: &ChaosInvocation,
    protocol: ProtocolKind,
    linger_us: u64,
) -> io::Result<GroupCommitSample> {
    let dir = std::env::temp_dir().join(format!(
        "splitbft-chaos-gc-{protocol}-{linger_us}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let options = NodeOptions {
        data_dir: Some(dir.clone()),
        wal_group_commit: Duration::from_micros(linger_us),
        ..NodeOptions::default()
    };
    let cluster =
        LocalCluster::launch(invocation.replicas, protocol, AppKind::Counter, invocation.seed, &options)?;
    let mut config = DriverConfig::new(
        cluster.addrs(),
        invocation.seed,
        reply_quorum_for(protocol, invocation.replicas)?,
    );
    config.clients = 4;
    config.pipeline = 4;
    config.duration = Duration::from_secs(3);
    config.drain_timeout = Duration::from_secs(10);
    let stats = driver::run(&config)?;
    let fsyncs = cluster.fsyncs();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(GroupCommitSample { linger_us, fsyncs, completed: stats.completed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_issue_invocation() {
        let inv = parse_args(&args(&[
            "--scenario", "rolling-restart", "--protocol", "splitbft",
        ]))
        .unwrap();
        assert_eq!(inv.scenario, "rolling-restart");
        assert_eq!(inv.protocols, vec![ProtocolKind::SplitBft]);
        assert_eq!(inv.replicas, 4);
        assert_eq!(inv.wal_group_commit_us, 200);
        assert!(!inv.skip_group_commit);
    }

    #[test]
    fn concurrent_victim_defaults_to_seven_replicas() {
        let inv = parse_args(&args(&[
            "--scenario", "concurrent-victim", "--protocol", "splitbft",
        ]))
        .unwrap();
        assert_eq!(inv.replicas, 7, "two simultaneous victims need f >= 2");
        let inv = parse_args(&args(&[
            "--scenario", "concurrent-victim", "--protocol", "splitbft", "--replicas", "10",
        ]))
        .unwrap();
        assert_eq!(inv.replicas, 10, "an explicit --replicas still wins");
    }

    #[test]
    fn shards_flag_parses_and_rejects_zero() {
        let inv = parse_args(&args(&[
            "--scenario", "rolling-restart", "--protocol", "pbft", "--shards", "2",
        ]))
        .unwrap();
        assert_eq!(inv.shards, 2);
        let inv =
            parse_args(&args(&["--scenario", "rolling-restart", "--protocol", "pbft"])).unwrap();
        assert_eq!(inv.shards, 1, "unsharded by default");
        assert!(parse_args(&args(&[
            "--scenario", "rolling-restart", "--protocol", "pbft", "--shards", "0",
        ]))
        .is_err());
    }

    #[test]
    fn link_rule_scenarios_are_reachable_from_the_cli() {
        for scenario in ["lossy-link", "reorder-under-load", "duplicate-storm"] {
            let inv = parse_args(&args(&["--scenario", scenario, "--protocol", "splitbft"]))
                .unwrap_or_else(|e| panic!("{scenario}: {e}"));
            assert_eq!(inv.scenario, scenario);
        }
    }

    #[test]
    fn compare_covers_all_protocols() {
        let inv =
            parse_args(&args(&["--scenario", "repeated-kill", "--compare", "--rounds", "2"]))
                .unwrap();
        assert_eq!(inv.protocols.len(), 3);
        assert_eq!(inv.rounds, 2);
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_args(&args(&["--protocol", "pbft"])).is_err(), "scenario required");
        assert!(
            parse_args(&args(&["--scenario", "coffee-spill", "--protocol", "pbft"])).is_err(),
            "unknown scenario"
        );
        assert!(
            parse_args(&args(&["--scenario", "rolling-restart"])).is_err(),
            "needs protocol or compare"
        );
        assert!(
            parse_args(&args(&[
                "--scenario", "rolling-restart", "--protocol", "pbft", "--compare",
            ]))
            .is_err(),
            "protocol and compare are exclusive"
        );
        assert!(
            parse_args(&args(&[
                "--scenario", "rolling-restart", "--protocol", "pbft", "--replicas", "3",
            ]))
            .is_err(),
            "too few replicas"
        );
        assert!(
            parse_args(&args(&["--scenario", "rolling-restart", "--bogus", "1"])).is_err(),
            "unknown flag"
        );
    }
}
