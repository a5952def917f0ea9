//! The fault catalog on the lock-step cluster.
//!
//! [`schedule`] holds the catalog: named crash, restart, drain,
//! partition, link-rule and Byzantine scenarios. [`run`] plays one of
//! them on a `lockstep::Cluster` of real replicas — PBFT, SplitBFT or
//! the hybrid, each wrapped in [`ByzantineProtocol`] (honest unless the
//! schedule names a mode) and in the durability plane's
//! `DurableProtocol`, with one data directory per replica under the
//! temp dir — while a closed-loop client keeps submitting counter
//! `inc`s. Every step maps onto the cluster:
//!
//! - `Kill` crashes the replica; `Start` restarts it from what
//!   `DurableProtocol::recover` finds in its directory; `Drain` runs the
//!   host's real drain epilogue ([`Cluster::drain`]) before the crash;
//! - partitions and link rules are `FaultCommand`s on the cluster's
//!   fault plan;
//! - `Sleep` advances virtual time one stall-timer period at a time,
//!   ticking every replica's timer after each;
//! - `AwaitCommits` and `AwaitRejoin` run the client until enough
//!   requests complete, or until the victim answers a fresh one, within
//!   a step budget; running out of budget fails the phase. The one
//!   exception is the hybrid with its fixed primary down: it has no
//!   view change, so nothing can commit until the primary restarts, and
//!   `AwaitCommits` waits out a fixed gap instead.
//!
//! PBFT and SplitBFT replicas checkpoint every [`CHECKPOINT_INTERVAL`]
//! executions, so a crash gap crosses sealed checkpoints and a victim
//! can rejoin through a peer's checkpoint as well as its log suffix. A
//! schedule that starts the whole cluster first commits past one
//! checkpoint, so even its first victim has a WAL to recover from.
//!
//! The oracle is what a client sees. A request completes on `f + 1`
//! matching MAC-verified replies ([`Client`]); the counter
//! returns its post-increment value, so no two accepted requests may
//! carry the same one ([`Oracle`]). That catches a fork and a rollback
//! after a restart alike. Nothing reads a wall clock, so a schedule
//! replays exactly: the same steps give the same replies.

pub mod schedule;

pub use schedule::{FaultStep, Phase, Schedule};

use crate::byzantine::{ByzantineMessage, ByzantineProtocol};
use bytes::Bytes;
use splitbft_app::{Client, ClientEvent, CounterApp};
use splitbft_core::SplitBftReplica;
use splitbft_hybrid::{HybridConfig, HybridReplica, Usig};
use splitbft_net::lockstep::Cluster;
use splitbft_net::{FaultPlan, Protocol};
use splitbft_pbft::Replica as PbftReplica;
use splitbft_shard::{ShardMember, ShardRouter, Sharded};
use splitbft_store::{replica_sealing_identity, DurableProtocol};
use splitbft_tee::{CostModel, ExecMode};
use splitbft_types::status::StatusEvent;
use splitbft_types::{
    ClientId, ClusterConfig, FaultCommand, ReplicaId, Reply, RequestId, ShardId, Timestamp,
};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The replication stacks the catalog runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// The PBFT baseline (`3f + 1`).
    Pbft,
    /// SplitBFT: three compartments per replica (`3f + 1`).
    SplitBft,
    /// The MinBFT-style hybrid (`2f + 1`, fixed primary, no view change).
    Hybrid,
}

impl Stack {
    /// All three, in the order reports list them.
    pub const ALL: [Stack; 3] = [Stack::Pbft, Stack::SplitBft, Stack::Hybrid];

    /// The stack's name as the node's `--protocol` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Stack::Pbft => "pbft",
            Stack::SplitBft => "splitbft",
            Stack::Hybrid => "minbft",
        }
    }

    /// Faulty replicas tolerated at cluster size `n`.
    ///
    /// # Errors
    ///
    /// `n` below the stack's minimum.
    pub fn f(self, n: usize) -> Result<usize, String> {
        match self {
            Stack::Pbft | Stack::SplitBft => ClusterConfig::new(n).map(|c| c.f()),
            Stack::Hybrid => HybridConfig::new(n).map(|c| c.f()),
        }
        .map_err(|e| format!("{} at n = {n}: {e}", self.name()))
    }
}

/// What a schedule runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deployment {
    /// The replication stack.
    pub stack: Stack,
    /// Cluster size.
    pub n: usize,
    /// Consensus groups per replica (the counter pins to shard 0, so a
    /// sharded run checks that every shard recovers its own WAL while
    /// the others idle).
    pub shards: u32,
}

impl Deployment {
    /// `stack` at size `n`, unsharded.
    pub fn new(stack: Stack, n: usize) -> Self {
        Deployment { stack, n, shards: 1 }
    }
}

impl fmt::Display for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} n={}", self.stack.name(), self.n)?;
        if self.shards > 1 {
            write!(f, " shards={}", self.shards)?;
        }
        Ok(())
    }
}

/// Rejects schedules that cannot pass on this stack or cluster shape,
/// before anything runs.
///
/// The rules encode protocol facts, not taste:
///
/// - the hybrid has no view change, so a schedule that kills its fixed
///   primary as the *leader* (`primary-kill`) wedges the cluster by
///   design; a restart of replica 0 in a rolling schedule is fine, as
///   [`run`] waits out its gap instead of awaiting commits;
/// - the hybrid's USIG counter makes primary equivocation unforgeable,
///   so `equivocating-primary` would serve honestly and the scenario
///   would vacuously pass;
/// - frame loss on the hybrid's primary links cannot be routed around;
/// - a symmetric partition whose smaller side exceeds `f` leaves *no*
///   component with a commit quorum.
///
/// # Errors
///
/// The reason, naming the scenario and the rule.
pub fn validate(schedule: &Schedule, deployment: &Deployment) -> Result<(), String> {
    let unsupported =
        |reason: String| Err(format!("{} on {deployment}: {reason}", schedule.scenario));
    let f = deployment.stack.f(deployment.n)?;
    let hybrid = deployment.stack == Stack::Hybrid;
    if deployment.shards == 0 {
        return unsupported("shards must be at least 1".into());
    }
    if hybrid && schedule.scenario == "primary-kill" {
        return unsupported(
            "the hybrid has a fixed primary and no view change; killing it wedges the \
             cluster by design"
                .into(),
        );
    }
    for &(replica, mode) in &schedule.byzantine {
        if replica >= deployment.n {
            return unsupported(format!("replica {replica} is not in the cluster"));
        }
        if hybrid && mode == crate::byzantine::ByzantineMode::EquivocatingPrimary {
            return unsupported(
                "the USIG's monotone counter makes primary equivocation unforgeable, so \
                 the mode would silently serve honestly and the scenario would vacuously \
                 pass"
                    .into(),
            );
        }
    }
    let primary = ReplicaId(0);
    for step in schedule.phases.iter().flat_map(|p| &p.steps) {
        match step {
            // Frame loss on the hybrid's fixed-primary links starves
            // USIG quorums: no view change moves traffic off the primary.
            FaultStep::Net(FaultCommand::SetRule(rule))
                if hybrid
                    && rule.drop_percent > 0
                    && (rule.from == primary || rule.to == primary) =>
            {
                let (from, to, drop) = (rule.from.0, rule.to.0, rule.drop_percent);
                return unsupported(format!(
                    "link {from} -> {to} drops {drop}% of frames on the fixed primary's \
                     path, and there is no view change to route around sustained loss"
                ));
            }
            FaultStep::Net(FaultCommand::Partition { name, side_a, side_b, symmetric: true }) => {
                // Unlisted replicas stay connected to both sides, so the
                // larger component holds a commit quorum (n - f) exactly
                // when the smaller named side fits inside f.
                let smaller = side_a.len().min(side_b.len());
                if smaller > f {
                    return unsupported(format!(
                        "partition {name:?} cuts {smaller} replicas off at once but f = \
                         {f}: no component keeps a live commit quorum, so commits cannot \
                         advance under the cut"
                    ));
                }
                let other = if side_a.contains(&primary) { side_b.len() } else { side_a.len() };
                if hybrid && (side_a.contains(&primary) || side_b.contains(&primary)) && other > f {
                    return unsupported(format!(
                        "partition {name:?} cuts the fixed primary off from {other} \
                         replicas but f = {f}: it cannot reach a USIG quorum across the \
                         cut and there is no view change to route around it"
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Two requests a client accepted with one result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The result both claim.
    pub result: Bytes,
    /// The request accepted with it first.
    pub first: RequestId,
    /// The later, conflicting request.
    pub second: RequestId,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "safety violation: requests {:?} and {:?} were both accepted with result {:02x?}",
            self.first, self.second, self.result
        )
    }
}

/// The client-side safety oracle: every accepted `inc` claims the
/// counter value it returned, and no value may be claimed twice. On one
/// history each `inc` returns a fresh value, so a duplicate means two
/// divergent histories both executed that position (a fork) or the
/// cluster forgot commits and counted them again (a rollback).
#[derive(Debug, Default)]
pub struct Oracle {
    claimed: BTreeMap<Bytes, RequestId>,
}

impl Oracle {
    /// An oracle that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `request` as accepted with `result`. The same request
    /// completing again (a retransmission) is benign.
    ///
    /// # Errors
    ///
    /// The [`Violation`]; the result stays claimed by its first owner.
    pub fn accept(&mut self, request: RequestId, result: Bytes) -> Result<(), Violation> {
        match self.claimed.get(&result) {
            Some(&first) if first != request => Err(Violation { result, first, second: request }),
            Some(_) => Ok(()),
            None => {
                self.claimed.insert(result, request);
                Ok(())
            }
        }
    }
}

/// What one phase did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseOutcome {
    /// The phase's name.
    pub name: String,
    /// Requests the client saw complete during the phase.
    pub commits: u64,
    /// `Some(ok)` for each phase with an `AwaitRejoin` step.
    pub rejoined: Option<bool>,
    /// Protocol messages the victim applied from peers' log suffixes,
    /// read from its event journal at the end of the phase.
    pub suffix_messages: u64,
    /// Execution progress those suffixes bought.
    pub suffix_progress: u64,
    /// Peer checkpoints the victim restored (with `f + 1` agreeing),
    /// read from the same journal.
    pub checkpoint_restores: u64,
    /// Why the phase failed, if it did. A failed phase ends the run.
    pub failure: Option<String>,
}

/// What one run of a schedule did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The scenario's name.
    pub scenario: String,
    /// What it ran on.
    pub deployment: Deployment,
    /// Every phase that ran.
    pub phases: Vec<PhaseOutcome>,
    /// Every violation the oracle saw.
    pub violations: Vec<Violation>,
    /// Every reply the client read, in order.
    pub replies: Vec<Reply>,
    /// Requests the client saw complete.
    pub commits: u64,
    /// Virtual time the run took.
    pub elapsed: Duration,
}

impl RunReport {
    /// Every phase passed, and the oracle saw no violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.phases.iter().all(|p| p.failure.is_none())
    }

    /// Suffix messages applied, over every phase's victim.
    pub fn suffix_messages_applied(&self) -> u64 {
        self.phases.iter().map(|p| p.suffix_messages).sum()
    }

    /// Execution progress bought by suffixes, over every phase's victim.
    pub fn suffix_progress(&self) -> u64 {
        self.phases.iter().map(|p| p.suffix_progress).sum()
    }

    /// Peer checkpoints restored, over every phase's victim.
    pub fn checkpoint_restores(&self) -> u64 {
        self.phases.iter().map(|p| p.checkpoint_restores).sum()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {}: {}, {} commits, {} replies, {:?} virtual",
            self.scenario,
            self.deployment,
            if self.ok() { "ok" } else { "FAILED" },
            self.commits,
            self.replies.len(),
            self.elapsed,
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "  {:<32} commits {:>3}, rejoined {:?}, suffix {} msg(s) +{}, {} checkpoint(s) \
                 restored: {}",
                p.name,
                p.commits,
                p.rejoined,
                p.suffix_messages,
                p.suffix_progress,
                p.checkpoint_restores,
                p.failure.as_deref().unwrap_or("ok"),
            )?;
        }
        self.violations.iter().try_for_each(|v| writeln!(f, "  {v}"))
    }
}

/// Keys, sealing identities and the fault plan's decisions derive from
/// it.
const SEED: u64 = 42;

/// One stall-timer period, the unit `Sleep` advances by.
const TICK: Duration = Duration::from_millis(400);

/// Executions between PBFT and SplitBFT checkpoints: below the
/// schedules' crash gaps, so every gap crosses at least one.
pub const CHECKPOINT_INTERVAL: u64 = 4;

/// Periods `AwaitCommits` waits while the hybrid's fixed primary is
/// down — the catalog's primary-kill gap.
const PRIMARY_DOWN_PERIODS: u64 = 3;

/// Requests a fully started cluster completes before the first phase,
/// so the first victim dies with a sealed checkpoint and a WAL tail to
/// recover from rather than an empty directory.
const WARM_UP_COMMITS: u64 = CHECKPOINT_INTERVAL + 1;

/// Stall-timer periods an `AwaitCommits`, an `AwaitRejoin` or a phase's
/// final advance check may take.
const AWAIT_STEPS: u64 = 150;

/// Periods the client waits for a reply quorum before its request is
/// due again, for every replica: the client's `resend_after`.
const RETRANSMIT_STEPS: u64 = 2;

/// Requests the client completes back to back before the next period.
const BURST: usize = 8;

/// The client every request comes from.
const CLIENT: ClientId = ClientId(7);

/// Validates `schedule`, then runs it on `deployment`. See the module
/// docs for how each step maps onto the cluster.
///
/// # Errors
///
/// A [`validate`] rejection, or an I/O error from the data directories.
/// A failed phase or an oracle violation is in the report, not here.
pub fn run(schedule: &Schedule, deployment: &Deployment) -> Result<RunReport, String> {
    validate(schedule, deployment)?;
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let (n, root) = (deployment.n, scratch.0.as_path());
    let result = match deployment.stack {
        Stack::Pbft => {
            let config = checkpointing(n)?;
            host(schedule, deployment, root, |id| {
                PbftReplica::new(config.clone(), id, SEED, CounterApp::new())
            })
        }
        Stack::SplitBft => {
            let config = checkpointing(n)?;
            host(schedule, deployment, root, |id| {
                let (mode, cost) = (ExecMode::Hardware, CostModel::paper_calibrated());
                SplitBftReplica::new(config.clone(), id, SEED, CounterApp::new(), mode, cost)
            })
        }
        Stack::Hybrid => {
            let config = HybridConfig::new(n).map_err(|e| e.to_string())?;
            host(schedule, deployment, root, |id| {
                HybridReplica::new(config.clone(), id, SEED, Usig::new(SEED, id), CounterApp::new())
            })
        }
    };
    result.map_err(|e| format!("{} on {deployment}: {e}", schedule.scenario))
}

/// A 3f + 1 cluster of `n` checkpointing every [`CHECKPOINT_INTERVAL`].
fn checkpointing(n: usize) -> Result<ClusterConfig, String> {
    ClusterConfig::new(n)
        .map(|c| c.with_checkpoint_interval(CHECKPOINT_INTERVAL))
        .map_err(|e| e.to_string())
}

/// A directory under the temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> io::Result<Self> {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("splitbft-catalog-{}-{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `protocol` recovered from `dir` — empty on first start — in
/// group-commit mode, whose one fsync per drain batch the cluster's
/// batches close.
fn durable<P: Protocol>(protocol: P, dir: &Path, id: ReplicaId) -> io::Result<DurableProtocol<P>> {
    let identity = replica_sealing_identity(SEED, id);
    Ok(DurableProtocol::recover(protocol, dir, identity)?.with_group_commit(true))
}

/// Wraps `make`'s replicas for the schedule — Byzantine lens inside,
/// durability outside, one durable instance per shard when sharded —
/// and drives the run.
fn host<P>(
    schedule: &Schedule,
    deployment: &Deployment,
    root: &Path,
    make: impl Fn(ReplicaId) -> P,
) -> io::Result<RunReport>
where
    P: Protocol,
    P::Message: ByzantineMessage,
{
    let (n, shards) = (deployment.n, deployment.shards);
    let replica = |i: usize| {
        let id = ReplicaId(i as u32);
        (ByzantineProtocol::new(make(id), schedule.mode_of(i), SEED, id, n), id)
    };
    let dir = |i: usize| root.join(format!("replica-{i}"));
    if shards <= 1 {
        return drive(schedule, deployment, |i| {
            let (protocol, id) = replica(i);
            durable(protocol, &dir(i), id)
        });
    }
    // The counter carries no key, so every request routes to shard 0.
    let router = ShardRouter::new(shards, false);
    drive(schedule, deployment, |i| {
        let instances = (0..shards).map(|s| {
            let (protocol, id) = replica(i);
            let shard_dir = dir(i).join(format!("shard-{s}"));
            durable(ShardMember::new(ShardId(s), protocol), &shard_dir, id)
        });
        Ok(Sharded::new(router, instances.collect::<io::Result<_>>()?))
    })
}

/// The cluster, the closed-loop client and the oracle of one run.
struct Driver<Q: Protocol> {
    cluster: Cluster<Q>,
    /// One request in flight, its clock the stall-timer periods.
    client: Client,
    /// Stall-timer periods elapsed.
    periods: u64,
    /// The stack is the hybrid and its fixed primary is down.
    fixed_primary_down: bool,
    hybrid: bool,
    commits: u64,
    oracle: Oracle,
    violations: Vec<Violation>,
    replies: Vec<Reply>,
    /// An `AwaitRejoin` in progress: the victim and the first fresh
    /// timestamp.
    rejoin: Option<(ReplicaId, Timestamp)>,
    rejoined: bool,
}

fn drive<Q: Protocol>(
    schedule: &Schedule,
    deployment: &Deployment,
    make: impl Fn(usize) -> io::Result<Q>,
) -> io::Result<RunReport> {
    let n = deployment.n;
    let mut cluster = Cluster::new((0..n).map(&make).collect::<io::Result<Vec<_>>>()?);
    cluster.faults = FaultPlan::new(SEED);
    if !schedule.start_all {
        // Not started yet, rather than crashed: a node's outbound ring
        // holds frames for a peer that has never connected, so a late
        // starter finds what was sent to it before it came up.
        (0..n).for_each(|i| cluster.hold(i));
    }
    let quorum = deployment.stack.f(n).map_err(io::Error::other)? + 1;
    let mut driver = Driver {
        cluster,
        client: Client::new(quorum, CLIENT, SEED).resending_after(RETRANSMIT_STEPS),
        periods: 0,
        fixed_primary_down: false,
        hybrid: deployment.stack == Stack::Hybrid,
        commits: 0,
        oracle: Oracle::new(),
        violations: Vec::new(),
        replies: Vec::new(),
        rejoin: None,
        rejoined: false,
    };
    let mut phases: Vec<PhaseOutcome> = Vec::new();
    if schedule.start_all && !driver.pump_until(|d| d.commits >= WARM_UP_COMMITS) {
        let got = driver.commits;
        phases.push(PhaseOutcome {
            name: "warm-up".into(),
            commits: got,
            rejoined: None,
            suffix_messages: 0,
            suffix_progress: 0,
            checkpoint_restores: 0,
            failure: Some(format!("{got} of {WARM_UP_COMMITS} commits within the budget")),
        });
    } else {
        for phase in &schedule.phases {
            let outcome = driver.phase(phase, &make)?;
            let failed = outcome.failure.is_some();
            phases.push(outcome);
            if failed {
                break;
            }
        }
    }
    Ok(RunReport {
        scenario: schedule.scenario.clone(),
        deployment: *deployment,
        phases,
        violations: driver.violations,
        replies: driver.replies,
        commits: driver.commits,
        elapsed: TICK * driver.periods as u32,
    })
}

impl<Q: Protocol> Driver<Q> {
    fn phase(
        &mut self,
        phase: &Phase,
        make: &impl Fn(usize) -> io::Result<Q>,
    ) -> io::Result<PhaseOutcome> {
        let before = self.commits;
        let mut rejoined = None;
        let mut failure = None;
        for step in &phase.steps {
            match step {
                FaultStep::Kill(i) => self.crash(*i),
                FaultStep::Drain(i) if !self.cluster.drain(*i) => {
                    failure = Some(format!("replica {i} never finished draining"));
                    break;
                }
                FaultStep::Drain(i) => self.crash(*i),
                FaultStep::Start(i) => {
                    self.fixed_primary_down &= *i != 0;
                    self.cluster.restart(*i, make(*i)?);
                    self.cluster.run();
                    self.read_replies();
                }
                FaultStep::Sleep(d) => {
                    self.sleep(d.as_millis().div_ceil(TICK.as_millis()) as u64);
                }
                FaultStep::AwaitCommits(_) if self.fixed_primary_down => {
                    self.sleep(PRIMARY_DOWN_PERIODS);
                }
                FaultStep::AwaitCommits(k) => {
                    let from = self.commits;
                    if !self.pump_until(|d| d.commits >= from + k) {
                        let got = self.commits - from;
                        failure = Some(format!("{got} of {k} commits within the budget"));
                        break;
                    }
                }
                FaultStep::AwaitRejoin(v) => {
                    let fresh = self.client.next_request_id().timestamp;
                    self.rejoin = Some((ReplicaId(*v as u32), fresh));
                    self.rejoined = false;
                    let ok = self.pump_until(|d| d.rejoined);
                    self.rejoin = None;
                    rejoined = Some(ok);
                    if !ok {
                        failure = Some(format!("replica {v} answered no fresh request"));
                        break;
                    }
                }
                FaultStep::Net(command) => self.cluster.faults.apply(command.clone()),
            }
        }
        if failure.is_none() && phase.expect_advance && !self.pump_until(|d| d.commits > before) {
            failure = Some("commits did not advance".into());
        }
        let (mut suffix_messages, mut suffix_progress, mut checkpoint_restores) = (0, 0, 0);
        let journal = phase.victim.map(|v| self.cluster.telemetry(v).journal.since(0));
        for (_, event) in journal.unwrap_or_default() {
            match event {
                StatusEvent::StateTransferApplied { messages, from_progress, to_progress } => {
                    suffix_messages += messages;
                    suffix_progress += to_progress.saturating_sub(from_progress);
                }
                StatusEvent::CheckpointRestored { .. } => checkpoint_restores += 1,
                _ => {}
            }
        }
        Ok(PhaseOutcome {
            name: phase.name.clone(),
            commits: self.commits - before,
            rejoined,
            suffix_messages,
            suffix_progress,
            checkpoint_restores,
            failure,
        })
    }

    fn crash(&mut self, i: usize) {
        self.cluster.crash(i);
        self.fixed_primary_down |= self.hybrid && i == 0;
    }

    /// `periods` stall-timer periods of virtual time with the client
    /// keeping one request in flight.
    fn sleep(&mut self, periods: u64) {
        for _ in 0..periods {
            if self.client.room() > 0 {
                self.issue();
            }
            self.period();
        }
    }

    /// Runs the client — back-to-back requests, a stall-timer period
    /// whenever it has to wait — until `done`, within [`AWAIT_STEPS`]
    /// periods.
    fn pump_until(&mut self, done: impl Fn(&Self) -> bool) -> bool {
        let deadline = self.periods + AWAIT_STEPS;
        let mut burst = 0;
        while !done(self) {
            if self.client.room() > 0 && burst < BURST {
                self.issue();
                burst += 1;
            } else if self.periods < deadline {
                self.period();
                burst = 0;
            } else {
                return false;
            }
        }
        true
    }

    /// Issues the next `inc` to the replica the client believes leads.
    fn issue(&mut self) {
        let request = self.client.issue_at(Bytes::from_static(b"inc"), false, self.periods, 0);
        let primary = self.client.primary(self.cluster.n());
        self.cluster.submit(primary, std::slice::from_ref(&request));
        self.read_replies();
    }

    /// One stall-timer period of virtual time, then every replica gets
    /// what the client holds due again.
    fn period(&mut self) {
        self.cluster.advance(TICK);
        self.cluster.tick();
        self.periods += 1;
        self.read_replies();
        let due = self.client.due(self.periods);
        if !due.is_empty() {
            for i in 0..self.cluster.n() {
                self.cluster.submit(i, &due);
            }
            self.read_replies();
        }
    }

    /// Hands every reply the replicas sent to the client and the oracle.
    fn read_replies(&mut self) {
        for reply in std::mem::take(&mut self.cluster.replies) {
            if let Some((victim, fresh)) = self.rejoin {
                self.rejoined |= reply.replica == victim
                    && reply.request.timestamp >= fresh
                    && self.client.authentic(&reply);
            }
            if let ClientEvent::Completed(result) = self.client.on_reply(&reply) {
                self.commits += 1;
                if let Err(violation) = self.oracle.accept(reply.request, result) {
                    self.violations.push(violation);
                }
            }
            self.replies.push(reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::LinkRule;

    fn rejected(result: Result<(), String>) -> String {
        result.expect_err("validate must reject this")
    }

    #[test]
    fn the_hybrid_rejects_primary_kill_up_front() {
        let hybrid = Deployment::new(Stack::Hybrid, 4);
        let reason = rejected(validate(&schedule::primary_kill(4, 1), &hybrid));
        assert!(reason.contains("no view change"), "got: {reason}");
    }

    #[test]
    fn the_hybrid_restarts_and_starts_its_fixed_primary_like_any_replica() {
        let hybrid = Deployment::new(Stack::Hybrid, 4);
        let schedules =
            [schedule::rolling_restart(4), schedule::drain_restart(4), schedule::staggered_start(4)];
        for schedule in schedules {
            validate(&schedule, &hybrid)
                .unwrap_or_else(|e| panic!("{} must validate: {e}", schedule.scenario));
        }
    }

    #[test]
    fn the_hybrid_rejects_an_equivocating_primary() {
        let hybrid = Deployment::new(Stack::Hybrid, 4);
        let reason = rejected(validate(&schedule::equivocate_under_load(4), &hybrid));
        assert!(reason.contains("USIG"), "got: {reason}");
    }

    #[test]
    fn the_hybrid_rejects_cutting_off_its_fixed_primary() {
        let hybrid = Deployment::new(Stack::Hybrid, 4);
        let reason = rejected(validate(&schedule::partition_primary(4), &hybrid));
        assert!(reason.starts_with("partition-primary on minbft n=4: "), "got: {reason}");
        assert!(reason.contains("fixed primary"), "got: {reason}");
    }

    #[test]
    fn the_hybrid_rejects_drops_on_the_fixed_primarys_links() {
        let mut schedule = schedule::lossy_link(4);
        let rule = LinkRule { drop_percent: 10, ..LinkRule::clean(ReplicaId(0), ReplicaId(1)) };
        schedule.phases[0].steps[0] = FaultStep::Net(FaultCommand::SetRule(rule));
        let reason = rejected(validate(&schedule, &Deployment::new(Stack::Hybrid, 4)));
        assert!(reason.contains("fixed primary"), "got: {reason}");
        // View-change protocols mask partial loss on any single link.
        validate(&schedule, &Deployment::new(Stack::Pbft, 4)).unwrap();
    }

    #[test]
    fn a_quorum_destroying_partition_is_rejected_on_any_stack() {
        // concurrent-victim cuts two replicas at once: fine at n = 7
        // (f = 2), fatal at n = 4 (f = 1) where no side keeps 2f + 1.
        for stack in Stack::ALL {
            let reason =
                rejected(validate(&schedule::concurrent_victim(4), &Deployment::new(stack, 4)));
            assert!(reason.contains("commit quorum"), "{stack:?}: {reason}");
            validate(&schedule::concurrent_victim(7), &Deployment::new(stack, 7))
                .unwrap_or_else(|e| panic!("n = 7 keeps a majority side: {e}"));
        }
    }

    #[test]
    fn shapes_and_shards_are_checked() {
        let mut sharded = Deployment::new(Stack::Pbft, 4);
        sharded.shards = 0;
        let reason = rejected(validate(&schedule::rolling_restart(4), &sharded));
        assert!(reason.contains("shards"), "got: {reason}");
        let small = Deployment::new(Stack::Pbft, 3);
        let reason = rejected(validate(&schedule::rolling_restart(3), &small));
        assert!(reason.contains("pbft at n = 3"), "got: {reason}");
        let hybrid = Deployment::new(Stack::Hybrid, 3);
        let reason = rejected(validate(&schedule::silent_backup(4), &hybrid));
        assert!(reason.contains("replica 3 is not in the cluster"), "got: {reason}");
    }

    #[test]
    fn link_rule_and_byzantine_backup_rows_validate_on_every_stack() {
        let link_rules = ["lossy-link", "reorder-under-load", "duplicate-storm"];
        for name in link_rules.into_iter().chain(["silent-backup", "corrupt-mac-backup"]) {
            let schedule = Schedule::by_name(name, 4, 1).unwrap();
            for stack in Stack::ALL {
                validate(&schedule, &Deployment::new(stack, 4))
                    .unwrap_or_else(|e| panic!("{name} must validate on {stack:?}: {e}"));
            }
        }
    }

    #[test]
    fn the_oracle_claims_each_value_once() {
        let id = |ts| RequestId { client: CLIENT, timestamp: Timestamp(ts) };
        let one = Bytes::copy_from_slice(&1u64.to_le_bytes());
        let mut oracle = Oracle::new();
        oracle.accept(id(1), one.clone()).unwrap();
        oracle.accept(id(1), one.clone()).expect("a retransmission completing again");
        let fork = oracle.accept(id(2), one.clone()).unwrap_err();
        assert_eq!(fork, Violation { result: one.clone(), first: id(1), second: id(2) });
        oracle.accept(id(1), one).expect("the value stays claimed by its first owner");
    }
}
