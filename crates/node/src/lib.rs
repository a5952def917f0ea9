//! Library half of the `splitbft-node` binary: cluster-file parsing and
//! the protocol-dispatch glue that turns one config into a running
//! replica or a driving client.
//!
//! # Cluster file
//!
//! A deployment is described by a small TOML file (parsed by a built-in
//! subset parser — the environment has no `toml` crate — supporting
//! comments, `key = value` pairs with string/integer values, and
//! `[[replica]]` array tables):
//!
//! ```toml
//! # cluster.toml — a 4-replica localhost deployment
//! protocol = "splitbft"   # pbft | splitbft | minbft (CLI --protocol overrides)
//! seed = 42               # master seed shared by replicas and clients
//! app = "counter"         # counter | kvs | blockchain
//!
//! # Optional runtime knobs (defaults shown; CLI flags override):
//! timeout_ms = 2000       # view-change timer period; 0 disables
//! batch_max_frames = 64   # send-path batching: frames per write
//! batch_max_bytes = 262144 #   bytes per write
//! # data_dir = "/var/lib/splitbft"  # durability root (omit = in-memory);
//! #                                 # replica i persists under
//! #                                 # <data_dir>/replica-<i>/
//! wal_group_commit_us = 0  # WAL group-commit linger: 0 = fsync per
//!                          # loop pass; >0 shares one fsync per drain
//!                          # batch held open that long (needs data_dir)
//!
//! [[replica]]
//! id = 0
//! addr = "127.0.0.1:7100"
//!
//! [[replica]]
//! id = 1
//! addr = "127.0.0.1:7101"
//!
//! [[replica]]
//! id = 2
//! addr = "127.0.0.1:7102"
//!
//! [[replica]]
//! id = 3
//! addr = "127.0.0.1:7103"
//! ```
//!
//! Every replica process and every client reads the same file, so the
//! file *is* the membership: ids, addresses, protocol, and the seed from
//! which all symmetric keys derive.
//!
//! # The request-aware view-change timer
//!
//! Deployed nodes arm the runtime timer (`timeout_ms`). The tick is
//! *request-aware* (see `splitbft_net::transport::Protocol::progress`):
//! it forwards to the protocol's timeout handler only when a client
//! request has been accepted but no execution progress happened across
//! a full period — so an idle cluster never churns views, while a
//! crashed primary fails over once clients start (re)transmitting.
//! MinBFT keeps its timer quiet (its view change is out of scope).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;

use bytes::Bytes;
use splitbft_app::{Application, Blockchain, Client, ClientEvent, CounterApp, KeyValueStore};
use splitbft_core::SplitBftReplica;
use splitbft_hybrid::{HybridConfig, HybridReplica, Usig};
use splitbft_net::transport::{BatchPolicy, Protocol};
use splitbft_net::{
    BoundEventedNode, EventedNode, NodeConfig, PeerAddr, RecoveryPolicy, TcpClient,
};
use splitbft_pbft::Replica as PbftReplica;
use splitbft_shard::{ShardMember, ShardRouter, Sharded};
use splitbft_store::{replica_sealing_identity, DurableProtocol};
use splitbft_tee::{CostModel, ExecMode};
use splitbft_types::{ClientId, ClusterConfig, ReplicaId, ShardId, StatusEvent};
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Which of the three protocol stacks a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The PBFT baseline (`3f + 1`, three phases).
    Pbft,
    /// SplitBFT with its three trusted compartments (`3f + 1`).
    SplitBft,
    /// The MinBFT-style hybrid (`2f + 1`, trusted counters).
    MinBft,
}

impl FromStr for ProtocolKind {
    type Err = ConfigError;
    fn from_str(s: &str) -> Result<Self, ConfigError> {
        match s {
            "pbft" => Ok(ProtocolKind::Pbft),
            "splitbft" => Ok(ProtocolKind::SplitBft),
            "minbft" => Ok(ProtocolKind::MinBft),
            other => Err(ConfigError::new(format!(
                "unknown protocol {other:?} (expected pbft, splitbft, or minbft)"
            ))),
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProtocolKind::Pbft => "pbft",
            ProtocolKind::SplitBft => "splitbft",
            ProtocolKind::MinBft => "minbft",
        })
    }
}

/// Which replicated application the cluster serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// The trivial counter (`inc` / `read` operations).
    Counter,
    /// The key-value store (`put`/`get`/`delete` operations).
    Kvs,
    /// The blockchain ordering service (any operation is a transaction).
    Blockchain,
}

impl FromStr for AppKind {
    type Err = ConfigError;
    fn from_str(s: &str) -> Result<Self, ConfigError> {
        match s {
            "counter" => Ok(AppKind::Counter),
            "kvs" => Ok(AppKind::Kvs),
            "blockchain" => Ok(AppKind::Blockchain),
            other => Err(ConfigError::new(format!(
                "unknown app {other:?} (expected counter, kvs, or blockchain)"
            ))),
        }
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AppKind::Counter => "counter",
            AppKind::Kvs => "kvs",
            AppKind::Blockchain => "blockchain",
        })
    }
}

/// Runtime knobs of a deployed node, read from the cluster file and
/// overridable per invocation with CLI flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOptions {
    /// Send-path batching limits of the peer links.
    pub batch: BatchPolicy,
    /// Period of the request-aware view-change timer; `None` disables
    /// it (`timeout_ms = 0` in the cluster file).
    pub timeout_every: Option<Duration>,
    /// Root of the durability plane (`data_dir` in the cluster file or
    /// `--data-dir` on the CLI). Each replica keeps its WAL and sealed
    /// checkpoints under `<data_dir>/replica-<id>/`; `None` hosts the
    /// replica purely in memory, as before.
    pub data_dir: Option<PathBuf>,
    /// WAL group-commit linger (`wal_group_commit_us` in the cluster
    /// file, `--wal-group-commit-us` on the CLI). Zero — the default —
    /// fsyncs once per loop pass that handled events; a positive linger
    /// lets the node's loop coalesce everything arriving within that
    /// much waiting time into one drain batch sharing a single fsync.
    /// Meaningless without `data_dir`.
    pub wal_group_commit: Duration,
    /// Number of consensus groups this node hosts (`shards` in the
    /// cluster file, `--shards` on the CLI). The default `1` hosts the
    /// protocol exactly as before — unwrapped, byte-compatible on the
    /// wire and on disk. Above one, the node runs that many independent
    /// protocol instances behind a [`splitbft_shard::Sharded`]
    /// combinator: KVS keys hash to their owning group, other
    /// applications pin to shard 0, and a durable replica keeps one WAL
    /// per group under `<data_dir>/replica-<id>/shard-<s>/`.
    pub shards: u32,
}

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions {
            batch: BatchPolicy::default(),
            timeout_every: Some(Duration::from_millis(2_000)),
            data_dir: None,
            wal_group_commit: Duration::ZERO,
            shards: 1,
        }
    }
}

/// A parse or validation error in a cluster file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    msg: String,
}

impl ConfigError {
    fn new(msg: impl Into<String>) -> Self {
        ConfigError { msg: msg.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster config: {}", self.msg)
    }
}

impl std::error::Error for ConfigError {}

/// A parsed cluster file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterFile {
    /// Default protocol (overridable per invocation).
    pub protocol: ProtocolKind,
    /// Master seed from which all symmetric keys derive.
    pub seed: u64,
    /// The replicated application.
    pub app: AppKind,
    /// Runtime knobs (batching, view-change timer).
    pub options: NodeOptions,
    /// The membership: replica ids and their listen addresses, sorted
    /// and validated to be exactly `0..n`.
    pub replicas: Vec<PeerAddr>,
}

impl ClusterFile {
    /// Listen address of replica `id`.
    pub fn addr_of(&self, id: ReplicaId) -> Option<SocketAddr> {
        self.replicas.iter().find(|p| p.id == id).map(|p| p.addr)
    }

    /// All replica addresses in id order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.replicas.iter().map(|p| p.addr).collect()
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.replicas.len()
    }
}

/// Parses the TOML subset described in the crate docs.
pub fn parse_cluster_toml(text: &str) -> Result<ClusterFile, ConfigError> {
    let mut protocol = ProtocolKind::SplitBft;
    let mut seed: u64 = 42;
    let mut app = AppKind::Counter;
    let mut options = NodeOptions::default();
    let mut replicas: Vec<(Option<u32>, Option<SocketAddr>)> = Vec::new();
    // `None` = top level; `Some(i)` = inside the i-th [[replica]] table.
    let mut current: Option<usize> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| ConfigError::new(format!("line {}: {msg}", lineno + 1));
        if line == "[[replica]]" {
            replicas.push((None, None));
            current = Some(replicas.len() - 1);
            continue;
        }
        if line.starts_with('[') {
            return Err(err(format!("unsupported table {line}")));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(format!("expected `key = value`, got {line:?}")));
        };
        let (key, value) = (key.trim(), value.trim());
        match (current, key) {
            (None, "protocol") => protocol = parse_string(value).and_then(|s| s.parse())?,
            (None, "seed") => {
                seed = value
                    .parse()
                    .map_err(|_| err(format!("seed must be an integer, got {value:?}")))?;
            }
            (None, "app") => app = parse_string(value).and_then(|s| s.parse())?,
            (None, "timeout_ms") => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| err(format!("timeout_ms must be an integer, got {value:?}")))?;
                options.timeout_every = (ms > 0).then(|| Duration::from_millis(ms));
            }
            (None, "batch_max_frames") => {
                options.batch.max_frames = parse_positive(value)
                    .map_err(|m| err(format!("batch_max_frames {m}, got {value:?}")))?;
            }
            (None, "batch_max_bytes") => {
                options.batch.max_bytes = parse_positive(value)
                    .map_err(|m| err(format!("batch_max_bytes {m}, got {value:?}")))?;
            }
            (None, "data_dir") => {
                options.data_dir = Some(PathBuf::from(parse_string(value)?));
            }
            (None, "wal_group_commit_us") => {
                let us: u64 = value.parse().map_err(|_| {
                    err(format!("wal_group_commit_us must be an integer, got {value:?}"))
                })?;
                options.wal_group_commit = Duration::from_micros(us);
            }
            (None, "transport") => check_retired_transport(&parse_string(value)?).map_err(err)?,
            (None, "shards") => {
                options.shards = match value.parse::<u32>() {
                    Ok(0) | Err(_) => {
                        return Err(err(format!(
                            "shards must be a positive integer, got {value:?}"
                        )))
                    }
                    Ok(s) => s,
                };
            }
            (None, other) => return Err(err(format!("unknown top-level key {other:?}"))),
            (Some(i), "id") => {
                replicas[i].0 = Some(
                    value
                        .parse()
                        .map_err(|_| err(format!("id must be an integer, got {value:?}")))?,
                );
            }
            (Some(i), "addr") => {
                let s = parse_string(value)?;
                replicas[i].1 = Some(
                    s.parse()
                        .map_err(|_| err(format!("addr must be host:port, got {s:?}")))?,
                );
            }
            (Some(_), other) => return Err(err(format!("unknown replica key {other:?}"))),
        }
    }

    let mut peers = Vec::with_capacity(replicas.len());
    for (i, (id, addr)) in replicas.into_iter().enumerate() {
        let id = id.ok_or_else(|| ConfigError::new(format!("replica #{i} missing `id`")))?;
        let addr = addr.ok_or_else(|| ConfigError::new(format!("replica #{i} missing `addr`")))?;
        peers.push(PeerAddr { id: ReplicaId(id), addr });
    }
    peers.sort_by_key(|p| p.id.0);
    if peers.is_empty() {
        return Err(ConfigError::new("no [[replica]] entries"));
    }
    for (i, peer) in peers.iter().enumerate() {
        if peer.id.0 as usize != i {
            return Err(ConfigError::new(format!(
                "replica ids must be exactly 0..{}, found id {}",
                peers.len(),
                peer.id.0
            )));
        }
    }
    Ok(ClusterFile { protocol, seed, app, options, replicas: peers })
}

fn strip_comment(line: &str) -> &str {
    // Good enough for the subset: `#` never appears inside our strings.
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_positive(value: &str) -> Result<usize, &'static str> {
    match value.parse::<usize>() {
        Ok(0) => Err("must be positive"),
        Ok(v) => Ok(v),
        Err(_) => Err("must be an integer"),
    }
}

fn parse_string(value: &str) -> Result<String, ConfigError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(ConfigError::new(format!("expected a quoted string, got {v}")))
    }
}

/// Builds and starts replica `id` of the cluster described by `file`,
/// running `protocol` (usually `file.protocol`, unless overridden) with
/// the given runtime `options` (usually `file.options`, unless CLI
/// flags override).
///
/// The returned [`EventedNode`] is protocol-erased: all three stacks
/// host behind the same handle, which is what lets one binary serve
/// every combination.
pub fn run_replica(
    file: &ClusterFile,
    protocol: ProtocolKind,
    id: ReplicaId,
    options: &NodeOptions,
) -> io::Result<EventedNode> {
    let listen = file.addr_of(id).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("replica {} not in cluster file", id.0))
    })?;
    let bound = EventedNode::bind(id, listen)?;
    start_replica_on(bound, file.replicas.clone(), protocol, file.app, file.seed, options)
}

/// Starts a replica around an already-bound listener.
///
/// This is how the bench orchestrator launches whole clusters on
/// OS-assigned ports: bind every listener first (so the ports are
/// known), assemble the full address book, then start each node with
/// it. `peers` must contain an entry for the bound node itself.
pub fn start_replica_on(
    bound: BoundEventedNode,
    peers: Vec<PeerAddr>,
    protocol: ProtocolKind,
    app: AppKind,
    seed: u64,
    options: &NodeOptions,
) -> io::Result<EventedNode> {
    let mut config = NodeConfig::new(bound.id(), bound.local_addr()?, peers);
    config.batch = options.batch;
    config.timeout_every = options.timeout_every;
    // A replica behind a stable checkpoint heals by asking its peers,
    // data dir or not; one restarting from a data dir also asks at
    // startup, for whatever it missed while it was down.
    config.recovery = RecoveryPolicy {
        agreement: fault_tolerance_for(protocol, config.peers.len())? + 1,
        at_startup: options.data_dir.is_some(),
    };
    let durability = match &options.data_dir {
        None => None,
        Some(base) => {
            // The runtime linger and the protocol's group-commit mode
            // travel together: the node's loop batches events, the
            // DurableProtocol withholds outputs until the batch fsync.
            config.group_commit = options.wal_group_commit;
            Some(Durability {
                dir: base.join(format!("replica-{}", bound.id().0)),
                group_commit: !options.wal_group_commit.is_zero(),
            })
        }
    };
    // Only the KVS carries routable keys; every other application pins
    // to shard 0 (a sharded counter behaves exactly like an unsharded
    // one).
    let sharding = ShardingPlan { shards: options.shards, keyed: app == AppKind::Kvs };
    match app {
        AppKind::Counter => start_with_app(
            bound,
            config,
            protocol,
            seed,
            CounterApp::new,
            durability,
            sharding,
        ),
        AppKind::Kvs => start_with_app(
            bound,
            config,
            protocol,
            seed,
            KeyValueStore::new,
            durability,
            sharding,
        ),
        AppKind::Blockchain => start_with_app(
            bound,
            config,
            protocol,
            seed,
            Blockchain::new,
            durability,
            sharding,
        ),
    }
}

/// How a replica persists, resolved from [`NodeOptions`].
struct Durability {
    /// This replica's own data directory.
    dir: PathBuf,
    /// Whether the [`DurableProtocol`] runs in group-commit mode.
    group_commit: bool,
}

/// How a replica shards, resolved from [`NodeOptions`] and the app.
#[derive(Clone, Copy)]
struct ShardingPlan {
    /// Number of consensus groups (1 = host the protocol unwrapped).
    shards: u32,
    /// Whether the application's operations carry routable keys.
    keyed: bool,
}

/// Hosts `protocol` directly, or wrapped in the durability plane when a
/// data directory is configured — recovering whatever WAL and sealed
/// checkpoints a previous incarnation left there, and logging what was
/// found.
fn start_durable<P: Protocol>(
    bound: BoundEventedNode,
    config: NodeConfig,
    seed: u64,
    protocol: P,
    durability: Option<Durability>,
) -> io::Result<EventedNode> {
    match durability {
        None => bound.start(config, protocol),
        Some(Durability { dir, group_commit }) => {
            let identity = replica_sealing_identity(seed, bound.id());
            let durable = DurableProtocol::recover(protocol, &dir, identity)?
                .with_group_commit(group_commit);
            log_recovery(bound.id(), None, &durable);
            let recovered = recovered_event(&durable);
            let node = bound.start(config, durable)?;
            if let Some(event) = recovered {
                node.telemetry().record_event(event);
            }
            Ok(node)
        }
    }
}

/// The journal event describing what a [`DurableProtocol::recover`]
/// found on disk, or `None` when the directory was fresh. Recovery
/// happens before the node starts, so the caller records this on the
/// node's telemetry right after `bound.start`.
fn recovered_event<P: Protocol>(durable: &DurableProtocol<P>) -> Option<StatusEvent> {
    let report = durable.recovery_report();
    report.recovered_anything().then(|| StatusEvent::Recovered {
        replayed_events: report.replayed_events as u64,
        checkpoint_seq: report.restored_checkpoint.map_or(0, |s| s.0),
    })
}

/// Logs one replica's (or one shard's) recovery outcome, if anything
/// was actually recovered.
fn log_recovery<P: Protocol>(id: ReplicaId, shard: Option<ShardId>, durable: &DurableProtocol<P>) {
    let report = durable.recovery_report();
    if report.recovered_anything() || !report.checkpoint_errors.is_empty() {
        let scope = match shard {
            None => String::new(),
            Some(s) => format!(" shard {}", s.0),
        };
        eprintln!(
            "replica {}{scope}: recovered checkpoint {:?}, replayed {} WAL events{}",
            id.0,
            report.restored_checkpoint.map(|s| s.0),
            report.replayed_events,
            if report.checkpoint_errors.is_empty() {
                String::new()
            } else {
                format!(
                    " ({} corrupt checkpoint(s) skipped — peer state transfer covers)",
                    report.checkpoint_errors.len()
                )
            },
        );
    }
}

/// Hosts one protocol instance per shard behind the [`Sharded`]
/// combinator — or, at one shard, exactly the pre-sharding stack via
/// [`start_durable`], keeping single-group deployments byte-compatible
/// on the wire and on disk.
///
/// Durable shards each recover their own WAL and sealed checkpoints
/// under `<replica-dir>/shard-<s>/`; the [`ShardMember`] shim inside
/// each [`DurableProtocol`] stamps the log so a recovered directory
/// self-identifies.
fn host_shards<P: Protocol>(
    bound: BoundEventedNode,
    config: NodeConfig,
    seed: u64,
    sharding: ShardingPlan,
    durability: Option<Durability>,
    make: impl Fn() -> P,
) -> io::Result<EventedNode> {
    if sharding.shards <= 1 {
        return start_durable(bound, config, seed, make(), durability);
    }
    let router = ShardRouter::new(sharding.shards, sharding.keyed);
    match durability {
        None => {
            let instances: Vec<_> = (0..sharding.shards)
                .map(|s| ShardMember::new(ShardId(s), make()))
                .collect();
            bound.start(config, Sharded::new(router, instances))
        }
        Some(Durability { dir, group_commit }) => {
            let identity = replica_sealing_identity(seed, bound.id());
            let mut instances = Vec::with_capacity(sharding.shards as usize);
            let mut recovered = Vec::new();
            for s in 0..sharding.shards {
                let shard_dir = dir.join(format!("shard-{s}"));
                let member = ShardMember::new(ShardId(s), make());
                let durable = DurableProtocol::recover(member, &shard_dir, identity)?
                    .with_group_commit(group_commit);
                // A WAL that names another group means the directory is
                // miswired; serving the partially-recovered replica
                // would silently diverge from its peers, so startup
                // fails instead.
                if let Some(found) = durable.inner().wal_identity_mismatch() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "replica {} shard {s}: WAL in {} identifies itself as shard {} — \
                             the directory is miswired; refusing to start",
                            bound.id().0,
                            shard_dir.display(),
                            found.0,
                        ),
                    ));
                }
                log_recovery(bound.id(), Some(ShardId(s)), &durable);
                recovered.extend(recovered_event(&durable));
                instances.push(durable);
            }
            let node = bound.start(config, Sharded::new(router, instances))?;
            for event in recovered {
                node.telemetry().record_event(event);
            }
            Ok(node)
        }
    }
}

fn start_with_app<A: Application + 'static>(
    bound: BoundEventedNode,
    config: NodeConfig,
    protocol: ProtocolKind,
    seed: u64,
    make_app: impl Fn() -> A,
    durability: Option<Durability>,
    sharding: ShardingPlan,
) -> io::Result<EventedNode> {
    let id = config.id;
    let n = config.peers.len();
    // Sharding stacks outermost: every shard hosts the full stack.
    match protocol {
        ProtocolKind::Pbft => {
            let cluster = cluster_config(n)?;
            let make = || PbftReplica::new(cluster.clone(), id, seed, make_app());
            host_shards(bound, config, seed, sharding, durability, make)
        }
        ProtocolKind::SplitBft => {
            let cluster = cluster_config(n)?;
            let make = || {
                SplitBftReplica::new(
                    cluster.clone(),
                    id,
                    seed,
                    make_app(),
                    ExecMode::Hardware,
                    CostModel::paper_calibrated(),
                )
            };
            host_shards(bound, config, seed, sharding, durability, make)
        }
        ProtocolKind::MinBft => {
            let cluster = HybridConfig::new(n).map_err(invalid)?;
            let make =
                || HybridReplica::new(cluster.clone(), id, seed, Usig::new(seed, id), make_app());
            host_shards(bound, config, seed, sharding, durability, make)
        }
    }
}

fn cluster_config(n: usize) -> io::Result<ClusterConfig> {
    ClusterConfig::new(n).map_err(invalid)
}

/// Matching replies a client needs to accept a result (`f + 1`) for
/// `protocol` at cluster size `n`.
///
/// # Errors
///
/// `InvalidInput` when `n` is below the protocol's minimum (4 for the
/// `3f + 1` stacks, 3 for the hybrid's `2f + 1`).
pub fn reply_quorum_for(protocol: ProtocolKind, n: usize) -> io::Result<usize> {
    Ok(match protocol {
        ProtocolKind::Pbft | ProtocolKind::SplitBft => cluster_config(n)?.reply_quorum(),
        ProtocolKind::MinBft => HybridConfig::new(n).map_err(invalid)?.reply_quorum(),
    })
}

/// Cross-process exclusive lock serializing the heavy subprocess-cluster
/// e2e suites (crash recovery, sharded recovery).
///
/// Each of those suites stands up a real multi-replica cluster under
/// sustained load. `cargo test` serializes tests *within* a binary (the
/// suites hold a static mutex) but runs separate test **binaries**
/// concurrently, so on small runners the clusters starve each other's
/// probe budgets into flaky timeouts. This advisory `flock` spans
/// processes; the lock releases when the returned handle drops.
pub fn e2e_cluster_lock() -> std::fs::File {
    let path = std::env::temp_dir().join("splitbft-e2e-cluster.lock");
    // Never truncated: the file is only a lock, and another process may
    // hold it open.
    let file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(&path)
        .expect("open e2e cluster lock file");
    file.lock().expect("lock e2e cluster lock file");
    file
}

/// Faulty replicas tolerated by `protocol` at cluster size `n` —
/// `⌊(n−1)/3⌋` for the `3f + 1` stacks, `⌊(n−1)/2⌋` for the hybrid.
///
/// # Errors
///
/// `InvalidInput` when `n` is below the protocol's minimum.
pub fn fault_tolerance_for(protocol: ProtocolKind, n: usize) -> io::Result<usize> {
    Ok(match protocol {
        ProtocolKind::Pbft | ProtocolKind::SplitBft => cluster_config(n)?.f(),
        ProtocolKind::MinBft => HybridConfig::new(n).map_err(invalid)?.f(),
    })
}

/// Pulls `--name value` out of a CLI argument list (shared by the
/// binary's subcommands and the bench module).
pub fn cli_flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Parses `--name value` with a fallback, shared by the binary's
/// argument parsers.
pub(crate) fn parse_cli_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match cli_flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name} got unparsable value {v:?}")),
    }
}

/// Rejects unknown flags and flags missing their value, given the
/// subcommand's vocabulary (every flag takes a value).
///
/// # Errors
///
/// A message naming the first unknown flag, or the flag missing its
/// value.
pub fn validate_cli_flags(args: &[String], value_flags: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if value_flags.contains(&arg.as_str()) {
            if i + 1 >= args.len() {
                return Err(format!("{arg} needs a value"));
            }
            i += 2;
        } else {
            return Err(format!("unknown flag {arg:?}"));
        }
    }
    Ok(())
}

/// Applies the `--batch-frames` / `--batch-bytes`
/// CLI overrides onto `batch`, validating like the cluster-file parser
/// (the frame and byte limits must be positive).
///
/// # Errors
///
/// A human-readable message naming the offending flag.
pub fn apply_batch_flags(args: &[String], batch: &mut BatchPolicy) -> Result<(), String> {
    if let Some(frames) = cli_flag(args, "--batch-frames") {
        batch.max_frames =
            parse_positive(&frames).map_err(|m| format!("--batch-frames {m}, got {frames:?}"))?;
    }
    if let Some(bytes) = cli_flag(args, "--batch-bytes") {
        batch.max_bytes =
            parse_positive(&bytes).map_err(|m| format!("--batch-bytes {m}, got {bytes:?}"))?;
    }
    Ok(())
}

/// Applies the durability CLI overrides (`--data-dir`,
/// `--wal-group-commit-us`) onto `options`, shared by the serve and
/// bench subcommands.
///
/// # Errors
///
/// A human-readable message naming the offending flag.
pub fn apply_durability_flags(args: &[String], options: &mut NodeOptions) -> Result<(), String> {
    if let Some(dir) = cli_flag(args, "--data-dir") {
        options.data_dir = Some(dir.into());
    }
    if let Some(us) = cli_flag(args, "--wal-group-commit-us") {
        let us: u64 = us
            .parse()
            .map_err(|_| format!("--wal-group-commit-us must be an integer, got {us:?}"))?;
        options.wal_group_commit = Duration::from_micros(us);
    }
    Ok(())
}

/// Checks the retired `--transport` flag of `serve` and `bench`, if
/// `args` carries it: `evented` is a no-op and `blocking` a
/// deprecated alias that warns once on stderr.
///
/// # Errors
///
/// A message naming the single runtime for any value but `evented` and
/// `blocking`, a comma list included.
pub fn check_retired_transport_flag(args: &[String]) -> Result<(), String> {
    match cli_flag(args, "--transport") {
        Some(value) => check_retired_transport(&value).map_err(|e| format!("--transport: {e}")),
        None => Ok(()),
    }
}

/// Checks a value of the retired `--transport` flag or `transport`
/// cluster-file key, still parsed so existing command lines and cluster
/// files keep working. The evented readiness loop is the only socket
/// runtime: `evented` names it, `blocking` — the thread-per-connection
/// runtime it replaced — is a deprecated alias that warns once on
/// stderr, and nothing selects anything.
fn check_retired_transport(value: &str) -> Result<(), String> {
    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
    match value {
        "evented" => Ok(()),
        "blocking" => {
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: transport \"blocking\" is deprecated — the thread-per-connection \
                     runtime was removed; serving on the evented runtime"
                );
            });
            Ok(())
        }
        other => Err(format!(
            "unknown transport {other:?}: the evented readiness loop is the only socket \
             runtime (accepted for compatibility: \"evented\", or its deprecated alias \
             \"blocking\")"
        )),
    }
}

fn invalid<E: fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
}

/// Runs a closed-loop client against the cluster: `count` sequential
/// `op` requests, each to the primary its replies name (replica 0 until
/// a view change; every reachable replica if that one cannot be
/// written), awaiting the reply quorum for each. Returns the result of
/// every completed request.
///
/// The transport is at-most-once (peer links and reply rings drop under
/// failure and explicitly rely on client retransmission to recover), so
/// while a request lacks its quorum the [`Client`] makes it due again
/// *periodically* for every reachable replica — the PBFT client rule.
/// Periodic matters: against an alive-but-faulty primary the first
/// broadcast arms the backups' request-aware timers, the resulting view
/// change clears their pending evidence, and only a *later*
/// retransmission hands the request to the new primary. Replicas that
/// already executed it re-send their cached reply.
pub fn run_client(
    file: &ClusterFile,
    protocol: ProtocolKind,
    client_id: ClientId,
    op: &[u8],
    count: usize,
    timeout: Duration,
) -> io::Result<Vec<Bytes>> {
    // One client type serves every stack: they share the request/reply
    // MAC scheme and differ only in the `f + 1` their cluster size
    // implies. Timestamps start at wall-clock microseconds so that
    // repeated invocations reusing one client id keep issuing fresh
    // requests — replicas suppress duplicates by last-seen timestamp.
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| d.as_micros() as u64)
        .max(1);
    let reply_quorum = fault_tolerance_for(protocol, file.n())? + 1;
    let resend_every = Duration::from_secs(2).min(timeout / 2).max(Duration::from_millis(100));
    // The client's clock: nanoseconds since `start`.
    let start = Instant::now();
    let clock = || start.elapsed().as_nanos() as u64;
    let mut client = Client::new(reply_quorum, client_id, file.seed)
        .resending_after(resend_every.as_nanos() as u64)
        .starting_at(splitbft_types::Timestamp(now));
    let mut tcp = TcpClient::connect(client_id, &file.addrs(), timeout)?;
    let mut results = Vec::with_capacity(count);
    for i in 0..count {
        let request = client.issue_at(Bytes::copy_from_slice(op), false, clock(), 0);
        if tcp.send_to(client.primary(file.n()), std::slice::from_ref(&request)).is_err() {
            tcp.send_all(std::slice::from_ref(&request))?;
        }
        let deadline = Instant::now() + timeout;
        let result = loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("request {i} timed out after {timeout:?}"),
                ));
            }
            let due = client.due(clock());
            if !due.is_empty() {
                tcp.send_all(&due)?;
            }
            let due_in = client.next_due().map_or(u64::MAX, |at| at.saturating_sub(clock()));
            let wait = deadline.saturating_duration_since(now).min(Duration::from_nanos(due_in));
            if let Some(reply) = tcp.recv_timeout(wait) {
                if let ClientEvent::Completed(result) = client.on_reply(&reply) {
                    break result;
                }
            }
        };
        results.push(result);
    }
    tcp.close();
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# demo cluster
protocol = "pbft"
seed = 7
app = "kvs"

[[replica]]
id = 1
addr = "127.0.0.1:7101"

[[replica]]
id = 0
addr = "127.0.0.1:7100"  # out of order on purpose

[[replica]]
id = 2
addr = "127.0.0.1:7102"

[[replica]]
id = 3
addr = "127.0.0.1:7103"
"#;

    #[test]
    fn parses_example_file() {
        let file = parse_cluster_toml(EXAMPLE).unwrap();
        assert_eq!(file.protocol, ProtocolKind::Pbft);
        assert_eq!(file.seed, 7);
        assert_eq!(file.app, AppKind::Kvs);
        assert_eq!(file.n(), 4);
        // Sorted into id order regardless of file order.
        assert_eq!(file.replicas[0].id, ReplicaId(0));
        assert_eq!(file.addr_of(ReplicaId(2)), Some("127.0.0.1:7102".parse().unwrap()));
    }

    #[test]
    fn defaults_apply() {
        // The retired `transport` key still parses and selects nothing.
        let file = parse_cluster_toml(
            "transport = \"evented\"\n[[replica]]\nid = 0\naddr = \"127.0.0.1:9000\"\n",
        )
        .unwrap();
        assert_eq!(file.options, NodeOptions::default());
        assert_eq!(file.protocol, ProtocolKind::SplitBft);
        assert_eq!(file.seed, 42);
        assert_eq!(file.app, AppKind::Counter);
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(parse_cluster_toml("protocol = pbft\n").is_err(), "unquoted string");
        assert!(parse_cluster_toml("protocol = \"raft\"\n").is_err(), "unknown protocol");
        assert!(parse_cluster_toml("bogus = 1\n").is_err(), "unknown key");
        assert!(
            parse_cluster_toml("transport = \"uring\"\n[[replica]]\nid = 0\naddr = \"127.0.0.1:1\"\n")
                .is_err(),
            "only the retired key's two compatibility values parse"
        );
        assert!(parse_cluster_toml("").is_err(), "no replicas");
        assert!(
            parse_cluster_toml("[[replica]]\nid = 1\naddr = \"127.0.0.1:1\"\n").is_err(),
            "ids must start at 0"
        );
        assert!(
            parse_cluster_toml("[[replica]]\nid = 0\n").is_err(),
            "missing addr"
        );
    }

    #[test]
    fn wal_group_commit_key_parses() {
        let file = parse_cluster_toml(
            "wal_group_commit_us = 250\n[[replica]]\nid = 0\naddr = \"127.0.0.1:9000\"\n",
        )
        .unwrap();
        assert_eq!(file.options.wal_group_commit, Duration::from_micros(250));
        assert!(
            parse_cluster_toml(
                "wal_group_commit_us = \"fast\"\n[[replica]]\nid = 0\naddr = \"127.0.0.1:9000\"\n",
            )
            .is_err(),
            "non-integer linger rejected"
        );

        let mut options = NodeOptions::default();
        apply_durability_flags(
            &["--wal-group-commit-us".into(), "500".into(), "--data-dir".into(), "/tmp/d".into()],
            &mut options,
        )
        .unwrap();
        assert_eq!(options.wal_group_commit, Duration::from_micros(500));
        assert_eq!(options.data_dir, Some(PathBuf::from("/tmp/d")));
        assert!(apply_durability_flags(
            &["--wal-group-commit-us".into(), "soon".into()],
            &mut options
        )
        .is_err());
    }

    #[test]
    fn protocol_kind_roundtrips_through_display() {
        for kind in [ProtocolKind::Pbft, ProtocolKind::SplitBft, ProtocolKind::MinBft] {
            assert_eq!(kind.to_string().parse::<ProtocolKind>().unwrap(), kind);
        }
    }
}
