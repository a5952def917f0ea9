//! Sharded crash-recovery end to end.
//!
//! Stands up a real 4-replica `--shards 2` KVS cluster of
//! `splitbft-node serve` subprocesses, drives shard-aware load so both
//! consensus groups commit, `SIGKILL`s one backup mid-load, restarts it
//! from its data directory, and asserts:
//!
//! 1. both shards completed requests throughout (the driver's per-shard
//!    accounting), so the kill never stalled either group;
//! 2. the restarted replica recovered **each shard's WAL
//!    independently** — its data directory holds one
//!    `replica-<id>/shard-<s>/wal.log` per shard and its stderr carries
//!    one per-shard recovery marker each;
//! 3. the victim rejoins end to end (it executes a fresh request).
//!
//! This is the sharding plane's durability contract: one process hosts
//! N groups, but each group's WAL, sealed checkpoints, and recovery are
//! isolated under `shard-<s>/`.

use splitbft_loadgen::driver::{self, DriverConfig};
use splitbft_loadgen::workload::Workload;
use splitbft_net::TcpClient;
use splitbft_node::{reply_quorum_for, ProtocolKind};
use splitbft_types::{ClientId, ReplicaId, Request, RequestId, Timestamp};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const N: usize = 4;
const SHARDS: u32 = 2;
const KILLED: usize = 3; // a backup: every shard's primary (0) keeps ordering

struct Cluster {
    children: Vec<Option<Child>>,
    cluster_toml: PathBuf,
    root: PathBuf,
    data_dir: PathBuf,
    addrs: Vec<SocketAddr>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    listeners.iter().map(|l| l.local_addr().expect("addr").port()).collect()
}

fn log_path(root: &Path, id: usize) -> PathBuf {
    root.join(format!("replica-{id}.stderr.log"))
}

fn spawn_replica(cluster: &Cluster, id: usize) -> Child {
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log_path(&cluster.root, id))
        .expect("open stderr log");
    Command::new(env!("CARGO_BIN_EXE_splitbft-node"))
        .args([
            "serve",
            "--config",
            cluster.cluster_toml.to_str().expect("utf8 path"),
            "--replica",
            &id.to_string(),
            "--data-dir",
            cluster.data_dir.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::from(log))
        .spawn()
        .expect("spawn splitbft-node serve")
}

fn launch(protocol: ProtocolKind) -> Cluster {
    let root = std::env::temp_dir().join(format!(
        "splitbft-sharded-e2e-{protocol}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create scenario dir");

    let ports = free_ports(N);
    let addrs: Vec<SocketAddr> =
        ports.iter().map(|p| format!("127.0.0.1:{p}").parse().expect("addr")).collect();
    let mut toml = format!(
        "protocol = \"{protocol}\"\nseed = 42\napp = \"kvs\"\ntimeout_ms = 400\nshards = {SHARDS}\n"
    );
    for (id, port) in ports.iter().enumerate() {
        toml.push_str(&format!("\n[[replica]]\nid = {id}\naddr = \"127.0.0.1:{port}\"\n"));
    }
    let cluster_toml = root.join("cluster.toml");
    std::fs::write(&cluster_toml, toml).expect("write cluster.toml");

    let data_dir = root.join("data");
    let mut cluster =
        Cluster { children: (0..N).map(|_| None).collect(), cluster_toml, root, data_dir, addrs };
    for id in 0..N {
        cluster.children[id] = Some(spawn_replica(&cluster, id));
    }
    cluster
}

/// Shard-aware KVS load: the driver targets both groups round-robin and
/// accounts completions per shard.
fn run_load(addrs: Vec<SocketAddr>, quorum: usize, duration: Duration) -> driver::LoadStats {
    let mut config = DriverConfig::new(addrs, 42, quorum);
    config.clients = 3;
    config.pipeline = 4;
    config.duration = duration;
    config.workload = Workload::paper_kvs();
    config.shards = SHARDS;
    config.retry_every = Duration::from_millis(500);
    config.drain_timeout = Duration::from_secs(20);
    driver::run(&config).expect("load driver")
}

/// Waits until the restarted replica itself replies to a fresh request
/// (execution is sequential per shard, so this proves it caught up).
fn await_rejoin(
    addrs: &[SocketAddr],
    seed: u64,
    from: ReplicaId,
    probe: u32,
    deadline: Duration,
) -> bool {
    let client = ClientId(probe);
    let mac = splitbft_crypto::client_mac_key(seed, client);
    let mut tcp = TcpClient::connect(client, addrs, Duration::from_secs(10)).expect("connect");
    let start = Instant::now();
    let mut ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(1);
    let mut rejoined = false;
    'outer: while start.elapsed() < deadline {
        ts += 1;
        let id = RequestId { client, timestamp: Timestamp(ts) };
        let op = bytes::Bytes::from_static(b"probe");
        let auth = mac.request_tag(id, &op, false);
        let request = Request { id, op, encrypted: false, auth };
        let _ = tcp.send_all(std::slice::from_ref(&request));
        let wait_until = Instant::now() + Duration::from_millis(1500);
        while Instant::now() < wait_until {
            match tcp.recv_timeout(Duration::from_millis(200)) {
                Some(reply) if reply.replica == from && reply.request.timestamp.0 >= ts => {
                    rejoined = true;
                    break 'outer;
                }
                _ => {}
            }
        }
    }
    tcp.close();
    rejoined
}

fn shard_dir(cluster: &Cluster, id: usize, shard: u32) -> PathBuf {
    cluster.data_dir.join(format!("replica-{id}")).join(format!("shard-{shard}"))
}

#[test]
fn sharded_kvs_replica_recovers_both_shard_wals_after_sigkill() {
    // Serialize against the other cluster-heavy test binaries (cargo
    // runs test binaries concurrently; clusters starve each other).
    let _lock = splitbft_node::e2e_cluster_lock();
    let protocol = ProtocolKind::Pbft;
    let mut cluster = launch(protocol);
    let quorum = reply_quorum_for(protocol, N).expect("quorum");

    // Build up committed state on both shards, then kill mid-run.
    let warmup = run_load(cluster.addrs.clone(), quorum, Duration::from_secs(4));
    assert!(
        warmup.per_shard_completed.iter().all(|&c| c > 0),
        "both shards must commit before the kill: {:?}",
        warmup.per_shard_completed
    );
    for shard in 0..SHARDS {
        assert!(
            shard_dir(&cluster, KILLED, shard).join("wal.log").exists(),
            "replica {KILLED} has no WAL for shard {shard}"
        );
    }

    {
        let child = cluster.children[KILLED].as_mut().expect("child");
        child.kill().expect("SIGKILL");
        let _ = child.wait();
    }

    // The surviving quorum keeps committing on BOTH shards.
    let mid = run_load(cluster.addrs.clone(), quorum, Duration::from_secs(3));
    assert!(
        mid.per_shard_completed.iter().all(|&c| c > 0),
        "a shard stalled while the backup was down: {:?}",
        mid.per_shard_completed
    );

    let log_before = std::fs::metadata(log_path(&cluster.root, KILLED))
        .map(|m| m.len())
        .unwrap_or(0);
    cluster.children[KILLED] = Some(spawn_replica(&cluster, KILLED));

    // The victim rejoins end to end...
    assert!(
        await_rejoin(
            &cluster.addrs,
            42,
            ReplicaId(KILLED as u32),
            80,
            Duration::from_secs(30),
        ),
        "replica {KILLED} never executed a fresh request after restarting"
    );

    // ...and its new incarnation's stderr shows every shard recovering
    // its own WAL independently.
    let log = std::fs::read_to_string(log_path(&cluster.root, KILLED)).expect("stderr log");
    let fresh = &log[log_before.min(log.len() as u64) as usize..];
    for shard in 0..SHARDS {
        let marker = format!("replica {KILLED} shard {shard}: recovered");
        assert!(
            fresh.contains(&marker),
            "no per-shard recovery marker {marker:?} in restart stderr:\n{fresh}"
        );
    }

    let _ = std::fs::remove_dir_all(&cluster.root);
}
