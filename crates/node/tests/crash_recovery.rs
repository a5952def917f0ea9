//! Crash-recovery end to end, for all three protocols.
//!
//! Each scenario stands up a real 4-replica cluster of `splitbft-node
//! serve` **subprocesses** (fixed localhost ports, per-replica
//! `--data-dir`), drives sustained counter load from this process,
//! `SIGKILL`s one backup mid-load, restarts it from its data directory,
//! and asserts:
//!
//! 1. the cluster's committed count keeps advancing throughout (the
//!    counter read after the crash+restart is well above the pre-crash
//!    value);
//! 2. the restarted replica *rejoins*: it ends up executing new
//!    requests itself (observed by a reply carrying its replica id),
//!    which requires WAL/sealed-checkpoint recovery plus peer state
//!    transfer to have worked;
//! 3. disk growth is bounded: the WAL has been GC'd past sealed stable
//!    checkpoints (small log file, at most two retained checkpoint
//!    files, at least one sealed).
//!
//! `SIGKILL` (not a graceful shutdown) is the point: nothing gets a
//! chance to flush, so only what the WAL fsynced before the kill can
//! survive — exactly the durability contract under test.
//!
//! One more leg sends the real `SIGTERM` instead: the backup must drain
//! gracefully and exit 0, then restart from its data directory without
//! the counter going backwards, and rejoin. The fault catalog in
//! `splitbft_model::chaos` drains replicas on the in-memory cluster;
//! the signal, the exit status and the process restart need this test.

use splitbft_loadgen::driver::{self, DriverConfig};
use splitbft_net::TcpClient;
use splitbft_node::{reply_quorum_for, run_client, ClusterFile, ProtocolKind};
use splitbft_types::{ClientId, ReplicaId, Request, RequestId, Timestamp};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const N: usize = 4;
const KILLED: usize = 3; // a backup: the primary (0) keeps ordering

/// Kills every child on drop, so a failing assert never leaks replica
/// processes into the test runner.
struct Cluster {
    children: Vec<Option<Child>>,
    cluster_toml: PathBuf,
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
    // Bind ephemeral listeners to reserve distinct ports, then release
    // them. (Small race with other processes; retried by the caller's
    // serve-spawn health check failing loudly.)
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    listeners.iter().map(|l| l.local_addr().expect("addr").port()).collect()
}

fn spawn_replica(config: &Path, id: usize, data_dir: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_splitbft-node"))
        .args([
            "serve",
            "--config",
            config.to_str().expect("utf8 path"),
            "--replica",
            &id.to_string(),
            "--data-dir",
            data_dir.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn splitbft-node serve")
}

fn launch(protocol: ProtocolKind, leg: &str) -> Cluster {
    let root = std::env::temp_dir().join(format!(
        "splitbft-crash-e2e-{protocol}-{leg}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create scenario dir");

    let ports = free_ports(N);
    let addrs: Vec<SocketAddr> =
        ports.iter().map(|p| format!("127.0.0.1:{p}").parse().expect("addr")).collect();
    let mut toml = format!(
        "protocol = \"{protocol}\"\nseed = 42\napp = \"counter\"\ntimeout_ms = 400\n"
    );
    for (id, port) in ports.iter().enumerate() {
        toml.push_str(&format!("\n[[replica]]\nid = {id}\naddr = \"127.0.0.1:{port}\"\n"));
    }
    let cluster_toml = root.join("cluster.toml");
    std::fs::write(&cluster_toml, toml).expect("write cluster.toml");

    let data_dir = root.join("data");
    let children = (0..N)
        .map(|id| Some(spawn_replica(&cluster_toml, id, &data_dir)))
        .collect();
    Cluster { children, cluster_toml, data_dir, addrs }
}

fn parse_file(cluster: &Cluster) -> ClusterFile {
    splitbft_node::parse_cluster_toml(
        &std::fs::read_to_string(&cluster.cluster_toml).expect("read cluster.toml"),
    )
    .expect("parse cluster.toml")
}

/// Reads the replicated counter through a regular quorum client.
fn read_counter(file: &ClusterFile, protocol: ProtocolKind, probe: u32) -> u64 {
    let results = run_client(
        file,
        protocol,
        ClientId(probe),
        b"read",
        1,
        Duration::from_secs(30),
    )
    .expect("counter probe");
    u64::from_le_bytes(results[0][..].try_into().expect("u64 result"))
}

/// Waits until the restarted replica itself executes a fresh request:
/// issues reads at the primary and watches the raw reply stream for one
/// carrying `from`'s id. Execution is strictly sequential in every
/// protocol, so a reply to a *new* request proves the replica caught up
/// through state transfer.
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
        let op = bytes::Bytes::from_static(b"read");
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

/// Background load for the whole scenario: closed-loop, enough clients
/// to keep checkpoints flowing, long enough to span kill + restart.
fn spawn_load(
    addrs: Vec<SocketAddr>,
    quorum: usize,
    duration: Duration,
) -> std::thread::JoinHandle<driver::LoadStats> {
    std::thread::spawn(move || {
        let mut config = DriverConfig::new(addrs, 42, quorum);
        config.clients = 3;
        config.pipeline = 4;
        config.duration = duration;
        config.retry_every = Duration::from_millis(500);
        config.drain_timeout = Duration::from_secs(20);
        driver::run(&config).expect("load driver")
    })
}

fn wal_path(cluster: &Cluster, id: usize) -> PathBuf {
    cluster.data_dir.join(format!("replica-{id}")).join("wal.log")
}

fn crash_recovery_scenario(protocol: ProtocolKind) {
    // Serialize against the other cluster-heavy test binaries (cargo
    // runs test binaries concurrently; clusters starve each other).
    let _lock = splitbft_node::e2e_cluster_lock();
    let mut cluster = launch(protocol, "sigkill");
    let file = parse_file(&cluster);
    let quorum = reply_quorum_for(protocol, N).expect("quorum");

    // Cluster is up once a request completes end to end.
    let before_load = read_counter(&file, protocol, 77);

    let load = spawn_load(cluster.addrs.clone(), quorum, Duration::from_secs(10));
    std::thread::sleep(Duration::from_secs(3)); // build up committed state

    // SIGKILL the backup: no flush, no goodbye.
    let killed_before = std::fs::metadata(wal_path(&cluster, KILLED)).map(|m| m.len());
    {
        let child = cluster.children[KILLED].as_mut().expect("child");
        child.kill().expect("SIGKILL");
        let _ = child.wait();
    }
    let mid = read_counter(&file, protocol, 78);
    assert!(
        mid >= before_load,
        "{protocol}: counter went backwards ({before_load} -> {mid})"
    );

    std::thread::sleep(Duration::from_secs(1));
    cluster.children[KILLED] =
        Some(spawn_replica(&cluster.cluster_toml, KILLED, &cluster.data_dir));

    // The cluster never stopped committing...
    let stats = load.join().expect("load thread");
    assert!(stats.completed > 0, "{protocol}: load completed zero requests");
    let after = read_counter(&file, protocol, 79);
    assert!(
        after > mid,
        "{protocol}: committed count stopped advancing after the crash ({mid} -> {after})"
    );

    // ...and the restarted replica rejoins: it executes new requests.
    assert!(
        await_rejoin(
            &cluster.addrs,
            file.seed,
            ReplicaId(KILLED as u32),
            80,
            Duration::from_secs(30),
        ),
        "{protocol}: replica {KILLED} never executed a fresh request after restarting"
    );

    // Bounded disk growth: checkpoints sealed, WAL GC'd past them.
    let replica_dir = cluster.data_dir.join(format!("replica-{KILLED}"));
    let sealed: Vec<_> = std::fs::read_dir(&replica_dir)
        .expect("replica data dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".sealed"))
        .collect();
    assert!(
        !sealed.is_empty(),
        "{protocol}: no sealed checkpoint was ever written"
    );
    assert!(
        sealed.len() <= 2,
        "{protocol}: stale sealed checkpoints not pruned ({})",
        sealed.len()
    );
    let wal = std::fs::metadata(wal_path(&cluster, KILLED)).expect("wal").len();
    assert!(
        wal < 256 * 1024,
        "{protocol}: WAL grew unboundedly ({wal} bytes) — GC past sealed checkpoints failed"
    );
    let _ = killed_before; // pre-kill size, useful when debugging

    // TcpClient in run_client-based probes used ids 77-80; nothing else
    // to clean: Cluster::drop kills the children, temp dir stays for
    // post-mortem on failure.
    let _ = std::fs::remove_dir_all(cluster.data_dir.parent().expect("root"));
}

#[test]
fn splitbft_replica_drains_on_sigterm_and_rejoins() {
    let protocol = ProtocolKind::SplitBft;
    let _lock = splitbft_node::e2e_cluster_lock();
    let mut cluster = launch(protocol, "sigterm");
    let file = parse_file(&cluster);
    let quorum = reply_quorum_for(protocol, N).expect("quorum");
    let before = read_counter(&file, protocol, 77);

    let load = spawn_load(cluster.addrs.clone(), quorum, Duration::from_secs(10));
    std::thread::sleep(Duration::from_secs(3));

    // SIGTERM the backup under load: it must drain and exit 0.
    let child = cluster.children[KILLED].as_mut().expect("child");
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed: {status}");
    let deadline = Instant::now() + Duration::from_secs(20);
    let exit = loop {
        if let Some(exit) = child.try_wait().expect("wait for the drained replica") {
            break exit;
        }
        assert!(Instant::now() < deadline, "replica {KILLED} did not exit within 20 s of SIGTERM");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(exit.success(), "a drained replica exits 0, got {exit}");
    cluster.children[KILLED] = None;

    let mid = read_counter(&file, protocol, 78);
    assert!(mid >= before, "counter went backwards across the drain ({before} -> {mid})");
    cluster.children[KILLED] =
        Some(spawn_replica(&cluster.cluster_toml, KILLED, &cluster.data_dir));

    let stats = load.join().expect("load thread");
    assert!(stats.completed > 0, "load completed zero requests");
    let after = read_counter(&file, protocol, 79);
    assert!(after > mid, "counter did not advance past the drain ({mid} -> {after})");
    let victim = ReplicaId(KILLED as u32);
    assert!(
        await_rejoin(&cluster.addrs, file.seed, victim, 80, Duration::from_secs(30)),
        "replica {KILLED} never executed a fresh request after restarting from its drain"
    );
    let _ = std::fs::remove_dir_all(cluster.data_dir.parent().expect("root"));
}

#[test]
fn pbft_replica_recovers_from_sigkill_mid_load() {
    crash_recovery_scenario(ProtocolKind::Pbft);
}

#[test]
fn splitbft_replica_recovers_from_sigkill_mid_load() {
    crash_recovery_scenario(ProtocolKind::SplitBft);
}

#[test]
fn minbft_replica_recovers_from_sigkill_mid_load() {
    crash_recovery_scenario(ProtocolKind::MinBft);
}
