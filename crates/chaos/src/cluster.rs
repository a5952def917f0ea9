//! Subprocess cluster management for chaos runs.
//!
//! Every replica is a real `splitbft-node serve` **subprocess** (the
//! same binary the operator deploys) with a per-replica data directory
//! and its stderr captured to a log file — `SIGKILL` means exactly what
//! it means in production. Rejoin evidence comes from each replica's
//! structured event journal, polled over the `STATUS` frame kind on
//! the client port ([`RejoinEvidence::from_events`]); the stderr logs
//! remain for human post-mortems only.

use splitbft_types::StatusEvent;
use std::fs::OpenOptions;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Everything needed to spawn one replica of the cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Path to the `splitbft-node` binary (usually
    /// `std::env::current_exe()` when invoked as a subcommand).
    pub serve_binary: PathBuf,
    /// Protocol name as the CLI spells it (`pbft`, `splitbft`,
    /// `minbft`).
    pub protocol: String,
    /// Cluster size.
    pub n: usize,
    /// Master seed shared by replicas and probes.
    pub seed: u64,
    /// View-change timer period written into the cluster file.
    pub timeout_ms: u64,
    /// WAL group-commit linger written into the cluster file
    /// (`0` = one fsync per event).
    pub wal_group_commit_us: u64,
    /// Consensus groups per replica; written into the cluster file as
    /// the `shards` key when above one (one keeps the file — and the
    /// replicas' on-disk layout — identical to an unsharded run).
    pub shards: u32,
    /// Scratch root: cluster file, data dirs, and stderr logs live
    /// under it.
    pub root: PathBuf,
    /// Replicas served in a Byzantine mode, as `(replica, mode)` —
    /// written into the cluster file as per-replica `byzantine` keys so
    /// every incarnation of the replica (including chaos restarts)
    /// comes back adversarial.
    pub byzantine: Vec<(usize, String)>,
}

/// A live (partially live, mid-chaos) subprocess cluster.
///
/// Children are killed on drop, so a failing orchestration never leaks
/// replica processes into the caller.
#[derive(Debug)]
pub struct ChaosCluster {
    spec: ClusterSpec,
    children: Vec<Option<Child>>,
    /// Replica listen addresses in id order.
    pub addrs: Vec<SocketAddr>,
    config_path: PathBuf,
}

impl Drop for ChaosCluster {
    fn drop(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reserves `n` distinct localhost ports by binding and releasing
/// ephemeral listeners. (A small race with other processes remains; a
/// collision surfaces as the replica's serve failing loudly.)
fn free_ports(n: usize) -> io::Result<Vec<u16>> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
    listeners.iter().map(|l| Ok(l.local_addr()?.port())).collect()
}

impl ChaosCluster {
    /// Writes the cluster file and prepares (but does not start) the
    /// cluster. Call [`ChaosCluster::start`] per replica, or
    /// [`ChaosCluster::start_all`].
    pub fn prepare(spec: ClusterSpec) -> io::Result<Self> {
        std::fs::create_dir_all(&spec.root)?;
        let ports = free_ports(spec.n)?;
        let addrs: Vec<SocketAddr> = ports
            .iter()
            .map(|p| format!("127.0.0.1:{p}").parse().expect("loopback literal"))
            .collect();
        let mut toml = format!(
            "protocol = \"{}\"\nseed = {}\napp = \"counter\"\ntimeout_ms = {}\nwal_group_commit_us = {}\n",
            spec.protocol, spec.seed, spec.timeout_ms, spec.wal_group_commit_us,
        );
        if spec.shards > 1 {
            toml.push_str(&format!("shards = {}\n", spec.shards));
        }
        for (id, port) in ports.iter().enumerate() {
            toml.push_str(&format!("\n[[replica]]\nid = {id}\naddr = \"127.0.0.1:{port}\"\n"));
            if let Some((_, mode)) = spec.byzantine.iter().find(|(r, _)| *r == id) {
                toml.push_str(&format!("byzantine = \"{mode}\"\n"));
            }
        }
        let config_path = spec.root.join("cluster.toml");
        std::fs::write(&config_path, toml)?;
        let children = (0..spec.n).map(|_| None).collect();
        Ok(ChaosCluster { spec, children, addrs, config_path })
    }

    /// The scratch root this cluster lives under.
    pub fn root(&self) -> &Path {
        &self.spec.root
    }

    /// The stderr log file of one replica (all incarnations append).
    pub fn log_path(&self, replica: usize) -> PathBuf {
        self.spec.root.join(format!("replica-{replica}.stderr.log"))
    }

    /// The durability root shared by all replicas (each persists under
    /// `data/replica-<id>/`).
    pub fn data_dir(&self) -> PathBuf {
        self.spec.root.join("data")
    }

    /// Spawns (or respawns) replica `id` from its data directory.
    /// Stderr is *appended* to the replica's log so recovery markers
    /// from every incarnation accumulate in order.
    ///
    /// # Errors
    ///
    /// Spawn failures; starting an already-running replica is refused.
    pub fn start(&mut self, id: usize) -> io::Result<()> {
        if self.children[id].is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("replica {id} is already running"),
            ));
        }
        let log = OpenOptions::new().create(true).append(true).open(self.log_path(id))?;
        let child = Command::new(&self.spec.serve_binary)
            .args([
                "serve",
                "--config",
                self.config_path.to_str().ok_or_else(non_utf8)?,
                "--replica",
                &id.to_string(),
                "--data-dir",
                self.data_dir().to_str().ok_or_else(non_utf8)?,
                // Chaos replicas must accept the orchestrator's
                // FAULT_CONTROL frames (partitions, link rules); the
                // serve default refuses them.
                "--enable-fault-injection",
                // And its STATUS admin verbs (graceful drain), gated
                // the same way.
                "--enable-status-admin",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::from(log))
            .spawn()?;
        self.children[id] = Some(child);
        Ok(())
    }

    /// Starts every replica.
    pub fn start_all(&mut self) -> io::Result<()> {
        for id in 0..self.spec.n {
            self.start(id)?;
        }
        Ok(())
    }

    /// `SIGKILL`s replica `id` — no flush, no goodbye. A no-op if it is
    /// not running.
    pub fn kill(&mut self, id: usize) {
        if let Some(mut child) = self.children[id].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Gracefully drains replica `id`: sends `SIGTERM` (via `kill(1)` —
    /// the orchestrator crate forbids `unsafe_code`, so no raw syscall)
    /// and waits for the process to seal its checkpoint, flush its WAL,
    /// and exit 0 within `timeout`.
    ///
    /// # Errors
    ///
    /// The replica not running, the signal failing to send, a nonzero
    /// exit status, or the deadline passing (the victim is `SIGKILL`ed
    /// then, so the cluster is never left with a zombie drainer).
    pub fn drain(&mut self, id: usize, timeout: Duration) -> io::Result<()> {
        let Some(child) = self.children[id].as_mut() else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("replica {id} is not running"),
            ));
        };
        let pid = child.id();
        let sent = Command::new("kill").args(["-TERM", &pid.to_string()]).status()?;
        if !sent.success() {
            return Err(io::Error::new(
                io::ErrorKind::Other,
                format!("kill -TERM {pid} exited with {sent}"),
            ));
        }
        let deadline = Instant::now() + timeout;
        loop {
            match child.try_wait()? {
                Some(status) if status.success() => {
                    self.children[id] = None;
                    return Ok(());
                }
                Some(status) => {
                    self.children[id] = None;
                    return Err(io::Error::new(
                        io::ErrorKind::Other,
                        format!("replica {id} exited with {status} instead of draining cleanly"),
                    ));
                }
                None if Instant::now() >= deadline => {
                    self.kill(id);
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("replica {id} did not finish draining within {timeout:?}"),
                    ));
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// `true` while replica `id`'s process is alive.
    pub fn running(&mut self, id: usize) -> bool {
        match &mut self.children[id] {
            None => false,
            Some(child) => match child.try_wait() {
                Ok(None) => true,
                _ => {
                    self.children[id] = None;
                    false
                }
            },
        }
    }

    /// Kills every replica and removes the scratch root (unless
    /// `keep_data`).
    pub fn teardown(mut self, keep_data: bool) {
        for id in 0..self.children.len() {
            self.kill(id);
        }
        if !keep_data {
            let _ = std::fs::remove_dir_all(&self.spec.root);
        }
    }
}

fn non_utf8() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, "non-UTF-8 path")
}

/// A cursor over one replica's `STATUS` event journal, yielding only
/// events recorded since the last read — phase-scoped evidence
/// scanning, replacing the old stderr-log cursor.
///
/// Restart-aware: a respawned victim comes back with a fresh journal
/// whose head restarts from zero. The orchestrator calls
/// [`EventCursor::rewind`] when it respawns the victim (so the new
/// incarnation's whole journal — `Recovered`, `CheckpointRestored`,
/// `StateTransferApplied` — counts as phase evidence), and
/// [`EventCursor::read_new`] additionally detects a head below the
/// cursor and re-reads from the journal's start as a safety net.
#[derive(Debug)]
pub struct EventCursor {
    addr: SocketAddr,
    since: u64,
}

impl EventCursor {
    /// A cursor starting at the journal's current head (events from
    /// before this phase are skipped). An unreachable replica — not
    /// started yet, mid-crash — yields a cursor at zero, so its next
    /// incarnation's whole journal counts.
    pub fn at_head(addr: SocketAddr) -> Self {
        let since = splitbft_net::status::fetch_snapshot(addr)
            .map(|s| s.journal_head)
            .unwrap_or(0);
        EventCursor { addr, since }
    }

    /// Resets the cursor to the journal's start — called when the
    /// replica is respawned, so the fresh incarnation's recovery events
    /// are all captured.
    pub fn rewind(&mut self) {
        self.since = 0;
    }

    /// Every event recorded since the previous call. Transient fetch
    /// errors (the replica is down or mid-restart) yield no events and
    /// leave the cursor unchanged for a later retry.
    pub fn read_new(&mut self) -> Vec<StatusEvent> {
        let (head, events) = match splitbft_net::status::fetch_events(self.addr, self.since) {
            Ok((head, _)) if head < self.since => {
                // The journal restarted under us (a respawn the
                // orchestrator didn't announce): re-read it in full.
                self.since = 0;
                match splitbft_net::status::fetch_events(self.addr, 0) {
                    Ok(r) => r,
                    Err(_) => return Vec::new(),
                }
            }
            Ok(r) => r,
            Err(_) => return Vec::new(),
        };
        self.since = head;
        events.into_iter().map(|(_, event)| event).collect()
    }
}

/// Rejoin evidence distilled from a replica's structured event journal
/// (served over `STATUS` on the client port).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejoinEvidence {
    /// Total messages fed through the state-transfer log-suffix path
    /// ([`StatusEvent::StateTransferApplied`]). Each is re-verified by
    /// the protocol, so this counts what was *offered*.
    pub suffix_messages_applied: u64,
    /// Execution progress the suffix applications actually bought (the
    /// events' `from_progress → to_progress` deltas summed) — the
    /// honest proof of a log-path rejoin, since offered messages can be
    /// rejected.
    pub suffix_progress: u64,
    /// A peer (or local) checkpoint was restored
    /// ([`StatusEvent::CheckpointRestored`]).
    pub checkpoint_restored: bool,
    /// WAL events replayed by local crash recovery
    /// ([`StatusEvent::Recovered`]).
    pub wal_events_replayed: u64,
}

impl RejoinEvidence {
    /// Distills journal events (as `(index, event)` pairs from a
    /// `STATUS` events query) into rejoin evidence. Events that carry
    /// no recovery story (view changes, checkpoint seals, fault-plan
    /// mutations, drains) are ignored.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a StatusEvent>) -> Self {
        let mut evidence = RejoinEvidence::default();
        for event in events {
            match event {
                StatusEvent::StateTransferApplied { messages, from_progress, to_progress } => {
                    evidence.suffix_messages_applied += messages;
                    evidence.suffix_progress += to_progress.saturating_sub(*from_progress);
                }
                StatusEvent::CheckpointRestored { .. } => evidence.checkpoint_restored = true,
                StatusEvent::Recovered { replayed_events, .. } => {
                    evidence.wal_events_replayed += replayed_events;
                }
                _ => {}
            }
        }
        evidence
    }

    /// Merges a later excerpt's evidence into this one.
    pub fn merge(&mut self, other: RejoinEvidence) {
        self.suffix_messages_applied += other.suffix_messages_applied;
        self.suffix_progress += other.suffix_progress;
        self.checkpoint_restored |= other.checkpoint_restored;
        self.wal_events_replayed += other.wal_events_replayed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evidence_distills_the_journal_events() {
        let events = vec![
            StatusEvent::Recovered { replayed_events: 7, checkpoint_seq: 40 },
            StatusEvent::StateTransferApplied { messages: 12, from_progress: 40, to_progress: 43 },
            StatusEvent::StateTransferApplied { messages: 3, from_progress: 43, to_progress: 43 },
            StatusEvent::CheckpointRestored { seq: 40, agreeing_peers: 2 },
            StatusEvent::ViewChange { view: 1 },
        ];
        let evidence = RejoinEvidence::from_events(&events);
        assert_eq!(evidence.suffix_messages_applied, 15);
        assert_eq!(evidence.suffix_progress, 3, "only real execution progress counts");
        assert!(evidence.checkpoint_restored);
        assert_eq!(evidence.wal_events_replayed, 7);
    }

    #[test]
    fn evidence_ignores_non_recovery_events() {
        let events = vec![
            StatusEvent::ViewChange { view: 2 },
            StatusEvent::CheckpointSealed { seq: 20 },
            StatusEvent::FaultPlanApplied,
            StatusEvent::DrainRequested,
        ];
        assert_eq!(RejoinEvidence::from_events(&events), RejoinEvidence::default());
    }

    #[test]
    fn evidence_merges_across_excerpts() {
        let mut a = RejoinEvidence {
            suffix_messages_applied: 2,
            suffix_progress: 1,
            checkpoint_restored: false,
            wal_events_replayed: 3,
        };
        a.merge(RejoinEvidence {
            suffix_messages_applied: 4,
            suffix_progress: 2,
            checkpoint_restored: true,
            wal_events_replayed: 0,
        });
        assert_eq!(a.suffix_messages_applied, 6);
        assert_eq!(a.suffix_progress, 3);
        assert!(a.checkpoint_restored);
        assert_eq!(a.wal_events_replayed, 3);
    }
}
