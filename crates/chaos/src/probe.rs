//! Cluster-side probes: committed-counter reads and rejoin detection.
//!
//! Both probes speak the raw framed transport with per-request MACs and
//! verify replies with the same `f + 1` matching-quorum rule the load
//! generator uses — protocol-independent, so one probe serves all three
//! stacks. Reads are *ordered* operations: every replica executes them
//! at the same slot, so a matching quorum pins one committed counter
//! value, not a racy snapshot.

use bytes::Bytes;
use splitbft_crypto::client_mac_key;
use splitbft_loadgen::quorum::{CommitLog, QuorumTracker};
use splitbft_net::TcpClient;
use splitbft_types::{ClientId, Request, RequestId, Timestamp};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Wall-clock microseconds — the timestamp base that keeps re-used
/// probe client ids issuing fresh requests across incarnations.
fn wall_clock_ts() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(1)
        .max(1)
}

fn authenticated_op(seed: u64, client: ClientId, ts: u64, op: &'static [u8]) -> Request {
    let mac = client_mac_key(seed, client);
    let id = RequestId { client, timestamp: Timestamp(ts) };
    let op = Bytes::from_static(op);
    let auth = mac.request_tag(id, &op, false);
    Request { id, op, encrypted: false, auth }
}

fn authenticated_read(seed: u64, client: ClientId, ts: u64) -> Request {
    authenticated_op(seed, client, ts, b"read")
}

/// Reads the replicated counter: issues `read` requests to every
/// reachable replica until a `quorum` of MAC-verified matching replies
/// agrees on a value.
///
/// # Errors
///
/// `TimedOut` when no quorum forms within `timeout`; connect errors
/// when no replica is reachable at all.
pub fn read_counter(
    addrs: &[SocketAddr],
    seed: u64,
    quorum: usize,
    client: ClientId,
    timeout: Duration,
) -> io::Result<u64> {
    let mac = client_mac_key(seed, client);
    let mut tcp = TcpClient::connect(client, addrs, timeout.min(Duration::from_secs(10)))?;
    let deadline = Instant::now() + timeout;
    let mut ts = wall_clock_ts();
    let result = loop {
        if Instant::now() >= deadline {
            tcp.close();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no counter quorum within {timeout:?}"),
            ));
        }
        ts += 1;
        let request = authenticated_read(seed, client, ts);
        let _ = tcp.send_all(std::slice::from_ref(&request));
        let mut tracker = QuorumTracker::new(mac.clone(), quorum);
        // One round: collect replies to *this* timestamp; stragglers
        // answering an older probe are ignored, and an unanswered round
        // falls through to a retransmission with a fresh timestamp.
        let round_deadline = (Instant::now() + Duration::from_millis(1_500)).min(deadline);
        let mut agreed = None;
        while Instant::now() < round_deadline && agreed.is_none() {
            match tcp.recv_timeout(Duration::from_millis(200)) {
                Some(reply) if reply.request.timestamp.0 == ts => {
                    agreed = tracker.on_reply(&reply);
                }
                _ => {}
            }
        }
        if let Some(result) = agreed {
            break result;
        }
    };
    tcp.close();
    let bytes: [u8; 8] = result[..].try_into().map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "counter read returned a non-u64 result")
    })?;
    Ok(u64::from_le_bytes(bytes))
}

/// How far a victim's execution progress may trail the most advanced
/// live peer and still count as rejoined — the same watermark the
/// `/readyz` endpoint uses, so "the chaos run calls it rejoined" and
/// "the node calls itself ready" agree.
pub const REJOIN_PROGRESS_GAP: u64 = 128;

/// Waits until replica `victim`'s `STATUS` snapshot proves it rejoined:
/// it answers on its client port, reports recovery finished, has
/// executed something, and its progress is within
/// [`REJOIN_PROGRESS_GAP`] of the most advanced peer. Polls every
/// 250 ms against an explicit deadline; returns `false` on timeout.
///
/// This replaces the old reply-race probe (issue a fresh request, wait
/// for a reply carrying the victim's id) whose round could time out on
/// a loaded machine even after the victim had fully caught up — the
/// snapshot is a direct read of the victim's own gauges, so there is
/// no race to lose.
pub fn await_rejoin_via_status(addrs: &[SocketAddr], victim: usize, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Ok(snapshot) = splitbft_net::status::fetch_snapshot(addrs[victim]) {
            let peer_frontier = addrs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != victim)
                .filter_map(|(_, addr)| splitbft_net::status::fetch_snapshot(*addr).ok())
                .map(|s| s.progress)
                .max()
                .unwrap_or(0);
            if !snapshot.recovering
                && snapshot.progress > 0
                && snapshot.progress + REJOIN_PROGRESS_GAP >= peer_frontier
            {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    false
}

/// Base client id for the safety-monitor clients — distinct from the
/// probe client band (64+) and the load-generator band (1000+) so
/// their request streams never collide.
pub const SAFETY_CLIENT_BASE: u32 = 32;

/// What the safety monitor observed over a chaos run.
#[derive(Debug)]
pub struct SafetyOutcome {
    /// Requests that reached an `f + 1` MAC-verified matching quorum.
    pub commits: u64,
    /// Cross-check failures: two distinct requests whose quorums both
    /// claimed the same unique counter value — a committed fork.
    pub violations: Vec<String>,
}

/// Background safety cross-check: a handful of clients issue unique
/// authenticated `inc` requests for the whole chaos run and feed every
/// quorum-accepted result into one shared [`CommitLog`].
///
/// The counter application returns the *post-increment* value, so each
/// committed `inc` yields a globally unique result on any single
/// history. If two monitor requests ever commit the same value, the
/// replicas forked — exactly the divergence an equivocating primary or
/// a badly healed partition would produce. The check is probabilistic
/// (it only sees the monitor's own commits, not the load generator's)
/// but any conflict it does report is a hard safety violation.
pub struct SafetyMonitor {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<u64>>,
    violations: Arc<Mutex<Vec<String>>>,
}

impl SafetyMonitor {
    /// Starts `clients` monitor threads against `addrs`. `quorum` is
    /// the `f + 1` matching-reply threshold.
    pub fn start(addrs: Vec<SocketAddr>, seed: u64, quorum: usize, clients: u32) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(CommitLog::new()));
        let violations = Arc::new(Mutex::new(Vec::new()));
        let handles = (0..clients.max(1))
            .map(|i| {
                let client = ClientId(SAFETY_CLIENT_BASE + i);
                let (addrs, stop) = (addrs.clone(), Arc::clone(&stop));
                let (log, violations) = (Arc::clone(&log), Arc::clone(&violations));
                std::thread::spawn(move || {
                    safety_client_loop(&addrs, seed, quorum, client, &stop, &log, &violations)
                })
            })
            .collect();
        SafetyMonitor { stop, handles, violations }
    }

    /// Stops the monitor threads and returns what they saw.
    pub fn stop(self) -> SafetyOutcome {
        self.stop.store(true, Ordering::SeqCst);
        let commits = self.handles.into_iter().map(|h| h.join().unwrap_or(0)).sum();
        let violations = self.violations.lock().map(|v| v.clone()).unwrap_or_default();
        SafetyOutcome { commits, violations }
    }
}

fn safety_client_loop(
    addrs: &[SocketAddr],
    seed: u64,
    quorum: usize,
    client: ClientId,
    stop: &AtomicBool,
    log: &Mutex<CommitLog>,
    violations: &Mutex<Vec<String>>,
) -> u64 {
    let mac = client_mac_key(seed, client);
    let mut commits = 0u64;
    let mut ts = wall_clock_ts();
    while !stop.load(Ordering::SeqCst) {
        let Ok(mut tcp) = TcpClient::connect(client, addrs, Duration::from_secs(3)) else {
            std::thread::sleep(Duration::from_millis(300));
            continue;
        };
        // Reconnect every few requests so replicas restarted or healed
        // mid-schedule rejoin this client's fan-out.
        for _ in 0..16 {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            ts += 1;
            let request = authenticated_op(seed, client, ts, b"inc");
            let mut tracker = QuorumTracker::new(mac.clone(), quorum);
            let mut agreed = None;
            // Retransmit with the *same* timestamp until quorum or
            // shutdown: the request id must stay stable so a late
            // quorum still maps to one CommitLog entry.
            while agreed.is_none() && !stop.load(Ordering::SeqCst) {
                let _ = tcp.send_all(std::slice::from_ref(&request));
                let round_deadline = Instant::now() + Duration::from_millis(1_500);
                while Instant::now() < round_deadline && agreed.is_none() {
                    match tcp.recv_timeout(Duration::from_millis(200)) {
                        Some(reply) if reply.request.timestamp.0 == ts => {
                            agreed = tracker.on_reply(&reply);
                        }
                        _ => {}
                    }
                }
            }
            if let Some(result) = agreed {
                commits += 1;
                if let Ok(mut log) = log.lock() {
                    if let Err(conflict) = log.record(request.id, &result) {
                        if let Ok(mut v) = violations.lock() {
                            v.push(conflict.to_string());
                        }
                    }
                }
            }
        }
        tcp.close();
    }
    commits
}
