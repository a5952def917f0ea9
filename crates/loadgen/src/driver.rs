//! Closed- and open-loop workload drivers.
//!
//! A driver runs `clients` concurrent client threads against a deployed
//! cluster. Each thread owns one [`TcpClient`] connection
//! fan-out and keeps up to `pipeline` requests outstanding (closed
//! loop), or issues on a fixed schedule regardless of completions (open
//! loop, the offered-load mode that reveals saturation). Completion —
//! `f + 1` MAC-verified matching replies — is detected per request by a
//! [`QuorumTracker`] running on the connection's dispatcher thread;
//! latencies land in a per-thread [`LatencyHistogram`] and are merged
//! when the run ends.
//!
//! Retransmission follows the PBFT client rule: a request outstanding
//! longer than `retry_every` is re-broadcast to every reachable replica
//! (replicas that executed it answer from their reply cache). After the
//! measurement window the driver drains: it stops issuing and waits up
//! to `drain_timeout` for stragglers, counting whatever never completes
//! as timed out.

use crate::hist::{LatencyHistogram, Windows};
use crate::quorum::QuorumTracker;
use crate::workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitbft_crypto::client_mac_key;
use splitbft_net::client::{ReplyHandler, TcpClient};
use splitbft_types::{ClientId, Reply, Request, RequestId, Timestamp};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// How load is offered to the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Each client keeps `pipeline` requests outstanding and issues a
    /// new one the moment one completes: measures peak sustainable
    /// throughput at bounded concurrency.
    Closed,
    /// Requests are issued at a fixed aggregate rate across all clients
    /// regardless of completions: measures latency at a chosen offered
    /// load (and exposes saturation when the cluster falls behind).
    Open {
        /// Aggregate offered load, requests per second.
        rate: f64,
    },
}

/// Configuration for one load-generation run.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Replica addresses in id order (index 0 is the view-0 primary).
    pub addrs: Vec<SocketAddr>,
    /// The cluster's master seed (request/reply MAC keys derive from it).
    pub master_seed: u64,
    /// Matching replies needed to accept a result (`f + 1`).
    pub reply_quorum: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Outstanding requests per client (closed loop).
    pub pipeline: usize,
    /// Length of the measurement window.
    pub duration: Duration,
    /// Closed or open (fixed-rate) loop.
    pub mode: LoadMode,
    /// The operation stream.
    pub workload: Workload,
    /// Window length of the throughput series.
    pub window: Duration,
    /// Re-broadcast requests outstanding longer than this.
    pub retry_every: Duration,
    /// After the measurement window, wait at most this long for
    /// stragglers before counting them as timed out.
    pub drain_timeout: Duration,
    /// Connection-establishment budget per client.
    pub connect_timeout: Duration,
    /// First client id; client `i` uses `client_id_base + i`.
    pub client_id_base: u32,
    /// Address-book index requests are first submitted to (the view-0
    /// primary by default). A wrong guess still completes through the
    /// retry broadcast, just slower. An **out-of-range** index (e.g.
    /// `usize::MAX`) broadcasts every submission to all reachable
    /// replicas — the leadership-agnostic mode chaos/failover harnesses
    /// use when view changes move the primary mid-run.
    pub primary_index: usize,
    /// Consensus groups the target cluster hosts. Above one, KVS key
    /// generation cycles the shards round-robin
    /// ([`Workload::next_op_sharded`]) and completions are tracked per
    /// shard in [`LoadStats::per_shard_completed`]. The default `1`
    /// generates exactly the pre-sharding stream.
    pub shards: u32,
}

impl DriverConfig {
    /// A closed-loop config with the defaults benchmarks start from.
    pub fn new(addrs: Vec<SocketAddr>, master_seed: u64, reply_quorum: usize) -> Self {
        DriverConfig {
            addrs,
            master_seed,
            reply_quorum,
            clients: 4,
            pipeline: 1,
            duration: Duration::from_secs(5),
            mode: LoadMode::Closed,
            workload: Workload::Counter,
            window: Duration::from_secs(1),
            retry_every: Duration::from_secs(1),
            drain_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(10),
            client_id_base: 1_000,
            primary_index: 0,
            shards: 1,
        }
    }
}

/// What one run measured, aggregated across all client threads.
#[derive(Debug, Clone)]
pub struct LoadStats {
    /// Requests issued inside the measurement window.
    pub issued: u64,
    /// Requests that reached a verified reply quorum (client-observed
    /// completions == committed requests the clients can prove).
    pub completed: u64,
    /// Requests still incomplete when the drain window closed.
    pub timed_out: u64,
    /// Wall time of the whole run including connect and drain.
    pub elapsed: Duration,
    /// Completion latencies.
    pub hist: LatencyHistogram,
    /// Completions per window since the measurement started.
    pub windows: Windows,
    /// Completions per shard (`config.shards` entries; a single entry
    /// for unsharded runs). The per-shard quorum trackers feeding this
    /// are the client-side proof that every consensus group committed
    /// its slice of the load.
    pub per_shard_completed: Vec<u64>,
}

/// Runs one load-generation session. Returns once every client thread
/// finished (measurement window plus drain).
///
/// # Errors
///
/// `InvalidInput` for a zero-client or zero-duration config; connection
/// errors if a client cannot reach any replica.
pub fn run(config: &DriverConfig) -> io::Result<LoadStats> {
    if config.clients == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "need at least one client"));
    }
    if config.duration.is_zero() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "duration must be positive"));
    }
    if let LoadMode::Open { rate } = config.mode {
        if !(rate > 0.0) {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "open-loop rate must be > 0"));
        }
    }
    let started = Instant::now();
    let results: Vec<io::Result<ClientStats>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|index| scope.spawn(move || client_loop(config, index)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let shards = config.shards.max(1) as usize;
    let mut stats = LoadStats {
        issued: 0,
        completed: 0,
        timed_out: 0,
        elapsed: started.elapsed(),
        hist: LatencyHistogram::new(),
        windows: Windows::new(config.window),
        per_shard_completed: vec![0; shards],
    };
    for result in results {
        let client = result?;
        stats.issued += client.issued;
        stats.completed += client.completed;
        stats.timed_out += client.timed_out;
        stats.hist.merge(&client.hist);
        stats.windows.merge(&client.windows);
        for (total, &count) in
            stats.per_shard_completed.iter_mut().zip(&client.per_shard_completed)
        {
            *total += count;
        }
    }
    Ok(stats)
}

struct ClientStats {
    issued: u64,
    completed: u64,
    timed_out: u64,
    hist: LatencyHistogram,
    windows: Windows,
    per_shard_completed: Vec<u64>,
}

struct Flight {
    request: Request,
    last_sent: Instant,
}

fn client_loop(config: &DriverConfig, index: usize) -> io::Result<ClientStats> {
    let client = ClientId(config.client_id_base + index as u32);
    let mac = client_mac_key(config.master_seed, client);
    let mut rng = StdRng::seed_from_u64(
        config.master_seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1),
    );
    let mut tcp = TcpClient::connect(client, &config.addrs, config.connect_timeout)?;

    // Wall-clock timestamps: replicas dedupe requests by each client's
    // last-seen timestamp, so a rerun reusing an id must start above
    // everything it ever issued.
    let mut next_ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(1)
        .max(1);

    // Completions cross from the dispatcher thread back to this one:
    // (timestamp, owning shard, latency, elapsed-since-start).
    let (done_tx, done_rx) = channel::<(u64, u32, Duration, Duration)>();

    let pipeline = config.pipeline.max(1);
    let start = Instant::now();
    let deadline = start + config.duration;
    let hard_stop = deadline + config.drain_timeout;
    // Open loop: this client covers every `period`, staggered so the
    // aggregate stream is evenly spaced, not `clients`-sized bursts.
    let open_period = match config.mode {
        LoadMode::Closed => None,
        LoadMode::Open { rate } => {
            Some(Duration::from_secs_f64(config.clients as f64 / rate))
        }
    };
    let mut next_issue =
        start + open_period.map_or(Duration::ZERO, |p| p.mul_f64(index as f64 / config.clients as f64));

    let mut stats = ClientStats {
        issued: 0,
        completed: 0,
        timed_out: 0,
        hist: LatencyHistogram::new(),
        windows: Windows::new(config.window),
        per_shard_completed: vec![0; config.shards.max(1) as usize],
    };
    let mut inflight: BTreeMap<u64, Flight> = BTreeMap::new();

    // Builds one authenticated request plus its quorum-tracking
    // completion handler; `issue_all` below coalesces any number of
    // them into a single REQUESTS frame (client-side batching — the
    // mirror of the replicas' send-path batching).
    let mut build = |sequence: u64| -> (Request, ReplyHandler) {
        let timestamp = Timestamp(next_ts);
        next_ts += 1;
        let (op, shard) = config.workload.next_op_sharded(&mut rng, sequence, config.shards);
        let id = RequestId { client, timestamp };
        let auth = mac.request_tag(id, &op, false);
        let request = Request { id, op, encrypted: false, auth };

        let mut tracker = QuorumTracker::new(mac.clone(), config.reply_quorum);
        let issued_at = Instant::now();
        let done = done_tx.clone();
        let handler = Box::new(move |reply: &Reply| {
            if tracker.on_reply(reply).is_some() {
                let _ = done.send((
                    reply.request.timestamp.0,
                    shard.0,
                    issued_at.elapsed(),
                    start.elapsed(),
                ));
                true
            } else {
                false
            }
        });
        (request, handler)
    };

    let mut issue_all = |count: usize,
                         tcp: &mut TcpClient,
                         inflight: &mut BTreeMap<u64, Flight>,
                         stats: &mut ClientStats|
     -> io::Result<()> {
        if count == 0 {
            return Ok(());
        }
        let mut batch = Vec::with_capacity(count);
        for offset in 0..count {
            // Each request in the coalesced frame keeps its own
            // workload sequence number (blockchain ops embed it to stay
            // distinct).
            batch.push(build(stats.issued + offset as u64));
        }
        let issued_at = Instant::now();
        let flights: Vec<(u64, Flight)> = batch
            .iter()
            .map(|(request, _)| {
                (request.id.timestamp.0, Flight { request: request.clone(), last_sent: issued_at })
            })
            .collect();
        tcp.submit_batch(config.primary_index, batch)?;
        for (ts, flight) in flights {
            inflight.insert(ts, flight);
        }
        stats.issued += count as u64;
        Ok(())
    };

    loop {
        // Issue phase: everything due right now goes out in one frame.
        match open_period {
            None => {
                if Instant::now() < deadline {
                    let want = pipeline.saturating_sub(inflight.len());
                    issue_all(want, &mut tcp, &mut inflight, &mut stats)?;
                }
            }
            Some(period) => {
                let mut due = 0;
                while next_issue <= Instant::now() && Instant::now() < deadline {
                    due += 1;
                    next_issue += period;
                }
                issue_all(due, &mut tcp, &mut inflight, &mut stats)?;
            }
        }

        let now = Instant::now();
        if inflight.is_empty() && now >= deadline {
            break;
        }
        if now >= hard_stop {
            // Completions already queued on the channel are real — drain
            // them before declaring the remainder timed out.
            while let Ok(completion) = done_rx.try_recv() {
                record_completion(completion, &mut inflight, &mut stats);
            }
            for flight in inflight.values() {
                tcp.cancel(flight.request.id);
            }
            stats.timed_out += inflight.len() as u64;
            inflight.clear();
            break;
        }

        // Wait for the next completion (bounded so retransmission and
        // open-loop scheduling stay responsive).
        let mut wait = Duration::from_millis(20).min(hard_stop - now);
        if open_period.is_some() && now < deadline {
            wait = wait.min(next_issue.saturating_duration_since(now));
        }
        match done_rx.recv_timeout(wait.max(Duration::from_micros(200))) {
            Ok(completion) => {
                record_completion(completion, &mut inflight, &mut stats);
                // Batch up whatever else already completed.
                while let Ok(more) = done_rx.try_recv() {
                    record_completion(more, &mut inflight, &mut stats);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        // Retransmit stragglers (at-most-once transport: loss recovery
        // is the client's job).
        let now = Instant::now();
        for flight in inflight.values_mut() {
            if now.duration_since(flight.last_sent) >= config.retry_every {
                let _ = tcp.send_all(std::slice::from_ref(&flight.request));
                flight.last_sent = now;
            }
        }
    }

    tcp.close();
    Ok(stats)
}

fn record_completion(
    (timestamp, shard, latency, at): (u64, u32, Duration, Duration),
    inflight: &mut BTreeMap<u64, Flight>,
    stats: &mut ClientStats,
) {
    if inflight.remove(&timestamp).is_some() {
        stats.completed += 1;
        stats.hist.record(latency);
        stats.windows.record(at);
        if let Some(count) = stats.per_shard_completed.get_mut(shard as usize) {
            *count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_crypto::ClientMacKeys;
    use splitbft_net::{EventedNode, NodeConfig};
    use splitbft_net::transport::{Protocol, ProtocolOutput};
    use splitbft_types::{ReplicaId, View};

    /// A single-"replica" protocol that executes nothing but answers
    /// every authentic request with a correctly MACed reply, so the
    /// quorum trackers accept with `reply_quorum = 1`. Exercises the
    /// driver without standing up a consensus cluster.
    struct MacEcho {
        id: ReplicaId,
        client_keys: ClientMacKeys,
    }

    impl Protocol for MacEcho {
        type Message = u64;

        fn on_message(&mut self, _msg: u64) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn on_client_requests(&mut self, requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
            requests
                .into_iter()
                .filter_map(|r| {
                    if !self.client_keys.verify_request(&r) {
                        return None;
                    }
                    let auth = self.client_keys.reply_tag(View(0), r.id, self.id, &r.op, false);
                    Some(ProtocolOutput::Reply {
                        to: r.client(),
                        reply: Reply {
                            view: View(0),
                            request: r.id,
                            replica: self.id,
                            result: r.op,
                            encrypted: false,
                            auth,
                        },
                    })
                })
                .collect()
        }

        fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }
    }

    fn echo_node(seed: u64) -> EventedNode {
        let config = NodeConfig::new(ReplicaId(0), "127.0.0.1:0".parse().unwrap(), Vec::new());
        let echo = MacEcho { id: ReplicaId(0), client_keys: ClientMacKeys::new(seed) };
        EventedNode::spawn(config, echo).unwrap()
    }

    #[test]
    fn closed_loop_measures_completions() {
        let node = echo_node(77);
        let mut config = DriverConfig::new(vec![node.local_addr()], 77, 1);
        config.clients = 2;
        config.pipeline = 4;
        config.duration = Duration::from_millis(300);
        config.window = Duration::from_millis(100);

        let stats = run(&config).unwrap();
        assert!(stats.completed > 0, "no requests completed");
        assert_eq!(stats.completed + stats.timed_out, stats.issued);
        assert_eq!(stats.hist.count(), stats.completed);
        assert_eq!(stats.windows.counts().iter().sum::<u64>(), stats.completed);
        node.shutdown();
    }

    #[test]
    fn open_loop_tracks_offered_rate() {
        let node = echo_node(78);
        let mut config = DriverConfig::new(vec![node.local_addr()], 78, 1);
        config.clients = 2;
        config.duration = Duration::from_millis(500);
        config.mode = LoadMode::Open { rate: 200.0 };
        config.window = Duration::from_millis(100);

        let stats = run(&config).unwrap();
        // 200/s over 0.5 s ≈ 100 requests; allow generous scheduling slop.
        assert!(
            (50..=140).contains(&stats.issued),
            "offered {} requests, expected ~100",
            stats.issued
        );
        assert_eq!(stats.completed + stats.timed_out, stats.issued);
        node.shutdown();
    }

    #[test]
    fn zero_clients_rejected() {
        let mut config = DriverConfig::new(vec!["127.0.0.1:1".parse().unwrap()], 1, 1);
        config.clients = 0;
        assert_eq!(run(&config).unwrap_err().kind(), io::ErrorKind::InvalidInput);
    }
}
