//! Closed- and open-loop workload drivers.
//!
//! A driver runs `clients` concurrent client threads against a deployed
//! cluster. Each thread owns one [`TcpClient`] connection
//! fan-out and keeps up to `pipeline` requests outstanding (closed
//! loop), or issues on a fixed schedule regardless of completions (open
//! loop, the offered-load mode that reveals saturation). Completion —
//! `f + 1` MAC-verified matching replies — is detected per request by a
//! [`QuorumTracker`]; latencies land in a per-thread [`LatencyHistogram`]
//! and are merged when the run ends.
//!
//! # Threads
//!
//! One per client. Its loop sends everything due as one `REQUESTS`
//! frame, then waits in [`TcpClient::poll`] and feeds each reply to its
//! request's tracker as it is read, so a burst of completions is counted
//! before the next pass refills the pipeline — with all of them.
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
use splitbft_net::client::TcpClient;
use splitbft_types::{ClientId, Request, RequestId, Timestamp};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
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
    /// replicas — the leadership-agnostic mode failover harnesses use
    /// when view changes move the primary mid-run.
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

/// One request awaiting its reply quorum, filed under its timestamp.
struct Flight {
    request: Request,
    last_sent: Instant,
    issued_at: Instant,
    shard: u32,
    tracker: QuorumTracker,
}

impl ClientStats {
    /// Counts one completion of a request for `shard`, `latency` after
    /// it was issued and `at` into the run.
    fn record(&mut self, latency: Duration, at: Duration, shard: u32) {
        self.completed += 1;
        self.hist.record(latency);
        self.windows.record(at);
        if let Some(count) = self.per_shard_completed.get_mut(shard as usize) {
            *count += 1;
        }
    }
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

    // Builds `count` authenticated requests, sends them as one REQUESTS
    // frame (client-side batching — the mirror of the replicas'
    // send-path batching), then files each with its quorum tracker.
    let mut issue = |count: usize,
                     tcp: &mut TcpClient,
                     inflight: &mut BTreeMap<u64, Flight>,
                     stats: &mut ClientStats|
     -> io::Result<()> {
        if count == 0 {
            return Ok(());
        }
        let issued_at = Instant::now();
        let mut batch = Vec::with_capacity(count);
        let mut shards = Vec::with_capacity(count);
        for offset in 0..count {
            let timestamp = Timestamp(next_ts);
            next_ts += 1;
            // Each request in the coalesced frame keeps its own workload
            // sequence number (blockchain ops embed it to stay distinct).
            let sequence = stats.issued + offset as u64;
            let (op, shard) = config.workload.next_op_sharded(&mut rng, sequence, config.shards);
            let id = RequestId { client, timestamp };
            let auth = mac.request_tag(id, &op, false);
            batch.push(Request { id, op, encrypted: false, auth });
            shards.push(shard.0);
        }
        // The primary first; every reachable replica if it cannot be
        // written or the index names none (the broadcast mode).
        tcp.send_to(config.primary_index, &batch).or_else(|_| tcp.send_all(&batch))?;
        for (request, shard) in batch.into_iter().zip(shards) {
            let tracker = QuorumTracker::new(mac.clone(), config.reply_quorum);
            let flight = Flight { request, last_sent: issued_at, issued_at, shard, tracker };
            inflight.insert(flight.request.id.timestamp.0, flight);
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
                    issue(want, &mut tcp, &mut inflight, &mut stats)?;
                }
            }
            Some(period) => {
                let mut due = 0;
                while next_issue <= Instant::now() && Instant::now() < deadline {
                    due += 1;
                    next_issue += period;
                }
                issue(due, &mut tcp, &mut inflight, &mut stats)?;
            }
        }

        let now = Instant::now();
        if inflight.is_empty() && now >= deadline {
            break;
        }
        // Past the drain window, or with every replica hung up, nothing
        // in flight will complete.
        if now >= hard_stop || tcp.connected() == 0 {
            stats.timed_out += inflight.len() as u64;
            break;
        }

        // Read whatever replies are ready, feeding each to its request's
        // tracker (bounded so retransmission and open-loop scheduling
        // stay responsive). Replies beyond a quorum find no flight.
        let mut wait = Duration::from_millis(20).min(hard_stop - now);
        if open_period.is_some() && now < deadline {
            wait = wait.min(next_issue.saturating_duration_since(now));
        }
        tcp.poll(wait.max(Duration::from_micros(200)), |reply| {
            let timestamp = reply.request.timestamp.0;
            let Some(flight) = inflight.get_mut(&timestamp) else { return };
            if flight.request.id == reply.request && flight.tracker.on_reply(&reply).is_some() {
                stats.record(flight.issued_at.elapsed(), start.elapsed(), flight.shard);
                inflight.remove(&timestamp);
            }
        });

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

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_crypto::ClientMacKeys;
    use splitbft_net::{EventedNode, NodeConfig};
    use splitbft_net::transport::{Protocol, ProtocolOutput};
    use splitbft_types::{ReplicaId, Reply, View};

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
    fn closed_loop_refills_the_whole_pipeline() {
        let node = echo_node(79);
        let mut config = DriverConfig::new(vec![node.local_addr()], 79, 1);
        config.clients = 1;
        config.pipeline = 8;
        config.duration = Duration::from_millis(300);

        let stats = run(&config).unwrap();
        assert!(stats.completed > 0, "no requests completed");
        let telemetry = node.telemetry();
        let (frames, requests) =
            (telemetry.client_request_frames.get(), telemetry.client_requests.get());
        assert_eq!(requests, stats.issued, "every issued request reached the node once");
        let per_frame = requests as f64 / frames as f64;
        eprintln!("{requests} requests in {frames} frames: {per_frame:.2} per frame");
        // A burst of replies completes its whole batch before the next
        // pass refills: frames carry most of the pipeline, not one.
        assert!(per_frame >= 4.0, "{per_frame:.2} requests per frame at pipeline 8");
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
