//! Closed- and open-loop workload drivers.
//!
//! A driver runs `clients` concurrent client threads against a deployed
//! cluster. Each thread owns one [`TcpClient`] connection fan-out and
//! one [`Client`], which keeps up to `pipeline` requests outstanding
//! (closed loop), or issues on a fixed schedule regardless of
//! completions (open loop, the offered-load mode that reveals
//! saturation). The [`Client`] detects completion — `f + 1`
//! MAC-verified matching replies — per request; latencies land in a
//! per-thread [`LatencyHistogram`] and are merged when the run ends.
//!
//! # Threads
//!
//! One per client. Its loop sends everything due as one `REQUESTS`
//! frame, then waits in [`TcpClient::poll`] and feeds each reply to the
//! client as it is read, so a burst of completions is counted before
//! the next pass refills the pipeline — with all of them.
//!
//! Routing and retransmission are the [`Client`]'s, on a clock of
//! nanoseconds since the run started. New requests go to the primary of
//! the highest view an authentic reply named — replica 0 until a reply
//! names a later view — or to every reachable replica if that one cannot
//! be written. A request outstanding longer than `retry_every` falls due
//! and is re-broadcast to every reachable replica (the PBFT client rule;
//! replicas that executed it answer from their reply cache). After the
//! measurement window the driver drains: it stops issuing and waits up
//! to `drain_timeout` for stragglers, counting whatever never completes
//! as timed out.

use crate::hist::{LatencyHistogram, Windows};
use crate::workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitbft_app::Client;
use splitbft_net::client::TcpClient;
use splitbft_types::{ClientId, Timestamp};
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

/// Client `i` of a run uses id `CLIENT_ID_BASE + i`.
pub const CLIENT_ID_BASE: u32 = 1_000;

/// Window length of the throughput series.
const WINDOW: Duration = Duration::from_secs(1);

/// Connection-establishment budget per client.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// The open-loop periods a client can keep. Below a microsecond the
/// schedule outruns the client's catch-up loop (at zero it counts up to
/// the deadline); above a day it offers no load, and far above it
/// overflows the clock.
const OPEN_PERIODS: std::ops::RangeInclusive<Duration> =
    Duration::from_micros(1)..=Duration::from_secs(86_400);

/// The open-loop schedule's per-client period: each of `clients`
/// clients issues one request every `clients / rate` seconds, so the
/// aggregate offered load is `rate` requests per second.
///
/// # Errors
///
/// A message naming the value, not the flag that carried it, when
/// `rate` is not positive and finite or its period is out of range.
pub fn open_loop_period(rate: f64, clients: usize) -> Result<Duration, String> {
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!("must be a positive, finite rate, got {rate}"));
    }
    match Duration::try_from_secs_f64(clients.max(1) as f64 / rate) {
        Ok(period) if OPEN_PERIODS.contains(&period) => Ok(period),
        _ => Err(format!(
            "{rate} req/s over {} client(s) is not a schedule: each client must issue \
             between once a microsecond and once a day",
            clients.max(1)
        )),
    }
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
    /// Re-broadcast requests outstanding longer than this.
    pub retry_every: Duration,
    /// After the measurement window, wait at most this long for
    /// stragglers before counting them as timed out.
    pub drain_timeout: Duration,
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
            retry_every: Duration::from_secs(1),
            drain_timeout: Duration::from_secs(15),
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
/// `InvalidInput` for a zero-client or zero-duration config, an
/// open-loop rate [`open_loop_period`] rejects, or a run too long for
/// the clock; connection errors if a client cannot reach any replica.
pub fn run(config: &DriverConfig) -> io::Result<LoadStats> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    if config.clients == 0 {
        return Err(invalid("need at least one client".into()));
    }
    if config.duration.is_zero() {
        return Err(invalid("duration must be positive".into()));
    }
    let open_period = match config.mode {
        LoadMode::Closed => None,
        LoadMode::Open { rate } => Some(
            open_loop_period(rate, config.clients)
                .map_err(|e| invalid(format!("open-loop rate {e}")))?,
        ),
    };
    let run_time = config.duration.checked_add(config.drain_timeout);
    if run_time.and_then(|t| Instant::now().checked_add(t)).is_none() {
        return Err(invalid("duration and drain timeout overflow the clock".into()));
    }
    let results: Vec<io::Result<ClientStats>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|index| scope.spawn(move || client_loop(config, open_period, index)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let shards = config.shards.max(1) as usize;
    let mut stats = LoadStats {
        issued: 0,
        completed: 0,
        timed_out: 0,
        hist: LatencyHistogram::new(),
        windows: Windows::new(WINDOW),
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

/// One client's run. `open_period` is its open-loop schedule (`None`
/// in a closed loop).
fn client_loop(
    config: &DriverConfig,
    open_period: Option<Duration>,
    index: usize,
) -> io::Result<ClientStats> {
    let id = ClientId(CLIENT_ID_BASE + index as u32);
    let mut rng = StdRng::seed_from_u64(
        config.master_seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1),
    );
    let mut tcp = TcpClient::connect(id, &config.addrs, CONNECT_TIMEOUT)?;

    // Wall-clock timestamps: replicas dedupe requests by each client's
    // last-seen timestamp, so a rerun reusing an id must start above
    // everything it ever issued.
    let first_timestamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(1)
        .max(1);
    // The open loop issues regardless of completions: no depth bounds it.
    let depth = if open_period.is_some() { usize::MAX } else { config.pipeline };
    let resend_after = u64::try_from(config.retry_every.as_nanos()).unwrap_or(u64::MAX);
    let mut client = Client::new(config.reply_quorum, id, config.master_seed)
        .with_depth(depth)
        .resending_after(resend_after)
        .starting_at(Timestamp(first_timestamp));

    // The client's clock: nanoseconds since `start`.
    let start = Instant::now();
    let clock = || start.elapsed().as_nanos() as u64;
    let deadline = start + config.duration;
    let hard_stop = deadline + config.drain_timeout;
    // Open loop: this client covers every `period`, staggered so the
    // aggregate stream is evenly spaced, not `clients`-sized bursts.
    let mut next_issue =
        start + open_period.map_or(Duration::ZERO, |p| p.mul_f64(index as f64 / config.clients as f64));

    let mut stats = ClientStats {
        issued: 0,
        completed: 0,
        timed_out: 0,
        hist: LatencyHistogram::new(),
        windows: Windows::new(WINDOW),
        per_shard_completed: vec![0; config.shards.max(1) as usize],
    };

    loop {
        // Issue phase: everything due right now goes out in one
        // REQUESTS frame (client-side batching — the mirror of the
        // replicas' send-path batching), each request tagged with its
        // shard.
        let count = match open_period {
            None if Instant::now() < deadline => client.room(),
            None => 0,
            Some(period) => {
                let mut due = 0;
                while next_issue <= Instant::now() && Instant::now() < deadline {
                    due += 1;
                    next_issue += period;
                }
                due
            }
        };
        if count > 0 {
            let now = clock();
            let batch: Vec<_> = (0..count)
                .map(|offset| {
                    // Each request in the coalesced frame keeps its own
                    // workload sequence number (blockchain ops embed it
                    // to stay distinct).
                    let sequence = stats.issued + offset as u64;
                    let (op, shard) =
                        config.workload.next_op_sharded(&mut rng, sequence, config.shards);
                    client.issue_at(op, false, now, shard.0)
                })
                .collect();
            let primary = client.primary(config.addrs.len());
            tcp.send_to(primary, &batch).or_else(|_| tcp.send_all(&batch))?;
            stats.issued += count as u64;
        }

        let now = Instant::now();
        if client.in_flight() == 0 && now >= deadline {
            break;
        }
        // Past the drain window, or with every replica hung up, nothing
        // in flight will complete.
        if now >= hard_stop || tcp.connected() == 0 {
            stats.timed_out += client.in_flight() as u64;
            break;
        }

        // Read whatever replies are ready, feeding each to the client
        // (bounded so retransmission and open-loop scheduling stay
        // responsive). Replies beyond a quorum complete nothing.
        let mut wait = Duration::from_millis(20).min(hard_stop - now);
        if open_period.is_some() && now < deadline {
            wait = wait.min(next_issue.saturating_duration_since(now));
        }
        tcp.poll(wait.max(Duration::from_micros(200)), |reply| {
            if let Some(done) = client.complete(&reply) {
                let now = clock();
                let (latency, at) = (now - done.issued_at, now);
                stats.record(Duration::from_nanos(latency), Duration::from_nanos(at), done.tag);
            }
        });

        // Retransmit stragglers (at-most-once transport: loss recovery
        // is the client's job).
        let due = client.due(clock());
        if !due.is_empty() {
            let _ = tcp.send_all(&due);
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
    use splitbft_types::{ReplicaId, Reply, Request, View};

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

    #[test]
    fn out_of_range_rates_are_rejected_before_any_connection() {
        // Nothing listens on port 1: a connection attempt would fail
        // with another kind.
        let mut config = DriverConfig::new(vec!["127.0.0.1:1".parse().unwrap()], 1, 1);
        for rate in [f64::INFINITY, f64::NAN, 0.0, -5.0, 1e-300, 1e300] {
            config.mode = LoadMode::Open { rate };
            let err = run(&config).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{rate}: {err}");
        }
        config.mode = LoadMode::Closed;
        config.duration = Duration::MAX;
        assert_eq!(run(&config).unwrap_err().kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn open_loop_period_spans_a_microsecond_to_a_day() {
        assert_eq!(open_loop_period(200.0, 2), Ok(Duration::from_millis(10)));
        assert_eq!(open_loop_period(4e6, 4), Ok(Duration::from_micros(1)));
        assert_eq!(open_loop_period(1.0 / 86_400.0, 1), Ok(Duration::from_secs(86_400)));
        assert!(open_loop_period(2e6, 1).is_err(), "faster than once a microsecond");
        assert!(open_loop_period(1.0 / 86_401.0, 1).is_err(), "slower than once a day");
    }
}
