//! Hosting conformance battery.
//!
//! Both runtimes — the evented readiness-loop socket node and the
//! in-memory [`Cluster`] — must host a protocol identically: same
//! delivery and per-link ordering, same drop-self-send semantics, same
//! reply routing. Those cases run against both. The socket runtime
//! additionally has wire-level obligations the in-memory cluster cannot
//! express: frames split at arbitrary read boundaries reassemble, peer
//! links reconnect, one unread client cannot starve the rest, and
//! `FAULT_CONTROL` frames hang up the connection unless fault injection
//! was explicitly enabled.

use bytes::Bytes;
use splitbft_app::CounterApp;
use splitbft_net::lockstep::Cluster;
use splitbft_net::{EventedNode, NodeConfig, PeerAddr, TcpClient};
use splitbft_net::transport::{frame_kind, write_value, Protocol, ProtocolOutput};
use splitbft_pbft::{make_request, Replica as PbftReplica};
use splitbft_types::wire::{encode, frame, Decode, Encode, Reader, Sink, WireError};
use splitbft_types::{
    ClientId, ClusterConfig, FaultCommand, LinkRule, ReplicaId, Reply, Request, RequestId,
    Timestamp, View,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(30);

/// Per-replica log of `u64` peer-message payloads, shared with the test.
type SeenLog = Arc<Mutex<Vec<u64>>>;

/// Minimal hosted protocol: a client request's op is an LE `u64`; the
/// replica broadcasts that value to its peers and echoes the op back as
/// the reply. Received peer values are appended to a shared log, so a
/// test can assert exactly what arrived, in what order.
struct Probe {
    id: ReplicaId,
    seen: SeenLog,
}

fn echo_reply(id: ReplicaId, req: &Request) -> ProtocolOutput<u64> {
    ProtocolOutput::Reply {
        to: req.client(),
        reply: Reply {
            view: View(0),
            request: req.id,
            replica: id,
            result: req.op.clone(),
            encrypted: false,
            auth: [0; 32],
        },
    }
}

fn op_value(req: &Request) -> u64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(&req.op[..8]);
    u64::from_le_bytes(le)
}

impl Protocol for Probe {
    type Message = u64;

    fn on_message(&mut self, msg: u64) -> Vec<ProtocolOutput<u64>> {
        self.seen.lock().unwrap().push(msg);
        Vec::new()
    }

    fn on_client_requests(&mut self, requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
        let mut out = Vec::new();
        for req in &requests {
            out.push(ProtocolOutput::Broadcast(op_value(req)));
            out.push(echo_reply(self.id, req));
        }
        out
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> {
        Vec::new()
    }

    // Replies are produced synchronously, so nothing is ever pending and
    // the stall timer has nothing to accuse anyone of.
    fn has_pending_requests(&self) -> bool {
        false
    }
}

/// Like [`Probe`], but answers each request with two *addressed* sends:
/// the value to itself (which every backend must drop) and `value + 1`
/// to the next replica.
struct SelfSender {
    id: ReplicaId,
    n: u32,
    seen: SeenLog,
}

impl Protocol for SelfSender {
    type Message = u64;

    fn on_message(&mut self, msg: u64) -> Vec<ProtocolOutput<u64>> {
        self.seen.lock().unwrap().push(msg);
        Vec::new()
    }

    fn on_client_requests(&mut self, requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
        let mut out = Vec::new();
        for req in &requests {
            let value = op_value(req);
            out.push(ProtocolOutput::Send { to: self.id, msg: value });
            out.push(ProtocolOutput::Send {
                to: ReplicaId((self.id.0 + 1) % self.n),
                msg: value + 1,
            });
            out.push(echo_reply(self.id, req));
        }
        out
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> {
        Vec::new()
    }
}

fn request(client: u32, ts: u64, value: u64) -> Request {
    Request {
        id: RequestId { client: ClientId(client), timestamp: Timestamp(ts) },
        op: Bytes::copy_from_slice(&value.to_le_bytes()),
        encrypted: false,
        auth: [0; 32],
    }
}

/// Binds `n` listeners, collects the address book, starts one node per
/// replica. Returns the nodes and addresses in replica order.
fn spawn_cluster<P: Protocol>(
    n: usize,
    fault_injection: bool,
    make: impl Fn(ReplicaId) -> P,
) -> (Vec<EventedNode>, Vec<SocketAddr>) {
    let bound: Vec<_> = (0..n)
        .map(|i| {
            EventedNode::bind(ReplicaId(i as u32), "127.0.0.1:0".parse().unwrap())
                .expect("bind listener")
        })
        .collect();
    let peers: Vec<PeerAddr> = bound
        .iter()
        .map(|b| PeerAddr { id: b.id(), addr: b.local_addr().expect("bound addr") })
        .collect();
    let addrs: Vec<SocketAddr> = peers.iter().map(|p| p.addr).collect();
    let nodes = bound
        .into_iter()
        .map(|b| {
            let id = b.id();
            let mut config =
                NodeConfig::new(id, "127.0.0.1:0".parse().unwrap(), peers.clone());
            config.fault_injection = fault_injection;
            b.start(config, make(id)).expect("start node")
        })
        .collect();
    (nodes, addrs)
}

fn connect(client: u32, addrs: &[SocketAddr]) -> TcpClient {
    TcpClient::connect(ClientId(client), addrs, Duration::from_secs(10)).expect("connect")
}

/// Polls `check` until it passes or the deadline expires.
fn wait_for(what: &str, check: impl Fn() -> bool) {
    let deadline = Instant::now() + DEADLINE;
    while Instant::now() < deadline {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{what}: not observed before deadline");
}

// ------------------------------------------------------------------
// Both runtimes
// ------------------------------------------------------------------

const DELIVERY_N: usize = 4;
const DELIVERY_K: u64 = 60;

/// One log per replica, and the constructor handing each replica its own.
fn logged<P>(
    n: usize,
    make: impl Fn(ReplicaId, SeenLog) -> P,
) -> (Vec<SeenLog>, impl Fn(ReplicaId) -> P) {
    let logs: Vec<SeenLog> = (0..n).map(|_| SeenLog::default()).collect();
    let handed = logs.clone();
    (logs, move |id: ReplicaId| make(id, handed[id.0 as usize].clone()))
}

fn probes(n: usize) -> (Vec<SeenLog>, impl Fn(ReplicaId) -> Probe) {
    logged(n, |id, seen| Probe { id, seen })
}

fn assert_echo_from_replica_0(reply: &Reply, label: &str) {
    assert_eq!(reply.replica, ReplicaId(0), "{label}: reply from addressed replica");
    assert_eq!(
        reply.result.as_ref(),
        reply.request.timestamp.0.to_le_bytes(),
        "{label}: reply echoes the request op"
    );
}

/// What every replica's log must hold once replica 0 has broadcast
/// `1..=K`: all of them, in issue order (per-link FIFO), at every
/// *other* replica.
fn assert_broadcasts_in_issue_order(logs: &[SeenLog], label: &str) {
    let expected: Vec<u64> = (1..=DELIVERY_K).collect();
    for (i, log) in logs.iter().enumerate().skip(1) {
        assert_eq!(
            *log.lock().unwrap(),
            expected,
            "{label}: replica {i} must see the broadcasts in issue order"
        );
    }
    assert!(
        logs[0].lock().unwrap().is_empty(),
        "{label}: a broadcast must not loop back to its sender"
    );
}

/// A client's requests reach the addressed replica, its broadcasts reach
/// every *other* replica in issue order, and the echoed replies come
/// back to the issuing client.
#[test]
fn delivery_and_ordering_conform_on_evented() {
    let label = "evented";
    let (logs, make) = probes(DELIVERY_N);
    let (nodes, addrs) = spawn_cluster(DELIVERY_N, false, make);

    let mut client = connect(9, &addrs);
    for value in 1..=DELIVERY_K {
        client.send_to(0, &[request(9, value, value)]).expect("send");
    }
    let mut replies = 0u64;
    let reply_deadline = Instant::now() + DEADLINE;
    while replies < DELIVERY_K && Instant::now() < reply_deadline {
        if let Some(reply) = client.recv_timeout(Duration::from_millis(500)) {
            assert_echo_from_replica_0(&reply, label);
            replies += 1;
        }
    }
    assert_eq!(replies, DELIVERY_K, "{label}: every request must be answered");

    for (i, log) in logs.iter().enumerate().skip(1) {
        wait_for(&format!("{label}: replica {i} receives all broadcasts"), || {
            log.lock().unwrap().len() == DELIVERY_K as usize
        });
    }
    assert_broadcasts_in_issue_order(&logs, label);

    client.close();
    nodes.into_iter().for_each(EventedNode::shutdown);
}

#[test]
fn delivery_and_ordering_conform_on_lockstep() {
    let label = "lockstep";
    let (logs, make) = probes(DELIVERY_N);
    let mut cluster = Cluster::new((0..DELIVERY_N as u32).map(|i| make(ReplicaId(i))));

    for value in 1..=DELIVERY_K {
        cluster.submit(0, &[request(9, value, value)]);
    }
    // `submit` returned, so the cluster is quiet: nothing left to wait for.
    assert_eq!(cluster.replies.len() as u64, DELIVERY_K, "{label}: every request must be answered");
    cluster.replies.iter().for_each(|reply| assert_echo_from_replica_0(reply, label));
    assert_broadcasts_in_issue_order(&logs, label);
}

fn self_senders(n: usize) -> (Vec<SeenLog>, impl Fn(ReplicaId) -> SelfSender) {
    logged(n, move |id, seen| SelfSender { id, n: n as u32, seen })
}

/// A self-addressed `Send` is silently dropped — never delivered
/// locally, never a crash — while the sibling send still goes out.
#[test]
fn self_addressed_sends_are_dropped_on_evented() {
    let (logs, make) = self_senders(2);
    let (nodes, addrs) = spawn_cluster(2, false, make);

    let mut client = connect(9, &addrs);
    client.send_to(0, &[request(9, 1, 41)]).expect("send");
    client.recv_timeout(DEADLINE).expect("reply");

    wait_for("evented: peer receives the sibling send", || *logs[1].lock().unwrap() == vec![42]);
    // The self-send had strictly less distance to travel than the
    // sibling we just observed; give stragglers a moment, then assert
    // it never surfaced.
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        logs[0].lock().unwrap().is_empty(),
        "evented: self-addressed send must be dropped, got {:?}",
        logs[0].lock().unwrap()
    );

    client.close();
    nodes.into_iter().for_each(EventedNode::shutdown);
}

#[test]
fn self_addressed_sends_are_dropped_on_lockstep() {
    let (logs, make) = self_senders(2);
    let mut cluster = Cluster::new((0..2).map(|i| make(ReplicaId(i))));

    cluster.submit(0, &[request(9, 1, 41)]);
    assert_eq!(cluster.replies.len(), 1);
    assert_eq!(*logs[1].lock().unwrap(), vec![42], "lockstep: peer receives the sibling send");
    // No straggler to wait out: the cluster is quiet, so a self-send
    // that was going to surface already has.
    assert!(
        logs[0].lock().unwrap().is_empty(),
        "lockstep: self-addressed send must be dropped, got {:?}",
        logs[0].lock().unwrap()
    );
}

// ------------------------------------------------------------------
// Lockstep cluster only
// ------------------------------------------------------------------

/// Counts the `STATE_REQUEST` frames `cluster` delivers from now on.
fn count_state_requests<P: Protocol>(cluster: &mut Cluster<P>) -> Arc<Mutex<usize>> {
    let count = Arc::new(Mutex::new(0));
    cluster.observe({
        let count = Arc::clone(&count);
        move |frame| {
            *count.lock().unwrap() += usize::from(frame.kind == frame_kind::STATE_REQUEST);
            true
        }
    });
    count
}

#[test]
fn delayed_frames_wait_for_the_virtual_clock_and_undelayed_ones_overtake() {
    let (logs, make) = probes(2);
    let mut cluster = Cluster::new((0..2).map(|i| make(ReplicaId(i))));
    cluster.faults.apply(FaultCommand::SetRule(LinkRule {
        delay_ms: 400,
        ..LinkRule::clean(ReplicaId(0), ReplicaId(1))
    }));
    let burst: Vec<Request> = (0..20).map(|value| request(9, value, value)).collect();
    cluster.submit(0, &burst);
    assert_eq!(cluster.replies.len(), 20);
    cluster.advance(Duration::from_millis(399));
    assert!(logs[1].lock().unwrap().is_empty(), "held until the clock says 400 ms");

    cluster.faults.apply(FaultCommand::ClearRules);
    cluster.submit(0, &[request(9, 99, 99)]);
    assert_eq!(*logs[1].lock().unwrap(), vec![99], "an undelayed frame overtakes the held burst");
    cluster.advance(Duration::from_millis(1));
    let mut expected = vec![99];
    expected.extend(0..20);
    assert_eq!(*logs[1].lock().unwrap(), expected, "held frames release in order");
}

#[test]
fn staged_calls_and_held_replicas_deliver_on_the_next_run() {
    let (logs, make) = probes(3);
    let seen = |i: usize| logs[i].lock().unwrap().clone();
    let mut cluster = Cluster::new((0..3).map(|i| make(ReplicaId(i))));
    cluster.drive(0, |_| vec![ProtocolOutput::Broadcast(1)]);
    cluster.drive(0, |_| vec![ProtocolOutput::Send { to: ReplicaId(2), msg: 2 }]);
    assert!(seen(1).is_empty() && seen(2).is_empty());

    cluster.hold(2);
    cluster.run();
    assert_eq!(seen(1), vec![1]);
    assert!(seen(2).is_empty(), "held: its inbox only fills");
    cluster.release(2);
    cluster.run();
    assert_eq!(seen(2), vec![1, 2]);
}

#[test]
fn a_crashed_replica_loses_its_frames_and_restarts_asking_its_peers() {
    let (logs, make) = probes(3);
    let seen = |i: usize| logs[i].lock().unwrap().clone();
    let mut cluster = Cluster::new((0..3).map(|i| make(ReplicaId(i))));
    cluster.hold(1);
    cluster.submit(0, &[request(9, 1, 1)]);
    cluster.crash(1);
    cluster.submit(0, &[request(9, 2, 2)]);
    assert!(seen(1).is_empty());
    assert_eq!(seen(2), vec![1, 2]);

    let asked = count_state_requests(&mut cluster);
    cluster.restart(1, make(ReplicaId(1)));
    cluster.submit(0, &[request(9, 3, 3)]);
    assert_eq!(seen(1), vec![3], "what it missed is gone; it is back on the links");
    assert_eq!(*asked.lock().unwrap(), 2, "one startup round, one frame per peer");
}

/// The retry guard of the state-transfer client, on the cluster's clock:
/// a recovering node that never makes progress, ticking every 50 ms
/// against peers with nothing to offer. Without the guard every tick
/// re-broadcast a `STATE_REQUEST`; with it the startup round stays alone
/// in flight for 1.5 s of virtual time, and exactly one more goes out on
/// the first tick after.
#[test]
fn state_transfer_requests_are_rate_limited_by_the_inflight_guard() {
    let (_logs, make) = probes(2);
    let mut cluster = Cluster::new((0..2).map(|i| make(ReplicaId(i))));
    let asked = count_state_requests(&mut cluster);
    cluster.restart(1, make(ReplicaId(1)));
    let mut tick_50ms_later = || {
        cluster.advance(Duration::from_millis(50));
        cluster.tick();
        *asked.lock().unwrap()
    };
    for _ in 0..28 {
        tick_50ms_later();
    }
    assert_eq!(tick_50ms_later(), 1, "1450 ms: the startup round is still the only one");
    assert_eq!(tick_50ms_later(), 2, "1500 ms: the retry goes out");
    assert_eq!(tick_50ms_later(), 2, "and opens a guard of its own");
}

#[test]
fn deliver_hands_over_exactly_the_chosen_frame_and_keeps_the_rest_in_order() {
    let (logs, make) = probes(2);
    let seen = || logs[1].lock().unwrap().clone();
    let mut cluster = Cluster::new((0..2).map(|i| make(ReplicaId(i))));
    for value in [1, 2, 3] {
        cluster.drive(0, |_| vec![ProtocolOutput::Broadcast(value)]);
    }
    assert_eq!(cluster.waiting(1), 3);

    cluster.deliver(1, 1);
    assert_eq!(seen(), vec![2], "the second waiting frame, alone");
    assert_eq!(cluster.waiting(1), 2);
    cluster.run();
    assert_eq!(seen(), vec![2, 1, 3], "the rest, in arrival order");
}

/// A `u64` that encodes whatever it holds and decodes only when even:
/// an odd one is a `PROTOCOL` frame of garbage to whoever receives it.
#[derive(Debug, Clone)]
struct Even(u64);

impl Encode for Even {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.0.encode_to(out);
    }
}

impl Decode for Even {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u64::decode(r)? {
            even if even % 2 == 0 => Ok(Even(even)),
            _ => Err(WireError::InvalidBool(1)),
        }
    }
}

/// Logs the values its peers send it.
struct Listener(SeenLog);

impl Protocol for Listener {
    type Message = Even;

    fn on_message(&mut self, msg: Even) -> Vec<ProtocolOutput<Even>> {
        self.0.lock().unwrap().push(msg.0);
        Vec::new()
    }

    fn on_client_requests(&mut self, _requests: Vec<Request>) -> Vec<ProtocolOutput<Even>> {
        Vec::new()
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<Even>> {
        Vec::new()
    }
}

#[test]
fn injected_frames_arrive_in_a_crashed_replicas_name_and_garbage_is_skipped() {
    let (logs, make) = logged(2, |_, seen| Listener(seen));
    let seen = || logs[1].lock().unwrap().clone();
    let mut cluster = Cluster::new((0..2).map(|i| make(ReplicaId(i))));
    let from = Arc::new(Mutex::new(Vec::new()));
    cluster.observe({
        let from = Arc::clone(&from);
        move |frame| {
            from.lock().unwrap().push(frame.from);
            true
        }
    });
    cluster.crash(0);

    // `run` skips the undecodable frame and handles the one behind it…
    cluster.inject(0, 1, &Even(7));
    cluster.inject(0, 1, &Even(8));
    cluster.run();
    assert_eq!(seen(), vec![8]);
    // …and `deliver`, handed the undecodable one, handles nothing.
    cluster.inject(0, 1, &Even(9));
    cluster.inject(0, 1, &Even(10));
    cluster.deliver(1, 0);
    assert_eq!((seen(), cluster.waiting(1)), (vec![8], 1));
    cluster.deliver(1, 0);
    assert_eq!(seen(), vec![8, 10]);
    assert_eq!(*from.lock().unwrap(), vec![ReplicaId(0); 4], "all four as peer frames from replica 0");

    cluster.inject(1, 0, &Even(2));
    assert_eq!(cluster.waiting(0), 0, "a crashed replica's inbox stays empty");
}

/// `deliver` is `run`'s own frame path: a PBFT cluster scheduled only by
/// `deliver(i, 0)`, round-robin, ends where `run` ends.
#[test]
fn round_robin_delivery_of_first_frames_ends_where_run_does() {
    let config = ClusterConfig::new(4).unwrap();
    let cluster = || {
        Cluster::new(config.replicas().map(|id| PbftReplica::new(config.clone(), id, 5, CounterApp::new())))
    };
    let incs: Vec<Request> = (1..=5)
        .map(|ts| make_request(5, ClientId(0), Timestamp(ts), Bytes::from_static(b"inc")))
        .collect();

    let mut ran = cluster();
    let mut stepped = cluster();
    for inc in incs {
        ran.submit(0, std::slice::from_ref(&inc));
        stepped.drive(0, |p| p.on_client_requests(vec![inc]));
        while (0..4).any(|i| stepped.waiting(i) > 0) {
            for i in (0..4).filter(|&i| stepped.waiting(i) > 0).collect::<Vec<_>>() {
                stepped.deliver(i, 0);
            }
        }
    }
    for (a, b) in (0..4).map(|i| (ran.replica(i), stepped.replica(i))) {
        assert_eq!(b.app().value(), 5);
        assert_eq!((a.progress(), a.state_digest()), (b.progress(), b.state_digest()));
    }
    assert_eq!(ran.replies.len(), stepped.replies.len());
}

// ------------------------------------------------------------------
// Socket runtime only
// ------------------------------------------------------------------

/// A peer that was unreachable when the first send went out is reached
/// once it comes up: the link retries the connection instead of
/// poisoning the link forever. (Frames sent while the peer was down may
/// be dropped — delivery is at-most-once — but later frames must flow.)
#[test]
fn peer_links_reconnect() {
    // Reserve a port for replica 1, then release it so replica 0's
    // first connection attempt is refused.
    let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
    let late_addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    let bound0 = EventedNode::bind(ReplicaId(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let addr0 = bound0.local_addr().unwrap();
    let peers = vec![
        PeerAddr { id: ReplicaId(0), addr: addr0 },
        PeerAddr { id: ReplicaId(1), addr: late_addr },
    ];
    let logs: Vec<SeenLog> = (0..2).map(|_| SeenLog::default()).collect();
    let config0 = NodeConfig::new(ReplicaId(0), addr0, peers.clone());
    let node0 = bound0.start(config0, Probe { id: ReplicaId(0), seen: logs[0].clone() }).unwrap();

    let mut client = connect(9, &[addr0]);
    // Broadcast into the void: replica 1 does not exist yet.
    client.send_to(0, &[request(9, 1, 1)]).expect("send");
    client.recv_timeout(DEADLINE).expect("reply while peer is down");
    std::thread::sleep(Duration::from_millis(100));

    // Now replica 1 appears at its published address…
    let bound1 = EventedNode::bind(ReplicaId(1), late_addr).expect("rebind the reserved port");
    let config1 = NodeConfig::new(ReplicaId(1), late_addr, peers);
    let node1 = bound1.start(config1, Probe { id: ReplicaId(1), seen: logs[1].clone() }).unwrap();

    // …and a later broadcast must reach it.
    client.send_to(0, &[request(9, 2, 2)]).expect("send");
    wait_for("restarted peer receives post-restart broadcast", || {
        logs[1].lock().unwrap().contains(&2)
    });

    client.close();
    node0.shutdown();
    node1.shutdown();
}

/// Raw wire check: frames delivered one to three bytes at a time — the
/// header itself split mid-magic, the payload split mid-integer —
/// reassemble into exactly the sent messages, in order.
#[test]
fn partial_frame_reads_reassemble() {
    let (logs, make) = probes(2);
    let (nodes, addrs) = spawn_cluster(2, false, make);

    // Pose as replica 1 and deliver three protocol messages to replica
    // 0 in a single byte stream, written in 1/2/3-byte slivers.
    let mut wire = frame(frame_kind::PEER_HELLO, &encode(&ReplicaId(1)));
    for value in [11u64, 12, 13] {
        wire.extend_from_slice(&frame(frame_kind::PROTOCOL, &encode(&value)));
    }
    let mut stream = TcpStream::connect(addrs[0]).expect("connect raw");
    stream.set_nodelay(true).unwrap();
    let mut pos = 0usize;
    let mut step = 1usize;
    while pos < wire.len() {
        let end = (pos + step).min(wire.len());
        stream.write_all(&wire[pos..end]).expect("sliver write");
        stream.flush().unwrap();
        pos = end;
        step = step % 3 + 1; // 1, 2, 3, 1, 2, …
        std::thread::sleep(Duration::from_millis(1));
    }

    wait_for("split frames reassemble", || {
        *logs[0].lock().unwrap() == vec![11, 12, 13]
    });

    drop(stream);
    nodes.into_iter().for_each(EventedNode::shutdown);
}

/// One client that never reads its replies must not stall the node:
/// replies to it are eventually dropped (bounded queue / ring), while a
/// responsive client keeps completing requests.
#[test]
fn slow_clients_do_not_starve_responsive_ones() {
    let (_logs, make) = probes(2);
    let (nodes, addrs) = spawn_cluster(2, false, make);

    // The slow client: connects raw, pours in requests with 32 KiB ops
    // (each echoed straight back), and never reads a byte.
    let mut slow = TcpStream::connect(addrs[0]).expect("connect slow");
    write_value(&mut slow, frame_kind::CLIENT_HELLO, &ClientId(7)).unwrap();
    let big_op = vec![0xabu8; 32 * 1024];
    for ts in 0..512u64 {
        let req = Request {
            id: RequestId { client: ClientId(7), timestamp: Timestamp(ts) },
            op: Bytes::copy_from_slice(&big_op),
            encrypted: false,
            auth: [0; 32],
        };
        write_value(&mut slow, frame_kind::REQUESTS, &vec![req]).expect("slow write");
    }

    // The responsive client must still complete a full round of
    // requests while the slow one's replies back up.
    let mut client = connect(8, &addrs);
    for ts in 1..=20u64 {
        client.send_to(0, &[request(8, ts, ts)]).expect("send");
        let reply = client.recv_timeout(DEADLINE).expect("responsive reply");
        assert_eq!(reply.request.timestamp, Timestamp(ts), "in-order completion");
    }

    // Unblock any writer stuck on the slow client before joining the
    // node's threads.
    drop(slow);
    client.close();
    nodes.into_iter().for_each(EventedNode::shutdown);
}

/// `FAULT_CONTROL` frames are a test-harness backdoor: a node serving
/// with fault injection disabled (the default) must hang up on them; a
/// node serving with it enabled consumes them and keeps the connection.
#[test]
fn fault_control_is_gated() {
    for enabled in [false, true] {
        let (logs, make) = probes(2);
        let (nodes, addrs) = spawn_cluster(2, enabled, make);

        let mut stream = TcpStream::connect(addrs[0]).expect("connect raw");
        stream.set_nodelay(true).unwrap();
        write_value(&mut stream, frame_kind::CLIENT_HELLO, &ClientId(6)).unwrap();
        write_value(&mut stream, frame_kind::FAULT_CONTROL, &FaultCommand::HealAll).unwrap();
        if enabled {
            // The frame is consumed and the connection lives on: a
            // request on the same stream still gets its echo handled
            // (observed via the broadcast to the peer replica).
            write_value(&mut stream, frame_kind::REQUESTS, &vec![request(6, 1, 99)]).unwrap();
            wait_for("connection survives enabled FAULT_CONTROL", || {
                logs[1].lock().unwrap().contains(&99)
            });
        } else {
            stream.set_read_timeout(Some(DEADLINE)).unwrap();
            let mut buf = [0u8; 1];
            assert_eq!(
                stream.read(&mut buf).unwrap_or(0),
                0,
                "node must hang up on FAULT_CONTROL when injection is disabled"
            );
        }

        drop(stream);
        nodes.into_iter().for_each(EventedNode::shutdown);
    }
}
