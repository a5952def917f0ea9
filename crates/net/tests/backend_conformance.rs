//! Transport-backend conformance battery.
//!
//! Every [`TransportBackend`] — the in-process bus and the evented
//! readiness-loop socket runtime — must host a protocol identically:
//! same delivery and per-link ordering, same drop-self-send semantics,
//! same client reply routing. The socket backend additionally has
//! wire-level obligations the bus cannot express: frames split at
//! arbitrary read boundaries reassemble, peer links reconnect, one
//! unread client cannot starve the rest, and `FAULT_CONTROL` frames
//! hang up the connection unless fault injection was explicitly
//! enabled.
//!
//! Each battery case is one generic function; the `#[test]`s below
//! instantiate it per backend so a failure names the offender.

use bytes::Bytes;
use splitbft_net::backend::{
    EventedBackend, InProcessBackend, RunningNode, TransportBackend, TransportClient,
};
use splitbft_net::{NodeConfig, PeerAddr};
use splitbft_net::transport::{frame_kind, write_value, Protocol, ProtocolOutput};
use splitbft_types::wire::{encode, frame};
use splitbft_types::{
    ClientId, FaultCommand, ReplicaId, Reply, Request, RequestId, Timestamp, View,
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
fn spawn_cluster<B: TransportBackend, P: Protocol>(
    backend: &B,
    n: usize,
    fault_injection: bool,
    make: impl Fn(ReplicaId) -> P,
) -> (Vec<B::Node>, Vec<SocketAddr>) {
    let bound: Vec<B::Bound> = (0..n)
        .map(|i| {
            backend
                .bind(ReplicaId(i as u32), "127.0.0.1:0".parse().unwrap())
                .expect("bind listener")
        })
        .collect();
    let peers: Vec<PeerAddr> = bound
        .iter()
        .enumerate()
        .map(|(i, b)| PeerAddr {
            id: ReplicaId(i as u32),
            addr: backend.local_addr(b).expect("bound addr"),
        })
        .collect();
    let addrs: Vec<SocketAddr> = peers.iter().map(|p| p.addr).collect();
    let nodes: Vec<B::Node> = bound
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            let id = ReplicaId(i as u32);
            let mut config =
                NodeConfig::new(id, "127.0.0.1:0".parse().unwrap(), peers.clone());
            config.fault_injection = fault_injection;
            backend.start(b, config, make(id)).expect("start node")
        })
        .collect();
    (nodes, addrs)
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
// Both backends
// ------------------------------------------------------------------

/// A client's requests reach the addressed replica, its broadcasts reach
/// every *other* replica in issue order (per-link FIFO), and the echoed
/// replies come back to the issuing client.
fn delivery_and_ordering<B: TransportBackend>(backend: &B, label: &str) {
    const N: usize = 4;
    const K: u64 = 60;
    let logs: Vec<SeenLog> = (0..N).map(|_| SeenLog::default()).collect();
    let (nodes, addrs) = spawn_cluster(backend, N, false, |id| Probe {
        id,
        seen: logs[id.0 as usize].clone(),
    });

    let mut client =
        backend.connect_client(ClientId(9), &addrs, Duration::from_secs(10)).expect("connect");
    for value in 1..=K {
        client.send_to(0, &[request(9, value, value)]).expect("send");
    }
    let mut replies = 0u64;
    let reply_deadline = Instant::now() + DEADLINE;
    while replies < K && Instant::now() < reply_deadline {
        if let Ok(reply) = client.replies().recv_timeout(Duration::from_millis(500)) {
            assert_eq!(reply.replica, ReplicaId(0), "{label}: reply from addressed replica");
            assert_eq!(
                reply.result.as_ref(),
                reply.request.timestamp.0.to_le_bytes(),
                "{label}: reply echoes the request op"
            );
            replies += 1;
        }
    }
    assert_eq!(replies, K, "{label}: every request must be answered");

    let expected: Vec<u64> = (1..=K).collect();
    for (i, log) in logs.iter().enumerate().skip(1) {
        wait_for(&format!("{label}: replica {i} receives all broadcasts"), || {
            log.lock().unwrap().len() == K as usize
        });
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

    client.close();
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn delivery_and_ordering_conform_on_every_backend() {
    delivery_and_ordering(&EventedBackend, "evented");
    delivery_and_ordering(&InProcessBackend::new(), "in-process");
}

/// A self-addressed `Send` is silently dropped — never delivered
/// locally, never a crash — while the sibling send still goes out.
fn drop_self_send<B: TransportBackend>(backend: &B, label: &str) {
    const N: usize = 2;
    let logs: Vec<SeenLog> = (0..N).map(|_| SeenLog::default()).collect();
    let (nodes, addrs) = spawn_cluster(backend, N, false, |id| SelfSender {
        id,
        n: N as u32,
        seen: logs[id.0 as usize].clone(),
    });

    let mut client =
        backend.connect_client(ClientId(9), &addrs, Duration::from_secs(10)).expect("connect");
    client.send_to(0, &[request(9, 1, 41)]).expect("send");
    client.replies().recv_timeout(DEADLINE).expect("reply");

    wait_for(&format!("{label}: peer receives the sibling send"), || {
        *logs[1].lock().unwrap() == vec![42]
    });
    // The self-send had strictly less distance to travel than the
    // sibling we just observed; give stragglers a moment, then assert
    // it never surfaced.
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        logs[0].lock().unwrap().is_empty(),
        "{label}: self-addressed send must be dropped, got {:?}",
        logs[0].lock().unwrap()
    );

    client.close();
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn self_addressed_sends_are_dropped_on_every_backend() {
    drop_self_send(&EventedBackend, "evented");
    drop_self_send(&InProcessBackend::new(), "in-process");
}

// ------------------------------------------------------------------
// Socket backend only
// ------------------------------------------------------------------

/// A peer that was unreachable when the first send went out is reached
/// once it comes up: the link retries the connection instead of
/// poisoning the link forever. (Frames sent while the peer was down may
/// be dropped — delivery is at-most-once — but later frames must flow.)
fn peer_reconnect<B: TransportBackend>(backend: &B, label: &str) {
    // Reserve a port for replica 1, then release it so replica 0's
    // first connection attempt is refused.
    let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
    let late_addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    let bound0 = backend.bind(ReplicaId(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let addr0 = backend.local_addr(&bound0).unwrap();
    let peers = vec![
        PeerAddr { id: ReplicaId(0), addr: addr0 },
        PeerAddr { id: ReplicaId(1), addr: late_addr },
    ];
    let logs: Vec<SeenLog> = (0..2).map(|_| SeenLog::default()).collect();
    let config0 = NodeConfig::new(ReplicaId(0), addr0, peers.clone());
    let node0 = backend
        .start(bound0, config0, Probe { id: ReplicaId(0), seen: logs[0].clone() })
        .unwrap();

    let mut client =
        backend.connect_client(ClientId(9), &[addr0], Duration::from_secs(10)).expect("connect");
    // Broadcast into the void: replica 1 does not exist yet.
    client.send_to(0, &[request(9, 1, 1)]).expect("send");
    client.replies().recv_timeout(DEADLINE).expect("reply while peer is down");
    std::thread::sleep(Duration::from_millis(100));

    // Now replica 1 appears at its published address…
    let bound1 = backend.bind(ReplicaId(1), late_addr).expect("rebind the reserved port");
    let config1 = NodeConfig::new(ReplicaId(1), late_addr, peers);
    let node1 = backend
        .start(bound1, config1, Probe { id: ReplicaId(1), seen: logs[1].clone() })
        .unwrap();

    // …and a later broadcast must reach it.
    client.send_to(0, &[request(9, 2, 2)]).expect("send");
    wait_for(&format!("{label}: restarted peer receives post-restart broadcast"), || {
        logs[1].lock().unwrap().contains(&2)
    });

    client.close();
    node0.shutdown();
    node1.shutdown();
}

#[test]
fn peer_links_reconnect_on_the_socket_backend() {
    peer_reconnect(&EventedBackend, "evented");
}

/// Raw wire check: frames delivered one to three bytes at a time — the
/// header itself split mid-magic, the payload split mid-integer —
/// reassemble into exactly the sent messages, in order.
fn partial_frame_reads<B: TransportBackend>(backend: &B, label: &str) {
    let logs: Vec<SeenLog> = (0..2).map(|_| SeenLog::default()).collect();
    let (nodes, addrs) = spawn_cluster(backend, 2, false, |id| Probe {
        id,
        seen: logs[id.0 as usize].clone(),
    });

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

    wait_for(&format!("{label}: split frames reassemble"), || {
        *logs[0].lock().unwrap() == vec![11, 12, 13]
    });

    drop(stream);
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn partial_frame_reads_reassemble_on_the_socket_backend() {
    partial_frame_reads(&EventedBackend, "evented");
}

/// One client that never reads its replies must not stall the node:
/// replies to it are eventually dropped (bounded queue / ring), while a
/// responsive client keeps completing requests.
fn slow_client_non_starvation<B: TransportBackend>(backend: &B, label: &str) {
    let logs: Vec<SeenLog> = (0..2).map(|_| SeenLog::default()).collect();
    let (nodes, addrs) = spawn_cluster(backend, 2, false, |id| Probe {
        id,
        seen: logs[id.0 as usize].clone(),
    });

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
    let mut client =
        backend.connect_client(ClientId(8), &addrs, Duration::from_secs(10)).expect("connect");
    for ts in 1..=20u64 {
        client.send_to(0, &[request(8, ts, ts)]).expect("send");
        let reply = client.replies().recv_timeout(DEADLINE).expect("responsive reply");
        assert_eq!(reply.request.timestamp, Timestamp(ts), "{label}: in-order completion");
    }

    // Unblock any writer stuck on the slow client before joining the
    // node's threads.
    drop(slow);
    client.close();
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn slow_clients_do_not_starve_responsive_ones_on_the_socket_backend() {
    slow_client_non_starvation(&EventedBackend, "evented");
}

/// `FAULT_CONTROL` frames are a chaos-harness backdoor: a node serving
/// with fault injection disabled (the default) must hang up on them; a
/// node serving with it enabled consumes them and keeps the connection.
fn fault_control_gating<B: TransportBackend>(backend: &B, label: &str) {
    for enabled in [false, true] {
        let logs: Vec<SeenLog> = (0..2).map(|_| SeenLog::default()).collect();
        let (nodes, addrs) = spawn_cluster(backend, 2, enabled, |id| Probe {
            id,
            seen: logs[id.0 as usize].clone(),
        });

        let mut stream = TcpStream::connect(addrs[0]).expect("connect raw");
        stream.set_nodelay(true).unwrap();
        write_value(&mut stream, frame_kind::CLIENT_HELLO, &ClientId(6)).unwrap();
        write_value(&mut stream, frame_kind::FAULT_CONTROL, &FaultCommand::HealAll).unwrap();
        if enabled {
            // The frame is consumed and the connection lives on: a
            // request on the same stream still gets its echo handled
            // (observed via the broadcast to the peer replica).
            write_value(&mut stream, frame_kind::REQUESTS, &vec![request(6, 1, 99)]).unwrap();
            wait_for(&format!("{label}: connection survives enabled FAULT_CONTROL"), || {
                logs[1].lock().unwrap().contains(&99)
            });
        } else {
            stream.set_read_timeout(Some(DEADLINE)).unwrap();
            let mut buf = [0u8; 1];
            assert_eq!(
                stream.read(&mut buf).unwrap_or(0),
                0,
                "{label}: node must hang up on FAULT_CONTROL when injection is disabled"
            );
        }

        drop(stream);
        for node in nodes {
            node.shutdown();
        }
    }
}

#[test]
fn fault_control_is_gated_on_the_socket_backend() {
    fault_control_gating(&EventedBackend, "evented");
}
