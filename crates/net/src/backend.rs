//! Pluggable transport backends behind one trait.
//!
//! Every runtime in this crate hosts the same sans-I/O
//! [`Protocol`] core; what varies is how bytes move. This module names
//! that variation point: a [`TransportBackend`] binds listeners, starts
//! nodes, and connects clients, while [`RunningNode`] /
//! [`TransportClient`] give the started pieces a uniform surface so a
//! test can run the same scenario against sockets and against a fake.
//!
//! Two backends ship:
//!
//! - [`EventedBackend`] — the deployable socket runtime
//!   ([`crate::evented::EventedNode`]): one readiness loop per node;
//! - [`InProcessBackend`] — a channel bus for tests: no sockets, but
//!   messages still travel as *framed bytes* through the real frame
//!   parser, so the conformance suite exercises the identical decode
//!   path the socket backend uses.

use crate::evented::{BoundEventedNode, EventedNode};
use crate::fault::{FaultDecision, FaultPlan};
use crate::client::TcpClient;
use crate::host::{ClientSink, Event, Host, NodeConfig, PeerSink, MAX_DRAIN_BATCH};
use crate::transport::{frame_kind, Protocol};
use splitbft_obs::NodeTelemetry;
use splitbft_types::wire::parse_frame;
use splitbft_types::{
    ClientId, FaultCommand, ReplicaId, Reply, Request, StateTransferRequest,
    StateTransferResponse,
};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A factory for one transport flavor. All backends speak the same
/// frame vocabulary over whatever medium they use.
pub trait TransportBackend {
    /// A reserved-but-idle listener (its address is already resolved).
    type Bound: Send;
    /// A started replica node.
    type Node: RunningNode;
    /// A connected client endpoint.
    type Client: TransportClient;

    /// Reserves a listener for replica `id` at `listen` (port 0 picks a
    /// free port) without starting anything — so a whole cluster's
    /// address book can be collected before the first node runs.
    fn bind(&self, id: ReplicaId, listen: SocketAddr) -> io::Result<Self::Bound>;

    /// The resolved address of a bound listener.
    fn local_addr(&self, bound: &Self::Bound) -> io::Result<SocketAddr>;

    /// Starts the node around `protocol`. `config.listen` is ignored —
    /// the bound listener already fixed the address.
    fn start<P: Protocol>(
        &self,
        bound: Self::Bound,
        config: NodeConfig,
        protocol: P,
    ) -> io::Result<Self::Node>;

    /// Connects a client to the replicas at `addrs` (index in `addrs` =
    /// replica index for [`TransportClient::send_to`]).
    fn connect_client(
        &self,
        id: ClientId,
        addrs: &[SocketAddr],
        timeout: Duration,
    ) -> io::Result<Self::Client>;
}

/// A started replica node, as far as a backend-generic caller needs it.
pub trait RunningNode: Send {
    /// Stops the node and joins its threads.
    fn shutdown(self);
}

/// The uniform client endpoint: submit request batches, stream replies.
pub trait TransportClient: Send {
    /// Sends a request batch to one replica by address-book index.
    ///
    /// # Errors
    ///
    /// When that replica is unreachable.
    fn send_to(&mut self, replica_index: usize, requests: &[Request]) -> io::Result<()>;

    /// The stream of replies from all replicas.
    fn replies(&self) -> &Receiver<Reply>;

    /// Tears the connection down.
    fn close(self);
}

// --- evented ----------------------------------------------------------------

/// The socket backend: nonblocking readiness-loop nodes
/// ([`crate::evented::EventedNode`]) and [`TcpClient`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventedBackend;

impl TransportBackend for EventedBackend {
    type Bound = BoundEventedNode;
    type Node = EventedNode;
    type Client = TcpClient;

    fn bind(&self, id: ReplicaId, listen: SocketAddr) -> io::Result<BoundEventedNode> {
        EventedNode::bind(id, listen)
    }

    fn local_addr(&self, bound: &BoundEventedNode) -> io::Result<SocketAddr> {
        bound.local_addr()
    }

    fn start<P: Protocol>(
        &self,
        bound: BoundEventedNode,
        config: NodeConfig,
        protocol: P,
    ) -> io::Result<EventedNode> {
        bound.start(config, protocol)
    }

    fn connect_client(
        &self,
        id: ClientId,
        addrs: &[SocketAddr],
        timeout: Duration,
    ) -> io::Result<TcpClient> {
        TcpClient::connect(id, addrs, timeout)
    }
}

impl RunningNode for EventedNode {
    fn shutdown(self) {
        EventedNode::shutdown(self)
    }
}

impl TransportClient for TcpClient {
    fn send_to(&mut self, replica_index: usize, requests: &[Request]) -> io::Result<()> {
        TcpClient::send_to(self, replica_index, requests)
    }
    fn replies(&self) -> &Receiver<Reply> {
        TcpClient::replies(self)
    }
    fn close(self) {
        TcpClient::close(self)
    }
}

// --- in-process -------------------------------------------------------------

/// Who put a message on the bus. This substitutes for the socket
/// backends' hello handshake: the origin is attached by construction,
/// so identity pinning (state-transfer frames must come from the peer
/// they claim) checks against it directly.
#[derive(Debug, Clone)]
enum BusOrigin {
    /// Another replica.
    Peer(ReplicaId),
    /// A client, carrying the channel its replies go back on.
    Client(ClientId, Sender<Reply>),
}

/// One bus delivery: framed bytes from one origin, or the stop signal.
#[derive(Debug)]
enum BusMsg {
    /// Framed bytes — complete frames, parsed by the receiving node
    /// through the same [`parse_frame`] path the socket backend uses.
    Frames(BusOrigin, Arc<Vec<u8>>),
    /// Stop the node's loop.
    Shutdown,
}

type BusMap = Mutex<HashMap<SocketAddr, Sender<BusMsg>>>;

/// A socket-free backend for tests: every "address" is an entry in a
/// shared channel table and every message still travels as framed
/// bytes. Clone the backend to share one bus; distinct instances are
/// fully isolated clusters.
#[derive(Debug, Clone, Default)]
pub struct InProcessBackend {
    bus: Arc<BusMap>,
    next_port: Arc<AtomicU16>,
}

impl InProcessBackend {
    /// A fresh, empty bus.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A reserved in-process "listener": a registered bus slot plus the
/// receiving end of its channel.
#[derive(Debug)]
pub struct BoundInProcessNode {
    id: ReplicaId,
    addr: SocketAddr,
    bus: Arc<BusMap>,
    tx: Sender<BusMsg>,
    rx: Receiver<BusMsg>,
}

/// A running in-process replica node.
#[derive(Debug)]
pub struct InProcessNode {
    tx: Sender<BusMsg>,
    thread: Option<JoinHandle<()>>,
}

/// A client endpoint on the in-process bus.
#[derive(Debug)]
pub struct InProcessClient {
    id: ClientId,
    nodes: Vec<Option<Sender<BusMsg>>>,
    reply_tx: Sender<Reply>,
    replies: Receiver<Reply>,
}

impl TransportBackend for InProcessBackend {
    type Bound = BoundInProcessNode;
    type Node = InProcessNode;
    type Client = InProcessClient;

    fn bind(&self, id: ReplicaId, listen: SocketAddr) -> io::Result<BoundInProcessNode> {
        let addr = if listen.port() != 0 {
            listen
        } else {
            // Synthetic port allocation: unique within this bus, never
            // an actual socket.
            let port = 1 + self.next_port.fetch_add(1, Ordering::Relaxed);
            SocketAddr::new(listen.ip(), port)
        };
        let (tx, rx) = channel();
        self.bus.lock().expect("bus").insert(addr, tx.clone());
        Ok(BoundInProcessNode { id, addr, bus: Arc::clone(&self.bus), tx, rx })
    }

    fn local_addr(&self, bound: &BoundInProcessNode) -> io::Result<SocketAddr> {
        Ok(bound.addr)
    }

    fn start<P: Protocol>(
        &self,
        bound: BoundInProcessNode,
        config: NodeConfig,
        protocol: P,
    ) -> io::Result<InProcessNode> {
        let BoundInProcessNode { id, bus, tx, rx, .. } = bound;
        let thread = std::thread::Builder::new()
            .name(format!("node-{}-inproc", id.0))
            .spawn(move || bus_loop(rx, bus, config, protocol))
            .map_err(io::Error::other)?;
        Ok(InProcessNode { tx, thread: Some(thread) })
    }

    fn connect_client(
        &self,
        id: ClientId,
        addrs: &[SocketAddr],
        _timeout: Duration,
    ) -> io::Result<InProcessClient> {
        let bus = self.bus.lock().expect("bus");
        let nodes: Vec<Option<Sender<BusMsg>>> =
            addrs.iter().map(|addr| bus.get(addr).cloned()).collect();
        drop(bus);
        if nodes.iter().all(Option::is_none) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "no replica registered at any given address",
            ));
        }
        let (reply_tx, replies) = channel();
        // The bus analog of the socket client's hello: an empty delivery
        // teaches every node where this client's replies go, so replicas
        // the client never addresses directly can still answer it.
        for tx in nodes.iter().flatten() {
            let origin = BusOrigin::Client(id, reply_tx.clone());
            let _ = tx.send(BusMsg::Frames(origin, Arc::new(Vec::new())));
        }
        Ok(InProcessClient { id, nodes, reply_tx, replies })
    }
}

impl RunningNode for InProcessNode {
    fn shutdown(mut self) {
        // The bus entry stays: sends to the dead channel fail silently
        // (a lost frame, as on a real network), and a re-bind at the
        // same address replaces the entry.
        let _ = self.tx.send(BusMsg::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl TransportClient for InProcessClient {
    fn send_to(&mut self, replica_index: usize, requests: &[Request]) -> io::Result<()> {
        let framed = Arc::new(crate::client::requests_frame(requests));
        let origin = BusOrigin::Client(self.id, self.reply_tx.clone());
        match self.nodes.get(replica_index) {
            Some(Some(tx)) if tx.send(BusMsg::Frames(origin, framed)).is_ok() => Ok(()),
            _ => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("replica {replica_index} not connected"),
            )),
        }
    }

    fn replies(&self) -> &Receiver<Reply> {
        &self.replies
    }

    fn close(self) {}
}

/// The in-process [`PeerSink`]: looks the destination up on the bus
/// per send (so a restarted node's fresh channel is picked up), with
/// the fault plan consulted exactly like the socket send paths.
struct BusPeers {
    local: ReplicaId,
    faults: Arc<FaultPlan>,
    bus: Arc<BusMap>,
    links: HashMap<ReplicaId, SocketAddr>,
}

impl BusPeers {
    fn deliver(&self, to: ReplicaId, framed: Arc<Vec<u8>>) {
        let Some(addr) = self.links.get(&to) else { return };
        let sender = self.bus.lock().expect("bus").get(addr).cloned();
        if let Some(tx) = sender {
            let _ = tx.send(BusMsg::Frames(BusOrigin::Peer(self.local), framed));
        }
    }

    fn enqueue(&self, to: ReplicaId, framed: Arc<Vec<u8>>) {
        if !self.links.contains_key(&to) {
            return; // self-send or unknown peer: dropped
        }
        match self.faults.decide(self.local, to) {
            FaultDecision::Deliver => self.deliver(to, framed),
            FaultDecision::Drop => {}
            FaultDecision::Duplicate => {
                self.deliver(to, Arc::clone(&framed));
                self.deliver(to, framed);
            }
            FaultDecision::DeliverAfter(delay) => {
                // Test backend: a throwaway timer thread is fine.
                let bus = Arc::clone(&self.bus);
                let addr = *self.links.get(&to).expect("checked above");
                let local = self.local;
                std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    let sender = bus.lock().expect("bus").get(&addr).cloned();
                    if let Some(tx) = sender {
                        let _ = tx.send(BusMsg::Frames(BusOrigin::Peer(local), framed));
                    }
                });
            }
        }
    }
}

impl PeerSink for BusPeers {
    fn broadcast_frame(&mut self, framed: Arc<Vec<u8>>) {
        let peers: Vec<ReplicaId> = self.links.keys().copied().collect();
        for to in peers {
            self.enqueue(to, Arc::clone(&framed));
        }
    }

    fn send_frame(&mut self, to: ReplicaId, framed: Arc<Vec<u8>>) {
        self.enqueue(to, framed);
    }

    fn is_peer(&self, id: ReplicaId) -> bool {
        self.links.contains_key(&id)
    }
}

/// The in-process [`ClientSink`]: reply channels learned from request
/// frames' origins.
struct BusClients {
    replies: HashMap<ClientId, Sender<Reply>>,
}

impl ClientSink for BusClients {
    fn reply(&mut self, to: ClientId, reply: Reply) {
        if let Some(tx) = self.replies.get(&to) {
            if tx.send(reply).is_err() {
                self.replies.remove(&to);
            }
        }
    }
}

/// Parses one bus delivery into protocol events, enforcing the same
/// rules as the socket read paths: origin-pinned state transfer,
/// `FAULT_CONTROL` honored only with fault injection on, unknown or
/// out-of-place kinds dropped. Returns `true` on shutdown.
fn decode_bus_msg<P: Protocol>(
    msg: BusMsg,
    fault_injection: bool,
    faults: &FaultPlan,
    clients: &mut BusClients,
    pending: &mut VecDeque<Event<P::Message>>,
) -> bool {
    let (origin, bytes) = match msg {
        BusMsg::Frames(origin, bytes) => (origin, bytes),
        BusMsg::Shutdown => return true,
    };
    if let BusOrigin::Client(id, reply_tx) = &origin {
        clients.replies.insert(*id, reply_tx.clone());
    }
    let mut offset = 0;
    while offset < bytes.len() {
        let (view, consumed) = match parse_frame(&bytes[offset..]) {
            Ok(Some(parsed)) => parsed,
            // Truncated or corrupt bus payload: a sender bug, not a
            // network condition — drop the remainder.
            Ok(None) | Err(_) => break,
        };
        match (view.kind, &origin) {
            (frame_kind::PROTOCOL, BusOrigin::Peer(_)) => {
                if let Ok(msg) = splitbft_types::wire::decode::<P::Message>(view.payload) {
                    pending.push_back(Event::Peer(msg));
                }
            }
            (frame_kind::REQUESTS, _) => {
                if let Ok(requests) = splitbft_types::wire::decode(view.payload) {
                    pending.push_back(Event::Requests(requests));
                }
            }
            (frame_kind::STATE_REQUEST, BusOrigin::Peer(peer)) => {
                if let Ok(req) =
                    splitbft_types::wire::decode::<StateTransferRequest>(view.payload)
                {
                    if req.replica == *peer {
                        pending.push_back(Event::StateRequest(req));
                    }
                }
            }
            (frame_kind::STATE_RESPONSE, BusOrigin::Peer(peer)) => {
                if let Ok(resp) =
                    splitbft_types::wire::decode::<StateTransferResponse>(view.payload)
                {
                    if resp.replica == *peer {
                        pending.push_back(Event::StateResponse(resp));
                    }
                }
            }
            (frame_kind::FAULT_CONTROL, BusOrigin::Client(..)) if fault_injection => {
                if let Ok(cmd) = splitbft_types::wire::decode::<FaultCommand>(view.payload) {
                    faults.apply(cmd);
                }
            }
            _ => {}
        }
        offset += consumed;
    }
    false
}

fn bus_loop<P: Protocol>(
    rx: Receiver<BusMsg>,
    bus: Arc<BusMap>,
    config: NodeConfig,
    protocol: P,
) {
    let id = config.id;
    let mut peers = BusPeers {
        local: id,
        faults: Arc::clone(&config.faults),
        bus,
        links: config
            .peers
            .iter()
            .filter(|p| p.id != id)
            .map(|p| (p.id, p.addr))
            .collect(),
    };
    let mut clients = BusClients { replies: HashMap::new() };
    let mut host =
        Host::new(id, protocol, config.recovery, NodeTelemetry::new(id.0), &mut peers);
    let mut next_tick = config.timeout_every.map(|period| Instant::now() + period);
    let mut pending: VecDeque<Event<P::Message>> = VecDeque::new();

    // One drain batch per wake-up: block for the
    // first event (synthesizing timer ticks from the wait), then — with
    // group commit on — keep draining within the linger window so the
    // whole batch shares one flush_durable.
    'main: loop {
        let first = loop {
            if let Some(event) = pending.pop_front() {
                break event;
            }
            let msg = match next_tick {
                None => match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break 'main,
                },
                Some(tick) => {
                    let wait = tick.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(wait) {
                        Ok(msg) => msg,
                        Err(RecvTimeoutError::Timeout) => {
                            next_tick = config
                                .timeout_every
                                .map(|period| Instant::now() + period);
                            break Event::Timeout;
                        }
                        Err(RecvTimeoutError::Disconnected) => break 'main,
                    }
                }
            };
            if decode_bus_msg::<P>(
                msg,
                config.fault_injection,
                &config.faults,
                &mut clients,
                &mut pending,
            ) {
                break 'main;
            }
        };

        let mut outputs = host.handle(first, &mut peers);
        let mut drained = 1usize;
        let deadline =
            (!config.group_commit.is_zero()).then(|| Instant::now() + config.group_commit);
        if let Some(deadline) = deadline {
            'batch: while drained < MAX_DRAIN_BATCH {
                let event = loop {
                    if let Some(event) = pending.pop_front() {
                        break event;
                    }
                    let msg = match rx.try_recv() {
                        Ok(msg) => Some(msg),
                        Err(TryRecvError::Empty) => {
                            let wait = deadline.saturating_duration_since(Instant::now());
                            if wait.is_zero() {
                                break 'batch;
                            }
                            rx.recv_timeout(wait).ok()
                        }
                        Err(TryRecvError::Disconnected) => None,
                    };
                    let Some(msg) = msg else { break 'batch };
                    if decode_bus_msg::<P>(
                        msg,
                        config.fault_injection,
                        &config.faults,
                        &mut clients,
                        &mut pending,
                    ) {
                        host.finish_batch(outputs, &mut peers, &mut clients);
                        break 'main;
                    }
                };
                outputs.extend(host.handle(event, &mut peers));
                drained += 1;
            }
        }
        host.finish_batch(outputs, &mut peers, &mut clients);
    }
}
