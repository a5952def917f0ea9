//! The deployable socket runtime: one readiness loop per node over
//! nonblocking sockets, hosting one [`Protocol`] replica per process.
//!
//! This is the socket counterpart of [`crate::lockstep::Cluster`] (same
//! hosting core, same frame classifier, no sockets): replicas exchange
//! length-prefixed frames (see [`splitbft_types::wire`]) over real TCP
//! connections, mirroring the
//! paper's deployment of one SplitBFT process per VM. Every replica
//! listens on one address and keeps one outbound link per *other*
//! replica, so a cluster of `n` nodes forms a full mesh of `n·(n−1)`
//! simplex links. Clients connect to any subset of replicas, announce a
//! [`ClientId`], push request batches, and receive replies on the same
//! connection.
//!
//! Each node is a **single thread** running a readiness loop over
//! nonblocking sockets (a thread per connection oversubscribes the host
//! once a bench drives dozens of pipelined clients, and pays a context
//! switch plus a per-frame `Vec` allocation for every message):
//!
//! ```text
//!        ┌───────────────────────────── node thread ──────────────────────────────┐
//!        │  ppoll ──► read (16 KiB chunks ──► FrameAssembler ──► borrowed frame   │
//!        │  │ ▲         views, decoded in place — no per-frame Vec)               │
//!        │  │ │                           │                                       │
//!        │  ▼ listener, readable conns,   ▼                                       │
//!        │  accept  links with unsent     Host::handle (protocol core, one       │
//!        │          bytes                 drain batch)                            │
//!        │                                │                                       │
//!        │                                ▼                                       │
//!        │  write ◄── per-peer FrameRing (bounded, refuse-don't-evict)            │
//!        │            per-client FrameRing for replies — no writer threads        │
//!        └────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every pass starts in one `ppoll(2)` (the crate's `readiness` module)
//! over the listener, every connection (for reading, and for writing
//! while it holds unsent reply bytes) and every peer link with unsent
//! bytes (for writing). It returns at once when the pass already has
//! work — a drain to feed — and otherwise sleeps in the kernel until a
//! socket is ready or the earliest deadline: the next tick, the open
//! batch's group-commit linger, a link's reconnect, or a 1 ms cap. The
//! cap is what makes [`EventedNode::shutdown`] and
//! [`EventedNode::request_drain`] prompt without a wake-up socket. Then
//! the loop accepts only when the listener is readable (one connection,
//! then the pass starts over so the newcomer's hello is read before any
//! protocol work) and reads only
//! connections reported readable or hung up, so an idle socket costs no
//! syscall; writes stay optimistic, straight after the protocol phase. The throughput win comes from
//! what the loop *amortizes*: one large read feeds many frames, decoded
//! as borrowed slices out of the [`FrameAssembler`]; outputs coalesce
//! into staged writes per link; and the whole pass shares a single
//! `flush_durable` group-commit point.
//!
//! # Framing and delivery
//!
//! A connection opens with a hello frame (`PEER_HELLO` carrying a
//! [`ReplicaId`], or `CLIENT_HELLO` carrying a [`ClientId`]); anything
//! else, a bad magic, or an oversized length closes it. The hello is
//! unauthenticated — protocol payloads carry their own signatures and
//! MACs — but it pins the connection: protocol messages are honored
//! only on peer connections, and state-transfer frames only when their
//! embedded replica id also matches the hello, so one connection cannot
//! speak for several replicas. Delivery is **at-most-once**: a link
//! that fails drops its staged batch, a full ring refuses the frame,
//! and recovery is the
//! protocols' business (client retransmission, view changes, state
//! transfer), not the transport's.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::host::{
    classify, ClientSink, Event, Host, Identity, NodeConfig, Parsed, PeerSink, MAX_DRAIN_BATCH,
};
use crate::readiness::{self, PollFd, READABLE, WRITABLE};
use crate::ring::FrameRing;
use crate::transport::{frame_kind, write_value, BatchPolicy, Protocol};
use splitbft_obs::NodeTelemetry;
use splitbft_types::status::{StatusResponse, StatusVerb};
use splitbft_types::wire::{frame_message, FrameAssembler};
use splitbft_types::{ClientId, ReplicaId, Reply};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes pulled from one connection per loop pass: ten 16-request
/// `PrePrepare`s (≈ 1.5 KB each) per syscall under load, small enough
/// that one flooding connection cannot starve the others (each gets one
/// bounded read per pass). The assembler zero-fills this much per
/// connection up front, so it is also each connection's resident floor;
/// a larger frame reassembles across reads.
const READ_CHUNK: usize = 16 * 1024;

/// Per-peer outbound ring bounds. Generous — the ring replaces an
/// unbounded channel, so the cap only bites when a peer is down or
/// drastically slower than the protocol produces; then frames are
/// refused (counted, never evicted), which the at-most-once transport
/// contract already tolerates.
const PEER_RING_FRAMES: usize = 16 * 1024;
const PEER_RING_BYTES: usize = 16 * 1024 * 1024;

/// Per-client reply ring bounds: a client that stops draining replies
/// loses the overflow (at-most-once reply delivery, same stance as the
/// peer links) instead of stalling the node.
const CLIENT_RING_FRAMES: usize = 1024;
const CLIENT_RING_BYTES: usize = 4 * 1024 * 1024;

/// Outbound connect attempt budget. Localhost connects resolve
/// immediately (accept or RST); the timeout only caps a SYN into a
/// blackhole so one dead peer cannot stall the loop.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(50);

/// Reconnect backoff for outbound peer links, doubling from
/// `RECONNECT_MIN` to `RECONNECT_MAX`, so replicas of a cluster can
/// start in any order.
const RECONNECT_MIN: Duration = Duration::from_millis(10);
const RECONNECT_MAX: Duration = Duration::from_millis(500);

/// The longest a readiness wait blocks: how late the loop may notice a
/// `shutdown()` or a `request_drain()`, which arrive on no socket.
const WAIT_CAP: Duration = Duration::from_millis(1);

/// A bound-but-not-yet-started node: the listener exists (so its
/// ephemeral port is known), but the loop thread is not running and no
/// peers are contacted.
///
/// Splitting bind from start lets a test or launcher bring up a whole
/// cluster on OS-assigned ports: bind every node first, collect the
/// resulting address book, then start each node with the complete book.
#[derive(Debug)]
pub struct BoundEventedNode {
    id: ReplicaId,
    listener: TcpListener,
}

impl BoundEventedNode {
    /// The address the listener actually bound (resolved port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// This node's replica id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Starts the node's loop thread around `protocol`. `config.listen`
    /// is ignored (the listener is already bound).
    pub fn start<P: Protocol>(
        self,
        config: NodeConfig,
        protocol: P,
    ) -> io::Result<EventedNode> {
        EventedNode::start_bound(self.listener, config, protocol)
    }
}

/// A running replica process serving a [`Protocol`] over TCP from one
/// readiness-loop thread. Only that thread touches protocol state, so
/// hosted replicas need no internal locking.
pub struct EventedNode {
    id: ReplicaId,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    telemetry: Arc<NodeTelemetry>,
}

impl std::fmt::Debug for EventedNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventedNode")
            .field("id", &self.id)
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl EventedNode {
    /// Reserves a listener for replica `id` without starting anything.
    pub fn bind(id: ReplicaId, listen: SocketAddr) -> io::Result<BoundEventedNode> {
        Ok(BoundEventedNode { id, listener: TcpListener::bind(listen)? })
    }

    /// Binds the listener and starts the loop thread around `protocol`.
    pub fn spawn<P: Protocol>(config: NodeConfig, protocol: P) -> io::Result<Self> {
        let listener = TcpListener::bind(config.listen)?;
        Self::start_bound(listener, config, protocol)
    }

    fn start_bound<P: Protocol>(
        listener: TcpListener,
        config: NodeConfig,
        protocol: P,
    ) -> io::Result<Self> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let telemetry = NodeTelemetry::new(config.id.0);
        let id = config.id;
        let loop_shutdown = Arc::clone(&shutdown);
        let loop_telemetry = Arc::clone(&telemetry);
        let thread = std::thread::Builder::new()
            .name(format!("node-{}-evented", id.0))
            .spawn(move || event_loop(listener, config, protocol, loop_shutdown, loop_telemetry))?;
        Ok(EventedNode { id, local_addr, shutdown, thread: Some(thread), telemetry })
    }

    /// This node's replica id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The bound listen address (useful with port 0 configs).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The hosted protocol's latest `progress()` value, as observed
    /// after the most recent drain batch. Safe to poll from any thread.
    pub fn progress(&self) -> u64 {
        self.telemetry.progress.get()
    }

    /// The hosted protocol's latest `durable_fsyncs()` value (`0` for
    /// non-durable protocols). Safe to poll from any thread.
    pub fn fsyncs(&self) -> u64 {
        self.telemetry.fsyncs.get()
    }

    /// Per-shard breakdown of [`EventedNode::progress`] (a single entry
    /// for unsharded protocols; empty until the first drain batch).
    pub fn shard_progress(&self) -> Vec<u64> {
        self.telemetry.shard_progress()
    }

    /// Per-shard breakdown of [`EventedNode::fsyncs`].
    pub fn shard_fsyncs(&self) -> Vec<u64> {
        self.telemetry.shard_fsyncs()
    }

    /// This node's telemetry hub — counters, gauges, and the event
    /// journal the `STATUS` frame and the metrics endpoint serve.
    pub fn telemetry(&self) -> Arc<NodeTelemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Starts a graceful drain: new client requests are refused, and
    /// once nothing is pending the loop seals a checkpoint and flushes
    /// the WAL. Poll `telemetry().drained()`, then call
    /// [`EventedNode::shutdown`]. Idempotent.
    pub fn request_drain(&self) {
        // The loop polls the draining flag every pass and feeds itself
        // `Event::Drain` batches until the seal lands — no channel
        // needed.
        self.telemetry.request_drain();
    }

    /// Stops the loop thread and joins it; every connection closes with
    /// it. The loop's readiness wait never blocks for more than 1 ms, so
    /// no wake-up connection is needed.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One inbound connection: its nonblocking socket, reassembly buffer,
/// identity, and (for clients) the bounded reply ring the loop drains.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    identity: Identity,
    out: FrameRing,
    staged: Vec<u8>,
    staged_pos: usize,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            assembler: FrameAssembler::new(),
            identity: Identity::Unknown,
            out: FrameRing::new(CLIENT_RING_FRAMES, CLIENT_RING_BYTES),
            staged: Vec::new(),
            staged_pos: 0,
            dead: false,
        }
    }

    /// Reply bytes not yet in the socket: a staged batch or queued frames.
    fn holds_frames(&self) -> bool {
        self.staged_pos < self.staged.len() || !self.out.is_empty()
    }
}

/// One outbound peer link: bounded ring in, staged coalesced write out,
/// lazy reconnect with backoff. No thread — the loop drains it.
struct OutLink {
    addr: SocketAddr,
    ring: FrameRing,
    conn: Option<TcpStream>,
    /// Whether this link has ever held a connection — distinguishes the
    /// first connect from a reconnect for the telemetry counter.
    ever_connected: bool,
    staged: Vec<u8>,
    staged_pos: usize,
    next_attempt: Instant,
    backoff: Duration,
}

impl OutLink {
    fn new(addr: SocketAddr) -> Self {
        OutLink {
            addr,
            ring: FrameRing::new(PEER_RING_FRAMES, PEER_RING_BYTES),
            conn: None,
            ever_connected: false,
            staged: Vec::new(),
            staged_pos: 0,
            next_attempt: Instant::now(),
            backoff: RECONNECT_MIN,
        }
    }

    /// Frames not yet in the socket: a staged batch or queued frames.
    fn holds_frames(&self) -> bool {
        self.staged_pos < self.staged.len() || !self.ring.is_empty()
    }
}

/// The socket runtime's [`PeerSink`]: bounded rings toward every other
/// replica.
struct EventedPeers {
    telemetry: Arc<NodeTelemetry>,
    links: HashMap<ReplicaId, OutLink>,
}

/// Pushes one frame onto a bounded ring, counting a refusal.
fn push_counted(ring: &mut FrameRing, framed: Arc<Vec<u8>>, telemetry: &NodeTelemetry) {
    if !ring.push(framed) {
        telemetry.ring_refusals.inc();
    }
}

impl PeerSink for EventedPeers {
    fn broadcast_frame(&mut self, framed: Arc<Vec<u8>>) {
        for link in self.links.values_mut() {
            push_counted(&mut link.ring, Arc::clone(&framed), &self.telemetry);
        }
    }

    fn send_frame(&mut self, to: ReplicaId, framed: Arc<Vec<u8>>) {
        // A self-send or unknown peer is dropped.
        if let Some(link) = self.links.get_mut(&to) {
            push_counted(&mut link.ring, framed, &self.telemetry);
        }
    }

    fn is_peer(&self, id: ReplicaId) -> bool {
        self.links.contains_key(&id)
    }
}

/// The socket runtime's [`ClientSink`]: frames each reply onto the
/// client connection's bounded ring; the loop's write phase drains it.
struct EventedClients<'a> {
    conns: &'a mut Vec<Option<Conn>>,
    index: &'a HashMap<ClientId, usize>,
    telemetry: &'a NodeTelemetry,
}

impl ClientSink for EventedClients<'_> {
    fn reply(&mut self, to: ClientId, reply: Reply) {
        let Some(&slot) = self.index.get(&to) else { return };
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        // A full ring refuses the frame: at-most-once reply delivery,
        // the client's retry logic recovers.
        let framed = Arc::new(frame_message(frame_kind::REPLY, &reply));
        push_counted(&mut conn.out, framed, self.telemetry);
    }
}

/// One bounded read + frame drain for one connection the readiness wait
/// reported readable. Frames decode as borrowed views straight out of
/// the assembler's buffer — no per-frame allocation between the socket
/// and the typed event.
fn drain_conn<P: Protocol>(
    slot: usize,
    conn: &mut Conn,
    events: &mut Vec<Event<P::Message>>,
    client_index: &mut HashMap<ClientId, usize>,
    telemetry: &NodeTelemetry,
) {
    let space = conn.assembler.read_space(READ_CHUNK);
    match conn.stream.read(space) {
        Ok(0) => {
            conn.assembler.commit(0);
            conn.dead = true;
        }
        Ok(n) => {
            conn.assembler.commit(n);
            telemetry.bytes_in.add(n as u64);
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
            conn.assembler.commit(0);
            telemetry.socket_reads_empty.inc();
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            conn.assembler.commit(0);
        }
        Err(_) => {
            conn.assembler.commit(0);
            conn.dead = true;
        }
    }
    loop {
        let identity = conn.identity;
        let step = match conn.assembler.next_frame() {
            Ok(None) => break,
            Err(_) => Parsed::Close, // framing garbage: magic/length violation
            Ok(Some(view)) => classify::<P>(view.kind, view.payload, identity),
        };
        match step {
            Parsed::Event(event) => events.push(event),
            Parsed::PeerHello(id) => conn.identity = Identity::Peer(id),
            Parsed::ClientHello(id) => {
                conn.identity = Identity::Client(id);
                // A reconnecting client replaces its own old entry.
                client_index.insert(id, slot);
            }
            Parsed::Status(req) => {
                let response = match req.verb {
                    StatusVerb::Snapshot => StatusResponse::Snapshot(telemetry.snapshot()),
                    StatusVerb::Events { since } => StatusResponse::Events {
                        head: telemetry.journal.head(),
                        events: telemetry.journal.since(since),
                    },
                };
                conn.out.push(Arc::new(frame_message(frame_kind::STATUS, &response)));
            }
            Parsed::Skip => {}
            Parsed::Close => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Connects to a peer and performs the `PEER_HELLO` handshake (written
/// while still blocking — it is 15 bytes), then flips to nonblocking.
fn connect_with_hello(local: ReplicaId, addr: SocketAddr) -> Option<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok()?;
    let _ = stream.set_nodelay(true);
    write_value(&mut stream, frame_kind::PEER_HELLO, &local).ok()?;
    stream.set_nonblocking(true).ok()?;
    Some(stream)
}

/// Restages queued frames into one contiguous write buffer (one
/// syscall's worth of coalescing, bounded by the batch policy).
fn restage(staged: &mut Vec<u8>, staged_pos: &mut usize, ring: &mut FrameRing, policy: BatchPolicy) {
    if *staged_pos < staged.len() || ring.is_empty() {
        return; // previous batch still in flight, or nothing queued
    }
    staged.clear();
    *staged_pos = 0;
    let mut frames = 0;
    while frames < policy.max_frames && staged.len() < policy.max_bytes {
        match ring.pop() {
            Some(framed) => {
                staged.extend_from_slice(&framed);
                frames += 1;
            }
            None => break,
        }
    }
}

/// Writes one link's queued frames into its socket, one staged batch
/// after another until the ring is empty or the socket is full,
/// (re)connecting as needed. A write error drops the connection *and
/// the staged batch* — resuming a half-written batch on a fresh
/// connection would desync the peer's frame stream, and the
/// at-most-once contract already covers the loss.
fn flush_link(
    local: ReplicaId,
    link: &mut OutLink,
    policy: BatchPolicy,
    now: Instant,
    telemetry: &NodeTelemetry,
) {
    if !link.holds_frames() {
        return;
    }
    if link.conn.is_none() {
        if now < link.next_attempt {
            return;
        }
        match connect_with_hello(local, link.addr) {
            Some(stream) => {
                if link.ever_connected {
                    telemetry.reconnects.add(1);
                }
                link.ever_connected = true;
                link.conn = Some(stream);
                link.backoff = RECONNECT_MIN;
            }
            None => {
                link.next_attempt = now + link.backoff;
                link.backoff = (link.backoff * 2).min(RECONNECT_MAX);
                return;
            }
        }
    }
    let Some(stream) = link.conn.as_mut() else { return };
    loop {
        restage(&mut link.staged, &mut link.staged_pos, &mut link.ring, policy);
        if link.staged_pos >= link.staged.len() {
            return;
        }
        match stream.write(&link.staged[link.staged_pos..]) {
            Ok(n) if n > 0 => {
                link.staged_pos += n;
                telemetry.bytes_out.add(n as u64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // `Ok(0)` or a hard error: the peer is gone.
            _ => {
                link.conn = None;
                link.staged_pos = link.staged.len();
                return;
            }
        }
    }
}

/// Writes one client connection's reply ring into its socket until the
/// ring is empty or the socket is full.
fn flush_conn(conn: &mut Conn, policy: BatchPolicy) {
    loop {
        restage(&mut conn.staged, &mut conn.staged_pos, &mut conn.out, policy);
        if conn.staged_pos >= conn.staged.len() {
            return;
        }
        match conn.stream.write(&conn.staged[conn.staged_pos..]) {
            Ok(n) if n > 0 => conn.staged_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // `Ok(0)` or a hard error: the client is gone.
            _ => {
                conn.dead = true;
                return;
            }
        }
    }
}

fn event_loop<P: Protocol>(
    listener: TcpListener,
    config: NodeConfig,
    protocol: P,
    shutdown: Arc<AtomicBool>,
    telemetry: Arc<NodeTelemetry>,
) {
    let id = config.id;
    // The host's clock: how long this loop has been up.
    let started = Instant::now();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut client_index: HashMap<ClientId, usize> = HashMap::new();
    let mut peers = EventedPeers {
        telemetry: Arc::clone(&telemetry),
        links: config
            .peers
            .iter()
            .filter(|p| p.id != id)
            .map(|p| (p.id, OutLink::new(p.addr)))
            .collect(),
    };
    let mut host = Host::new(
        id,
        protocol,
        config.recovery,
        Arc::clone(&telemetry),
        Duration::ZERO,
        &mut peers,
    );

    let mut next_tick = config.timeout_every.map(|period| Instant::now() + period);
    let mut events: Vec<Event<P::Message>> = Vec::new();
    let mut batch_outputs = Vec::new();
    let mut batch_events = 0usize;
    let mut batch_deadline: Option<Instant> = None;
    let mut wait_list: Vec<PollFd> = Vec::new();

    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }

        // Wait phase. The list is the listener, then every connection in
        // slot order (the read phase walks them in the same order), then
        // the links that still hold bytes — listed only to wake the loop
        // when their sockets drain, since the write phase tries every
        // link anyway.
        wait_list.clear();
        wait_list.push(PollFd::new(&listener, READABLE));
        for conn in conns.iter().flatten() {
            let write = if conn.holds_frames() { WRITABLE } else { 0 };
            wait_list.push(PollFd::new(&conn.stream, READABLE | write));
        }
        for link in peers.links.values().filter(|link| link.holds_frames()) {
            if let Some(stream) = &link.conn {
                wait_list.push(PollFd::new(stream, WRITABLE));
            }
        }
        // An active drain self-feeds (below), so it does not wait;
        // otherwise sleep until a socket is ready or the next deadline.
        let now = Instant::now();
        let timeout = if telemetry.draining() && !telemetry.drained() {
            Duration::ZERO
        } else {
            let reconnects = peers
                .links
                .values()
                .filter(|link| link.conn.is_none() && link.holds_frames())
                .map(|link| link.next_attempt);
            [next_tick, batch_deadline]
                .into_iter()
                .flatten()
                .chain(reconnects)
                .map(|deadline| deadline.saturating_duration_since(now))
                .fold(WAIT_CAP, Duration::min)
        };
        // A failed wait (`ENOMEM`) reports nothing: probe every socket
        // this pass rather than stall the node.
        let failed = readiness::wait(&mut wait_list, timeout).is_err();
        telemetry.loop_waits.inc();
        let listener_ready = wait_list.first().is_some_and(PollFd::readable);
        let conns_ready = wait_list.get(1..).unwrap_or_default();

        // A new connection restarts the pass, so that the next wait
        // lists it and its hello is read before any protocol work: a
        // replica that executes a request for a client whose connection
        // still sits in the backlog has nowhere to send the reply. (A
        // second queued connection keeps the listener readable for that
        // wait; nothing unread is lost, readiness is level-triggered.)
        if failed || listener_ready {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_ok() {
                        let conn = Conn::new(stream);
                        match conns.iter().position(Option::is_none) {
                            Some(slot) => conns[slot] = Some(conn),
                            None => conns.push(Some(conn)),
                        }
                    }
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    telemetry.socket_reads_empty.inc();
                }
                Err(_) => {} // transient accept error
            }
        }

        // Read phase: one bounded read per readable connection, decoded
        // in place.
        let now = Instant::now();
        let live = conns.iter_mut().enumerate().filter_map(|(slot, c)| Some((slot, c.as_mut()?)));
        for ((slot, conn), ready) in live.zip(conns_ready) {
            if failed || ready.readable() {
                drain_conn::<P>(slot, conn, &mut events, &mut client_index, &telemetry);
            }
        }

        // Timer tick.
        if let (Some(tick), Some(period)) = (next_tick, config.timeout_every) {
            if now >= tick {
                events.push(Event::Timeout);
                next_tick = Some(now + period);
            }
        }

        // An active drain self-feeds: force a batch every pass until
        // the epilogue in `finish_batch` seals the checkpoint and marks
        // the node drained.
        if telemetry.draining() && !telemetry.drained() {
            events.push(Event::Drain);
        }

        // Protocol phase: this pass's events join the open drain batch.
        if !events.is_empty() {
            let uptime = now.duration_since(started);
            for event in events.drain(..) {
                batch_outputs.extend(host.handle(event, uptime, &mut peers));
                batch_events += 1;
            }
        }
        // Group commit: with no linger every pass flushes; with linger
        // the batch stays open across passes until the deadline or the
        // size cap, sharing one fsync.
        let flush_now = batch_events > 0
            && (config.group_commit.is_zero()
                || batch_events >= MAX_DRAIN_BATCH
                || now >= *batch_deadline.get_or_insert(now + config.group_commit));
        if flush_now {
            telemetry.queue_depth_high_water.record_max(batch_events as u64);
            host.finish_batch(
                std::mem::take(&mut batch_outputs),
                &mut peers,
                &mut EventedClients {
                    conns: &mut conns,
                    index: &client_index,
                    telemetry: &telemetry,
                },
            );
            batch_events = 0;
            batch_deadline = None;
        }

        // Write phase: peer links, then client reply rings.
        for link in peers.links.values_mut() {
            flush_link(id, link, config.batch, now, &telemetry);
        }
        for conn in conns.iter_mut().flatten() {
            flush_conn(conn, config.batch);
        }

        // Reap dead connections (dropping the socket closes it).
        for (slot, entry) in conns.iter_mut().enumerate() {
            let Some(conn) = entry.take_if(|c| c.dead) else { continue };
            if let Identity::Client(client) = conn.identity {
                // Only our own registration: a reconnected client
                // already points at a newer slot.
                if client_index.get(&client) == Some(&slot) {
                    client_index.remove(&client);
                }
            }
        }
    }

    // Close out the open batch so durable state hits its fsync before
    // the node disappears.
    if batch_events > 0 {
        host.finish_batch(
            std::mem::take(&mut batch_outputs),
            &mut peers,
            &mut EventedClients {
                conns: &mut conns,
                index: &client_index,
                telemetry: &telemetry,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TcpClient;
    use crate::host::PeerAddr;
    use crate::transport::{read_value, ProtocolOutput};
    use splitbft_types::{Request, RequestId, Timestamp, View};

    /// A trivial protocol echoing request payloads straight back,
    /// exercising the transport without consensus logic.
    struct EchoProtocol {
        id: ReplicaId,
    }

    impl Protocol for EchoProtocol {
        type Message = u64;

        fn on_message(&mut self, _msg: u64) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn on_client_requests(&mut self, requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
            requests
                .into_iter()
                .map(|r| ProtocolOutput::Reply {
                    to: r.client(),
                    reply: Reply {
                        view: View(0),
                        request: r.id,
                        replica: self.id,
                        result: r.op,
                        encrypted: false,
                        auth: [0u8; 32],
                    },
                })
                .collect()
        }

        fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        // Replies are produced synchronously, so nothing is ever
        // pending — lets the drain test reach the sealed state.
        fn has_pending_requests(&self) -> bool {
            false
        }
    }

    /// Broadcasts each request's op (an LE `u64`) to the peers and
    /// echoes it back, so a test can put chosen frames on a peer link.
    struct Broadcaster;

    impl Protocol for Broadcaster {
        type Message = u64;

        fn on_message(&mut self, _msg: u64) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn on_client_requests(&mut self, requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
            let mut echo = EchoProtocol { id: ReplicaId(0) };
            let mut out: Vec<_> = requests
                .iter()
                .map(|r| {
                    ProtocolOutput::Broadcast(u64::from_le_bytes(r.op[..].try_into().unwrap()))
                })
                .collect();
            out.extend(echo.on_client_requests(requests));
            out
        }

        fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }
    }

    fn solo_config(id: u32) -> NodeConfig {
        NodeConfig::new(ReplicaId(id), "127.0.0.1:0".parse().unwrap(), Vec::new())
    }

    fn echo_node(config: NodeConfig) -> EventedNode {
        let id = config.id;
        EventedNode::spawn(config, EchoProtocol { id }).unwrap()
    }

    fn request(client: u32, ts: u64, op: &[u8]) -> Request {
        Request {
            id: RequestId { client: ClientId(client), timestamp: Timestamp(ts) },
            op: bytes::Bytes::copy_from_slice(op),
            encrypted: false,
            auth: [0u8; 32],
        }
    }

    #[test]
    fn retired_fault_control_and_drain_numbers_change_nothing() {
        let node = echo_node(solo_config(0));
        let mut buf = [0u8; 1];

        // A frame of the retired FAULT_CONTROL kind 8 is skipped like
        // any unknown kind: the same connection then gets its request
        // answered.
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write_value(&mut stream, frame_kind::CLIENT_HELLO, &ClientId(123)).unwrap();
        write_value(&mut stream, 8, &5u8).unwrap();
        write_value(&mut stream, frame_kind::REQUESTS, &vec![request(123, 1, b"ping")]).unwrap();
        let reply: Reply = read_value(&mut stream, frame_kind::REPLY).unwrap();
        assert_eq!(&reply.result[..], b"ping");

        // A STATUS frame carrying the retired drain verb (tag 3) does
        // not decode: the connection is closed and no drain starts.
        // EOF on our side proves the loop read the frame.
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write_value(&mut stream, frame_kind::CLIENT_HELLO, &ClientId(124)).unwrap();
        write_value(&mut stream, frame_kind::STATUS, &3u8).unwrap();
        assert_eq!(
            stream.read(&mut buf).unwrap_or(0),
            0,
            "the node must close a connection that sends the retired drain verb"
        );
        assert!(!node.telemetry().draining(), "a retired verb must not drain the node");
        node.shutdown();
    }

    #[test]
    fn status_snapshot_and_events_serve_without_any_gate() {
        let node = echo_node(solo_config(3));
        let addr = node.local_addr();

        // Commit one request so the snapshot has something to report.
        let mut client = TcpClient::connect(ClientId(7), &[addr], Duration::from_secs(5)).unwrap();
        client.send_to(0, &[request(7, 1, b"ping")]).unwrap();
        client.recv_timeout(Duration::from_secs(5)).unwrap();

        let snapshot = crate::status::fetch_snapshot(addr).unwrap();
        assert_eq!(snapshot.version, splitbft_types::status::SNAPSHOT_VERSION);
        assert_eq!(snapshot.replica, 3);
        assert!(snapshot.bytes_in > 0, "the request frame must be counted");
        assert!(!snapshot.draining);

        let (head, events) = crate::status::fetch_events(addr, 0).unwrap();
        assert_eq!(head as usize, events.len(), "a fresh journal starts at zero");

        client.close();
        node.shutdown();
    }

    /// Records every peer message it is handed, so a test can prove
    /// one never arrived.
    struct Recorder {
        seen: Arc<std::sync::Mutex<Vec<u64>>>,
    }

    impl Protocol for Recorder {
        type Message = u64;

        fn on_message(&mut self, msg: u64) -> Vec<ProtocolOutput<u64>> {
            self.seen.lock().unwrap().push(msg);
            Vec::new()
        }

        fn on_client_requests(&mut self, _requests: Vec<Request>) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }

        fn on_timeout(&mut self) -> Vec<ProtocolOutput<u64>> {
            Vec::new()
        }
    }

    #[test]
    fn a_protocol_frame_on_a_client_connection_closes_it_unseen() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let node = EventedNode::spawn(solo_config(0), Recorder { seen: Arc::clone(&seen) }).unwrap();

        // Nothing but `host::route` sends PROTOCOL, and only over peer
        // links: a connection that said CLIENT_HELLO and then speaks the
        // replicas' vocabulary is hung up on. EOF on our side proves the
        // loop rejected the frame.
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        write_value(&mut stream, frame_kind::CLIENT_HELLO, &ClientId(123)).unwrap();
        write_value(&mut stream, frame_kind::PROTOCOL, &7u64).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(
            stream.read(&mut buf).unwrap_or(0),
            0,
            "the node must close a client connection that sends PROTOCOL"
        );

        // The same frame on a peer-identified connection is delivered;
        // once it has been, the client's frame would have been too.
        let mut peer = TcpStream::connect(node.local_addr()).unwrap();
        write_value(&mut peer, frame_kind::PEER_HELLO, &ReplicaId(1)).unwrap();
        write_value(&mut peer, frame_kind::PROTOCOL, &8u64).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while seen.lock().unwrap().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*seen.lock().unwrap(), vec![8], "the hosted protocol never saw the client's 7");
        node.shutdown();
    }

    #[test]
    fn peer_link_survives_peer_restart() {
        // Replica 0 with one peer: a raw listener the test reads the
        // link's byte stream from.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = PeerAddr { id: ReplicaId(1), addr: listener.local_addr().unwrap() };
        let config = NodeConfig::new(ReplicaId(0), "127.0.0.1:0".parse().unwrap(), vec![peer]);
        let node = EventedNode::spawn(config, Broadcaster).unwrap();
        let mut client =
            TcpClient::connect(ClientId(5), &[node.local_addr()], Duration::from_secs(5)).unwrap();
        client.send_to(0, &[request(5, 1, &1u64.to_le_bytes())]).unwrap();
        {
            let (mut conn, _) = listener.accept().unwrap();
            let _: ReplicaId = read_value(&mut conn, frame_kind::PEER_HELLO).unwrap();
            let v: u64 = read_value(&mut conn, frame_kind::PROTOCOL).unwrap();
            assert_eq!(v, 1);
            // Connection dropped here: the peer "restarts".
        }

        // The next frame forces a write error, then a reconnect. Frames
        // written into the dead connection may be lost (at-most-once
        // transport); keep sending until the new connection delivers.
        let delivered = std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let (mut conn, _) = listener.accept().unwrap();
                let _: ReplicaId = read_value(&mut conn, frame_kind::PEER_HELLO).unwrap();
                read_value::<_, u64>(&mut conn, frame_kind::PROTOCOL).unwrap()
            });
            for i in 2..1000u64 {
                client.send_to(0, &[request(5, i, &i.to_le_bytes())]).unwrap();
                std::thread::sleep(Duration::from_millis(5));
                if handle.is_finished() {
                    break;
                }
            }
            handle.join().unwrap()
        });
        assert!(delivered >= 2, "got message {delivered} after reconnect");
        client.close();
        node.shutdown();
    }

    /// Connects to `addr` as replica `id` and then says nothing more.
    fn idle_peer(addr: SocketAddr, id: u32) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_value(&mut stream, frame_kind::PEER_HELLO, &ReplicaId(id)).unwrap();
        stream
    }

    #[test]
    fn an_idle_node_makes_no_empty_reads() {
        let node = echo_node(solo_config(0));
        let addr = node.local_addr();
        let _peers: Vec<TcpStream> = (1..=3).map(|id| idle_peer(addr, id)).collect();
        let mut client = TcpClient::connect(ClientId(7), &[addr], Duration::from_secs(5)).unwrap();
        std::thread::sleep(Duration::from_millis(300));

        // Four open connections and a listener, 300 ms of silence: the
        // loop waited in the kernel and read nothing it was not told of.
        let telemetry = node.telemetry();
        assert!(telemetry.loop_waits.get() > 0, "the loop must have waited");
        assert_eq!(telemetry.socket_reads_empty.get(), 0, "an idle socket was read");

        client.send_to(0, &[request(7, 1, b"ping")]).unwrap();
        let reply = client.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&reply.result[..], b"ping");
        assert_eq!(telemetry.socket_reads_empty.get(), 0, "serving a request read nothing empty");
        client.close();
        node.shutdown();
    }

    #[test]
    fn shutdown_and_drain_are_prompt_on_a_quiet_node() {
        let node = echo_node(solo_config(0));
        let addr = node.local_addr();
        let _peer = idle_peer(addr, 1);
        let client = TcpClient::connect(ClientId(7), &[addr], Duration::from_secs(5)).unwrap();

        // The `SIGTERM` path: a drain requested from another thread, and
        // no socket traffic to wake the loop.
        let telemetry = node.telemetry();
        std::thread::scope(|s| {
            s.spawn(|| node.request_drain());
        });
        let deadline = Instant::now() + Duration::from_secs(1);
        while !telemetry.drained() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(telemetry.drained(), "the drain must complete within 1 s");

        let started = Instant::now();
        node.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
        client.close();
    }

    #[test]
    fn pipelined_client_completes_many_outstanding_requests() {
        let node = echo_node(solo_config(0));
        let mut client =
            TcpClient::connect(ClientId(9), &[node.local_addr()], Duration::from_secs(5)).unwrap();
        // Send 8 requests, one frame each, without waiting for any reply.
        for i in 1..=8u64 {
            client.send_to(0, &[request(9, i, &i.to_le_bytes())]).unwrap();
        }
        let mut echoed = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while echoed.len() < 8 && Instant::now() < deadline {
            client.poll(Duration::from_millis(100), |reply| {
                echoed.push(u64::from_le_bytes(reply.result[..].try_into().unwrap()));
            });
        }
        echoed.sort_unstable();
        assert_eq!(echoed, (1..=8).collect::<Vec<u64>>());
        client.close();
        node.shutdown();
    }
}
