//! The deterministic single-threaded pump: replicas and one verifying
//! client in one thread, every message really framed and re-parsed,
//! no injected delay — so a latency here is processor time only, and
//! it is read on the pump clock (the thread's CPU clock, see `clock`).
//!
//! One iteration is: the client reads the replies that arrived, issues
//! what its pipeline allows as one `REQUESTS` frame to replica 0, then
//! every replica in id order drains its inbox as one batch (as a
//! `net` backend's readiness loop does) and its outputs are queued at
//! their destinations. Nothing depends on time, so message, byte,
//! ecall and fsync counts repeat exactly.

use crate::calib::Calibrator;
use crate::clock::pump_ns;
use crate::stats::Window;
use crate::sut::{Bytes, ClientKit, Node, NodeFault, Outbound, Quorum, REPLY_QUORUM};
use crate::trace::{Tracer, CLIENT, NONE};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// The root span of a client batch: everything from issuing it to
/// issuing the next one.
pub const ROOT_SPAN: &str = "pump.batch";

/// Exact traffic counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Peer frames delivered (a broadcast counts once per receiver).
    pub peer_frames: u64,
    /// Bytes of those frames.
    pub peer_bytes: u64,
    /// Reply frames delivered to the client.
    pub reply_frames: u64,
    /// Bytes of those frames.
    pub reply_bytes: u64,
    /// `REQUESTS` frames the client sent.
    pub request_frames: u64,
    /// Bytes of those frames.
    pub request_bytes: u64,
}

impl NetCounts {
    /// Bytes the replicas emitted: peer frames × fan-out + replies.
    pub fn replica_bytes_out(&self) -> u64 {
        self.peer_bytes + self.reply_bytes
    }

    /// Messages the replicas emitted.
    pub fn replica_msgs(&self) -> u64 {
        self.peer_frames + self.reply_frames
    }

    fn minus(&self, earlier: &NetCounts) -> NetCounts {
        NetCounts {
            peer_frames: self.peer_frames - earlier.peer_frames,
            peer_bytes: self.peer_bytes - earlier.peer_bytes,
            reply_frames: self.reply_frames - earlier.reply_frames,
            reply_bytes: self.reply_bytes - earlier.reply_bytes,
            request_frames: self.request_frames - earlier.request_frames,
            request_bytes: self.request_bytes - earlier.request_bytes,
        }
    }
}

/// The replicas and the links between them.
pub struct Cluster {
    nodes: Vec<Box<dyn Node>>,
    inboxes: Vec<Vec<Rc<Vec<u8>>>>,
    client_inbox: Vec<Rc<Vec<u8>>>,
    /// A silent replica neither receives nor sends (crashed, or cut off).
    silent: Vec<bool>,
    counts: NetCounts,
    scratch: Vec<Outbound>,
}

impl Cluster {
    /// A cluster of the given replicas, ids in order.
    pub fn new(nodes: Vec<Box<dyn Node>>) -> Self {
        let n = nodes.len();
        Cluster {
            nodes,
            inboxes: vec![Vec::new(); n],
            client_inbox: Vec::new(),
            silent: vec![false; n],
            counts: NetCounts::default(),
            scratch: Vec::new(),
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a cluster without replicas.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read access to the replicas (digests, statistics).
    pub fn nodes(&self) -> &[Box<dyn Node>] {
        &self.nodes
    }

    /// Mutable access to one replica.
    pub fn node_mut(&mut self, id: usize) -> &mut dyn Node {
        self.nodes[id].as_mut()
    }

    /// Cuts a replica off (or reconnects it); queued frames are lost.
    pub fn set_silent(&mut self, id: usize, silent: bool) {
        self.silent[id] = silent;
        if silent {
            self.inboxes[id].clear();
        }
    }

    /// Arms a defect on one replica.
    pub fn set_fault(&mut self, id: usize, fault: NodeFault) {
        self.nodes[id].set_fault(fault);
    }

    /// Traffic so far.
    pub fn counts(&self) -> NetCounts {
        self.counts
    }

    /// Queues a client frame at replica `to`.
    pub fn submit(&mut self, to: usize, framed: Rc<Vec<u8>>) {
        self.counts.request_frames += 1;
        self.counts.request_bytes += framed.len() as u64;
        if !self.silent[to] {
            self.inboxes[to].push(framed);
        }
    }

    /// Fires the view-change timer on replica `id` and routes what it
    /// emits.
    pub fn fire_timeout(&mut self, id: usize, tr: &mut Tracer) {
        if self.silent[id] {
            return;
        }
        self.nodes[id].timeout(tr);
        self.finish_batch(id, tr);
    }

    /// Lets every replica drain its inbox once. Returns whether any
    /// frame was handled.
    pub fn step(&mut self, tr: &mut Tracer) -> bool {
        let mut worked = false;
        for id in 0..self.nodes.len() {
            if self.inboxes[id].is_empty() {
                continue;
            }
            worked = true;
            let batch = std::mem::take(&mut self.inboxes[id]);
            for framed in &batch {
                self.nodes[id].deliver(framed, tr);
            }
            // Hand the allocation back so steady state does not
            // reallocate inboxes.
            let mut batch = batch;
            batch.clear();
            if self.inboxes[id].is_empty() {
                self.inboxes[id] = batch;
            }
            self.finish_batch(id, tr);
        }
        worked
    }

    fn finish_batch(&mut self, id: usize, tr: &mut Tracer) {
        let mut out = std::mem::take(&mut self.scratch);
        self.nodes[id].end_batch(tr, &mut out);
        for outbound in out.drain(..) {
            match outbound {
                Outbound::Broadcast(framed) => {
                    for to in 0..self.nodes.len() {
                        if to != id {
                            self.send(to, Rc::clone(&framed));
                        }
                    }
                }
                // Self-sends are dropped, as every runtime does.
                Outbound::Send(to, framed) => {
                    if to != id {
                        self.send(to, framed);
                    }
                }
                Outbound::Reply(framed) => {
                    self.counts.reply_frames += 1;
                    self.counts.reply_bytes += framed.len() as u64;
                    self.client_inbox.push(framed);
                }
            }
        }
        self.scratch = out;
    }

    fn send(&mut self, to: usize, framed: Rc<Vec<u8>>) {
        self.counts.peer_frames += 1;
        self.counts.peer_bytes += framed.len() as u64;
        if !self.silent[to] {
            self.inboxes[to].push(framed);
        }
    }

    /// Takes the reply frames that reached the client.
    pub fn take_replies(&mut self) -> Vec<Rc<Vec<u8>>> {
        std::mem::take(&mut self.client_inbox)
    }

    /// Runs the replicas until no frame is queued anywhere.
    pub fn settle(&mut self, tr: &mut Tracer) {
        while self.step(tr) {}
    }
}

/// What a request's agreed result must be.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exactly these bytes.
    Bytes(Bytes),
    /// A little-endian `u64` with this value (counter results).
    U64(u64),
}

impl Expect {
    fn matches(&self, result: &[u8]) -> bool {
        match self {
            Expect::Bytes(expected) => expected.as_slice() == result,
            Expect::U64(value) => result == value.to_le_bytes(),
        }
    }
}

/// Where the client's operations come from.
pub trait OpSource {
    /// The next operation and the result it must produce, given that
    /// operations execute in the order they are generated.
    fn next_op(&mut self) -> (Bytes, Expect);
}

struct Flight {
    quorum: Quorum,
    expect: Expect,
    issued_at: Instant,
    issued_cpu_ns: u64,
    /// Replies fed to the collector so far.
    fed: usize,
}

/// Why a request counts as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Never reached a verified quorum (the pump ran dry first).
    pub timed_out: u64,
    /// Reached a quorum on a result the oracle did not expect.
    pub wrong_result: u64,
    /// Needed more than f + 1 replies: one of the first f + 1 did not
    /// verify or did not match.
    pub unverified: u64,
}

impl Failures {
    /// All failed requests.
    pub fn total(&self) -> u64 {
        self.timed_out + self.wrong_result + self.unverified
    }
}

/// The closed-loop client: keeps `pipeline` requests outstanding and
/// verifies every reply.
pub struct Client {
    kit: ClientKit,
    pipeline: usize,
    next_ts: u64,
    inflight: BTreeMap<u64, Flight>,
    /// Requests issued over the client's lifetime.
    pub issued: u64,
    /// Requests that reached a verified, expected quorum.
    pub completed: u64,
    /// Requests that did not.
    pub failures: Failures,
    /// Highest view any accepted reply was executed in.
    pub max_view: u64,
    /// Send each `REQUESTS` frame to every replica instead of replica 0
    /// (the PBFT client's retry rule; fault scenarios use it).
    pub broadcast: bool,
    last_frame: Option<Rc<Vec<u8>>>,
}

impl Client {
    /// A client with id `client`, timestamps starting at 1.
    pub fn new(seed: u64, client: u32, pipeline: usize) -> Self {
        Client {
            kit: ClientKit::new(seed, client),
            pipeline: pipeline.max(1),
            next_ts: 1,
            inflight: BTreeMap::new(),
            issued: 0,
            completed: 0,
            failures: Failures::default(),
            max_view: 0,
            broadcast: false,
            last_frame: None,
        }
    }

    /// Requests outstanding.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Reads every reply that arrived; the latencies of completed
    /// requests are appended to `window`.
    fn absorb(&mut self, cluster: &mut Cluster, tr: &mut Tracer, window: &mut Window) {
        if cluster.client_inbox.is_empty() {
            return;
        }
        let span = tr.enter("loadgen.verify", CLIENT);
        for framed in cluster.take_replies() {
            let reply = self.kit.decode_reply(&framed, tr);
            let ts = reply.timestamp();
            // Replies beyond the quorum find no flight and are dropped
            // unread, as `loadgen::driver` drops them.
            let Some(flight) = self.inflight.get_mut(&ts) else {
                continue;
            };
            flight.fed += 1;
            if let Some(result) = flight.quorum.on_reply(&reply) {
                let flight = self.inflight.remove(&ts).expect("flight present");
                window.latencies_ns.push(pump_ns() - flight.issued_cpu_ns);
                window
                    .wall_latencies_ns
                    .push(flight.issued_at.elapsed().as_nanos() as u64);
                self.max_view = self.max_view.max(reply.view());
                if !flight.expect.matches(&result) {
                    self.failures.wrong_result += 1;
                } else if flight.fed > REPLY_QUORUM {
                    self.failures.unverified += 1;
                } else {
                    self.completed += 1;
                }
            }
        }
        tr.exit(span);
    }

    /// Issues up to `budget` requests, as many as the pipeline has
    /// room for, in one frame. Returns how many went out.
    fn issue(
        &mut self,
        budget: u64,
        source: &mut dyn OpSource,
        cluster: &mut Cluster,
        tr: &mut Tracer,
    ) -> u64 {
        let want = (self.pipeline - self.inflight.len()).min(budget as usize);
        if want == 0 {
            return 0;
        }
        let span = tr.enter("loadgen.issue", CLIENT);
        let mut ops = Vec::with_capacity(want);
        let mut expects = Vec::with_capacity(want);
        for _ in 0..want {
            let (op, expect) = source.next_op();
            ops.push(op);
            expects.push(expect);
        }
        let first_ts = self.next_ts;
        self.next_ts += want as u64;
        let framed = Rc::new(self.kit.requests_frame(first_ts, ops, tr));
        let (issued_at, issued_cpu_ns) = (Instant::now(), pump_ns());
        for (expect, ts) in expects.into_iter().zip(first_ts..) {
            let flight = Flight {
                quorum: self.kit.quorum(),
                expect,
                issued_at,
                issued_cpu_ns,
                fed: 0,
            };
            self.inflight.insert(ts, flight);
        }
        tr.exit(span);
        self.last_frame = Some(framed);
        self.transmit(cluster);
        self.issued += want as u64;
        want as u64
    }

    /// Sends the most recent `REQUESTS` frame (again).
    fn transmit(&self, cluster: &mut Cluster) {
        let Some(framed) = &self.last_frame else {
            return;
        };
        if self.broadcast {
            for to in 0..cluster.len() {
                cluster.submit(to, Rc::clone(framed));
            }
        } else {
            cluster.submit(0, Rc::clone(framed));
        }
    }

    /// Re-sends nothing and gives up on everything outstanding.
    fn abandon(&mut self) {
        self.failures.timed_out += self.inflight.len() as u64;
        self.inflight.clear();
    }
}

/// How a run is cut into windows.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Requests per window.
    pub window_requests: u64,
    /// Windows to run.
    pub windows: usize,
    /// Run the calibration kernel after this many requests, at the
    /// next moment no request is in flight.
    pub calib_every: u64,
}

/// What the windows of a run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// The windows that ran to their end.
    pub windows: Vec<Window>,
    /// Traffic during the run.
    pub net: NetCounts,
    /// Requests issued.
    pub requests: u64,
}

/// Drives `client` against `cluster` through the planned windows.
///
/// Each window issues exactly `window_requests` requests, waits for
/// all of them, and lets the replicas settle, so windows share no
/// work. If the pump runs dry while requests are outstanding (no frame
/// queued anywhere), they are counted as timed out and the run ends.
pub fn run(
    cluster: &mut Cluster,
    client: &mut Client,
    source: &mut dyn OpSource,
    plan: &Plan,
    calibrator: &mut Calibrator,
    tr: &mut Tracer,
) -> RunResult {
    let mut result = RunResult::default();
    let mut since_calib = 0u64;
    let net_before = cluster.counts();
    let issued_before = client.issued;
    for _ in 0..plan.windows {
        let mut window = Window::default();
        let completed_before = client.completed;
        let (started, started_cpu_ns) = (Instant::now(), pump_ns());
        let mut to_issue = plan.window_requests;
        let mut root = NONE;
        // Every window opens with one kernel run, so `cal_w` exists.
        let mut calib_due = true;
        let mut dry = false;
        while to_issue > 0 || client.inflight() > 0 {
            client.absorb(cluster, tr, &mut window);
            if calib_due && client.inflight() == 0 {
                // The batch's root span also covers what trails its
                // last reply (commits at the slowest replica, a
                // checkpoint), and the kernel runs with nothing queued.
                cluster.settle(tr);
                tr.exit(root);
                root = NONE;
                window.calib_ns += calibrator.run();
                window.calib_runs += 1;
                calib_due = false;
                since_calib = 0;
            }
            if to_issue > 0 && !calib_due && client.inflight() < client.pipeline {
                tr.exit(root);
                root = tr.enter_batch(ROOT_SPAN);
                let issued = client.issue(to_issue, source, cluster, tr);
                to_issue -= issued;
                since_calib += issued;
                calib_due = since_calib >= plan.calib_every;
            }
            if !cluster.step(tr) && cluster.client_inbox.is_empty() && client.inflight() > 0 {
                dry = true;
                break;
            }
        }
        if dry {
            client.abandon();
        }
        cluster.settle(tr);
        // Replies past the quorum are still read off the "socket".
        cluster.take_replies();
        tr.exit(root);
        window.cpu_ns = pump_ns() - started_cpu_ns;
        window.wall_ns = started.elapsed().as_nanos() as u64;
        window.ops = client.completed - completed_before;
        if dry {
            break;
        }
        result.windows.push(window);
    }
    result.net = cluster.counts().minus(&net_before);
    result.requests = client.issued - issued_before;
    result
}

/// What one fail-over cost.
#[derive(Debug, Clone, Copy)]
pub struct Failover {
    /// First timer expiry → the request's verified quorum, ns.
    pub ns: u64,
    /// Peer frames sent in that interval.
    pub msgs: u64,
}

/// Mutes the view-0 primary, issues one request to everyone, then
/// alternates "fire every live replica's timer" and "let the cluster
/// settle, re-send the request" until the request commits in a later
/// view.
///
/// # Errors
///
/// A description of what went wrong if it never commits, commits in
/// view 0, or fails an oracle.
pub fn failover(
    cluster: &mut Cluster,
    client: &mut Client,
    source: &mut dyn OpSource,
    tr: &mut Tracer,
) -> Result<Failover, String> {
    const MAX_ROUNDS: usize = 32;
    cluster.set_silent(0, true);
    client.broadcast = true;
    let mut window = Window::default();
    client.issue(1, source, cluster, tr);
    cluster.settle(tr);
    client.absorb(cluster, tr, &mut window);
    if client.inflight() == 0 {
        return Err("request committed although the primary is muted".into());
    }
    let started = Instant::now();
    let frames_before = cluster.counts().peer_frames;
    for _ in 0..MAX_ROUNDS {
        for id in 1..cluster.len() {
            cluster.fire_timeout(id, tr);
        }
        cluster.settle(tr);
        client.transmit(cluster);
        cluster.settle(tr);
        client.absorb(cluster, tr, &mut window);
        if client.inflight() == 0 {
            let ns = started.elapsed().as_nanos() as u64;
            if client.failures.total() > 0 {
                return Err(format!("fail-over request failed: {:?}", client.failures));
            }
            if client.max_view == 0 {
                return Err("request committed in view 0 after a fail-over".into());
            }
            return Ok(Failover {
                ns,
                msgs: cluster.counts().peer_frames - frames_before,
            });
        }
    }
    Err(format!("no commit after {MAX_ROUNDS} timer rounds"))
}
