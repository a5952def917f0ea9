//! The deterministic in-memory cluster: real hosting, no I/O.
//!
//! A [`Cluster`] owns one hosting core per replica — the same
//! `host::Host` the socket loop ([`crate::evented`]) drives — and moves
//! **framed bytes** between them through per-destination FIFOs on the
//! calling thread. Every send consults the cluster's seeded
//! [`FaultPlan`] (drop, duplicate, delay against a virtual clock,
//! partitions), and every delivered frame goes through the frame
//! classifier the socket loop uses, so state transfer, the stall
//! timer's arm → ask-peers → accuse sequence, group-commit batching and
//! telemetry run exactly as deployed. There is no thread, no socket and
//! no wall clock here: time is a counter that moves only when
//! [`Cluster::advance`] says so, and the same calls in the same order
//! produce the same frames in the same order, every run.
//!
//! A step that needs a stack-native call (a timeout that bypasses the
//! stall timer, an event the [`Protocol`] adapter filters out) reaches
//! the replica through [`Cluster::drive`] or [`Cluster::replica_mut`].
//!
//! [`Cluster::run`] is one schedule: round-robin, FIFO. A caller that
//! wants another — `splitbft-model`'s seeded explorer, `splitbft-sim`'s
//! timing policy — picks the next frame itself with [`Cluster::waiting`],
//! [`Cluster::peek`] and [`Cluster::deliver`], and plays a compromised
//! replica with [`Cluster::inject`]; the chosen frame takes the path
//! every other frame takes.

use crate::client::requests_frame;
use crate::fault::{FaultDecision, FaultPlan};
use crate::host::{
    classify, ClientSink, Event, Host, Identity, Parsed, PeerSink, RecoveryPolicy,
    MAX_DRAIN_BATCH,
};
use crate::transport::{frame_kind, Protocol, ProtocolOutput};
use splitbft_obs::NodeTelemetry;
use splitbft_types::wire::{frame_message, parse_frame};
use splitbft_types::{ClientId, ReplicaId, Reply, Request};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// One peer frame about to be handed to its destination's hosting core.
#[derive(Debug, Clone, Copy)]
pub struct Delivery<'a> {
    /// The replica that sent it.
    pub from: ReplicaId,
    /// The replica about to receive it.
    pub to: ReplicaId,
    /// Its [`crate::transport::frame_kind`].
    pub kind: u8,
    /// Its payload (the frame minus its header).
    pub payload: &'a [u8],
}

type Frame = Arc<Vec<u8>>;

/// What sits between the hosts: inboxes, the delay lane and the clock.
struct Wire {
    /// Frames waiting at each replica, in arrival order, each with the
    /// identity a socket would have learned from the sender's hello.
    inboxes: Vec<VecDeque<(Identity, Frame)>>,
    /// Crashed replicas: frames toward them are lost.
    down: Vec<bool>,
    /// Frames a delay rule is holding: `(due, from, to, frame)`.
    delayed: Vec<(Duration, ReplicaId, ReplicaId, Frame)>,
    /// Virtual time since the cluster was built.
    now: Duration,
}

impl Wire {
    fn enqueue(&mut self, from: ReplicaId, to: ReplicaId, framed: Frame) {
        if !self.down[to.as_usize()] {
            self.inboxes[to.as_usize()].push_back((Identity::Peer(from), framed));
        }
    }
}

/// The sending side of one replica: its [`PeerSink`].
struct Link<'a> {
    from: ReplicaId,
    faults: &'a mut FaultPlan,
    wire: &'a mut Wire,
}

impl PeerSink for Link<'_> {
    fn broadcast_frame(&mut self, framed: Frame) {
        for to in 0..self.wire.inboxes.len() {
            self.send_frame(ReplicaId(to as u32), Arc::clone(&framed));
        }
    }

    fn send_frame(&mut self, to: ReplicaId, framed: Frame) {
        if !self.is_peer(to) {
            return; // self-send or unknown peer: dropped
        }
        match self.faults.decide(self.from, to) {
            FaultDecision::Deliver => self.wire.enqueue(self.from, to, framed),
            FaultDecision::Drop => {}
            FaultDecision::Duplicate => {
                self.wire.enqueue(self.from, to, Arc::clone(&framed));
                self.wire.enqueue(self.from, to, framed);
            }
            FaultDecision::DeliverAfter(delay) => {
                self.wire.delayed.push((self.wire.now + delay, self.from, to, framed));
            }
        }
    }

    fn is_peer(&self, id: ReplicaId) -> bool {
        id != self.from && id.as_usize() < self.wire.inboxes.len()
    }
}

/// Every reply is collected, whichever client it is for.
impl ClientSink for Vec<Reply> {
    fn reply(&mut self, _to: ClientId, reply: Reply) {
        self.push(reply);
    }
}

/// Rounds [`Cluster::drain`] waits for a draining replica's pending
/// requests: each is a batch, a run and a stall-timer tick.
const DRAIN_ROUNDS: usize = 16;

/// The identity [`Cluster::submit`]'s frames arrive under.
const CLIENT: Identity = Identity::Client(ClientId(0));

/// A cluster of hosted replicas in one thread. See the module docs.
pub struct Cluster<P: Protocol> {
    /// The fault plan every send consults. Inert until rules or
    /// partitions are applied; replace it to pick the decision seed.
    pub faults: FaultPlan,
    /// Every reply any replica has sent to any client, oldest first.
    pub replies: Vec<Reply>,
    hosts: Vec<Host<P>>,
    /// Replicas whose inbox fills but is not processed.
    held: Vec<bool>,
    wire: Wire,
    observer: Box<dyn FnMut(&Delivery<'_>) -> bool>,
}

impl<P: Protocol> Cluster<P> {
    /// Hosts `replicas`, the `i`-th as `ReplicaId(i)`.
    pub fn new(replicas: impl IntoIterator<Item = P>) -> Self {
        let replicas: Vec<P> = replicas.into_iter().collect();
        let n = replicas.len();
        let mut faults = FaultPlan::new(0);
        let mut wire = Wire {
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            down: vec![false; n],
            delayed: Vec::new(),
            now: Duration::ZERO,
        };
        let hosts = replicas
            .into_iter()
            .enumerate()
            .map(|(i, protocol)| {
                let id = ReplicaId(i as u32);
                let mut link = Link { from: id, faults: &mut faults, wire: &mut wire };
                let policy = RecoveryPolicy::for_cluster_of(n);
                Host::new(id, protocol, policy, NodeTelemetry::new(id.0), link.wire.now, &mut link)
            })
            .collect();
        Cluster {
            faults,
            replies: Vec::new(),
            hosts,
            held: vec![false; n],
            wire,
            observer: Box::new(|_| true),
        }
    }

    /// The number of replicas, crashed ones included.
    pub fn n(&self) -> usize {
        self.hosts.len()
    }

    /// Replica `i`'s protocol (a crashed replica's is frozen where it
    /// stopped).
    pub fn replica(&self, i: usize) -> &P {
        self.hosts[i].protocol()
    }

    /// Replica `i`'s protocol, for stack-native calls that produce
    /// nothing to route; see [`Cluster::drive`] for those that do.
    pub fn replica_mut(&mut self, i: usize) -> &mut P {
        self.hosts[i].protocol_mut()
    }

    /// Installs the one observer: called with every peer frame just
    /// before delivery, in delivery order; returning `false` loses the
    /// frame (a hostile environment at the receiver).
    pub fn observe(&mut self, observer: impl FnMut(&Delivery<'_>) -> bool + 'static) {
        self.observer = Box::new(observer);
    }

    /// Delivers `requests` to replica `to` as one client `REQUESTS`
    /// frame, then runs the cluster to quiescence.
    pub fn submit(&mut self, to: usize, requests: &[Request]) {
        if !self.wire.down[to] {
            self.wire.inboxes[to].push_back((CLIENT, Arc::new(requests_frame(requests))));
        }
        self.run();
    }

    /// Calls replica `i`'s protocol directly and routes what it returns
    /// as one drain batch. Nothing is delivered until the next
    /// [`Cluster::run`], so several calls can be staged back to back.
    pub fn drive(&mut self, i: usize, call: impl FnOnce(&mut P) -> Vec<ProtocolOutput<P::Message>>) {
        let outputs = call(self.hosts[i].protocol_mut());
        self.finish(i, outputs);
    }

    /// One period of every live replica's stall timer, then
    /// [`Cluster::run`].
    pub fn tick(&mut self) {
        for i in 0..self.n() {
            if self.wire.down[i] || self.held[i] {
                continue;
            }
            let (host, mut link) = self.node(i);
            let outputs = host.handle(Event::Timeout, link.wire.now, &mut link);
            self.finish(i, outputs);
        }
        self.run();
    }

    /// Moves virtual time forward by `by`, releases the delayed frames
    /// that fall due (earliest first), then [`Cluster::run`].
    pub fn advance(&mut self, by: Duration) {
        self.wire.now += by;
        let now = self.wire.now;
        let (mut due, later): (Vec<_>, Vec<_>) =
            self.wire.delayed.drain(..).partition(|(at, ..)| *at <= now);
        self.wire.delayed = later;
        due.sort_by_key(|(at, ..)| *at);
        for (_, from, to, framed) in due {
            self.wire.enqueue(from, to, framed);
        }
        self.run();
    }

    /// Delivers frames until no live, unheld replica has any waiting.
    /// Each turn a replica drains its inbox as one batch — one
    /// `flush_durable`, outputs routed after it — like one pass of the
    /// socket loop. Returning *is* quiescence: nothing is in flight but
    /// what a delay rule or a hold is keeping.
    pub fn run(&mut self) {
        loop {
            let mut progressed = false;
            for i in 0..self.n() {
                if !self.held[i] && !self.wire.inboxes[i].is_empty() {
                    progressed = true;
                    self.take_batch(i, MAX_DRAIN_BATCH);
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// The number of frames waiting at replica `i`.
    pub fn waiting(&self, i: usize) -> usize {
        self.wire.inboxes[i].len()
    }

    /// Replica `i`'s `nth` waiting peer frame, without delivering it;
    /// `None` past the end of its inbox, for a client frame and for
    /// bytes that do not parse as a frame.
    pub fn peek(&self, i: usize, nth: usize) -> Option<Delivery<'_>> {
        let (identity, framed) = self.wire.inboxes[i].get(nth)?;
        let Identity::Peer(from) = *identity else { return None };
        let (frame, _) = parse_frame(framed).ok()??;
        Some(Delivery { from, to: ReplicaId(i as u32), kind: frame.kind, payload: frame.payload })
    }

    /// Replica `i` handles its `nth` waiting frame alone, as one drain
    /// batch; the other waiting frames keep their order.
    ///
    /// # Panics
    ///
    /// If fewer than `nth + 1` frames are waiting.
    pub fn deliver(&mut self, i: usize, nth: usize) {
        let inbox = &mut self.wire.inboxes[i];
        let chosen = inbox.remove(nth).expect("deliver: nth < waiting(i)");
        inbox.push_front(chosen);
        self.take_batch(i, 1);
    }

    /// Places `msg` in replica `to`'s inbox as a `PROTOCOL` frame from
    /// replica `from`, past the fault plan — the frame a compromised (or
    /// crashed) `from` would have sent. Nothing is delivered until the
    /// next [`Cluster::run`] or [`Cluster::deliver`].
    pub fn inject(&mut self, from: usize, to: usize, msg: &P::Message) {
        let framed = Arc::new(frame_message(frame_kind::PROTOCOL, msg));
        self.wire.enqueue(ReplicaId(from as u32), ReplicaId(to as u32), framed);
    }

    /// Crashes replica `i`: its inbox and every frame sent to it from
    /// now on are lost, and it is never scheduled.
    pub fn crash(&mut self, i: usize) {
        self.wire.down[i] = true;
        self.wire.inboxes[i].clear();
    }

    /// Brings replica `i` back as `protocol` — fresh, or recovered from
    /// whatever the caller kept of it. Like a node restarting from a
    /// data directory it may have missed anything, so its hosting core
    /// opens with a `STATE_REQUEST` round.
    pub fn restart(&mut self, i: usize, protocol: P) {
        self.wire.down[i] = false;
        self.held[i] = false;
        let policy = RecoveryPolicy { at_startup: true, ..RecoveryPolicy::for_cluster_of(self.n()) };
        let (host, mut link) = self.node(i);
        let telemetry = NodeTelemetry::new(link.from.0);
        *host = Host::new(link.from, protocol, policy, telemetry, link.wire.now, &mut link);
    }

    /// Drains replica `i` gracefully, as `SIGTERM` drains a node: it
    /// stops admitting client requests, and the first batch that ends
    /// with nothing pending seals a checkpoint and flushes its WAL
    /// ([`Protocol::drain_seal`], then [`Protocol::flush_durable`]).
    /// Runs the cluster, with a stall-timer [`Cluster::tick`] between
    /// rounds so a pending request can still be ordered, until the
    /// drain completes or 16 rounds run out. Returns whether it
    /// completed; the replica keeps running either way, so the caller
    /// decides when to [`Cluster::crash`] it.
    pub fn drain(&mut self, i: usize) -> bool {
        let telemetry = Arc::clone(self.hosts[i].telemetry());
        telemetry.request_drain();
        for _ in 0..DRAIN_ROUNDS {
            let (host, mut link) = self.node(i);
            let outputs = host.handle(Event::Drain, link.wire.now, &mut link);
            self.finish(i, outputs);
            self.run();
            if telemetry.drained() {
                return true;
            }
            self.tick();
        }
        telemetry.drained()
    }

    /// Replica `i`'s telemetry: its metrics and the event journal its
    /// hosting core writes (state transfer applied, checkpoint restored,
    /// view changes, drain). A restart starts a fresh one.
    pub fn telemetry(&self, i: usize) -> &NodeTelemetry {
        self.hosts[i].telemetry()
    }

    /// Stops scheduling replica `i`: frames keep arriving in its inbox.
    pub fn hold(&mut self, i: usize) {
        self.held[i] = true;
    }

    /// Schedules replica `i` again; the next [`Cluster::run`] works
    /// through whatever arrived meanwhile.
    pub fn release(&mut self, i: usize) {
        self.held[i] = false;
    }

    /// Replica `i` handles the first `limit` frames of its inbox (fewer
    /// if fewer wait) as one drain batch.
    fn take_batch(&mut self, i: usize, limit: usize) {
        let to = ReplicaId(i as u32);
        let mut outputs = Vec::new();
        for _ in 0..limit {
            let Some((identity, framed)) = self.wire.inboxes[i].pop_front() else { break };
            let Ok(Some((frame, _))) = parse_frame(&framed) else { continue };
            if let Identity::Peer(from) = identity {
                let delivery = Delivery { from, to, kind: frame.kind, payload: frame.payload };
                if !(self.observer)(&delivery) {
                    continue;
                }
            }
            if let Parsed::Event(event) = classify::<P>(frame.kind, frame.payload, identity) {
                let (host, mut link) = self.node(i);
                outputs.extend(host.handle(event, link.wire.now, &mut link));
            }
        }
        self.finish(i, outputs);
    }

    /// Closes replica `i`'s batch: fsync point, routing, telemetry.
    fn finish(&mut self, i: usize, outputs: Vec<ProtocolOutput<P::Message>>) {
        let from = ReplicaId(i as u32);
        let mut link = Link { from, faults: &mut self.faults, wire: &mut self.wire };
        self.hosts[i].finish_batch(outputs, &mut link, &mut self.replies);
    }

    /// Replica `i`'s hosting core and its sending side.
    fn node(&mut self, i: usize) -> (&mut Host<P>, Link<'_>) {
        let from = ReplicaId(i as u32);
        let link = Link { from, faults: &mut self.faults, wire: &mut self.wire };
        (&mut self.hosts[i], link)
    }
}
