//! Adapters driving the real protocol implementations under the DES.
//!
//! Each adapter turns one delivered event into a [`StepResult`]: the
//! outbound messages/replies plus a list of *usage* entries — virtual
//! compute assigned to named threads. The scheduler in
//! [`crate::experiments`] serializes usage per thread, which is where
//! saturation comes from.

use crate::des::Ns;
use crate::estimate;
use splitbft_app::Application;
use splitbft_core::{ReplicaEvent, SplitBftReplica};
use splitbft_pbft::{Action, Replica as PbftReplica};
use splitbft_tee::CostModel;
use splitbft_types::{
    ClientId, CompartmentKind, ConsensusMessage, Reply, Request,
};

/// Which thread a usage entry runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadSel {
    /// A specific thread index.
    Fixed(usize),
    /// Any thread of the node's worker pool (scheduler picks the least
    /// busy).
    Pool,
}

/// One unit of virtual compute within a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsageEntry {
    /// Which thread runs it.
    pub sel: ThreadSel,
    /// How long it runs.
    pub ns: Ns,
    /// `true` if it consumes the previous entry's output and must wait
    /// for it (e.g. the protocol core waits for authentication; a
    /// loopback ecall waits for the ecall that produced its input).
    /// Independent entries — the broker handing one network message to
    /// several enclave threads — start in parallel.
    pub after_prev: bool,
}

/// The timed outcome of one protocol step.
#[derive(Debug, Default)]
pub struct StepResult {
    /// Virtual compute, in issue order.
    pub usage: Vec<UsageEntry>,
    /// Messages to broadcast to all other replicas.
    pub sends: Vec<ConsensusMessage>,
    /// Replies to clients.
    pub replies: Vec<(ClientId, Reply)>,
    /// Per-ecall virtual latencies (SplitBFT only; Figure 4 data).
    pub ecalls: Vec<(CompartmentKind, Ns)>,
}

/// A protocol node the simulator can drive.
pub trait ProtocolNode: Send {
    /// Processes a delivered protocol message.
    fn on_message(&mut self, msg: ConsensusMessage) -> StepResult;
    /// Processes an ordered client batch (primary only).
    fn on_client_batch(&mut self, requests: Vec<Request>) -> StepResult;
    /// Number of threads this node models.
    fn thread_count(&self) -> usize;
    /// The worker-pool thread indices, if the node has a pool.
    fn pool(&self) -> Option<std::ops::Range<usize>>;
    /// The thread whose completion releases an outbound message of this
    /// type.
    fn send_thread(&self, msg: &ConsensusMessage) -> usize;
    /// The thread whose completion releases replies.
    fn reply_thread(&self) -> usize;
}

// ---------------------------------------------------------------------------
// SplitBFT
// ---------------------------------------------------------------------------

/// Thread layout of a SplitBFT node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitThreading {
    /// One dedicated ecall thread per enclave (the paper's default).
    PerEnclave,
    /// A single thread performs all ecalls (the Figure 3a ablation).
    Single,
}

/// A SplitBFT replica under the simulator.
pub struct SplitBftNode<A: Application> {
    replica: SplitBftReplica<A>,
    cost: CostModel,
    threading: SplitThreading,
    /// Prepare votes seen per slot — past the 2f quorum the Confirmation
    /// enclave early-drops without verifying (cheap ecall).
    prepares_seen: std::collections::HashMap<u64, u32>,
    /// Commit votes seen per slot — past 2f + 1 the Execution enclave
    /// early-drops.
    commits_seen: std::collections::HashMap<u64, u32>,
}

impl<A: Application> SplitBftNode<A> {
    /// Wraps a replica with the given cost model and thread layout.
    pub fn new(replica: SplitBftReplica<A>, cost: CostModel, threading: SplitThreading) -> Self {
        SplitBftNode {
            replica,
            cost,
            threading,
            prepares_seen: Default::default(),
            commits_seen: Default::default(),
        }
    }

    /// Read access to the wrapped replica.
    pub fn replica(&self) -> &SplitBftReplica<A> {
        &self.replica
    }

    fn thread_of(&self, kind: CompartmentKind) -> usize {
        match self.threading {
            SplitThreading::PerEnclave => kind.index(),
            SplitThreading::Single => 0,
        }
    }

    /// The compartment that *originates* each message type — used to
    /// reconstruct the local ecall cascade from observed broadcasts.
    fn origin_of(msg: &ConsensusMessage) -> CompartmentKind {
        match msg {
            ConsensusMessage::PrePrepare(_) | ConsensusMessage::NewView(_) => {
                CompartmentKind::Preparation
            }
            ConsensusMessage::Prepare(_) => CompartmentKind::Preparation,
            ConsensusMessage::Commit(_) | ConsensusMessage::ViewChange(_) => {
                CompartmentKind::Confirmation
            }
            ConsensusMessage::Checkpoint(_) => CompartmentKind::Execution,
        }
    }

    fn route(msg: &ConsensusMessage) -> &'static [CompartmentKind] {
        use CompartmentKind::*;
        match msg {
            ConsensusMessage::PrePrepare(_)
            | ConsensusMessage::Checkpoint(_)
            | ConsensusMessage::NewView(_) => &[Preparation, Confirmation, Execution],
            ConsensusMessage::Prepare(_) => &[Confirmation],
            ConsensusMessage::Commit(_) => &[Execution],
            ConsensusMessage::ViewChange(_) => &[Preparation],
        }
    }

    /// Builds the usage entries for one broker step: the ecall cascade is
    /// reconstructed from the routing table plus the observed loopback
    /// broadcasts, each entry charged boundary + estimated compute.
    fn build_step(
        &mut self,
        incoming: Option<&ConsensusMessage>,
        batch: Option<&[Request]>,
        events: Vec<ReplicaEvent>,
    ) -> StepResult {
        let mut step = StepResult::default();
        // (kind, ns, depends-on-previous)
        let mut cascade: Vec<(CompartmentKind, Ns, bool)> = Vec::new();

        let cost = &self.cost;
        let charge = |cascade: &mut Vec<(CompartmentKind, Ns, bool)>,
                      kind: CompartmentKind,
                      msg: &ConsensusMessage,
                      after_prev: bool| {
            let len = splitbft_types::wire::encode(msg).len();
            let ns = cost.ecall_boundary_ns(len, 0)
                + estimate::splitbft_compute(kind, msg, &[], cost);
            cascade.push((kind, ns, after_prev));
        };

        // First hop: the broker hands the incoming message to each
        // subscribed enclave thread in parallel.
        if let Some(msg) = incoming {
            for kind in Self::route(msg) {
                charge(&mut cascade, *kind, msg, false);
            }
        }
        if let Some(requests) = batch {
            let len: usize = requests.iter().map(estimate::request_wire_len).sum();
            let ns = self.cost.ecall_boundary_ns(len, 0)
                + estimate::splitbft_client_batch_compute(requests, &self.cost);
            cascade.push((CompartmentKind::Preparation, ns, false));
        }

        // Loopback: every broadcast re-enters the local sibling
        // compartments, *after* the ecall that produced it.
        for event in &events {
            if let ReplicaEvent::Broadcast(msg) = event {
                let origin = Self::origin_of(msg);
                for kind in Self::route(msg) {
                    if *kind != origin {
                        charge(&mut cascade, *kind, msg, true);
                    }
                }
            }
        }
        // Local votes count toward the early-drop quorums too.
        for event in &events {
            if let ReplicaEvent::Broadcast(ConsensusMessage::Commit(c)) = event {
                *self.commits_seen.entry(c.payload.seq.0).or_insert(0) += 1;
            }
            if let ReplicaEvent::Broadcast(ConsensusMessage::Prepare(p)) = event {
                *self.prepares_seen.entry(p.payload.seq.0).or_insert(0) += 1;
            }
        }

        // Execution extras: per executed request and per sealed block.
        let executed =
            events.iter().filter(|e| matches!(e, ReplicaEvent::Executed { .. })).count() as u64;
        let persisted =
            events.iter().filter(|e| matches!(e, ReplicaEvent::Persist(_))).count() as u64;
        if executed + persisted > 0 {
            let extra = executed * self.cost.exec_request_ns
                + persisted * self.cost.block_seal_ns;
            if let Some(entry) = cascade
                .iter_mut()
                .rev()
                .find(|(kind, _, _)| *kind == CompartmentKind::Execution)
            {
                entry.1 += extra;
            } else {
                cascade.push((CompartmentKind::Execution, extra, true));
            }
        }

        for (kind, ns, after_prev) in &cascade {
            step.usage.push(UsageEntry {
                sel: ThreadSel::Fixed(self.thread_of(*kind)),
                ns: *ns,
                after_prev: *after_prev,
            });
            step.ecalls.push((*kind, *ns));
        }
        for event in events {
            match event {
                ReplicaEvent::Broadcast(msg) => step.sends.push(msg),
                ReplicaEvent::Reply { to, reply } => step.replies.push((to, reply)),
                _ => {}
            }
        }
        step
    }
}

impl<A: Application> ProtocolNode for SplitBftNode<A> {
    fn on_message(&mut self, msg: ConsensusMessage) -> StepResult {
        // Track redundant votes: they take the early-drop path inside the
        // enclave (no signature verification), so they are charged only
        // boundary + bookkeeping.
        let redundant = match &msg {
            ConsensusMessage::Prepare(p) => {
                let seen = self.prepares_seen.entry(p.payload.seq.0).or_insert(0);
                *seen += 1;
                *seen > self.replica.config().prepare_quorum() as u32
            }
            ConsensusMessage::Commit(c) => {
                let seen = self.commits_seen.entry(c.payload.seq.0).or_insert(0);
                *seen += 1;
                *seen > self.replica.config().quorum() as u32
            }
            _ => false,
        };
        if self.prepares_seen.len() > 8192 {
            self.prepares_seen.clear();
            self.commits_seen.clear();
        }
        let events = self.replica.on_network_message(msg.clone());
        if redundant && events.is_empty() {
            // Early drop: one cheap ecall into the target compartment.
            let kind = Self::route(&msg)[0];
            let len = splitbft_types::wire::encode(&msg).len();
            let ns = self.cost.ecall_boundary_ns(len, 0) + self.cost.handler_ns / 4;
            let mut step = StepResult::default();
            step.usage.push(UsageEntry {
                sel: ThreadSel::Fixed(self.thread_of(kind)),
                ns,
                after_prev: false,
            });
            step.ecalls.push((kind, ns));
            return step;
        }
        self.build_step(Some(&msg), None, events)
    }

    fn on_client_batch(&mut self, requests: Vec<Request>) -> StepResult {
        let events = self.replica.on_client_batch(requests.clone());
        self.build_step(None, Some(&requests), events)
    }

    fn thread_count(&self) -> usize {
        match self.threading {
            SplitThreading::PerEnclave => 3,
            SplitThreading::Single => 1,
        }
    }

    fn pool(&self) -> Option<std::ops::Range<usize>> {
        None
    }

    fn send_thread(&self, msg: &ConsensusMessage) -> usize {
        self.thread_of(Self::origin_of(msg))
    }

    fn reply_thread(&self) -> usize {
        self.thread_of(CompartmentKind::Execution)
    }
}

// ---------------------------------------------------------------------------
// PBFT baseline
// ---------------------------------------------------------------------------

/// Worker threads in the PBFT baseline's auth pool ("a pool of 4 worker
/// threads using the work stealing thread pool").
pub const PBFT_WORKERS: usize = 4;

/// The PBFT baseline under the simulator.
pub struct PbftNode<A: Application> {
    replica: PbftReplica<A>,
    cost: CostModel,
}

impl<A: Application> PbftNode<A> {
    /// Wraps a baseline replica.
    pub fn new(replica: PbftReplica<A>, cost: CostModel) -> Self {
        PbftNode { replica, cost }
    }

    /// Read access to the wrapped replica.
    pub fn replica(&self) -> &PbftReplica<A> {
        &self.replica
    }

    fn convert(&self, compute: estimate::PbftCompute, actions: Vec<Action>) -> StepResult {
        let mut step = StepResult::default();
        step.usage.push(UsageEntry { sel: ThreadSel::Pool, ns: compute.auth_ns, after_prev: false });
        // The protocol core handles the message only after authentication.
        step.usage.push(UsageEntry {
            sel: ThreadSel::Fixed(PBFT_WORKERS),
            ns: compute.core_ns,
            after_prev: true,
        });
        for action in actions {
            match action {
                Action::Broadcast { msg } => step.sends.push(msg),
                Action::Send { msg, .. } => step.sends.push(msg),
                Action::SendReply { to, reply } => step.replies.push((to, reply)),
                _ => {}
            }
        }
        step
    }
}

impl<A: Application> ProtocolNode for PbftNode<A> {
    fn on_message(&mut self, msg: ConsensusMessage) -> StepResult {
        let actions = self.replica.on_message(msg.clone()).unwrap_or_default();
        let compute = estimate::pbft_compute(&msg, &actions, &self.cost);
        self.convert(compute, actions)
    }

    fn on_client_batch(&mut self, requests: Vec<Request>) -> StepResult {
        let compute = estimate::pbft_client_batch_compute(&requests, &self.cost);
        let actions = self.replica.on_client_batch(requests);
        self.convert(compute, actions)
    }

    fn thread_count(&self) -> usize {
        PBFT_WORKERS + 1
    }

    fn pool(&self) -> Option<std::ops::Range<usize>> {
        Some(0..PBFT_WORKERS)
    }

    fn send_thread(&self, _msg: &ConsensusMessage) -> usize {
        PBFT_WORKERS // the protocol core releases outbound messages
    }

    fn reply_thread(&self) -> usize {
        PBFT_WORKERS
    }
}
