//! The simulation driver: one call = one data point of the paper's
//! evaluation.
//!
//! [`run_point`] hosts four real replicas on a [`Cluster`] and plays the
//! paper's testbed around it in virtual time. The cluster holds every
//! frame; the simulator holds only *when* each waiting frame arrives, the
//! requests and replies on the client links and the primary's batcher,
//! and each step hands over whichever comes first — a frame with
//! [`Cluster::deliver`], a client batch with [`Cluster::drive`]. It never
//! runs or ticks the cluster.
//!
//! Each step is charged to the stepping replica's busy-until clocks, one
//! per thread, and a frame it sent leaves when the thread that produced
//! it is free. What a step costs is the only thing that differs between
//! the systems; see `splitbft` and `pbft` below.

use crate::estimate::{self, EcallWork, Input};
use crate::metrics::Metrics;
pub use crate::workload::AppKind;
use crate::workload::SimClient;
use crate::Ns;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splitbft_app::{Application, Blockchain, KeyValueStore};
use splitbft_core::SplitBftReplica;
use splitbft_net::lockstep::{Cluster, Delivery};
use splitbft_net::{Protocol, ProtocolGauges};
use splitbft_pbft::{Batcher, Replica as PbftReplica};
use splitbft_tee::{CostModel, ExecMode, TransitionStats};
use splitbft_types::wire::{decode, Encode, FRAME_HEADER_LEN};
use splitbft_types::{
    BatchConfig, ClusterConfig, CompartmentKind, ConsensusMessage, ReplicaId, Reply, Request,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Which system is being measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// SplitBFT with hardware-cost enclaves and one thread per enclave.
    SplitBft,
    /// SplitBFT in SGX *simulation mode* (free transitions).
    SplitBftSimMode,
    /// SplitBFT with a single thread performing all ecalls.
    SplitBftSingleThread,
    /// The plain PBFT baseline.
    Pbft,
}

impl SystemKind {
    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::SplitBft => "SplitBFT",
            SystemKind::SplitBftSimMode => "SplitBFT Simulation",
            SystemKind::SplitBftSingleThread => "SplitBFT Single Thread",
            SystemKind::Pbft => "PBFT",
        }
    }
}

/// One simulated configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The system under test.
    pub system: SystemKind,
    /// The replicated application.
    pub app: AppKind,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Batching policy (the paper: unbatched, or 200 requests / 10 ms).
    pub batch: BatchConfig,
    /// Outstanding requests per client (1 unbatched, 40 batched).
    pub outstanding: usize,
    /// Request payload bytes (the paper uses 10).
    pub payload: usize,
    /// Total virtual run time.
    pub duration_ns: Ns,
    /// Measurement starts after this warm-up.
    pub warmup_ns: Ns,
    /// PRNG seed (network jitter, key derivation).
    pub seed: u64,
}

impl SimConfig {
    /// The paper's unbatched setup for `clients` clients.
    pub fn unbatched(system: SystemKind, app: AppKind, clients: usize) -> Self {
        SimConfig {
            system,
            app,
            clients,
            batch: BatchConfig::unbatched(),
            outstanding: 1,
            payload: 10,
            duration_ns: 600_000_000,
            warmup_ns: 150_000_000,
            seed: 1,
        }
    }

    /// The paper's batched setup (batch = 200 or 10 ms, 40 outstanding).
    pub fn batched(system: SystemKind, app: AppKind, clients: usize) -> Self {
        SimConfig {
            batch: BatchConfig::paper_batched(),
            outstanding: 40,
            duration_ns: 400_000_000,
            warmup_ns: 100_000_000,
            ..Self::unbatched(system, app, clients)
        }
    }
}

/// The measured outcome of one configuration.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Throughput over the measurement window (op/s).
    pub throughput_ops: f64,
    /// Mean request latency (ms).
    pub mean_latency_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_latency_ms: f64,
    /// Requests completed in the window.
    pub completed: usize,
    /// Mean ecall time per request on the leader, per compartment
    /// `[prep, conf, exec]` in µs (Figure 4, unbatched interpretation).
    pub ecall_us_per_request: [f64; 3],
    /// Mean ecall time per ordered batch on the leader, per compartment
    /// (Figure 4, batched interpretation).
    pub ecall_us_per_batch: [f64; 3],
}

const N_REPLICAS: usize = 4;

/// The primary of view 0; the simulated runs never change view.
const PRIMARY: usize = 0;

/// Worker threads in the PBFT baseline's auth pool ("a pool of 4 worker
/// threads using the work stealing thread pool"); its protocol core is
/// the thread after them.
const PBFT_WORKERS: usize = 4;

/// Runs one configuration to completion and reports its metrics.
pub fn run_point(cfg: &SimConfig) -> SimResult {
    match cfg.app {
        AppKind::Kvs => run_app(cfg, KeyValueStore::new, |_| 0),
        AppKind::Blockchain => run_app(cfg, Blockchain::new, Blockchain::height),
    }
}

/// [`run_point`] for one application; `blocks` reads how many blocks a
/// replica's application has sealed so far.
fn run_app<A: Application + 'static>(
    cfg: &SimConfig,
    app: fn() -> A,
    blocks: fn(&A) -> u64,
) -> SimResult {
    let (mode, threads) = match cfg.system {
        SystemKind::Pbft => return pbft(cfg, app, blocks),
        SystemKind::SplitBft => (ExecMode::Hardware, 3),
        SystemKind::SplitBftSimMode => (ExecMode::Simulation, 3),
        SystemKind::SplitBftSingleThread => (ExecMode::Hardware, 1),
    };
    splitbft(cfg, app, blocks, mode, threads)
}

/// The simulated cluster: four replicas, `f` = 1.
fn config() -> ClusterConfig {
    ClusterConfig::new(N_REPLICAS).expect("4 replicas")
}

/// What a SplitBFT replica's last step left behind, for the next one's
/// deltas.
#[derive(Default)]
struct Seen {
    stats: [TransitionStats; 3],
    blocks: u64,
    /// Slots above its last executed one it has sent its Commit for: the
    /// Confirmation enclave early-drops any further Prepare for them.
    commits_sent: BTreeSet<u64>,
}

/// SplitBFT: one clock per compartment (`threads` = 3) or one for all
/// (`threads` = 1). A step charges each compartment the ecalls and
/// boundary time its enclave host counted during the step, plus
/// [`estimate::splitbft_compute`]'s handler compute.
fn splitbft<A: Application + 'static>(
    cfg: &SimConfig,
    app: fn() -> A,
    blocks: fn(&A) -> u64,
    mode: ExecMode,
    threads: usize,
) -> SimResult {
    let cost = match mode {
        ExecMode::Hardware => CostModel::paper_calibrated(),
        ExecMode::Simulation => CostModel::simulation_mode(),
    };
    let cluster = Cluster::new((0..N_REPLICAS as u32).map(|i| {
        SplitBftReplica::new(config(), ReplicaId(i), cfg.seed, app(), mode, cost.clone())
    }));
    let thread = move |kind: CompartmentKind| if threads == 1 { 0 } else { kind.index() };
    let mut seen: Vec<Seen> = (0..N_REPLICAS).map(|_| Seen::default()).collect();
    let charge = move |step: &Step<'_, SplitBftReplica<A>>, clocks: &mut [Ns]| {
        let (replica, seen) = (step.replica, &mut seen[step.at]);
        let redundant = match &step.input {
            Input::Message(ConsensusMessage::Commit(c)) => c.payload.seq.0 <= step.progress,
            Input::Message(ConsensusMessage::Prepare(p)) => {
                p.payload.seq.0 <= step.progress || seen.commits_sent.contains(&p.payload.seq.0)
            }
            _ => false,
        };
        let height = blocks(replica.app());
        let sealed = height - std::mem::replace(&mut seen.blocks, height);
        let mut spent = [0; 3];
        for kind in CompartmentKind::ALL {
            let now = replica.stats(kind);
            let was = std::mem::replace(&mut seen.stats[kind.index()], now);
            let exec = kind == CompartmentKind::Execution;
            let work = EcallWork {
                ecalls: now.ecalls - was.ecalls,
                signed: step.sent.iter().filter(|m| estimate::splitbft_signer(m) == kind).count()
                    as u64,
                executed: if exec { step.replies } else { 0 },
                sealed: if exec { sealed } else { 0 },
            };
            // An enclave's outputs go through the host's ocall queue, which
            // the broker drains after the ecall returns: their bytes cross
            // with the return, not with a transition of their own (the
            // paper's KVS pays one ocall per batch, not two per request).
            let queued = (now.ocalls - was.ocalls) * cost.cycles_to_ns(cost.transition_cycles);
            spent[kind.index()] = now.boundary_ns - was.boundary_ns - queued
                + estimate::splitbft_compute(kind, &step.input, redundant, work, &cost);
            run_on(clocks, thread(kind), step.now, spent[kind.index()]);
        }
        seen.commits_sent.extend(step.sent.iter().filter_map(|msg| match msg {
            ConsensusMessage::Commit(c) => Some(c.payload.seq.0),
            _ => None,
        }));
        seen.commits_sent = seen.commits_sent.split_off(&(replica.progress() + 1));
        spent
    };
    let sender = move |msg: Option<&ConsensusMessage>| {
        thread(msg.map_or(CompartmentKind::Execution, estimate::splitbft_signer))
    };
    Sim::new(cfg, cluster, threads, charge, sender).run()
}

/// PBFT: a step's authentication runs on the least busy pool worker, then
/// its protocol work on the core thread, which also sends everything.
fn pbft<A: Application + 'static>(
    cfg: &SimConfig,
    app: fn() -> A,
    blocks: fn(&A) -> u64,
) -> SimResult {
    let replica = |i| PbftReplica::new(config(), ReplicaId(i), cfg.seed, app());
    let cluster = Cluster::new((0..N_REPLICAS as u32).map(replica));
    let cost = CostModel::paper_calibrated();
    let mut heights = [0; N_REPLICAS];
    let charge = move |step: &Step<'_, PbftReplica<A>>, clocks: &mut [Ns]| {
        let height = blocks(step.replica.app());
        let sealed = height - std::mem::replace(&mut heights[step.at], height);
        let sent = step.sent.len() as u64;
        let compute = estimate::pbft_compute(&step.input, sent, step.replies, sealed, &cost);
        let worker = (0..PBFT_WORKERS).min_by_key(|&w| clocks[w]).expect("a worker");
        let authenticated = run_on(clocks, worker, step.now, compute.auth_ns);
        run_on(clocks, PBFT_WORKERS, authenticated, compute.core_ns);
        [0; 3]
    };
    Sim::new(cfg, cluster, PBFT_WORKERS + 1, charge, |_: Option<&ConsensusMessage>| PBFT_WORKERS)
        .run()
}

/// Runs `ns` of work on `thread` once it is free and `ready` has passed;
/// returns when it ends.
fn run_on(clocks: &mut [Ns], thread: usize, ready: Ns, ns: Ns) -> Ns {
    clocks[thread] = clocks[thread].max(ready) + ns;
    clocks[thread]
}

/// What one step at a replica visibly did, for its system to charge.
struct Step<'a, P> {
    /// When it was taken.
    now: Ns,
    /// Which replica took it.
    at: usize,
    /// That replica, after the step.
    replica: &'a P,
    /// What it was handed.
    input: Input,
    /// Its `Protocol::progress` before the step.
    progress: u64,
    /// The messages it sent, one per broadcast.
    sent: Vec<ConsensusMessage>,
    /// The replies it sent.
    replies: u64,
}

/// Something on its way, due at a known time.
enum Arrival {
    /// A frame waiting in this replica's inbox; the cluster holds it.
    Frame(usize),
    /// A request on its way to the primary.
    Request(Request),
    /// A reply on its way to its client.
    Reply(Reply),
}

/// The timing policy around one cluster. `charge` applies a step's cost
/// to the replica's clocks and returns the ecall time it spent per
/// compartment; `sender` names the thread that sends a message (`None`:
/// a reply).
struct Sim<'c, P: Protocol, C, S> {
    cfg: &'c SimConfig,
    cluster: Cluster<P>,
    charge: C,
    sender: S,
    /// Each replica's busy-until clocks, one per thread.
    clocks: Vec<Vec<Ns>>,
    /// Everything on its way, by arrival time and then send order.
    arrivals: BTreeMap<(Ns, u64), Arrival>,
    /// How many things have been sent: the next one's send order.
    sent: u64,
    /// The send order of each frame waiting at replica `i`, in inbox
    /// order — which is send order, so a frame's position is a binary
    /// search away.
    inboxes: Vec<VecDeque<u64>>,
    /// Client→primary connections are FIFO (TCP in the paper's testbed):
    /// jitter must not reorder one client's requests, or a timestamp
    /// regression would make replicas silently drop the older request.
    last_arrival: Vec<Ns>,
    clients: Vec<SimClient>,
    batcher: Batcher,
    /// Closed batches not yet ordered, oldest first: a primary whose
    /// watermark window is full refuses a batch, and the batch waits —
    /// with every later one behind it — for the window to move.
    batches: VecDeque<Vec<Request>>,
    /// The primary's stable checkpoint when it refused the front batch.
    refused_at: Option<u64>,
    rng: StdRng,
    metrics: Metrics,
}

impl<'c, P, C, S> Sim<'c, P, C, S>
where
    P: Protocol<Message = ConsensusMessage>,
    C: FnMut(&Step<'_, P>, &mut [Ns]) -> [Ns; 3],
    S: Fn(Option<&ConsensusMessage>) -> usize,
{
    fn new(cfg: &'c SimConfig, cluster: Cluster<P>, threads: usize, charge: C, sender: S) -> Self {
        Sim {
            cfg,
            cluster,
            charge,
            sender,
            clocks: vec![vec![0; threads]; N_REPLICAS],
            arrivals: BTreeMap::new(),
            sent: 0,
            inboxes: vec![VecDeque::new(); N_REPLICAS],
            last_arrival: vec![0; cfg.clients],
            clients: (0..cfg.clients)
                .map(|i| SimClient::new(&config(), i, cfg.seed, cfg.app, cfg.payload))
                .collect(),
            batcher: Batcher::new(cfg.batch),
            batches: VecDeque::new(),
            refused_at: None,
            rng: StdRng::seed_from_u64(cfg.seed),
            metrics: Metrics::new(cfg.warmup_ns, cfg.duration_ns),
        }
    }

    fn run(mut self) -> SimResult {
        // Prime the closed loop, lightly staggered so arrival order is
        // deterministic but not fully synchronized.
        for client in 0..self.cfg.clients {
            for k in 0..self.cfg.outstanding {
                self.issue(client, (client as u64) * 997 + (k as u64) * 10_007);
            }
        }
        let horizon = self.cfg.duration_ns + self.cfg.duration_ns / 2;
        loop {
            let due = self.arrivals.first_key_value().map(|(&(at, _), _)| at);
            let flush = self.batcher.next_deadline_us().map(|us| us * 1_000);
            let Some(now) = due.into_iter().chain(flush).min().filter(|&t| t <= horizon) else {
                break;
            };
            if flush == Some(now) {
                let batch = self.batcher.poll(now / 1_000).expect("the deadline passed");
                self.order(now, Some(batch));
                continue;
            }
            let ((_, id), arrival) = self.arrivals.pop_first().expect("an arrival");
            match arrival {
                Arrival::Frame(at) => self.deliver(now, at, id),
                Arrival::Request(request) => {
                    if let Some(batch) = self.batcher.push(request, now / 1_000) {
                        self.order(now, Some(batch));
                    }
                }
                Arrival::Reply(reply) => self.on_reply(now, &reply),
            }
        }
        let m = &self.metrics;
        SimResult {
            throughput_ops: m.throughput_ops(),
            mean_latency_ms: m.mean_latency_ms(),
            p99_latency_ms: m.percentile_latency_ms(99.0),
            completed: m.completed(),
            ecall_us_per_request: m.ecall_profile_us_per_request(),
            ecall_us_per_batch: m.ecall_profile_us_per_batch(),
        }
    }

    /// Client `client` issues a request at `now`; it reaches the primary
    /// one link delay later, behind the client's previous one.
    fn issue(&mut self, client: usize, now: Ns) {
        let request = self.clients[client].issue(now);
        let delay = link_delay_ns(request.encoded_len(), &mut self.rng);
        let at = (now + delay).max(self.last_arrival[client] + 1);
        self.last_arrival[client] = at;
        self.send(at, Arrival::Request(request));
    }

    /// Puts `what` on its way, due at `at`; returns its send order.
    fn send(&mut self, at: Ns, what: Arrival) -> u64 {
        let id = self.sent;
        self.sent += 1;
        self.arrivals.insert((at, id), what);
        id
    }

    fn on_reply(&mut self, now: Ns, reply: &Reply) {
        let client = reply.request.client.as_usize();
        if let Some(latency) = self.clients[client].on_reply(now, reply) {
            self.metrics.record_completion(now, latency);
            if now < self.cfg.duration_ns {
                self.issue(client, now); // wind down: stop issuing, let the tail drain
            }
        }
    }

    /// Queues `batch` (if any) behind the batches not yet ordered, then
    /// offers the primary the oldest ones until it refuses one — unless
    /// it refused the oldest already and its window has not moved since.
    fn order(&mut self, now: Ns, batch: Option<Vec<Request>>) {
        self.batches.extend(batch);
        while let Some(batch) = self.batches.front().cloned() {
            if self.refused_at.is_some_and(|at| at == self.stable_checkpoint()) {
                return;
            }
            let input = Input::Batch(batch.clone());
            let offer = |c: &mut Cluster<P>| c.drive(PRIMARY, |p| p.on_client_requests(batch));
            if !self.step(now, PRIMARY, input, offer) {
                self.refused_at = Some(self.stable_checkpoint());
                return;
            }
            self.refused_at = None;
            self.batches.pop_front();
            self.metrics.batches += u64::from(self.metrics.in_window(now));
        }
    }

    fn stable_checkpoint(&self) -> u64 {
        let mut gauges = ProtocolGauges::default();
        self.cluster.replica(PRIMARY).probe_gauges(&mut gauges);
        gauges.stable_checkpoint.iter().sum()
    }

    /// Replica `at` handles the waiting frame sent `id`-th.
    fn deliver(&mut self, now: Ns, at: usize, id: u64) {
        let nth = self.inboxes[at].binary_search(&id).expect("a waiting frame");
        self.inboxes[at].remove(nth);
        let msg = message(&self.cluster.peek(at, nth).expect("a waiting frame"));
        self.step(now, at, Input::Message(msg), |c| c.deliver(at, nth));
        if at == PRIMARY {
            self.order(now, None);
        }
    }

    /// Replica `at` takes one step at `now` — `act` hands it `input` —
    /// which is charged to its clocks; what it sent goes on the wire.
    /// Returns whether it sent any frame.
    fn step(
        &mut self,
        now: Ns,
        at: usize,
        input: Input,
        act: impl FnOnce(&mut Cluster<P>),
    ) -> bool {
        let before: [usize; N_REPLICAS] = std::array::from_fn(|j| self.cluster.waiting(j));
        let progress = self.cluster.replica(at).progress();
        act(&mut self.cluster);
        // The frames it sent — the new tail of every peer's inbox — as
        // `(peer, length, sending thread)`, and the distinct messages in
        // them: a broadcast's copies carry the same bytes.
        let mut frames = Vec::new();
        let mut sent: Vec<(&[u8], ConsensusMessage)> = Vec::new();
        for j in (0..N_REPLICAS).filter(|&j| j != at) {
            for k in before[j]..self.cluster.waiting(j) {
                let frame = self.cluster.peek(j, k).expect("a frame just sent");
                let known = sent.iter().position(|(bytes, _)| *bytes == frame.payload);
                let m = known.unwrap_or_else(|| {
                    sent.push((frame.payload, message(&frame)));
                    sent.len() - 1
                });
                let len = FRAME_HEADER_LEN + frame.payload.len();
                frames.push((j, len, (self.sender)(Some(&sent[m].1))));
            }
        }
        let sent = sent.into_iter().map(|(_, msg)| msg).collect();
        let replies: Vec<Reply> = self.cluster.replies.drain(..).collect();
        let step = Step {
            now,
            at,
            replica: self.cluster.replica(at),
            input,
            progress,
            sent,
            replies: replies.len() as u64,
        };
        let spent = (self.charge)(&step, &mut self.clocks[at]);
        if at == PRIMARY {
            for kind in CompartmentKind::ALL {
                self.metrics.record_ecall(now, kind, spent[kind.index()]);
            }
        }
        let reply_departs = self.clocks[at][(self.sender)(None)].max(now);
        for &(j, len, thread) in &frames {
            let due = self.clocks[at][thread].max(now) + link_delay_ns(len, &mut self.rng);
            let id = self.send(due, Arrival::Frame(j));
            self.inboxes[j].push_back(id);
        }
        for reply in replies {
            let due = reply_departs + link_delay_ns(reply.encoded_len(), &mut self.rng);
            self.send(due, Arrival::Reply(reply));
        }
        !frames.is_empty()
    }
}

/// The protocol message a peer frame carries.
fn message(frame: &Delivery<'_>) -> ConsensusMessage {
    decode(frame.payload).expect("replicas send protocol messages")
}

/// One-way delay of a `len`-byte message on the paper's testbed —
/// same-region Azure VMs on 40 Gb Ethernet, effectively loss-free: 60 µs
/// base latency, 0.25 ns per byte, up to 20 µs of jitter drawn from the
/// run's seeded generator.
fn link_delay_ns(len: usize, rng: &mut StdRng) -> Ns {
    60_000 + (len as f64 * 0.25) as Ns + rng.gen_range(0..20_000u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_delay_scales_with_size_and_repeats_with_the_seed() {
        let delays = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            [10, 1_000_000, 10].map(|len| link_delay_ns(len, &mut rng))
        };
        let [small, large, _] = delays(42);
        assert!(small >= 60_000, "never below the base latency");
        assert!(large >= small + 200_000, "a megabyte takes 250 µs longer, jitter is 20");
        assert_eq!(delays(42), delays(42), "same seed, same delays");
        assert_ne!(delays(42), delays(43));
    }

    fn quick(system: SystemKind, app: AppKind, clients: usize, batched: bool) -> SimResult {
        let mut cfg = if batched {
            SimConfig::batched(system, app, clients)
        } else {
            SimConfig::unbatched(system, app, clients)
        };
        cfg.duration_ns = 80_000_000;
        cfg.warmup_ns = 20_000_000;
        run_point(&cfg)
    }

    #[test]
    fn splitbft_kvs_makes_progress() {
        let r = quick(SystemKind::SplitBft, AppKind::Kvs, 10, false);
        assert!(r.completed > 50, "completed {}", r.completed);
        assert!(r.throughput_ops > 500.0, "throughput {}", r.throughput_ops);
        assert!(r.mean_latency_ms > 0.0);
    }

    #[test]
    fn pbft_outperforms_splitbft_unbatched() {
        let split = quick(SystemKind::SplitBft, AppKind::Kvs, 60, false);
        let pbft = quick(SystemKind::Pbft, AppKind::Kvs, 60, false);
        assert!(
            pbft.throughput_ops > split.throughput_ops,
            "pbft {} vs splitbft {}",
            pbft.throughput_ops,
            split.throughput_ops
        );
        // The paper: SplitBFT reaches 43%–74% of PBFT for the KVS.
        let ratio = split.throughput_ops / pbft.throughput_ops;
        assert!((0.3..0.95).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn single_thread_is_slower_than_per_enclave_threads() {
        let multi = quick(SystemKind::SplitBft, AppKind::Kvs, 60, false);
        let single = quick(SystemKind::SplitBftSingleThread, AppKind::Kvs, 60, false);
        assert!(
            single.throughput_ops < multi.throughput_ops,
            "single {} vs multi {}",
            single.throughput_ops,
            multi.throughput_ops
        );
    }

    #[test]
    fn sim_mode_is_faster_than_hardware_mode() {
        let hw = quick(SystemKind::SplitBft, AppKind::Kvs, 60, false);
        let sim = quick(SystemKind::SplitBftSimMode, AppKind::Kvs, 60, false);
        assert!(
            sim.throughput_ops >= hw.throughput_ops,
            "sim {} vs hw {}",
            sim.throughput_ops,
            hw.throughput_ops
        );
    }

    #[test]
    fn blockchain_is_slower_than_kvs() {
        let kvs = quick(SystemKind::SplitBft, AppKind::Kvs, 60, false);
        let chain = quick(SystemKind::SplitBft, AppKind::Blockchain, 60, false);
        assert!(
            chain.throughput_ops < kvs.throughput_ops,
            "blockchain {} vs kvs {}",
            chain.throughput_ops,
            kvs.throughput_ops
        );
    }

    #[test]
    fn batching_improves_throughput_dramatically() {
        let unbatched = quick(SystemKind::SplitBft, AppKind::Kvs, 60, false);
        let batched = quick(SystemKind::SplitBft, AppKind::Kvs, 60, true);
        assert!(
            batched.throughput_ops > unbatched.throughput_ops * 5.0,
            "batched {} vs unbatched {}",
            batched.throughput_ops,
            unbatched.throughput_ops
        );
    }

    #[test]
    fn execution_dominates_unbatched_ecalls() {
        let r = quick(SystemKind::SplitBft, AppKind::Kvs, 40, false);
        let [prep, conf, exec] = r.ecall_us_per_request;
        assert!(exec > prep, "exec {exec} vs prep {prep}");
        assert!(exec > conf * 0.8, "exec {exec} vs conf {conf}");
    }

    #[test]
    fn no_client_slot_is_lost_at_saturation() {
        // Little's law on a closed loop: throughput × mean latency is the
        // number of clients, unless some of them wait forever — as they
        // did while a batch the primary refused at its watermark window
        // was never offered again.
        for system in [SystemKind::SplitBft, SystemKind::Pbft] {
            let r = run_point(&SimConfig::unbatched(system, AppKind::Kvs, 150));
            let in_flight = r.throughput_ops * r.mean_latency_ms / 1e3;
            assert!((in_flight - 150.0).abs() < 4.5, "{system:?}: X·R {in_flight:.1}");
        }
    }

    #[test]
    fn same_seed_same_result() {
        let a = quick(SystemKind::SplitBft, AppKind::Kvs, 20, false);
        let b = quick(SystemKind::SplitBft, AppKind::Kvs, 20, false);
        assert_eq!(a.completed, b.completed);
        assert!((a.throughput_ops - b.throughput_ops).abs() < 1e-9);
        assert!((a.mean_latency_ms - b.mean_latency_ms).abs() < 1e-9);
    }
}
