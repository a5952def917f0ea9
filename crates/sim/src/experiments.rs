//! The simulation driver: one call = one data point of the paper's
//! evaluation.

use crate::des::{Event, EventQueue, Ns};
use crate::metrics::Metrics;
use crate::protocols::{PbftNode, ProtocolNode, SplitBftNode, SplitThreading, ThreadSel};
use crate::workload::SimClient;
pub use crate::workload::AppKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splitbft_app::{Blockchain, KeyValueStore};
use splitbft_core::SplitBftReplica;
use splitbft_pbft::{Batcher, Replica as PbftReplica};
use splitbft_tee::{CostModel, ExecMode};
use splitbft_types::{BatchConfig, ClusterConfig, ConsensusMessage, ReplicaId};

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

fn build_nodes(cfg: &SimConfig, cluster: &ClusterConfig) -> Vec<Box<dyn ProtocolNode>> {
    let seed = cfg.seed;
    let mk_split = |mode: ExecMode, threading: SplitThreading| -> Vec<Box<dyn ProtocolNode>> {
        let cost = match mode {
            ExecMode::Hardware => CostModel::paper_calibrated(),
            ExecMode::Simulation => CostModel::simulation_mode(),
        };
        (0..N_REPLICAS as u32)
            .map(|i| -> Box<dyn ProtocolNode> {
                match cfg.app {
                    AppKind::Kvs => Box::new(SplitBftNode::new(
                        SplitBftReplica::new(
                            cluster.clone(),
                            ReplicaId(i),
                            seed,
                            KeyValueStore::new(),
                            mode,
                            cost.clone(),
                        ),
                        cost.clone(),
                        threading,
                    )),
                    AppKind::Blockchain => Box::new(SplitBftNode::new(
                        SplitBftReplica::new(
                            cluster.clone(),
                            ReplicaId(i),
                            seed,
                            Blockchain::new(),
                            mode,
                            cost.clone(),
                        ),
                        cost.clone(),
                        threading,
                    )),
                }
            })
            .collect()
    };
    match cfg.system {
        SystemKind::SplitBft => mk_split(ExecMode::Hardware, SplitThreading::PerEnclave),
        SystemKind::SplitBftSimMode => mk_split(ExecMode::Simulation, SplitThreading::PerEnclave),
        SystemKind::SplitBftSingleThread => {
            mk_split(ExecMode::Hardware, SplitThreading::Single)
        }
        SystemKind::Pbft => {
            let cost = CostModel::paper_calibrated();
            (0..N_REPLICAS as u32)
                .map(|i| -> Box<dyn ProtocolNode> {
                    match cfg.app {
                        AppKind::Kvs => Box::new(PbftNode::new(
                            PbftReplica::new(
                                cluster.clone(),
                                ReplicaId(i),
                                seed,
                                KeyValueStore::new(),
                            ),
                            cost.clone(),
                        )),
                        AppKind::Blockchain => Box::new(PbftNode::new(
                            PbftReplica::new(
                                cluster.clone(),
                                ReplicaId(i),
                                seed,
                                Blockchain::new(),
                            ),
                            cost.clone(),
                        )),
                    }
                })
                .collect()
        }
    }
}

/// Runs one configuration to completion and reports its metrics.
pub fn run_point(cfg: &SimConfig) -> SimResult {
    let cluster = ClusterConfig::new(N_REPLICAS).expect("4 replicas");
    let mut nodes = build_nodes(cfg, &cluster);
    let mut busy: Vec<Vec<Ns>> = nodes.iter().map(|n| vec![0; n.thread_count()]).collect();
    let mut clients: Vec<SimClient> = (0..cfg.clients)
        .map(|i| SimClient::new(&cluster, i, cfg.seed, cfg.app, cfg.payload))
        .collect();
    let mut link = StdRng::seed_from_u64(cfg.seed);
    let mut queue = EventQueue::new();
    let mut metrics = Metrics::new(cfg.warmup_ns, cfg.duration_ns);
    let mut batcher = Batcher::new(cfg.batch);
    let mut flush_armed = false;
    // Client→primary connections are FIFO (TCP in the paper's testbed):
    // jitter must not reorder one client's requests, or a timestamp
    // regression would make replicas silently drop the older request.
    let mut last_arrival: Vec<Ns> = vec![0; cfg.clients];

    // Prime the closed loop, lightly staggered so arrival order is
    // deterministic but not fully synchronized.
    for (i, _) in clients.iter().enumerate() {
        for k in 0..cfg.outstanding {
            queue.push((i as u64) * 997 + (k as u64) * 10_007, Event::ClientIssue { client: i });
        }
    }

    let horizon = cfg.duration_ns + cfg.duration_ns / 2;
    while let Some((now, event)) = queue.pop() {
        if now > horizon {
            break;
        }
        match event {
            Event::ClientIssue { client } => {
                if now >= cfg.duration_ns {
                    continue; // wind down: stop issuing, let the tail drain
                }
                let request = clients[client].issue(now);
                let len = crate::estimate::request_wire_len(&request);
                let at = (now + link_delay_ns(len, &mut link)).max(last_arrival[client] + 1);
                last_arrival[client] = at;
                queue.push(at, Event::RequestArrival { node: 0, request });
            }
            Event::RequestArrival { node, request } => {
                if let Some(batch) = batcher.push(request, now / 1_000) {
                    let step = nodes[node].on_client_batch(batch);
                    metrics.batches += u64::from(metrics.in_window(now));
                    process_step(
                        now, node, step, &mut nodes, &mut busy, &mut link, &mut queue,
                        &mut metrics, cfg,
                    );
                } else if !flush_armed {
                    if let Some(deadline_us) = batcher.next_deadline_us() {
                        flush_armed = true;
                        queue.push(deadline_us * 1_000, Event::BatchFlush { node });
                    }
                }
            }
            Event::BatchFlush { node } => {
                flush_armed = false;
                if let Some(batch) = batcher.poll(now / 1_000) {
                    if !batch.is_empty() {
                        let step = nodes[node].on_client_batch(batch);
                        metrics.batches += u64::from(metrics.in_window(now));
                        process_step(
                            now, node, step, &mut nodes, &mut busy, &mut link, &mut queue,
                            &mut metrics, cfg,
                        );
                    }
                } else if let Some(deadline_us) = batcher.next_deadline_us() {
                    flush_armed = true;
                    queue.push(deadline_us.max(now / 1_000 + 1) * 1_000, Event::BatchFlush { node });
                }
            }
            Event::Deliver { node, msg } => {
                let step = nodes[node].on_message(msg);
                process_step(
                    now, node, step, &mut nodes, &mut busy, &mut link, &mut queue,
                    &mut metrics, cfg,
                );
            }
            Event::ReplyArrival { client, reply } => {
                if let Some(latency) = clients[client].on_reply(now, &reply) {
                    metrics.record_completion(now, latency);
                    if now < cfg.duration_ns {
                        queue.push(now, Event::ClientIssue { client });
                    }
                }
            }
        }
    }

    SimResult {
        throughput_ops: metrics.throughput_ops(),
        mean_latency_ms: metrics.mean_latency_ms(),
        p99_latency_ms: metrics.percentile_latency_ms(99.0),
        completed: metrics.completed(),
        ecall_us_per_request: metrics.ecall_profile_us_per_request(),
        ecall_us_per_batch: metrics.ecall_profile_us_per_batch(),
    }
}

#[allow(clippy::too_many_arguments)]
fn process_step(
    now: Ns,
    node_idx: usize,
    step: crate::protocols::StepResult,
    nodes: &mut [Box<dyn ProtocolNode>],
    busy: &mut [Vec<Ns>],
    link: &mut StdRng,
    queue: &mut EventQueue,
    metrics: &mut Metrics,
    cfg: &SimConfig,
) {
    // Schedule compute. Usage entries form a dependency chain (a message
    // is authenticated before the protocol core handles it; a loopback
    // ecall runs after the ecall that produced its input), while each
    // thread additionally serializes everything assigned to it.
    {
        let threads = &mut busy[node_idx];
        let pool = nodes[node_idx].pool();
        let mut prev_end = now;
        for entry in &step.usage {
            let thread = match entry.sel {
                ThreadSel::Fixed(i) => i,
                ThreadSel::Pool => {
                    let range = pool.clone().expect("pool usage on pool-less node");
                    range
                        .clone()
                        .min_by_key(|&i| threads[i])
                        .expect("non-empty pool")
                }
            };
            let ready = if entry.after_prev { prev_end } else { now };
            let start = ready.max(threads[thread]);
            threads[thread] = start + entry.ns;
            prev_end = threads[thread];
        }
    }

    // Figure 4 data: leader-side ecall profile.
    if node_idx == 0 {
        for (kind, ns) in &step.ecalls {
            metrics.record_ecall(now, *kind, *ns);
        }
    }

    // Outbound messages leave when their producing thread finishes.
    for msg in step.sends {
        let depart = busy[node_idx][nodes[node_idx].send_thread(&msg)].max(now);
        let len = wire_len(&msg);
        for peer in 0..nodes.len() {
            if peer == node_idx {
                continue;
            }
            let arrive = depart + link_delay_ns(len, link);
            queue.push(arrive, Event::Deliver { node: peer, msg: msg.clone() });
        }
    }

    // Replies travel back to their clients.
    let reply_depart = busy[node_idx][nodes[node_idx].reply_thread()].max(now);
    for (client, reply) in step.replies {
        let idx = client.as_usize();
        if idx >= cfg.clients {
            continue;
        }
        let len = reply.result.len() + 64;
        let arrive = reply_depart + link_delay_ns(len, link);
        queue.push(arrive, Event::ReplyArrival { client: idx, reply });
    }
}

/// One-way delay of a `len`-byte message on the paper's testbed —
/// same-region Azure VMs on 40 Gb Ethernet, effectively loss-free: 60 µs
/// base latency, 0.25 ns per byte, up to 20 µs of jitter drawn from the
/// run's seeded generator.
fn link_delay_ns(len: usize, rng: &mut StdRng) -> Ns {
    60_000 + (len as f64 * 0.25) as Ns + rng.gen_range(0..20_000u64)
}

fn wire_len(msg: &ConsensusMessage) -> usize {
    splitbft_types::wire::encode(msg).len()
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
    fn same_seed_same_result() {
        let a = quick(SystemKind::SplitBft, AppKind::Kvs, 20, false);
        let b = quick(SystemKind::SplitBft, AppKind::Kvs, 20, false);
        assert_eq!(a.completed, b.completed);
        assert!((a.throughput_ops - b.throughput_ops).abs() < 1e-9);
        assert!((a.mean_latency_ms - b.mean_latency_ms).abs() < 1e-9);
    }
}
