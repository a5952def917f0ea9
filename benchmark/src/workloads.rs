//! The workloads: what each one builds, the operations it issues, and
//! the oracle every run is checked against.

use crate::calib::{Calibrator, CAL_REF_NS};
use crate::clock::pump_ns;
use crate::pump::{self, Client, Cluster, Expect, Failures, OpSource, Plan, RunResult};
use crate::stats::{self, Summary};
use crate::sut::{self, Bytes, EventCounts, NodeFault, TeeStats, CHECKPOINT_INTERVAL};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Fewest windows a run measures, however short `--seconds` is.
pub const MIN_WINDOWS: usize = 3;

const KVS_KEYS: usize = 1024;
const KVS_VALUE_LEN: usize = 1024;
const CLIENT_ID: u32 = 1_000;

/// Which replicas a pump workload hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `SplitBftReplica<CounterApp>`, volatile.
    SplitCounter,
    /// `pbft::Replica<CounterApp>`, volatile.
    PbftCounter,
    /// `HybridReplica<CounterApp>`, n = 3, volatile.
    HybridCounter,
    /// Sharded SplitBFT KVS under `DurableProtocol`, group commit.
    SplitKvsDurable,
    /// The same stack without `DurableProtocol`, counting the durable
    /// events it would have logged.
    SplitKvsVolatile,
}

impl Stack {
    fn is_kvs(self) -> bool {
        matches!(self, Stack::SplitKvsDurable | Stack::SplitKvsVolatile)
    }
}

/// How a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In the single-threaded pump.
    Pump(Stack),
    /// Through `splitbft-node bench` over loopback sockets.
    Sock,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Pump or socket, and which replicas.
    pub kind: Kind,
    /// Requests the one closed-loop client keeps outstanding.
    pub pipeline: usize,
    /// Requests per measured window: a whole number of checkpoint
    /// periods (128 batches of `pipeline` requests), so every window
    /// does the same work.
    pub window_requests: u64,
    /// What one window takes on the machine the benchmark was sized
    /// on, ms. `--seconds` buys `seconds / window_ms` windows: about
    /// `--seconds` of measuring there, and the same *work* everywhere.
    pub window_ms: u64,
    /// Requests run before measuring starts (part of set-up): past the
    /// first checkpoint, so that lazy initialisation is over.
    pub warmup_requests: u64,
    /// Requests between calibration kernel runs (≈ 20 ms of work).
    pub calib_every: u64,
    /// How often an end-to-end run sets the cluster up to report the
    /// median set-up time.
    pub setups: usize,
}

impl Spec {
    /// The measured part of a run of `seconds`.
    pub fn sizing(&self, seconds: f64) -> Sizing {
        let windows = (seconds * 1e3 / self.window_ms.max(1) as f64).round() as usize;
        Sizing {
            window_requests: self.window_requests,
            windows: windows.max(MIN_WINDOWS),
            warmup_requests: self.warmup_requests,
        }
    }
}

/// How much work a pump run does.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Requests per measured window.
    pub window_requests: u64,
    /// Windows measured; every reported value is a median over these.
    pub windows: usize,
    /// Requests run, unmeasured, at the end of set-up.
    pub warmup_requests: u64,
}

/// The five workloads, in reporting order.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "split-lockstep",
        kind: Kind::Pump(Stack::SplitCounter),
        pipeline: 1,
        window_requests: 25 * CHECKPOINT_INTERVAL,
        window_ms: 480,
        warmup_requests: 2 * CHECKPOINT_INTERVAL,
        calib_every: 128,
        setups: 9,
    },
    Spec {
        name: "split-batched",
        kind: Kind::Pump(Stack::SplitCounter),
        pipeline: 16,
        window_requests: 5 * 16 * CHECKPOINT_INTERVAL,
        window_ms: 500,
        warmup_requests: 2 * 16 * CHECKPOINT_INTERVAL,
        calib_every: 512,
        setups: 9,
    },
    Spec {
        name: "pbft-batched",
        kind: Kind::Pump(Stack::PbftCounter),
        pipeline: 16,
        window_requests: 6 * 16 * CHECKPOINT_INTERVAL,
        window_ms: 440,
        warmup_requests: 2 * 16 * CHECKPOINT_INTERVAL,
        calib_every: 512,
        setups: 9,
    },
    // Each round of 16 requests is one batch in each of the two
    // consensus groups, so a checkpoint period is 128 rounds here too.
    // The 1024-key preload is 64 rounds; 64 more end set-up on the
    // first checkpoint.
    Spec {
        name: "split-kvs-durable",
        kind: Kind::Pump(Stack::SplitKvsDurable),
        pipeline: 16,
        window_requests: 16 * CHECKPOINT_INTERVAL,
        window_ms: 1_000,
        warmup_requests: 16 * CHECKPOINT_INTERVAL / 2,
        calib_every: 64,
        setups: 3,
    },
    Spec {
        name: "split-sock",
        kind: Kind::Sock,
        pipeline: 16,
        window_requests: 0,
        window_ms: 1_000,
        warmup_requests: 0,
        calib_every: 0,
        setups: 11,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

// ---------------------------------------------------------------------------
// Operation streams
// ---------------------------------------------------------------------------

/// xorshift64*: the benchmark's own generator, so the operation
/// stream depends on `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// `inc` forever; the k-th increment must return k.
struct CounterOps {
    next: u64,
}

impl OpSource for CounterOps {
    fn next_op(&mut self) -> (Bytes, Expect) {
        self.next += 1;
        (sut::counter_inc(), Expect::U64(self.next))
    }
}

/// 50 % GET / 50 % PUT of 1 KiB values over 1024 keys, checked
/// against a shadow copy of the store. Every 16 operations hold
/// exactly 4 GETs and 4 PUTs for each of the two consensus groups, in
/// seeded order on seeded keys: each round is then one batch per group
/// and the bytes a window moves do not depend on the seed's luck (one
/// round in 30 000 would otherwise miss a group and shift its
/// checkpoints out of step with the windows).
struct KvsOps {
    rng: Rng,
    keys: Vec<Vec<u8>>,
    /// Indices into `keys`, by the consensus group the key routes to.
    keys_by_shard: [Vec<usize>; sut::KVS_SHARDS as usize],
    /// Random bytes every value is a 1 KiB slice of.
    pool: Vec<u8>,
    /// Offset into `pool` of each key's current value.
    shadow: Vec<Option<usize>>,
    /// `Some(k)`: still preloading, next key to write is `k`.
    preload: Option<usize>,
    /// `(group, is a GET)` of the operations still to come in the
    /// current group of 16.
    deck: Vec<(usize, bool)>,
    /// Operations generated per consensus group.
    per_shard: [u64; sut::KVS_SHARDS as usize],
    /// FNV-1a over every generated operation, so tests can tell two
    /// streams apart.
    fingerprint: u64,
}

impl KvsOps {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let pool = (0..(1 << 20) / 8 + KVS_VALUE_LEN / 8)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        let keys: Vec<Vec<u8>> = (0..KVS_KEYS)
            .map(|i| format!("key{i:08}").into_bytes())
            .collect();
        let mut keys_by_shard: [Vec<usize>; sut::KVS_SHARDS as usize] = Default::default();
        for (index, key) in keys.iter().enumerate() {
            keys_by_shard[sut::kv_shard(key)].push(index);
        }
        KvsOps {
            rng,
            keys,
            keys_by_shard,
            pool,
            shadow: vec![None; KVS_KEYS],
            preload: Some(0),
            deck: Vec::new(),
            per_shard: [0; sut::KVS_SHARDS as usize],
            fingerprint: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn value(&self, offset: usize) -> &[u8] {
        &self.pool[offset..offset + KVS_VALUE_LEN]
    }

    fn current(&self, key: usize) -> Bytes {
        self.shadow[key].map_or_else(Bytes::new, |off| Bytes::copy_from_slice(self.value(off)))
    }

    fn mix(&mut self, word: u64) {
        self.fingerprint = (self.fingerprint ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl OpSource for KvsOps {
    fn next_op(&mut self) -> (Bytes, Expect) {
        let draw = self.rng.next_u64();
        let (key, read) = match self.preload {
            Some(k) => {
                self.preload = (k + 1 < KVS_KEYS).then_some(k + 1);
                (k, false)
            }
            None => {
                if self.deck.is_empty() {
                    for shard in 0..self.keys_by_shard.len() {
                        self.deck.extend([(shard, true), (shard, false)].repeat(4));
                    }
                }
                let (shard, read) = self
                    .deck
                    .swap_remove((draw >> 32) as usize % self.deck.len());
                let keys = &self.keys_by_shard[shard];
                (keys[draw as u32 as usize % keys.len()], read)
            }
        };
        self.per_shard[sut::kv_shard(&self.keys[key])] += 1;
        self.mix(draw);
        // Both a GET and a PUT return the value stored before them.
        let expect = Expect::Bytes(self.current(key));
        if read {
            (sut::kv_get(&self.keys[key]), expect)
        } else {
            let offset = (self.rng.next_u64() as usize) % (1 << 20);
            let op = sut::kv_put(&self.keys[key], self.value(offset));
            self.shadow[key] = Some(offset);
            (op, expect)
        }
    }
}

/// Reads every key once, after a run.
struct KvsSweep<'a> {
    ops: &'a KvsOps,
    next: usize,
}

impl OpSource for KvsSweep<'_> {
    fn next_op(&mut self) -> (Bytes, Expect) {
        let key = self.next % KVS_KEYS;
        self.next += 1;
        (
            sut::kv_get(&self.ops.keys[key]),
            Expect::Bytes(self.ops.current(key)),
        )
    }
}

enum Ops {
    Counter(CounterOps),
    Kvs(Box<KvsOps>),
}

impl Ops {
    fn source(&mut self) -> &mut dyn OpSource {
        match self {
            Ops::Counter(ops) => ops,
            Ops::Kvs(ops) => ops.as_mut(),
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A cluster, its client and its operation stream, ready to measure.
struct Rig {
    cluster: Cluster,
    client: Client,
    ops: Ops,
}

fn build_cluster(stack: Stack, seed: u64, wal_dir: &Path) -> Result<Cluster, String> {
    let nodes = match stack {
        Stack::SplitCounter => (0..sut::N).map(|id| sut::split_counter(id, seed)).collect(),
        Stack::PbftCounter => (0..sut::N).map(|id| sut::pbft_counter(id, seed)).collect(),
        Stack::HybridCounter => (0..sut::N_HYBRID)
            .map(|id| sut::hybrid_counter(id, seed))
            .collect(),
        Stack::SplitKvsVolatile => (0..sut::N)
            .map(|id| sut::split_kvs_volatile(id, seed))
            .collect(),
        Stack::SplitKvsDurable => (0..sut::N)
            .map(|id| sut::split_kvs_durable(id, seed, &wal_dir.join(format!("replica-{id}"))))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("opening WAL under {}: {e}", wal_dir.display()))?,
    };
    Ok(Cluster::new(nodes))
}

/// Replicas, client and operation stream, nothing run yet (the KVS
/// still empty).
fn build_rig(stack: Stack, pipeline: usize, seed: u64, wal_dir: &Path) -> Result<Rig, String> {
    let cluster = build_cluster(stack, seed, wal_dir)?;
    let client = Client::new(seed, CLIENT_ID, pipeline);
    let ops = if stack.is_kvs() {
        Ops::Kvs(Box::new(KvsOps::new(seed)))
    } else {
        Ops::Counter(CounterOps { next: 0 })
    };
    Ok(Rig {
        cluster,
        client,
        ops,
    })
}

/// What one set-up cost.
#[derive(Debug, Clone, Copy, Default)]
struct SetupCost {
    /// Time on the pump clock, calibration runs excluded, ns.
    busy_ns: u64,
    /// Time inside the calibration kernel, ns, and how often it ran.
    calib_ns: u64,
    calib_runs: u64,
    /// Wall time, disk waits included, s.
    wall_s: f64,
}

/// Everything before the first measured request: key derivation,
/// replica construction, WAL directory recovery, for the KVS loading
/// 1024 × 1 KiB through consensus, and `warmup_requests` unmeasured
/// requests that take the cluster past lazy initialisation.
fn set_up(
    stack: Stack,
    spec: &Spec,
    warmup_requests: u64,
    seed: u64,
    wal_dir: &Path,
    calibrator: &mut Calibrator,
) -> Result<(Rig, SetupCost), String> {
    let (started, started_cpu_ns) = (Instant::now(), pump_ns());
    let mut rig = build_rig(stack, spec.pipeline, seed, wal_dir)?;
    let preload = if stack.is_kvs() { KVS_KEYS as u64 } else { 0 };
    let plan = Plan {
        window_requests: preload + warmup_requests,
        windows: 1,
        calib_every: spec.calib_every,
    };
    let run = pump::run(
        &mut rig.cluster,
        &mut rig.client,
        rig.ops.source(),
        &plan,
        calibrator,
        &mut Tracer::off(),
    );
    let Some(window) = run
        .windows
        .first()
        .filter(|_| rig.client.failures.total() == 0)
    else {
        return Err(format!(
            "preload and warm-up failed: {:?}",
            rig.client.failures
        ));
    };
    let busy_ns = (pump_ns() - started_cpu_ns).saturating_sub(window.calib_ns);
    let cost = SetupCost {
        busy_ns,
        calib_ns: window.calib_ns,
        calib_runs: window.calib_runs,
        wall_s: started.elapsed().as_secs_f64(),
    };
    Ok((rig, cost))
}

/// Issues `requests` requests and waits for them, untimed.
fn drive(
    cluster: &mut Cluster,
    client: &mut Client,
    source: &mut dyn OpSource,
    requests: u64,
    calibrator: &mut Calibrator,
) {
    let plan = Plan {
        window_requests: requests,
        windows: 1,
        calib_every: u64::MAX,
    };
    pump::run(
        cluster,
        client,
        source,
        &plan,
        calibrator,
        &mut Tracer::off(),
    );
}

/// The scratch directory of this process, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh `benchmark/out/tmp-<pid>-<n>/`.
    ///
    /// # Errors
    ///
    /// If the directory cannot be created.
    pub fn create() -> Result<Self, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out/`: traces, reports and scratch space. The WAL lives
/// here too — on the checkout's own disk, since a benchmark run may
/// write nowhere else.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

// ---------------------------------------------------------------------------
// Running a pump workload
// ---------------------------------------------------------------------------

/// What [`run_pump`] is asked to do beyond measuring.
#[derive(Debug, Clone, Copy, Default)]
pub struct PumpOptions {
    /// Record spans.
    pub traced: bool,
    /// Count allocations during the measured windows.
    pub count_allocs: bool,
    /// Set up this many times (at least once) and report the median.
    pub setups: usize,
    /// Arm this defect on these replicas once set-up is done (the
    /// tests that show the oracle bites).
    pub fault: Option<(NodeFault, &'static [usize])>,
}

/// Everything one pump run measured.
pub struct PumpReport {
    /// Normalised and raw medians over the measured windows.
    pub summary: Summary,
    /// The measured windows and their exact traffic.
    pub run: RunResult,
    /// Median set-up time on the CPU clock, normalised, s.
    pub setup_s: f64,
    /// Median set-up time on the wall clock, s.
    pub wall_setup_s: f64,
    /// Requests the measuring cluster's client issued: preload,
    /// warm-up, measured windows and the final read-back.
    pub attempted: u64,
    /// Requests that reached a verified, expected quorum.
    pub completed: u64,
    /// Requests that did not, by cause.
    pub failures: Failures,
    /// Oracle violations beyond failed requests; empty when correct.
    pub violations: Vec<String>,
    /// `VmHWM` right after the last measured window, MB.
    pub peak_rss_mb: f64,
    /// Per-compartment boundary statistics of the measured windows,
    /// summed over the four replicas.
    pub tee: Option<[TeeStats; 3]>,
    /// WAL fsyncs during the measured windows, all replicas.
    pub fsyncs: u64,
    /// Durable events the volatile twin drained, all replicas.
    pub events: EventCounts,
    /// `(max − min) / mean` of operations per consensus group, %.
    pub shard_imbalance_pct: f64,
    /// `(allocations, bytes)` during the measured windows.
    pub allocs: (u64, u64),
    /// FNV-1a of the generated KVS operation stream (0 for counters).
    pub ops_fingerprint: u64,
    /// The tracer, holding the spans of a traced run.
    pub tracer: Tracer,
}

fn tee_totals(cluster: &Cluster) -> Option<[TeeStats; 3]> {
    let mut total = [TeeStats::default(); 3];
    for node in cluster.nodes() {
        for (sum, part) in total.iter_mut().zip(node.tee_stats()?) {
            sum.ecalls += part.ecalls;
            sum.ocalls += part.ocalls;
            sum.bytes_in += part.bytes_in;
            sum.bytes_out += part.bytes_out;
            sum.boundary_ns += part.boundary_ns;
        }
    }
    Some(total)
}

fn tee_delta(after: [TeeStats; 3], before: [TeeStats; 3]) -> [TeeStats; 3] {
    let mut out = after;
    for (a, b) in out.iter_mut().zip(before) {
        a.ecalls -= b.ecalls;
        a.ocalls -= b.ocalls;
        a.bytes_in -= b.bytes_in;
        a.bytes_out -= b.bytes_out;
        a.boundary_ns -= b.boundary_ns;
    }
    out
}

fn fsync_total(cluster: &Cluster) -> u64 {
    cluster
        .nodes()
        .iter()
        .map(|node| node.durable_fsyncs())
        .sum()
}

fn take_events(cluster: &mut Cluster) -> EventCounts {
    let mut total = EventCounts::default();
    for id in 0..cluster.len() {
        let part = cluster.node_mut(id).take_event_counts();
        total.events += part.events;
        total.wal_bytes += part.wal_bytes;
        total.stable_checkpoints += part.stable_checkpoints;
    }
    total
}

/// `VmHWM` of this process in MB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn digests_agree(cluster: &Cluster, what: &str, violations: &mut Vec<String>) {
    let digests: Vec<[u8; 32]> = cluster.nodes().iter().map(|n| n.state_digest()).collect();
    if digests.windows(2).any(|pair| pair[0] != pair[1]) {
        violations.push(format!("{what}: replicas' state digests differ"));
    }
}

/// Sets a pump workload up, measures `sizing.windows` windows of
/// `sizing.window_requests` requests, and checks the result.
///
/// # Errors
///
/// Set-up failures (I/O, or a preload that did not commit). Oracle
/// violations are not errors: they are reported in the result.
pub fn run_pump(
    stack: Stack,
    spec: &Spec,
    seed: u64,
    sizing: Sizing,
    options: PumpOptions,
) -> Result<PumpReport, String> {
    let scratch = ScratchDir::create()?;
    let mut calibrator = Calibrator::new();
    let setups = options.setups.max(1);
    let mut costs = Vec::new();
    let mut rig = None;
    for attempt in 0..setups {
        drop(rig.take());
        let wal_dir = scratch.path().join(format!("wal-{attempt}"));
        let (built, cost) = set_up(
            stack,
            spec,
            sizing.warmup_requests,
            seed,
            &wal_dir,
            &mut calibrator,
        )?;
        rig = Some(built);
        costs.push(cost);
    }
    let wal_dir = scratch.path().join(format!("wal-{}", setups - 1));
    let Rig {
        mut cluster,
        mut client,
        mut ops,
    } = rig.expect("set up at least once");
    if let Some((fault, replicas)) = options.fault {
        for &id in replicas {
            cluster.set_fault(id, fault);
        }
    }

    let plan = Plan {
        window_requests: sizing.window_requests,
        windows: sizing.windows,
        calib_every: spec.calib_every,
    };
    let mut tracer = if options.traced {
        // ≈ 6 spans per message and 25 messages per request at worst.
        Tracer::on((plan.window_requests * plan.windows as u64 * 160).min(1 << 26) as usize)
    } else {
        Tracer::off()
    };

    let tee_before = tee_totals(&cluster);
    let fsyncs_before = fsync_total(&cluster);
    take_events(&mut cluster);
    let allocs_before = crate::alloc::counts();
    crate::alloc::set_counting(options.count_allocs);
    let run = pump::run(
        &mut cluster,
        &mut client,
        ops.source(),
        &plan,
        &mut calibrator,
        &mut tracer,
    );
    crate::alloc::set_counting(false);
    let allocs_after = crate::alloc::counts();
    let peak_rss_mb = peak_rss_mb();
    let tee = tee_totals(&cluster)
        .zip(tee_before)
        .map(|(after, before)| tee_delta(after, before));
    let fsyncs = fsync_total(&cluster) - fsyncs_before;
    let events = take_events(&mut cluster);

    // The oracle.
    let mut violations = Vec::new();
    if run.windows.len() < plan.windows {
        violations.push(format!(
            "the pump ran dry in measured window {}",
            run.windows.len()
        ));
    }
    let (shard_imbalance_pct, ops_fingerprint) = match &ops {
        Ops::Counter(_) => (0.0, 0),
        Ops::Kvs(kvs) => {
            let (max, min) = (kvs.per_shard.iter().max(), kvs.per_shard.iter().min());
            let mean = kvs.per_shard.iter().sum::<u64>() as f64 / kvs.per_shard.len() as f64;
            (
                (max.unwrap_or(&0) - min.unwrap_or(&0)) as f64 / mean * 100.0,
                kvs.fingerprint,
            )
        }
    };
    if let Ops::Kvs(kvs) = &ops {
        // Every key reads back what the shadow store holds, by quorum.
        let mut sweep = KvsSweep { ops: kvs, next: 0 };
        drive(
            &mut cluster,
            &mut client,
            &mut sweep,
            KVS_KEYS as u64,
            &mut calibrator,
        );
    }
    digests_agree(&cluster, "after the run", &mut violations);
    if stack == Stack::SplitKvsDurable {
        check_recovery(cluster, seed, &wal_dir, &mut violations)?;
    }

    // A counter set-up runs the kernel three times, too few to scale
    // it by; the set-ups of a run follow one another within seconds,
    // so they share one kernel time.
    let setup_cal_ns = costs.iter().map(|c| c.calib_ns).sum::<u64>() as f64
        / costs.iter().map(|c| c.calib_runs).sum::<u64>().max(1) as f64;
    let setup_busy_ns = stats::median(&costs.iter().map(|c| c.busy_ns as f64).collect::<Vec<_>>());

    Ok(PumpReport {
        summary: stats::summarise(&run.windows),
        run,
        setup_s: setup_busy_ns / 1e9 * CAL_REF_NS / setup_cal_ns,
        wall_setup_s: stats::median(&costs.iter().map(|c| c.wall_s).collect::<Vec<_>>()),
        attempted: client.issued,
        completed: client.completed,
        failures: client.failures,
        violations,
        peak_rss_mb,
        tee,
        fsyncs,
        events,
        shard_imbalance_pct,
        allocs: (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
        ),
        ops_fingerprint,
        tracer,
    })
}

/// Shuts the durable cluster down, reopens every WAL directory with
/// `DurableProtocol::recover`, and requires each recovered replica to
/// reach the digest and the progress it had before: the sealed
/// checkpoint restored and every committed batch after it replayed.
fn check_recovery(
    cluster: Cluster,
    seed: u64,
    wal_dir: &Path,
    violations: &mut Vec<String>,
) -> Result<(), String> {
    let state = |cluster: &Cluster| -> Vec<([u8; 32], u64)> {
        cluster
            .nodes()
            .iter()
            .map(|n| (n.state_digest(), n.progress()))
            .collect()
    };
    let before = state(&cluster);
    drop(cluster);
    let recovered = build_cluster(Stack::SplitKvsDurable, seed, wal_dir)?;
    for (id, (before, after)) in before.iter().zip(state(&recovered)).enumerate() {
        if before.0 != after.0 {
            violations.push(format!(
                "recovery: replica {id} did not reach its pre-shutdown digest"
            ));
        }
        if before.1 != after.1 {
            violations.push(format!(
                "recovery: replica {id} replayed to progress {} of {}",
                after.1, before.1
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fault scenarios (untimed, same oracles)
// ---------------------------------------------------------------------------

/// One backup silent for a whole short run: every request must still
/// reach a verified quorum and the live replicas must agree.
///
/// # Errors
///
/// What the oracle found.
pub fn silent_backup_scenario(stack: Stack, seed: u64) -> Result<(), String> {
    let mut calibrator = Calibrator::new();
    let scratch = ScratchDir::create()?;
    let mut rig = build_rig(stack, 16, seed, scratch.path())?;
    rig.cluster.set_silent(sut::N - 1, true);
    drive(
        &mut rig.cluster,
        &mut rig.client,
        rig.ops.source(),
        512,
        &mut calibrator,
    );
    if rig.client.failures.total() > 0 || rig.client.completed != 512 {
        return Err(format!(
            "silent backup: {} of 512 completed, {:?}",
            rig.client.completed, rig.client.failures
        ));
    }
    let live: Vec<[u8; 32]> = rig.cluster.nodes()[..sut::N - 1]
        .iter()
        .map(|n| n.state_digest())
        .collect();
    if live.windows(2).any(|pair| pair[0] != pair[1]) {
        return Err("silent backup: live replicas' digests differ".into());
    }
    Ok(())
}

/// Median fail-over cost over `clusters` fresh clusters: the primary
/// muted, timers fired on the rest until a request commits in view 1.
///
/// # Errors
///
/// The first cluster that did not fail over cleanly.
pub fn failover_scenario(stack: Stack, seed: u64, clusters: usize) -> Result<(f64, f64), String> {
    let mut calibrator = Calibrator::new();
    let scratch = ScratchDir::create()?;
    let (mut us, mut msgs) = (Vec::new(), Vec::new());
    for i in 0..clusters {
        let mut rig = build_rig(stack, 1, seed + i as u64, scratch.path())?;
        // A few committed requests first, so view 0 has history.
        drive(
            &mut rig.cluster,
            &mut rig.client,
            rig.ops.source(),
            4,
            &mut calibrator,
        );
        let cost = pump::failover(
            &mut rig.cluster,
            &mut rig.client,
            rig.ops.source(),
            &mut Tracer::off(),
        )
        .map_err(|e| format!("fail-over, cluster {i}: {e}"))?;
        let live: Vec<[u8; 32]> = rig.cluster.nodes()[1..]
            .iter()
            .map(|n| n.state_digest())
            .collect();
        if live.windows(2).any(|pair| pair[0] != pair[1]) {
            return Err(format!(
                "fail-over, cluster {i}: live replicas' digests differ"
            ));
        }
        us.push(cost.ns as f64 / 1e3);
        msgs.push(cost.msgs as f64);
    }
    Ok((stats::median(&us), stats::median(&msgs)))
}
