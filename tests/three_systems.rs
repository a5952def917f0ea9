//! The same workload through all three systems — PBFT, the hybrid
//! baseline, and SplitBFT — must yield the same application state, and
//! their relative fault tolerance must match the paper's Table 1.
//!
//! The first half is one scenario battery: each scenario is a generic
//! function over [`Protocol`], run on `lockstep::Cluster` for every
//! [`Stack`].

use bytes::Bytes;
use splitbft::app::{CounterApp, ReplyCache};
use splitbft::crypto::{digest_bytes, ClientMacKeys};
use splitbft::hybrid::{HybridConfig, HybridReplica, Usig};
use splitbft::model::{
    explore_hybrid, explore_pbft, explore_splitbft, run_scenario, ExplorerConfig, Scenario,
};
use splitbft::net::transport::frame_kind;
use splitbft::net::FaultPlan;
use splitbft::prelude::*;
use splitbft::tee::TransitionStats;
use splitbft::types::{DurableEvent, FaultCommand, LinkRule, Request, RequestBatch, SignerId};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

const SEED: u64 = 808;

/// One of the three systems, as far as the battery needs to know it.
struct Stack<P> {
    name: &'static str,
    n: usize,
    /// Replicas that may fail.
    f: usize,
    /// Slots between the checkpoints a lagging peer can be served.
    checkpoint_every: u64,
    replica: fn(ReplicaId) -> P,
    counter: fn(&P) -> u64,
}

impl<P: Protocol> Stack<P> {
    fn cluster(&self) -> Cluster<P> {
        Cluster::new((0..self.n as u32).map(|i| (self.replica)(ReplicaId(i))))
    }
}

fn pbft() -> Stack<PbftReplica<CounterApp>> {
    Stack {
        name: "pbft",
        n: 4,
        f: 1,
        checkpoint_every: 128,
        replica: |id| PbftReplica::new(ClusterConfig::new(4).unwrap(), id, SEED, CounterApp::new()),
        counter: |r| r.app().value(),
    }
}

fn splitbft() -> Stack<SplitBftReplica<CounterApp>> {
    Stack {
        name: "splitbft",
        n: 4,
        f: 1,
        checkpoint_every: 128,
        replica: |id| {
            let (mode, cost) = (ExecMode::Hardware, CostModel::paper_calibrated());
            let config = ClusterConfig::new(4).unwrap();
            SplitBftReplica::new(config, id, SEED, CounterApp::new(), mode, cost)
        },
        counter: |r| r.app().value(),
    }
}

fn hybrid() -> Stack<HybridReplica<CounterApp, Usig>> {
    Stack {
        name: "hybrid",
        n: 3,
        f: 1,
        checkpoint_every: 64,
        replica: |id| {
            let config = HybridConfig::new(3).unwrap();
            let mut replica =
                HybridReplica::new(config, id, SEED, Usig::new(SEED, id), CounterApp::new());
            // The hybrid snapshots only for a runtime that drains its
            // durable events; the first drain opts in.
            replica.drain_durable_events();
            replica
        },
        counter: |r| r.app().value(),
    }
}

fn inc(ts: u64) -> Request {
    make_request(SEED, ClientId(0), Timestamp(ts), Bytes::from_static(b"inc"))
}

/// (a) Drives `increments` through the stack's primary; every replica
/// must end at the same counter, which is returned.
fn counts_to<P: Protocol>(stack: &Stack<P>, increments: u64) -> u64 {
    let mut cluster = stack.cluster();
    for ts in 1..=increments {
        cluster.submit(0, &[inc(ts)]);
    }
    let value = (stack.counter)(cluster.replica(0));
    for i in 0..stack.n {
        assert_eq!((stack.counter)(cluster.replica(i)), value, "{}: divergence at {i}", stack.name);
    }
    value
}

#[test]
fn all_three_systems_compute_the_same_state() {
    assert_eq!(counts_to(&splitbft(), 7), 7);
    assert_eq!(counts_to(&pbft(), 7), 7);
    assert_eq!(counts_to(&hybrid(), 7), 7);
}

/// (b) Peer frames delivered and replies sent while a quiet cluster
/// commits `requests`, one per batch.
fn traffic_of<P: Protocol>(stack: &Stack<P>, requests: u64) -> (u64, usize) {
    let mut cluster = stack.cluster();
    let frames = Rc::new(RefCell::new(0));
    cluster.observe({
        let frames = Rc::clone(&frames);
        move |_| {
            *frames.borrow_mut() += 1;
            true
        }
    });
    for ts in 1..=requests {
        cluster.submit(0, &[inc(ts)]);
    }
    assert_eq!((stack.counter)(cluster.replica(0)), requests, "{}", stack.name);
    let frames = *frames.borrow();
    (frames, cluster.replies.len())
}

#[test]
fn a_quiet_cluster_moves_24_peer_frames_and_4_replies_per_request() {
    // One PrePrepare to 3 peers, 3 Prepares and 4 Commits to 3 peers
    // each, 4 replies; no checkpoint within 100 slots. With the 12
    // checkpoint votes every 128 slots this is the 28.09375 messages per
    // request CI pins on the benchmark's `types.msgs_per_req`.
    assert_eq!(traffic_of(&pbft(), 100), (2400, 400));
    assert_eq!(traffic_of(&splitbft(), 100), (2400, 400));
}

#[test]
fn the_enclave_counters_the_sim_charges_count_what_the_benchmark_counts() {
    // `splitbft-sim` charges every SplitBFT step from these counters.
    // 128 single-request batches — the 12 checkpoint votes included —
    // must cost the crossings CI pins on the benchmark's lock-step pump:
    // `tee.ecalls_per_req` 40.34375 and `tee.ocalls_per_req` 24.125.
    let stack = splitbft();
    let mut cluster = stack.cluster();
    for ts in 1..=128 {
        cluster.submit(0, &[inc(ts)]);
    }
    let total = |count: fn(&TransitionStats) -> u64| -> u64 {
        let replicas = (0..stack.n).map(|i| cluster.replica(i));
        replicas.flat_map(|r| CompartmentKind::ALL.map(|kind| count(&r.stats(kind)))).sum()
    };
    assert_eq!(total(|s| s.ecalls), 5_164, "40.34375 ecalls per request");
    assert_eq!(total(|s| s.ocalls), 3_088, "24.125 ocalls per request");
}

/// (c) With `f` backups crashed the rest still commit.
fn commits_with_f_backups_crashed<P: Protocol>(stack: &Stack<P>) {
    let mut cluster = stack.cluster();
    let live = stack.n - stack.f;
    (live..stack.n).for_each(|i| cluster.crash(i));
    for ts in 1..=3 {
        cluster.submit(0, &[inc(ts)]);
    }
    for i in 0..live {
        assert_eq!((stack.counter)(cluster.replica(i)), 3, "{}: replica {i}", stack.name);
    }
    assert_eq!(cluster.replies.len(), 3 * live, "{}: every live replica answers", stack.name);
}

#[test]
fn every_stack_commits_with_f_backups_crashed() {
    commits_with_f_backups_crashed(&pbft());
    commits_with_f_backups_crashed(&splitbft());
    commits_with_f_backups_crashed(&hybrid());
}

/// (d) A replica that was down across a whole checkpoint interval comes
/// back empty and is brought level by its peers' hosting cores: the
/// `STATE_REQUEST` round its own core opens with, `STATE_RESPONSE`s
/// carrying the checkpoint, a restore under `f + 1` agreement. (A
/// replica merely *held* that long needs no transfer here — its inbox
/// loses nothing — so the scenario crashes it.)
fn a_restarted_replica_is_brought_level_by_state_transfer<P: Protocol>(stack: &Stack<P>) {
    let mut cluster = stack.cluster();
    let last = stack.n - 1;
    // State-transfer frames the restarted replica sent and received.
    let transfer = Rc::new(RefCell::new(Vec::new()));
    cluster.observe({
        let (transfer, id) = (Rc::clone(&transfer), ReplicaId(last as u32));
        move |frame| {
            let asked = frame.from == id && frame.kind == frame_kind::STATE_REQUEST;
            let answered = frame.to == id && frame.kind == frame_kind::STATE_RESPONSE;
            if asked || answered {
                transfer.borrow_mut().push(frame.kind);
            }
            true
        }
    });
    cluster.crash(last);
    for ts in 1..=stack.checkpoint_every {
        cluster.submit(0, &[inc(ts)]);
    }
    assert_eq!(cluster.replica(last).progress(), 0, "{}", stack.name);

    cluster.restart(last, (stack.replica)(ReplicaId(last as u32)));
    cluster.run();
    let mut expected = vec![frame_kind::STATE_REQUEST; last];
    expected.extend(vec![frame_kind::STATE_RESPONSE; last]);
    assert_eq!(*transfer.borrow(), expected, "{}: one round, every peer answers", stack.name);
    assert_eq!(cluster.replica(last).progress(), stack.checkpoint_every, "{}", stack.name);
    assert_eq!((stack.counter)(cluster.replica(last)), stack.checkpoint_every);

    // Level: it executes live traffic with everyone else.
    cluster.submit(0, &[inc(stack.checkpoint_every + 1)]);
    for i in 0..stack.n {
        let counter = (stack.counter)(cluster.replica(i));
        assert_eq!(counter, stack.checkpoint_every + 1, "{}: replica {i}", stack.name);
    }
}

#[test]
fn a_restarted_replica_catches_up_through_its_peers_on_every_stack() {
    a_restarted_replica_is_brought_level_by_state_transfer(&pbft());
    a_restarted_replica_is_brought_level_by_state_transfer(&splitbft());
    a_restarted_replica_is_brought_level_by_state_transfer(&hybrid());
}

/// (e) Every peer frame delivered while 20 requests run over a link
/// that drops, duplicates and delays by the plan seeded with `seed`.
fn trace_under_faults<P: Protocol>(stack: &Stack<P>, seed: u64) -> Vec<(u32, u32, u8, Vec<u8>)> {
    let mut cluster = stack.cluster();
    cluster.faults = FaultPlan::new(seed);
    cluster.faults.apply(FaultCommand::SetRule(LinkRule {
        drop_percent: 15,
        duplicate_percent: 15,
        reorder_percent: 30,
        delay_ms: 5,
        ..LinkRule::clean(ReplicaId(0), ReplicaId(stack.n as u32 - 1))
    }));
    let trace = Rc::new(RefCell::new(Vec::new()));
    cluster.observe({
        let trace = Rc::clone(&trace);
        move |frame| {
            let delivered = (frame.from.0, frame.to.0, frame.kind, frame.payload.to_vec());
            trace.borrow_mut().push(delivered);
            true
        }
    });
    for ts in 1..=20 {
        cluster.submit(0, &[inc(ts)]);
        cluster.advance(Duration::from_millis(3));
    }
    cluster.advance(Duration::from_millis(5));
    trace.take()
}

fn same_seed_same_trace<P: Protocol>(stack: &Stack<P>) {
    let first = trace_under_faults(stack, 7);
    assert!(!first.is_empty());
    assert_eq!(first, trace_under_faults(stack, 7), "{}: same seed, same trace", stack.name);
    assert_ne!(first, trace_under_faults(stack, 8), "{}: the seed is what decides", stack.name);
}

#[test]
fn the_same_fault_seed_reproduces_the_delivered_frame_trace() {
    same_seed_same_trace(&pbft());
    same_seed_same_trace(&splitbft());
    same_seed_same_trace(&hybrid());
}

/// (f) The model's explorer — one function over [`Protocol`], like the
/// rest of the battery — on each stack: 50 seeded schedules in which every
/// link drops a quarter of its frames and duplicates a sixth, and any
/// waiting frame may be delivered next. No two correct replicas may
/// commit different batches at one slot, and some must commit.
#[test]
fn no_seeded_schedule_under_hostile_environments_splits_any_stack() {
    let hostile = ExplorerConfig {
        schedules: 50,
        requests: 6,
        drop_percent: 25,
        duplicate_percent: 15,
        ..ExplorerConfig::default()
    };
    // PBFT's own fault model on top: the primary's key is the
    // adversary's, which equivocates with it as the schedule runs.
    let byzantine_primary = ExplorerConfig {
        compromised: vec![SignerId::Replica(ReplicaId(0))],
        injection_probability: 0.25,
        ..hostile.clone()
    };
    for (name, report) in [
        ("pbft", explore_pbft(&hostile)),
        ("pbft, byzantine primary", explore_pbft(&byzantine_primary)),
        ("splitbft", explore_splitbft(&hostile)),
        ("hybrid", explore_hybrid(&hostile)),
    ] {
        assert!(report.is_safe(), "{name}: {:?}", report.violations);
        assert!(report.total_commits > 0, "{name}: no schedule committed anything");
    }
}

/// The canonical checkpoint state of a counter at 3 whose reply cache
/// holds `inc` results 1, 2, 3 for clients 1, 2, 3 at timestamps 100, 200,
/// 300 — and its digest. Both were printed by `pbft::Replica` at the
/// commit *before* the three stacks' copies of the encoder were folded
/// into `ReplyCache`; like the crypto and wire golden files, never
/// regenerate them with newer code.
const GOLDEN_STATE: &str = "0800000003000000000000000300000001000000640000000000000008000000\
    010000000000000002000000c800000000000000080000000200000000000000030000002c01000000000000\
    080000000300000000000000";
const GOLDEN_DIGEST: &str = "bff10bc77911a58ceb876b45438c6e1d333c8dccf32ee3d8f735e8cc204a974f";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn checkpoint_state_is_byte_identical_across_the_three_stacks() {
    let incs: Vec<Request> = [(1, 100), (2, 200), (3, 300)]
        .into_iter()
        .map(|(c, ts)| make_request(SEED, ClientId(c), Timestamp(ts), Bytes::from_static(b"inc")))
        .collect();

    // The kit itself: the bytes, not just their digest.
    let keys = ClientMacKeys::new(SEED);
    let mut cache = ReplyCache::new();
    for (value, req) in (1u64..).zip(&incs) {
        let result = Bytes::copy_from_slice(&value.to_le_bytes());
        cache.record(&keys, View(0), ReplicaId(0), req.id, result, false);
    }
    let state = cache.encode_state(&3u64.to_le_bytes());
    assert_eq!(hex(&state), GOLDEN_STATE);
    assert_eq!(hex(&digest_bytes(&state).0), GOLDEN_DIGEST);

    // PBFT and SplitBFT replay the batch as a recovered commit point;
    // which replica does so must not show in the state.
    let committed = DurableEvent::Committed { seq: SeqNum(1), batch: RequestBatch::new(incs.clone()) };
    let config = ClusterConfig::new(4).unwrap();
    let mut pbft = PbftReplica::new(config.clone(), ReplicaId(2), SEED, CounterApp::new());
    pbft.replay_durable_event(committed.clone());
    assert_eq!(hex(&pbft.state_digest().0), GOLDEN_DIGEST, "pbft");

    let mut split = SplitBftReplica::new(
        config,
        ReplicaId(1),
        SEED,
        CounterApp::new(),
        ExecMode::Hardware,
        CostModel::paper_calibrated(),
    );
    split.replay_durable_event(committed);
    assert_eq!(hex(&split.state_digest().0), GOLDEN_DIGEST, "splitbft");

    // The hybrid snapshots every 64 executed slots: 61 reads (each one
    // overwritten in the cache by its client's later `inc`), then the
    // three `inc`s, one slot each.
    let mut hybrid = hybrid().cluster();
    for ts in 1..=61 {
        let read = make_request(SEED, ClientId(1), Timestamp(ts), Bytes::from_static(b"read"));
        hybrid.submit(0, &[read]);
    }
    for inc in incs {
        hybrid.submit(0, &[inc]);
    }
    for replica in (0..3).map(|i| hybrid.replica(i)) {
        let snapshot = replica.durable_checkpoint().expect("snapshot at slot 64");
        assert_eq!(snapshot.seq, SeqNum(64));
        assert_eq!(hex(&snapshot.state), GOLDEN_STATE, "hybrid replica {}", replica.id());
        assert_eq!(hex(&snapshot.digest.0), GOLDEN_DIGEST);
    }
}

#[test]
fn fault_model_ordering_matches_table_1() {
    // In-model scenarios hold for every system; beyond-model scenarios
    // break exactly where the paper's Table 1 says they do.
    for s in Scenario::ALL {
        let verdict = run_scenario(s, 99);
        assert_eq!(verdict.safety_held, s.expected_safe(), "{s:?}: {}", verdict.detail);
    }
}

#[test]
fn hybrid_client_completes_against_hybrid_cluster() {
    let mut cluster = hybrid().cluster();
    let quorum = HybridConfig::new(3).unwrap().reply_quorum();
    let mut client = Client::new(quorum, ClientId(0), SEED);
    cluster.submit(0, &[client.issue(Bytes::from_static(b"inc"))]);

    let mut completed = false;
    for reply in &cluster.replies {
        if let ClientEvent::Completed(result) = client.on_reply(reply) {
            assert_eq!(&result[..], &1u64.to_le_bytes());
            completed = true;
            break;
        }
    }
    assert!(completed, "got {} replies", cluster.replies.len());
}
