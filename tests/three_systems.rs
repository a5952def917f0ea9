//! The same workload through all three systems — PBFT, the hybrid
//! baseline, and SplitBFT — must yield the same application state, and
//! their relative fault tolerance must match the paper's Table 1.

use bytes::Bytes;
use splitbft::app::CounterApp;
use splitbft::hybrid::{HybridAction, HybridConfig, HybridReplica, Usig};
use splitbft::model::{run_scenario, Scenario};
use splitbft::prelude::*;
use splitbft::app::ReplyCache;
use splitbft::crypto::{digest_bytes, ClientMacKeys};
use splitbft::types::{ConsensusMessage, DurableEvent, Request, RequestBatch};
use std::collections::VecDeque;

const SEED: u64 = 808;

/// Drives `increments` through a SplitBFT cluster, returns the final
/// counter value on replica 0.
fn run_splitbft(increments: u64) -> u64 {
    let config = ClusterConfig::new(4).unwrap();
    let mut replicas: Vec<SplitBftReplica<CounterApp>> = (0..4u32)
        .map(|i| {
            SplitBftReplica::new(
                config.clone(),
                ReplicaId(i),
                SEED,
                CounterApp::new(),
                ExecMode::Hardware,
                CostModel::paper_calibrated(),
            )
        })
        .collect();
    let mut queues: Vec<VecDeque<ConsensusMessage>> = (0..4).map(|_| VecDeque::new()).collect();
    for ts in 1..=increments {
        let req = make_request(SEED, ClientId(0), Timestamp(ts), Bytes::from_static(b"inc"));
        let events = replicas[0].on_client_batch(vec![req]);
        for e in events {
            if let ReplicaEvent::Broadcast(m) = e {
                for (j, q) in queues.iter_mut().enumerate() {
                    if j != 0 {
                        q.push_back(m.clone());
                    }
                }
            }
        }
        loop {
            let mut progressed = false;
            for i in 0..4 {
                while let Some(m) = queues[i].pop_front() {
                    progressed = true;
                    for e in replicas[i].on_network_message(m) {
                        if let ReplicaEvent::Broadcast(m2) = e {
                            for (j, q) in queues.iter_mut().enumerate() {
                                if j != i {
                                    q.push_back(m2.clone());
                                }
                            }
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }
    // All replicas agree.
    let v = replicas[0].app().value();
    for r in &replicas {
        assert_eq!(r.app().value(), v, "divergence at {}", r.id());
    }
    v
}

fn run_pbft(increments: u64) -> u64 {
    let config = ClusterConfig::new(4).unwrap();
    let mut replicas: Vec<PbftReplica<CounterApp>> = (0..4u32)
        .map(|i| PbftReplica::new(config.clone(), ReplicaId(i), SEED, CounterApp::new()))
        .collect();
    let mut queues: Vec<VecDeque<ConsensusMessage>> = (0..4).map(|_| VecDeque::new()).collect();
    for ts in 1..=increments {
        let req = make_request(SEED, ClientId(0), Timestamp(ts), Bytes::from_static(b"inc"));
        let actions = replicas[0].on_client_batch(vec![req]);
        for a in actions {
            if let splitbft::pbft::Action::Broadcast { msg } = a {
                for (j, q) in queues.iter_mut().enumerate() {
                    if j != 0 {
                        q.push_back(msg.clone());
                    }
                }
            }
        }
        loop {
            let mut progressed = false;
            for i in 0..4 {
                while let Some(m) = queues[i].pop_front() {
                    progressed = true;
                    for a in replicas[i].on_message(m).unwrap_or_default() {
                        if let splitbft::pbft::Action::Broadcast { msg } = a {
                            for (j, q) in queues.iter_mut().enumerate() {
                                if j != i {
                                    q.push_back(msg.clone());
                                }
                            }
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }
    let v = replicas[0].app().value();
    for r in &replicas {
        assert_eq!(r.app().value(), v);
    }
    v
}

fn hybrid_cluster() -> Vec<HybridReplica<CounterApp, Usig>> {
    let config = HybridConfig::new(3).unwrap();
    (0..3u32)
        .map(|i| {
            HybridReplica::new(
                config.clone(),
                ReplicaId(i),
                SEED,
                Usig::new(SEED, ReplicaId(i)),
                CounterApp::new(),
            )
        })
        .collect()
}

/// Orders `batch` through the hybrid primary and delivers every message
/// until the cluster is quiet.
fn pump_hybrid(replicas: &mut [HybridReplica<CounterApp, Usig>], batch: Vec<Request>) {
    let mut queues: Vec<VecDeque<splitbft::hybrid::HybridMessage>> =
        (0..3).map(|_| VecDeque::new()).collect();
    let mut sender = 0;
    let mut actions = replicas[0].on_client_batch(batch);
    loop {
        for a in actions.drain(..) {
            if let HybridAction::Broadcast(m) = a {
                for (j, q) in queues.iter_mut().enumerate() {
                    if j != sender {
                        q.push_back(m.clone());
                    }
                }
            }
        }
        let Some(next) = (0..3).find(|&i| !queues[i].is_empty()) else { break };
        let m = queues[next].pop_front().expect("non-empty");
        sender = next;
        actions = replicas[next].on_message(m).unwrap_or_default();
    }
}

fn run_hybrid(increments: u64) -> u64 {
    let mut replicas = hybrid_cluster();
    for ts in 1..=increments {
        let req = make_request(SEED, ClientId(0), Timestamp(ts), Bytes::from_static(b"inc"));
        pump_hybrid(&mut replicas, vec![req]);
    }
    let v = replicas[0].app().value();
    for r in &replicas {
        assert_eq!(r.app().value(), v);
    }
    v
}

#[test]
fn all_three_systems_compute_the_same_state() {
    assert_eq!(run_splitbft(7), 7);
    assert_eq!(run_pbft(7), 7);
    assert_eq!(run_hybrid(7), 7);
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
    let mut hybrid = hybrid_cluster();
    hybrid.iter_mut().for_each(HybridReplica::enable_durable_events);
    for ts in 1..=61 {
        let read = make_request(SEED, ClientId(1), Timestamp(ts), Bytes::from_static(b"read"));
        pump_hybrid(&mut hybrid, vec![read]);
    }
    for inc in incs {
        pump_hybrid(&mut hybrid, vec![inc]);
    }
    for replica in &hybrid {
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
    let config = HybridConfig::new(3).unwrap();
    let mut replicas: Vec<HybridReplica<CounterApp, Usig>> = (0..3u32)
        .map(|i| {
            HybridReplica::new(
                config.clone(),
                ReplicaId(i),
                SEED,
                Usig::new(SEED, ReplicaId(i)),
                CounterApp::new(),
            )
        })
        .collect();
    let mut client = LockstepClient::new(config.reply_quorum(), ClientId(0), SEED);
    let request = client.issue(Bytes::from_static(b"inc"));

    let mut replies = Vec::new();
    let actions = replicas[0].on_client_batch(vec![request]);
    let mut queues: Vec<VecDeque<splitbft::hybrid::HybridMessage>> =
        (0..3).map(|_| VecDeque::new()).collect();
    for a in actions {
        match a {
            HybridAction::Broadcast(m) => {
                queues[1].push_back(m.clone());
                queues[2].push_back(m);
            }
            HybridAction::SendReply { reply, .. } => replies.push(reply),
            _ => {}
        }
    }
    loop {
        let mut progressed = false;
        for i in 0..3 {
            while let Some(m) = queues[i].pop_front() {
                progressed = true;
                for a in replicas[i].on_message(m).unwrap_or_default() {
                    match a {
                        HybridAction::Broadcast(m2) => {
                            for (j, q) in queues.iter_mut().enumerate() {
                                if j != i {
                                    q.push_back(m2.clone());
                                }
                            }
                        }
                        HybridAction::SendReply { reply, .. } => replies.push(reply),
                        _ => {}
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }

    let mut completed = false;
    for reply in &replies {
        if let ClientEvent::Completed(result) = client.on_reply(reply) {
            assert_eq!(&result[..], &1u64.to_le_bytes());
            completed = true;
            break;
        }
    }
    assert!(completed, "got {} replies", replies.len());
}
