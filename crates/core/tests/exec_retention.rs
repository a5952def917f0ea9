//! What the Execution enclave keeps for its checkpoints.
//!
//! Execution holds the application state, which dominates its TCB, and
//! a checkpoint must not hold a second copy of it: on SGX every retained
//! byte is scarce EPC. Each checkpoint keeps the state frozen as a clone
//! that shares its values with the live application, so what it costs is
//! the clone's containers. An Execution enclave over a key-value store of
//! 512 × 1 KiB values votes two checkpoints (neither becomes stable, so
//! both stay held) while a live-bytes allocator watches; what it retains
//! beyond what the same store costs on its own must stay well under one
//! copy of the state.
//!
//! One test function on purpose: the counter is global, so nothing else
//! may allocate while a run is being counted.

use splitbft_app::{Application, KeyValueStore, KvOp};
use splitbft_core::ecall::{CompartmentInput, CompartmentOutput};
use splitbft_core::scheme::enclave_signer;
use splitbft_core::ExecutionCompartment;
use splitbft_crypto::{digest_of, KeyPair};
use splitbft_pbft::make_request;
use splitbft_types::{
    ClientId, ClusterConfig, Commit, CompartmentKind, ConsensusMessage, PrePrepare, ReplicaId,
    RequestBatch, SeqNum, Timestamp, View,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

static LIVE: AtomicI64 = AtomicI64::new(0);

/// The system allocator plus a running count of the bytes it has out.
struct LiveBytes;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic
// (relaxed atomics that publish no other data).
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

const SEED: u64 = 42;
const INTERVAL: u64 = 4;
const VALUES: u64 = 512;
const VALUE: usize = 1024;
const CLIENTS: u64 = 16;

/// Slot `seq`'s operations: the first checkpoint interval puts the 512
/// values, the second only reads them back.
fn ops(seq: u64) -> Vec<Vec<u8>> {
    let per_slot = VALUES / INTERVAL;
    (0..per_slot)
        .map(|i| {
            let key = ((seq - 1) % INTERVAL * per_slot + i).to_le_bytes();
            let op = if seq <= INTERVAL { KvOp::put(&key, &[seq as u8; VALUE]) } else { KvOp::get(&key) };
            op.encode_op().to_vec()
        })
        .collect()
}

/// Delivers slot `seq` to `exec`: its proposal, then a commit quorum of
/// Confirmation votes.
fn commit_slot(exec: &mut ExecutionCompartment<KeyValueStore>, seq: u64) {
    let requests = (0..).zip(ops(seq)).map(|(i, op)| {
        let client = ClientId((i % CLIENTS) as u32);
        make_request(SEED, client, Timestamp(seq * 1_000 + i), op.into())
    });
    let batch = RequestBatch::new(requests.collect());
    let (view, seq, digest) = (View::initial(), SeqNum(seq), digest_of(&batch));
    let primary = enclave_signer(ReplicaId(0), CompartmentKind::Preparation);
    let pp = KeyPair::for_signer(SEED, primary)
        .sign_payload(PrePrepare { view, seq, digest, batch }, primary);
    let mut outputs = Vec::new();
    let mut deliver = |msg, outputs: &mut Vec<CompartmentOutput>| {
        exec.handle(CompartmentInput::Message(msg), outputs).expect("a valid message is accepted");
    };
    deliver(ConsensusMessage::PrePrepare(pp), &mut outputs);
    for voter in 0..3 {
        let signer = enclave_signer(ReplicaId(voter), CompartmentKind::Confirmation);
        let vote = Commit { view, seq, digest, replica: ReplicaId(voter) };
        let commit = KeyPair::for_signer(SEED, signer).sign_payload(vote, signer);
        deliver(ConsensusMessage::Commit(commit), &mut outputs);
    }
    assert!(
        outputs.iter().any(|o| matches!(o, CompartmentOutput::Committed { seq: s, .. } if *s == seq)),
        "slot {seq} executes"
    );
}

#[test]
fn checkpoints_keep_the_state_frozen_not_a_copy_of_it() {
    let config = ClusterConfig::new(4).unwrap().with_checkpoint_interval(INTERVAL);

    let mut exec = ExecutionCompartment::new(config, ReplicaId(1), SEED, KeyValueStore::new());
    let before = LIVE.load(Ordering::Relaxed);
    for seq in 1..=2 * INTERVAL {
        commit_slot(&mut exec, seq);
    }
    let retained = LIVE.load(Ordering::Relaxed) - before;

    // The same store, built by the same operations, on its own.
    let before = LIVE.load(Ordering::Relaxed);
    let mut alone = KeyValueStore::new();
    for seq in 1..=2 * INTERVAL {
        for op in ops(seq) {
            alone.execute(&op);
        }
    }
    let app = LIVE.load(Ordering::Relaxed) - before;

    assert_eq!(exec.app(), &alone);
    assert_eq!(exec.stable_seq(), SeqNum(0), "both checkpoints are still pending");
    let state = exec.app().snapshot().len() as i64;
    let beyond = retained - app;
    println!(
        "Execution retains {retained} B: the store costs {app} B alone, \
         {beyond} B beyond it for two checkpoints of a {state} B state"
    );
    assert!(
        beyond < state / 4,
        "Execution retains {beyond} B beyond its store for two checkpoints: \
         not well under one {state} B copy of the state"
    );
}
