//! What the Preparation enclave keeps once its handlers return.
//!
//! After a proposal is validated, Preparation reads only the slot's
//! digest and whether its own `Prepare` went out, so that is all it may
//! keep: on SGX every retained byte is scarce EPC, and Confirmation and
//! the broker already hold the batch for view change and catch-up. A
//! backup handles 64 valid proposals of 16 × 1 KiB requests (1 MiB of
//! payload) while a live-bytes allocator watches; what it still holds
//! afterwards must stay under one request payload per slot.
//!
//! One test function on purpose: the counter is global, so nothing else
//! may allocate while a run is being counted.

use bytes::Bytes;
use splitbft_core::ecall::{CompartmentInput, CompartmentOutput};
use splitbft_core::scheme::enclave_signer;
use splitbft_core::PreparationCompartment;
use splitbft_crypto::{digest_of, KeyPair};
use splitbft_pbft::make_request;
use splitbft_types::{
    ClientId, ClusterConfig, CompartmentKind, ConsensusMessage, PrePrepare, ReplicaId,
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
const SLOTS: u64 = 64;
const REQUESTS_PER_BATCH: u32 = 16;
const PAYLOAD: usize = 1024;

#[test]
fn a_backup_preparation_enclave_retains_headers_not_batches() {
    let config = ClusterConfig::new(4).unwrap();
    let mut prep = PreparationCompartment::new(config, ReplicaId(1), SEED);
    let primary = enclave_signer(ReplicaId(0), CompartmentKind::Preparation);
    let keys = KeyPair::for_signer(SEED, primary);
    let mut outputs = Vec::new();

    let before = LIVE.load(Ordering::Relaxed);
    for seq in 1..=SLOTS {
        let requests = (0..REQUESTS_PER_BATCH)
            .map(|c| {
                let op = Bytes::from(vec![seq as u8; PAYLOAD]);
                make_request(SEED, ClientId(c), Timestamp(seq), op)
            })
            .collect();
        let batch = RequestBatch::new(requests);
        let digest = digest_of(&batch);
        let pp = PrePrepare { view: View::initial(), seq: SeqNum(seq), digest, batch };
        let pp = keys.sign_payload(pp, primary);
        let input = CompartmentInput::Message(ConsensusMessage::PrePrepare(pp));
        prep.handle(input, &mut outputs).expect("a valid proposal is accepted");
        assert!(
            matches!(outputs[..], [CompartmentOutput::Broadcast(ConsensusMessage::Prepare(_))]),
            "slot {seq}: one Prepare"
        );
        outputs.clear();
    }
    drop(outputs);
    let retained = LIVE.load(Ordering::Relaxed) - before;

    let payload = SLOTS as usize * REQUESTS_PER_BATCH as usize * PAYLOAD;
    println!(
        "Preparation retains {retained} B after {SLOTS} slots carrying {payload} B of requests"
    );
    assert!(
        retained < (SLOTS as usize * PAYLOAD) as i64,
        "Preparation retains {retained} B for {SLOTS} slots: more than one request payload per slot"
    );
}
