//! What the broker's suffix ring keeps per committed slot.
//!
//! The ring holds, for every slot above the stable checkpoint, the
//! committed proposal and its commit votes, so its per-slot tables are
//! sized to the cluster: one vote per replica and, in honest traffic, one
//! proposal. A ring for four replicas commits 256 slots while a
//! live-bytes allocator watches; the bytes it retains per slot, beyond
//! the request payloads it shares with the messages it was handed, must
//! stay within one proposal (with its digest and request table), four
//! votes and a fixed allowance for the slot's entry in the ring.
//!
//! One test function on purpose: the counter is global, so nothing else
//! may allocate while a run is being counted.

use bytes::Bytes;
use splitbft_core::suffix::SuffixRing;
use splitbft_crypto::digest_of;
use splitbft_types::message::MessagePayload;
use splitbft_types::{
    ClientId, Commit, ConsensusMessage, Digest, PrePrepare, ReplicaId, Request, RequestBatch, RequestId,
    SeqNum, Signature, Signed, SignerId, Timestamp, View,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
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

const N: usize = 4;
const SLOTS: u64 = 256;
/// What a slot may cost beyond its messages and the batch's request
/// table: its entry in the slot map (B-tree nodes of 11 entries, often
/// half full).
const BOOKKEEPING: usize = 256;

fn signed<T: MessagePayload>(payload: T, replica: u32) -> Signed<T> {
    Signed::new(payload, SignerId::Replica(ReplicaId(replica)), Signature::ZERO)
}

/// Slot `seq`'s proposal (one request) and its `N` commit votes.
fn certificate(seq: u64) -> Vec<ConsensusMessage> {
    let request = Request {
        id: RequestId { client: ClientId(1), timestamp: Timestamp(seq) },
        op: Bytes::from(vec![seq as u8; 64]),
        encrypted: false,
        auth: [0; 32],
    };
    let batch = RequestBatch::single(request);
    let digest = digest_of(&batch);
    let (view, seq) = (View(0), SeqNum(seq));
    let mut msgs = vec![ConsensusMessage::PrePrepare(signed(
        PrePrepare { view, seq, digest, batch },
        0,
    ))];
    for replica in 0..N as u32 {
        let vote = Commit { view, seq, digest, replica: ReplicaId(replica) };
        msgs.push(ConsensusMessage::Commit(signed(vote, replica)));
    }
    msgs
}

#[test]
fn a_committed_slot_costs_one_proposal_and_one_vote_per_replica() {
    let certificates: Vec<Vec<ConsensusMessage>> = (1..=SLOTS).map(certificate).collect();
    let mut ring = SuffixRing::for_cluster(512, N);

    let before = LIVE.load(Ordering::Relaxed);
    for (seq, msgs) in (1..=SLOTS).zip(&certificates) {
        let mut committed = None;
        for msg in msgs {
            committed = committed.or(ring.observe(msg, View(0)));
        }
        ring.mark_committed(SeqNum(seq), committed.expect("a proposal's digest"));
        assert!(ring.holds_committed(SeqNum(seq)), "slot {seq} is held");
    }
    let per_slot = (LIVE.load(Ordering::Relaxed) - before) / SLOTS as i64;

    let bound = size_of::<(Digest, Signed<PrePrepare>)>()
        + size_of::<Request>()
        + N * size_of::<Option<Signed<Commit>>>()
        + BOOKKEEPING;
    println!("the suffix ring retains {per_slot} B per committed slot (bound {bound} B)");
    assert!(
        per_slot <= bound as i64,
        "the suffix ring retains {per_slot} B per committed slot, above {bound} B"
    );
    drop(certificates);
}
