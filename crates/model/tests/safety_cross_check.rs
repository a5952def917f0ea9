//! Non-vacuity proof for the fault catalog's client oracle.
//!
//! The [`Oracle`] only ever sees results that reached an `f + 1`
//! MAC-verified reply quorum, so these tests hand-forge exactly the
//! trace a forked cluster would produce — two distinct requests each
//! backed by a full quorum claiming the *same* counter value — and
//! prove the pipeline flags it. Without this, an oracle that silently
//! never fires would make every catalog run vacuously "safe".

use bytes::Bytes;
use splitbft_app::QuorumTracker;
use splitbft_crypto::client_mac_key;
use splitbft_model::chaos::{Oracle, Violation};
use splitbft_model::Adversary;
use splitbft_types::{ClientId, ReplicaId, RequestId, Timestamp, View};

const SEED: u64 = 77;
const QUORUM: usize = 3; // f + 1 at n = 7, f = 2

fn request(client: u32, ts: u64) -> RequestId {
    RequestId { client: ClientId(client), timestamp: Timestamp(ts) }
}

/// Drives `request` through a fresh tracker with `QUORUM` forged
/// replies all claiming `result`, returning the agreed bytes.
fn forge_quorum(adversary: &Adversary, request: RequestId, result: &[u8]) -> Bytes {
    let mut tracker = QuorumTracker::new(client_mac_key(SEED, request.client), QUORUM);
    let mut agreed = None;
    for replica in 0..QUORUM as u32 {
        let reply = adversary.forge_reply(
            request,
            ReplicaId(replica),
            View(0),
            Bytes::copy_from_slice(result),
        );
        agreed = tracker.on_reply(&reply).or(agreed);
    }
    agreed.expect("f + 1 matching MAC-verified replies must reach quorum")
}

#[test]
fn forged_conflicting_commit_quorums_trip_the_oracle() {
    // The adversary needs no replica signing keys for this: replies are
    // MAC'd under per-client keys it derives from the master seed, the
    // same way a fully compromised replica set could.
    let adversary = Adversary::new(SEED, []);
    let fork_value = 41u64.to_le_bytes();

    let first = request(32, 1);
    let second = request(33, 1);
    let mut oracle = Oracle::new();

    let result = forge_quorum(&adversary, first, &fork_value);
    oracle.accept(first, result.clone()).expect("first claim of a value is clean");

    // A retransmission of the *same* request completing again is not a
    // fork and must stay silent.
    oracle.accept(first, result.clone()).expect("same request re-completing is benign");

    let forked = forge_quorum(&adversary, second, &fork_value);
    let violation = oracle
        .accept(second, forked)
        .expect_err("two requests accepted with one counter value is a fork");
    assert_eq!(violation, Violation { result: result.clone(), first, second });
    assert!(violation.to_string().contains("safety violation"), "got: {violation}");
    oracle.accept(first, result).expect("the forked value stays claimed by its first owner");
}

#[test]
fn distinct_results_never_trip_the_oracle() {
    let adversary = Adversary::new(SEED, []);
    let mut oracle = Oracle::new();
    // An honest history: every inc returns a fresh value.
    for (client, value) in [(32u32, 7u64), (33, 8), (34, 9)] {
        let id = request(client, 1);
        let result = forge_quorum(&adversary, id, &value.to_le_bytes());
        oracle.accept(id, result).expect("unique results must all record cleanly");
    }
}

#[test]
fn bad_macs_cannot_reach_a_quorum_at_all() {
    // A fork "observed" through unverified replies would be noise, not
    // evidence; the tracker must discard them before the oracle ever
    // sees a result.
    let adversary = Adversary::new(SEED, []);
    let id = request(32, 1);
    let mut tracker = QuorumTracker::new(client_mac_key(SEED, id.client), QUORUM);
    for replica in 0..QUORUM as u32 {
        let mut reply = adversary.forge_reply(
            id,
            ReplicaId(replica),
            View(0),
            Bytes::from_static(b"evil"),
        );
        reply.auth[0] ^= 0xFF;
        assert!(tracker.on_reply(&reply).is_none(), "corrupted MACs must not count");
    }
}
