//! Property tests for the broker's committed-certificate suffix ring.
//!
//! The load-bearing invariant: **GC never drops a certificate newer
//! than the last stable (sealed) checkpoint.** A peer state transfer
//! built on the ring is only sound if everything above the checkpoint
//! a peer can restore is still servable from the log path; dropping a
//! newer certificate would strand peers between the checkpoint stream
//! and the suffix. The ring enforces it structurally — GC only removes
//! slots at or below the stable mark, and capacity pressure refuses
//! *new* slots instead of evicting retained ones.

use proptest::prelude::*;
use splitbft_core::suffix::SuffixRing;
use splitbft_types::{
    Commit, ConsensusMessage, Digest, PrePrepare, ReplicaId, Request, RequestBatch, RequestId,
    SeqNum, Signature, Signed, SignerId, Timestamp, View,
};
use std::collections::BTreeSet;

fn request(ts: u64) -> Request {
    Request {
        id: RequestId { client: splitbft_types::ClientId(1), timestamp: Timestamp(ts) },
        op: bytes::Bytes::from_static(b"inc"),
        encrypted: false,
        auth: [0u8; 32],
    }
}

/// A slot's committed proposal; the digest is the *recomputed* batch
/// digest, matching what the ring keys proposals by.
fn pre_prepare(seq: u64) -> (ConsensusMessage, Digest) {
    let batch = RequestBatch::single(request(seq));
    let digest = splitbft_crypto::digest_of(&batch);
    let pp = PrePrepare { view: View(0), seq: SeqNum(seq), digest, batch };
    (
        ConsensusMessage::PrePrepare(Signed::new(
            pp,
            SignerId::Replica(ReplicaId(0)),
            Signature::ZERO,
        )),
        digest,
    )
}

fn commit(seq: u64, digest: Digest, replica: u32) -> ConsensusMessage {
    let c = Commit { view: View(0), seq: SeqNum(seq), digest, replica: ReplicaId(replica) };
    ConsensusMessage::Commit(Signed::new(
        c,
        SignerId::Replica(ReplicaId(replica)),
        Signature::ZERO,
    ))
}

/// Harvest + commit one full certificate for `seq` (proposal plus three
/// votes), the way the broker does under live traffic.
fn commit_slot(ring: &mut SuffixRing, seq: u64) {
    let (pp, digest) = pre_prepare(seq);
    ring.observe(&pp, View(0));
    for replica in 0..3u32 {
        ring.observe(&commit(seq, digest, replica), View(0));
    }
    ring.mark_committed(SeqNum(seq), digest);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Random interleavings of commits and checkpoint GCs: after every
    // operation, every certificate committed above the current stable
    // mark is still held in full, and nothing at or below it survives.
    #[test]
    fn gc_never_drops_a_certificate_newer_than_the_stable_checkpoint(
        ops in collection::vec((any::<u8>(), 1..80u64), 1..150),
    ) {
        let mut ring = SuffixRing::new(512);
        // Model: committed slots that must remain servable.
        let mut committed: BTreeSet<u64> = BTreeSet::new();
        let mut stable: u64 = 0;

        for (kind, seq) in ops {
            match kind % 3 {
                0 | 2 => {
                    commit_slot(&mut ring, seq);
                    if seq > stable {
                        committed.insert(seq);
                    }
                }
                _ => {
                    if seq > stable {
                        stable = seq;
                    }
                    ring.gc(SeqNum(seq));
                    committed.retain(|s| *s > stable);
                }
            }

            prop_assert_eq!(ring.stable(), SeqNum(stable));
            // Everything newer than stable survives, in full.
            for &live in &committed {
                prop_assert!(
                    ring.holds_committed(SeqNum(live)),
                    "certificate for slot {} (stable {}) was dropped", live, stable
                );
            }
            // Nothing at or below stable is ever served.
            let served = ring.messages_from(SeqNum(0));
            for msg in &served {
                let seq = match msg {
                    ConsensusMessage::PrePrepare(pp) => pp.payload.seq.0,
                    ConsensusMessage::Commit(c) => c.payload.seq.0,
                    other => panic!("ring served a foreign message: {other:?}"),
                };
                prop_assert!(seq > stable, "served slot {} at/below stable {}", seq, stable);
            }
        }
    }

    // The served suffix is exactly the committed slots above the
    // requester's progress, each proposal leading its votes.
    #[test]
    fn served_suffix_covers_committed_slots_above_have_seq(
        slots in collection::vec(1..60u64, 1..40),
        have in 0..60u64,
    ) {
        let mut ring = SuffixRing::new(512);
        let unique: BTreeSet<u64> = slots.into_iter().collect();
        for &seq in &unique {
            commit_slot(&mut ring, seq);
        }
        let served = ring.messages_from(SeqNum(have));
        let expect: Vec<u64> = unique.iter().copied().filter(|s| *s > have).collect();
        let proposals: Vec<u64> = served
            .iter()
            .filter_map(|m| match m {
                ConsensusMessage::PrePrepare(pp) => Some(pp.payload.seq.0),
                _ => None,
            })
            .collect();
        prop_assert_eq!(proposals, expect);
        // Each proposal travels with its full vote set.
        let votes = served
            .iter()
            .filter(|m| matches!(m, ConsensusMessage::Commit(_)))
            .count();
        prop_assert_eq!(votes, unique.iter().filter(|s| **s > have).count() * 3);
    }
}

#[test]
fn capacity_pressure_refuses_new_slots_instead_of_evicting() {
    let mut ring = SuffixRing::new(4);
    for seq in 1..=4u64 {
        commit_slot(&mut ring, seq);
    }
    assert_eq!(ring.len(), 4);
    // A fifth slot is refused outright...
    commit_slot(&mut ring, 5);
    assert!(!ring.holds_committed(SeqNum(5)), "over-capacity slot was admitted");
    // ...and every retained certificate is untouched.
    for seq in 1..=4u64 {
        assert!(ring.holds_committed(SeqNum(seq)), "retained slot {seq} was evicted");
    }
    // GC frees capacity; new slots are admitted again.
    ring.gc(SeqNum(2));
    commit_slot(&mut ring, 6);
    assert!(ring.holds_committed(SeqNum(6)));
    assert!(!ring.holds_committed(SeqNum(2)), "GC'd slot still served");
}

#[test]
fn latest_new_view_survives_gc_and_leads_the_suffix() {
    use splitbft_types::NewView;
    let new_view = |view: u64| {
        ConsensusMessage::NewView(Signed::new(
            NewView { view: View(view), view_changes: Vec::new(), pre_prepares: Vec::new() },
            SignerId::Replica(ReplicaId(1)),
            Signature::ZERO,
        ))
    };
    let mut ring = SuffixRing::new(16);
    ring.observe(&new_view(2), View(0));
    ring.observe(&new_view(1), View(0)); // older: must not regress the retained one
    // A forged far-future NewView (unverifiable at the broker layer)
    // must not displace the real latest one from the suffix head.
    ring.observe(&new_view(u64::MAX), View(0));
    ring.observe(&new_view(1_000), View(2));
    commit_slot(&mut ring, 9);
    ring.gc(SeqNum(5));

    let served = ring.messages_from(SeqNum(0));
    assert_eq!(
        served.first(),
        Some(&new_view(2)),
        "the latest NewView must lead the suffix (a view-stranded peer rejects \
         everything else until it processes one)"
    );
    assert!(served.contains(&{
        let (pp, _) = pre_prepare(9);
        pp
    }));
}

#[test]
fn far_future_garbage_cannot_poison_the_ring() {
    // The broker harvests pre-verification, so a byzantine peer can
    // spray unverifiable messages at arbitrary sequence numbers. Only
    // the horizon (stable, stable + cap] is admitted: far-future
    // garbage — which no stable checkpoint would ever GC — is refused
    // outright, in-horizon junk merely occupies seq numbers the next
    // checkpoint sweeps away, and real slots are never crowded out.
    let mut ring = SuffixRing::new(8);
    // Far future: refused, occupies nothing, forever.
    let (pp_far, digest_far) = pre_prepare(1_000_000);
    ring.observe(&pp_far, View(0));
    ring.observe(&commit(1_000_000, digest_far, 0), View(0));
    assert_eq!(ring.len(), 0, "far-future garbage was admitted");

    // Junk occupying most of the horizon never blocks real slots.
    for seq in 3..=8u64 {
        let (pp, _) = pre_prepare(seq);
        ring.observe(&pp, View(0));
    }
    for seq in 1..=2u64 {
        commit_slot(&mut ring, seq);
        assert!(
            ring.holds_committed(SeqNum(seq)),
            "real slot {seq} was crowded out by junk"
        );
    }
    assert!(ring.len() <= 8, "ring exceeded its structural bound");

    // GC sweeps junk with everything else; the horizon follows stable.
    ring.gc(SeqNum(8));
    assert!(ring.is_empty());
    commit_slot(&mut ring, 9);
    assert!(ring.holds_committed(SeqNum(9)), "post-GC horizon did not advance");

    // Per-slot proposal flood: distinct-digest forgeries for one slot
    // are capped, and the genuine (committed) proposal still wins when
    // it was among the retained candidates.
    let mut ring = SuffixRing::new(8);
    let (real, real_digest) = pre_prepare(3);
    ring.observe(&real, View(0));
    for junk in 0..64u64 {
        let batch = RequestBatch::single(request(junk + 100));
        let digest = splitbft_crypto::digest_of(&batch);
        let forged = ConsensusMessage::PrePrepare(Signed::new(
            PrePrepare { view: View(0), seq: SeqNum(3), digest, batch },
            SignerId::Replica(ReplicaId(3)),
            Signature::ZERO,
        ));
        ring.observe(&forged, View(0));
    }
    for r in 0..3u32 {
        ring.observe(&commit(3, real_digest, r), View(0));
    }
    ring.mark_committed(SeqNum(3), real_digest);
    assert!(
        ring.holds_committed(SeqNum(3)),
        "proposal flood displaced the genuine committed proposal"
    );
}

#[test]
fn view_spanning_slots_serve_the_latest_view_copies() {
    // A slot in flight across a view change gets re-proposed (same
    // batch, same recomputed digest) in the new view. The ring must
    // serve the *new-view* proposal and votes — a recovering peer,
    // moved to the new view by the NewView heading the suffix, rejects
    // old-view copies as WrongView.
    let in_view = |seq: u64, view: u64| {
        let batch = RequestBatch::single(request(seq));
        let digest = splitbft_crypto::digest_of(&batch);
        let pp = PrePrepare { view: View(view), seq: SeqNum(seq), digest, batch };
        (
            ConsensusMessage::PrePrepare(Signed::new(
                pp,
                SignerId::Replica(ReplicaId(0)),
                Signature::ZERO,
            )),
            digest,
        )
    };
    let commit_in_view = |seq: u64, digest: Digest, replica: u32, view: u64| {
        ConsensusMessage::Commit(Signed::new(
            Commit { view: View(view), seq: SeqNum(seq), digest, replica: ReplicaId(replica) },
            SignerId::Replica(ReplicaId(replica)),
            Signature::ZERO,
        ))
    };

    let mut ring = SuffixRing::new(16);
    let (pp_v0, digest) = in_view(5, 0);
    ring.observe(&pp_v0, View(0));
    for r in 0..3u32 {
        ring.observe(&commit_in_view(5, digest, r, 0), View(0));
    }
    // View change: the same slot re-proposed and re-voted in view 1.
    let (pp_v1, _) = in_view(5, 1);
    ring.observe(&pp_v1, View(0));
    for r in 0..3u32 {
        ring.observe(&commit_in_view(5, digest, r, 1), View(0));
    }
    ring.mark_committed(SeqNum(5), digest);

    let served = ring.messages_from(SeqNum(0));
    assert!(served.contains(&pp_v1), "new-view proposal must be served");
    assert!(!served.contains(&pp_v0), "old-view proposal must be replaced");
    for msg in &served {
        if let ConsensusMessage::Commit(c) = msg {
            assert_eq!(c.payload.view, View(1), "old-view vote survived the view change");
        }
    }
    // An out-of-order stale copy arriving late never regresses the slot.
    ring.observe(&pp_v0, View(0));
    assert!(!ring.messages_from(SeqNum(0)).contains(&pp_v0));
}

#[test]
fn byzantine_substitute_proposals_never_shadow_the_committed_batch() {
    let mut ring = SuffixRing::new(16);
    let (good, good_digest) = pre_prepare(7);
    // A forged proposal for the same slot with a different batch.
    let forged_batch = RequestBatch::single(request(999));
    let forged_digest = splitbft_crypto::digest_of(&forged_batch);
    let forged = ConsensusMessage::PrePrepare(Signed::new(
        PrePrepare { view: View(0), seq: SeqNum(7), digest: forged_digest, batch: forged_batch },
        SignerId::Replica(ReplicaId(3)),
        Signature::ZERO,
    ));
    ring.observe(&forged, View(0));
    ring.observe(&good, View(0));
    for replica in 0..3u32 {
        ring.observe(&commit(7, good_digest, replica), View(0));
        ring.observe(&commit(7, forged_digest, replica), View(0));
    }
    ring.mark_committed(SeqNum(7), good_digest);

    let served = ring.messages_from(SeqNum(0));
    assert!(served.contains(&good), "committed proposal must be served");
    assert!(!served.contains(&forged), "forged proposal leaked into the suffix");
    assert!(
        served.iter().all(|m| !matches!(
            m,
            ConsensusMessage::Commit(c) if c.payload.digest == forged_digest
        )),
        "votes for the losing digest leaked into the suffix"
    );
}

#[test]
fn commits_from_voters_outside_the_cluster_are_not_retained() {
    // The broker harvests before any verification, so a voter id is
    // whatever the sender wrote. A ring for four replicas keeps one vote
    // for each of ids 0..4: forged ids neither grow a slot nor open one.
    let mut ring = SuffixRing::new(16);
    let (pp, digest) = pre_prepare(3);
    ring.observe(&pp, View(0));
    for forged in (4..1_000u32).chain([u32::MAX]) {
        ring.observe(&commit(3, digest, forged), View(0));
        ring.observe(&commit(5, digest, forged), View(0));
    }
    assert_eq!(ring.len(), 1, "a forged voter opened a slot");
    for replica in 0..3u32 {
        ring.observe(&commit(3, digest, replica), View(0));
    }
    ring.mark_committed(SeqNum(3), digest);
    let votes: Vec<u32> = ring
        .messages_from(SeqNum(0))
        .iter()
        .filter_map(|m| match m {
            ConsensusMessage::Commit(c) => Some(c.payload.replica.0),
            _ => None,
        })
        .collect();
    assert_eq!(votes, [0, 1, 2], "only the cluster's own voters are retained and served");
}
