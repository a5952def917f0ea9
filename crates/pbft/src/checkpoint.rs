//! Checkpoint collection and stability tracking.
//!
//! Replicas periodically broadcast a `Checkpoint` with a digest (and copy)
//! of their state. Once `2f + 1` matching checkpoints for the same
//! sequence number are collected, the checkpoint is *stable*: the proof is
//! retained, older log entries are discarded, and — per the paper —
//! "compartments keep the Checkpoints and discard messages for sequence
//! numbers before the checkpoint, even if they are received later".

use crate::votes::VoteSet;
use splitbft_types::{
    Checkpoint, CheckpointCertificate, ClusterConfig, ProtocolError, SeqNum, Signed,
};
use std::collections::BTreeMap;

/// Collects checkpoint votes and detects stability.
#[derive(Debug, Clone)]
pub struct CheckpointTracker {
    /// Votes by sequence number, then sender.
    pending: BTreeMap<SeqNum, VoteSet<Signed<Checkpoint>>>,
    /// Proof of the current stable checkpoint (genesis initially).
    stable: CheckpointCertificate,
}

impl Default for CheckpointTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointTracker {
    /// A tracker at the genesis checkpoint.
    pub fn new() -> Self {
        CheckpointTracker { pending: BTreeMap::new(), stable: CheckpointCertificate::genesis() }
    }

    /// The current stable sequence number.
    pub fn stable_seq(&self) -> SeqNum {
        self.stable.seq()
    }

    /// The proof of the current stable checkpoint.
    pub fn stable_proof(&self) -> &CheckpointCertificate {
        &self.stable
    }

    /// Checks `seq` against the watermark window `(stable, stable + window]`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::OutOfWindow`] when outside it.
    pub fn check_window(&self, seq: SeqNum, window: u64) -> Result<(), ProtocolError> {
        let low = self.stable_seq();
        let high = SeqNum(low.0 + window);
        if seq > low && seq <= high {
            Ok(())
        } else {
            Err(ProtocolError::OutOfWindow { seq, low, high })
        }
    }

    /// Installs an externally validated certificate (from a `NewView` or a
    /// `ViewChange`) if it is newer than the current stable point.
    /// Returns `true` if the stable point advanced.
    pub fn install_certificate(&mut self, cert: CheckpointCertificate) -> bool {
        if cert.seq() > self.stable.seq() {
            let seq = cert.seq();
            self.stable = cert;
            self.drop_up_to(seq);
            true
        } else {
            false
        }
    }

    /// Inserts one checkpoint vote. Votes for sequence numbers at or below
    /// the stable point are ignored ("discard messages for sequence
    /// numbers before the checkpoint, even if they are received later").
    ///
    /// Returns the new stable certificate when this vote completes a
    /// `2f + 1` matching quorum beyond the current stable point.
    pub fn insert(
        &mut self,
        ckpt: Signed<Checkpoint>,
        config: &ClusterConfig,
    ) -> Option<CheckpointCertificate> {
        let seq = ckpt.payload.seq;
        if seq <= self.stable.seq() {
            return None;
        }
        let digest = ckpt.payload.state_digest;
        let votes = self.pending.entry(seq).or_default();
        if !votes.insert(ckpt.payload.replica, ckpt, config.n()) {
            return None;
        }

        // Byzantine replicas may vote for a wrong digest, so we need 2f+1
        // matching on the *same* digest — and only the digest this vote
        // carries can have just reached it.
        let matching = || votes.values().filter(|v| v.payload.state_digest == digest);
        if matching().count() < config.quorum() {
            return None;
        }
        let cert = CheckpointCertificate { checkpoints: matching().cloned().collect() };
        debug_assert!(cert.is_structurally_valid(config.f()));
        self.stable = cert.clone();
        self.drop_up_to(seq);
        Some(cert)
    }

    fn drop_up_to(&mut self, seq: SeqNum) {
        self.pending = self.pending.split_off(&SeqNum(seq.0 + 1));
    }

    /// Number of sequence numbers with pending votes (memory accounting).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use splitbft_types::{Digest, ReplicaId, Signature, SignerId};

    fn cfg() -> ClusterConfig {
        ClusterConfig::new(4).unwrap()
    }

    fn vote(seq: u64, digest: u8, replica: u32) -> Signed<Checkpoint> {
        Signed::new(
            Checkpoint {
                seq: SeqNum(seq),
                state_digest: Digest::from_bytes([digest; 32]),
                replica: ReplicaId(replica),
                snapshot: Bytes::from_static(b"snapshot"),
            },
            SignerId::Replica(ReplicaId(replica)),
            Signature::ZERO,
        )
    }

    #[test]
    fn quorum_makes_checkpoint_stable() {
        let c = cfg();
        let mut t = CheckpointTracker::new();
        assert_eq!(t.stable_seq(), SeqNum(0));
        assert!(t.insert(vote(10, 1, 0), &c).is_none());
        assert!(t.insert(vote(10, 1, 1), &c).is_none());
        let cert = t.insert(vote(10, 1, 2), &c).expect("third matching vote is a quorum");
        assert_eq!(cert.seq(), SeqNum(10));
        assert_eq!(t.stable_seq(), SeqNum(10));
    }

    #[test]
    fn mismatched_digests_do_not_form_quorum() {
        let c = cfg();
        let mut t = CheckpointTracker::new();
        assert!(t.insert(vote(10, 1, 0), &c).is_none());
        assert!(t.insert(vote(10, 2, 1), &c).is_none());
        assert!(t.insert(vote(10, 3, 2), &c).is_none());
        assert!(t.insert(vote(10, 1, 3), &c).is_none());
        assert_eq!(t.stable_seq(), SeqNum(0));
    }

    #[test]
    fn byzantine_minority_cannot_block_stability() {
        let c = cfg();
        let mut t = CheckpointTracker::new();
        assert!(t.insert(vote(10, 9, 3), &c).is_none()); // wrong digest
        assert!(t.insert(vote(10, 1, 0), &c).is_none());
        assert!(t.insert(vote(10, 1, 1), &c).is_none());
        assert!(t.insert(vote(10, 1, 2), &c).is_some());
    }

    #[test]
    fn duplicate_votes_count_once() {
        let c = cfg();
        let mut t = CheckpointTracker::new();
        assert!(t.insert(vote(10, 1, 0), &c).is_none());
        assert!(t.insert(vote(10, 1, 0), &c).is_none());
        assert!(t.insert(vote(10, 1, 0), &c).is_none());
        assert_eq!(t.stable_seq(), SeqNum(0));
    }

    #[test]
    fn old_votes_ignored_after_stability() {
        let c = cfg();
        let mut t = CheckpointTracker::new();
        for r in 0..3 {
            t.insert(vote(10, 1, r), &c);
        }
        // Late vote for an already-collected checkpoint: dropped.
        assert!(t.insert(vote(10, 1, 3), &c).is_none());
        assert!(t.insert(vote(5, 1, 3), &c).is_none());
        assert_eq!(t.pending_len(), 0);
    }

    #[test]
    fn pending_votes_below_new_stable_are_discarded() {
        let c = cfg();
        let mut t = CheckpointTracker::new();
        t.insert(vote(5, 1, 0), &c);
        t.insert(vote(10, 2, 0), &c);
        t.insert(vote(10, 2, 1), &c);
        assert_eq!(t.pending_len(), 2);
        t.insert(vote(10, 2, 2), &c);
        // Stability at 10 discards pending votes at 5.
        assert_eq!(t.pending_len(), 0);
    }

    #[test]
    fn install_certificate_only_advances() {
        let c = cfg();
        let mut t = CheckpointTracker::new();
        let cert10 = {
            let mut t2 = CheckpointTracker::new();
            t2.insert(vote(10, 1, 0), &c);
            t2.insert(vote(10, 1, 1), &c);
            t2.insert(vote(10, 1, 2), &c).unwrap()
        };
        assert!(t.install_certificate(cert10.clone()));
        assert_eq!(t.stable_seq(), SeqNum(10));
        // Re-installing the same or an older certificate is a no-op.
        assert!(!t.install_certificate(cert10));
        assert!(!t.install_certificate(CheckpointCertificate::genesis()));
        assert_eq!(t.stable_seq(), SeqNum(10));
    }
}
