//! Checkpoint collection and stability tracking.
//!
//! Replicas periodically broadcast a `Checkpoint` with the digest of
//! their state. Once `2f + 1` matching checkpoints for the same
//! sequence number are collected, the checkpoint is *stable*: the proof is
//! retained, older log entries are discarded, and — per the paper —
//! "compartments keep the Checkpoints and discard messages for sequence
//! numbers before the checkpoint, even if they are received later".
//!
//! Votes carry the digest only. The snapshot a replica took when it
//! voted stays beside its tracker ([`CheckpointTracker::retain_snapshot`])
//! until a newer checkpoint is stable, and moves only when asked for: into
//! the sealed checkpoint file, or to a lagging peer over `STATE_TRANSFER`.

use crate::votes::VoteSet;
use bytes::Bytes;
use splitbft_crypto::digest_bytes;
use splitbft_types::wire::{Decode, Encode, Reader};
use splitbft_types::{
    Checkpoint, CheckpointCertificate, ClusterConfig, Digest, DurableCheckpoint, ProtocolError,
    ReplicaId, SeqNum, Signed,
};
use std::collections::BTreeMap;

/// Checks `seq` against the watermark window `(low, low + window]`.
///
/// # Errors
///
/// [`ProtocolError::OutOfWindow`] when outside it.
pub fn check_window(low: SeqNum, seq: SeqNum, window: u64) -> Result<(), ProtocolError> {
    let high = SeqNum(low.0 + window);
    if seq > low && seq <= high {
        Ok(())
    } else {
        Err(ProtocolError::OutOfWindow { seq, low, high })
    }
}

/// Splits a [`DurableCheckpoint`] built by
/// [`CheckpointTracker::durable_checkpoint`] into its certificate and the
/// snapshot bytes that follow it. The snapshot is empty in the older
/// layout, whose votes each embedded a copy instead.
///
/// # Errors
///
/// [`ProtocolError::CorruptState`] when the certificate does not decode or
/// does not match the claimed `(seq, digest)`.
pub fn split_durable_checkpoint(
    cp: &DurableCheckpoint,
) -> Result<(CheckpointCertificate, &[u8]), ProtocolError> {
    let mut reader = Reader::new(&cp.state);
    let cert = CheckpointCertificate::decode(&mut reader)
        .map_err(|e| ProtocolError::CorruptState(format!("checkpoint decode: {e}")))?;
    if cert.seq() != cp.seq || cert.state_digest() != Some(cp.digest) {
        return Err(ProtocolError::CorruptState(
            "checkpoint certificate does not match its claimed seq/digest".into(),
        ));
    }
    let snapshot = &cp.state[cp.state.len() - reader.remaining()..];
    Ok((cert, snapshot))
}

/// Collects checkpoint votes and detects stability.
#[derive(Debug, Clone)]
pub struct CheckpointTracker {
    /// Votes by sequence number, then sender.
    pending: BTreeMap<SeqNum, VoteSet<Signed<Checkpoint>>>,
    /// Proof of the current stable checkpoint (genesis initially).
    stable: CheckpointCertificate,
    /// The holder's own snapshots and their digests, from the stable
    /// point upward (empty in a compartment that holds no state).
    snapshots: BTreeMap<SeqNum, (Digest, Bytes)>,
}

impl Default for CheckpointTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointTracker {
    /// A tracker at the genesis checkpoint.
    pub fn new() -> Self {
        CheckpointTracker {
            pending: BTreeMap::new(),
            stable: CheckpointCertificate::genesis(),
            snapshots: BTreeMap::new(),
        }
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
        check_window(self.stable_seq(), seq, window)
    }

    /// The holder's vote for its own `state` after `seq`: the state is
    /// hashed once and kept here ([`CheckpointTracker::retain_snapshot`]);
    /// the vote carries the digest and an empty `snapshot`.
    pub fn vote_on(&mut self, seq: SeqNum, replica: ReplicaId, state: Vec<u8>) -> Checkpoint {
        let state_digest = digest_bytes(&state);
        self.retain_snapshot(seq, state_digest, state.into());
        Checkpoint { seq, state_digest, replica, snapshot: Bytes::new() }
    }

    /// Keeps the holder's own `snapshot` (hashing to `digest`) of the
    /// state after `seq`, until a checkpoint above `seq` is stable.
    pub fn retain_snapshot(&mut self, seq: SeqNum, digest: Digest, snapshot: Bytes) {
        if seq >= self.stable.seq() {
            self.snapshots.insert(seq, (digest, snapshot));
        }
    }

    /// The holder's snapshot of the stable checkpoint's state: the one it
    /// retained at the stable sequence number, if that hashes to the
    /// certified digest. `None` at genesis, and while the holder has not
    /// reached (or disagrees with) the stable checkpoint.
    pub fn stable_snapshot(&self) -> Option<&Bytes> {
        let certified = self.stable.state_digest()?;
        let (digest, snapshot) = self.snapshots.get(&self.stable.seq())?;
        (*digest == certified).then_some(snapshot)
    }

    /// The one admission rule for state that arrives from outside: a
    /// holder that has executed up to `last_exec` may replace its state
    /// with `snapshot`, taken at `seq`, only if its own stable checkpoint
    /// is the one at `seq` (so `2f + 1` signatures it verified vouch for a
    /// digest), the snapshot is ahead of what it executed, and the bytes
    /// hash to that digest. Returns the digest.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptState`] naming the condition that failed.
    pub fn admit_snapshot(
        &self,
        seq: SeqNum,
        last_exec: SeqNum,
        snapshot: &[u8],
    ) -> Result<Digest, ProtocolError> {
        let certified = self
            .stable
            .state_digest()
            .filter(|_| self.stable.seq() == seq)
            .ok_or_else(|| {
                ProtocolError::CorruptState(format!("no stable certificate at {seq} to install under"))
            })?;
        if last_exec >= seq {
            return Err(ProtocolError::CorruptState(format!(
                "snapshot at {seq} is not ahead of executed slot {last_exec}"
            )));
        }
        if digest_bytes(snapshot) != certified {
            return Err(ProtocolError::CorruptState(
                "snapshot does not hash to the certified digest".into(),
            ));
        }
        Ok(certified)
    }

    /// The stable checkpoint as it is sealed to disk and served to
    /// lagging peers: the certificate (`2f + 1` votes by digest)
    /// followed by the holder's snapshot, once. `None` at genesis and
    /// while the holder has no snapshot of the stable state.
    pub fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        let snapshot = self.stable_snapshot()?;
        let mut state = Vec::with_capacity(self.stable.encoded_len() + snapshot.len());
        self.stable.encode_to(&mut state);
        state.extend_from_slice(snapshot);
        Some(DurableCheckpoint {
            seq: self.stable.seq(),
            digest: self.stable.state_digest()?,
            state: state.into(),
        })
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
        self.snapshots = self.snapshots.split_off(&seq);
    }

    /// Number of sequence numbers with pending votes (memory accounting).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::{Signature, SignerId};

    fn cfg() -> ClusterConfig {
        ClusterConfig::new(4).unwrap()
    }

    fn vote(seq: u64, digest: u8, replica: u32) -> Signed<Checkpoint> {
        Signed::new(
            Checkpoint {
                seq: SeqNum(seq),
                state_digest: Digest::from_bytes([digest; 32]),
                replica: ReplicaId(replica),
                snapshot: Bytes::new(),
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

    fn stabilize(t: &mut CheckpointTracker, seq: u64, digest: u8) {
        for r in 0..3 {
            t.insert(vote(seq, digest, r), &cfg());
        }
        assert_eq!(t.stable_seq(), SeqNum(seq));
    }

    #[test]
    fn own_snapshots_are_kept_from_the_stable_point_upward() {
        let digest = |d: u8| Digest::from_bytes([d; 32]);
        let mut t = CheckpointTracker::new();
        assert!(t.durable_checkpoint().is_none(), "genesis has nothing to seal");
        t.retain_snapshot(SeqNum(10), digest(1), Bytes::from_static(b"ten"));
        t.retain_snapshot(SeqNum(20), digest(2), Bytes::from_static(b"twenty"));
        assert!(t.stable_snapshot().is_none(), "nothing is stable yet");

        stabilize(&mut t, 10, 1);
        assert_eq!(t.stable_snapshot().map(|s| &s[..]), Some(&b"ten"[..]));

        // The next stable point drops the older snapshot and keeps its own.
        stabilize(&mut t, 20, 2);
        assert_eq!(t.stable_snapshot().map(|s| &s[..]), Some(&b"twenty"[..]));
        assert_eq!(t.snapshots.len(), 1);
        // A snapshot from before the stable point is not worth keeping.
        t.retain_snapshot(SeqNum(10), digest(1), Bytes::from_static(b"ten"));
        assert_eq!(t.snapshots.len(), 1);
    }

    #[test]
    fn a_snapshot_is_admitted_only_under_the_stable_certificate_and_ahead_of_execution() {
        let state = b"state after ten";
        let certified = digest_bytes(state);
        let mut t = CheckpointTracker::new();
        assert!(t.admit_snapshot(SeqNum(0), SeqNum(0), state).is_err(), "genesis certifies nothing");
        for r in 0..3 {
            let mut vote = vote(10, 0, r);
            vote.payload.state_digest = certified;
            t.insert(vote, &cfg());
        }
        assert_eq!(t.admit_snapshot(SeqNum(10), SeqNum(9), state), Ok(certified));
        assert!(t.admit_snapshot(SeqNum(10), SeqNum(10), state).is_err(), "not ahead");
        assert!(t.admit_snapshot(SeqNum(10), SeqNum(9), b"state after nine").is_err());
        assert!(t.admit_snapshot(SeqNum(20), SeqNum(9), state).is_err(), "not the stable seq");
    }

    #[test]
    fn a_holder_that_disagrees_with_the_quorum_has_no_stable_snapshot() {
        let mut t = CheckpointTracker::new();
        t.retain_snapshot(SeqNum(10), Digest::from_bytes([9; 32]), Bytes::from_static(b"mine"));
        stabilize(&mut t, 10, 1);
        assert!(t.stable_snapshot().is_none());
        assert!(t.durable_checkpoint().is_none());
    }

    #[test]
    fn durable_checkpoint_is_the_certificate_then_the_snapshot() {
        let mut t = CheckpointTracker::new();
        t.retain_snapshot(SeqNum(10), Digest::from_bytes([1; 32]), Bytes::from_static(b"state"));
        stabilize(&mut t, 10, 1);
        let cp = t.durable_checkpoint().expect("stable and held");
        assert_eq!((cp.seq, cp.digest), (SeqNum(10), Digest::from_bytes([1; 32])));
        let (cert, snapshot) = split_durable_checkpoint(&cp).expect("own layout splits");
        assert_eq!(&cert, t.stable_proof());
        assert_eq!(snapshot, b"state");

        // The certificate alone — the older layout — splits to no snapshot.
        let bare = DurableCheckpoint { state: t.stable_proof().to_wire().into(), ..cp.clone() };
        assert_eq!(split_durable_checkpoint(&bare).map(|(_, s)| s.len()), Ok(0));
        // A claim the votes do not back is refused before anything else.
        let relabelled = DurableCheckpoint { seq: SeqNum(11), ..cp };
        assert!(split_durable_checkpoint(&relabelled).is_err());
    }
}
