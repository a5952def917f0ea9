//! The per-slot message log (`in` log of the PBFT pseudocode) with
//! watermark windowing and garbage collection.
//!
//! PBFT accepts proposals only for sequence numbers in the window
//! `(low, low + window]` above the last stable checkpoint, and discards
//! slots at or below the watermark once a checkpoint becomes stable. The
//! paper's §3.2 calls the integrity of this log safety-critical (omissions
//! enable *amnesia* faults), which is why SplitBFT moves it inside the
//! enclaves — both the baseline replica and the compartments reuse this
//! type.

use crate::votes::VoteSet;
use splitbft_types::{
    ClusterConfig, Commit, Digest, PrePrepare, Prepare, PrepareCertificate, ProtocolError, SeqNum,
    Signed, View,
};
use std::collections::BTreeMap;

/// One agreement slot: everything received for a sequence number in the
/// current view.
#[derive(Debug, Clone, Default)]
pub struct Slot {
    /// The accepted proposal, if any.
    pub pre_prepare: Option<Signed<PrePrepare>>,
    /// Prepare votes by sender.
    pub prepares: VoteSet<Signed<Prepare>>,
    /// Commit votes by sender.
    pub commits: VoteSet<Signed<Commit>>,
    /// This replica already broadcast its own `Prepare` for the slot.
    pub prepare_sent: bool,
    /// This replica already broadcast its own `Commit` for the slot.
    pub commit_sent: bool,
}

/// A slot's *candidate* proposals, at most one per digest, kept sorted by
/// digest — what a SplitBFT compartment that does not itself validate
/// proposals (Confirmation, Execution) retains until a quorum picks one.
/// Honest primaries propose once per slot, so this is a one-entry list on
/// the hot path; an equivocating primary can add more, which is why it is
/// a list at all.
#[derive(Debug, Default)]
pub struct Proposals(Vec<Signed<PrePrepare>>);

impl Proposals {
    /// Adds `pp`, replacing a retained proposal with the same digest.
    pub fn insert(&mut self, pp: Signed<PrePrepare>) {
        match self.0.binary_search_by_key(&pp.payload.digest, |have| have.payload.digest) {
            Ok(at) => self.0[at] = pp,
            Err(at) => self.0.insert(at, pp),
        }
    }

    /// Removes and returns the proposal for `digest`.
    pub fn take(&mut self, digest: Digest) -> Option<Signed<PrePrepare>> {
        let at = self.0.binary_search_by_key(&digest, |have| have.payload.digest).ok()?;
        Some(self.0.remove(at))
    }

    /// `true` if a proposal for `digest` is retained.
    pub fn contains(&self, digest: Digest) -> bool {
        self.0.binary_search_by_key(&digest, |have| have.payload.digest).is_ok()
    }

    /// The proposals in ascending digest order.
    pub fn iter(&self) -> impl Iterator<Item = &Signed<PrePrepare>> {
        self.0.iter()
    }
}

/// The windowed message log.
#[derive(Debug, Clone)]
pub struct MessageLog {
    low: SeqNum,
    window: u64,
    /// Cluster size: how many voters a slot's vote sets admit.
    n: usize,
    slots: BTreeMap<SeqNum, Slot>,
}

impl MessageLog {
    /// A log starting at the genesis watermark (sequence 0) with the
    /// configured window.
    pub fn new(config: &ClusterConfig) -> Self {
        MessageLog {
            low: SeqNum::zero(),
            window: config.window,
            n: config.n(),
            slots: BTreeMap::new(),
        }
    }

    /// The low watermark (last stable checkpoint).
    pub fn low(&self) -> SeqNum {
        self.low
    }

    /// The high watermark.
    pub fn high(&self) -> SeqNum {
        SeqNum(self.low.0 + self.window)
    }

    /// `true` if `seq` is inside the acceptance window.
    pub fn in_window(&self, seq: SeqNum) -> bool {
        seq > self.low && seq <= self.high()
    }

    /// Validates `seq` against the window.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::OutOfWindow`] when outside `(low, low + window]`.
    pub fn check_window(&self, seq: SeqNum) -> Result<(), ProtocolError> {
        if self.in_window(seq) {
            Ok(())
        } else {
            Err(ProtocolError::OutOfWindow { seq, low: self.low, high: self.high() })
        }
    }

    /// Read access to a slot, if it exists.
    pub fn slot(&self, seq: SeqNum) -> Option<&Slot> {
        self.slots.get(&seq)
    }

    /// Mutable access to a slot, creating it on demand.
    pub fn slot_mut(&mut self, seq: SeqNum) -> &mut Slot {
        self.slots.entry(seq).or_default()
    }

    /// Number of live slots (for memory accounting).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if no slots are live.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Inserts an accepted `PrePrepare`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Equivocation`] if a *different* proposal for the
    /// same slot was already accepted (same digest re-delivery is
    /// idempotent and succeeds).
    pub fn insert_pre_prepare(&mut self, pp: Signed<PrePrepare>) -> Result<(), ProtocolError> {
        let slot = self.slot_mut(pp.payload.seq);
        match &slot.pre_prepare {
            Some(existing) if existing.payload.digest != pp.payload.digest => {
                Err(ProtocolError::Equivocation {
                    view: pp.payload.view,
                    seq: pp.payload.seq,
                })
            }
            Some(_) => Ok(()),
            None => {
                slot.pre_prepare = Some(pp);
                Ok(())
            }
        }
    }

    /// Inserts a `Prepare` vote (last write per sender wins; senders are
    /// honest-or-detected via signatures upstream, and a sender outside
    /// the cluster is ignored).
    pub fn insert_prepare(&mut self, p: Signed<Prepare>) {
        let n = self.n;
        self.slot_mut(p.payload.seq).prepares.insert(p.payload.replica, p, n);
    }

    /// Inserts a `Commit` vote.
    pub fn insert_commit(&mut self, c: Signed<Commit>) {
        let n = self.n;
        self.slot_mut(c.payload.seq).commits.insert(c.payload.replica, c, n);
    }

    /// The *prepared* predicate of PBFT: an accepted proposal plus `2f`
    /// matching prepares from distinct replicas other than the proposer,
    /// all in `view`.
    pub fn prepared(&self, seq: SeqNum, view: View, config: &ClusterConfig) -> bool {
        self.matching_prepares(seq, view).is_some_and(|n| n >= config.prepare_quorum())
    }

    fn matching_prepares(&self, seq: SeqNum, view: View) -> Option<usize> {
        let slot = self.slots.get(&seq)?;
        let pp = slot.pre_prepare.as_ref()?;
        if pp.payload.view != view {
            return None;
        }
        let proposer = pp.signer.replica();
        let count = slot
            .prepares
            .values()
            .filter(|p| {
                p.payload.view == view
                    && p.payload.digest == pp.payload.digest
                    && Some(p.payload.replica) != proposer
            })
            .count();
        Some(count)
    }

    /// The *committed-local* predicate: prepared plus `2f + 1` matching
    /// commits from distinct replicas.
    pub fn committed(&self, seq: SeqNum, view: View, config: &ClusterConfig) -> bool {
        if !self.prepared(seq, view, config) {
            return false;
        }
        let Some(slot) = self.slots.get(&seq) else { return false };
        let Some(pp) = slot.pre_prepare.as_ref() else { return false };
        let count = slot
            .commits
            .values()
            .filter(|c| c.payload.view == view && c.payload.digest == pp.payload.digest)
            .count();
        count >= config.quorum()
    }

    /// The digest bound to `seq` by the accepted proposal, if any.
    pub fn accepted_digest(&self, seq: SeqNum) -> Option<Digest> {
        self.slots.get(&seq)?.pre_prepare.as_ref().map(|pp| pp.payload.digest)
    }

    /// Builds the prepare certificate for a prepared slot, for inclusion
    /// in a `ViewChange`.
    pub fn prepare_certificate(
        &self,
        seq: SeqNum,
        view: View,
        config: &ClusterConfig,
    ) -> Option<PrepareCertificate> {
        if !self.prepared(seq, view, config) {
            return None;
        }
        let slot = self.slots.get(&seq)?;
        let pp = slot.pre_prepare.clone()?;
        let proposer = pp.signer.replica();
        let prepares: Vec<_> = slot
            .prepares
            .values()
            .filter(|p| {
                p.payload.view == view
                    && p.payload.digest == pp.payload.digest
                    && Some(p.payload.replica) != proposer
            })
            .take(config.prepare_quorum())
            .cloned()
            .collect();
        Some(PrepareCertificate { pre_prepare: pp, prepares })
    }

    /// All slots above `from` that are prepared in `view`, as certificates
    /// — the `P` set of a `ViewChange`.
    pub fn prepared_certificates_above(
        &self,
        from: SeqNum,
        view: View,
        config: &ClusterConfig,
    ) -> Vec<PrepareCertificate> {
        self.slots
            .keys()
            .copied()
            .filter(|&seq| seq > from)
            .filter_map(|seq| self.prepare_certificate(seq, view, config))
            .collect()
    }

    /// Advances the low watermark to `new_low`, discarding all slots at or
    /// below it (checkpoint garbage collection).
    pub fn collect_garbage(&mut self, new_low: SeqNum) {
        if new_low <= self.low {
            return;
        }
        self.low = new_low;
        self.slots = self.slots.split_off(&SeqNum(new_low.0 + 1));
    }

    /// Drops agreement state for all slots strictly above `keep_up_to`
    /// (used when entering a new view: old-view votes are void; slots are
    /// re-proposed by the new primary).
    pub fn clear_above(&mut self, keep_up_to: SeqNum) {
        self.slots.split_off(&SeqNum(keep_up_to.0 + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use splitbft_types::{
        ClientId, ReplicaId, Request, RequestBatch, RequestId, Signature, SignerId, Timestamp,
    };

    fn cfg() -> ClusterConfig {
        ClusterConfig::new(4).unwrap()
    }

    fn digest(x: u8) -> Digest {
        Digest::from_bytes([x; 32])
    }

    fn pp(view: u64, seq: u64, d: Digest, sender: u32) -> Signed<PrePrepare> {
        let req = Request {
            id: RequestId { client: ClientId(0), timestamp: Timestamp(seq) },
            op: Bytes::from_static(b"op"),
            encrypted: false,
            auth: [0u8; 32],
        };
        Signed::new(
            PrePrepare {
                view: View(view),
                seq: SeqNum(seq),
                digest: d,
                batch: RequestBatch::single(req),
            },
            SignerId::Replica(ReplicaId(sender)),
            Signature::ZERO,
        )
    }

    fn prep(view: u64, seq: u64, d: Digest, sender: u32) -> Signed<Prepare> {
        Signed::new(
            Prepare { view: View(view), seq: SeqNum(seq), digest: d, replica: ReplicaId(sender) },
            SignerId::Replica(ReplicaId(sender)),
            Signature::ZERO,
        )
    }

    fn com(view: u64, seq: u64, d: Digest, sender: u32) -> Signed<Commit> {
        Signed::new(
            Commit { view: View(view), seq: SeqNum(seq), digest: d, replica: ReplicaId(sender) },
            SignerId::Replica(ReplicaId(sender)),
            Signature::ZERO,
        )
    }

    #[test]
    fn proposals_keep_one_entry_per_digest_in_digest_order() {
        let mut proposals = Proposals::default();
        for (d, sender) in [(9, 0), (3, 0), (5, 0), (3, 1)] {
            proposals.insert(pp(0, 1, digest(d), sender));
        }
        let kept: Vec<_> =
            proposals.iter().map(|p| (p.payload.digest, p.signer.replica())).collect();
        assert_eq!(
            kept,
            [(digest(3), Some(ReplicaId(1))), (digest(5), Some(ReplicaId(0))), (digest(9), Some(ReplicaId(0)))],
            "sorted by digest; a re-delivery replaces the retained proposal"
        );
        assert!(proposals.contains(digest(5)) && !proposals.contains(digest(4)));
        assert_eq!(proposals.take(digest(5)).map(|p| p.payload.digest), Some(digest(5)));
        assert!(proposals.take(digest(5)).is_none());
        assert_eq!(proposals.iter().count(), 2);
    }

    #[test]
    fn window_boundaries() {
        let log = MessageLog::new(&cfg());
        assert!(!log.in_window(SeqNum(0)));
        assert!(log.in_window(SeqNum(1)));
        assert!(log.in_window(SeqNum(256)));
        assert!(!log.in_window(SeqNum(257)));
        assert!(log.check_window(SeqNum(300)).is_err());
    }

    #[test]
    fn prepared_requires_quorum_of_others() {
        let c = cfg();
        let mut log = MessageLog::new(&c);
        let d = digest(1);
        log.insert_pre_prepare(pp(0, 1, d, 0)).unwrap();
        assert!(!log.prepared(SeqNum(1), View(0), &c));

        log.insert_prepare(prep(0, 1, d, 1));
        assert!(!log.prepared(SeqNum(1), View(0), &c));

        // A prepare from the proposer itself must not count.
        log.insert_prepare(prep(0, 1, d, 0));
        assert!(!log.prepared(SeqNum(1), View(0), &c));

        log.insert_prepare(prep(0, 1, d, 2));
        assert!(log.prepared(SeqNum(1), View(0), &c));
    }

    #[test]
    fn mismatched_digest_prepares_do_not_count() {
        let c = cfg();
        let mut log = MessageLog::new(&c);
        log.insert_pre_prepare(pp(0, 1, digest(1), 0)).unwrap();
        log.insert_prepare(prep(0, 1, digest(2), 1));
        log.insert_prepare(prep(0, 1, digest(2), 2));
        assert!(!log.prepared(SeqNum(1), View(0), &c));
    }

    #[test]
    fn committed_requires_prepared_and_commit_quorum() {
        let c = cfg();
        let mut log = MessageLog::new(&c);
        let d = digest(1);
        log.insert_pre_prepare(pp(0, 1, d, 0)).unwrap();
        log.insert_prepare(prep(0, 1, d, 1));
        log.insert_prepare(prep(0, 1, d, 2));
        log.insert_commit(com(0, 1, d, 0));
        log.insert_commit(com(0, 1, d, 1));
        assert!(!log.committed(SeqNum(1), View(0), &c));
        log.insert_commit(com(0, 1, d, 2));
        assert!(log.committed(SeqNum(1), View(0), &c));
    }

    #[test]
    fn commits_without_prepared_are_not_committed() {
        let c = cfg();
        let mut log = MessageLog::new(&c);
        let d = digest(1);
        log.insert_pre_prepare(pp(0, 1, d, 0)).unwrap();
        for r in 0..4 {
            log.insert_commit(com(0, 1, d, r));
        }
        assert!(!log.committed(SeqNum(1), View(0), &c));
    }

    #[test]
    fn equivocation_detected() {
        let mut log = MessageLog::new(&cfg());
        log.insert_pre_prepare(pp(0, 1, digest(1), 0)).unwrap();
        // Same digest again: idempotent.
        assert!(log.insert_pre_prepare(pp(0, 1, digest(1), 0)).is_ok());
        // Different digest: equivocation.
        assert!(matches!(
            log.insert_pre_prepare(pp(0, 1, digest(2), 0)),
            Err(ProtocolError::Equivocation { .. })
        ));
        // The original proposal is untouched.
        assert_eq!(log.accepted_digest(SeqNum(1)), Some(digest(1)));
    }

    #[test]
    fn certificate_extraction_matches_structural_validity() {
        let c = cfg();
        let mut log = MessageLog::new(&c);
        let d = digest(1);
        log.insert_pre_prepare(pp(0, 3, d, 0)).unwrap();
        log.insert_prepare(prep(0, 3, d, 1));
        log.insert_prepare(prep(0, 3, d, 2));
        log.insert_prepare(prep(0, 3, d, 3));

        let cert = log.prepare_certificate(SeqNum(3), View(0), &c).unwrap();
        assert!(cert.is_structurally_valid(c.f()));
        assert_eq!(cert.prepares.len(), c.prepare_quorum());

        assert!(log.prepare_certificate(SeqNum(9), View(0), &c).is_none());
    }

    #[test]
    fn prepared_certificates_above_excludes_stable() {
        let c = cfg();
        let mut log = MessageLog::new(&c);
        let d = digest(1);
        for seq in 1..=3u64 {
            log.insert_pre_prepare(pp(0, seq, d, 0)).unwrap();
            log.insert_prepare(prep(0, seq, d, 1));
            log.insert_prepare(prep(0, seq, d, 2));
        }
        let certs = log.prepared_certificates_above(SeqNum(1), View(0), &c);
        let seqs: Vec<u64> = certs.iter().map(|cert| cert.seq().0).collect();
        assert_eq!(seqs, vec![2, 3]);
    }

    #[test]
    fn garbage_collection_advances_watermarks() {
        let c = cfg();
        let mut log = MessageLog::new(&c);
        for seq in 1..=10u64 {
            log.insert_pre_prepare(pp(0, seq, digest(seq as u8), 0)).unwrap();
        }
        log.collect_garbage(SeqNum(5));
        assert_eq!(log.low(), SeqNum(5));
        assert!(log.slot(SeqNum(5)).is_none());
        assert!(log.slot(SeqNum(6)).is_some());
        assert_eq!(log.len(), 5);
        assert!(!log.in_window(SeqNum(5)));
        assert!(log.in_window(SeqNum(6)));

        // Regression cannot move the watermark backwards.
        log.collect_garbage(SeqNum(2));
        assert_eq!(log.low(), SeqNum(5));
    }

    #[test]
    fn clear_above_keeps_lower_slots() {
        let c = cfg();
        let mut log = MessageLog::new(&c);
        for seq in 1..=6u64 {
            log.insert_pre_prepare(pp(0, seq, digest(1), 0)).unwrap();
        }
        log.clear_above(SeqNum(4));
        assert!(log.slot(SeqNum(4)).is_some());
        assert!(log.slot(SeqNum(5)).is_none());
    }
}
