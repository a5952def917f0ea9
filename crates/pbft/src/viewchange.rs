//! View-change vote tracking and new-view planning.
//!
//! This module implements the *logic* of PBFT's view-change sub-protocol:
//! collecting `ViewChange` votes, deciding when to join an ongoing view
//! change (the `f + 1` rule), and computing the `PrePrepare`s a new
//! primary must re-issue. The paper notes this logic "is complex and it is
//! repeated when validating the NewView in the Preparation Compartment" —
//! both the baseline replica and the SplitBFT Preparation compartment call
//! into this one implementation, and validation literally re-runs the
//! planning function and compares.

use splitbft_crypto::digest_of;
use splitbft_types::{
    CheckpointCertificate, ClientId, ClusterConfig, NewView, PrePrepare, PrepareCertificate,
    ProtocolError, ReplicaId, RequestBatch, RequestId, SeqNum, Signed, Timestamp, View, ViewChange,
};
use std::collections::BTreeMap;

/// Collects `ViewChange` votes per target view.
#[derive(Debug, Clone, Default)]
pub struct ViewChangeTracker {
    per_view: BTreeMap<View, BTreeMap<ReplicaId, Signed<ViewChange>>>,
}

impl ViewChangeTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a vote; returns the number of distinct voters for that
    /// view.
    pub fn insert(&mut self, vc: Signed<ViewChange>) -> usize {
        let votes = self.per_view.entry(vc.payload.new_view).or_default();
        votes.insert(vc.payload.replica, vc);
        votes.len()
    }

    /// Number of distinct voters for `view`.
    pub fn count(&self, view: View) -> usize {
        self.per_view.get(&view).map_or(0, |v| v.len())
    }

    /// The vote set for `view` if it reaches `2f + 1`, in replica order.
    pub fn quorum(&self, view: View, config: &ClusterConfig) -> Option<Vec<Signed<ViewChange>>> {
        let votes = self.per_view.get(&view)?;
        if votes.len() < config.quorum() {
            return None;
        }
        Some(votes.values().take(config.quorum()).cloned().collect())
    }

    /// The PBFT liveness rule: if `f + 1` distinct replicas already voted
    /// for views above `current`, a correct replica joins the *smallest*
    /// such view (so it cannot be kept out of sync by byzantine voters).
    pub fn join_view(&self, current: View, config: &ClusterConfig) -> Option<View> {
        let mut voters: BTreeMap<ReplicaId, View> = BTreeMap::new();
        for (&view, votes) in self.per_view.range(View(current.0 + 1)..) {
            for &replica in votes.keys() {
                // Track the smallest above-current view each replica voted
                // for.
                voters.entry(replica).or_insert(view);
            }
        }
        if voters.len() <= config.f() {
            return None;
        }
        voters.values().min().copied()
    }

    /// Drops vote sets for views at or below `view` (stale after entering
    /// a newer view).
    pub fn collect_garbage(&mut self, view: View) {
        self.per_view = self.per_view.split_off(&View(view.0 + 1));
    }

    /// Number of views with live votes.
    pub fn len(&self) -> usize {
        self.per_view.len()
    }

    /// `true` if no votes are tracked.
    pub fn is_empty(&self) -> bool {
        self.per_view.is_empty()
    }
}

/// Base number of timeouts spent re-broadcasting the same `ViewChange`
/// before the target advances anyway (the escape hatch for a dead
/// target-primary).
const STALLS_BEFORE_ADVANCE: u32 = 2;

/// The re-broadcast budget for the `escalations`-th consecutive view hop
/// without entering a view: the first failover keeps the base budget (fast
/// recovery from a single crashed primary); each further hop doubles it,
/// capped at 8× — PBFT's doubling view-change timer expressed in timer
/// ticks.
fn stall_budget(escalations: u32) -> u32 {
    STALLS_BEFORE_ADVANCE << escalations.min(3)
}

/// The stall timer of a replica that voted for a view change and is
/// awaiting the `NewView`: the one damping knob shared by the PBFT
/// baseline and SplitBFT's Confirmation compartment, so both stacks back
/// off in lockstep.
///
/// While the budget lasts, a timeout *re-broadcasts* the current vote (the
/// target's primary may have missed it, or restarted past it) instead of
/// targeting the next view — without that, one fast-ticking replica
/// leapfrogs a view ahead of the cluster forever and the view change never
/// converges. Each exhausted budget doubles the next one, so replicas
/// whose timers interleave stop racing each other under churn.
#[derive(Debug, Clone, Default)]
pub struct ViewTimer {
    /// Consecutive timeouts spent awaiting the same `NewView`.
    stalled_timeouts: u32,
    /// Consecutive view hops without entering a view; exponent of the
    /// re-broadcast budget.
    view_change_escalations: u32,
}

impl ViewTimer {
    /// A timeout fired while awaiting a `NewView`. `true`: re-broadcast
    /// the current vote. `false`: the budget is spent — move on to the
    /// next view, with a doubled budget for that hop.
    pub fn rebroadcast_on_timeout(&mut self) -> bool {
        if self.stalled_timeouts < stall_budget(self.view_change_escalations) {
            self.stalled_timeouts += 1;
            return true;
        }
        self.view_change_escalations = self.view_change_escalations.saturating_add(1);
        false
    }

    /// A vote for a new target view went out: its budget starts afresh.
    pub fn on_vote_sent(&mut self) {
        self.stalled_timeouts = 0;
    }

    /// A view was entered: the next failover starts from the base budget.
    pub fn on_view_entered(&mut self) {
        *self = ViewTimer::default();
    }
}

/// Accepted-but-not-yet-executed requests, one marker per client (its
/// highest timestamp seen, which bounds the map at one entry per live
/// client): the evidence a request-aware view-change timer needs to tell
/// a stalled primary from an idle cluster.
#[derive(Debug, Clone, Default)]
pub struct PendingRequests {
    by_client: BTreeMap<ClientId, Timestamp>,
}

impl PendingRequests {
    /// Marks `request` as awaiting execution.
    pub fn note(&mut self, request: RequestId) {
        let pending = self.by_client.entry(request.client).or_insert(request.timestamp);
        *pending = (*pending).max(request.timestamp);
    }

    /// Clears the client's marker if execution caught up to it.
    pub fn executed(&mut self, request: RequestId) {
        if self.by_client.get(&request.client).is_some_and(|t| *t <= request.timestamp) {
            self.by_client.remove(&request.client);
        }
    }

    /// Forgets every marker. Each stall buys exactly one failover attempt:
    /// clients that still care keep retransmitting, which re-arms the
    /// timer in the (possibly again faulty) next view.
    pub fn clear(&mut self) {
        self.by_client.clear();
    }

    /// `true` while no request awaits execution.
    pub fn is_empty(&self) -> bool {
        self.by_client.is_empty()
    }
}

/// What a new primary must announce: the stable baseline and the
/// re-issued proposals.
#[derive(Debug, Clone, PartialEq)]
pub struct NewViewPlan {
    /// The highest stable checkpoint among the view changes (`min-s`).
    pub min_s: SeqNum,
    /// The highest prepared sequence number among the view changes
    /// (`max-s`).
    pub max_s: SeqNum,
    /// The checkpoint certificate establishing `min_s`.
    pub checkpoint: CheckpointCertificate,
    /// Unsigned `PrePrepare` payloads for every slot in `(min_s, max_s]`:
    /// the highest-view prepare certificate's batch where one exists, the
    /// null batch otherwise.
    pub pre_prepares: Vec<PrePrepare>,
}

/// Computes the new-view plan from a quorum of view changes, exactly as
/// PBFT's new primary does.
pub fn plan_new_view(view: View, view_changes: &[Signed<ViewChange>]) -> NewViewPlan {
    let mut min_s = SeqNum::zero();
    let mut checkpoint = CheckpointCertificate::genesis();
    for vc in view_changes {
        if vc.payload.stable_seq > min_s {
            min_s = vc.payload.stable_seq;
            checkpoint = vc.payload.checkpoint_proof.clone();
        }
    }

    // For each slot, keep the prepare certificate with the highest view
    // (ties broken by digest order for determinism; matching certificates
    // from different replicas are identical in view/digest).
    let mut best: BTreeMap<SeqNum, &PrepareCertificate> = BTreeMap::new();
    for vc in view_changes {
        for cert in &vc.payload.prepared {
            let seq = cert.seq();
            if seq <= min_s {
                continue;
            }
            match best.get(&seq) {
                Some(existing)
                    if (existing.view(), existing.digest()) >= (cert.view(), cert.digest()) => {}
                _ => {
                    best.insert(seq, cert);
                }
            }
        }
    }
    let max_s = best.keys().max().copied().unwrap_or(min_s);

    let mut pre_prepares = Vec::new();
    for seq in (min_s.0 + 1)..=max_s.0 {
        let seq = SeqNum(seq);
        let pp = match best.get(&seq) {
            Some(cert) => PrePrepare {
                view,
                seq,
                digest: cert.digest(),
                batch: cert.pre_prepare.payload.batch.clone(),
            },
            None => {
                let batch = RequestBatch::null();
                PrePrepare { view, seq, digest: digest_of(&batch), batch }
            }
        };
        pre_prepares.push(pp);
    }

    NewViewPlan { min_s, max_s, checkpoint, pre_prepares }
}

/// Validates a received `NewView` by *re-running the planning logic* over
/// its embedded view changes and comparing with what the primary sent —
/// the repetition the paper describes for the Preparation compartment.
///
/// Signature checks (outer message, embedded view changes, nested
/// certificates) are the caller's responsibility; this validates structure
/// and plan consistency.
///
/// # Errors
///
/// [`ProtocolError::BadCertificate`] if the structure or the recomputed
/// plan does not match.
pub fn validate_new_view(
    nv: &NewView,
    config: &ClusterConfig,
) -> Result<NewViewPlan, ProtocolError> {
    if !nv.is_structurally_valid(config.f()) {
        return Err(ProtocolError::BadCertificate { kind: "NewView" });
    }
    let plan = plan_new_view(nv.view, &nv.view_changes);
    if nv.pre_prepares.len() != plan.pre_prepares.len() {
        return Err(ProtocolError::BadCertificate { kind: "NewView pre-prepares" });
    }
    for (got, expect) in nv.pre_prepares.iter().zip(&plan.pre_prepares) {
        let got = &got.payload;
        if got.view != expect.view
            || got.seq != expect.seq
            || got.digest != expect.digest
            || digest_of(&got.batch) != expect.digest
        {
            return Err(ProtocolError::BadCertificate { kind: "NewView pre-prepares" });
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use splitbft_types::{
        ClientId, Digest, Prepare, Request, RequestId, Signature, SignerId, Timestamp,
    };

    fn cfg() -> ClusterConfig {
        ClusterConfig::new(4).unwrap()
    }

    fn request(ts: u64) -> Request {
        Request {
            id: RequestId { client: ClientId(0), timestamp: Timestamp(ts) },
            op: Bytes::from_static(b"op"),
            encrypted: false,
            auth: [0u8; 32],
        }
    }

    fn cert(view: u64, seq: u64, proposer: u32) -> PrepareCertificate {
        let batch = RequestBatch::single(request(seq));
        let digest = digest_of(&batch);
        let pp = Signed::new(
            PrePrepare { view: View(view), seq: SeqNum(seq), digest, batch },
            SignerId::Replica(ReplicaId(proposer)),
            Signature::ZERO,
        );
        let prepares = (0..4u32)
            .filter(|&r| r != proposer)
            .take(2)
            .map(|r| {
                Signed::new(
                    Prepare { view: View(view), seq: SeqNum(seq), digest, replica: ReplicaId(r) },
                    SignerId::Replica(ReplicaId(r)),
                    Signature::ZERO,
                )
            })
            .collect();
        PrepareCertificate { pre_prepare: pp, prepares }
    }

    fn vc(new_view: u64, replica: u32, stable: u64, prepared: Vec<PrepareCertificate>) -> Signed<ViewChange> {
        // Tests use a genesis checkpoint when stable == 0.
        assert_eq!(stable, 0, "test helper only models genesis-stable view changes");
        Signed::new(
            ViewChange {
                new_view: View(new_view),
                stable_seq: SeqNum(stable),
                checkpoint_proof: CheckpointCertificate::genesis(),
                prepared,
                replica: ReplicaId(replica),
            },
            SignerId::Replica(ReplicaId(replica)),
            Signature::ZERO,
        )
    }

    #[test]
    fn view_timer_budgets_double_up_to_the_cap_and_reset_on_entering_a_view() {
        // Re-broadcasts granted before each successive hop.
        let mut timer = ViewTimer::default();
        for budget in [2, 4, 8, 16, 16] {
            timer.on_vote_sent();
            for _ in 0..budget {
                assert!(timer.rebroadcast_on_timeout(), "within a budget of {budget}");
            }
            assert!(!timer.rebroadcast_on_timeout(), "a budget of {budget} is spent");
        }
        timer.on_view_entered();
        timer.on_vote_sent();
        assert!(timer.rebroadcast_on_timeout());
        assert!(timer.rebroadcast_on_timeout());
        assert!(!timer.rebroadcast_on_timeout(), "back to the base budget");
    }

    #[test]
    fn pending_requests_keep_one_marker_per_client() {
        let id = |client, ts| RequestId { client: ClientId(client), timestamp: Timestamp(ts) };
        let mut pending = PendingRequests::default();
        assert!(pending.is_empty());
        pending.note(id(1, 5));
        pending.note(id(1, 3));
        pending.note(id(2, 1));
        pending.executed(id(1, 4));
        assert!(!pending.is_empty(), "client 1 still waits for timestamp 5");
        pending.executed(id(1, 5));
        pending.executed(id(2, 9));
        assert!(pending.is_empty());
        pending.note(id(3, 1));
        pending.clear();
        assert!(pending.is_empty());
    }

    #[test]
    fn tracker_counts_distinct_voters() {
        let mut t = ViewChangeTracker::new();
        assert_eq!(t.insert(vc(1, 0, 0, vec![])), 1);
        assert_eq!(t.insert(vc(1, 0, 0, vec![])), 1); // duplicate
        assert_eq!(t.insert(vc(1, 1, 0, vec![])), 2);
        assert_eq!(t.count(View(1)), 2);
        assert_eq!(t.count(View(2)), 0);
    }

    #[test]
    fn quorum_requires_2f_plus_1() {
        let c = cfg();
        let mut t = ViewChangeTracker::new();
        t.insert(vc(1, 0, 0, vec![]));
        t.insert(vc(1, 1, 0, vec![]));
        assert!(t.quorum(View(1), &c).is_none());
        t.insert(vc(1, 2, 0, vec![]));
        let q = t.quorum(View(1), &c).unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn join_rule_needs_f_plus_1_distinct_voters() {
        let c = cfg();
        let mut t = ViewChangeTracker::new();
        t.insert(vc(3, 1, 0, vec![]));
        assert_eq!(t.join_view(View(0), &c), None); // one voter = f, not enough
        t.insert(vc(5, 2, 0, vec![]));
        // Two distinct voters (> f) for higher views; join the smallest.
        assert_eq!(t.join_view(View(0), &c), Some(View(3)));
        // Already at view 3: the single remaining higher-view voter is not
        // enough.
        assert_eq!(t.join_view(View(3), &c), None);
    }

    #[test]
    fn join_rule_ignores_duplicate_voter_across_views() {
        let c = cfg();
        let mut t = ViewChangeTracker::new();
        t.insert(vc(3, 1, 0, vec![]));
        t.insert(vc(4, 1, 0, vec![]));
        // Same replica voting for two views counts once.
        assert_eq!(t.join_view(View(0), &c), None);
    }

    #[test]
    fn garbage_collection_drops_stale_views() {
        let mut t = ViewChangeTracker::new();
        t.insert(vc(1, 0, 0, vec![]));
        t.insert(vc(2, 0, 0, vec![]));
        t.insert(vc(3, 0, 0, vec![]));
        t.collect_garbage(View(2));
        assert_eq!(t.count(View(1)), 0);
        assert_eq!(t.count(View(2)), 0);
        assert_eq!(t.count(View(3)), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn plan_reissues_highest_view_certificate() {
        let old = cert(0, 1, 0);
        let newer = cert(1, 1, 1); // same slot, higher view
        let vcs = vec![
            vc(2, 0, 0, vec![old]),
            vc(2, 1, 0, vec![newer.clone()]),
            vc(2, 2, 0, vec![]),
        ];
        let plan = plan_new_view(View(2), &vcs);
        assert_eq!(plan.min_s, SeqNum(0));
        assert_eq!(plan.max_s, SeqNum(1));
        assert_eq!(plan.pre_prepares.len(), 1);
        assert_eq!(plan.pre_prepares[0].digest, newer.digest());
        assert_eq!(plan.pre_prepares[0].view, View(2));
    }

    #[test]
    fn plan_fills_gaps_with_null_batches() {
        let vcs = vec![
            vc(1, 0, 0, vec![cert(0, 3, 0)]),
            vc(1, 1, 0, vec![]),
            vc(1, 2, 0, vec![]),
        ];
        let plan = plan_new_view(View(1), &vcs);
        assert_eq!(plan.max_s, SeqNum(3));
        assert_eq!(plan.pre_prepares.len(), 3);
        assert!(plan.pre_prepares[0].batch.is_empty()); // seq 1: gap
        assert!(plan.pre_prepares[1].batch.is_empty()); // seq 2: gap
        assert!(!plan.pre_prepares[2].batch.is_empty()); // seq 3: re-issued
        // Null batches carry the canonical null digest.
        assert_eq!(plan.pre_prepares[0].digest, digest_of(&RequestBatch::null()));
    }

    #[test]
    fn plan_with_no_prepared_slots_is_empty() {
        let vcs = vec![vc(1, 0, 0, vec![]), vc(1, 1, 0, vec![]), vc(1, 2, 0, vec![])];
        let plan = plan_new_view(View(1), &vcs);
        assert_eq!(plan.min_s, SeqNum(0));
        assert_eq!(plan.max_s, SeqNum(0));
        assert!(plan.pre_prepares.is_empty());
    }

    fn signed_nv(view: u64, vcs: Vec<Signed<ViewChange>>, primary: u32) -> NewView {
        let plan = plan_new_view(View(view), &vcs);
        NewView {
            view: View(view),
            view_changes: vcs,
            pre_prepares: plan
                .pre_prepares
                .into_iter()
                .map(|pp| Signed::new(pp, SignerId::Replica(ReplicaId(primary)), Signature::ZERO))
                .collect(),
        }
    }

    #[test]
    fn honest_new_view_validates() {
        let c = cfg();
        let vcs = vec![
            vc(1, 0, 0, vec![cert(0, 1, 0)]),
            vc(1, 1, 0, vec![]),
            vc(1, 2, 0, vec![]),
        ];
        let nv = signed_nv(1, vcs, 1);
        let plan = validate_new_view(&nv, &c).expect("honest new-view validates");
        assert_eq!(plan.max_s, SeqNum(1));
    }

    #[test]
    fn forged_new_view_rejected() {
        let c = cfg();
        let vcs = vec![
            vc(1, 0, 0, vec![cert(0, 1, 0)]),
            vc(1, 1, 0, vec![]),
            vc(1, 2, 0, vec![]),
        ];
        let mut nv = signed_nv(1, vcs, 1);
        // A byzantine primary swaps the re-issued batch for its own.
        let evil_batch = RequestBatch::single(request(999));
        nv.pre_prepares[0].payload.batch = evil_batch;
        assert!(validate_new_view(&nv, &c).is_err());

        // Or claims a different digest outright.
        let vcs = vec![
            vc(1, 0, 0, vec![cert(0, 1, 0)]),
            vc(1, 1, 0, vec![]),
            vc(1, 2, 0, vec![]),
        ];
        let mut nv = signed_nv(1, vcs, 1);
        nv.pre_prepares[0].payload.digest = Digest::from_bytes([9; 32]);
        assert!(validate_new_view(&nv, &c).is_err());
    }

    #[test]
    fn new_view_with_dropped_slot_rejected() {
        let c = cfg();
        let vcs = vec![
            vc(1, 0, 0, vec![cert(0, 2, 0)]),
            vc(1, 1, 0, vec![]),
            vc(1, 2, 0, vec![]),
        ];
        let mut nv = signed_nv(1, vcs, 1);
        // Byzantine primary omits a slot it should have re-issued.
        nv.pre_prepares.pop();
        assert!(validate_new_view(&nv, &c).is_err());
    }
}
