//! Randomized schedule exploration, one function for all three stacks.
//!
//! Each schedule hosts a fresh cluster on [`Cluster`] — the real hosting
//! core, framed bytes, the real frame classifier — stages client
//! requests at replica 0, and then plays the hostile environment from
//! one seed: every link drops and duplicates by the cluster's seeded
//! [`FaultPlan`], the explorer's own seeded generator picks which
//! waiting frame is delivered next (reordering), and the [`Adversary`]
//! injects forgeries signed with the keys it holds. What correct
//! replicas committed is read back as [`DurableEvent::Committed`] and
//! judged by the [`ExecutionLedger`]. Many independent seeds approximate
//! the interleaving coverage that the paper's Ivy proof establishes
//! deductively.

use crate::adversary::Adversary;
use crate::invariants::{ExecutionLedger, SafetyViolation};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splitbft_app::CounterApp;
use splitbft_core::SplitBftReplica;
use splitbft_crypto::digest_of;
use splitbft_hybrid::{HybridConfig, HybridMessage, HybridReplica, UsigTrait};
use splitbft_net::lockstep::Cluster;
use splitbft_net::{FaultPlan, Protocol};
use splitbft_pbft::{make_request, Replica as PbftReplica};
use splitbft_tee::{CostModel, ExecMode};
use splitbft_types::{
    ClientId, ClusterConfig, CompartmentKind, ConsensusMessage, DurableEvent, EnclaveId,
    FaultCommand, LinkRule, ReplicaId, RequestBatch, RequestId, SeqNum, SignerId, Timestamp, View,
};
use std::collections::BTreeSet;

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Independent random schedules to run.
    pub schedules: u64,
    /// Client requests submitted per schedule.
    pub requests: usize,
    /// Percentage of frames the (hostile) environment drops, per link.
    pub drop_percent: u8,
    /// Percentage of frames it duplicates, per link.
    pub duplicate_percent: u8,
    /// Keys the adversary holds. A compromised *replica* is a crashed
    /// slot: after proposing the clients' requests it sends only what
    /// the adversary injects in its name.
    pub compromised: Vec<SignerId>,
    /// Per-step probability of injecting an adversarial forgery.
    pub injection_probability: f64,
    /// Base seed; schedule `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            schedules: 20,
            requests: 8,
            drop_percent: 5,
            duplicate_percent: 5,
            compromised: Vec::new(),
            injection_probability: 0.0,
            seed: 0xE57,
        }
    }
}

/// The outcome of an exploration.
#[derive(Debug, PartialEq, Eq)]
pub struct ExplorationReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Violations found, with the schedule seed that produced them.
    pub violations: Vec<(u64, SafetyViolation)>,
    /// Total slots committed by correct replicas across all schedules.
    pub total_commits: usize,
    /// Slots on which all committing correct replicas agreed.
    pub agreed_slots: usize,
}

impl ExplorationReport {
    /// `true` if no schedule violated safety.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Delivery steps per schedule.
const MAX_STEPS: usize = 4_000;

/// The seed every explored deployment's keys derive from.
const MASTER_SEED: u64 = 0x5EED_5EED;

/// `replicas` on a cluster, every one recording the [`DurableEvent`]s
/// that [`harvest`] reads — the stacks record them only for a runtime
/// that has drained them once.
fn recording<P: Protocol>(replicas: impl Iterator<Item = P>) -> Cluster<P> {
    let mut cluster = Cluster::new(replicas);
    for i in 0..cluster.n() {
        cluster.replica_mut(i).drain_durable_events();
    }
    cluster
}

/// Four PBFT replicas keyed from `master_seed`.
pub fn pbft_cluster(master_seed: u64) -> Cluster<PbftReplica<CounterApp>> {
    let config = ClusterConfig::new(4).expect("n = 4");
    recording(
        config.replicas().map(|id| PbftReplica::new(config.clone(), id, master_seed, CounterApp::new())),
    )
}

/// Four SplitBFT replicas keyed from `master_seed`.
pub fn splitbft_cluster(master_seed: u64) -> Cluster<SplitBftReplica<CounterApp>> {
    let config = ClusterConfig::new(4).expect("n = 4");
    recording(config.replicas().map(|id| {
        let (mode, cost) = (ExecMode::Simulation, CostModel::simulation_mode());
        SplitBftReplica::new(config.clone(), id, master_seed, CounterApp::new(), mode, cost)
    }))
}

/// Three hybrid replicas keyed from `master_seed`, each with the trusted
/// counter `usig` builds for it.
pub fn hybrid_cluster<U: UsigTrait + Send + 'static>(
    master_seed: u64,
    usig: fn(u64, ReplicaId) -> U,
) -> Cluster<HybridReplica<CounterApp, U>> {
    let config = HybridConfig::new(3).expect("n = 3");
    recording(config.replicas().map(|id| {
        HybridReplica::new(config.clone(), id, master_seed, usig(master_seed, id), CounterApp::new())
    }))
}

/// The paper's Figure 1: one compromised enclave of each compartment
/// type, each on a different replica — `f = 1` per type.
pub fn one_enclave_per_type() -> Vec<SignerId> {
    [CompartmentKind::Preparation, CompartmentKind::Confirmation, CompartmentKind::Execution]
        .into_iter()
        .zip(0..)
        .map(|(kind, r)| SignerId::Enclave(EnclaveId::new(ReplicaId(r), kind)))
        .collect()
}

/// What a compromised `signer` sends about slot `seq` in PBFT and
/// SplitBFT, both of which speak [`ConsensusMessage`]: a proposal of a
/// batch the adversary fabricated — no client submitted it — or a vote
/// for it.
pub fn forge_consensus(
    adversary: &Adversary,
    signer: SignerId,
    seq: SeqNum,
    rng: &mut StdRng,
) -> ConsensusMessage {
    let replica = signer.replica().expect("clients sign no consensus messages");
    let (view, evil) = (View(0), adversary.evil_batch(0xE1));
    // Which of proposal / prepare vote / commit vote the key can sign.
    let choices = match signer {
        SignerId::Enclave(e) if e.kind == CompartmentKind::Preparation => 0..2u32,
        SignerId::Enclave(e) if e.kind == CompartmentKind::Confirmation => 2..3,
        SignerId::Enclave(_) => 0..1,
        _ => 0..3,
    };
    match rng.gen_range(choices) {
        0 => adversary.forge_pre_prepare(signer, view, seq, evil),
        1 => adversary.forge_prepare(signer, replica, view, seq, digest_of(&evil)),
        _ => adversary.forge_commit(signer, replica, view, seq, digest_of(&evil)),
    }
}

/// Explores PBFT (n = 4); compromised keys are [`SignerId::Replica`]s.
pub fn explore_pbft(config: &ExplorerConfig) -> ExplorationReport {
    explore(config, pbft_cluster, forge_consensus)
}

/// Explores SplitBFT (n = 4); compromised keys are
/// [`SignerId::Enclave`]s.
pub fn explore_splitbft(config: &ExplorerConfig) -> ExplorationReport {
    explore(config, splitbft_cluster, forge_consensus)
}

/// Explores the hybrid (n = 3) under hostile environments only: its
/// fault model has no compromised key to forge with.
pub fn explore_hybrid(config: &ExplorerConfig) -> ExplorationReport {
    let forge = |_: &Adversary, _, _, _: &mut StdRng| -> HybridMessage {
        unreachable!("the hybrid explores hostile environments only")
    };
    explore(config, |seed| hybrid_cluster(seed, splitbft_hybrid::Usig::new), forge)
}

/// Runs `config.schedules` schedules, each on a fresh cluster that
/// `cluster` keys from the master seed it is given — the adversary's keys
/// derive from the same one — and reports what the ledger saw. `forge` is
/// what a compromised key of this stack can send (see
/// [`forge_consensus`]); it is only called when keys are compromised.
pub fn explore<P: Protocol>(
    config: &ExplorerConfig,
    cluster: impl Fn(u64) -> Cluster<P>,
    forge: impl Fn(&Adversary, SignerId, SeqNum, &mut StdRng) -> P::Message,
) -> ExplorationReport {
    let mut report = ExplorationReport {
        schedules: config.schedules,
        violations: Vec::new(),
        total_commits: 0,
        agreed_slots: 0,
    };
    for i in 0..config.schedules {
        let seed = config.seed.wrapping_add(i);
        let ledger = run_schedule(config, seed, &mut cluster(MASTER_SEED), &forge);
        report.total_commits += ledger.committed_slots();
        report.agreed_slots += ledger.agreed_prefix();
        report.violations.extend(ledger.violations().iter().map(|v| (seed, v.clone())));
    }
    report
}

fn run_schedule<P: Protocol>(
    config: &ExplorerConfig,
    seed: u64,
    cluster: &mut Cluster<P>,
    forge: &impl Fn(&Adversary, SignerId, SeqNum, &mut StdRng) -> P::Message,
) -> ExecutionLedger {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cluster.n();
    let compromised = &config.compromised;
    let adversary = Adversary::new(MASTER_SEED, compromised.iter().copied());

    // The hostile environment controls every link.
    cluster.faults = FaultPlan::shared(seed);
    for (from, to) in (0..n as u32).flat_map(|a| (0..n as u32).map(move |b| (a, b))) {
        cluster.faults.apply(FaultCommand::SetRule(LinkRule {
            drop_percent: config.drop_percent,
            duplicate_percent: config.duplicate_percent,
            ..LinkRule::clean(ReplicaId(from), ReplicaId(to))
        }));
    }
    for signer in compromised {
        if let SignerId::Replica(r) = signer {
            cluster.crash(r.as_usize());
        }
    }

    // Validity only applies while no compromised key's holder also holds
    // the client MAC keys — a Preparation enclave and a PBFT replica do:
    // they can fabricate authenticated requests, and agreement, not
    // validity, is what is guaranteed then.
    let check_validity = !compromised.iter().any(|s| match s {
        SignerId::Enclave(e) => e.kind == CompartmentKind::Preparation,
        _ => true,
    });
    let mut ledger = ExecutionLedger::new();
    let mut submitted = BTreeSet::new();
    for t in 0..config.requests {
        let request =
            make_request(MASTER_SEED, ClientId(0), Timestamp(t as u64 + 1), Bytes::from_static(b"inc"));
        submitted.insert(request.id);
        if check_validity {
            // The ledger judges validity from its first registration on.
            ledger.register_legitimate(digest_of(&RequestBatch::single(request.clone())));
        }
        cluster.drive(0, |p| p.on_client_requests(vec![request]));
    }

    for _ in 0..MAX_STEPS {
        if !compromised.is_empty() && rng.gen_bool(config.injection_probability) {
            let signer = compromised[rng.gen_range(0..compromised.len())];
            let from = signer.replica().expect("clients sign no protocol messages");
            let seq = SeqNum(rng.gen_range(1..=config.requests as u64 + 1));
            let to = rng.gen_range(0..n);
            cluster.inject(from.as_usize(), to, &forge(&adversary, signer, seq, &mut rng));
        }
        // Reordering: any waiting frame, anywhere, may be next.
        let waiting: usize = (0..n).map(|i| cluster.waiting(i)).sum();
        if waiting == 0 {
            break;
        }
        let (mut i, mut nth) = (0, rng.gen_range(0..waiting));
        while nth >= cluster.waiting(i) {
            nth -= cluster.waiting(i);
            i += 1;
        }
        cluster.deliver(i, nth);
    }
    harvest(cluster, &mut ledger, compromised, check_validity.then_some(&submitted));
    ledger
}

/// Feeds `ledger` every batch committed since the last harvest by a
/// replica that executes correctly — one that is neither compromised
/// whole nor hosts a compromised Execution enclave; what those commit is
/// what clients observe. With `submitted` given, a batch is registered
/// as legitimate if clients submitted every request in it, however the
/// stack cut its batches; without, validity is not judged.
pub(crate) fn harvest<P: Protocol>(
    cluster: &mut Cluster<P>,
    ledger: &mut ExecutionLedger,
    compromised: &[SignerId],
    submitted: Option<&BTreeSet<RequestId>>,
) {
    for i in 0..cluster.n() {
        let replica = ReplicaId(i as u32);
        let correct = !compromised.iter().any(|s| match s {
            SignerId::Enclave(e) => e.replica == replica && e.kind == CompartmentKind::Execution,
            _ => s.replica() == Some(replica),
        });
        for event in cluster.replica_mut(i).drain_durable_events() {
            let DurableEvent::Committed { seq, batch } = event else { continue };
            if !correct {
                continue;
            }
            let digest = digest_of(&batch);
            if submitted.is_some_and(|ids| batch.requests.iter().all(|r| ids.contains(&r.id))) {
                ledger.register_legitimate(digest);
            }
            ledger.record_commit(replica, seq, digest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_runs_are_safe_and_progress() {
        let report = explore_splitbft(&ExplorerConfig {
            schedules: 5,
            requests: 5,
            ..Default::default()
        });
        assert!(report.is_safe(), "violations: {:?}", report.violations);
        assert!(report.total_commits > 0, "no progress at all");
    }

    #[test]
    fn f_compromised_enclaves_per_type_stay_safe() {
        // With active forgery injection.
        let report = explore_splitbft(&ExplorerConfig {
            schedules: 8,
            requests: 4,
            compromised: one_enclave_per_type(),
            injection_probability: 0.2,
            ..Default::default()
        });
        assert!(report.is_safe(), "violations: {:?}", report.violations);
    }

    #[test]
    fn a_committed_request_no_client_submitted_is_a_forged_execution() {
        let mut cluster = pbft_cluster(MASTER_SEED);
        let mut ledger = ExecutionLedger::new();
        let [known, unknown] = [1, 2].map(|ts| {
            make_request(MASTER_SEED, ClientId(0), Timestamp(ts), Bytes::from_static(b"inc"))
        });
        let submitted = BTreeSet::from([known.id]);
        ledger.register_legitimate(digest_of(&RequestBatch::single(known.clone())));

        cluster.submit(0, &[known]);
        harvest(&mut cluster, &mut ledger, &[], Some(&submitted));
        assert_eq!(ledger.committed_slots(), 1);
        assert!(ledger.is_safe(), "{:?}", ledger.violations());

        cluster.submit(0, &[unknown]);
        harvest(&mut cluster, &mut ledger, &[], Some(&submitted));
        let forged = |v: &SafetyViolation| {
            matches!(v, SafetyViolation::ForgedExecution { seq: SeqNum(2), .. })
        };
        assert_eq!(ledger.violations().len(), 4, "one per replica");
        assert!(ledger.violations().iter().all(forged), "{:?}", ledger.violations());
    }
}
