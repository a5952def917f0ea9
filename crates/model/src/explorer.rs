//! Randomized schedule exploration for SplitBFT clusters.
//!
//! Each schedule builds a fresh 4-replica cluster, submits client
//! requests, and then delivers the resulting messages in a random order —
//! dropping, duplicating, and delaying them, and interleaving forgeries
//! from the [`Adversary`] — while the [`ExecutionLedger`] checks the
//! safety invariants. Many independent seeds approximate the interleaving
//! coverage that the paper's Ivy proof establishes deductively.
//!
//! The delivery loop here (and the ones in [`crate::scenarios`]) stays
//! its own on purpose rather than running on `splitbft_net::lockstep`:
//! the ledger judges the brokers' native `Committed` events, which the
//! hosting adapters filter out, under forgeries injected between
//! deliveries. Folding it in means giving the lockstep cluster a seeded
//! scheduler policy; see ROADMAP's simulation item.

use crate::adversary::Adversary;
use crate::invariants::{ExecutionLedger, SafetyViolation};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splitbft_app::CounterApp;
use splitbft_core::{ReplicaEvent, SplitBftReplica};
use splitbft_crypto::digest_of;
use splitbft_tee::{CostModel, ExecMode};
use splitbft_types::{
    ClientId, ClusterConfig, CompartmentKind, ConsensusMessage, Digest, EnclaveId, ReplicaId,
    SeqNum, SignerId, Timestamp, View,
};

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Independent random schedules to run.
    pub schedules: u64,
    /// Delivery steps per schedule.
    pub max_steps: usize,
    /// Client requests submitted per schedule.
    pub requests: usize,
    /// Per-delivery probability the (hostile) environment drops the
    /// message.
    pub drop_probability: f64,
    /// Per-delivery probability the message is duplicated.
    pub duplicate_probability: f64,
    /// Enclave keys the adversary holds.
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
            max_steps: 4_000,
            requests: 8,
            drop_probability: 0.05,
            duplicate_probability: 0.05,
            compromised: Vec::new(),
            injection_probability: 0.0,
            seed: 0xE57,
        }
    }
}

/// The outcome of an exploration.
#[derive(Debug)]
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

/// The explorer itself.
#[derive(Debug)]
pub struct ScheduleExplorer {
    config: ExplorerConfig,
}

const MASTER_SEED: u64 = 0x5EED_5EED;

impl ScheduleExplorer {
    /// Creates an explorer.
    pub fn new(config: ExplorerConfig) -> Self {
        ScheduleExplorer { config }
    }

    /// Runs all schedules and reports.
    pub fn run(&self) -> ExplorationReport {
        let mut report = ExplorationReport {
            schedules: self.config.schedules,
            violations: Vec::new(),
            total_commits: 0,
            agreed_slots: 0,
        };
        for i in 0..self.config.schedules {
            let seed = self.config.seed.wrapping_add(i);
            let ledger = self.run_schedule(seed);
            report.total_commits += ledger.committed_slots();
            report.agreed_slots += ledger.agreed_prefix();
            for v in ledger.violations() {
                report.violations.push((seed, v.clone()));
            }
        }
        report
    }

    fn exec_compromised(&self, replica: ReplicaId) -> bool {
        self.config
            .compromised
            .contains(&SignerId::Enclave(EnclaveId::new(replica, CompartmentKind::Execution)))
    }

    fn run_schedule(&self, seed: u64) -> ExecutionLedger {
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = ClusterConfig::new(4).expect("n = 4");
        let mut replicas: Vec<SplitBftReplica<CounterApp>> = (0..4u32)
            .map(|i| {
                SplitBftReplica::new(
                    cluster.clone(),
                    ReplicaId(i),
                    MASTER_SEED,
                    CounterApp::new(),
                    ExecMode::Simulation,
                    CostModel::simulation_mode(),
                )
            })
            .collect();
        let adversary = Adversary::new(MASTER_SEED, self.config.compromised.iter().copied());
        let mut ledger = ExecutionLedger::new();
        let mut pending: Vec<(usize, ConsensusMessage)> = Vec::new();

        // Submit client requests through the honest primary and register
        // their batch digests as legitimate. The validity invariant only
        // applies when no Preparation key is compromised: a compromised
        // Preparation enclave legitimately holds client MAC keys and can
        // fabricate authenticated requests — agreement, not validity, is
        // what SplitBFT guarantees then.
        let check_validity = !self.config.compromised.iter().any(|s| {
            matches!(s, SignerId::Enclave(e) if e.kind == CompartmentKind::Preparation)
        });
        for t in 0..self.config.requests {
            let request = splitbft_pbft::make_request(
                MASTER_SEED,
                ClientId(0),
                Timestamp(t as u64 + 1),
                Bytes::from_static(b"inc"),
            );
            if check_validity {
                ledger.register_legitimate(digest_of(&splitbft_types::RequestBatch::single(
                    request.clone(),
                )));
            }
            let events = replicas[0].on_client_batch(vec![request]);
            handle_events(0, events, &mut pending, &mut ledger, |r| {
                !self.exec_compromised(r)
            });
        }
        // Forged batches are *not* legitimate; pre-compute their digests
        // so the adversary can aim its votes at them.
        let evil = adversary.evil_batch(0xE1);
        let evil_digest = digest_of(&evil);

        let mut steps = 0usize;
        while !pending.is_empty() && steps < self.config.max_steps {
            steps += 1;

            // Adversarial injection.
            if !self.config.compromised.is_empty()
                && rng.gen_bool(self.config.injection_probability)
            {
                let signer = self.config.compromised[rng.gen_range(0..self.config.compromised.len())];
                let seq = SeqNum(rng.gen_range(1..=self.config.requests as u64 + 1));
                let target = rng.gen_range(0..4usize);
                let msg = match signer {
                    SignerId::Enclave(e) if e.kind == CompartmentKind::Preparation => {
                        if rng.gen_bool(0.5) {
                            adversary.forge_pre_prepare(signer, View(0), seq, evil.clone())
                        } else {
                            adversary.forge_prepare(signer, e.replica, View(0), seq, evil_digest)
                        }
                    }
                    SignerId::Enclave(e) if e.kind == CompartmentKind::Confirmation => {
                        adversary.forge_commit(signer, e.replica, View(0), seq, evil_digest)
                    }
                    _ => adversary.forge_pre_prepare(signer, View(0), seq, evil.clone()),
                };
                pending.push((target, msg));
            }

            // Random delivery with drops and duplicates (the hostile
            // environment controls the network and the broker).
            let idx = rng.gen_range(0..pending.len());
            let (dest, msg) = pending.swap_remove(idx);
            if rng.gen_bool(self.config.drop_probability) {
                continue;
            }
            if rng.gen_bool(self.config.duplicate_probability) {
                pending.push((dest, msg.clone()));
            }
            let events = replicas[dest].on_network_message(msg);
            handle_events(dest, events, &mut pending, &mut ledger, |r| {
                !self.exec_compromised(r)
            });
        }
        ledger
    }
}

fn handle_events(
    from: usize,
    events: Vec<ReplicaEvent>,
    pending: &mut Vec<(usize, ConsensusMessage)>,
    ledger: &mut ExecutionLedger,
    replica_is_correct: impl Fn(ReplicaId) -> bool,
) {
    for event in events {
        match event {
            ReplicaEvent::Broadcast(msg) => {
                for to in 0..4usize {
                    if to != from {
                        pending.push((to, msg.clone()));
                    }
                }
            }
            // Agreement is judged at the Execution stage of correct
            // replicas: what they commit is what clients observe.
            ReplicaEvent::Committed { kind: CompartmentKind::Execution, seq, digest } => {
                let replica = ReplicaId(from as u32);
                if replica_is_correct(replica) {
                    ledger.record_commit(replica, seq, digest);
                }
            }
            _ => {}
        }
    }
}

/// Records a commit observation helper usable by scenario code.
pub fn observe_commit(
    ledger: &mut ExecutionLedger,
    replica: ReplicaId,
    seq: SeqNum,
    digest: Digest,
) {
    ledger.record_commit(replica, seq, digest);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_runs_are_safe_and_progress() {
        let report = ScheduleExplorer::new(ExplorerConfig {
            schedules: 5,
            requests: 5,
            ..Default::default()
        })
        .run();
        assert!(report.is_safe(), "violations: {:?}", report.violations);
        assert!(report.total_commits > 0, "no progress at all");
    }

    #[test]
    fn f_compromised_enclaves_per_type_stay_safe() {
        // One compromised enclave of each type, each on a different
        // replica (paper Figure 1), with active forgery injection.
        let compromised = vec![
            SignerId::Enclave(EnclaveId::new(ReplicaId(0), CompartmentKind::Preparation)),
            SignerId::Enclave(EnclaveId::new(ReplicaId(1), CompartmentKind::Confirmation)),
            SignerId::Enclave(EnclaveId::new(ReplicaId(2), CompartmentKind::Execution)),
        ];
        let report = ScheduleExplorer::new(ExplorerConfig {
            schedules: 8,
            requests: 4,
            compromised,
            injection_probability: 0.2,
            ..Default::default()
        })
        .run();
        assert!(report.is_safe(), "violations: {:?}", report.violations);
    }
}
