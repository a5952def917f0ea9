//! Canned fault-model scenarios regenerating the paper's Table 1.
//!
//! Each scenario hosts one system (PBFT / hybrid / SplitBFT) on the
//! lockstep cluster under one attacker configuration and reports whether
//! safety held and whether the correct replicas made progress. Four rows
//! are explorations ([`crate::explorer`]); three are one precise attack
//! each, with the hostile network a named [`FaultPlan`] partition and
//! the compromised keys' frames injected. The *beyond-model* scenarios
//! double as mutation tests: their commits reach the ledger through the
//! explorer's own harvest, so a checker that went blind would report
//! them safe.
//!
//! [`FaultPlan`]: splitbft_net::FaultPlan

use crate::adversary::Adversary;
use crate::explorer::{
    explore_hybrid, explore_splitbft, harvest, hybrid_cluster, one_enclave_per_type, pbft_cluster,
    splitbft_cluster, ExplorationReport, ExplorerConfig,
};
use crate::invariants::ExecutionLedger;
use bytes::Bytes;
use splitbft_crypto::digest_of;
use splitbft_hybrid::FaultyUsig;
use splitbft_net::lockstep::Cluster;
use splitbft_net::Protocol;
use splitbft_pbft::make_request;
use splitbft_types::{
    ClientId, CompartmentKind, ConsensusMessage, EnclaveId, FaultCommand, PrePrepare, ReplicaId,
    Request, SeqNum, Signature, Signed, SignerId, Timestamp, View,
};

/// The fault-model scenarios of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// PBFT with `f` byzantine replicas (its design point).
    PbftFByzantine,
    /// PBFT with `f + 1` compromised replicas — beyond its model.
    PbftBeyondF,
    /// Hybrid protocol, `f` byzantine *hosts*, all trusted counters
    /// correct (its design point).
    HybridFByzantineHosts,
    /// Hybrid protocol with one compromised trusted counter — the TEE
    /// failure hybrid protocols assume away.
    HybridCompromisedTee,
    /// SplitBFT with a hostile environment on *every* replica (drops,
    /// reorders, duplicates) and correct enclaves.
    SplitBftHostileEnvironments,
    /// SplitBFT with `f` compromised enclaves *per compartment type*, on
    /// different replicas, actively forging messages (paper Figure 1).
    SplitBftFEnclavesPerType,
    /// SplitBFT with `2f + 1` compromised Confirmation enclaves — beyond
    /// its model.
    SplitBftBeyondModel,
}

impl Scenario {
    /// All scenarios, in Table 1 presentation order.
    pub const ALL: [Scenario; 7] = [
        Scenario::PbftFByzantine,
        Scenario::PbftBeyondF,
        Scenario::HybridFByzantineHosts,
        Scenario::HybridCompromisedTee,
        Scenario::SplitBftHostileEnvironments,
        Scenario::SplitBftFEnclavesPerType,
        Scenario::SplitBftBeyondModel,
    ];

    /// A short human-readable description.
    pub fn describe(&self) -> &'static str {
        match self {
            Scenario::PbftFByzantine => "PBFT, f byzantine replicas",
            Scenario::PbftBeyondF => "PBFT, f+1 compromised replicas",
            Scenario::HybridFByzantineHosts => "Hybrid (2f+1), f byzantine hosts, TEEs correct",
            Scenario::HybridCompromisedTee => "Hybrid (2f+1), one compromised trusted counter",
            Scenario::SplitBftHostileEnvironments => {
                "SplitBFT, hostile environment on all n replicas"
            }
            Scenario::SplitBftFEnclavesPerType => {
                "SplitBFT, f faulty enclaves per compartment type"
            }
            Scenario::SplitBftBeyondModel => "SplitBFT, 2f+1 compromised Confirmation enclaves",
        }
    }

    /// Whether the protocol's fault model claims to tolerate this
    /// scenario (the paper's Table 1 expectation).
    pub fn expected_safe(&self) -> bool {
        !matches!(
            self,
            Scenario::PbftBeyondF
                | Scenario::HybridCompromisedTee
                | Scenario::SplitBftBeyondModel
        )
    }
}

/// The observed outcome of a scenario run.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// No two correct replicas committed divergent batches.
    pub safety_held: bool,
    /// Correct replicas executed at least one request.
    pub made_progress: bool,
    /// Free-text detail for the report.
    pub detail: String,
}

/// Runs one scenario and reports the verdict. `seed` keys the deployment
/// and seeds every random choice.
pub fn run_scenario(scenario: Scenario, seed: u64) -> Verdict {
    // A hostile environment on every replica (a byzantine host, for the
    // hybrid): it suppresses, replays and reorders messages at will.
    let hostile = ExplorerConfig {
        schedules: 10,
        requests: 6,
        drop_percent: 25,
        duplicate_percent: 15,
        seed,
        ..Default::default()
    };
    match scenario {
        Scenario::PbftFByzantine => pbft_scenario(seed, 1),
        Scenario::PbftBeyondF => pbft_scenario(seed, 2),
        // The genuine USIGs reject a replayed or overtaken counter value,
        // so no host can make its replica equivocate.
        Scenario::HybridFByzantineHosts => explored(explore_hybrid(&hostile)),
        Scenario::HybridCompromisedTee => hybrid_compromised_tee(seed),
        Scenario::SplitBftHostileEnvironments => explored(explore_splitbft(&hostile)),
        // Paper Figure 1, the enclaves forging as the schedule runs.
        Scenario::SplitBftFEnclavesPerType => explored(explore_splitbft(&ExplorerConfig {
            requests: 5,
            drop_percent: 10,
            duplicate_percent: 10,
            compromised: one_enclave_per_type(),
            injection_probability: 0.25,
            ..hostile
        })),
        Scenario::SplitBftBeyondModel => splitbft_beyond_model(seed),
    }
}

fn inc(seed: u64, client: u32) -> Request {
    make_request(seed, ClientId(client), Timestamp(1), Bytes::from_static(b"inc"))
}

/// Cuts every link between `side_a` and `side_b`, both ways.
fn partition<P: Protocol>(cluster: &mut Cluster<P>, side_a: &[u32], side_b: &[u32]) {
    cluster.faults.apply(FaultCommand::Partition {
        name: "hostile-network".into(),
        side_a: side_a.iter().map(|&r| ReplicaId(r)).collect(),
        side_b: side_b.iter().map(|&r| ReplicaId(r)).collect(),
        symmetric: true,
    });
}

/// What the correct replicas of the `cluster` under `attack` committed,
/// judged for agreement.
fn verdict_of<P: Protocol>(cluster: &mut Cluster<P>, compromised: &[SignerId], attack: &str) -> Verdict {
    let mut ledger = ExecutionLedger::new();
    harvest(cluster, &mut ledger, compromised, None);
    Verdict {
        safety_held: ledger.is_safe(),
        made_progress: ledger.committed_slots() > 0,
        detail: format!(
            "{attack}: {} slot(s) committed, {} violation(s)",
            ledger.committed_slots(),
            ledger.violations().len()
        ),
    }
}

fn explored(report: ExplorationReport) -> Verdict {
    Verdict {
        safety_held: report.is_safe(),
        made_progress: report.total_commits > 0,
        detail: format!(
            "{} schedules, {} commits, {} violations",
            report.schedules,
            report.total_commits,
            report.violations.len()
        ),
    }
}

// ---------------------------------------------------------------------------
// PBFT scenarios
// ---------------------------------------------------------------------------

/// Runs PBFT (n = 4) with the adversary holding the keys of the first
/// `compromised` replicas, the primary's among them.
///
/// With one compromised key (the byzantine primary, `f = 1`) the attacker
/// can equivocate, but quorum intersection keeps the correct replicas
/// consistent: at most one of the conflicting proposals can gather a
/// commit quorum. With two compromised keys (`f + 1`) the attacker forges
/// a full vote set for a *different* batch per victim and the two correct
/// replicas commit divergent state.
fn pbft_scenario(seed: u64, compromised: u32) -> Verdict {
    let signers: Vec<SignerId> = (0..compromised).map(|r| SignerId::Replica(ReplicaId(r))).collect();
    let adversary = Adversary::new(seed, signers.iter().copied());
    let mut cluster = pbft_cluster(seed);
    (0..compromised as usize).for_each(|r| cluster.crash(r));
    // The victims talk to each other freely, except that with f + 1 keys
    // the attacker — it controls scheduling too — cuts the first victim
    // off so the divergence sticks.
    if compromised >= 2 {
        partition(&mut cluster, &[compromised], &[compromised + 1]);
    }

    // The equivocation: proposal A to the first victim, proposal B to the
    // rest, each with votes from every compromised key.
    let (batch_a, batch_b) = (adversary.evil_batch(0xA0), adversary.evil_batch(0xB0));
    let (view, seq) = (View(0), SeqNum(1));
    for victim in compromised..4 {
        let batch = if victim == compromised { &batch_a } else { &batch_b };
        let digest = digest_of(batch);
        let to = victim as usize;
        cluster.inject(0, to, &adversary.forge_pre_prepare(signers[0], view, seq, batch.clone()));
        for (r, &signer) in signers.iter().enumerate() {
            if r != 0 {
                let prepare = adversary.forge_prepare(signer, ReplicaId(r as u32), view, seq, digest);
                cluster.inject(r, to, &prepare);
            }
            cluster.inject(r, to, &adversary.forge_commit(signer, ReplicaId(r as u32), view, seq, digest));
        }
    }
    cluster.run();

    verdict_of(&mut cluster, &signers, "equivocation and forged votes")
}

// ---------------------------------------------------------------------------
// Hybrid scenarios
// ---------------------------------------------------------------------------

fn hybrid_compromised_tee(seed: u64) -> Verdict {
    // The paper's motivating failure: the primary's "trusted" counter is
    // rolled back and signs two conflicting prepares under one counter
    // value. Each correct replica accepts one — divergence.
    let primary = [SignerId::Replica(ReplicaId(0))];
    let mut cluster = hybrid_cluster(seed, FaultyUsig::new);

    // Prepare A reaches only r1, prepare B — same counter value — only r2.
    partition(&mut cluster, &[0], &[2]);
    cluster.drive(0, |p| p.on_client_requests(vec![inc(seed, 0)]));
    cluster.replica_mut(0).usig_mut().rollback(1);
    partition(&mut cluster, &[0], &[1]);
    cluster.drive(0, |p| p.on_client_requests(vec![inc(seed, 1)]));
    cluster.run();

    verdict_of(&mut cluster, &primary, "counter rollback")
}

// ---------------------------------------------------------------------------
// SplitBFT scenarios
// ---------------------------------------------------------------------------

fn splitbft_beyond_model(seed: u64) -> Verdict {
    // 2f + 1 = 3 compromised Confirmation enclaves can fabricate a full
    // commit certificate for a batch that never prepared. The victim's
    // correct Execution enclave executes it while the rest of the
    // cluster executes the legitimate batch: disagreement.
    let conf: Vec<SignerId> = (0..3)
        .map(|r| SignerId::Enclave(EnclaveId::new(ReplicaId(r), CompartmentKind::Confirmation)))
        .collect();
    let adversary = Adversary::new(seed, conf.iter().copied());
    let mut cluster = splitbft_cluster(seed);

    // Honest run on replicas 0..3; the hostile environment partitions
    // the victim r3 off.
    partition(&mut cluster, &[0, 1, 2], &[3]);
    cluster.submit(0, &[inc(seed, 0)]);

    // The attack on victim r3: a forged proposal (Execution accepts any
    // digest-consistent proposal — P5 says only commit quorums carry
    // authority) plus a fabricated commit certificate from the three
    // compromised Confirmation enclaves. The proposal needs no valid
    // Preparation signature for the Execution path: the victim's broker
    // is hostile and routes it straight to Execution, which validates
    // only the digest binding.
    let evil_batch = adversary.evil_batch(0xBA);
    let digest = digest_of(&evil_batch);
    let (view, seq) = (View(0), SeqNum(1));
    let proposal = PrePrepare { view, seq, digest, batch: evil_batch };
    cluster.inject(0, 3, &ConsensusMessage::PrePrepare(Signed::new(proposal, conf[0], Signature::ZERO)));
    for (r, &signer) in conf.iter().enumerate() {
        cluster.inject(r, 3, &adversary.forge_commit(signer, ReplicaId(r as u32), view, seq, digest));
    }
    cluster.run();

    verdict_of(&mut cluster, &conf, "forged commit certificate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_match_the_fault_models() {
        for seed in [11, 13, 42, 99] {
            for scenario in Scenario::ALL {
                let verdict = run_scenario(scenario, seed);
                assert_eq!(
                    verdict.safety_held,
                    scenario.expected_safe(),
                    "{scenario:?}, seed {seed}: {}",
                    verdict.detail
                );
            }
        }
    }

    #[test]
    fn in_model_scenarios_make_progress() {
        for scenario in Scenario::ALL {
            if scenario.expected_safe() {
                let verdict = run_scenario(scenario, 13);
                assert!(verdict.made_progress, "{scenario:?} made no progress");
            }
        }
    }
}
