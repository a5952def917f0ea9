//! Property tests for [`FaultPlan`] determinism and partition symmetry.
//!
//! Fault testing's value rests on reproducibility: a schedule that
//! found a bug must find it again. These properties pin the contract —
//! same seed + same offered traffic ⇒ identical decisions, regardless of
//! how other links interleave — and the partition semantics: symmetric
//! cuts block both directions, asymmetric cuts exactly one.

use proptest::prelude::*;
use splitbft_net::fault::{FaultDecision, FaultPlan};
use splitbft_types::fault::{FaultCommand, LinkRule};
use splitbft_types::ReplicaId;

/// Strategy for an arbitrary (possibly saturating) link rule on
/// `from → to`.
fn rule(from: u32, to: u32, params: (u8, u8, u8, u32)) -> LinkRule {
    let (drop_percent, duplicate_percent, reorder_percent, delay_ms) = params;
    LinkRule {
        drop_percent,
        duplicate_percent,
        reorder_percent,
        delay_ms,
        ..LinkRule::clean(ReplicaId(from), ReplicaId(to))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Same seed + same traffic ⇒ the same decision sequence, run after
    // run.
    #[test]
    fn same_seed_same_traffic_same_decisions(
        seed in any::<u64>(),
        params in (0u8..101, 0u8..101, 0u8..101, 0u32..500),
        offers in 1usize..300,
    ) {
        let run = || -> Vec<FaultDecision> {
            let mut plan = FaultPlan::new(seed);
            plan.apply(FaultCommand::SetRule(rule(0, 1, params)));
            (0..offers).map(|_| plan.decide(ReplicaId(0), ReplicaId(1))).collect()
        };
        prop_assert_eq!(run(), run());
    }

    // A link's decision stream only depends on its own traffic: frames
    // offered on other links never shift its verdicts.
    #[test]
    fn decisions_are_independent_across_links(
        seed in any::<u64>(),
        params in (0u8..101, 0u8..101, 0u8..101, 0u32..500),
        interleave in collection::vec((0u32..4, 0u32..4), 0..200),
    ) {
        let isolated = {
            let mut plan = FaultPlan::new(seed);
            plan.apply(FaultCommand::SetRule(rule(0, 1, params)));
            (0..50).map(|_| plan.decide(ReplicaId(0), ReplicaId(1))).collect::<Vec<_>>()
        };
        let interleaved = {
            let mut plan = FaultPlan::new(seed);
            plan.apply(FaultCommand::SetRule(rule(0, 1, params)));
            let mut decisions = Vec::new();
            for (i, &(from, to)) in interleave.iter().enumerate() {
                // Other links carry traffic between our offers.
                if (from, to) != (0, 1) {
                    let _ = plan.decide(ReplicaId(from), ReplicaId(to));
                }
                if i % 4 == 0 && decisions.len() < 50 {
                    decisions.push(plan.decide(ReplicaId(0), ReplicaId(1)));
                }
            }
            while decisions.len() < 50 {
                decisions.push(plan.decide(ReplicaId(0), ReplicaId(1)));
            }
            decisions
        };
        prop_assert_eq!(isolated, interleaved);
    }

    // Decision frequencies track the configured percentages (loose
    // bounds — the point is that the rule ranges are honored, not that
    // splitmix64 is a perfect RNG).
    #[test]
    fn decision_mix_tracks_rule_percentages(
        seed in any::<u64>(),
        drop in 10u8..91,
    ) {
        let mut plan = FaultPlan::new(seed);
        plan.apply(FaultCommand::SetRule(rule(0, 1, (drop, 0, 0, 0))));
        let offers = 2000usize;
        let dropped = (0..offers)
            .filter(|_| plan.decide(ReplicaId(0), ReplicaId(1)) == FaultDecision::Drop)
            .count();
        let expected = offers * usize::from(drop) / 100;
        let slack = offers / 10; // ±10 percentage points
        prop_assert!(
            dropped + slack >= expected && dropped <= expected + slack,
            "drop_percent {} produced {}/{} drops", drop, dropped, offers
        );
    }

    // A symmetric partition blocks both directions across the cut and
    // nothing within a side; healing restores every link.
    #[test]
    fn symmetric_partitions_block_both_directions(
        seed in any::<u64>(),
        split in 1usize..6,
    ) {
        let n = 7usize;
        let side_a: Vec<ReplicaId> = (0..split).map(|i| ReplicaId(i as u32)).collect();
        let side_b: Vec<ReplicaId> = (split..n).map(|i| ReplicaId(i as u32)).collect();
        let mut plan = FaultPlan::new(seed);
        plan.apply(FaultCommand::Partition {
            name: "cut".into(),
            side_a: side_a.clone(),
            side_b: side_b.clone(),
            symmetric: true,
        });
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                if i == j {
                    continue;
                }
                let crosses = (i < split as u32) != (j < split as u32);
                let expected =
                    if crosses { FaultDecision::Drop } else { FaultDecision::Deliver };
                prop_assert_eq!(plan.decide(ReplicaId(i), ReplicaId(j)), expected);
            }
        }
        plan.apply(FaultCommand::Heal { name: "cut".into() });
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                if i != j {
                    prop_assert_eq!(
                        plan.decide(ReplicaId(i), ReplicaId(j)),
                        FaultDecision::Deliver
                    );
                }
            }
        }
    }

    // A partition not declared asymmetric must be symmetric; one that is
    // blocks exactly the declared direction.
    #[test]
    fn asymmetry_only_when_declared(
        seed in any::<u64>(),
        symmetric in any::<bool>(),
    ) {
        let mut plan = FaultPlan::new(seed);
        plan.apply(FaultCommand::Partition {
            name: "link".into(),
            side_a: vec![ReplicaId(2)],
            side_b: vec![ReplicaId(5)],
            symmetric,
        });
        prop_assert_eq!(plan.decide(ReplicaId(2), ReplicaId(5)), FaultDecision::Drop);
        let reverse = plan.decide(ReplicaId(5), ReplicaId(2));
        if symmetric {
            prop_assert_eq!(reverse, FaultDecision::Drop);
        } else {
            prop_assert_eq!(reverse, FaultDecision::Deliver);
        }
    }
}
