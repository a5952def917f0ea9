//! Transport-level fault injection: the [`FaultPlan`].
//!
//! Fault testing needs faults *below* the protocols — dropped, delayed,
//! reordered and duplicated frames, and network partitions — while the
//! protocols above keep running unmodified. A [`FaultPlan`] is the
//! decision table the in-memory cluster ([`Cluster::faults`]) consults
//! on the send path of every peer link, so protocol traffic and state
//! transfer are faulted alike, with delays served against the cluster's
//! virtual clock. Fault schedules ([`FaultCommand`]s) change it between
//! steps. The socket runtime has no fault plan and accepts no fault
//! commands.
//!
//! # Determinism
//!
//! Decisions are a pure function of `(seed, from, to, position)`, where
//! `position` is the per-ordered-pair frame counter. Two runs that offer
//! the same traffic sequence on a link get the same drop/delay/duplicate
//! verdicts regardless of how other links interleave. Partitions sit in
//! front of the rule stream and do not consume positions, so opening and
//! healing a cut leaves the link's remaining decision stream intact.
//!
//! [`Cluster::faults`]: crate::lockstep::Cluster::faults

use splitbft_types::fault::{FaultCommand, LinkRule};
use splitbft_types::ReplicaId;
use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

/// The verdict for one frame offered on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Discard the frame.
    Drop,
    /// Deliver the frame twice.
    Duplicate,
    /// Hold the frame back for the given duration before delivering —
    /// frames offered later overtake it, which is how reordering is
    /// produced.
    DeliverAfter(Duration),
}

/// A named cut between two replica sets (see [`FaultCommand::Partition`]).
#[derive(Debug)]
struct NamedPartition {
    name: String,
    side_a: BTreeSet<ReplicaId>,
    side_b: BTreeSet<ReplicaId>,
    symmetric: bool,
}

impl NamedPartition {
    fn blocks(&self, from: ReplicaId, to: ReplicaId) -> bool {
        (self.side_a.contains(&from) && self.side_b.contains(&to))
            || (self.symmetric && self.side_a.contains(&to) && self.side_b.contains(&from))
    }
}

/// A seeded fault decision table for peer links.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: HashMap<(ReplicaId, ReplicaId), LinkRule>,
    partitions: Vec<NamedPartition>,
    /// Per-ordered-pair frame counters: the position term of the
    /// deterministic decision function.
    counters: HashMap<(ReplicaId, ReplicaId), u64>,
}

impl FaultPlan {
    /// An empty plan (delivers everything) with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Applies one command (see [`FaultCommand`]).
    pub fn apply(&mut self, cmd: FaultCommand) {
        match cmd {
            FaultCommand::SetRule(rule) => {
                self.rules.insert((rule.from, rule.to), rule);
            }
            FaultCommand::ClearRules => self.rules.clear(),
            FaultCommand::Partition { name, side_a, side_b, symmetric } => {
                // Re-declaring a name replaces the old cut.
                self.partitions.retain(|p| p.name != name);
                self.partitions.push(NamedPartition {
                    name,
                    side_a: side_a.into_iter().collect(),
                    side_b: side_b.into_iter().collect(),
                    symmetric,
                });
            }
            FaultCommand::Heal { name } => self.partitions.retain(|p| p.name != name),
            FaultCommand::HealAll => {
                self.partitions.clear();
                self.rules.clear();
                self.counters.clear();
            }
        }
    }

    /// Decides the fate of the next frame on the ordered link
    /// `from → to`, advancing that link's decision stream by one
    /// position (unless only a partition applies — cuts don't consume
    /// positions).
    pub fn decide(&mut self, from: ReplicaId, to: ReplicaId) -> FaultDecision {
        if self.partitions.iter().any(|p| p.blocks(from, to)) {
            return FaultDecision::Drop;
        }
        let Some(rule) = self.rules.get(&(from, to)).copied() else {
            return FaultDecision::Deliver;
        };
        let counter = self.counters.entry((from, to)).or_insert(0);
        let position = *counter;
        *counter += 1;
        let roll = splitmix64(self.seed ^ pair_key(from, to) ^ position);
        let pct = (roll % 100) as u8;
        let delay = Duration::from_millis(u64::from(rule.delay_ms.max(1)));
        // One roll, partitioned into [drop | duplicate | reorder | rest]:
        // the categories are mutually exclusive per frame.
        let drop_end = rule.drop_percent.min(100);
        let dup_end = drop_end.saturating_add(rule.duplicate_percent);
        let reorder_end = dup_end.saturating_add(rule.reorder_percent);
        if pct < drop_end {
            FaultDecision::Drop
        } else if pct < dup_end {
            FaultDecision::Duplicate
        } else if pct < reorder_end {
            FaultDecision::DeliverAfter(delay)
        } else if rule.reorder_percent == 0 && rule.delay_ms > 0 {
            // Pure-delay rule: uniform extra latency on every frame.
            FaultDecision::DeliverAfter(delay)
        } else {
            FaultDecision::Deliver
        }
    }
}

/// Mixes an ordered replica pair into the decision hash.
fn pair_key(from: ReplicaId, to: ReplicaId) -> u64 {
    (u64::from(from.0) << 32) | u64::from(to.0).rotate_left(17)
}

/// SplitMix64: a well-distributed 64-bit mixer, used here as a counter
/// hash so every link position gets an independent uniform roll.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(from: u32, to: u32, drop: u8, dup: u8, reorder: u8, delay_ms: u32) -> FaultCommand {
        FaultCommand::SetRule(LinkRule {
            from: ReplicaId(from),
            to: ReplicaId(to),
            drop_percent: drop,
            duplicate_percent: dup,
            reorder_percent: reorder,
            delay_ms,
        })
    }

    #[test]
    fn empty_plan_delivers_everything() {
        let mut plan = FaultPlan::new(7);
        for _ in 0..100 {
            assert_eq!(plan.decide(ReplicaId(0), ReplicaId(1)), FaultDecision::Deliver);
        }
    }

    #[test]
    fn rules_only_affect_their_own_link() {
        let mut plan = FaultPlan::new(7);
        plan.apply(rule(0, 1, 100, 0, 0, 0));
        assert_eq!(plan.decide(ReplicaId(0), ReplicaId(1)), FaultDecision::Drop);
        // Reverse direction and unrelated links are untouched.
        assert_eq!(plan.decide(ReplicaId(1), ReplicaId(0)), FaultDecision::Deliver);
        assert_eq!(plan.decide(ReplicaId(2), ReplicaId(3)), FaultDecision::Deliver);
    }

    #[test]
    fn symmetric_partition_blocks_both_directions() {
        let mut plan = FaultPlan::new(1);
        plan.apply(FaultCommand::Partition {
            name: "cut".into(),
            side_a: vec![ReplicaId(0)],
            side_b: vec![ReplicaId(1), ReplicaId(2)],
            symmetric: true,
        });
        assert_eq!(plan.decide(ReplicaId(0), ReplicaId(1)), FaultDecision::Drop);
        assert_eq!(plan.decide(ReplicaId(2), ReplicaId(0)), FaultDecision::Drop);
        // Links within one side are unaffected.
        assert_eq!(plan.decide(ReplicaId(1), ReplicaId(2)), FaultDecision::Deliver);
        plan.apply(FaultCommand::Heal { name: "cut".into() });
        assert_eq!(plan.decide(ReplicaId(0), ReplicaId(1)), FaultDecision::Deliver);
    }

    #[test]
    fn asymmetric_partition_blocks_one_direction() {
        let mut plan = FaultPlan::new(1);
        plan.apply(FaultCommand::Partition {
            name: "one-way".into(),
            side_a: vec![ReplicaId(2)],
            side_b: vec![ReplicaId(3)],
            symmetric: false,
        });
        assert_eq!(plan.decide(ReplicaId(2), ReplicaId(3)), FaultDecision::Drop);
        assert_eq!(plan.decide(ReplicaId(3), ReplicaId(2)), FaultDecision::Deliver);
    }

    #[test]
    fn pure_delay_rule_delays_every_frame() {
        let mut plan = FaultPlan::new(3);
        plan.apply(rule(0, 1, 0, 0, 0, 40));
        for _ in 0..20 {
            assert_eq!(
                plan.decide(ReplicaId(0), ReplicaId(1)),
                FaultDecision::DeliverAfter(Duration::from_millis(40))
            );
        }
    }

    #[test]
    fn decision_stream_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<FaultDecision> {
            let mut plan = FaultPlan::new(seed);
            plan.apply(rule(0, 1, 30, 10, 10, 5));
            (0..200).map(|_| plan.decide(ReplicaId(0), ReplicaId(1))).collect()
        };
        assert_eq!(run(42), run(42), "same seed, same verdicts");
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn partitions_do_not_consume_rule_positions() {
        // Reference stream with no partition interference.
        let reference = {
            let mut plan = FaultPlan::new(9);
            plan.apply(rule(0, 1, 50, 0, 0, 0));
            (0..50).map(|_| plan.decide(ReplicaId(0), ReplicaId(1))).collect::<Vec<_>>()
        };
        // Same rule, but a partition blocks the middle 50 offers; after
        // the heal the stream continues where it left off.
        let mut plan = FaultPlan::new(9);
        plan.apply(rule(0, 1, 50, 0, 0, 0));
        let mut observed: Vec<FaultDecision> =
            (0..25).map(|_| plan.decide(ReplicaId(0), ReplicaId(1))).collect();
        plan.apply(FaultCommand::Partition {
            name: "mid".into(),
            side_a: vec![ReplicaId(0)],
            side_b: vec![ReplicaId(1)],
            symmetric: true,
        });
        for _ in 0..50 {
            assert_eq!(plan.decide(ReplicaId(0), ReplicaId(1)), FaultDecision::Drop);
        }
        plan.apply(FaultCommand::Heal { name: "mid".into() });
        observed.extend((0..25).map(|_| plan.decide(ReplicaId(0), ReplicaId(1))));
        assert_eq!(observed, reference);
    }

    #[test]
    fn heal_all_restores_clean_delivery() {
        let mut plan = FaultPlan::new(5);
        plan.apply(rule(0, 1, 100, 0, 0, 0));
        plan.apply(FaultCommand::Partition {
            name: "x".into(),
            side_a: vec![ReplicaId(2)],
            side_b: vec![ReplicaId(3)],
            symmetric: true,
        });
        plan.apply(FaultCommand::HealAll);
        assert_eq!(plan.decide(ReplicaId(0), ReplicaId(1)), FaultDecision::Deliver);
        assert_eq!(plan.decide(ReplicaId(2), ReplicaId(3)), FaultDecision::Deliver);
    }
}
