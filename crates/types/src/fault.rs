//! Fault-injection vocabulary of the in-memory cluster.
//!
//! Fault schedules steer transport-level faults with [`FaultCommand`]s,
//! which `lockstep::Cluster` (in `splitbft-net`) applies to its
//! `FaultPlan`. The plan sits on the *send path* of every peer link — so
//! a partition declared here blocks protocol traffic and state transfer
//! alike, without touching protocol state. Commands are plain values:
//! they never travel on the wire, and no socket node accepts them.

use crate::ids::ReplicaId;

/// Per-link fault rule for the ordered pair `from → to`.
///
/// Percentages select frames deterministically from the link's seeded
/// decision stream (see `FaultPlan` in `splitbft-net`); they are not
/// wall-clock random. A rule with all percentages zero and a nonzero
/// `delay_ms` delays *every* frame by that amount (uniform extra
/// latency); a nonzero `reorder_percent` instead holds back only the
/// selected frames, letting their successors overtake them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRule {
    /// Sending replica.
    pub from: ReplicaId,
    /// Receiving replica.
    pub to: ReplicaId,
    /// Percentage of frames dropped outright (0–100).
    pub drop_percent: u8,
    /// Percentage of frames delivered twice (0–100).
    pub duplicate_percent: u8,
    /// Percentage of frames held back by `delay_ms` so later frames
    /// overtake them (0–100).
    pub reorder_percent: u8,
    /// Holdback applied to delayed/reordered frames, in milliseconds.
    pub delay_ms: u32,
}

impl LinkRule {
    /// A rule that delivers everything unchanged (useful as a base for
    /// struct-update syntax in tests and schedules).
    pub fn clean(from: ReplicaId, to: ReplicaId) -> Self {
        LinkRule {
            from,
            to,
            drop_percent: 0,
            duplicate_percent: 0,
            reorder_percent: 0,
            delay_ms: 0,
        }
    }
}

/// A command against the in-memory cluster's fault plan.
///
/// Partitions are named so a schedule can layer several (e.g. isolate
/// the primary *and* degrade one backup link) and heal them
/// independently mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultCommand {
    /// Install (or replace) the rule for one ordered link.
    SetRule(LinkRule),
    /// Remove every per-link rule (partitions stay).
    ClearRules,
    /// Open a named partition between two replica sets. With
    /// `symmetric` the cut blocks both directions; without it only
    /// `side_a → side_b` traffic is blocked (an asymmetric link
    /// failure).
    Partition {
        /// Name to heal this partition by.
        name: String,
        /// Replicas on the first side of the cut.
        side_a: Vec<ReplicaId>,
        /// Replicas on the second side of the cut.
        side_b: Vec<ReplicaId>,
        /// `true` blocks both directions; `false` only `side_a → side_b`.
        symmetric: bool,
    },
    /// Close the named partition.
    Heal {
        /// The partition to close.
        name: String,
    },
    /// Close every partition and remove every rule.
    HealAll,
}
