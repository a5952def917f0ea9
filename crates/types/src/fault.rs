//! Fault-injection control vocabulary.
//!
//! Fault tests steer transport-level faults at runtime: a test
//! connects to each replica and sends [`FaultCommand`]s on a dedicated
//! control frame kind (`frame_kind::FAULT_CONTROL`), and the in-memory
//! cluster applies the same commands directly. Commands mutate the node's
//! `FaultPlan` (in `splitbft-net`), which sits on the *send path* of
//! every peer link — so a partition declared here blocks protocol
//! traffic and state transfer alike, without touching protocol state.
//!
//! Commands are plain data in this crate (next to the rest of the wire
//! vocabulary) so that both the transport that obeys them and the
//! tooling that issues them speak the same encoding. Unknown frame
//! kinds are skipped by older receivers, which keeps the control frame
//! backward-compatible.

use crate::ids::ReplicaId;
use crate::wire::{Decode, Encode, Reader, Sink, WireError};

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

impl Encode for LinkRule {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.from.encode_to(out);
        self.to.encode_to(out);
        out.put(&[self.drop_percent]);
        out.put(&[self.duplicate_percent]);
        out.put(&[self.reorder_percent]);
        self.delay_ms.encode_to(out);
    }
}
impl Decode for LinkRule {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LinkRule {
            from: ReplicaId::decode(r)?,
            to: ReplicaId::decode(r)?,
            drop_percent: u8::decode(r)?,
            duplicate_percent: u8::decode(r)?,
            reorder_percent: u8::decode(r)?,
            delay_ms: u32::decode(r)?,
        })
    }
}

/// A runtime command against a node's fault plan.
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

impl Encode for FaultCommand {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        match self {
            FaultCommand::SetRule(rule) => {
                out.put(&[1]);
                rule.encode_to(out);
            }
            FaultCommand::ClearRules => out.put(&[2]),
            FaultCommand::Partition { name, side_a, side_b, symmetric } => {
                out.put(&[3]);
                name.encode_to(out);
                side_a.encode_to(out);
                side_b.encode_to(out);
                symmetric.encode_to(out);
            }
            FaultCommand::Heal { name } => {
                out.put(&[4]);
                name.encode_to(out);
            }
            FaultCommand::HealAll => out.put(&[5]),
        }
    }
}
impl Decode for FaultCommand {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            1 => Ok(FaultCommand::SetRule(LinkRule::decode(r)?)),
            2 => Ok(FaultCommand::ClearRules),
            3 => Ok(FaultCommand::Partition {
                name: String::decode(r)?,
                side_a: Vec::decode(r)?,
                side_b: Vec::decode(r)?,
                symmetric: bool::decode(r)?,
            }),
            4 => Ok(FaultCommand::Heal { name: String::decode(r)? }),
            5 => Ok(FaultCommand::HealAll),
            tag => Err(WireError::InvalidTag { ty: "FaultCommand", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    #[test]
    fn commands_roundtrip() {
        roundtrip(&FaultCommand::SetRule(LinkRule {
            drop_percent: 30,
            duplicate_percent: 5,
            reorder_percent: 10,
            delay_ms: 40,
            ..LinkRule::clean(ReplicaId(0), ReplicaId(3))
        }));
        roundtrip(&FaultCommand::ClearRules);
        roundtrip(&FaultCommand::Partition {
            name: "primary-cut".into(),
            side_a: vec![ReplicaId(0)],
            side_b: vec![ReplicaId(1), ReplicaId(2), ReplicaId(3)],
            symmetric: true,
        });
        roundtrip(&FaultCommand::Heal { name: "primary-cut".into() });
        roundtrip(&FaultCommand::HealAll);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let err = crate::wire::decode::<FaultCommand>(&[9]).unwrap_err();
        assert!(matches!(err, WireError::InvalidTag { ty: "FaultCommand", .. }));
    }
}
