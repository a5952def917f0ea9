//! Operator status vocabulary: snapshots, journal events, and admin
//! verbs.
//!
//! The telemetry plane (`splitbft-obs` + the socket runtimes in
//! `splitbft-net`) answers `frame_kind::STATUS` requests on the client
//! port: tooling connects like a client, sends a [`StatusRequest`], and
//! receives a [`StatusResponse`] — a versioned [`NodeSnapshot`] of the
//! node's gauges, a suffix of its bounded [`StatusEvent`] journal, or
//! the outcome of an admin verb. Like [`crate::fault::FaultCommand`],
//! the types live here so the node that answers and the tooling that
//! asks (tests, benches, operators) share one encoding, and
//! unknown frame kinds are skipped by older receivers so the new frame
//! stays backward-compatible.
//!
//! Read-only verbs ([`StatusVerb::Snapshot`], [`StatusVerb::Events`])
//! are always served. Admin verbs ([`StatusVerb::Drain`]) mutate the
//! node and are honored only when the node was launched with the status
//! admin gate enabled — the same opt-in stance as `FAULT_CONTROL` —
//! otherwise the node answers [`StatusResponse::Refused`] and closes
//! the connection.

use crate::wire::{Decode, Encode, Reader, Sink, WireError};

/// Version stamp of [`NodeSnapshot`]'s field set. Bump on any layout
/// change so pollers can reject snapshots they do not understand.
pub const SNAPSHOT_VERSION: u32 = 1;

/// What a STATUS connection asks of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusVerb {
    /// Return the current [`NodeSnapshot`].
    Snapshot,
    /// Return journal events with sequence number `>= since`, oldest
    /// first (bounded by the journal's retention window).
    Events {
        /// Lowest journal sequence number of interest.
        since: u64,
    },
    /// Admin: stop admitting client requests, finish in-flight batches,
    /// seal a checkpoint, flush the WAL, and let the process exit 0.
    Drain,
}

/// A STATUS request frame: one verb per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusRequest {
    /// The requested action.
    pub verb: StatusVerb,
}

/// One entry of the bounded structured event journal — the typed
/// replacement for grepping stderr marker lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatusEvent {
    /// The replica entered a new view.
    ViewChange {
        /// The view entered.
        view: u64,
    },
    /// A durable checkpoint was sealed to disk.
    CheckpointSealed {
        /// The checkpoint's sequence number.
        seq: u64,
    },
    /// Recovery restored a checkpoint (locally unsealed or agreed on by
    /// peers).
    CheckpointRestored {
        /// The restored checkpoint's sequence number.
        seq: u64,
        /// How many peers agreed on it (`0` for a local unseal).
        agreeing_peers: u64,
    },
    /// State transfer applied a log suffix from a peer.
    StateTransferApplied {
        /// Protocol messages applied from the suffix.
        messages: u64,
        /// Progress before the suffix was applied.
        from_progress: u64,
        /// Progress after the suffix was applied.
        to_progress: u64,
    },
    /// A `FAULT_CONTROL` command mutated the node's fault plan.
    FaultPlanApplied,
    /// A drain was requested (SIGTERM or the STATUS admin verb).
    DrainRequested,
    /// The drain finished: checkpoint sealed, WAL flushed, no pending
    /// requests; the process exits after emitting this.
    DrainCompleted,
    /// Crash recovery finished replaying the WAL at startup.
    Recovered {
        /// WAL events replayed.
        replayed_events: u64,
        /// Sequence of the restored checkpoint (`0` if none).
        checkpoint_seq: u64,
    },
}

/// A point-in-time copy of one node's gauges, served for
/// [`StatusVerb::Snapshot`].
///
/// All fields are monotone counters or instantaneous gauges mirrored
/// from the node's metrics registry; `version` is
/// [`SNAPSHOT_VERSION`] so pollers can detect layout changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The answering replica.
    pub replica: u32,
    /// The protocol's monotone progress counter (highest executed
    /// sequence number).
    pub progress: u64,
    /// The protocol's current view.
    pub view: u64,
    /// View changes completed since startup.
    pub view_changes: u64,
    /// Client requests accepted but not yet executed.
    pub pending_requests: u64,
    /// WAL fsyncs performed (`0` for non-durable protocols).
    pub fsyncs: u64,
    /// Current WAL length in bytes.
    pub wal_bytes: u64,
    /// Durable checkpoints sealed since startup.
    pub checkpoint_seals: u64,
    /// Peer-link reconnect attempts that succeeded since startup.
    pub reconnects: u64,
    /// Frames refused by bounded rings/queues since startup.
    pub ring_refusals: u64,
    /// Bytes read off the network since startup.
    pub bytes_in: u64,
    /// Bytes written to the network since startup.
    pub bytes_out: u64,
    /// High-water mark of the core event queue depth.
    pub queue_depth_high_water: u64,
    /// Per-shard progress (one entry per consensus group).
    pub shard_progress: Vec<u64>,
    /// Per-shard fsync counts.
    pub shard_fsyncs: Vec<u64>,
    /// `true` while startup recovery / state transfer is still running.
    pub recovering: bool,
    /// `true` once a drain was requested.
    pub draining: bool,
    /// `true` once the drain finished (checkpoint sealed, WAL flushed).
    pub drained: bool,
    /// Sequence number the journal will assign to its next event (i.e.
    /// events `< journal_head` exist or have been evicted).
    pub journal_head: u64,
}

/// A node's answer to one [`StatusRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatusResponse {
    /// Answer to [`StatusVerb::Snapshot`].
    Snapshot(NodeSnapshot),
    /// Answer to [`StatusVerb::Events`]: `(sequence, event)` pairs,
    /// oldest first.
    Events {
        /// The journal's next sequence number at answer time (poll
        /// cursor for the next request).
        head: u64,
        /// The matching events, oldest first.
        events: Vec<(u64, StatusEvent)>,
    },
    /// The admin verb was accepted and the drain has begun.
    DrainStarted,
    /// The verb requires the status admin gate, which this node was not
    /// launched with.
    Refused,
}

impl Encode for StatusVerb {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        match self {
            StatusVerb::Snapshot => out.put(&[1]),
            StatusVerb::Events { since } => {
                out.put(&[2]);
                since.encode_to(out);
            }
            StatusVerb::Drain => out.put(&[3]),
        }
    }
}
impl Decode for StatusVerb {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            1 => Ok(StatusVerb::Snapshot),
            2 => Ok(StatusVerb::Events { since: u64::decode(r)? }),
            3 => Ok(StatusVerb::Drain),
            tag => Err(WireError::InvalidTag { ty: "StatusVerb", tag }),
        }
    }
}

impl Encode for StatusRequest {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.verb.encode_to(out);
    }
}
impl Decode for StatusRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StatusRequest { verb: StatusVerb::decode(r)? })
    }
}

impl Encode for StatusEvent {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        match self {
            StatusEvent::ViewChange { view } => {
                out.put(&[1]);
                view.encode_to(out);
            }
            StatusEvent::CheckpointSealed { seq } => {
                out.put(&[2]);
                seq.encode_to(out);
            }
            StatusEvent::CheckpointRestored { seq, agreeing_peers } => {
                out.put(&[3]);
                seq.encode_to(out);
                agreeing_peers.encode_to(out);
            }
            StatusEvent::StateTransferApplied { messages, from_progress, to_progress } => {
                out.put(&[4]);
                messages.encode_to(out);
                from_progress.encode_to(out);
                to_progress.encode_to(out);
            }
            StatusEvent::FaultPlanApplied => out.put(&[5]),
            StatusEvent::DrainRequested => out.put(&[6]),
            StatusEvent::DrainCompleted => out.put(&[7]),
            StatusEvent::Recovered { replayed_events, checkpoint_seq } => {
                out.put(&[8]);
                replayed_events.encode_to(out);
                checkpoint_seq.encode_to(out);
            }
        }
    }
}
impl Decode for StatusEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            1 => Ok(StatusEvent::ViewChange { view: u64::decode(r)? }),
            2 => Ok(StatusEvent::CheckpointSealed { seq: u64::decode(r)? }),
            3 => Ok(StatusEvent::CheckpointRestored {
                seq: u64::decode(r)?,
                agreeing_peers: u64::decode(r)?,
            }),
            4 => Ok(StatusEvent::StateTransferApplied {
                messages: u64::decode(r)?,
                from_progress: u64::decode(r)?,
                to_progress: u64::decode(r)?,
            }),
            5 => Ok(StatusEvent::FaultPlanApplied),
            6 => Ok(StatusEvent::DrainRequested),
            7 => Ok(StatusEvent::DrainCompleted),
            8 => Ok(StatusEvent::Recovered {
                replayed_events: u64::decode(r)?,
                checkpoint_seq: u64::decode(r)?,
            }),
            tag => Err(WireError::InvalidTag { ty: "StatusEvent", tag }),
        }
    }
}

impl Encode for NodeSnapshot {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.version.encode_to(out);
        self.replica.encode_to(out);
        self.progress.encode_to(out);
        self.view.encode_to(out);
        self.view_changes.encode_to(out);
        self.pending_requests.encode_to(out);
        self.fsyncs.encode_to(out);
        self.wal_bytes.encode_to(out);
        self.checkpoint_seals.encode_to(out);
        self.reconnects.encode_to(out);
        self.ring_refusals.encode_to(out);
        self.bytes_in.encode_to(out);
        self.bytes_out.encode_to(out);
        self.queue_depth_high_water.encode_to(out);
        self.shard_progress.encode_to(out);
        self.shard_fsyncs.encode_to(out);
        self.recovering.encode_to(out);
        self.draining.encode_to(out);
        self.drained.encode_to(out);
        self.journal_head.encode_to(out);
    }
}
impl Decode for NodeSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeSnapshot {
            version: u32::decode(r)?,
            replica: u32::decode(r)?,
            progress: u64::decode(r)?,
            view: u64::decode(r)?,
            view_changes: u64::decode(r)?,
            pending_requests: u64::decode(r)?,
            fsyncs: u64::decode(r)?,
            wal_bytes: u64::decode(r)?,
            checkpoint_seals: u64::decode(r)?,
            reconnects: u64::decode(r)?,
            ring_refusals: u64::decode(r)?,
            bytes_in: u64::decode(r)?,
            bytes_out: u64::decode(r)?,
            queue_depth_high_water: u64::decode(r)?,
            shard_progress: Vec::decode(r)?,
            shard_fsyncs: Vec::decode(r)?,
            recovering: bool::decode(r)?,
            draining: bool::decode(r)?,
            drained: bool::decode(r)?,
            journal_head: u64::decode(r)?,
        })
    }
}

impl Encode for StatusResponse {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        match self {
            StatusResponse::Snapshot(snapshot) => {
                out.put(&[1]);
                snapshot.encode_to(out);
            }
            StatusResponse::Events { head, events } => {
                out.put(&[2]);
                head.encode_to(out);
                events.encode_to(out);
            }
            StatusResponse::DrainStarted => out.put(&[3]),
            StatusResponse::Refused => out.put(&[4]),
        }
    }
}
impl Decode for StatusResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            1 => Ok(StatusResponse::Snapshot(NodeSnapshot::decode(r)?)),
            2 => Ok(StatusResponse::Events {
                head: u64::decode(r)?,
                events: Vec::decode(r)?,
            }),
            3 => Ok(StatusResponse::DrainStarted),
            4 => Ok(StatusResponse::Refused),
            tag => Err(WireError::InvalidTag { ty: "StatusResponse", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    #[test]
    fn requests_roundtrip() {
        roundtrip(&StatusRequest { verb: StatusVerb::Snapshot });
        roundtrip(&StatusRequest { verb: StatusVerb::Events { since: 17 } });
        roundtrip(&StatusRequest { verb: StatusVerb::Drain });
    }

    #[test]
    fn events_roundtrip() {
        for event in [
            StatusEvent::ViewChange { view: 3 },
            StatusEvent::CheckpointSealed { seq: 200 },
            StatusEvent::CheckpointRestored { seq: 100, agreeing_peers: 2 },
            StatusEvent::StateTransferApplied {
                messages: 40,
                from_progress: 100,
                to_progress: 140,
            },
            StatusEvent::FaultPlanApplied,
            StatusEvent::DrainRequested,
            StatusEvent::DrainCompleted,
            StatusEvent::Recovered { replayed_events: 12, checkpoint_seq: 100 },
        ] {
            roundtrip(&event);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let snapshot = NodeSnapshot {
            version: SNAPSHOT_VERSION,
            replica: 2,
            progress: 1234,
            view: 1,
            view_changes: 1,
            pending_requests: 7,
            fsyncs: 99,
            wal_bytes: 4096,
            checkpoint_seals: 6,
            reconnects: 2,
            ring_refusals: 5,
            bytes_in: 1 << 20,
            bytes_out: 1 << 21,
            queue_depth_high_water: 37,
            shard_progress: vec![600, 634],
            shard_fsyncs: vec![50, 49],
            recovering: false,
            draining: true,
            drained: false,
            journal_head: 42,
        };
        roundtrip(&StatusResponse::Snapshot(snapshot));
        roundtrip(&StatusResponse::Events {
            head: 9,
            events: vec![
                (7, StatusEvent::ViewChange { view: 2 }),
                (8, StatusEvent::CheckpointSealed { seq: 300 }),
            ],
        });
        roundtrip(&StatusResponse::DrainStarted);
        roundtrip(&StatusResponse::Refused);
    }

    #[test]
    fn unknown_tags_are_rejected() {
        for bytes in [&[0u8][..], &[9u8][..]] {
            assert!(matches!(
                crate::wire::decode::<StatusVerb>(bytes),
                Err(WireError::InvalidTag { ty: "StatusVerb", .. })
            ));
            assert!(matches!(
                crate::wire::decode::<StatusEvent>(bytes),
                Err(WireError::InvalidTag { ty: "StatusEvent", .. })
            ));
            assert!(matches!(
                crate::wire::decode::<StatusResponse>(bytes),
                Err(WireError::InvalidTag { ty: "StatusResponse", .. })
            ));
        }
    }
}
