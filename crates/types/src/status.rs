//! Operator status vocabulary: snapshots and journal events.
//!
//! The telemetry plane (`splitbft-obs` + the socket runtime in
//! `splitbft-net`) answers `frame_kind::STATUS` requests on the client
//! port: tooling connects like a client, sends a [`StatusRequest`], and
//! receives a [`StatusResponse`] — a versioned [`NodeSnapshot`] of the
//! node's gauges, or a suffix of its bounded [`StatusEvent`] journal.
//! The types live here so the node that answers and the tooling that
//! asks (tests, benches, operators) share one encoding, and unknown
//! frame kinds are skipped by older receivers so the frame stays
//! backward-compatible.
//!
//! Every verb is read-only: STATUS cannot change a node. A deployed
//! node drains on `SIGTERM` only.
//!
//! Retired tags are never reused: `StatusVerb` tag 3 (a drain verb),
//! `StatusEvent` tag 5 (a fault-plan change) and `StatusResponse` tags
//! 3 and 4 (that verb's answers) now fail to decode, which closes the
//! connection that sent them.


/// Version stamp of [`NodeSnapshot`]'s field set. Bump on any layout
/// change so pollers can reject snapshots they do not understand.
pub const SNAPSHOT_VERSION: u32 = 1;

/// What a STATUS connection asks of a node. Tag 3 is retired and
/// never reused.
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
}

/// A STATUS request frame: one verb per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusRequest {
    /// The requested action.
    pub verb: StatusVerb,
}

/// One entry of the bounded structured event journal — the typed
/// replacement for grepping stderr marker lines. Tag 5 is retired and
/// never reused.
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
    /// A drain was requested (`SIGTERM` on a socket node,
    /// `lockstep::Cluster::drain` in memory).
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

/// A node's answer to one [`StatusRequest`]. Tags 3 and 4 are retired
/// and never reused.
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
}

crate::wire_enum!(StatusVerb {
    1 => Snapshot {},
    2 => Events { since },
});

crate::wire_struct!(StatusRequest { verb });

crate::wire_enum!(StatusEvent {
    1 => ViewChange { view },
    2 => CheckpointSealed { seq },
    3 => CheckpointRestored { seq, agreeing_peers },
    4 => StateTransferApplied { messages, from_progress, to_progress },
    6 => DrainRequested {},
    7 => DrainCompleted {},
    8 => Recovered { replayed_events, checkpoint_seq },
});

crate::wire_struct!(NodeSnapshot {
    version,
    replica,
    progress,
    view,
    view_changes,
    pending_requests,
    fsyncs,
    wal_bytes,
    checkpoint_seals,
    reconnects,
    ring_refusals,
    bytes_in,
    bytes_out,
    queue_depth_high_water,
    shard_progress,
    shard_fsyncs,
    recovering,
    draining,
    drained,
    journal_head,
});

crate::wire_enum!(StatusResponse {
    1 => Snapshot { 0: snapshot },
    2 => Events { head, events },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{roundtrip, WireError};

    #[test]
    fn requests_roundtrip() {
        roundtrip(&StatusRequest { verb: StatusVerb::Snapshot });
        roundtrip(&StatusRequest { verb: StatusVerb::Events { since: 17 } });
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

    #[test]
    fn retired_tags_are_rejected() {
        assert!(matches!(
            crate::wire::decode::<StatusVerb>(&[3]),
            Err(WireError::InvalidTag { ty: "StatusVerb", tag: 3 })
        ));
        assert!(matches!(
            crate::wire::decode::<StatusEvent>(&[5]),
            Err(WireError::InvalidTag { ty: "StatusEvent", tag: 5 })
        ));
        for tag in [3, 4] {
            assert!(matches!(
                crate::wire::decode::<StatusResponse>(&[tag]),
                Err(WireError::InvalidTag { ty: "StatusResponse", .. })
            ));
        }
    }
}
