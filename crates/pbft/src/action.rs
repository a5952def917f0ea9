//! Outputs of the sans-I/O protocol cores.
//!
//! A replica state machine never touches sockets or clocks; every handler
//! returns a list of [`Action`]s for the surrounding runtime (socket
//! runtime or in-memory lockstep cluster) to interpret. This
//! is what lets one protocol implementation serve examples, benchmarks and
//! verification alike.

use bytes::Bytes;
use splitbft_types::{
    ClientId, ConsensusMessage, Digest, ReplicaId, Reply, RequestId, SeqNum, View,
};

/// An effect requested by a protocol state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send a protocol message to one replica.
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The message.
        msg: ConsensusMessage,
    },
    /// Send a protocol message to every *other* replica. The sender's own
    /// copy is always processed internally before the action is emitted,
    /// so runtimes must not loop it back.
    Broadcast {
        /// The message.
        msg: ConsensusMessage,
    },
    /// Deliver an execution result to a client.
    SendReply {
        /// Destination client.
        to: ClientId,
        /// The reply (authenticated, possibly encrypted).
        reply: Reply,
    },
    /// Persist an application blob (e.g. a sealed blockchain block) to
    /// untrusted storage. In SplitBFT this surfaces as an ocall.
    Persist {
        /// The blob.
        blob: Bytes,
    },
    /// Observability: a batch committed at this sequence number.
    CommittedBatch {
        /// The slot.
        seq: SeqNum,
        /// Digest of the committed batch.
        digest: Digest,
    },
    /// Observability: one request finished executing.
    Executed {
        /// The slot it was ordered in.
        seq: SeqNum,
        /// The request.
        request: RequestId,
    },
    /// Observability: the checkpoint at `seq` became stable and the log
    /// was garbage-collected up to it.
    StableCheckpoint {
        /// The now-stable sequence number.
        seq: SeqNum,
    },
    /// Observability: the replica moved to a new view.
    EnteredView {
        /// The new view.
        view: View,
    },
}

impl Action {
    /// Convenience: the contained consensus message, if this is a
    /// `Send`/`Broadcast`.
    pub fn message(&self) -> Option<&ConsensusMessage> {
        match self {
            Action::Send { msg, .. } | Action::Broadcast { msg } => Some(msg),
            _ => None,
        }
    }
}

/// Filters the broadcast/send messages out of an action list — a helper
/// used pervasively in tests and runtimes.
pub fn outbound(actions: &[Action]) -> Vec<&ConsensusMessage> {
    actions.iter().filter_map(Action::message).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_extraction() {
        let a = Action::StableCheckpoint { seq: SeqNum(5) };
        assert!(a.message().is_none());
        assert!(outbound(&[a]).is_empty());
    }
}
