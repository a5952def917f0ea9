//! Per-request reply-quorum tracking for pipelined clients, and the
//! cross-client safety check built on it.
//!
//! The lock-step client (`splitbft_app::LockstepClient`) holds one
//! in-flight request. Pipelined load generation needs the same acceptance
//! rule — `f + 1` MAC-verified matching replies from distinct replicas —
//! but *per request*, many at a time: one [`QuorumTracker`] each. It is the
//! very type the lock-step client counts with, re-exported here because
//! every load generator and probe reaches for it through this crate.

pub use splitbft_app::QuorumTracker;
use std::collections::BTreeMap;

/// A cross-client commit log that turns quorum completions into a
/// *safety* check.
///
/// The counter application's `inc` returns the post-increment value, so
/// each committed `inc` observes a distinct execution-order slot: the
/// result bytes identify the slot. If two *different* requests each
/// reach an `f + 1` MAC-verified quorum claiming the same slot, two
/// divergent histories both executed that position — a consensus fork
/// observable at honest clients. Chaos probes share one `CommitLog`
/// across all their clients and record every completion; a
/// [`CommitConflict`] is the safety violation the paper's agreement
/// property forbids.
#[derive(Debug, Default)]
pub struct CommitLog {
    by_result: BTreeMap<Vec<u8>, splitbft_types::RequestId>,
}

/// Two distinct committed requests observed the same execution slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitConflict {
    /// The slot both requests claim (the agreed result bytes).
    pub result: Vec<u8>,
    /// The request that committed the slot first.
    pub first: splitbft_types::RequestId,
    /// The conflicting later request.
    pub second: splitbft_types::RequestId,
}

impl std::fmt::Display for CommitConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "safety violation: requests {:?} and {:?} both committed result {:02x?}",
            self.first, self.second, self.result
        )
    }
}

impl CommitLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one quorum-completed request. Re-recording the *same*
    /// request (client retransmission completing twice) is fine; a
    /// different request completing on an already-claimed slot is the
    /// fork.
    pub fn record(
        &mut self,
        request: splitbft_types::RequestId,
        result: &[u8],
    ) -> Result<(), CommitConflict> {
        match self.by_result.get(result) {
            Some(&first) if first != request => Err(CommitConflict {
                result: result.to_vec(),
                first,
                second: request,
            }),
            Some(_) => Ok(()),
            None => {
                self.by_result.insert(result.to_vec(), request);
                Ok(())
            }
        }
    }

    /// Distinct slots recorded so far.
    pub fn len(&self) -> usize {
        self.by_result.len()
    }

    /// `true` when nothing has committed yet.
    pub fn is_empty(&self) -> bool {
        self.by_result.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::{ClientId, RequestId, Timestamp};

    #[test]
    fn commit_log_flags_distinct_requests_on_one_slot() {
        let mut log = CommitLog::new();
        let a = RequestId { client: ClientId(1), timestamp: Timestamp(1) };
        let b = RequestId { client: ClientId(2), timestamp: Timestamp(1) };
        log.record(a, b"7").unwrap();
        // The same request completing again (retransmission) is benign.
        log.record(a, b"7").unwrap();
        // A different slot is benign.
        log.record(b, b"8").unwrap();
        assert_eq!(log.len(), 2);
        // A different request claiming a taken slot is the fork.
        let conflict = log.record(b, b"7").unwrap_err();
        assert_eq!(conflict.first, a);
        assert_eq!(conflict.second, b);
        assert_eq!(conflict.result, b"7".to_vec());
    }
}
