//! Per-request reply-quorum tracking for pipelined clients.
//!
//! The protocol crates' client state machines (`PbftClient`,
//! `SplitBftClient`, `HybridClient`) are lock-step: one in-flight
//! request, `issue` panics otherwise. Pipelined load generation needs
//! the same acceptance rule — `f + 1` MAC-verified matching replies
//! from distinct replicas — but *per request*, many at a time. All
//! three protocols share that rule (they differ only in `n` and
//! therefore `f`), so one tracker serves every stack.

use bytes::Bytes;
use splitbft_crypto::hmac::ct_eq;
use splitbft_crypto::MacKey;
use splitbft_types::{ReplicaId, Reply};
use std::collections::BTreeMap;

/// Collects replies for one request until a quorum of matching results
/// from distinct replicas is reached.
#[derive(Debug, Clone)]
pub struct QuorumTracker {
    mac: MacKey,
    quorum: usize,
    replies: BTreeMap<ReplicaId, Bytes>,
}

impl QuorumTracker {
    /// A tracker accepting on `quorum` (`f + 1`) matching replies,
    /// verifying authenticity under the client's `mac` key.
    pub fn new(mac: MacKey, quorum: usize) -> Self {
        QuorumTracker { mac, quorum: quorum.max(1), replies: BTreeMap::new() }
    }

    /// Delivers one reply; returns the agreed result once `quorum`
    /// verified replies from distinct replicas match. Forged replies
    /// (bad MAC) are ignored; a replica re-sending overwrites its own
    /// earlier vote, so duplicates never double-count.
    pub fn on_reply(&mut self, reply: &Reply) -> Option<Bytes> {
        let expected = self.mac.reply_tag(reply.view, reply.request, reply.replica, &reply.result, reply.encrypted);
        if !ct_eq(&expected, &reply.auth) {
            return None;
        }
        self.replies.insert(reply.replica, reply.result.clone());

        let mut counts: BTreeMap<&[u8], usize> = BTreeMap::new();
        for result in self.replies.values() {
            let n = counts.entry(result.as_ref()).or_insert(0);
            *n += 1;
            if *n >= self.quorum {
                return Some(Bytes::copy_from_slice(result));
            }
        }
        None
    }
}

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
    use splitbft_crypto::client_mac_key;
    use splitbft_types::{ClientId, RequestId, Timestamp, View};

    const SEED: u64 = 11;

    fn reply(request: RequestId, replica: u32, result: &'static [u8], seed: u64) -> Reply {
        let mac = client_mac_key(seed, request.client);
        let result = Bytes::from_static(result);
        let auth =
            mac.reply_tag(View(0), request, ReplicaId(replica), &result, false);
        Reply { view: View(0), request, replica: ReplicaId(replica), result, encrypted: false, auth }
    }

    fn request_id() -> RequestId {
        RequestId { client: ClientId(5), timestamp: Timestamp(9) }
    }

    #[test]
    fn completes_on_quorum_of_matching() {
        let id = request_id();
        let mut t = QuorumTracker::new(client_mac_key(SEED, id.client), 2);
        assert_eq!(t.on_reply(&reply(id, 0, b"ok", SEED)), None);
        assert_eq!(t.on_reply(&reply(id, 1, b"ok", SEED)), Some(Bytes::from_static(b"ok")));
    }

    #[test]
    fn conflicting_results_need_matching_quorum() {
        let id = request_id();
        let mut t = QuorumTracker::new(client_mac_key(SEED, id.client), 2);
        assert_eq!(t.on_reply(&reply(id, 0, b"a", SEED)), None);
        assert_eq!(t.on_reply(&reply(id, 1, b"b", SEED)), None);
        assert_eq!(t.on_reply(&reply(id, 2, b"a", SEED)), Some(Bytes::from_static(b"a")));
    }

    #[test]
    fn duplicates_and_forgeries_do_not_count() {
        let id = request_id();
        let mut t = QuorumTracker::new(client_mac_key(SEED, id.client), 2);
        assert_eq!(t.on_reply(&reply(id, 0, b"ok", SEED)), None);
        // Same replica again: still one vote.
        assert_eq!(t.on_reply(&reply(id, 0, b"ok", SEED)), None);
        // MACed under the wrong key: ignored entirely.
        assert_eq!(t.on_reply(&reply(id, 1, b"ok", SEED + 1)), None);
        assert_eq!(t.on_reply(&reply(id, 1, b"ok", SEED)), Some(Bytes::from_static(b"ok")));
    }

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
