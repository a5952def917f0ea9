//! The client end of the replicated service: authenticated requests out,
//! a quorum of matching authenticated replies back.
//!
//! A client accepts a result only once enough replicas — `f + 1`, so at
//! least one of them correct — report the same bytes under a valid MAC.
//! The three stacks share that rule and differ only in `n`, hence in `f`:
//! [`QuorumTracker`] is the rule for one request, and [`LockstepClient`]
//! is the closed-loop client of the paper's workload ("clients constantly
//! issue synchronous requests ... and measure the time it takes to collect
//! the replies") built on it, parameterised by the reply quorum.

use bytes::Bytes;
use splitbft_crypto::hmac::ct_eq;
use splitbft_crypto::{client_mac_key, MacKey};
use splitbft_types::{ClientId, ReplicaId, Reply, Request, RequestId, Timestamp};
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
        if !self.authentic(reply) {
            return None;
        }
        self.count(reply)
    }

    /// `true` if `reply` carries a valid MAC under the client's key.
    fn authentic(&self, reply: &Reply) -> bool {
        let expected = self.mac.reply_tag(
            reply.view,
            reply.request,
            reply.replica,
            &reply.result,
            reply.encrypted,
        );
        ct_eq(&expected, &reply.auth)
    }

    /// Counts an authentic reply as its replica's vote.
    fn count(&mut self, reply: &Reply) -> Option<Bytes> {
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

    /// Forgets every vote, ready for the next request.
    fn clear(&mut self) {
        self.replies.clear();
    }
}

/// The outcome of delivering a reply to a [`LockstepClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// Still waiting for more matching replies.
    Pending,
    /// The operation completed with this result.
    Completed(Bytes),
    /// The reply was ignored (bad MAC, or not for the in-flight request).
    Ignored,
}

/// A closed-loop service client: one request in flight at a time.
#[derive(Debug)]
pub struct LockstepClient {
    id: ClientId,
    next_timestamp: Timestamp,
    in_flight: Option<RequestId>,
    /// The in-flight request's votes; also holds the client's MAC key.
    votes: QuorumTracker,
}

impl LockstepClient {
    /// Creates client `id` of a cluster whose keys derive from
    /// `master_seed`, completing on `reply_quorum` (`f + 1`) matching
    /// replies.
    pub fn new(reply_quorum: usize, id: ClientId, master_seed: u64) -> Self {
        LockstepClient {
            id,
            next_timestamp: Timestamp(1),
            in_flight: None,
            votes: QuorumTracker::new(client_mac_key(master_seed, id), reply_quorum),
        }
    }

    /// Resumes this client identity at `timestamp`. Replicas suppress
    /// duplicates by each client's last-seen timestamp, so a *new
    /// session* of a previously-used client id must start above every
    /// timestamp it ever issued — deployed clients use wall-clock time.
    #[must_use]
    pub fn starting_at(mut self, timestamp: Timestamp) -> Self {
        self.next_timestamp = timestamp;
        self
    }

    /// This client's identifier.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// `true` if a request is awaiting its reply quorum.
    pub fn has_in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// The id the next issued request will carry. A confidential client
    /// needs it first: the timestamp is its encryption nonce.
    pub fn next_request_id(&self) -> RequestId {
        RequestId { client: self.id, timestamp: self.next_timestamp }
    }

    /// Builds and tracks the next request, with a plaintext operation.
    ///
    /// # Panics
    ///
    /// Panics if a request is still in flight — the closed-loop contract.
    pub fn issue(&mut self, op: Bytes) -> Request {
        self.issue_payload(op, false)
    }

    /// [`LockstepClient::issue`] for a payload the caller already
    /// encrypted (or not), authenticated as such.
    ///
    /// # Panics
    ///
    /// Panics if a request is still in flight.
    pub fn issue_payload(&mut self, op: Bytes, encrypted: bool) -> Request {
        assert!(self.in_flight.is_none(), "client already has a request in flight");
        let id = self.next_request_id();
        self.next_timestamp = self.next_timestamp.next();
        let auth = self.votes.mac.request_tag(id, &op, encrypted);
        self.votes.clear();
        self.in_flight = Some(id);
        Request { id, op, encrypted, auth }
    }

    /// Delivers one replica reply.
    pub fn on_reply(&mut self, reply: &Reply) -> ClientEvent {
        if self.in_flight != Some(reply.request) || !self.votes.authentic(reply) {
            return ClientEvent::Ignored;
        }
        match self.votes.count(reply) {
            Some(result) => {
                self.in_flight = None;
                ClientEvent::Completed(result)
            }
            None => ClientEvent::Pending,
        }
    }

    /// Abandons the in-flight request (client-side timeout path; runtimes
    /// that retransmit simply re-send the same request instead).
    pub fn abort_in_flight(&mut self) {
        self.in_flight = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::View;

    const SEED: u64 = 7;

    /// The two deployed shapes: PBFT/SplitBFT at `n = 3f + 1 = 4` and the
    /// hybrid at `n = 2f + 1 = 3`, both `f = 1`, so both accept on two.
    const SHAPES: [(u32, usize); 2] = [(4, 2), (3, 2)];

    fn reply(request: RequestId, replica: u32, result: &'static [u8], seed: u64) -> Reply {
        let mac = client_mac_key(seed, request.client);
        let result = Bytes::from_static(result);
        let auth = mac.reply_tag(View(0), request, ReplicaId(replica), &result, false);
        Reply { view: View(0), request, replica: ReplicaId(replica), result, encrypted: false, auth }
    }

    fn client(quorum: usize) -> LockstepClient {
        LockstepClient::new(quorum, ClientId(1), SEED)
    }

    #[test]
    fn completes_on_f_plus_1_matching_replies() {
        for (n, quorum) in SHAPES {
            let mut client = client(quorum);
            let req = client.issue(Bytes::from_static(b"op"));
            assert!(client.has_in_flight());

            assert_eq!(client.on_reply(&reply(req.id, n - 1, b"ok", SEED)), ClientEvent::Pending);
            assert_eq!(
                client.on_reply(&reply(req.id, 0, b"ok", SEED)),
                ClientEvent::Completed(Bytes::from_static(b"ok"))
            );
            assert!(!client.has_in_flight());
        }
    }

    #[test]
    fn conflicting_replies_do_not_complete() {
        for (_, quorum) in SHAPES {
            let mut client = client(quorum);
            let req = client.issue(Bytes::from_static(b"op"));
            assert_eq!(client.on_reply(&reply(req.id, 0, b"a", SEED)), ClientEvent::Pending);
            assert_eq!(client.on_reply(&reply(req.id, 1, b"b", SEED)), ClientEvent::Pending);
            // A third, matching one of them, completes.
            assert_eq!(
                client.on_reply(&reply(req.id, 2, b"a", SEED)),
                ClientEvent::Completed(Bytes::from_static(b"a"))
            );
        }
    }

    #[test]
    fn duplicate_replica_counts_once() {
        for (_, quorum) in SHAPES {
            let mut client = client(quorum);
            let req = client.issue(Bytes::from_static(b"op"));
            assert_eq!(client.on_reply(&reply(req.id, 0, b"ok", SEED)), ClientEvent::Pending);
            assert_eq!(client.on_reply(&reply(req.id, 0, b"ok", SEED)), ClientEvent::Pending);
        }
    }

    #[test]
    fn forged_reply_ignored() {
        for (_, quorum) in SHAPES {
            let mut client = client(quorum);
            let req = client.issue(Bytes::from_static(b"op"));
            // MACed under the wrong key: the attacker does not know the
            // client's.
            let forged = reply(req.id, 0, b"evil", SEED + 1);
            assert_eq!(client.on_reply(&forged), ClientEvent::Ignored);
            let mut zeroed = reply(req.id, 1, b"evil", SEED);
            zeroed.auth = [0; 32];
            assert_eq!(client.on_reply(&zeroed), ClientEvent::Ignored);
        }
    }

    #[test]
    fn stale_reply_ignored() {
        for (_, quorum) in SHAPES {
            let mut client = client(quorum);
            let req1 = client.issue(Bytes::from_static(b"op"));
            client.on_reply(&reply(req1.id, 0, b"ok", SEED));
            client.on_reply(&reply(req1.id, 1, b"ok", SEED));
            // Request 2 in flight; a late reply for request 1 is ignored,
            // and request 1's votes do not count toward request 2.
            let req2 = client.issue(Bytes::from_static(b"op2"));
            assert_eq!(client.on_reply(&reply(req1.id, 2, b"ok", SEED)), ClientEvent::Ignored);
            assert_eq!(client.on_reply(&reply(req2.id, 2, b"ok", SEED)), ClientEvent::Pending);
        }
    }

    #[test]
    fn timestamps_increase() {
        for (_, quorum) in SHAPES {
            let mut client = client(quorum).starting_at(Timestamp(100));
            let r1 = client.issue(Bytes::from_static(b"a"));
            client.abort_in_flight();
            let r2 = client.issue(Bytes::from_static(b"b"));
            assert_eq!(r1.id.timestamp, Timestamp(100));
            assert!(r2.id.timestamp > r1.id.timestamp);
        }
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn double_issue_panics() {
        let mut client = client(2);
        let _ = client.issue(Bytes::from_static(b"a"));
        let _ = client.issue(Bytes::from_static(b"b"));
    }

    fn request_id() -> RequestId {
        RequestId { client: ClientId(5), timestamp: Timestamp(9) }
    }

    #[test]
    fn tracker_completes_on_quorum_of_matching() {
        let id = request_id();
        let mut t = QuorumTracker::new(client_mac_key(SEED, id.client), 2);
        assert_eq!(t.on_reply(&reply(id, 0, b"ok", SEED)), None);
        assert_eq!(t.on_reply(&reply(id, 1, b"ok", SEED)), Some(Bytes::from_static(b"ok")));
    }

    #[test]
    fn tracker_needs_a_matching_quorum_among_conflicting_results() {
        let id = request_id();
        let mut t = QuorumTracker::new(client_mac_key(SEED, id.client), 2);
        assert_eq!(t.on_reply(&reply(id, 0, b"a", SEED)), None);
        assert_eq!(t.on_reply(&reply(id, 1, b"b", SEED)), None);
        assert_eq!(t.on_reply(&reply(id, 2, b"a", SEED)), Some(Bytes::from_static(b"a")));
    }

    #[test]
    fn tracker_ignores_duplicates_and_forgeries() {
        let id = request_id();
        let mut t = QuorumTracker::new(client_mac_key(SEED, id.client), 2);
        assert_eq!(t.on_reply(&reply(id, 0, b"ok", SEED)), None);
        // Same replica again: still one vote.
        assert_eq!(t.on_reply(&reply(id, 0, b"ok", SEED)), None);
        // MACed under the wrong key: ignored entirely.
        assert_eq!(t.on_reply(&reply(id, 1, b"ok", SEED + 1)), None);
        assert_eq!(t.on_reply(&reply(id, 1, b"ok", SEED)), Some(Bytes::from_static(b"ok")));
    }
}
