//! The client-side protocol: issue authenticated requests, collect
//! `f + 1` matching replies.
//!
//! PBFT clients accept a result only once `f + 1` replicas — at least one
//! of them correct — report the same value. The paper's workload
//! ("clients constantly issue synchronous requests ... and measure the
//! time it takes to collect the replies") is a closed loop over this state
//! machine.

use splitbft_crypto::{client_mac_key, MacKey};
use splitbft_types::{
    ClientId, ClusterConfig, Reply, ReplicaId, Request, RequestId, Timestamp,
};
use std::collections::BTreeMap;

/// The outcome of delivering a reply to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// Still waiting for more matching replies.
    Pending,
    /// The operation completed with this result.
    Completed(bytes::Bytes),
    /// The reply was ignored (bad MAC, wrong request, duplicate sender).
    Ignored,
}

/// A PBFT service client.
#[derive(Debug)]
pub struct PbftClient {
    id: ClientId,
    mac: MacKey,
    config: ClusterConfig,
    next_timestamp: Timestamp,
    in_flight: Option<InFlight>,
}

#[derive(Debug)]
struct InFlight {
    request: RequestId,
    /// result bytes keyed by replying replica.
    replies: BTreeMap<ReplicaId, bytes::Bytes>,
}

impl PbftClient {
    /// Creates client `id` against a cluster whose keys derive from
    /// `master_seed`.
    pub fn new(config: ClusterConfig, id: ClientId, master_seed: u64) -> Self {
        PbftClient {
            id,
            mac: client_mac_key(master_seed, id),
            config,
            next_timestamp: Timestamp(1),
            in_flight: None,
        }
    }


    /// Resumes this client identity at `timestamp`. Replicas suppress
    /// duplicates by each client's last-seen timestamp, so a *new
    /// session* of a previously-used client id must start above every
    /// timestamp it ever issued — deployed clients use wall-clock time.
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

    /// The in-flight request id, if any (used by runtimes to key timers).
    pub fn in_flight_request(&self) -> Option<RequestId> {
        self.in_flight.as_ref().map(|f| f.request)
    }

    /// Builds and tracks the next request. Synchronous clients call this
    /// only after the previous call completed.
    ///
    /// # Panics
    ///
    /// Panics if a request is still in flight — the closed-loop contract.
    pub fn issue(&mut self, op: bytes::Bytes) -> Request {
        assert!(self.in_flight.is_none(), "client already has a request in flight");
        let id = RequestId { client: self.id, timestamp: self.next_timestamp };
        self.next_timestamp = self.next_timestamp.next();
        let auth = self.mac.request_tag(id, &op, false);
        self.in_flight = Some(InFlight { request: id, replies: BTreeMap::new() });
        Request { id, op, encrypted: false, auth }
    }

    /// Delivers one replica reply.
    pub fn on_reply(&mut self, reply: &Reply) -> ClientEvent {
        let Some(flight) = self.in_flight.as_mut() else {
            return ClientEvent::Ignored;
        };
        if reply.request != flight.request {
            return ClientEvent::Ignored;
        }
        let expected = self.mac.reply_tag(reply.view, reply.request, reply.replica, &reply.result, reply.encrypted);
        if !splitbft_crypto::hmac::ct_eq(&expected, &reply.auth) {
            return ClientEvent::Ignored;
        }
        flight.replies.insert(reply.replica, reply.result.clone());

        // f + 1 matching results from distinct replicas complete the call.
        let mut counts: BTreeMap<&[u8], usize> = BTreeMap::new();
        for result in flight.replies.values() {
            *counts.entry(result.as_ref()).or_insert(0) += 1;
        }
        let quorum = self.config.reply_quorum();
        if let Some((&result, _)) = counts.iter().find(|(_, &n)| n >= quorum) {
            let result = bytes::Bytes::copy_from_slice(result);
            self.in_flight = None;
            return ClientEvent::Completed(result);
        }
        ClientEvent::Pending
    }

    /// Abandons the in-flight request (used after a client-side timeout,
    /// before re-issuing with the same timestamp via broadcast — our
    /// runtimes simply re-send).
    pub fn abort_in_flight(&mut self) {
        self.in_flight = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use splitbft_types::View;

    const SEED: u64 = 7;

    fn cfg() -> ClusterConfig {
        ClusterConfig::new(4).unwrap()
    }

    fn reply_for(request: RequestId, replica: u32, result: &'static [u8], seed: u64) -> Reply {
        let mac = client_mac_key(seed, request.client);
        let result = Bytes::from_static(result);
        let auth = mac.reply_tag(View(0), request, ReplicaId(replica), &result, false);
        Reply { view: View(0), request, replica: ReplicaId(replica), result, encrypted: false, auth }
    }

    #[test]
    fn completes_on_f_plus_1_matching_replies() {
        let mut client = PbftClient::new(cfg(), ClientId(1), SEED);
        let req = client.issue(Bytes::from_static(b"op"));
        assert!(client.has_in_flight());

        assert_eq!(client.on_reply(&reply_for(req.id, 0, b"ok", SEED)), ClientEvent::Pending);
        assert_eq!(
            client.on_reply(&reply_for(req.id, 1, b"ok", SEED)),
            ClientEvent::Completed(Bytes::from_static(b"ok"))
        );
        assert!(!client.has_in_flight());
    }

    #[test]
    fn conflicting_replies_do_not_complete() {
        let mut client = PbftClient::new(cfg(), ClientId(1), SEED);
        let req = client.issue(Bytes::from_static(b"op"));
        assert_eq!(client.on_reply(&reply_for(req.id, 0, b"a", SEED)), ClientEvent::Pending);
        assert_eq!(client.on_reply(&reply_for(req.id, 1, b"b", SEED)), ClientEvent::Pending);
        // A third, matching one of them, completes.
        assert_eq!(
            client.on_reply(&reply_for(req.id, 2, b"a", SEED)),
            ClientEvent::Completed(Bytes::from_static(b"a"))
        );
    }

    #[test]
    fn duplicate_replica_counts_once() {
        let mut client = PbftClient::new(cfg(), ClientId(1), SEED);
        let req = client.issue(Bytes::from_static(b"op"));
        assert_eq!(client.on_reply(&reply_for(req.id, 0, b"ok", SEED)), ClientEvent::Pending);
        assert_eq!(client.on_reply(&reply_for(req.id, 0, b"ok", SEED)), ClientEvent::Pending);
    }

    #[test]
    fn forged_reply_ignored() {
        let mut client = PbftClient::new(cfg(), ClientId(1), SEED);
        let req = client.issue(Bytes::from_static(b"op"));
        // A reply MACed under the wrong key (attacker does not know the
        // client key).
        let forged = reply_for(req.id, 0, b"evil", SEED + 1);
        assert_eq!(client.on_reply(&forged), ClientEvent::Ignored);
    }

    #[test]
    fn stale_reply_ignored() {
        let mut client = PbftClient::new(cfg(), ClientId(1), SEED);
        let req1 = client.issue(Bytes::from_static(b"op"));
        client.on_reply(&reply_for(req1.id, 0, b"ok", SEED));
        client.on_reply(&reply_for(req1.id, 1, b"ok", SEED));
        // Request 2 in flight; a late reply for request 1 is ignored.
        let _req2 = client.issue(Bytes::from_static(b"op2"));
        assert_eq!(client.on_reply(&reply_for(req1.id, 2, b"ok", SEED)), ClientEvent::Ignored);
    }

    #[test]
    fn timestamps_increase() {
        let mut client = PbftClient::new(cfg(), ClientId(1), SEED);
        let r1 = client.issue(Bytes::from_static(b"a"));
        client.abort_in_flight();
        let r2 = client.issue(Bytes::from_static(b"b"));
        assert!(r2.id.timestamp > r1.id.timestamp);
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn double_issue_panics() {
        let mut client = PbftClient::new(cfg(), ClientId(1), SEED);
        let _ = client.issue(Bytes::from_static(b"a"));
        let _ = client.issue(Bytes::from_static(b"b"));
    }
}
