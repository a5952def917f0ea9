//! Closed-loop client workloads.
//!
//! "Clients constantly issue synchronous requests in all our measurements
//! and measure the time it takes to collect the replies." Unbatched runs
//! give every client one outstanding request; the batched experiment
//! "allows each client to have 40 outstanding requests in parallel."

use crate::Ns;
use bytes::Bytes;
use splitbft_app::{KvOp, QuorumTracker};
use splitbft_crypto::client_mac_key;
use splitbft_pbft::make_request;
use splitbft_types::{ClientId, ClusterConfig, Reply, Request, Timestamp};
use std::collections::HashMap;

/// Which application the workload targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// The key-value store: PUT operations updating entries.
    Kvs,
    /// The blockchain: opaque transactions batched into blocks of five.
    Blockchain,
}

/// A closed-loop client with a fixed number of outstanding slots.
#[derive(Debug)]
pub struct SimClient {
    id: ClientId,
    master_seed: u64,
    app: AppKind,
    payload: usize,
    next_ts: u64,
    /// An empty tally of reply votes under this client's MAC key.
    no_votes: QuorumTracker,
    /// Each in-flight request's issue time and reply votes.
    in_flight: HashMap<Timestamp, (Ns, QuorumTracker)>,
}

impl SimClient {
    /// Creates client `index` of the workload.
    pub fn new(
        config: &ClusterConfig,
        index: usize,
        master_seed: u64,
        app: AppKind,
        payload: usize,
    ) -> Self {
        SimClient {
            id: ClientId(index as u32),
            master_seed,
            app,
            payload,
            next_ts: 1,
            no_votes: QuorumTracker::new(
                client_mac_key(master_seed, ClientId(index as u32)),
                config.reply_quorum(),
            ),
            in_flight: HashMap::new(),
        }
    }

    /// Requests currently awaiting their reply quorum.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    fn op_bytes(&self, ts: u64) -> Bytes {
        match self.app {
            // "Our throughput and latency measurements evaluate a PUT
            // operation that updates the entries": each client hammers
            // its own key with a payload-sized value.
            AppKind::Kvs => {
                let key = self.id.0.to_le_bytes();
                let value = vec![(ts % 251) as u8; self.payload];
                KvOp::put(&key, &value).encode_op()
            }
            // Blockchain transactions are opaque payload bytes.
            AppKind::Blockchain => {
                let mut tx = vec![(ts % 251) as u8; self.payload.max(1)];
                tx[0] = self.id.0 as u8; // non-empty, client-tagged
                Bytes::from(tx)
            }
        }
    }

    /// Issues the next request at virtual time `now`.
    pub fn issue(&mut self, now: Ns) -> Request {
        let ts = Timestamp(self.next_ts);
        self.next_ts += 1;
        self.in_flight.insert(ts, (now, self.no_votes.clone()));
        make_request(self.master_seed, self.id, ts, self.op_bytes(ts.0))
    }

    /// Delivers one reply; returns the request latency once a reply
    /// quorum of authentic, matching results completes it.
    pub fn on_reply(&mut self, now: Ns, reply: &Reply) -> Option<Ns> {
        let (_, votes) = self.in_flight.get_mut(&reply.request.timestamp)?;
        votes.on_reply(reply)?;
        let (issued_at, _) = self.in_flight.remove(&reply.request.timestamp)?;
        Some(now - issued_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::{ReplicaId, RequestId, View};

    fn cfg() -> ClusterConfig {
        ClusterConfig::new(4).unwrap()
    }

    /// Replica `replica`'s reply to `request`, MAC'd as the replicas do.
    fn reply(seed: u64, request: RequestId, replica: u32, result: &'static [u8]) -> Reply {
        let replica = ReplicaId(replica);
        let auth = client_mac_key(seed, request.client).reply_tag(
            View(0),
            request,
            replica,
            result,
            false,
        );
        Reply {
            view: View(0),
            request,
            replica,
            result: Bytes::from_static(result),
            encrypted: false,
            auth,
        }
    }

    #[test]
    fn multiple_outstanding_requests_tracked_independently() {
        let c = cfg();
        let mut client = SimClient::new(&c, 0, 1, AppKind::Blockchain, 10);
        let r1 = client.issue(0);
        let r2 = client.issue(10);
        assert_eq!(client.outstanding(), 2);
        assert_ne!(r1.id.timestamp, r2.id.timestamp);
        assert_eq!(client.on_reply(20, &reply(1, r2.id, 0, b"x")), None);
        // A reply MAC'd under another seed's key is no vote.
        assert_eq!(client.on_reply(25, &reply(2, r2.id, 1, b"x")), None);
        assert_eq!(client.on_reply(30, &reply(1, r2.id, 1, b"x")), Some(20));
        assert_eq!(client.outstanding(), 1);
    }

    #[test]
    fn requests_are_authentic() {
        // The real replicas will verify these MACs, so the workload must
        // produce verifiable requests.
        let c = cfg();
        let mut client = SimClient::new(&c, 3, 77, AppKind::Kvs, 10);
        let req = client.issue(0);
        let key = client_mac_key(77, req.client());
        assert!(key.verify(&Request::auth_bytes(req.id, &req.op, req.encrypted), &req.auth));
    }
}
