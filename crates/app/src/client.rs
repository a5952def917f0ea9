//! The client end of the replicated service: authenticated requests out,
//! a quorum of matching authenticated replies back.
//!
//! A client accepts a result only once enough replicas — `f + 1`, so at
//! least one of them correct — report the same bytes under a valid MAC.
//! The three stacks share that rule and differ only in `n`, hence in `f`:
//! [`QuorumTracker`] is the rule for one request, and [`Client`] is the
//! client of the paper's workload ("clients constantly issue synchronous
//! requests ... and measure the time it takes to collect the replies")
//! built on the same counting code.
//!
//! [`Client`] does no I/O and reads no clock. Each runtime — lock-step
//! tests and fault catalog, simulator, socket load generator,
//! `splitbft-node client` — sends what it returns, feeds it every reply
//! and passes `now` in its own unit (ns, virtual ns, timer periods).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use splitbft_crypto::hmac::ct_eq;
use splitbft_crypto::{client_mac_key, MacKey};
use splitbft_types::{ClientId, ReplicaId, Reply, Request, RequestId, Timestamp};
use std::collections::BTreeMap;

/// `true` if `reply` carries a valid MAC under the client's key `mac`.
fn authentic(mac: &MacKey, reply: &Reply) -> bool {
    let expected =
        mac.reply_tag(reply.view, reply.request, reply.replica, &reply.result, reply.encrypted);
    ct_eq(&expected, &reply.auth)
}

/// The replies one request collected: one vote per replica.
#[derive(Debug, Clone, Default)]
struct Votes(BTreeMap<ReplicaId, Bytes>);

impl Votes {
    /// Counts an authentic reply as its replica's vote; returns the
    /// result once `quorum` votes match.
    fn count(&mut self, reply: &Reply, quorum: usize) -> Option<Bytes> {
        self.0.insert(reply.replica, reply.result.clone());

        let mut counts: BTreeMap<&[u8], usize> = BTreeMap::new();
        for result in self.0.values() {
            let n = counts.entry(result.as_ref()).or_insert(0);
            *n += 1;
            if *n >= quorum {
                return Some(Bytes::copy_from_slice(result));
            }
        }
        None
    }
}

/// Collects replies for one request until a quorum of matching results
/// from distinct replicas is reached.
#[derive(Debug, Clone)]
pub struct QuorumTracker {
    mac: MacKey,
    quorum: usize,
    votes: Votes,
}

impl QuorumTracker {
    /// A tracker accepting on `quorum` (`f + 1`) matching replies,
    /// verifying authenticity under the client's `mac` key.
    pub fn new(mac: MacKey, quorum: usize) -> Self {
        QuorumTracker { mac, quorum: quorum.max(1), votes: Votes::default() }
    }

    /// Delivers one reply; returns the agreed result once `quorum`
    /// verified replies from distinct replicas match. Forged replies
    /// (bad MAC) are ignored; a replica re-sending overwrites its own
    /// earlier vote, so duplicates never double-count.
    pub fn on_reply(&mut self, reply: &Reply) -> Option<Bytes> {
        if !authentic(&self.mac, reply) {
            return None;
        }
        self.votes.count(reply, self.quorum)
    }
}

/// The outcome of delivering a reply to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// Still waiting for more matching replies.
    Pending,
    /// The operation completed with this result.
    Completed(Bytes),
    /// A reply quorum agreed on bytes a confidential client cannot
    /// decrypt — say, the no-op result of a request executed without
    /// its session key. They are no result of the operation sent.
    Undecryptable(Bytes),
    /// The reply was ignored (bad MAC, or not for a request in flight).
    Ignored,
}

/// A request its reply quorum completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The result `f + 1` replicas agreed on.
    pub result: Bytes,
    /// When it was issued, in the runtime's unit.
    pub issued_at: u64,
    /// The caller's tag, as given to [`Client::issue_at`].
    pub tag: u32,
}

/// One request awaiting its reply quorum.
#[derive(Debug)]
struct Flight {
    request: Request,
    issued_at: u64,
    last_sent: u64,
    votes: Votes,
    tag: u32,
}

/// The views authentic replies named, one entry per replica: the `f + 1`
/// highest per-replica views, so the table never holds more than `f + 1`
/// entries however many replica ids replies claim.
///
/// Its lowest entry, once it has `f + 1`, is the highest view that `f + 1`
/// distinct replicas named (or exceeded): no entry is above what its
/// replica named, and an entry leaves only when `f + 1` others are at
/// least as high.
#[derive(Debug, Clone, Default)]
struct NamedViews(Vec<(ReplicaId, u64)>);

impl NamedViews {
    /// Notes that `replica` named `view`; returns the highest view `quorum`
    /// distinct replicas have named, once there are that many.
    fn note(&mut self, replica: ReplicaId, view: u64, quorum: usize) -> Option<u64> {
        match self.0.iter_mut().find(|(named_by, _)| *named_by == replica) {
            Some((_, highest)) => *highest = (*highest).max(view),
            None => {
                self.0.push((replica, view));
                if self.0.len() > quorum {
                    if let Some(lowest) = (0..self.0.len()).min_by_key(|&i| self.0[i].1) {
                        self.0.swap_remove(lowest);
                    }
                }
            }
        }
        (self.0.len() >= quorum).then(|| self.0.iter().map(|(_, view)| *view).min()).flatten()
    }
}

/// The service client: up to `depth` requests in flight, each completing
/// on `f + 1` matching authentic replies, each due again for every
/// replica once `resend_after` passes without its quorum (the PBFT
/// client rule), and each first sent to the replica it believes leads:
/// the primary of a view `f + 1` distinct replicas named, so at least one
/// correct replica reached it.
///
/// Each request carries one caller tag, handed back on completion (the
/// load generator's shard).
#[derive(Debug)]
pub struct Client {
    id: ClientId,
    mac: MacKey,
    quorum: usize,
    depth: usize,
    resend_after: u64,
    next_timestamp: Timestamp,
    /// The highest view `f + 1` distinct replicas named in authentic
    /// replies to its requests.
    view: u64,
    /// What each replica named, for the rule above.
    named: NamedViews,
    flights: BTreeMap<Timestamp, Flight>,
}

impl Client {
    /// Creates client `id` of a cluster whose keys derive from
    /// `master_seed`, completing on `reply_quorum` (`f + 1`) matching
    /// replies: one request in flight, never due again.
    pub fn new(reply_quorum: usize, id: ClientId, master_seed: u64) -> Self {
        Client {
            id,
            mac: client_mac_key(master_seed, id),
            quorum: reply_quorum.max(1),
            depth: 1,
            resend_after: u64::MAX,
            next_timestamp: Timestamp(1),
            view: 0,
            named: NamedViews::default(),
            flights: BTreeMap::new(),
        }
    }

    /// Keeps up to `depth` requests in flight.
    #[must_use]
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth.max(1);
        self
    }

    /// Makes a request due again once `resend_after` units of the
    /// runtime's clock pass since it was last sent.
    #[must_use]
    pub fn resending_after(mut self, resend_after: u64) -> Self {
        self.resend_after = resend_after;
        self
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

    /// The id the next issued request will carry. A confidential client
    /// needs it first: the timestamp is its encryption nonce.
    pub fn next_request_id(&self) -> RequestId {
        RequestId { client: self.id, timestamp: self.next_timestamp }
    }

    /// Requests awaiting their reply quorum.
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// Requests it may issue before its pipeline is full.
    pub fn room(&self) -> usize {
        self.depth.saturating_sub(self.flights.len())
    }

    /// The replica a new request goes to in a cluster of `n`: the
    /// primary of the highest view that `f + 1` distinct replicas named in
    /// authentic replies. One faulty replica naming any view it likes
    /// moves nothing.
    pub fn primary(&self, n: usize) -> usize {
        (self.view % n.max(1) as u64) as usize
    }

    /// `true` if `reply` carries a valid MAC under this client's key.
    pub fn authentic(&self, reply: &Reply) -> bool {
        authentic(&self.mac, reply)
    }

    /// Issues a plaintext operation, copied from `op`, for a caller
    /// that keeps no clock.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline is full.
    pub fn issue(&mut self, op: impl AsRef<[u8]>) -> Request {
        self.issue_at(Bytes::copy_from_slice(op.as_ref()), false, 0, 0)
    }

    /// Builds and tracks the next request at `now`, for an operation
    /// the caller already encrypted (or not), authenticated as such.
    /// The caller sends it to [`Client::primary`].
    ///
    /// # Panics
    ///
    /// Panics if the pipeline is full — the closed-loop contract.
    pub fn issue_at(&mut self, op: Bytes, encrypted: bool, now: u64, tag: u32) -> Request {
        assert!(self.room() > 0, "client already has {} request(s) in flight", self.depth);
        let id = self.next_request_id();
        self.next_timestamp = self.next_timestamp.next();
        let auth = self.mac.request_tag(id, &op, encrypted);
        let request = Request { id, op, encrypted, auth };
        let flight = Flight {
            request: request.clone(),
            issued_at: now,
            last_sent: now,
            votes: Votes::default(),
            tag,
        };
        self.flights.insert(id.timestamp, flight);
        request
    }

    /// The requests due again at `now`, for every replica: each one in
    /// flight and last sent `resend_after` or more ago. Marks them sent.
    pub fn due(&mut self, now: u64) -> Vec<Request> {
        let resend_after = self.resend_after;
        self.flights
            .values_mut()
            .filter(|flight| now.saturating_sub(flight.last_sent) >= resend_after)
            .map(|flight| {
                flight.last_sent = now;
                flight.request.clone()
            })
            .collect()
    }

    /// When the next request falls due, if any is in flight.
    pub fn next_due(&self) -> Option<u64> {
        let last_sent = self.flights.values().map(|flight| flight.last_sent).min()?;
        Some(last_sent.saturating_add(self.resend_after))
    }

    /// Delivers one replica reply.
    pub fn on_reply(&mut self, reply: &Reply) -> ClientEvent {
        match self.vote(reply) {
            None => ClientEvent::Ignored,
            Some(None) => ClientEvent::Pending,
            Some(Some(done)) => ClientEvent::Completed(done.result),
        }
    }

    /// Delivers one replica reply; returns the whole request once it
    /// completes.
    pub fn complete(&mut self, reply: &Reply) -> Option<Completion> {
        self.vote(reply).flatten()
    }

    /// Counts `reply` as a vote: `None` if it is none (forged, or for
    /// no request in flight), then the completion if it is the last.
    fn vote(&mut self, reply: &Reply) -> Option<Option<Completion>> {
        let timestamp = reply.request.timestamp;
        let flight = self.flights.get_mut(&timestamp)?;
        if flight.request.id != reply.request || !authentic(&self.mac, reply) {
            return None;
        }
        if let Some(view) = self.named.note(reply.replica, reply.view.0, self.quorum) {
            self.view = self.view.max(view);
        }
        let Some(result) = flight.votes.count(reply, self.quorum) else {
            return Some(None);
        };
        let Flight { issued_at, tag, .. } = self.flights.remove(&timestamp)?;
        Some(Some(Completion { result, issued_at, tag }))
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

    fn reply_in(view: u64, id: RequestId, replica: u32, result: &'static [u8], seed: u64) -> Reply {
        let (view, replica, result) = (View(view), ReplicaId(replica), Bytes::from_static(result));
        let auth = client_mac_key(seed, id.client).reply_tag(view, id, replica, &result, false);
        Reply { view, request: id, replica, result, encrypted: false, auth }
    }

    fn reply(request: RequestId, replica: u32, result: &'static [u8], seed: u64) -> Reply {
        reply_in(0, request, replica, result, seed)
    }

    fn client(quorum: usize) -> Client {
        Client::new(quorum, ClientId(1), SEED)
    }

    #[test]
    fn completes_on_f_plus_1_matching_replies() {
        for (n, quorum) in SHAPES {
            let mut client = client(quorum);
            let req = client.issue(b"op");
            assert_eq!(client.in_flight(), 1);
            // A plaintext request the replicas can verify.
            assert!(!req.encrypted && &req.op[..] == b"op");
            let auth_bytes = Request::auth_bytes(req.id, &req.op, req.encrypted);
            assert!(client_mac_key(SEED, req.id.client).verify(&auth_bytes, &req.auth));

            assert_eq!(client.on_reply(&reply(req.id, n - 1, b"ok", SEED)), ClientEvent::Pending);
            assert_eq!(
                client.on_reply(&reply(req.id, 0, b"ok", SEED)),
                ClientEvent::Completed(Bytes::from_static(b"ok"))
            );
            assert_eq!(client.in_flight(), 0);
        }
    }

    #[test]
    fn conflicting_replies_do_not_complete() {
        for (_, quorum) in SHAPES {
            let mut client = client(quorum);
            let req = client.issue(b"op");
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
            let req = client.issue(b"op");
            assert_eq!(client.on_reply(&reply(req.id, 0, b"ok", SEED)), ClientEvent::Pending);
            assert_eq!(client.on_reply(&reply(req.id, 0, b"ok", SEED)), ClientEvent::Pending);
        }
    }

    #[test]
    fn forged_reply_ignored() {
        for (_, quorum) in SHAPES {
            let mut client = client(quorum);
            let req = client.issue(b"op");
            // MACed under the wrong key: the attacker does not know the
            // client's.
            let forged = reply(req.id, 0, b"evil", SEED + 1);
            assert_eq!(client.on_reply(&forged), ClientEvent::Ignored);
            assert!(!client.authentic(&forged));
            let mut zeroed = reply(req.id, 1, b"evil", SEED);
            zeroed.auth = [0; 32];
            assert_eq!(client.on_reply(&zeroed), ClientEvent::Ignored);
            assert!(client.authentic(&reply(req.id, 1, b"evil", SEED)));
        }
    }

    #[test]
    fn stale_reply_ignored() {
        for (_, quorum) in SHAPES {
            let mut client = client(quorum);
            let req1 = client.issue(b"op");
            client.on_reply(&reply(req1.id, 0, b"ok", SEED));
            client.on_reply(&reply(req1.id, 1, b"ok", SEED));
            // Request 2 in flight; a late reply for request 1 is ignored,
            // and request 1's votes do not count toward request 2.
            let req2 = client.issue(b"op2");
            assert_eq!(client.on_reply(&reply(req1.id, 2, b"ok", SEED)), ClientEvent::Ignored);
            assert_eq!(client.on_reply(&reply(req2.id, 2, b"ok", SEED)), ClientEvent::Pending);
        }
    }

    #[test]
    fn timestamps_increase() {
        for (_, quorum) in SHAPES {
            let mut client = client(quorum).with_depth(2).starting_at(Timestamp(100));
            let r1 = client.issue(b"a");
            let r2 = client.issue(b"b");
            assert_eq!(r1.id.timestamp, Timestamp(100));
            assert!(r2.id.timestamp > r1.id.timestamp);
        }
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn issuing_past_the_depth_panics() {
        let mut client = client(2);
        let _ = client.issue(b"a");
        let _ = client.issue(b"b");
    }

    #[test]
    fn requests_complete_out_of_order_at_depth() {
        for (n, quorum) in SHAPES {
            let mut client = client(quorum).with_depth(3);
            let reqs: Vec<Request> =
                (0..3).map(|i| client.issue_at(Bytes::new(), false, i.into(), i)).collect();
            assert_eq!(client.room(), 0);
            // The last one completes first, handing back its issue time
            // and tag; the others stay in flight.
            assert_eq!(client.complete(&reply(reqs[2].id, 0, b"c", SEED)), None);
            let done = client.complete(&reply(reqs[2].id, n - 1, b"c", SEED)).unwrap();
            assert_eq!((done.result, done.issued_at, done.tag), (Bytes::from_static(b"c"), 2, 2));
            assert_eq!((client.in_flight(), client.room()), (2, 1));
            // A vote for one request is no vote for another.
            assert_eq!(client.on_reply(&reply(reqs[0].id, 1, b"a", SEED)), ClientEvent::Pending);
            assert_eq!(client.on_reply(&reply(reqs[1].id, 1, b"a", SEED)), ClientEvent::Pending);
            assert_eq!(
                client.on_reply(&reply(reqs[0].id, 2, b"a", SEED)),
                ClientEvent::Completed(Bytes::from_static(b"a"))
            );
            assert_eq!(client.in_flight(), 1);
        }
    }

    #[test]
    fn a_stale_request_falls_due_for_every_replica() {
        for (n, quorum) in SHAPES {
            let mut client = client(quorum).with_depth(2).resending_after(5);
            let first = client.issue_at(Bytes::from_static(b"a"), false, 0, 0);
            let second = client.issue_at(Bytes::from_static(b"b"), false, 3, 0);
            assert!(client.due(4).is_empty());
            assert_eq!(client.next_due(), Some(5));
            assert_eq!(client.due(5), vec![first.clone()]);
            // Sent again at 5: the next round falls due at 8 (the
            // second request) and 10 (the first).
            assert_eq!(client.next_due(), Some(8));
            assert_eq!(client.due(9), vec![second.clone()]);
            assert_eq!(client.due(10), vec![first.clone()]);
            // A completed request is never due again.
            client.on_reply(&reply(first.id, 0, b"ok", SEED));
            client.on_reply(&reply(first.id, n - 1, b"ok", SEED));
            assert_eq!(client.due(100), vec![second]);
        }
        // Without a resend period nothing is ever due.
        let mut client = client(2);
        client.issue(b"a");
        assert!(client.due(u64::MAX - 1).is_empty());
    }

    #[test]
    fn the_primary_moves_with_the_view_authentic_replies_name() {
        for (n, quorum) in SHAPES {
            let mut client = client(quorum).with_depth(2);
            assert_eq!(client.primary(n as usize), 0);
            let first = client.issue(b"a");
            let second = client.issue(b"b");
            // Forged replies naming a later view move nothing.
            client.on_reply(&reply_in(5, first.id, 1, b"ok", SEED + 1));
            client.on_reply(&reply_in(5, first.id, 2, b"ok", SEED + 1));
            assert_eq!(client.primary(n as usize), 0);
            // Authentic ones from f + 1 replicas do, even before the
            // request completes, and across requests.
            client.on_reply(&reply_in(1, first.id, 1, b"ok", SEED));
            client.on_reply(&reply_in(1, second.id, 2, b"other", SEED));
            assert_eq!(client.primary(n as usize), 1);
            // An older view named later does not move it back.
            client.on_reply(&reply_in(0, second.id, 0, b"ok", SEED));
            client.on_reply(&reply_in(0, second.id, 1, b"ok", SEED));
            assert_eq!(client.primary(n as usize), 1);
            // The view adopted is the highest that f + 1 named or exceeded.
            let third = client.issue(b"c");
            client.on_reply(&reply_in(n as u64 + 2, third.id, 0, b"ok", SEED));
            client.on_reply(&reply_in(n as u64 + 9, third.id, 2, b"ok", SEED));
            assert_eq!(client.primary(n as usize), 2);
        }
    }

    #[test]
    fn f_replicas_naming_a_high_view_move_nothing_and_f_plus_1_do() {
        for (n, quorum) in SHAPES {
            let f = quorum - 1;
            for view in [3, 5, u64::MAX] {
                let mut client = client(quorum).with_depth(2);
                let req = client.issue(b"op");
                // f faulty replicas, each naming the view more than once.
                for replica in 0..f as u32 {
                    for _ in 0..3 {
                        client.on_reply(&reply_in(view, req.id, n - 1 - replica, b"x", SEED));
                    }
                }
                // Replies from the others naming the current view.
                client.on_reply(&reply_in(0, req.id, 0, b"ok", SEED));
                assert_eq!(client.primary(n as usize), 0, "f replicas named view {view}");
                // One more replica naming it makes f + 1.
                let next = client.issue(b"op2");
                client.on_reply(&reply_in(view, next.id, 0, b"ok", SEED));
                let expected = (view % u64::from(n)) as usize;
                assert_eq!(client.primary(n as usize), expected, "f + 1 replicas named view {view}");
            }
        }
    }

    #[test]
    fn replies_claiming_many_replica_ids_keep_the_view_table_at_f_plus_1() {
        for (n, quorum) in SHAPES {
            let mut client = client(quorum);
            let req = client.issue(b"op");
            let key = client_mac_key(SEED, req.id.client);
            for replica in (0..1_000).map(ReplicaId) {
                // Every result differs, so the request never completes.
                let (view, result) = (View(u64::from(replica.0 % 7)), Bytes::from(replica.0.to_le_bytes().to_vec()));
                let auth = key.reply_tag(view, req.id, replica, &result, false);
                client.on_reply(&Reply { view, request: req.id, replica, result, encrypted: false, auth });
            }
            assert_eq!(client.in_flight(), 1);
            assert_eq!(client.named.0.len(), quorum);
            // 6 is the highest view at least f + 1 of those ids named.
            assert_eq!(client.primary(n as usize), (6 % n) as usize);
        }
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
