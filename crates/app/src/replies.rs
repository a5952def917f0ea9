//! The exactly-once reply cache and the canonical checkpoint state.
//!
//! Every replica that executes requests — the PBFT baseline, SplitBFT's
//! Execution compartment, the hybrid baseline — keeps the last reply it
//! sent each client: a retransmitted request is answered from the cache
//! instead of executing twice, and an older one is dropped. The cache is
//! part of the replicated state, so it travels inside every checkpoint
//! next to the application snapshot. [`ReplyCache`] is that cache and the
//! only encoder and decoder of the checkpoint-state format:
//!
//! ```text
//! u32 snapshot length ‖ snapshot ‖ Vec<(ClientId, Timestamp, result)>
//! ```
//!
//! The bytes must be **identical on every correct replica**, so a cached
//! reply is reduced to its replica-independent core `(client, timestamp,
//! result)`; the sender id, view and MAC are rebuilt by whoever restores.

use crate::Application;
use bytes::Bytes;
use splitbft_crypto::ClientMacKeys;
use splitbft_types::wire::{Decode, Encode, Reader, WireError};
use splitbft_types::{
    ClientId, ProtocolError, ReplicaId, Reply, Request, RequestId, Timestamp, View,
};
use std::collections::BTreeMap;

/// The replica-independent core of a cached reply, as checkpoints carry it.
type ReplyCore = (ClientId, Timestamp, Bytes);

/// What the cache knows about a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cached<'a> {
    /// Executed before, and it is the client's latest: re-send this reply.
    Resend(&'a Reply),
    /// Older than the client's latest executed request: drop it.
    Stale,
    /// Not executed yet.
    Fresh,
}

/// The last reply sent to each client.
#[derive(Debug, Clone, Default)]
pub struct ReplyCache {
    last_replies: BTreeMap<ClientId, Reply>,
}

impl ReplyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clients with a cached reply.
    pub fn len(&self) -> usize {
        self.last_replies.len()
    }

    /// `true` if no reply is cached.
    pub fn is_empty(&self) -> bool {
        self.last_replies.is_empty()
    }

    /// Classifies `request` against its client's latest executed one.
    pub fn lookup(&self, request: RequestId) -> Cached<'_> {
        match self.last_replies.get(&request.client) {
            Some(cached) if cached.request.timestamp == request.timestamp => Cached::Resend(cached),
            Some(cached) if cached.request.timestamp > request.timestamp => Cached::Stale,
            _ => Cached::Fresh,
        }
    }

    /// Admits a batch of client requests at a replica, the
    /// retransmission rule every stack shares: a request `verify`
    /// rejects is dropped; one already executed as its client's latest
    /// is answered again from the cache (clients rebroadcast after a
    /// timeout, and every replica re-sending is what completes the
    /// reply quorum when the first replies were lost); an older one is
    /// dropped; the rest come back, in order, as fresh for ordering.
    pub fn admit(
        &self,
        mut requests: Vec<Request>,
        mut verify: impl FnMut(&Request) -> bool,
    ) -> (Vec<Reply>, Vec<Request>) {
        let mut resends = Vec::new();
        requests.retain(|req| {
            if !verify(req) {
                return false;
            }
            match self.lookup(req.id) {
                Cached::Resend(reply) => {
                    resends.push(reply.clone());
                    false
                }
                Cached::Stale => false,
                Cached::Fresh => true,
            }
        });
        (resends, requests)
    }

    /// The latest executed request of every client, in client order.
    pub fn executed(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.last_replies.values().map(|reply| reply.request)
    }

    /// Caches `replica`'s reply to `request`, authenticated under the
    /// client's MAC key, and returns it for sending.
    pub fn record(
        &mut self,
        keys: &ClientMacKeys,
        view: View,
        replica: ReplicaId,
        request: RequestId,
        result: Bytes,
        encrypted: bool,
    ) -> Reply {
        let auth = keys.reply_tag(view, request, replica, &result, encrypted);
        let reply = Reply { view, request, replica, result, encrypted, auth };
        self.last_replies.insert(request.client, reply.clone());
        reply
    }

    /// The canonical checkpoint state: `snapshot` (the application's)
    /// followed by the replica-independent core of the cache.
    pub fn encode_state(&self, snapshot: &[u8]) -> Vec<u8> {
        let replies: Vec<ReplyCore> = self
            .last_replies
            .iter()
            .map(|(client, reply)| (*client, reply.request.timestamp, reply.result.clone()))
            .collect();
        // Sized exactly: a snapshot can be megabytes, and growing into it
        // would hold twice that.
        let mut state = Vec::with_capacity(4 + snapshot.len() + replies.encoded_len());
        (snapshot.len() as u32).encode_to(&mut state);
        state.extend_from_slice(snapshot);
        replies.encode_to(&mut state);
        state
    }

    /// Replaces `app`'s state and this cache from checkpoint-state bytes.
    /// The restored replies are re-authenticated as `replica`'s in `view`;
    /// a result that was a ciphertext is replayed verbatim and MACed as
    /// plain bytes.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptState`] if the bytes do not decode, carry
    /// trailing garbage, or the application rejects the snapshot. Nothing
    /// is replaced unless the whole state decodes.
    pub fn restore_state(
        &mut self,
        state: &[u8],
        app: &mut impl Application,
        keys: &ClientMacKeys,
        view: View,
        replica: ReplicaId,
    ) -> Result<(), ProtocolError> {
        let corrupt = |what: String| ProtocolError::CorruptState(what);
        let (snapshot, replies) =
            decode_state(state).map_err(|e| corrupt(format!("checkpoint state: {e}")))?;
        app.restore(snapshot).map_err(|e| corrupt(format!("snapshot restore failed: {e}")))?;
        self.last_replies.clear();
        for (client, timestamp, result) in replies {
            self.record(keys, view, replica, RequestId { client, timestamp }, result, false);
        }
        Ok(())
    }
}

/// Splits checkpoint-state bytes into the application snapshot and the
/// cached `(client, timestamp, result)` triples.
fn decode_state(state: &[u8]) -> Result<(&[u8], Vec<ReplyCore>), WireError> {
    let mut r = Reader::new(state);
    let len = u32::decode(&mut r)? as usize;
    let snapshot = r.take(len)?;
    let replies = Vec::decode(&mut r)?;
    match r.remaining() {
        0 => Ok((snapshot, replies)),
        trailing => Err(WireError::TrailingBytes(trailing)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CounterApp;
    use splitbft_crypto::client_mac_key;

    const SEED: u64 = 42;

    fn id(client: u32, timestamp: u64) -> RequestId {
        RequestId { client: ClientId(client), timestamp: Timestamp(timestamp) }
    }

    fn record(cache: &mut ReplyCache, request: RequestId, result: &'static [u8]) -> Reply {
        let keys = ClientMacKeys::new(SEED);
        cache.record(&keys, View(0), ReplicaId(0), request, Bytes::from_static(result), false)
    }

    #[test]
    fn equal_timestamp_resends_the_cached_reply() {
        let mut cache = ReplyCache::new();
        let sent = record(&mut cache, id(1, 5), b"five");
        assert_eq!(cache.lookup(id(1, 5)), Cached::Resend(&sent));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn older_timestamp_is_skipped_and_newer_is_fresh() {
        let mut cache = ReplyCache::new();
        record(&mut cache, id(1, 5), b"five");
        assert_eq!(cache.lookup(id(1, 4)), Cached::Stale);
        assert_eq!(cache.lookup(id(1, 6)), Cached::Fresh);
        assert_eq!(cache.lookup(id(2, 1)), Cached::Fresh, "another client has its own entry");
    }

    fn signed(client: u32, timestamp: u64) -> Request {
        let id = id(client, timestamp);
        let op = Bytes::from_static(b"inc");
        let auth = client_mac_key(SEED, id.client).request_tag(id, &op, false);
        Request { id, op, encrypted: false, auth }
    }

    #[test]
    fn admit_resends_the_latest_drops_stale_and_forged_and_keeps_fresh_in_order() {
        let mut cache = ReplyCache::new();
        let sent = record(&mut cache, id(1, 5), b"five");
        let mut forged = signed(3, 1);
        forged.auth[0] ^= 0xFF;
        let batch = vec![signed(2, 1), signed(1, 4), signed(1, 5), forged, signed(1, 6)];
        let mut keys = ClientMacKeys::new(SEED);
        let (resends, fresh) = cache.admit(batch, |req| keys.verify_request(req));
        assert_eq!(resends, vec![sent]);
        let fresh: Vec<RequestId> = fresh.iter().map(|req| req.id).collect();
        assert_eq!(fresh, vec![id(2, 1), id(1, 6)]);
    }

    #[test]
    fn restore_rejects_trailing_bytes_and_replaces_nothing() {
        let mut source = ReplyCache::new();
        record(&mut source, id(1, 5), b"five");
        let mut state = source.encode_state(&3u64.to_le_bytes());
        state.push(0);

        let mut cache = ReplyCache::new();
        record(&mut cache, id(9, 9), b"kept");
        let mut app = CounterApp::new();
        let keys = ClientMacKeys::new(SEED);
        let err = cache.restore_state(&state, &mut app, &keys, View(0), ReplicaId(0));
        assert!(matches!(err, Err(ProtocolError::CorruptState(_))), "{err:?}");
        assert_eq!(app.value(), 0);
        assert_eq!(cache.executed().collect::<Vec<_>>(), vec![id(9, 9)]);

        state.truncate(state.len() - 2);
        assert!(cache.restore_state(&state, &mut app, &keys, View(0), ReplicaId(0)).is_err());
    }

    #[test]
    fn restore_re_macs_under_the_restoring_replica_and_view() {
        let mut source = ReplyCache::new();
        record(&mut source, id(1, 5), b"five");
        record(&mut source, id(2, 8), b"eight");
        let state = source.encode_state(&7u64.to_le_bytes());

        let mut cache = ReplyCache::new();
        let mut app = CounterApp::new();
        let keys = ClientMacKeys::new(SEED);
        cache.restore_state(&state, &mut app, &keys, View(3), ReplicaId(2)).unwrap();
        assert_eq!(app.value(), 7);
        assert_eq!(cache.encode_state(&app.snapshot()), state, "restore then encode is the identity");

        let Cached::Resend(reply) = cache.lookup(id(2, 8)) else { panic!("restored entry") };
        assert_eq!((reply.view, reply.replica, reply.encrypted), (View(3), ReplicaId(2), false));
        let expected = client_mac_key(SEED, ClientId(2)).reply_tag(
            View(3),
            id(2, 8),
            ReplicaId(2),
            b"eight",
            false,
        );
        assert_eq!(reply.auth, expected);
    }
}
