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
//!
//! A checkpoint does not keep those bytes. It keeps a
//! [`CheckpointState`]: a clone of the application frozen at the
//! checkpoint (sharing every `Bytes` value with the live state) beside
//! the cache's cores, which *encodes* to the format above. A digest
//! streams that encoding into SHA-256; the bytes themselves exist only
//! while a checkpoint is sealed to disk or sent to a lagging peer.

use crate::{Application, Snapshot};
use bytes::Bytes;
use splitbft_crypto::{digest_of, ClientMacKeys};
use splitbft_types::wire::{Decode, Encode, Reader, Sink, WireError};
use splitbft_types::{
    ClientId, Digest, ProtocolError, ReplicaId, Reply, Request, RequestId, Timestamp, View,
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

    /// The replica-independent cores of the cached replies, in client
    /// order.
    fn cores(&self) -> impl ExactSizeIterator<Item = (&ClientId, &Timestamp, &Bytes)> {
        self.last_replies.iter().map(|(client, reply)| (client, &reply.request.timestamp, &reply.result))
    }

    /// The canonical checkpoint state: `snapshot` (an application's, as
    /// bytes) followed by the replica-independent core of the cache.
    pub fn encode_state(&self, snapshot: &[u8]) -> Vec<u8> {
        StateOf { snapshot: RawSnapshot(snapshot), replies: self }.to_wire()
    }

    /// Digest of the canonical checkpoint state of `app` and this cache,
    /// streamed into SHA-256: no byte of the state is materialised.
    pub fn state_digest(&self, app: &impl Application) -> Digest {
        digest_of(&StateOf { snapshot: Snapshot(app), replies: self })
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

/// The one writer of the checkpoint-state format: `u32` snapshot length
/// (counted by a pass that copies nothing), the snapshot, then the reply
/// cores as the `Vec<(ClientId, Timestamp, Bytes)>` they decode as.
fn write_state<'r, S: Sink>(
    snapshot: &impl Encode,
    replies: impl ExactSizeIterator<Item = (&'r ClientId, &'r Timestamp, &'r Bytes)>,
    out: &mut S,
) {
    (snapshot.encoded_len() as u32).encode_to(out);
    snapshot.encode_to(out);
    (replies.len() as u32).encode_to(out);
    for (client, timestamp, result) in replies {
        client.encode_to(out);
        timestamp.encode_to(out);
        result.encode_to(out);
    }
}

/// Snapshot bytes already encoded, written as they are.
struct RawSnapshot<'a>(&'a [u8]);

impl Encode for RawSnapshot<'_> {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        out.put(self.0);
    }
}

/// A snapshot and a live cache, borrowed, as they would be checkpointed.
struct StateOf<'a, P> {
    snapshot: P,
    replies: &'a ReplyCache,
}

impl<P: Encode> Encode for StateOf<'_, P> {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        write_state(&self.snapshot, self.replies.cores(), out);
    }
}

/// The checkpoint state frozen at one sequence number: a clone of the
/// application and the cores of the reply cache. The clone shares every
/// `Bytes` value with the live state, so holding one costs the
/// application's containers, not its data — except that a value the live
/// state overwrites stays alive here until this checkpoint is dropped,
/// which bounds the extra memory by one copy of the state.
///
/// It [encodes](Encode) to exactly the bytes
/// [`ReplyCache::encode_state`] builds from the application's snapshot,
/// so its digest (`digest_of`, which streams the encoding into SHA-256)
/// is the checkpoint digest every stack votes on, and the bytes it writes
/// are what a checkpoint seal or a state transfer carries.
#[derive(Debug, Clone)]
pub struct CheckpointState<A> {
    app: A,
    replies: Vec<ReplyCore>,
}

impl<A: Application> CheckpointState<A> {
    /// Freezes the current state of `app` and `replies`.
    pub fn capture(app: &A, replies: &ReplyCache) -> Self {
        let replies = replies
            .cores()
            .map(|(client, timestamp, result)| (*client, *timestamp, result.clone()))
            .collect();
        CheckpointState { app: app.clone(), replies }
    }
}

impl<A: Application> Encode for CheckpointState<A> {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        let replies = self.replies.iter().map(|(client, timestamp, result)| (client, timestamp, result));
        write_state(&Snapshot(&self.app), replies, out);
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

    /// The frozen state writes the bytes `encode_state` builds from the
    /// application's snapshot, and digests them, for every application.
    fn frozen_state_encodes_as_the_snapshot_bytes<A: Application>(mut app: A, ops: &[&[u8]]) {
        let mut cache = ReplyCache::new();
        for (ts, op) in (1..).zip(ops) {
            let result = app.execute(op);
            let keys = ClientMacKeys::new(SEED);
            cache.record(&keys, View(0), ReplicaId(0), id(ts as u32 % 3, ts), result, false);
        }
        let bytes = cache.encode_state(&app.snapshot());
        let frozen = CheckpointState::capture(&app, &cache);
        assert_eq!(frozen.to_wire(), bytes);
        assert_eq!(frozen.encoded_len(), bytes.len());
        assert_eq!(digest_of(&frozen), splitbft_crypto::digest_bytes(&bytes));
        assert_eq!(cache.state_digest(&app), digest_of(&frozen));

        // Later execution moves the live state, never the frozen one.
        app.execute(ops[0]);
        record(&mut cache, id(7, 99), b"later");
        assert_eq!(frozen.to_wire(), bytes);
        assert_ne!(cache.state_digest(&app), digest_of(&frozen));
    }

    #[test]
    fn a_frozen_state_encodes_as_the_snapshot_bytes_of_every_app() {
        use crate::{Blockchain, KeyValueStore, KvOp};
        let (put, del) = (KvOp::put(b"k", b"v").encode_op(), KvOp::delete(b"k").encode_op());
        let put2 = KvOp::put(b"other", &[7; 300]).encode_op();
        frozen_state_encodes_as_the_snapshot_bytes(KeyValueStore::new(), &[&put, &put2, &del, &put]);
        frozen_state_encodes_as_the_snapshot_bytes(CounterApp::new(), &[b"inc", b"inc", b"read"]);
        let txs: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; 10]).collect();
        let txs: Vec<&[u8]> = txs.iter().map(Vec::as_slice).collect();
        frozen_state_encodes_as_the_snapshot_bytes(Blockchain::new(), &txs);
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
