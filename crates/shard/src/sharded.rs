//! The [`Sharded`] combinator: N independent consensus groups behind
//! one [`Protocol`] facade.
//!
//! Each inner instance is a complete replica of its own group — its own
//! view, primary succession, sequence space, and (when stacked over
//! `splitbft-store`'s `DurableProtocol`) its own WAL and sealed
//! checkpoints. The combinator's only jobs are *routing* (client
//! requests go to the shard that owns their key, peer messages to the
//! shard named in their [`ShardEnvelope`]) and *tagging* (every output
//! a shard produces is wrapped back into an envelope naming it), so the
//! hosting runtime multiplexes all groups over its existing connections
//! without knowing sharding exists.
//!
//! [`ShardMember`] is the stacking shim for durable deployments: it
//! sits *inside* each shard's `DurableProtocol` and writes one
//! [`DurableEvent::ShardTag`] near the head of the shard's WAL, so a
//! recovered `shard-<s>/` directory self-identifies instead of silently
//! replaying into the wrong group.

use crate::router::ShardRouter;
use splitbft_crypto::digest_bytes;
use splitbft_net::transport::{Protocol, ProtocolGauges, ProtocolOutput};
use splitbft_types::wire::{decode, encode};
use splitbft_types::{
    Digest, DurableCheckpoint, DurableEvent, ProtocolError, Request, SeqNum, ShardEnvelope,
    ShardId,
};
use bytes::Bytes;

/// Hosts one protocol instance per shard behind the [`Protocol`] trait.
///
/// The wire vocabulary becomes [`ShardEnvelope`]`<P::Message>`: every
/// peer message names its group, and the combinator demultiplexes
/// before the inner handler runs. A sharded node is therefore *not*
/// wire-compatible with an unsharded one — which is why the node plane
/// only wraps when `shards > 1`, keeping `--shards 1` byte-identical to
/// the pre-sharding deployment.
pub struct Sharded<P: Protocol> {
    router: ShardRouter,
    shards: Vec<P>,
    /// Per-shard progress observed at the previous timeout, so a timer
    /// expiry only fires into the groups that actually stalled — a
    /// healthy shard committing at full rate must not churn views
    /// because its neighbor's primary died.
    progress_at_last_timeout: Vec<u64>,
}

impl<P: Protocol> Sharded<P> {
    /// Builds the combinator from one constructed instance per shard.
    ///
    /// # Panics
    ///
    /// When `instances` is empty or its length disagrees with the
    /// router's shard count — both are construction bugs, not runtime
    /// conditions.
    pub fn new(router: ShardRouter, instances: Vec<P>) -> Self {
        assert!(!instances.is_empty(), "a sharded node needs at least one shard");
        assert_eq!(
            instances.len(),
            router.shards() as usize,
            "router shard count must match the instance count"
        );
        let progress = instances.iter().map(Protocol::progress).collect();
        Sharded { router, shards: instances, progress_at_last_timeout: progress }
    }

    /// The router this node routes with.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Wraps one shard's outputs back into envelopes naming it.
    fn tag(
        shard: ShardId,
        outputs: Vec<ProtocolOutput<P::Message>>,
    ) -> Vec<ProtocolOutput<ShardEnvelope<P::Message>>> {
        outputs
            .into_iter()
            .map(|output| match output {
                ProtocolOutput::Broadcast(msg) => {
                    ProtocolOutput::Broadcast(ShardEnvelope::new(shard, msg))
                }
                ProtocolOutput::Send { to, msg } => {
                    ProtocolOutput::Send { to, msg: ShardEnvelope::new(shard, msg) }
                }
                ProtocolOutput::Reply { to, reply } => ProtocolOutput::Reply { to, reply },
            })
            .collect()
    }
}

impl<P: Protocol> Protocol for Sharded<P> {
    type Message = ShardEnvelope<P::Message>;

    fn on_message(&mut self, msg: Self::Message) -> Vec<ProtocolOutput<Self::Message>> {
        let shard = msg.shard;
        match self.shards.get_mut(shard.as_usize()) {
            Some(instance) => Self::tag(shard, instance.on_message(msg.msg)),
            // A peer claiming a shard this node does not host is either
            // misconfigured or malicious; dropping the message is the
            // same defense every protocol applies to garbage input.
            None => Vec::new(),
        }
    }

    fn on_client_requests(
        &mut self,
        requests: Vec<Request>,
    ) -> Vec<ProtocolOutput<Self::Message>> {
        // Group per shard, preserving arrival order within each group.
        // The router's range equals the instance count (asserted in
        // `new`), so an out-of-range shard here is a routing bug that
        // must panic, not be absorbed by some arbitrary shard.
        let mut grouped: Vec<Vec<Request>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for request in requests {
            let shard = self.router.route_request(&request);
            grouped[shard.as_usize()].push(request);
        }
        let mut outputs = Vec::new();
        for (index, batch) in grouped.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let shard = ShardId(index as u32);
            outputs.extend(Self::tag(shard, self.shards[index].on_client_requests(batch)));
        }
        outputs
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<Self::Message>> {
        let mut outputs = Vec::new();
        for (index, instance) in self.shards.iter_mut().enumerate() {
            let progress = instance.progress();
            let stalled = progress == self.progress_at_last_timeout[index];
            self.progress_at_last_timeout[index] = progress;
            // Only stalled groups with work outstanding fail over;
            // advancing groups keep their primary.
            if stalled && instance.has_pending_requests() {
                outputs.extend(Self::tag(ShardId(index as u32), instance.on_timeout()));
            }
        }
        outputs
    }

    fn progress(&self) -> u64 {
        self.shards.iter().map(Protocol::progress).sum()
    }

    fn has_pending_requests(&self) -> bool {
        self.shards.iter().any(Protocol::has_pending_requests)
    }

    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        // Durable stacking puts the WAL *inside* each shard
        // (`DurableProtocol<ShardMember<..>>`), which persists its own
        // events; this drain only matters if someone stacks an outer
        // WAL over the combinator, and then it must see everything.
        self.shards.iter_mut().flat_map(Protocol::drain_durable_events).collect()
    }

    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        let inner: Vec<(ShardId, Option<DurableCheckpoint>)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, instance)| (ShardId(index as u32), instance.durable_checkpoint()))
            .collect();
        if inner.iter().all(|(_, cp)| cp.is_none()) {
            return None;
        }
        let seq = composite_seq(&inner);
        let digest = composite_digest(&inner);
        Some(DurableCheckpoint { seq, digest, state: Bytes::from(encode(&inner)) })
    }

    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        let inner: Vec<(ShardId, Option<DurableCheckpoint>)> = decode(&cp.state)
            .map_err(|e| ProtocolError::Other(format!("bad composite checkpoint: {e}")))?;
        if composite_digest(&inner) != cp.digest || composite_seq(&inner) != cp.seq {
            return Err(ProtocolError::Other(
                "composite checkpoint digest does not cover its parts".into(),
            ));
        }
        for (shard, part) in &inner {
            let Some(part) = part else { continue };
            let instance = self.shards.get_mut(shard.as_usize()).ok_or_else(|| {
                ProtocolError::Other(format!("checkpoint names unknown shard {shard}"))
            })?;
            instance.restore_checkpoint(part)?;
        }
        Ok(())
    }

    fn catch_up_messages(&self, _have_seq: SeqNum) -> Vec<Self::Message> {
        // A single `have_seq` cannot express per-shard progress, so each
        // group serves its full retained suffix (everything above its
        // own stable checkpoint) and the receiver's inner replicas
        // deduplicate — the same re-verified idempotent path any
        // network input takes.
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(index, instance)| {
                let shard = ShardId(index as u32);
                instance
                    .catch_up_messages(SeqNum::zero())
                    .into_iter()
                    .map(move |msg| ShardEnvelope::new(shard, msg))
            })
            .collect()
    }

    fn flush_durable(&mut self) -> Vec<ProtocolOutput<Self::Message>> {
        let mut outputs = Vec::new();
        for (index, instance) in self.shards.iter_mut().enumerate() {
            outputs.extend(Self::tag(ShardId(index as u32), instance.flush_durable()));
        }
        outputs
    }

    fn durable_fsyncs(&self) -> u64 {
        self.shards.iter().map(Protocol::durable_fsyncs).sum()
    }

    fn probe_gauges(&self, gauges: &mut ProtocolGauges) {
        // One group per instance, in shard order; the scalars sum.
        self.shards.iter().for_each(|instance| instance.probe_gauges(gauges));
    }

    fn drain_seal(&mut self) -> Vec<ProtocolOutput<Self::Message>> {
        let mut outputs = Vec::new();
        for (index, instance) in self.shards.iter_mut().enumerate() {
            outputs.extend(Self::tag(ShardId(index as u32), instance.drain_seal()));
        }
        outputs
    }
}

/// The composite sequence number: the sum of the member checkpoints'
/// sequence numbers. Monotone in every member, so the runtime's "seal
/// when the checkpoint seq advances" trigger still fires whenever any
/// shard seals.
fn composite_seq(parts: &[(ShardId, Option<DurableCheckpoint>)]) -> SeqNum {
    SeqNum(parts.iter().filter_map(|(_, cp)| cp.as_ref().map(|c| c.seq.0)).sum())
}

/// Replica-independent digest over the members' `(shard, seq, digest)`
/// triples. Correct replicas that sealed the same per-shard checkpoints
/// compute the same composite, so the `f + 1` agreement rule of peer
/// state transfer carries over unchanged.
///
/// This must be the workspace's cryptographic hash, not an ad-hoc
/// mixer: `f + 1` peers agreeing on `(seq, digest)` is only worth `f`
/// Byzantine peers if a forged parts vector colliding with the honest
/// composite is as hard as a hash collision. The preimage is a
/// sequence of fixed-width fields, so it is injective in the parts.
fn composite_digest(parts: &[(ShardId, Option<DurableCheckpoint>)]) -> Digest {
    let mut preimage = Vec::with_capacity(parts.len() * 44);
    for (shard, cp) in parts {
        let Some(cp) = cp else { continue };
        preimage.extend_from_slice(&shard.0.to_le_bytes());
        preimage.extend_from_slice(&cp.seq.0.to_le_bytes());
        preimage.extend_from_slice(cp.digest.as_bytes());
    }
    digest_bytes(&preimage)
}

/// The WAL-identity shim for durable sharded stacks: delegates every
/// hook to the inner protocol and injects one
/// [`DurableEvent::ShardTag`] ahead of the first real WAL append, so
/// each `shard-<s>/` log names the group it belongs to. On replay the
/// tag is verified instead of forwarded; a mismatch means an operator
/// pointed a shard at another shard's directory, and the member then
/// **refuses to replay any further event** from the foreign log — a
/// replica must never merge another group's history and silently
/// diverge from its peers. Hosts check
/// [`ShardMember::wal_identity_mismatch`] after recovery and fail
/// startup on `Some`.
pub struct ShardMember<P: Protocol> {
    inner: P,
    shard: ShardId,
    tag_recorded: bool,
    /// The foreign shard a replayed tag named, if any. While set, all
    /// replay is refused.
    mismatched_tag: Option<ShardId>,
}

impl<P: Protocol> ShardMember<P> {
    /// Wraps `inner` as the member for `shard`.
    pub fn new(shard: ShardId, inner: P) -> Self {
        ShardMember { inner, shard, tag_recorded: false, mismatched_tag: None }
    }

    /// The wrapped protocol instance.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The shard this member belongs to.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// `Some(foreign)` when WAL replay hit a [`DurableEvent::ShardTag`]
    /// naming another group — the directory this member recovered from
    /// belongs to shard `foreign`, and every event after the tag was
    /// dropped rather than merged. Hosts must treat this as a fatal
    /// miswiring instead of serving the partially-recovered replica.
    pub fn wal_identity_mismatch(&self) -> Option<ShardId> {
        self.mismatched_tag
    }
}

impl<P: Protocol> Protocol for ShardMember<P> {
    type Message = P::Message;

    fn on_message(&mut self, msg: Self::Message) -> Vec<ProtocolOutput<Self::Message>> {
        self.inner.on_message(msg)
    }

    fn on_client_requests(
        &mut self,
        requests: Vec<Request>,
    ) -> Vec<ProtocolOutput<Self::Message>> {
        self.inner.on_client_requests(requests)
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<Self::Message>> {
        self.inner.on_timeout()
    }

    fn progress(&self) -> u64 {
        self.inner.progress()
    }

    fn has_pending_requests(&self) -> bool {
        self.inner.has_pending_requests()
    }

    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        let mut events = self.inner.drain_durable_events();
        if !self.tag_recorded && !events.is_empty() {
            // Lazily, with the first real append: the recovery path
            // discards anything drained before it owns the log, so an
            // eager tag at construction would never reach disk.
            events.insert(0, DurableEvent::ShardTag { shard: self.shard });
            self.tag_recorded = true;
        }
        events
    }

    fn replay_durable_event(&mut self, event: DurableEvent) {
        if self.mismatched_tag.is_some() {
            // A foreign log must not replay into this group: everything
            // after the mismatched tag is dropped, and the host fails
            // recovery via `wal_identity_mismatch`.
            return;
        }
        if let DurableEvent::ShardTag { shard } = event {
            if shard != self.shard {
                self.mismatched_tag = Some(shard);
                eprintln!(
                    "shard {}: WAL identifies itself as {} — this directory is MISWIRED; \
                     refusing to replay another group's log",
                    self.shard, shard
                );
                return;
            }
            self.tag_recorded = true;
            return;
        }
        self.inner.replay_durable_event(event);
    }

    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        self.inner.durable_checkpoint()
    }

    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        self.inner.restore_checkpoint(cp)
    }

    fn catch_up_messages(&self, have_seq: SeqNum) -> Vec<Self::Message> {
        self.inner.catch_up_messages(have_seq)
    }

    fn flush_durable(&mut self) -> Vec<ProtocolOutput<Self::Message>> {
        self.inner.flush_durable()
    }

    fn durable_fsyncs(&self) -> u64 {
        self.inner.durable_fsyncs()
    }

    fn probe_gauges(&self, gauges: &mut ProtocolGauges) {
        self.inner.probe_gauges(gauges);
    }

    fn drain_seal(&mut self) -> Vec<ProtocolOutput<Self::Message>> {
        self.inner.drain_seal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_app::kvs::{KeyValueStore, KvOp};
    use splitbft_pbft::{make_request, Replica as PbftReplica};
    use splitbft_types::{shard_for_key, ClientId, ClusterConfig, ReplicaId, Timestamp};

    const SEED: u64 = 42;
    const N: usize = 4;
    const SHARDS: u32 = 2;

    type Node = Sharded<PbftReplica<KeyValueStore>>;

    fn cluster() -> Vec<Node> {
        (0..N as u32)
            .map(|id| {
                let instances = (0..SHARDS)
                    .map(|_| {
                        PbftReplica::new(
                            ClusterConfig::new(N).unwrap(),
                            ReplicaId(id),
                            SEED,
                            KeyValueStore::new(),
                        )
                    })
                    .collect();
                Sharded::new(ShardRouter::new(SHARDS, true), instances)
            })
            .collect()
    }

    /// Routes outputs among the nodes until quiescent, returning every
    /// reply produced.
    fn settle(
        nodes: &mut [Node],
        mut pending: Vec<(usize, ProtocolOutput<<Node as Protocol>::Message>)>,
    ) -> Vec<(ClientId, splitbft_types::Reply)> {
        let mut replies = Vec::new();
        let mut budget = 10_000usize;
        while let Some((from, output)) = pending.pop() {
            assert!(budget > 0, "message routing did not quiesce");
            budget -= 1;
            match output {
                ProtocolOutput::Broadcast(msg) => {
                    for (to, node) in nodes.iter_mut().enumerate() {
                        if to != from {
                            for out in node.on_message(msg.clone()) {
                                pending.push((to, out));
                            }
                        }
                    }
                }
                ProtocolOutput::Send { to, msg } => {
                    if to.as_usize() != from {
                        for out in nodes[to.as_usize()].on_message(msg) {
                            pending.push((to.as_usize(), out));
                        }
                    }
                }
                ProtocolOutput::Reply { to, reply } => replies.push((to, reply)),
            }
        }
        replies
    }

    #[test]
    fn two_shards_commit_independently_over_one_message_plane() {
        let mut nodes = cluster();
        // One key per shard (found by the shared hash).
        let mut keys: Vec<String> = Vec::new();
        'outer: for i in 0..64u32 {
            let key = format!("key{i:08}");
            let shard = shard_for_key(key.as_bytes(), SHARDS);
            if keys.iter().all(|k| shard_for_key(k.as_bytes(), SHARDS) != shard) {
                keys.push(key);
                if keys.len() == SHARDS as usize {
                    break 'outer;
                }
            }
        }
        assert_eq!(keys.len(), 2, "need one key on each shard");

        let mut pending = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let request = make_request(
                SEED,
                ClientId(1),
                Timestamp(1 + i as u64),
                KvOp::put(key.as_bytes(), b"value").encode_op(),
            );
            // Clients submit at the primary (replica 0 in view 0).
            for output in nodes[0].on_client_requests(vec![request]) {
                pending.push((0usize, output));
            }
        }
        let replies = settle(&mut nodes, pending);
        assert!(
            replies.len() >= 2 * 2, // f+1 = 2 matching replies per request
            "expected reply quorums for both shards, got {}",
            replies.len()
        );
        // Both shards advanced: per-shard progress is 1 commit each,
        // and the facade sums them.
        let mut gauges = ProtocolGauges::default();
        for node in &nodes {
            gauges.clear();
            node.probe_gauges(&mut gauges);
            assert_eq!(gauges.shard_progress, vec![1, 1]);
            assert_eq!(gauges.shard_views, vec![0, 0]);
            assert_eq!(node.progress(), 2);
        }
    }

    #[test]
    fn messages_for_unknown_shards_are_dropped() {
        let mut nodes = cluster();
        let request = make_request(
            SEED,
            ClientId(1),
            Timestamp(1),
            KvOp::put(b"k", b"v").encode_op(),
        );
        let outputs = nodes[0].on_client_requests(vec![request]);
        let Some(ProtocolOutput::Broadcast(envelope)) = outputs.first() else {
            panic!("primary must broadcast a pre-prepare");
        };
        let forged = ShardEnvelope::new(ShardId(99), envelope.msg.clone());
        assert!(nodes[1].on_message(forged).is_empty());
    }

    #[test]
    fn composite_checkpoint_roundtrips_through_restore() {
        let nodes = cluster();
        // All shards at genesis: no checkpoint at all.
        assert!(nodes[0].durable_checkpoint().is_none());

        // A synthetic composite must be rejected when its digest lies.
        let mut target = cluster().remove(0);
        let parts: Vec<(ShardId, Option<DurableCheckpoint>)> = vec![
            (ShardId(0), None),
            (
                ShardId(1),
                Some(DurableCheckpoint {
                    seq: SeqNum(8),
                    digest: Digest::from_bytes([7u8; 32]),
                    state: Bytes::from_static(b"opaque"),
                }),
            ),
        ];
        let honest = DurableCheckpoint {
            seq: composite_seq(&parts),
            digest: composite_digest(&parts),
            state: Bytes::from(encode(&parts)),
        };
        let forged = DurableCheckpoint { digest: Digest::from_bytes([0xAA; 32]), ..honest.clone() };
        assert!(target.restore_checkpoint(&forged).is_err(), "digest mismatch must fail");
        // The honest composite reaches the inner shard, whose own
        // validation then inspects the opaque bytes (and rejects these
        // synthetic ones — proving dispatch happened).
        assert!(target.restore_checkpoint(&honest).is_err());
    }

    #[test]
    fn composite_digest_is_order_and_content_sensitive() {
        let cp = |seq: u64, fill: u8| DurableCheckpoint {
            seq: SeqNum(seq),
            digest: Digest::from_bytes([fill; 32]),
            state: Bytes::new(),
        };
        let a = vec![(ShardId(0), Some(cp(4, 1))), (ShardId(1), Some(cp(8, 2)))];
        let b = vec![(ShardId(0), Some(cp(8, 2))), (ShardId(1), Some(cp(4, 1)))];
        assert_ne!(composite_digest(&a), composite_digest(&b));
        assert_eq!(composite_digest(&a), composite_digest(&a.clone()));
        assert_eq!(composite_seq(&a), SeqNum(12));
    }

    #[test]
    fn shard_member_tags_its_first_wal_append() {
        let inner = PbftReplica::new(
            ClusterConfig::new(N).unwrap(),
            ReplicaId(0),
            SEED,
            KeyValueStore::new(),
        );
        let mut member = ShardMember::new(ShardId(1), inner);
        // Nothing buffered yet: the discard-drain of recovery sees no
        // events and must not burn the tag.
        assert!(member.drain_durable_events().is_empty());

        let request =
            make_request(SEED, ClientId(1), Timestamp(1), KvOp::put(b"k", b"v").encode_op());
        member.on_client_requests(vec![request]);
        let events = member.drain_durable_events();
        assert_eq!(
            events.first(),
            Some(&DurableEvent::ShardTag { shard: ShardId(1) }),
            "first persisted drain must lead with the shard tag"
        );
        assert!(events.len() > 1, "the real events follow the tag");
        // Once on disk, never again.
        member.on_timeout();
        assert!(!member
            .drain_durable_events()
            .iter()
            .any(|e| matches!(e, DurableEvent::ShardTag { .. })));
    }

    #[test]
    fn shard_member_accepts_its_own_tag_on_replay() {
        let inner = PbftReplica::new(
            ClusterConfig::new(N).unwrap(),
            ReplicaId(0),
            SEED,
            KeyValueStore::new(),
        );
        let mut member = ShardMember::new(ShardId(0), inner);
        member.replay_durable_event(DurableEvent::ShardTag { shard: ShardId(0) });
        let request =
            make_request(SEED, ClientId(1), Timestamp(1), KvOp::put(b"k", b"v").encode_op());
        member.on_client_requests(vec![request]);
        assert!(
            !member
                .drain_durable_events()
                .iter()
                .any(|e| matches!(e, DurableEvent::ShardTag { .. })),
            "a replayed tag must not be re-written"
        );
    }

    #[test]
    fn shard_member_refuses_to_replay_a_foreign_log() {
        use splitbft_types::View;

        let inner = PbftReplica::new(
            ClusterConfig::new(N).unwrap(),
            ReplicaId(0),
            SEED,
            KeyValueStore::new(),
        );
        let mut member = ShardMember::new(ShardId(0), inner);
        assert_eq!(member.wal_identity_mismatch(), None);

        member.replay_durable_event(DurableEvent::ShardTag { shard: ShardId(2) });
        assert_eq!(
            member.wal_identity_mismatch(),
            Some(ShardId(2)),
            "a foreign tag must poison the member"
        );

        // Everything after the foreign tag is another group's history:
        // none of it may reach the inner replica.
        member.replay_durable_event(DurableEvent::EnteredView { view: View(7) });
        assert_eq!(
            member.inner().view(),
            View(0),
            "events replayed after a foreign tag must be dropped"
        );
    }
}
