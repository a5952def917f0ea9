//! HMAC-SHA-256 (RFC 2104).
//!
//! The paper authenticates client requests and replies with HMAC-SHA2,
//! reserving (slower) signatures for inter-replica messages; we reproduce
//! that split. [`MacKey`] wraps the shared secret between one client and
//! the Execution compartments.
//!
//! There is one implementation, keyed once: a private `Pads` holds the SHA-256
//! chaining values after the `key ⊕ ipad` and `key ⊕ opad` blocks, so a
//! tag costs the message's own blocks plus one outer block — two
//! compressions for a short message instead of four or five. [`MacKey`]
//! computes its pads at construction; [`hmac_sha256`], [`MacKey::tag`] and
//! the AEAD tag all run through the incremental [`Hmac`].

use crate::sha256::{sha256, Sha256, State, BLOCK};

/// A key's two pre-absorbed pad blocks.
#[derive(Clone, PartialEq, Eq)]
struct Pads {
    inner: State,
    outer: State,
}

impl Pads {
    fn new(key: &[u8]) -> Self {
        // Keys longer than the block size are hashed first, per RFC 2104.
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let absorb = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&k.map(|b| b ^ pad));
            h.midstate()
        };
        Pads { inner: absorb(0x36), outer: absorb(0x5c) }
    }

    fn begin(&self) -> Hmac {
        Hmac { inner: Sha256::resume(self.inner, BLOCK as u64), outer: self.outer }
    }
}

/// Incremental HMAC-SHA-256: feed the message in pieces, then
/// [`finalize`](Hmac::finalize).
///
/// # Example
///
/// ```
/// use splitbft_crypto::hmac::{hmac_sha256, Hmac};
///
/// let mut h = Hmac::new(b"key");
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), hmac_sha256(b"key", b"hello world"));
/// ```
#[derive(Clone)]
pub struct Hmac {
    inner: Sha256,
    outer: State,
}

impl Hmac {
    /// Starts a MAC under raw key bytes. Holders of a [`MacKey`] use
    /// [`MacKey::begin`], which skips the two pad blocks.
    pub fn new(key: &[u8]) -> Self {
        Pads::new(key).begin()
    }

    /// Absorbs `data` into the MAC.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = Sha256::resume(self.outer, BLOCK as u64);
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// MACs whatever is encoded into it, without a buffer in between.
impl splitbft_types::wire::Sink for Hmac {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// Computes `HMAC-SHA256(key, data)`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut h = Hmac::new(key);
    h.update(data);
    h.finalize()
}

/// Constant-time byte-slice comparison.
///
/// Tag comparisons must not leak where the first mismatching byte sits.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

/// Verifies many `(expected, claimed)` tag pairs as one batch with a
/// **single** constant-time comparison: each side is folded into one
/// SHA-256 digest and only the two digests are compared.
///
/// Agreement paths that authenticate a whole request batch before
/// accepting it ([`crate`] callers reject the entire batch when any
/// member fails) use this instead of one `ct_eq` per request: the
/// decision — and therefore the timing surface — collapses to one
/// comparison per batch. Soundness rides on SHA-256 collision
/// resistance, and the fold is unambiguous because every tag has a
/// fixed 32-byte width. An empty batch verifies vacuously, matching
/// `iter().all(..)`.
pub fn verify_tag_batch(pairs: impl IntoIterator<Item = ([u8; 32], [u8; 32])>) -> bool {
    let mut expected = Sha256::new();
    let mut claimed = Sha256::new();
    for (exp, got) in pairs {
        expected.update(&exp);
        claimed.update(&got);
    }
    ct_eq(&expected.finalize(), &claimed.finalize())
}

/// A symmetric MAC key shared between a client and the Execution
/// compartments, with its HMAC pads pre-absorbed.
#[derive(Clone, PartialEq, Eq)]
pub struct MacKey {
    bytes: [u8; 32],
    pads: Pads,
}

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("MacKey(…)")
    }
}

impl MacKey {
    /// Wraps raw key bytes.
    pub fn new(bytes: [u8; 32]) -> Self {
        MacKey { bytes, pads: Pads::new(&bytes) }
    }

    /// Derives a per-client key deterministically from a seed — used by the
    /// simulated key-distribution step (in the paper, keys are installed
    /// during attestation).
    pub fn derive(master: &[u8], context: &[u8]) -> Self {
        MacKey::new(hmac_sha256(master, context))
    }

    /// Starts an incremental MAC under this key.
    pub fn begin(&self) -> Hmac {
        self.pads.begin()
    }

    /// Tags `data`.
    pub fn tag(&self, data: &[u8]) -> [u8; 32] {
        let mut h = self.begin();
        h.update(data);
        h.finalize()
    }

    /// Verifies a tag in constant time.
    #[must_use]
    pub fn verify(&self, data: &[u8], tag: &[u8; 32]) -> bool {
        ct_eq(&self.tag(data), tag)
    }

    /// Exposes the raw bytes (needed to seal the key into an enclave).
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2_jefe() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_filled() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4_counting_key() {
        let key: Vec<u8> = (1..=25u8).collect();
        let tag = hmac_sha256(&key, &[0xcdu8; 50]);
        assert_eq!(
            hex(&tag),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_5_truncated() {
        let tag = hmac_sha256(&[0x0cu8; 20], b"Test With Truncation");
        assert_eq!(hex(&tag[..16]), "a3b6167473100ee06e0c796c2955552b");
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_long_data() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the HMAC \
              algorithm.",
        );
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn keyed_state_matches_raw_key_at_every_length_and_split() {
        let key = MacKey::new([0x5au8; 32]);
        let data: Vec<u8> = (0..200u8).collect();
        for len in [0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 200] {
            let expect = hmac_sha256(key.as_bytes(), &data[..len]);
            assert_eq!(key.tag(&data[..len]), expect, "len {len}");
            for split in [0, len / 3, len] {
                let mut h = key.begin();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finalize(), expect, "len {len}, split {split}");
            }
        }
    }

    #[test]
    fn mac_key_tag_and_verify() {
        let k = MacKey::new([7u8; 32]);
        let tag = k.tag(b"payload");
        assert!(k.verify(b"payload", &tag));
        assert!(!k.verify(b"payloae", &tag));
        let other = MacKey::new([8u8; 32]);
        assert!(!other.verify(b"payload", &tag));
    }

    #[test]
    fn derive_is_deterministic_and_context_separated() {
        let a = MacKey::derive(b"master", b"client-1");
        let b = MacKey::derive(b"master", b"client-1");
        let c = MacKey::derive(b"master", b"client-2");
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_ne!(a.as_bytes(), c.as_bytes());
    }

    #[test]
    fn batched_verification_agrees_with_per_tag_verification() {
        let keys: Vec<MacKey> = (0u8..8).map(|i| MacKey::new([i; 32])).collect();
        let msgs: Vec<Vec<u8>> = (0u8..8).map(|i| vec![i; 16]).collect();
        let tags: Vec<[u8; 32]> = keys.iter().zip(&msgs).map(|(k, m)| k.tag(m)).collect();

        let pairs = |tags: &[[u8; 32]]| {
            keys.iter()
                .zip(&msgs)
                .zip(tags.to_vec())
                .map(|((k, m), t)| (k.tag(m), t))
                .collect::<Vec<_>>()
        };
        assert!(verify_tag_batch(pairs(&tags)));
        // One corrupted tag anywhere fails the whole batch.
        for i in 0..tags.len() {
            let mut bad = tags.clone();
            bad[i][0] ^= 1;
            assert!(!verify_tag_batch(pairs(&bad)));
        }
        // Empty batches verify vacuously, like `iter().all(..)`.
        assert!(verify_tag_batch(std::iter::empty()));
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let k = MacKey::new([0x41u8; 32]);
        let s = format!("{k:?}");
        assert!(!s.contains("41"));
    }
}
