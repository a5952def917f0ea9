//! Cryptographic primitives for the SplitBFT reproduction.
//!
//! The paper signs inter-replica messages with ed25519 (via `ring`) and
//! authenticates client traffic with HMAC-SHA2. This crate reproduces those
//! code paths with self-contained implementations:
//!
//! - [`sha256`] — a from-scratch FIPS 180-4 SHA-256 (checked against NIST
//!   test vectors in the unit tests) with two interchangeable compression
//!   kernels: portable scalar Rust and the x86-64 SHA extensions, picked
//!   by CPU detection alone,
//! - [`hmac`] — HMAC-SHA-256 (RFC 2104) with the key's pad blocks absorbed
//!   once, at key construction,
//! - [`sig`] — a Schnorr-style signature scheme over a small prime-order
//!   group, division-free and table-driven for fixed bases,
//! - [`aead`] — an encrypt-then-MAC authenticated cipher used for client
//!   request confidentiality and enclave sealing,
//! - [`keys`] — key pairs, the public-key registry, the per-party cache of
//!   verified client MAC keys, and helpers to sign and verify
//!   [`Signed`](splitbft_types::Signed) protocol messages.
//!
//! # `unsafe_code` policy
//!
//! The crate is `#![deny(unsafe_code)]` with exactly one scoped
//! `#[allow]`: the private `sha256::shani` module, which needs it for
//! the `#[target_feature]` call and the unaligned SIMD loads and
//! stores. Its safety argument (feature detected before every call,
//! unaligned accesses only, block length carried by the type) is in that
//! module's docs. Everything else here is safe Rust; the only other
//! library module allowed `unsafe_code` is `splitbft-net`'s `readiness`
//! (one `ppoll(2)` call).
//!
//! # Security status
//!
//! **This is simulation-grade cryptography.** The signature group is far too
//! small to resist a real adversary and the AEAD is a textbook
//! construction; both exist so that the *system* exercises realistic
//! sign/verify/encrypt/decrypt code paths (with real key management and
//! real failure modes) without pulling hardware-backed or audited
//! dependencies into a reproduction. Do not reuse outside this repository.
//! The substitution is documented in `DESIGN.md` §2.
//!
//! # Example
//!
//! ```
//! use splitbft_crypto::{digest_bytes, keys::KeyPair};
//!
//! let kp = KeyPair::from_seed(7);
//! let sig = kp.sign(b"hello");
//! assert!(KeyPair::verify(&kp.public_key(), b"hello", &sig));
//! assert!(!KeyPair::verify(&kp.public_key(), b"tampered", &sig));
//! let d = digest_bytes(b"hello");
//! assert_eq!(d, digest_bytes(b"hello"));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod hmac;
pub mod keys;
pub mod sha256;
pub mod sig;

use splitbft_types::wire::Encode;
use splitbft_types::Digest;

pub use aead::{open, seal, AeadError, AeadKey};
pub use hmac::{hmac_sha256, verify_tag_batch, Hmac, MacKey};
pub use keys::{client_mac_key, ClientMacKeys, KeyPair, KeyRegistry};
pub use sig::{dh_public, dh_shared, SecretKey, SigPublicKey, VerifyingKey};

/// SHA-256 digest of raw bytes, as a [`Digest`].
pub fn digest_bytes(bytes: &[u8]) -> Digest {
    Digest::from_bytes(sha256::sha256(bytes))
}

/// SHA-256 digest of a value's canonical wire encoding.
///
/// This is *the* digest function of the protocol: `PrePrepare.digest` is
/// `digest_of(&batch)`, checkpoint digests are `digest_of(&snapshot)`, and
/// so on. Canonical encoding makes the digest deterministic across
/// replicas.
///
/// The encoding is streamed into the hasher field by field; it is never
/// materialised.
pub fn digest_of<T: Encode + ?Sized>(value: &T) -> Digest {
    let mut hasher = sha256::Sha256::new();
    value.encode_to(&mut hasher);
    Digest::from_bytes(hasher.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_matches_digest_bytes_on_encoding() {
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(digest_of(&v), digest_bytes(&v.to_wire()));
    }

    #[test]
    fn different_values_different_digests() {
        assert_ne!(digest_bytes(b"a"), digest_bytes(b"b"));
        assert_ne!(digest_of(&1u64), digest_of(&2u64));
    }
}
