//! Authenticated encryption (encrypt-then-MAC) for request confidentiality
//! and enclave sealing.
//!
//! SplitBFT clients encrypt their operations under a session key installed
//! in the Execution enclaves during attestation; the blockchain application
//! additionally seals blocks before ocall-ing them out to untrusted
//! persistent storage (the paper uses `sgx_tprotected_fs`). Both paths use
//! this module.
//!
//! Construction: a SHA-256-based stream cipher (keystream block `i` is
//! `SHA256(enc_key ‖ nonce ‖ i)`) with an HMAC-SHA-256 tag over
//! `nonce ‖ aad-length ‖ aad ‖ ciphertext`, with independent sub-keys
//! derived from the master key. Textbook, simulation-grade — see the crate
//! docs. The tag streams through the MAC sub-key's pre-absorbed
//! [`Hmac`](crate::hmac::Hmac), so sealing never copies the ciphertext.

use crate::hmac::{ct_eq, hmac_sha256, MacKey};
use crate::sha256::Sha256;

/// Tag length appended to every sealed message.
pub const TAG_LEN: usize = 32;

/// Errors from [`open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// The ciphertext is shorter than a tag.
    TooShort,
    /// The authentication tag did not verify: the ciphertext, nonce, or
    /// associated data was tampered with, or the key is wrong.
    BadTag,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeadError::TooShort => f.write_str("ciphertext shorter than the tag"),
            AeadError::BadTag => f.write_str("authentication tag mismatch"),
        }
    }
}

impl std::error::Error for AeadError {}

/// A 256-bit AEAD key.
#[derive(Clone, PartialEq, Eq)]
pub struct AeadKey {
    enc: [u8; 32],
    mac: MacKey,
}

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AeadKey(…)")
    }
}

impl AeadKey {
    /// Derives the encryption and MAC sub-keys from a master secret.
    pub fn new(master: &[u8; 32]) -> Self {
        AeadKey {
            enc: hmac_sha256(master, b"splitbft-aead-enc"),
            mac: MacKey::derive(master, b"splitbft-aead-mac"),
        }
    }

    /// Derives a key from a master secret and a context label (e.g. one
    /// session key per client).
    pub fn derive(master: &[u8], context: &[u8]) -> Self {
        AeadKey::new(&hmac_sha256(master, context))
    }

    fn xor_keystream(&self, nonce: u64, data: &mut [u8]) {
        // Every keystream block hashes `enc ‖ nonce ‖ i`; only `i` differs,
        // so the shared prefix is absorbed once and cloned per block.
        let mut prefix = Sha256::new();
        prefix.update(&self.enc);
        prefix.update(&nonce.to_le_bytes());
        for (i, chunk) in data.chunks_mut(32).enumerate() {
            let mut h = prefix.clone();
            h.update(&(i as u64).to_le_bytes());
            for (b, k) in chunk.iter_mut().zip(h.finalize()) {
                *b ^= k;
            }
        }
    }

    fn tag(&self, nonce: u64, aad: &[u8], ciphertext: &[u8]) -> [u8; 32] {
        let mut h = self.mac.begin();
        h.update(&nonce.to_le_bytes());
        // Length-prefix the AAD so (aad, ct) boundaries are unambiguous.
        h.update(&(aad.len() as u64).to_le_bytes());
        h.update(aad);
        h.update(ciphertext);
        h.finalize()
    }
}

/// Encrypts and authenticates `plaintext`.
///
/// The nonce must be unique per key (callers use a per-client or per-seal
/// counter). `aad` is authenticated but not encrypted. Returns
/// `ciphertext ‖ tag`.
pub fn seal(key: &AeadKey, nonce: u64, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    // Room for the tag up front, so appending it never reallocates (and
    // re-copies) a large ciphertext.
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    out.extend_from_slice(plaintext);
    key.xor_keystream(nonce, &mut out);
    let tag = key.tag(nonce, aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// Verifies and decrypts a message produced by [`seal`].
///
/// # Errors
///
/// Returns [`AeadError::BadTag`] on any tampering of ciphertext, nonce, or
/// associated data, and [`AeadError::TooShort`] for truncated input.
pub fn open(key: &AeadKey, nonce: u64, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, AeadError> {
    if sealed.len() < TAG_LEN {
        return Err(AeadError::TooShort);
    }
    let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
    let expect = key.tag(nonce, aad, ciphertext);
    if !ct_eq(&expect, tag) {
        return Err(AeadError::BadTag);
    }
    let mut out = ciphertext.to_vec();
    key.xor_keystream(nonce, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u8) -> AeadKey {
        AeadKey::new(&[seed; 32])
    }

    #[test]
    fn seal_open_roundtrip() {
        let k = key(1);
        let sealed = seal(&k, 42, b"aad", b"secret payload");
        assert_eq!(open(&k, 42, b"aad", &sealed).unwrap(), b"secret payload");
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let k = key(1);
        let sealed = seal(&k, 0, b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(open(&k, 0, b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn large_plaintext_roundtrip() {
        let k = key(2);
        let pt: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let sealed = seal(&k, 7, b"block", &pt);
        assert_eq!(open(&k, 7, b"block", &sealed).unwrap(), pt);
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let k = key(3);
        let sealed = seal(&k, 1, b"", b"aaaaaaaaaaaaaaaa");
        assert!(!sealed.windows(4).any(|w| w == b"aaaa"));
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = seal(&key(1), 1, b"", b"data");
        assert_eq!(open(&key(2), 1, b"", &sealed), Err(AeadError::BadTag));
    }

    #[test]
    fn wrong_nonce_rejected() {
        let k = key(1);
        let sealed = seal(&k, 1, b"", b"data");
        assert_eq!(open(&k, 2, b"", &sealed), Err(AeadError::BadTag));
    }

    #[test]
    fn wrong_aad_rejected() {
        let k = key(1);
        let sealed = seal(&k, 1, b"aad-a", b"data");
        assert_eq!(open(&k, 1, b"aad-b", &sealed), Err(AeadError::BadTag));
    }

    #[test]
    fn bitflip_rejected_everywhere() {
        let k = key(4);
        let sealed = seal(&k, 9, b"hdr", b"payload bytes");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x80;
            assert_eq!(open(&k, 9, b"hdr", &bad), Err(AeadError::BadTag), "byte {i}");
        }
    }

    #[test]
    fn truncation_rejected() {
        let k = key(5);
        let sealed = seal(&k, 1, b"", b"data");
        assert_eq!(open(&k, 1, b"", &sealed[..10]), Err(AeadError::TooShort));
    }

    #[test]
    fn different_nonces_different_ciphertexts() {
        let k = key(6);
        let a = seal(&k, 1, b"", b"same");
        let b = seal(&k, 2, b"", b"same");
        assert_ne!(a, b);
    }

    #[test]
    fn derive_context_separation() {
        let a = AeadKey::derive(b"master", b"client-1");
        let b = AeadKey::derive(b"master", b"client-2");
        let sealed = seal(&a, 1, b"", b"x");
        assert!(open(&b, 1, b"", &sealed).is_err());
    }
}
