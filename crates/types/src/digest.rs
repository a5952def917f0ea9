//! The 32-byte digest type used to bind message and state contents.
//!
//! The digest *type* lives here so that messages can embed digests without
//! depending on the crypto crate; digest *computation* (SHA-256 over the
//! canonical wire encoding) lives in `splitbft-crypto`.

use std::fmt;

/// A 32-byte cryptographic digest.
///
/// Digests bind request batches to `PrePrepare`/`Prepare`/`Commit` messages
/// and application snapshots to `Checkpoint` messages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used for the genesis checkpoint and for no-op
    /// (null) request batches in view changes.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Returns the raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Builds a digest from raw bytes.
    #[inline]
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// A short hex prefix for human-readable logs.
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

crate::wire_struct!(Digest { 0 });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    #[test]
    fn zero_digest_is_all_zero() {
        assert_eq!(Digest::ZERO.as_bytes(), &[0u8; 32]);
    }

    #[test]
    fn display_is_full_hex() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0xab;
        bytes[31] = 0x01;
        let d = Digest::from_bytes(bytes);
        let s = d.to_string();
        assert_eq!(s.len(), 64);
        assert!(s.starts_with("ab"));
        assert!(s.ends_with("01"));
    }

    #[test]
    fn short_is_four_bytes() {
        let d = Digest::from_bytes([0x12; 32]);
        assert_eq!(d.short(), "12121212");
    }

    #[test]
    fn wire_roundtrip() {
        roundtrip(&Digest::from_bytes([7u8; 32]));
        roundtrip(&Digest::ZERO);
    }
}
