//! Minimal offline stand-in for the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the small slice of the `bytes` API it actually uses:
//! [`Bytes`], an immutable byte container that is cheap to clone. Backed
//! by a `&'static [u8]`, an `Arc<[u8]>` (bytes copied in: one allocation)
//! or an `Arc<Vec<u8>>` (a buffer adopted without copying it), cloning
//! never copies the payload.
//!
//! Only the constructors and traits exercised by the SplitBFT workspace
//! are provided; this is not a general replacement for the real crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable sequence of bytes.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    /// Copied from a slice: header and bytes in one allocation.
    Copied(Arc<[u8]>),
    /// Adopted from a `Vec`, whose buffer is kept as it is.
    Shared(Arc<Vec<u8>>),
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub const fn new() -> Self {
        Bytes { repr: Repr::Static(&[]) }
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes { repr: Repr::Static(bytes) }
    }

    /// Copies `data` into a fresh shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { repr: Repr::Copied(Arc::from(data)) }
    }

    /// The contained bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => s,
            Repr::Copied(s) => s,
            Repr::Shared(v) => v.as_slice(),
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` if the container holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Returns a copy of the sub-range as a new `Bytes`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        Bytes::copy_from_slice(&self.as_slice()[range])
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { repr: Repr::Shared(Arc::new(v)) }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn static_and_copied_compare_equal() {
        assert_eq!(Bytes::from_static(b"hi"), Bytes::copy_from_slice(b"hi"));
    }

    #[test]
    fn slice_and_deref() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4]);
        assert_eq!(&b.slice(1..3)[..], &[1, 2]);
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        assert_eq!(b.to_vec(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn debug_escapes_non_printable() {
        let b = Bytes::from(vec![b'a', 0x00]);
        assert_eq!(format!("{b:?}"), "b\"a\\x00\"");
    }
}
