//! The replicated key-value store used in the paper's first use case.
//!
//! Operations are `PUT`, `GET`, and `DELETE` over byte keys and values.
//! The paper's throughput/latency measurements "evaluate a PUT operation
//! that updates the entries" with 10-byte payloads; the workload
//! generators in `splitbft-sim` produce exactly that.

use crate::{AppError, Application, NOOP_RESULT};
use bytes::Bytes;
use splitbft_types::wire::{decode, encode, Decode, Encode, Reader, Sink, WireError};
use std::collections::BTreeMap;

/// A key-value store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Insert or update a key. Returns the previous value or empty.
    Put {
        /// The key.
        key: Bytes,
        /// The value.
        value: Bytes,
    },
    /// Read a key. Returns the value or empty if absent.
    Get {
        /// The key.
        key: Bytes,
    },
    /// Remove a key. Returns the removed value or empty.
    Delete {
        /// The key.
        key: Bytes,
    },
}

impl KvOp {
    /// Convenience constructor for a `Put`.
    pub fn put(key: &[u8], value: &[u8]) -> Self {
        KvOp::Put { key: Bytes::copy_from_slice(key), value: Bytes::copy_from_slice(value) }
    }

    /// Convenience constructor for a `Get`.
    pub fn get(key: &[u8]) -> Self {
        KvOp::Get { key: Bytes::copy_from_slice(key) }
    }

    /// Convenience constructor for a `Delete`.
    pub fn delete(key: &[u8]) -> Self {
        KvOp::Delete { key: Bytes::copy_from_slice(key) }
    }

    /// Serializes the operation into the byte string clients submit.
    pub fn encode_op(&self) -> Bytes {
        Bytes::from(encode(self))
    }
}

impl Encode for KvOp {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        match self {
            KvOp::Put { key, value } => {
                out.put(&[0]);
                key.encode_to(out);
                value.encode_to(out);
            }
            KvOp::Get { key } => {
                out.put(&[1]);
                key.encode_to(out);
            }
            KvOp::Delete { key } => {
                out.put(&[2]);
                key.encode_to(out);
            }
        }
    }
}

impl Decode for KvOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(KvOp::Put { key: Bytes::decode(r)?, value: Bytes::decode(r)? }),
            1 => Ok(KvOp::Get { key: Bytes::decode(r)? }),
            2 => Ok(KvOp::Delete { key: Bytes::decode(r)? }),
            tag => Err(WireError::InvalidTag { ty: "KvOp", tag }),
        }
    }
}

/// The decoded result of a KVS operation (a thin helper over the raw
/// result bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResult {
    /// The operation succeeded; payload is the (possibly empty) value.
    Value(Bytes),
    /// The operation was malformed and executed as a no-op.
    Noop,
}

impl KvResult {
    /// Interprets raw result bytes from [`KeyValueStore::execute`].
    pub fn from_bytes(bytes: &[u8]) -> Self {
        if bytes == NOOP_RESULT {
            KvResult::Noop
        } else {
            KvResult::Value(Bytes::copy_from_slice(bytes))
        }
    }
}

/// A deterministic in-memory key-value store.
///
/// Uses a `BTreeMap` so snapshots are canonical: two replicas that applied
/// the same operations serialize bit-identical snapshots regardless of
/// insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyValueStore {
    map: BTreeMap<Bytes, Bytes>,
    bytes_stored: usize,
}

impl KeyValueStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Direct read access (used by examples and tests; replicated reads go
    /// through [`Application::execute`]).
    pub fn get(&self, key: &[u8]) -> Option<&Bytes> {
        self.map.get(key)
    }

    fn apply(&mut self, op: KvOp) -> Bytes {
        match op {
            KvOp::Put { key, value } => {
                self.bytes_stored += key.len() + value.len();
                let old = self.map.insert(key, value);
                if let Some(ref v) = old {
                    self.bytes_stored = self.bytes_stored.saturating_sub(v.len());
                }
                old.unwrap_or_default()
            }
            KvOp::Get { key } => self.map.get(&key).cloned().unwrap_or_default(),
            KvOp::Delete { key } => {
                let old = self.map.remove(&key);
                if let Some(ref v) = old {
                    self.bytes_stored = self.bytes_stored.saturating_sub(key.len() + v.len());
                }
                old.unwrap_or_default()
            }
        }
    }
}

impl Application for KeyValueStore {
    fn execute(&mut self, op: &[u8]) -> Bytes {
        match decode::<KvOp>(op) {
            Ok(op) => self.apply(op),
            // Malformed operation: deterministic no-op (paper §4: "When
            // clients submit corrupted operations, the Execution
            // Compartment will detect this and execute a no-op instead").
            Err(_) => Bytes::from_static(NOOP_RESULT),
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let entries: Vec<(Bytes, Bytes)> =
            self.map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        encode(&entries)
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), AppError> {
        let entries: Vec<(Bytes, Bytes)> =
            decode(snapshot).map_err(|e| AppError::BadSnapshot(e.to_string()))?;
        self.map = entries.into_iter().collect();
        self.bytes_stored = self.map.iter().map(|(k, v)| k.len() + v.len()).sum();
        Ok(())
    }

    fn memory_usage(&self) -> usize {
        self.bytes_stored + self.map.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::wire::roundtrip;

    #[test]
    fn put_get_delete_semantics() {
        let mut kvs = KeyValueStore::new();
        assert_eq!(kvs.execute(&KvOp::get(b"x").encode_op()), Bytes::new());
        assert_eq!(kvs.execute(&KvOp::put(b"x", b"1").encode_op()), Bytes::new());
        assert_eq!(&kvs.execute(&KvOp::get(b"x").encode_op())[..], b"1");
        // Put returns the previous value.
        assert_eq!(&kvs.execute(&KvOp::put(b"x", b"2").encode_op())[..], b"1");
        assert_eq!(&kvs.execute(&KvOp::delete(b"x").encode_op())[..], b"2");
        assert!(kvs.is_empty());
    }

    #[test]
    fn malformed_op_is_noop() {
        let mut kvs = KeyValueStore::new();
        kvs.execute(&KvOp::put(b"a", b"1").encode_op());
        let before = kvs.snapshot();
        let result = kvs.execute(b"\xff\xff garbage");
        assert_eq!(KvResult::from_bytes(&result), KvResult::Noop);
        assert_eq!(kvs.snapshot(), before, "state must not change");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut kvs = KeyValueStore::new();
        for i in 0..100u32 {
            kvs.execute(&KvOp::put(&i.to_le_bytes(), &[i as u8; 10]).encode_op());
        }
        let snap = kvs.snapshot();
        let mut restored = KeyValueStore::new();
        restored.restore(&snap).unwrap();
        assert_eq!(restored, kvs);
        assert_eq!(restored.memory_usage(), kvs.memory_usage());
    }

    #[test]
    fn snapshot_is_canonical_across_insertion_orders() {
        let mut a = KeyValueStore::new();
        a.execute(&KvOp::put(b"k1", b"v1").encode_op());
        a.execute(&KvOp::put(b"k2", b"v2").encode_op());
        let mut b = KeyValueStore::new();
        b.execute(&KvOp::put(b"k2", b"v2").encode_op());
        b.execute(&KvOp::put(b"k1", b"v1").encode_op());
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut kvs = KeyValueStore::new();
        assert!(kvs.restore(b"not a snapshot").is_err());
    }

    #[test]
    fn op_wire_roundtrips() {
        roundtrip(&KvOp::put(b"key", b"value"));
        roundtrip(&KvOp::get(b""));
        roundtrip(&KvOp::delete(b"k"));
    }

    #[test]
    fn memory_usage_tracks_contents() {
        let mut kvs = KeyValueStore::new();
        let m0 = kvs.memory_usage();
        kvs.execute(&KvOp::put(b"key", &[0u8; 1000]).encode_op());
        assert!(kvs.memory_usage() > m0 + 1000);
        kvs.execute(&KvOp::delete(b"key").encode_op());
        assert_eq!(kvs.memory_usage(), m0);
    }

    #[test]
    fn kv_result_distinguishes_noop_from_value() {
        assert_eq!(KvResult::from_bytes(NOOP_RESULT), KvResult::Noop);
        assert_eq!(
            KvResult::from_bytes(b"data"),
            KvResult::Value(Bytes::from_static(b"data"))
        );
        // Empty result is a value (absent key), not a noop.
        assert_eq!(KvResult::from_bytes(b""), KvResult::Value(Bytes::new()));
    }
}
