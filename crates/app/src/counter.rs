//! A trivial counter application, used by tests and the model checker
//! where the interesting behaviour is in the protocol, not the app.

use crate::{AppError, Application, NOOP_RESULT};
use bytes::Bytes;
use splitbft_types::wire::Sink;

/// A replicated counter. Operation `b"inc"` increments and returns the new
/// value (little-endian u64); `b"read"` returns the current value;
/// anything else is a no-op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterApp {
    value: u64,
}

impl CounterApp {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.value
    }
}

impl Application for CounterApp {
    fn execute(&mut self, op: &[u8]) -> Bytes {
        match op {
            b"inc" => {
                self.value += 1;
                Bytes::copy_from_slice(&self.value.to_le_bytes())
            }
            b"read" => Bytes::copy_from_slice(&self.value.to_le_bytes()),
            _ => Bytes::from_static(NOOP_RESULT),
        }
    }

    fn write_snapshot<S: Sink>(&self, out: &mut S) {
        out.put(&self.value.to_le_bytes());
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), AppError> {
        let bytes: [u8; 8] = snapshot
            .try_into()
            .map_err(|_| AppError::BadSnapshot(format!("expected 8 bytes, got {}", snapshot.len())))?;
        self.value = u64::from_le_bytes(bytes);
        Ok(())
    }

    fn memory_usage(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_and_reads() {
        let mut c = CounterApp::new();
        assert_eq!(&c.execute(b"inc")[..], &1u64.to_le_bytes());
        assert_eq!(&c.execute(b"inc")[..], &2u64.to_le_bytes());
        assert_eq!(&c.execute(b"read")[..], &2u64.to_le_bytes());
        assert_eq!(c.value(), 2);
    }

    #[test]
    fn unknown_op_is_noop() {
        let mut c = CounterApp::new();
        assert_eq!(&c.execute(b"dec")[..], NOOP_RESULT);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut c = CounterApp::new();
        c.execute(b"inc");
        c.execute(b"inc");
        let snap = c.snapshot();
        let mut d = CounterApp::new();
        d.restore(&snap).unwrap();
        assert_eq!(c, d);
        assert!(d.restore(b"short").is_err());
    }
}
