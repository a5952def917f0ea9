//! The three compartment types of the SplitBFT partitioning of PBFT.

use crate::wire::{Decode, Encode, Reader, Sink, WireError};
use std::fmt;

/// The compartment types that §3.2 of the paper derives from principles
/// P1–P5.
///
/// Every replica runs exactly one enclave of each kind; enclaves of the
/// same kind run the same logic, enclaves of different kinds share no code
/// beyond the message type definitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CompartmentKind {
    /// Receives client requests and initializes their order distribution:
    /// sends/validates `PrePrepare`, sends `Prepare`, validates
    /// `ViewChange`s and sends/validates `NewView`.
    Preparation,
    /// Confirms that a request was prepared by a quorum: collects the
    /// prepare certificate and sends `Commit`; originates `ViewChange` on
    /// primary suspicion.
    Confirmation,
    /// Collects a quorum of confirmations, executes authenticated requests
    /// against the application state, replies to clients and generates
    /// checkpoints.
    Execution,
}

impl CompartmentKind {
    /// All compartment kinds, in pipeline order.
    pub const ALL: [CompartmentKind; 3] = [
        CompartmentKind::Preparation,
        CompartmentKind::Confirmation,
        CompartmentKind::Execution,
    ];

    /// A stable dense index in `0..3`, for per-compartment tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            CompartmentKind::Preparation => 0,
            CompartmentKind::Confirmation => 1,
            CompartmentKind::Execution => 2,
        }
    }

    /// The inverse of [`CompartmentKind::index`].
    ///
    /// Returns `None` for indices outside `0..3`.
    pub fn from_index(index: usize) -> Option<Self> {
        match index {
            0 => Some(CompartmentKind::Preparation),
            1 => Some(CompartmentKind::Confirmation),
            2 => Some(CompartmentKind::Execution),
            _ => None,
        }
    }
}

impl fmt::Display for CompartmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompartmentKind::Preparation => "prep",
            CompartmentKind::Confirmation => "conf",
            CompartmentKind::Execution => "exec",
        };
        f.write_str(s)
    }
}

impl Encode for CompartmentKind {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        out.put(&[self.index() as u8]);
    }
}

impl Decode for CompartmentKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = u8::decode(r)?;
        CompartmentKind::from_index(tag as usize)
            .ok_or(WireError::InvalidTag { ty: "CompartmentKind", tag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode, roundtrip};

    #[test]
    fn index_roundtrips() {
        for kind in CompartmentKind::ALL {
            assert_eq!(CompartmentKind::from_index(kind.index()), Some(kind));
        }
        assert_eq!(CompartmentKind::from_index(3), None);
    }

    #[test]
    fn all_is_pipeline_order() {
        assert_eq!(
            CompartmentKind::ALL,
            [
                CompartmentKind::Preparation,
                CompartmentKind::Confirmation,
                CompartmentKind::Execution
            ]
        );
    }

    #[test]
    fn wire_roundtrip_and_bad_tag() {
        for kind in CompartmentKind::ALL {
            roundtrip(&kind);
        }
        assert!(decode::<CompartmentKind>(&[9]).is_err());
    }
}
