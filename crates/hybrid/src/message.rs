//! Messages of the hybrid (MinBFT-style) protocol.
//!
//! Two phases instead of PBFT's three: the primary's `Prepare` (with its
//! USIG identifier ordering the batch) and the backups' `Commit`s (each
//! carrying the sender's own USIG identifier). `f + 1` matching commits —
//! counting the prepare as the primary's commit — finalize the batch.

use crate::usig::UsigUi;
use splitbft_crypto::digest_of;
use splitbft_types::wire::Encode;
use splitbft_types::{Digest, ReplicaId, RequestBatch, View};

/// The primary's ordering message: batch plus the UI that fixes its
/// position in the primary's counter sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridPrepare {
    /// The view (identifies the primary).
    pub view: View,
    /// The ordered batch.
    pub batch: RequestBatch,
    /// The primary's USIG identifier over the batch digest.
    pub ui: UsigUi,
}

impl HybridPrepare {
    /// The digest the primary's UI covers.
    pub fn batch_digest(&self) -> Digest {
        digest_of(&self.batch)
    }
}

splitbft_types::wire_struct!(HybridPrepare { view, batch, ui });

/// A backup's acknowledgement: it accepted the primary's prepare with
/// counter `primary_counter` and binds its own UI to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridCommit {
    /// The view.
    pub view: View,
    /// The committing replica.
    pub replica: ReplicaId,
    /// The primary counter value being committed (the agreement slot).
    pub primary_counter: u64,
    /// Digest of the batch being committed.
    pub batch_digest: Digest,
    /// The committer's own USIG identifier (over the commit contents),
    /// making commits non-equivocating too.
    pub ui: UsigUi,
}

impl HybridCommit {
    /// The digest the committer's UI covers: the commit's identifying
    /// contents, *excluding* the UI itself.
    pub fn commit_digest(&self) -> Digest {
        let mut buf = b"hybrid-commit:".to_vec();
        self.view.encode_to(&mut buf);
        self.replica.encode_to(&mut buf);
        self.primary_counter.encode_to(&mut buf);
        self.batch_digest.encode_to(&mut buf);
        splitbft_crypto::digest_bytes(&buf)
    }
}

splitbft_types::wire_struct!(HybridCommit { view, replica, primary_counter, batch_digest, ui });

/// Any hybrid-protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HybridMessage {
    /// The primary's ordering message.
    Prepare(HybridPrepare),
    /// A backup's acknowledgement.
    Commit(HybridCommit),
}

impl HybridMessage {
    /// Flips one byte of the message's USIG signature — the fault
    /// catalog's `corrupt-mac` Byzantine mode. The UI no longer verifies,
    /// so honest receivers must reject the message; a cluster with such
    /// a replica proceeds exactly as if it were silent.
    pub fn corrupt_authenticator(&mut self) {
        let ui = match self {
            HybridMessage::Prepare(p) => &mut p.ui,
            HybridMessage::Commit(c) => &mut c.ui,
        };
        ui.signature.0[0] ^= 0xFF;
    }
}

splitbft_types::wire_enum!(HybridMessage {
    1 => Prepare { 0: prepare },
    2 => Commit { 0: commit },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usig::{Usig, UsigTrait};
    use splitbft_types::wire::roundtrip;

    #[test]
    fn messages_roundtrip() {
        let mut usig = Usig::new(1, ReplicaId(0));
        let batch = RequestBatch::null();
        let ui = usig.create_ui(&digest_of(&batch));
        let prepare = HybridPrepare { view: View(0), batch, ui };
        roundtrip(&prepare);

        let commit = HybridCommit {
            view: View(0),
            replica: ReplicaId(1),
            primary_counter: 1,
            batch_digest: prepare.batch_digest(),
            ui,
        };
        roundtrip(&HybridMessage::Commit(commit));
    }

    #[test]
    fn commit_digest_binds_contents() {
        let mut usig = Usig::new(1, ReplicaId(0));
        let ui = usig.create_ui(&Digest::ZERO);
        let c1 = HybridCommit {
            view: View(0),
            replica: ReplicaId(1),
            primary_counter: 1,
            batch_digest: Digest::ZERO,
            ui,
        };
        let c2 = HybridCommit { primary_counter: 2, ..c1.clone() };
        assert_ne!(c1.commit_digest(), c2.commit_digest());
    }
}
