//! The USIG (Unique Sequential Identifier Generator) — the trusted
//! counter at the heart of hybrid BFT protocols.
//!
//! A USIG lives inside a TEE and does exactly one thing: given a message
//! digest, it increments a monotonic counter and signs
//! `(replica, counter, digest)`. Because the counter never repeats and
//! never skips, a replica cannot assign the same counter value to two
//! different messages — non-equivocation by construction. Verifiers track
//! the last counter seen from each replica and reject gaps and repeats.
//!
//! The paper's Table 2 reports a Rust trusted counter at 439 LOC / 0.5 MB
//! as the comparison point for SplitBFT's compartment TCBs; this module
//! plus its enclave wrapper is our equivalent.
//!
//! [`FaultyUsig`] models the compromise SplitBFT is designed around: a
//! "trusted" counter that re-issues counter values, re-enabling
//! equivocation.

use splitbft_crypto::{digest_bytes, KeyPair};
use splitbft_tee::enclave::{Enclave, OcallSink};
use splitbft_types::wire::Encode;
use splitbft_types::{Digest, PublicKey, ReplicaId, Signature};
use std::collections::BTreeMap;

/// Domain label mixed into USIG key derivation so counter keys are
/// unrelated to protocol signing keys.
const USIG_KEY_DOMAIN: u64 = 0x5516_C0DE;

/// Derives the deterministic USIG key pair of `replica` under
/// `master_seed`.
pub fn usig_keypair(master_seed: u64, replica: ReplicaId) -> KeyPair {
    KeyPair::from_seed(master_seed ^ USIG_KEY_DOMAIN ^ ((replica.0 as u64) << 32))
}

/// A unique sequential identifier: proof that the issuing replica's
/// trusted counter bound `counter` to `digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsigUi {
    /// The counter value (starts at 1, increments by exactly 1).
    pub counter: u64,
    /// Signature by the replica's USIG key over
    /// `(replica, counter, digest)`.
    pub signature: Signature,
}

splitbft_types::wire_struct!(UsigUi { counter, signature });

fn ui_bytes(replica: ReplicaId, counter: u64, digest: &Digest) -> Vec<u8> {
    let mut buf = b"usig:".to_vec();
    replica.encode_to(&mut buf);
    counter.encode_to(&mut buf);
    digest.encode_to(&mut buf);
    buf
}

/// Errors from USIG verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsigError {
    /// The signature did not verify.
    BadSignature,
    /// The counter is not exactly `last + 1` — a gap (suppressed message)
    /// or a repeat (equivocation attempt).
    NonSequential {
        /// The counter the verifier expected next.
        expected: u64,
        /// The counter the message carried.
        got: u64,
    },
}

impl std::fmt::Display for UsigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsigError::BadSignature => f.write_str("USIG signature invalid"),
            UsigError::NonSequential { expected, got } => {
                write!(f, "non-sequential USIG counter: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for UsigError {}

/// The interface of a trusted counter — implemented by the genuine
/// [`Usig`] and by [`FaultyUsig`] (the compromised-TEE model).
pub trait UsigTrait: Send {
    /// Binds the next counter value to `digest` and returns the UI.
    fn create_ui(&mut self, digest: &Digest) -> UsigUi;
    /// The current counter value (last issued).
    fn counter(&self) -> u64;
    /// Crash recovery: advances the counter to at least `counter`, so a
    /// restarted replica never re-issues a value it already used (which
    /// would be equivocation). The genuine counter only ever moves
    /// forward; rolling back is exactly the compromise [`FaultyUsig`]
    /// models.
    fn advance_to(&mut self, _counter: u64) {}
}

/// The genuine trusted counter.
#[derive(Debug)]
pub struct Usig {
    replica: ReplicaId,
    keypair: KeyPair,
    counter: u64,
}

impl Usig {
    /// Creates the counter for `replica` with its deterministic key.
    pub fn new(master_seed: u64, replica: ReplicaId) -> Self {
        Usig { replica, keypair: usig_keypair(master_seed, replica), counter: 0 }
    }
}

impl UsigTrait for Usig {
    fn create_ui(&mut self, digest: &Digest) -> UsigUi {
        self.counter += 1;
        let signature = self.keypair.sign(&ui_bytes(self.replica, self.counter, digest));
        UsigUi { counter: self.counter, signature }
    }

    fn counter(&self) -> u64 {
        self.counter
    }

    fn advance_to(&mut self, counter: u64) {
        self.counter = self.counter.max(counter);
    }
}

/// A compromised trusted counter: it can be rolled back, letting its host
/// issue two different messages under the same counter value — the exact
/// failure hybrid protocols assume away and SplitBFT does not.
#[derive(Debug)]
pub struct FaultyUsig {
    inner: Usig,
}

impl FaultyUsig {
    /// Wraps a genuine counter for `replica`.
    pub fn new(master_seed: u64, replica: ReplicaId) -> Self {
        FaultyUsig { inner: Usig::new(master_seed, replica) }
    }

    /// Rolls the counter back by `n` — the compromise primitive. The next
    /// [`UsigTrait::create_ui`] re-issues previously used values with
    /// *valid signatures*.
    pub fn rollback(&mut self, n: u64) {
        self.inner.counter = self.inner.counter.saturating_sub(n);
    }
}

impl UsigTrait for FaultyUsig {
    fn create_ui(&mut self, digest: &Digest) -> UsigUi {
        self.inner.create_ui(digest)
    }

    fn counter(&self) -> u64 {
        self.inner.counter()
    }

    fn advance_to(&mut self, counter: u64) {
        self.inner.advance_to(counter);
    }
}

/// Verifier-side state: the last counter accepted from each replica.
#[derive(Debug, Clone, Default)]
pub struct UsigVerifier {
    keys: BTreeMap<ReplicaId, PublicKey>,
    last_seen: BTreeMap<ReplicaId, u64>,
    /// Replicas whose UIs may arrive with a *forward* gap: set by
    /// [`UsigVerifier::resync`] after crash recovery, when this verifier
    /// provably missed messages issued while its replica was down.
    /// Backward movement (repeats — the equivocation vector) is still
    /// rejected; only "suppressed message" detection is waived, and only
    /// until the verifier re-anchors on the peer's live stream (the
    /// first exactly-sequential UI clears the waiver — a stale replayed
    /// message accepted during resync therefore cannot wedge the peer;
    /// the next live UI simply re-anchors further forward).
    gap_allowed: std::collections::BTreeSet<ReplicaId>,
}

impl UsigVerifier {
    /// Builds the verifier with every replica's USIG public key.
    pub fn new(master_seed: u64, replicas: impl IntoIterator<Item = ReplicaId>) -> Self {
        let keys = replicas
            .into_iter()
            .map(|r| (r, usig_keypair(master_seed, r).public_key()))
            .collect();
        UsigVerifier {
            keys,
            last_seen: BTreeMap::new(),
            gap_allowed: std::collections::BTreeSet::new(),
        }
    }

    /// Marks every peer's next UI as allowed to arrive with a forward
    /// counter gap. Called exactly once, after crash recovery restores
    /// this replica: the counters it saw before the crash are gone with
    /// its memory, so the strict `last + 1` window must re-anchor on the
    /// first live message from each peer. Monotonicity — the
    /// non-equivocation property — is preserved throughout.
    pub fn resync(&mut self) {
        self.gap_allowed = self.keys.keys().copied().collect();
    }

    /// Verifies a UI from `replica` over `digest` and advances the
    /// replica's counter window.
    ///
    /// # Errors
    ///
    /// [`UsigError::BadSignature`] or [`UsigError::NonSequential`]; on
    /// error no state is consumed, so retransmissions of the expected
    /// counter still verify.
    pub fn verify(
        &mut self,
        replica: ReplicaId,
        digest: &Digest,
        ui: &UsigUi,
    ) -> Result<(), UsigError> {
        let expected = self.last_seen.get(&replica).copied().unwrap_or(0) + 1;
        if ui.counter != expected {
            // After a resync, forward re-anchoring is allowed until the
            // first sequential UI proves we joined the live stream;
            // repeats and rollbacks never are.
            if !(ui.counter > expected && self.gap_allowed.contains(&replica)) {
                return Err(UsigError::NonSequential { expected, got: ui.counter });
            }
        }
        let Some(key) = self.keys.get(&replica) else {
            return Err(UsigError::BadSignature);
        };
        if !KeyPair::verify(key, &ui_bytes(replica, ui.counter, digest), &ui.signature) {
            return Err(UsigError::BadSignature);
        }
        if ui.counter == expected {
            // Anchored on the live stream: strict sequencing resumes.
            self.gap_allowed.remove(&replica);
        }
        self.last_seen.insert(replica, ui.counter);
        Ok(())
    }

    /// The last accepted counter from `replica`.
    pub fn last_seen(&self, replica: ReplicaId) -> u64 {
        self.last_seen.get(&replica).copied().unwrap_or(0)
    }
}

/// The USIG packaged as a TEE enclave: ecall id 1 = `create_ui` over the
/// 32-byte digest in the input. This is the "trusted counter" whose TCB
/// size the paper's Table 2 compares against SplitBFT's compartments.
#[derive(Debug)]
pub struct UsigEnclave {
    usig: Usig,
}

impl UsigEnclave {
    /// Ecall id for `create_ui`.
    pub const ECALL_CREATE_UI: u32 = 1;

    /// Loads a USIG for `replica` into the enclave.
    pub fn new(master_seed: u64, replica: ReplicaId) -> Self {
        UsigEnclave { usig: Usig::new(master_seed, replica) }
    }
}

impl Enclave for UsigEnclave {
    fn measurement(&self) -> [u8; 32] {
        digest_bytes(b"splitbft-usig-enclave-v1").0
    }

    fn handle_ecall(&mut self, id: u32, input: &[u8], _env: &mut dyn OcallSink) -> Vec<u8> {
        if id != Self::ECALL_CREATE_UI || input.len() != 32 {
            return Vec::new();
        }
        let mut digest = [0u8; 32];
        digest.copy_from_slice(input);
        let ui = self.usig.create_ui(&Digest::from_bytes(digest));
        ui.to_wire()
    }

    fn memory_usage(&self) -> usize {
        128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 5;

    fn digest(x: u8) -> Digest {
        Digest::from_bytes([x; 32])
    }

    #[test]
    fn sequential_uis_verify() {
        let mut usig = Usig::new(SEED, ReplicaId(0));
        let mut verifier = UsigVerifier::new(SEED, [ReplicaId(0)]);
        for i in 1..=5u8 {
            let d = digest(i);
            let ui = usig.create_ui(&d);
            assert_eq!(ui.counter, i as u64);
            verifier.verify(ReplicaId(0), &d, &ui).unwrap();
        }
        assert_eq!(verifier.last_seen(ReplicaId(0)), 5);
    }

    #[test]
    fn gap_rejected() {
        let mut usig = Usig::new(SEED, ReplicaId(0));
        let mut verifier = UsigVerifier::new(SEED, [ReplicaId(0)]);
        let _skipped = usig.create_ui(&digest(1));
        let ui2 = usig.create_ui(&digest(2));
        assert_eq!(
            verifier.verify(ReplicaId(0), &digest(2), &ui2),
            Err(UsigError::NonSequential { expected: 1, got: 2 })
        );
    }

    #[test]
    fn replay_rejected() {
        let mut usig = Usig::new(SEED, ReplicaId(0));
        let mut verifier = UsigVerifier::new(SEED, [ReplicaId(0)]);
        let ui = usig.create_ui(&digest(1));
        verifier.verify(ReplicaId(0), &digest(1), &ui).unwrap();
        assert!(matches!(
            verifier.verify(ReplicaId(0), &digest(1), &ui),
            Err(UsigError::NonSequential { .. })
        ));
    }

    #[test]
    fn advance_to_never_rolls_back() {
        let mut usig = Usig::new(SEED, ReplicaId(0));
        let _ = usig.create_ui(&digest(1));
        let _ = usig.create_ui(&digest(2));
        usig.advance_to(10);
        assert_eq!(usig.counter(), 10);
        usig.advance_to(3); // lower than current: no-op
        assert_eq!(usig.counter(), 10);
        assert_eq!(usig.create_ui(&digest(3)).counter, 11);
    }

    #[test]
    fn resync_allows_forward_gaps_until_anchored() {
        let mut usig = Usig::new(SEED, ReplicaId(0));
        let mut verifier = UsigVerifier::new(SEED, [ReplicaId(0)]);
        // Counters 1..=4 issued while this verifier was "down".
        for i in 1..=4u8 {
            let _ = usig.create_ui(&digest(i));
        }
        verifier.resync();
        let d5 = digest(5);
        let ui5 = usig.create_ui(&d5);
        verifier.verify(ReplicaId(0), &d5, &ui5).unwrap();
        // A sequential follow-up anchors the window...
        let d6 = digest(6);
        let ui6 = usig.create_ui(&d6);
        verifier.verify(ReplicaId(0), &d6, &ui6).unwrap();
        // ...after which gaps are suppressed messages again.
        let _skipped = usig.create_ui(&digest(7));
        let d8 = digest(8);
        let ui8 = usig.create_ui(&d8);
        assert!(matches!(
            verifier.verify(ReplicaId(0), &d8, &ui8),
            Err(UsigError::NonSequential { .. })
        ));
    }

    #[test]
    fn stale_replay_during_resync_cannot_wedge_a_peer() {
        let mut usig = Usig::new(SEED, ReplicaId(0));
        let mut verifier = UsigVerifier::new(SEED, [ReplicaId(0)]);
        let d2 = digest(2);
        let (_ui1, ui2) = (usig.create_ui(&digest(1)), usig.create_ui(&d2));
        for i in 3..=9u8 {
            let _ = usig.create_ui(&digest(i)); // the peer's live stream is far ahead
        }
        verifier.resync();
        // An adversary replays the peer's old-but-genuine counter 2
        // first: it re-anchors low...
        verifier.verify(ReplicaId(0), &d2, &ui2).unwrap();
        // ...but the next *live* message still verifies (forward gap
        // remains allowed until a sequential anchor), so the peer is
        // not wedged.
        let d10 = digest(10);
        let ui10 = usig.create_ui(&d10);
        verifier.verify(ReplicaId(0), &d10, &ui10).unwrap();
        // Replays below the anchor stay rejected throughout.
        assert!(matches!(
            verifier.verify(ReplicaId(0), &d2, &ui2),
            Err(UsigError::NonSequential { .. })
        ));
    }

    #[test]
    fn resync_never_allows_replays() {
        let mut usig = Usig::new(SEED, ReplicaId(0));
        let mut verifier = UsigVerifier::new(SEED, [ReplicaId(0)]);
        let d = digest(1);
        let ui = usig.create_ui(&d);
        verifier.verify(ReplicaId(0), &d, &ui).unwrap();
        verifier.resync();
        // A replayed (non-forward) counter is still equivocation.
        assert!(matches!(
            verifier.verify(ReplicaId(0), &d, &ui),
            Err(UsigError::NonSequential { .. })
        ));
    }

    #[test]
    fn wrong_digest_rejected() {
        let mut usig = Usig::new(SEED, ReplicaId(0));
        let mut verifier = UsigVerifier::new(SEED, [ReplicaId(0)]);
        let ui = usig.create_ui(&digest(1));
        // Host tries to attach the UI to a different message.
        assert_eq!(
            verifier.verify(ReplicaId(0), &digest(9), &ui),
            Err(UsigError::BadSignature)
        );
    }

    #[test]
    fn cross_replica_uis_do_not_verify() {
        let mut usig0 = Usig::new(SEED, ReplicaId(0));
        let mut verifier = UsigVerifier::new(SEED, [ReplicaId(0), ReplicaId(1)]);
        let ui = usig0.create_ui(&digest(1));
        assert_eq!(
            verifier.verify(ReplicaId(1), &digest(1), &ui),
            Err(UsigError::BadSignature)
        );
    }

    #[test]
    fn faulty_usig_equivocates_with_valid_signatures() {
        // The attack hybrid protocols cannot survive: after rollback, two
        // *different* digests carry the same counter, and each verifies
        // against a fresh verifier (i.e., at a different replica).
        let mut usig = FaultyUsig::new(SEED, ReplicaId(0));
        let ui_a = usig.create_ui(&digest(1));
        usig.rollback(1);
        let ui_b = usig.create_ui(&digest(2));
        assert_eq!(ui_a.counter, ui_b.counter);

        let mut verifier_at_r1 = UsigVerifier::new(SEED, [ReplicaId(0)]);
        let mut verifier_at_r2 = UsigVerifier::new(SEED, [ReplicaId(0)]);
        assert!(verifier_at_r1.verify(ReplicaId(0), &digest(1), &ui_a).is_ok());
        assert!(verifier_at_r2.verify(ReplicaId(0), &digest(2), &ui_b).is_ok());
        // Two different messages, same counter, both accepted somewhere:
        // equivocation achieved.
    }

    #[test]
    fn usig_enclave_roundtrip() {
        use splitbft_tee::{CostModel, EnclaveHost, ExecMode};
        let mut host = EnclaveHost::new(
            UsigEnclave::new(SEED, ReplicaId(2)),
            ExecMode::Hardware,
            CostModel::paper_calibrated(),
        );
        let d = digest(7);
        let reply = host.ecall(UsigEnclave::ECALL_CREATE_UI, d.as_bytes()).unwrap();
        let ui: UsigUi = splitbft_types::wire::decode(&reply.output).unwrap();
        assert_eq!(ui.counter, 1);
        let mut verifier = UsigVerifier::new(SEED, [ReplicaId(2)]);
        assert!(verifier.verify(ReplicaId(2), &d, &ui).is_ok());

        // Garbage ecalls return nothing.
        assert!(host.ecall(99, b"x").unwrap().output.is_empty());
    }

    #[test]
    fn ui_wire_roundtrip() {
        let mut usig = Usig::new(SEED, ReplicaId(0));
        let ui = usig.create_ui(&digest(1));
        splitbft_types::wire::roundtrip(&ui);
    }
}
