//! A key-forging adversary.
//!
//! The threat model gives the attacker the environment of every replica
//! and a bounded set of *compromised enclaves*. A compromised enclave is
//! modeled at full strength: the adversary holds its signing key and can
//! emit arbitrary well-signed protocol messages from it — equivocating
//! proposals, commits for batches that never prepared, conflicting
//! checkpoints. (This strictly subsumes the data-corruption wrappers in
//! `splitbft-tee::fault`.)

use bytes::Bytes;
use splitbft_crypto::{digest_of, KeyPair};
use splitbft_types::{
    ClientId, Commit, ConsensusMessage, Digest, PrePrepare, Prepare, ReplicaId, Reply, Request,
    RequestBatch, RequestId, SeqNum, SignerId, Timestamp, View,
};
use std::collections::BTreeSet;

/// An adversary holding a set of compromised signing keys.
#[derive(Debug)]
pub struct Adversary {
    master_seed: u64,
    compromised: BTreeSet<SignerId>,
}

impl Adversary {
    /// An adversary that has compromised the given signers of a
    /// deployment keyed from `master_seed`.
    pub fn new(master_seed: u64, compromised: impl IntoIterator<Item = SignerId>) -> Self {
        Adversary { master_seed, compromised: compromised.into_iter().collect() }
    }

    /// `true` if the adversary holds this signer's key.
    pub fn holds(&self, signer: SignerId) -> bool {
        self.compromised.contains(&signer)
    }

    fn key(&self, signer: SignerId) -> KeyPair {
        assert!(self.holds(signer), "adversary does not hold {signer}");
        KeyPair::for_signer(self.master_seed, signer)
    }

    /// A well-formed "evil" batch the adversary fabricated. Its requests
    /// carry *valid* client MACs: a compromised replica (or Preparation
    /// enclave) holds the client MAC keys — it needs them to verify
    /// requests — so it can fabricate authenticated operations. What the
    /// protocols must still guarantee is *agreement*: no two correct
    /// replicas may commit different batches at one slot.
    pub fn evil_batch(&self, tag: u8) -> RequestBatch {
        let id = RequestId { client: ClientId(666), timestamp: Timestamp(tag as u64) };
        let op = Bytes::from(vec![tag; 10]);
        let key = splitbft_crypto::client_mac_key(self.master_seed, id.client);
        let auth = key.request_tag(id, &op, false);
        RequestBatch::single(Request { id, op, encrypted: false, auth })
    }

    /// Forges a `PrePrepare` from a compromised proposer key.
    pub fn forge_pre_prepare(
        &self,
        signer: SignerId,
        view: View,
        seq: SeqNum,
        batch: RequestBatch,
    ) -> ConsensusMessage {
        let digest = digest_of(&batch);
        let pp = PrePrepare { view, seq, digest, batch };
        ConsensusMessage::PrePrepare(self.key(signer).sign_payload(pp, signer))
    }

    /// Forges a `Prepare` vote.
    pub fn forge_prepare(
        &self,
        signer: SignerId,
        claimed_replica: splitbft_types::ReplicaId,
        view: View,
        seq: SeqNum,
        digest: Digest,
    ) -> ConsensusMessage {
        let p = Prepare { view, seq, digest, replica: claimed_replica };
        ConsensusMessage::Prepare(self.key(signer).sign_payload(p, signer))
    }

    /// Forges a `Commit` vote.
    pub fn forge_commit(
        &self,
        signer: SignerId,
        claimed_replica: splitbft_types::ReplicaId,
        view: View,
        seq: SeqNum,
        digest: Digest,
    ) -> ConsensusMessage {
        let c = Commit { view, seq, digest, replica: claimed_replica };
        ConsensusMessage::Commit(self.key(signer).sign_payload(c, signer))
    }

    /// Forges an authenticated `Reply` claiming `replica` executed
    /// `request` with `result`. Replica-to-client authentication is a
    /// MAC under the per-client key — held by *every* replica (they
    /// need it to verify requests, same reasoning as
    /// [`Adversary::evil_batch`]) — so a compromised replica can forge
    /// replies that verify at the client. Safety probes feed forged
    /// reply quorums through their cross-checks to prove the checks are
    /// non-vacuous.
    pub fn forge_reply(
        &self,
        request: RequestId,
        replica: ReplicaId,
        view: View,
        result: Bytes,
    ) -> Reply {
        let key = splitbft_crypto::client_mac_key(self.master_seed, request.client);
        let auth = key.reply_tag(view, request, replica, &result, false);
        Reply { view, request, replica, result, encrypted: false, auth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_crypto::KeyRegistry;
    use splitbft_types::ReplicaId;

    #[test]
    fn forged_messages_verify_under_compromised_keys() {
        let signer = SignerId::Replica(ReplicaId(0));
        let adversary = Adversary::new(7, [signer]);
        let registry = KeyRegistry::with_signers(7, [signer]);
        let msg = adversary.forge_pre_prepare(
            signer,
            View(0),
            SeqNum(1),
            adversary.evil_batch(1),
        );
        let ConsensusMessage::PrePrepare(pp) = msg else { panic!() };
        assert!(registry.verify_signed(&pp).is_ok(), "forgery is well-signed");
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn adversary_cannot_sign_without_the_key() {
        let adversary = Adversary::new(7, [SignerId::Replica(ReplicaId(0))]);
        let _ = adversary.forge_prepare(
            SignerId::Replica(ReplicaId(1)),
            ReplicaId(1),
            View(0),
            SeqNum(1),
            Digest::ZERO,
        );
    }
}
