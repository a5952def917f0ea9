//! Key pairs, the cluster-wide public-key registry, and helpers to sign
//! and verify [`Signed`] protocol messages.
//!
//! The paper assumes "each enclave has a public and private key pair and
//! that private keys of correct enclaves cannot be derived by either the
//! environment or other enclaves on the same replica", with all public keys
//! known to all participants. [`KeyRegistry`] models that public knowledge;
//! secret keys live inside the enclaves (see `splitbft-tee`).

use crate::hmac::{ct_eq, verify_tag_batch, MacKey};
use crate::sig::{SecretKey, SigPublicKey, VerifyingKey};
use splitbft_types::message::MessagePayload;
use splitbft_types::{
    ClientId, ProtocolError, PublicKey, ReplicaId, Reply, Request, RequestId, Signature, Signed,
    SignerId, View,
};
use std::collections::HashMap;

/// A signing key pair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    secret: SecretKey,
}

impl KeyPair {
    /// Deterministically derives a key pair from a seed (the simulated
    /// provisioning step).
    pub fn from_seed(seed: u64) -> Self {
        KeyPair { secret: SecretKey::from_seed(seed) }
    }

    /// Derives the canonical key pair for a signer identity under a
    /// cluster master seed. All test and simulation deployments use this
    /// so that every party can compute everyone's *public* key while
    /// secret keys stay with their owner.
    pub fn for_signer(master_seed: u64, signer: SignerId) -> Self {
        let mut buf = vec![];
        use splitbft_types::wire::Encode;
        signer.encode_to(&mut buf);
        let mut acc = master_seed;
        for b in buf {
            acc = acc.wrapping_mul(0x100000001b3).wrapping_add(b as u64);
        }
        KeyPair::from_seed(acc)
    }

    /// This pair's public key in wire form.
    pub fn public_key(&self) -> PublicKey {
        self.secret.public().to_wire()
    }

    /// Signs raw bytes.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.secret.sign(msg)
    }

    /// Verifies raw bytes against a wire-form public key.
    #[must_use]
    pub fn verify(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        match SigPublicKey::from_wire(pk) {
            Some(p) => p.verify(msg, sig),
            None => false,
        }
    }

    /// Signs a protocol payload, producing a [`Signed`] envelope attributed
    /// to `signer`. The signing bytes are encoded straight into the two
    /// hashes the scheme takes of them.
    pub fn sign_payload<T: MessagePayload>(&self, payload: T, signer: SignerId) -> Signed<T> {
        let signature = self.secret.sign_streamed(|h| Signed::write_signing_bytes(&payload, h));
        Signed::new(payload, signer, signature)
    }
}

/// Derives the MAC key shared between one client and the replicas (in
/// SplitBFT: the Execution compartments). In the paper this key is
/// installed during attestation; simulated deployments derive it from the
/// cluster master seed so that both sides can compute it.
///
/// A derivation is a full HMAC plus the new key's two pad blocks; parties
/// that authenticate the same clients over and over keep the result in a
/// [`ClientMacKeys`].
pub fn client_mac_key(master_seed: u64, client: ClientId) -> MacKey {
    const LABEL: &[u8; 11] = b"client-mac:";
    let mut context = [0u8; LABEL.len() + 4];
    context[..LABEL.len()].copy_from_slice(LABEL);
    context[LABEL.len()..].copy_from_slice(&client.0.to_le_bytes());
    MacKey::derive(&master_seed.to_le_bytes(), &context)
}

/// The two MACs of the client protocol, each streamed into the HMAC field
/// by field instead of over a materialised `auth_bytes` buffer.
impl MacKey {
    /// The tag authenticating a request: the MAC over
    /// [`Request::auth_bytes`].
    pub fn request_tag(&self, id: RequestId, op: &[u8], encrypted: bool) -> [u8; 32] {
        let mut mac = self.begin();
        Request::write_auth_bytes(id, op, encrypted, &mut mac);
        mac.finalize()
    }

    /// The tag authenticating a reply: the MAC over
    /// [`Reply::auth_bytes`].
    pub fn reply_tag(
        &self,
        view: View,
        request: RequestId,
        replica: ReplicaId,
        result: &[u8],
        encrypted: bool,
    ) -> [u8; 32] {
        let mut mac = self.begin();
        Reply::write_auth_bytes(view, request, replica, result, encrypted, &mut mac);
        mac.finalize()
    }
}

/// One party's memory of the client MAC keys it has seen work.
///
/// Every replica-side authenticator (each SplitBFT compartment, a PBFT or
/// hybrid replica) owns its own instance — there is no shared or global
/// state, so compartments stay isolated. A key enters the map only after
/// a MAC from that client verified under it, so forged traffic from made-up
/// client ids cannot grow it, and it never holds more than
/// [`CAPACITY`](ClientMacKeys::CAPACITY) keys.
#[derive(Debug, Clone)]
pub struct ClientMacKeys {
    master_seed: u64,
    verified: HashMap<ClientId, MacKey>,
}

impl ClientMacKeys {
    /// Most keys one instance keeps. A verified client arriving at a full
    /// map empties it first: live clients re-enter on their next request,
    /// departed ones do not.
    pub const CAPACITY: usize = 1024;

    /// An empty cache deriving from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        ClientMacKeys { master_seed, verified: HashMap::new() }
    }

    /// Runs `f` with `client`'s key — the remembered one, else derived on
    /// the spot and returned too (not remembered: only a verified MAC
    /// earns a slot).
    fn with_key<R>(&self, client: ClientId, f: impl FnOnce(&MacKey) -> R) -> (R, Option<MacKey>) {
        match self.verified.get(&client) {
            Some(key) => (f(key), None),
            None => {
                let key = client_mac_key(self.master_seed, client);
                (f(&key), Some(key))
            }
        }
    }

    /// Verifies a request's MAC ([`MacKey::request_tag`]) under its
    /// client's key in constant time, remembering the key if it verifies.
    #[must_use]
    pub fn verify_request(&mut self, req: &Request) -> bool {
        let expected = |key: &MacKey| key.request_tag(req.id, &req.op, req.encrypted);
        let (expected, derived) = self.with_key(req.client(), expected);
        let ok = ct_eq(&expected, &req.auth);
        if let (true, Some(key)) = (ok, derived) {
            self.remember(req.client(), key);
        }
        ok
    }

    /// Verifies the MACs of a whole batch with a single constant-time
    /// comparison ([`verify_tag_batch`]): all or nothing, so the keys
    /// derived along the way are remembered only if every tag matched.
    #[must_use]
    pub fn verify_requests(&mut self, requests: &[Request]) -> bool {
        let mut derived: Vec<(ClientId, MacKey)> = Vec::new();
        let ok = verify_tag_batch(requests.iter().map(|req| {
            let expected = |key: &MacKey| key.request_tag(req.id, &req.op, req.encrypted);
            let (expected, key) = self.with_key(req.client(), expected);
            derived.extend(key.map(|key| (req.client(), key)));
            (expected, req.auth)
        }));
        if ok {
            for (client, key) in derived {
                self.remember(client, key);
            }
        }
        ok
    }

    /// The MAC `replica` puts on its reply to `request`'s client
    /// ([`MacKey::reply_tag`] under that client's key).
    pub fn reply_tag(
        &self,
        view: View,
        request: RequestId,
        replica: ReplicaId,
        result: &[u8],
        encrypted: bool,
    ) -> [u8; 32] {
        self.with_key(request.client, |key| key.reply_tag(view, request, replica, result, encrypted))
            .0
    }

    fn remember(&mut self, client: ClientId, key: MacKey) {
        if self.verified.len() >= Self::CAPACITY && !self.verified.contains_key(&client) {
            self.verified.clear();
        }
        self.verified.insert(client, key);
    }

    /// Number of remembered keys.
    pub fn len(&self) -> usize {
        self.verified.len()
    }

    /// `true` if no key is remembered.
    pub fn is_empty(&self) -> bool {
        self.verified.is_empty()
    }

    /// Approximate heap usage, for the owners' EPC accounting.
    pub fn memory_usage(&self) -> usize {
        self.verified.capacity() * std::mem::size_of::<(ClientId, MacKey)>()
    }
}

/// A registered key: the wire form as registered, and — unless it is
/// malformed, in which case nothing verifies under it — the parsed key
/// with its power table, so verification neither re-parses nor squares.
#[derive(Debug, Clone)]
struct RegisteredKey {
    wire: PublicKey,
    verifying: Option<VerifyingKey>,
}

/// The cluster-wide registry of public keys, indexed by signer identity.
///
/// Every replica, enclave, and client registers its public key here at
/// provisioning time; verification then needs only the registry.
#[derive(Debug, Clone, Default)]
pub struct KeyRegistry {
    keys: HashMap<SignerId, RegisteredKey>,
}

impl KeyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) `signer`'s public key.
    pub fn register(&mut self, signer: SignerId, key: PublicKey) {
        let verifying = SigPublicKey::from_wire(&key).map(VerifyingKey::new);
        self.keys.insert(signer, RegisteredKey { wire: key, verifying });
    }

    /// Looks up a signer's public key.
    pub fn get(&self, signer: SignerId) -> Option<&PublicKey> {
        self.keys.get(&signer).map(|k| &k.wire)
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Verifies a signed protocol message against the signer's registered
    /// key.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadAuthenticator`] if the signer is unknown or the
    /// signature does not verify.
    pub fn verify_signed<T: MessagePayload>(
        &self,
        msg: &Signed<T>,
    ) -> Result<(), ProtocolError> {
        let bad = || ProtocolError::BadAuthenticator { kind: std::any::type_name::<T>() };
        let key = self.keys.get(&msg.signer).and_then(|k| k.verifying.as_ref()).ok_or_else(bad)?;
        if key.verify_streamed(|h| Signed::write_signing_bytes(&msg.payload, h), &msg.signature) {
            Ok(())
        } else {
            Err(bad())
        }
    }

    /// Builds the canonical registry for a deployment: registers the given
    /// signers' deterministic keys under `master_seed`.
    pub fn with_signers(master_seed: u64, signers: impl IntoIterator<Item = SignerId>) -> Self {
        let mut reg = KeyRegistry::new();
        for signer in signers {
            let kp = KeyPair::for_signer(master_seed, signer);
            reg.register(signer, kp.public_key());
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::{Digest, Prepare, SeqNum};

    fn prepare(replica: u32) -> Prepare {
        Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: Digest::from_bytes([1u8; 32]),
            replica: ReplicaId(replica),
        }
    }

    #[test]
    fn sign_and_verify_payload_through_registry() {
        let signer = SignerId::Replica(ReplicaId(1));
        let kp = KeyPair::for_signer(99, signer);
        let mut reg = KeyRegistry::new();
        reg.register(signer, kp.public_key());

        let signed = kp.sign_payload(prepare(1), signer);
        assert!(reg.verify_signed(&signed).is_ok());
    }

    #[test]
    fn registry_rejects_unknown_signer() {
        let signer = SignerId::Replica(ReplicaId(1));
        let kp = KeyPair::for_signer(99, signer);
        let reg = KeyRegistry::new();
        let signed = kp.sign_payload(prepare(1), signer);
        assert!(matches!(
            reg.verify_signed(&signed),
            Err(ProtocolError::BadAuthenticator { .. })
        ));
    }

    #[test]
    fn registry_rejects_forged_payload() {
        let signer = SignerId::Replica(ReplicaId(1));
        let kp = KeyPair::for_signer(99, signer);
        let mut reg = KeyRegistry::new();
        reg.register(signer, kp.public_key());

        let mut signed = kp.sign_payload(prepare(1), signer);
        signed.payload.seq = SeqNum(2); // tamper after signing
        assert!(reg.verify_signed(&signed).is_err());
    }

    #[test]
    fn registry_rejects_identity_swap() {
        let alice = SignerId::Replica(ReplicaId(1));
        let mallory = SignerId::Replica(ReplicaId(2));
        let kp_alice = KeyPair::for_signer(99, alice);
        let kp_mallory = KeyPair::for_signer(99, mallory);
        let mut reg = KeyRegistry::new();
        reg.register(alice, kp_alice.public_key());
        reg.register(mallory, kp_mallory.public_key());

        // Mallory signs but claims to be Alice.
        let mut signed = kp_mallory.sign_payload(prepare(1), mallory);
        signed.signer = alice;
        assert!(reg.verify_signed(&signed).is_err());
    }

    #[test]
    fn with_signers_builds_matching_keys() {
        let signers: Vec<SignerId> =
            (0..4).map(|i| SignerId::Replica(ReplicaId(i))).collect();
        let reg = KeyRegistry::with_signers(7, signers.clone());
        assert_eq!(reg.len(), 4);
        for s in signers {
            let kp = KeyPair::for_signer(7, s);
            assert_eq!(reg.get(s), Some(&kp.public_key()));
        }
    }

    #[test]
    fn registry_never_verifies_under_a_malformed_key() {
        let signer = SignerId::Replica(ReplicaId(1));
        let kp = KeyPair::for_signer(99, signer);
        let mut reg = KeyRegistry::new();
        let mut malformed = kp.public_key();
        malformed.0[20] = 1; // non-canonical padding
        reg.register(signer, malformed);
        assert_eq!(reg.get(signer), Some(&malformed));
        assert!(reg.verify_signed(&kp.sign_payload(prepare(1), signer)).is_err());
    }

    const SEED: u64 = 5;

    #[test]
    fn client_keys_are_remembered_only_after_a_verified_mac() {
        let mut keys = ClientMacKeys::new(SEED);
        let good = request(3);
        assert!(keys.is_empty());
        assert!(!keys.verify_request(&Request { auth: [0u8; 32], ..good.clone() }));
        assert!(!keys.verify_request(&Request { auth: good.auth, ..request(4) }));
        assert!(keys.is_empty());
        assert!(keys.verify_request(&good));
        assert_eq!(keys.len(), 1);
        // A remembered key still rejects forgeries.
        assert!(!keys.verify_request(&Request { op: b"tampered".to_vec().into(), ..good }));
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn forged_requests_from_ten_thousand_client_ids_leave_the_cache_empty() {
        let mut keys = ClientMacKeys::new(SEED);
        let forged_batch: Vec<Request> = (0..10_000u32)
            .map(|id| Request { auth: [id as u8; 32], ..request(id) })
            .collect();
        for forged in &forged_batch {
            assert!(!keys.verify_request(forged));
        }
        assert!(!keys.verify_requests(&forged_batch));
        assert!(keys.is_empty());
        assert_eq!(keys.memory_usage(), 0);
    }

    #[test]
    fn client_key_cache_never_exceeds_its_capacity() {
        let mut keys = ClientMacKeys::new(SEED);
        for id in 0..3 * ClientMacKeys::CAPACITY as u32 {
            assert!(keys.verify_request(&request(id)));
            assert!(keys.len() <= ClientMacKeys::CAPACITY);
        }
        assert!(!keys.is_empty());
        assert!(keys.memory_usage() >= keys.len() * std::mem::size_of::<MacKey>());
    }

    /// An authentic request from client `id`.
    fn request(id: u32) -> Request {
        let rid = RequestId { client: ClientId(id), timestamp: splitbft_types::Timestamp(7) };
        let op = id.to_le_bytes();
        let auth = client_mac_key(SEED, ClientId(id)).tag(&Request::auth_bytes(rid, &op, false));
        Request { id: rid, op: op.to_vec().into(), encrypted: false, auth }
    }

    #[test]
    fn batch_verification_is_all_or_nothing() {
        let mut keys = ClientMacKeys::new(SEED);
        let mut batch: Vec<Request> = (0..8).map(request).collect();
        batch[5].auth[0] ^= 1;
        assert!(!keys.verify_requests(&batch));
        assert!(keys.is_empty());
        batch[5] = request(5);
        assert!(keys.verify_requests(&batch));
        assert_eq!(keys.len(), 8);
        // Remembered keys give the same verdicts.
        assert!(keys.verify_requests(&batch));
        batch[0].auth[31] ^= 0x80;
        assert!(!keys.verify_requests(&batch));
        assert!(keys.verify_requests(&[]));
    }

    #[test]
    fn streamed_macs_equal_the_macs_over_the_materialised_bytes() {
        let mut keys = ClientMacKeys::new(SEED);
        let good = request(3);
        assert!(keys.verify_request(&good));
        assert_eq!(keys.len(), 1, "a verified request earns its client a slot");
        assert!(!keys.verify_request(&Request { encrypted: true, ..good.clone() }));
        for client in [3, 9] {
            let id = RequestId { client: ClientId(client), ..good.id };
            let expected = client_mac_key(SEED, ClientId(client))
                .tag(&Reply::auth_bytes(View(2), id, ReplicaId(1), b"result", true));
            assert_eq!(keys.reply_tag(View(2), id, ReplicaId(1), b"result", true), expected);
        }
        assert_eq!(keys.len(), 1, "tagging a reply remembers nothing");
    }

    #[test]
    fn different_signers_get_different_keys() {
        let a = KeyPair::for_signer(7, SignerId::Replica(ReplicaId(0)));
        let b = KeyPair::for_signer(7, SignerId::Replica(ReplicaId(1)));
        assert_ne!(a.public_key(), b.public_key());
        // And different master seeds give different keys too.
        let c = KeyPair::for_signer(8, SignerId::Replica(ReplicaId(0)));
        assert_ne!(a.public_key(), c.public_key());
    }
}
