//! The SplitBFT client: attestation, session-key installation and
//! request/result encryption around the shared [`LockstepClient`], which
//! authenticates requests and collects the reply quorum.
//!
//! Paper §4, step 1: "the client first attests to the execution and
//! preparation enclave verifying their genuineness and SGX support. When
//! the attestation is successful, the client provides the execution
//! enclave with a session key to encrypt requests and preserve their
//! confidentiality from the untrusted environment and the rest of the
//! enclaves. The encrypted requests are then signed for authentication."

use crate::exec::{REPLY_AAD, REQ_AAD};
use crate::scheme::compartment_measurement;
use bytes::Bytes;
use splitbft_app::{ClientEvent, LockstepClient};
use splitbft_crypto::aead::{open, seal, AeadKey};
use splitbft_crypto::digest_bytes;
use splitbft_crypto::sig::{dh_public, dh_shared};
use splitbft_tee::attest::{AttestationError, PlatformAuthority, Quote};
use splitbft_types::wire::Encode;
use splitbft_types::{
    ClientId, ClusterConfig, CompartmentKind, PublicKey, Reply, Request, Timestamp,
};

/// Wrapping nonce for session-key installation (must match the Execution
/// compartment).
const WRAP_NONCE: u64 = 0;

/// A confidential SplitBFT client.
#[derive(Debug)]
pub struct SplitBftClient {
    /// Request authentication and the `f + 1` reply quorum.
    inner: LockstepClient,
    session_key_bytes: [u8; 32],
    session: AeadKey,
    dh_secret: u64,
    /// When `false`, requests are sent in plaintext (the non-confidential
    /// deployment used for like-for-like performance comparison).
    encrypt: bool,
}

impl SplitBftClient {
    /// Creates client `id`. `client_seed` seeds the client's session key
    /// and DH secret (distinct from the cluster `master_seed`, which only
    /// provides the shared request-MAC key).
    pub fn new(config: ClusterConfig, id: ClientId, master_seed: u64, client_seed: u64) -> Self {
        let session_key_bytes =
            digest_bytes(&[b"session".as_slice(), &client_seed.to_le_bytes(), &id.0.to_le_bytes()].concat()).0;
        let dh_digest =
            digest_bytes(&[b"client-dh".as_slice(), &client_seed.to_le_bytes()].concat());
        let dh_secret = u64::from_le_bytes(dh_digest.0[..8].try_into().expect("8 bytes"));
        SplitBftClient {
            inner: LockstepClient::new(config.reply_quorum(), id, master_seed),
            session: AeadKey::new(&session_key_bytes),
            session_key_bytes,
            dh_secret,
            encrypt: true,
        }
    }

    /// Disables request encryption (plaintext mode, used by performance
    /// comparisons where the baseline has no confidentiality either).
    #[must_use]
    pub fn with_plaintext(mut self) -> Self {
        self.encrypt = false;
        self
    }

    /// Resumes this client identity at `timestamp` (see
    /// [`LockstepClient::starting_at`]).
    #[must_use]
    pub fn starting_at(mut self, timestamp: Timestamp) -> Self {
        self.inner = self.inner.starting_at(timestamp);
        self
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.inner.id()
    }

    /// Verifies an Execution enclave's attestation quote and produces the
    /// session-key installation message for that replica: the client's DH
    /// public value and the session key wrapped under the DH shared
    /// secret.
    ///
    /// # Errors
    ///
    /// [`AttestationError`] if the quote is forged or attests the wrong
    /// enclave code.
    pub fn attest_execution_enclave(
        &self,
        authority_key: &PublicKey,
        quote: &Quote,
    ) -> Result<(u64, Vec<u8>), AttestationError> {
        let expected = compartment_measurement(CompartmentKind::Execution);
        PlatformAuthority::verify(authority_key, &expected, quote)?;
        let enclave_dh = u64::from_le_bytes(
            quote.report_data.get(..8).and_then(|s| s.try_into().ok()).ok_or(
                AttestationError::BadSignature,
            )?,
        );
        let shared = dh_shared(self.dh_secret, enclave_dh);
        let wrap_key = AeadKey::new(&digest_bytes(&shared.to_le_bytes()).0);
        let mut aad = b"session-key:".to_vec();
        self.id().encode_to(&mut aad);
        let wrapped = seal(&wrap_key, WRAP_NONCE, &aad, &self.session_key_bytes);
        Ok((dh_public(self.dh_secret), wrapped))
    }

    /// Issues the next request; the operation is encrypted under the
    /// session key unless plaintext mode is enabled.
    ///
    /// # Panics
    ///
    /// Panics if a request is already in flight (closed-loop contract).
    pub fn issue(&mut self, op: &[u8]) -> Request {
        if !self.encrypt {
            return self.inner.issue(Bytes::copy_from_slice(op));
        }
        // The deterministic nonce is the request's own timestamp.
        let nonce = self.inner.next_request_id().timestamp.0;
        self.inner.issue_payload(Bytes::from(seal(&self.session, nonce, REQ_AAD, op)), true)
    }

    /// Delivers one replica reply; completes on `f + 1` matching results
    /// (decrypting them if the request was confidential).
    pub fn on_reply(&mut self, reply: &Reply) -> ClientEvent {
        match self.inner.on_reply(reply) {
            ClientEvent::Completed(winner) if reply.encrypted || self.encrypt => {
                // A quorum may agree on a result the client cannot
                // decrypt: the request was executed as a no-op (e.g.
                // before the session key was installed) — surface the raw
                // bytes.
                let nonce = reply.request.timestamp.0;
                match open(&self.session, nonce, REPLY_AAD, &winner) {
                    Ok(plain) => ClientEvent::Completed(Bytes::from(plain)),
                    Err(_) => ClientEvent::Completed(winner),
                }
            }
            event => event,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plaintext_mode_issues_plain_requests() {
        let cfg = ClusterConfig::new(4).unwrap();
        let mut c = SplitBftClient::new(cfg, ClientId(0), 1, 2).with_plaintext();
        let req = c.issue(b"op-bytes");
        assert!(!req.encrypted);
        assert_eq!(&req.op[..], b"op-bytes");
    }

    #[test]
    fn encrypted_mode_hides_the_operation() {
        let cfg = ClusterConfig::new(4).unwrap();
        let mut c = SplitBftClient::new(cfg, ClientId(0), 1, 2);
        let req = c.issue(b"secret-operation");
        assert!(req.encrypted);
        assert_ne!(&req.op[..], b"secret-operation");
        assert!(!req
            .op
            .windows(b"secret".len())
            .any(|w| w == b"secret"), "plaintext leaked into ciphertext");
    }

    #[test]
    fn forged_quote_rejected() {
        let cfg = ClusterConfig::new(4).unwrap();
        let c = SplitBftClient::new(cfg, ClientId(0), 1, 2);
        let real = PlatformAuthority::from_seed(9);
        let fake = PlatformAuthority::from_seed(10);
        let quote = fake.quote(
            compartment_measurement(CompartmentKind::Execution),
            7u64.to_le_bytes().to_vec(),
        );
        assert!(c.attest_execution_enclave(&real.public_key(), &quote).is_err());
    }

    #[test]
    fn quote_for_wrong_compartment_rejected() {
        // A compromised broker presents a (genuine) quote of the
        // *Preparation* enclave hoping the client installs its session
        // key somewhere it can be read. The measurement check stops it.
        let cfg = ClusterConfig::new(4).unwrap();
        let c = SplitBftClient::new(cfg, ClientId(0), 1, 2);
        let authority = PlatformAuthority::from_seed(9);
        let quote = authority.quote(
            compartment_measurement(CompartmentKind::Preparation),
            7u64.to_le_bytes().to_vec(),
        );
        assert_eq!(
            c.attest_execution_enclave(&authority.public_key(), &quote),
            Err(AttestationError::WrongMeasurement)
        );
    }
}
