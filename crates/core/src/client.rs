//! The SplitBFT client: attestation, session-key installation, encrypted
//! requests, and reply-quorum collection.
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
use splitbft_crypto::aead::{open, seal, AeadKey};
use splitbft_crypto::sig::{dh_public, dh_shared};
use splitbft_crypto::{client_mac_key, digest_bytes, MacKey};
use splitbft_tee::attest::{AttestationError, PlatformAuthority, Quote};
use splitbft_types::wire::Encode;
use splitbft_types::{
    ClientId, ClusterConfig, CompartmentKind, PublicKey, ReplicaId, Reply, Request, RequestId,
    Timestamp,
};
use std::collections::BTreeMap;

/// Wrapping nonce for session-key installation (must match the Execution
/// compartment).
const WRAP_NONCE: u64 = 0;

/// Outcome of delivering a reply to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitClientEvent {
    /// Waiting for more matching replies.
    Pending,
    /// The operation completed with this (decrypted) result.
    Completed(Bytes),
    /// The reply was ignored.
    Ignored,
}

/// A confidential SplitBFT client.
#[derive(Debug)]
pub struct SplitBftClient {
    id: ClientId,
    config: ClusterConfig,
    mac: MacKey,
    session_key_bytes: [u8; 32],
    session: AeadKey,
    dh_secret: u64,
    /// When `false`, requests are sent in plaintext (the non-confidential
    /// deployment used for like-for-like performance comparison).
    encrypt: bool,
    next_timestamp: Timestamp,
    in_flight: Option<(RequestId, BTreeMap<ReplicaId, Bytes>)>,
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
            id,
            config,
            mac: client_mac_key(master_seed, id),
            session: AeadKey::new(&session_key_bytes),
            session_key_bytes,
            dh_secret,
            encrypt: true,
            next_timestamp: Timestamp(1),
            in_flight: None,
        }
    }

    /// Disables request encryption (plaintext mode, used by performance
    /// comparisons where the baseline has no confidentiality either).
    #[must_use]
    pub fn with_plaintext(mut self) -> Self {
        self.encrypt = false;
        self
    }

    /// Resumes this client identity at `timestamp`. Replicas suppress
    /// duplicates by each client's last-seen timestamp, so a *new
    /// session* of a previously-used client id must start above every
    /// timestamp it ever issued — deployed clients use wall-clock time.
    pub fn starting_at(mut self, timestamp: Timestamp) -> Self {
        self.next_timestamp = timestamp;
        self
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// `true` if a request is outstanding.
    pub fn has_in_flight(&self) -> bool {
        self.in_flight.is_some()
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
        self.id.encode_to(&mut aad);
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
        assert!(self.in_flight.is_none(), "client already has a request in flight");
        let id = RequestId { client: self.id, timestamp: self.next_timestamp };
        self.next_timestamp = self.next_timestamp.next();
        let (payload, encrypted) = if self.encrypt {
            (Bytes::from(seal(&self.session, id.timestamp.0, REQ_AAD, op)), true)
        } else {
            (Bytes::copy_from_slice(op), false)
        };
        let auth = self.mac.request_tag(id, &payload, encrypted);
        self.in_flight = Some((id, BTreeMap::new()));
        Request { id, op: payload, encrypted, auth }
    }

    /// Delivers one replica reply; completes on `f + 1` matching results
    /// (decrypting them if the request was confidential).
    pub fn on_reply(&mut self, reply: &Reply) -> SplitClientEvent {
        let Some((request, replies)) = self.in_flight.as_mut() else {
            return SplitClientEvent::Ignored;
        };
        if reply.request != *request {
            return SplitClientEvent::Ignored;
        }
        let expected = self.mac.reply_tag(reply.view, reply.request, reply.replica, &reply.result, reply.encrypted);
        if !splitbft_crypto::hmac::ct_eq(&expected, &reply.auth) {
            return SplitClientEvent::Ignored;
        }
        replies.insert(reply.replica, reply.result.clone());

        let mut counts: BTreeMap<&[u8], usize> = BTreeMap::new();
        for result in replies.values() {
            *counts.entry(result.as_ref()).or_insert(0) += 1;
        }
        let quorum = self.config.reply_quorum();
        let Some((&winner, _)) = counts.iter().find(|(_, &n)| n >= quorum) else {
            return SplitClientEvent::Pending;
        };
        let timestamp = request.timestamp.0;
        let winner = winner.to_vec();
        self.in_flight = None;

        if reply.encrypted || self.encrypt {
            match open(&self.session, timestamp, REPLY_AAD, &winner) {
                Ok(plain) => SplitClientEvent::Completed(Bytes::from(plain)),
                // A quorum agreed on a result the client cannot decrypt:
                // this happens when the request was executed as a no-op
                // (e.g. before the session key was installed) — surface
                // the raw bytes.
                Err(_) => SplitClientEvent::Completed(Bytes::from(winner)),
            }
        } else {
            SplitClientEvent::Completed(Bytes::from(winner))
        }
    }

    /// Abandons the in-flight request (client-side timeout path).
    pub fn abort_in_flight(&mut self) {
        self.in_flight = None;
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
