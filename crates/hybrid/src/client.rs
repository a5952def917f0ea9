//! Client for the hybrid protocol: same reply-quorum logic as PBFT's
//! client, but against the `2f + 1` configuration.

use crate::config::HybridConfig;
use splitbft_crypto::{client_mac_key, MacKey};
use splitbft_types::{ClientId, Reply, ReplicaId, Request, RequestId, Timestamp};
use std::collections::BTreeMap;

/// Outcome of delivering a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HybridClientEvent {
    /// Waiting for more matching replies.
    Pending,
    /// Completed with this result.
    Completed(bytes::Bytes),
    /// Ignored (bad MAC, wrong request).
    Ignored,
}

/// A closed-loop client of the hybrid service.
#[derive(Debug)]
pub struct HybridClient {
    id: ClientId,
    mac: MacKey,
    config: HybridConfig,
    next_timestamp: Timestamp,
    in_flight: Option<(RequestId, BTreeMap<ReplicaId, bytes::Bytes>)>,
}

impl HybridClient {
    /// Creates client `id`.
    pub fn new(config: HybridConfig, id: ClientId, master_seed: u64) -> Self {
        HybridClient {
            id,
            mac: client_mac_key(master_seed, id),
            config,
            next_timestamp: Timestamp(1),
            in_flight: None,
        }
    }


    /// Resumes this client identity at `timestamp`. Replicas suppress
    /// duplicates by each client's last-seen timestamp, so a *new
    /// session* of a previously-used client id must start above every
    /// timestamp it ever issued — deployed clients use wall-clock time.
    pub fn starting_at(mut self, timestamp: Timestamp) -> Self {
        self.next_timestamp = timestamp;
        self
    }

    /// `true` if a request is outstanding.
    pub fn has_in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Issues the next request.
    ///
    /// # Panics
    ///
    /// Panics if one is already in flight.
    pub fn issue(&mut self, op: bytes::Bytes) -> Request {
        assert!(self.in_flight.is_none(), "request already in flight");
        let id = RequestId { client: self.id, timestamp: self.next_timestamp };
        self.next_timestamp = self.next_timestamp.next();
        let auth = self.mac.request_tag(id, &op, false);
        self.in_flight = Some((id, BTreeMap::new()));
        Request { id, op, encrypted: false, auth }
    }

    /// Delivers one reply.
    pub fn on_reply(&mut self, reply: &Reply) -> HybridClientEvent {
        let Some((request, replies)) = self.in_flight.as_mut() else {
            return HybridClientEvent::Ignored;
        };
        if reply.request != *request {
            return HybridClientEvent::Ignored;
        }
        let expected = self.mac.reply_tag(reply.view, reply.request, reply.replica, &reply.result, reply.encrypted);
        if !splitbft_crypto::hmac::ct_eq(&expected, &reply.auth) {
            return HybridClientEvent::Ignored;
        }
        replies.insert(reply.replica, reply.result.clone());

        let mut counts: BTreeMap<&[u8], usize> = BTreeMap::new();
        for result in replies.values() {
            *counts.entry(result.as_ref()).or_insert(0) += 1;
        }
        if let Some((&result, _)) =
            counts.iter().find(|(_, &n)| n >= self.config.reply_quorum())
        {
            let result = bytes::Bytes::copy_from_slice(result);
            self.in_flight = None;
            return HybridClientEvent::Completed(result);
        }
        HybridClientEvent::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use splitbft_types::View;

    const SEED: u64 = 3;

    fn reply(request: RequestId, replica: u32, result: &'static [u8]) -> Reply {
        let mac = client_mac_key(SEED, request.client);
        let result = Bytes::from_static(result);
        let auth =
            mac.reply_tag(View(0), request, ReplicaId(replica), &result, false);
        Reply { view: View(0), request, replica: ReplicaId(replica), result, encrypted: false, auth }
    }

    #[test]
    fn completes_on_f_plus_1() {
        let cfg = HybridConfig::new(3).unwrap();
        let mut c = HybridClient::new(cfg, ClientId(0), SEED);
        let req = c.issue(Bytes::from_static(b"x"));
        assert_eq!(c.on_reply(&reply(req.id, 0, b"ok")), HybridClientEvent::Pending);
        assert_eq!(
            c.on_reply(&reply(req.id, 1, b"ok")),
            HybridClientEvent::Completed(Bytes::from_static(b"ok"))
        );
        assert!(!c.has_in_flight());
    }

    #[test]
    fn forged_reply_ignored() {
        let cfg = HybridConfig::new(3).unwrap();
        let mut c = HybridClient::new(cfg, ClientId(0), SEED);
        let req = c.issue(Bytes::from_static(b"x"));
        let mut forged = reply(req.id, 0, b"evil");
        forged.auth = [0u8; 32];
        assert_eq!(c.on_reply(&forged), HybridClientEvent::Ignored);
    }
}
