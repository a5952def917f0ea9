//! Adversarial replica modes.
//!
//! A Byzantine mode wraps the *honest* replica state machine and
//! mutates its outputs on the way to the runtime — the replica itself
//! stays correct, which is exactly the paper's threat model for a
//! compromised host: the protocol logic inside the TEE is intact, the
//! untrusted environment around it misbehaves. Three modes:
//!
//! - `equivocating-primary` — when the wrapped replica broadcasts a
//!   `PrePrepare`, the wrapper splits the broadcast: one peer receives
//!   the honest proposal, a second receives a *conflicting* proposal for
//!   the same `(view, seq)` forged with [`Adversary`] (well-signed under
//!   the replica's own compromised key, carrying an authenticated
//!   fabricated batch), and the remaining peers receive nothing. No
//!   prepare quorum can form for either digest, so honest replicas
//!   view-change past the equivocator — safety holds, liveness
//!   recovers.
//! - `silent-backup` — every output is swallowed. Equivalent to a crash
//!   fault that the failure detector cannot distinguish from a slow
//!   link; the cluster must mask it within `f`.
//! - `corrupt-mac` — every outbound message keeps its content but has
//!   one authenticator byte flipped (signature byte for the `3f + 1`
//!   stacks' signed messages, USIG signature byte for the hybrid, reply
//!   MAC byte for client replies). Honest receivers must reject the
//!   frames, degrading this replica to silence *through the crypto
//!   layer* rather than before it.
//!
//! Without a mode the wrapper passes everything through unchanged, so
//! one cluster type hosts honest and Byzantine replicas side by side
//! (the fault catalog in [`crate::chaos`] does). It sits **inside** the
//! durability plane (`DurableProtocol` wraps `ByzantineProtocol` wraps
//! the replica): mutations happen before output-withholding, so the
//! WAL-before-network invariant of group commit is preserved and the
//! WAL records the honest state machine's events, not the forgeries.

use splitbft_hybrid::HybridMessage;
use crate::Adversary;
use splitbft_net::transport::{Protocol, ProtocolGauges, ProtocolOutput};
use splitbft_types::{
    ConsensusMessage, DurableCheckpoint, DurableEvent, ProtocolError, ReplicaId, SeqNum,
};
use std::fmt;
use std::str::FromStr;

/// Which adversarial behavior a Byzantine replica exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineMode {
    /// Split `PrePrepare` broadcasts into conflicting per-peer sends.
    EquivocatingPrimary,
    /// Swallow every output.
    SilentBackup,
    /// Flip one authenticator byte on every outbound message and reply.
    CorruptMac,
}

impl FromStr for ByzantineMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "equivocating-primary" => Ok(ByzantineMode::EquivocatingPrimary),
            "silent-backup" => Ok(ByzantineMode::SilentBackup),
            "corrupt-mac" => Ok(ByzantineMode::CorruptMac),
            other => Err(format!(
                "unknown byzantine mode {other:?} (expected equivocating-primary, \
                 silent-backup, or corrupt-mac)"
            )),
        }
    }
}

impl fmt::Display for ByzantineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ByzantineMode::EquivocatingPrimary => "equivocating-primary",
            ByzantineMode::SilentBackup => "silent-backup",
            ByzantineMode::CorruptMac => "corrupt-mac",
        })
    }
}

/// What the wrapper must be able to do to a protocol's wire messages.
///
/// Implemented here (the trait is local, so coherence permits it) for
/// both message vocabularies in the workspace; a protocol whose message
/// type implements this can host under every [`ByzantineMode`].
pub trait ByzantineMessage: Sized {
    /// Flips one byte of the message's authenticator so honest
    /// receivers reject it.
    fn corrupt_auth(&mut self);

    /// A conflicting counterpart of this message for the same agreement
    /// slot, forged under the sender's own (compromised) key — or
    /// `None` when this message kind cannot equivocate meaningfully.
    fn equivocate(&self, seed: u64, tag: u8) -> Option<Self>;
}

impl ByzantineMessage for ConsensusMessage {
    fn corrupt_auth(&mut self) {
        match self {
            ConsensusMessage::PrePrepare(m) => m.signature.0[0] ^= 0xFF,
            ConsensusMessage::Prepare(m) => m.signature.0[0] ^= 0xFF,
            ConsensusMessage::Commit(m) => m.signature.0[0] ^= 0xFF,
            ConsensusMessage::Checkpoint(m) => m.signature.0[0] ^= 0xFF,
            ConsensusMessage::ViewChange(m) => m.signature.0[0] ^= 0xFF,
            ConsensusMessage::NewView(m) => m.signature.0[0] ^= 0xFF,
        }
    }

    fn equivocate(&self, seed: u64, tag: u8) -> Option<Self> {
        // Only the ordering proposal equivocates: two well-signed
        // pre-prepares for one (view, seq) with different batches is
        // *the* equivocation the prepare phase exists to mask.
        let ConsensusMessage::PrePrepare(pp) = self else { return None };
        let adversary = Adversary::new(seed, [pp.signer]);
        Some(adversary.forge_pre_prepare(
            pp.signer,
            pp.payload.view,
            pp.payload.seq,
            adversary.evil_batch(tag),
        ))
    }
}

impl ByzantineMessage for HybridMessage {
    fn corrupt_auth(&mut self) {
        self.corrupt_authenticator();
    }

    /// Always `None`: the USIG's monotone counter makes two prepares at
    /// one counter value unforgeable even with the host compromised —
    /// that is the hybrid's whole point. The fault catalog rejects
    /// `equivocating-primary` on the hybrid up front.
    fn equivocate(&self, _seed: u64, _tag: u8) -> Option<Self> {
        None
    }
}

/// The output-mutating wrapper. See the module docs for the modes.
#[derive(Debug)]
pub struct ByzantineProtocol<P> {
    inner: P,
    /// `None` serves honestly.
    mode: Option<ByzantineMode>,
    seed: u64,
    /// The other replicas in id order — the fan-out targets when a
    /// broadcast is split into per-peer sends.
    peers: Vec<ReplicaId>,
    /// Distinguishes successive forged batches (an equivocator that
    /// reuses one forged batch would conflict with itself).
    forgery_tag: u8,
}

impl<P: Protocol> ByzantineProtocol<P>
where
    P::Message: ByzantineMessage,
{
    /// Wraps `inner`, which serves as replica `id` of an `n`-replica
    /// cluster keyed from `seed`, in `mode` (`None`: honestly).
    pub fn new(inner: P, mode: Option<ByzantineMode>, seed: u64, id: ReplicaId, n: usize) -> Self {
        let peers =
            (0..n as u32).map(ReplicaId).filter(|&p| p != id).collect();
        ByzantineProtocol { inner, mode, seed, peers, forgery_tag: 1 }
    }

    fn mutate(
        &mut self,
        outputs: Vec<ProtocolOutput<P::Message>>,
    ) -> Vec<ProtocolOutput<P::Message>> {
        let Some(mode) = self.mode else { return outputs };
        match mode {
            ByzantineMode::SilentBackup => Vec::new(),
            ByzantineMode::CorruptMac => outputs
                .into_iter()
                .map(|out| match out {
                    ProtocolOutput::Broadcast(mut msg) => {
                        msg.corrupt_auth();
                        ProtocolOutput::Broadcast(msg)
                    }
                    ProtocolOutput::Send { to, mut msg } => {
                        msg.corrupt_auth();
                        ProtocolOutput::Send { to, msg }
                    }
                    ProtocolOutput::Reply { to, mut reply } => {
                        reply.auth[0] ^= 0xFF;
                        ProtocolOutput::Reply { to, reply }
                    }
                })
                .collect(),
            ByzantineMode::EquivocatingPrimary => outputs
                .into_iter()
                .flat_map(|out| match out {
                    ProtocolOutput::Broadcast(msg) => {
                        match msg.equivocate(self.seed, self.forgery_tag) {
                            Some(forged) if self.peers.len() >= 2 => {
                                self.forgery_tag = self.forgery_tag.wrapping_add(1).max(1);
                                vec![
                                    ProtocolOutput::Send { to: self.peers[0], msg },
                                    ProtocolOutput::Send { to: self.peers[1], msg: forged },
                                ]
                            }
                            // Non-equivocable kinds (votes, view
                            // changes) flow honestly: the adversary
                            // attacks ordering, not its own liveness.
                            _ => vec![ProtocolOutput::Broadcast(msg)],
                        }
                    }
                    other => vec![other],
                })
                .collect(),
        }
    }
}

impl<P: Protocol> Protocol for ByzantineProtocol<P>
where
    P::Message: ByzantineMessage,
{
    type Message = P::Message;

    fn on_message(&mut self, msg: P::Message) -> Vec<ProtocolOutput<P::Message>> {
        let outputs = self.inner.on_message(msg);
        self.mutate(outputs)
    }

    fn on_client_requests(
        &mut self,
        requests: Vec<splitbft_types::Request>,
    ) -> Vec<ProtocolOutput<P::Message>> {
        let outputs = self.inner.on_client_requests(requests);
        self.mutate(outputs)
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<P::Message>> {
        let outputs = self.inner.on_timeout();
        self.mutate(outputs)
    }

    fn progress(&self) -> u64 {
        self.inner.progress()
    }

    fn has_pending_requests(&self) -> bool {
        self.inner.has_pending_requests()
    }

    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        self.inner.drain_durable_events()
    }

    fn replay_durable_event(&mut self, event: DurableEvent) {
        self.inner.replay_durable_event(event);
    }

    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        self.inner.durable_checkpoint()
    }

    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        self.inner.restore_checkpoint(cp)
    }

    fn catch_up_messages(&self, have_seq: SeqNum) -> Vec<P::Message> {
        match self.mode {
            Some(ByzantineMode::SilentBackup) => Vec::new(),
            Some(ByzantineMode::CorruptMac) => {
                let mut msgs = self.inner.catch_up_messages(have_seq);
                for msg in &mut msgs {
                    msg.corrupt_auth();
                }
                msgs
            }
            Some(ByzantineMode::EquivocatingPrimary) | None => {
                self.inner.catch_up_messages(have_seq)
            }
        }
    }

    fn flush_durable(&mut self) -> Vec<ProtocolOutput<P::Message>> {
        let outputs = self.inner.flush_durable();
        self.mutate(outputs)
    }

    fn durable_fsyncs(&self) -> u64 {
        self.inner.durable_fsyncs()
    }

    fn probe_gauges(&self, gauges: &mut ProtocolGauges) {
        self.inner.probe_gauges(gauges);
    }

    fn drain_seal(&mut self) -> Vec<ProtocolOutput<P::Message>> {
        // Drain-time sealing is local bookkeeping; the byzantine lens
        // only distorts network outputs, which `mutate` still covers.
        let outputs = self.inner.drain_seal();
        self.mutate(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use splitbft_app::CounterApp;
    use splitbft_crypto::{digest_of, KeyRegistry};
    use splitbft_pbft::{make_request, Replica as PbftReplica};
    use splitbft_types::{ClientId, ClusterConfig, Timestamp};

    const SEED: u64 = 11;

    fn primary(mode: ByzantineMode) -> ByzantineProtocol<PbftReplica<CounterApp>> {
        let config = ClusterConfig::new(4).unwrap();
        let replica = PbftReplica::new(config, ReplicaId(0), SEED, CounterApp::new());
        ByzantineProtocol::new(replica, Some(mode), SEED, ReplicaId(0), 4)
    }

    fn one_request() -> Vec<splitbft_types::Request> {
        vec![make_request(SEED, ClientId(1), Timestamp(1), Bytes::from_static(b"inc"))]
    }

    #[test]
    fn equivocating_primary_sends_conflicting_well_signed_pre_prepares() {
        let mut byz = primary(ByzantineMode::EquivocatingPrimary);
        let outputs = byz.on_client_requests(one_request());
        let sends: Vec<_> = outputs
            .iter()
            .filter_map(|out| match out {
                ProtocolOutput::Send { to, msg: ConsensusMessage::PrePrepare(pp) } => {
                    Some((*to, pp))
                }
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 2, "broadcast split into exactly two sends: {outputs:?}");
        let (honest, forged) = (sends[0], sends[1]);
        assert_eq!(honest.0, ReplicaId(1));
        assert_eq!(forged.0, ReplicaId(2));
        // Same slot, different content — the textbook equivocation.
        assert_eq!(honest.1.payload.view, forged.1.payload.view);
        assert_eq!(honest.1.payload.seq, forged.1.payload.seq);
        assert_ne!(
            digest_of(&honest.1.payload.batch),
            digest_of(&forged.1.payload.batch)
        );
        // Both verify: the forgery is signed under the replica's real key.
        let registry = KeyRegistry::with_signers(SEED, [honest.1.signer]);
        assert!(registry.verify_signed(honest.1).is_ok());
        assert!(registry.verify_signed(forged.1).is_ok());
        // No peer beyond the two victims hears anything.
        assert!(!outputs.iter().any(|out| matches!(
            out,
            ProtocolOutput::Broadcast(_)
                | ProtocolOutput::Send { to: ReplicaId(3), .. }
        )));
    }

    #[test]
    fn silent_backup_swallows_everything() {
        let mut byz = primary(ByzantineMode::SilentBackup);
        assert!(byz.on_client_requests(one_request()).is_empty());
        assert!(byz.on_timeout().is_empty());
        assert!(byz.catch_up_messages(SeqNum(0)).is_empty());
    }

    #[test]
    fn corrupt_mac_flips_exactly_one_authenticator_byte() {
        let mut honest = primary(ByzantineMode::CorruptMac);
        let outputs = honest.on_client_requests(one_request());
        let pre_prepare = outputs
            .iter()
            .find_map(|out| match out {
                ProtocolOutput::Broadcast(ConsensusMessage::PrePrepare(pp)) => Some(pp),
                _ => None,
            })
            .expect("primary still broadcasts its proposal");
        // The signature no longer verifies under the replica's key...
        let registry = KeyRegistry::with_signers(SEED, [pre_prepare.signer]);
        assert!(registry.verify_signed(pre_prepare).is_err());
        // ...but un-flipping the byte restores it: content untouched.
        let mut repaired = pre_prepare.clone();
        repaired.signature.0[0] ^= 0xFF;
        assert!(registry.verify_signed(&repaired).is_ok());
    }

    #[test]
    fn mode_strings_roundtrip() {
        for mode in [
            ByzantineMode::EquivocatingPrimary,
            ByzantineMode::SilentBackup,
            ByzantineMode::CorruptMac,
        ] {
            assert_eq!(mode.to_string().parse::<ByzantineMode>().unwrap(), mode);
        }
        assert!("equivocating".parse::<ByzantineMode>().is_err());
    }
}
