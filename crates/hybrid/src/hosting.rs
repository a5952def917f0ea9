//! Hosting adapter: [`HybridReplica`] as a [`Protocol`].
//!
//! The hybrid baseline speaks its own two-phase message vocabulary
//! ([`HybridMessage`]), which is why [`Protocol::Message`] is an
//! associated type rather than a fixed `ConsensusMessage`: the same
//! runtimes host MinBFT-style clusters without any enum-wrapping.

use crate::message::HybridMessage;
use crate::replica::{HybridAction, HybridReplica};
use crate::usig::UsigTrait;
use splitbft_app::Application;
use splitbft_net::transport::{Protocol, ProtocolOutput};
use splitbft_types::{DurableCheckpoint, DurableEvent, ProtocolError, Request};

fn to_outputs(actions: Vec<HybridAction>) -> Vec<ProtocolOutput<HybridMessage>> {
    actions
        .into_iter()
        .filter_map(|action| match action {
            HybridAction::Broadcast(msg) => Some(ProtocolOutput::Broadcast(msg)),
            HybridAction::SendReply { to, reply } => Some(ProtocolOutput::Reply { to, reply }),
            // Persistence and observability have no network footprint.
            _ => None,
        })
        .collect()
}

impl<A, U> Protocol for HybridReplica<A, U>
where
    A: Application + 'static,
    U: UsigTrait + Send + 'static,
{
    type Message = HybridMessage;

    fn on_message(&mut self, msg: HybridMessage) -> Vec<ProtocolOutput<HybridMessage>> {
        // Unverifiable USIG certificates and malformed messages are
        // ignored, not fatal — byzantine peers may send anything.
        to_outputs(HybridReplica::on_message(self, msg).unwrap_or_default())
    }

    fn on_client_requests(&mut self, requests: Vec<Request>) -> Vec<ProtocolOutput<HybridMessage>> {
        to_outputs(self.on_client_batch(requests))
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<HybridMessage>> {
        // The MinBFT view change is out of scope (see the crate docs);
        // timeouts are a no-op rather than an error.
        Vec::new()
    }

    fn progress(&self) -> u64 {
        self.last_executed()
    }

    fn has_pending_requests(&self) -> bool {
        // With no view change to fire, reporting pending requests would
        // only make runtimes call the no-op timeout handler; keep the
        // timer permanently quiet instead.
        false
    }

    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        self.enable_durable_events();
        HybridReplica::drain_durable_events(self)
    }

    fn replay_durable_event(&mut self, event: DurableEvent) {
        HybridReplica::replay_durable_event(self, event)
    }

    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        HybridReplica::durable_checkpoint(self)
    }

    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        self.restore_durable_checkpoint(cp)
    }

    // `catch_up_messages` keeps the empty default: executed slots are
    // discarded, so lagging peers recover from the snapshot plus the
    // live message stream (re-requesting until they reconnect to it).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HybridConfig;
    use crate::usig::Usig;
    use splitbft_app::{CounterApp, LockstepClient};
    use splitbft_types::{ClientId, ReplicaId};

    #[test]
    fn hybrid_replica_hosts_as_protocol() {
        let config = HybridConfig::new(3).unwrap();
        let mut primary = HybridReplica::new(
            config.clone(),
            ReplicaId(0),
            42,
            Usig::new(42, ReplicaId(0)),
            CounterApp::new(),
        );
        let mut client = LockstepClient::new(config.reply_quorum(), ClientId(1), 42);
        let request = client.issue(bytes::Bytes::from_static(b"inc"));
        let outputs = Protocol::on_client_requests(&mut primary, vec![request]);
        assert!(
            outputs.iter().any(|o| matches!(o, ProtocolOutput::Broadcast(_))),
            "primary should broadcast a Prepare"
        );
    }
}
