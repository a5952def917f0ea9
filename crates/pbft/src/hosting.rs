//! Hosting adapter: [`Replica`] as a [`Protocol`].
//!
//! With this impl a PBFT replica drops unchanged into any
//! `splitbft-net` runtime — the in-memory [`Cluster`] or the deployable
//! [`EventedNode`] — which is how the socket demo and the
//! `splitbft-node` binary run the baseline.
//!
//! [`Cluster`]: splitbft_net::lockstep::Cluster
//! [`EventedNode`]: splitbft_net::evented::EventedNode

use crate::action::Action;
use crate::replica::Replica;
use splitbft_app::Application;
use splitbft_net::transport::{Protocol, ProtocolGauges, ProtocolOutput};
use splitbft_types::{
    ConsensusMessage, DurableCheckpoint, DurableEvent, ProtocolError, Request, SeqNum,
};

fn to_outputs(actions: Vec<Action>) -> Vec<ProtocolOutput<ConsensusMessage>> {
    actions
        .into_iter()
        .filter_map(|action| match action {
            Action::Broadcast { msg } => Some(ProtocolOutput::Broadcast(msg)),
            Action::Send { to, msg } => Some(ProtocolOutput::Send { to, msg }),
            Action::SendReply { to, reply } => Some(ProtocolOutput::Reply { to, reply }),
            // Persistence and observability actions have no network
            // footprint; runtimes that care (the simulator, the model
            // checker) consume Actions directly instead.
            _ => None,
        })
        .collect()
}

impl<A: Application + 'static> Protocol for Replica<A> {
    type Message = ConsensusMessage;

    fn on_message(&mut self, msg: ConsensusMessage) -> Vec<ProtocolOutput<ConsensusMessage>> {
        // A malformed or unverifiable message yields no outputs — the
        // byzantine-tolerant stance is to ignore it, not to crash.
        to_outputs(Replica::on_message(self, msg).unwrap_or_default())
    }

    fn on_client_requests(
        &mut self,
        requests: Vec<Request>,
    ) -> Vec<ProtocolOutput<ConsensusMessage>> {
        to_outputs(self.on_client_batch(requests))
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<ConsensusMessage>> {
        to_outputs(self.on_view_timeout())
    }

    fn progress(&self) -> u64 {
        self.last_executed().0
    }

    fn has_pending_requests(&self) -> bool {
        Replica::has_pending_requests(self)
    }

    fn probe_gauges(&self, gauges: &mut ProtocolGauges) {
        gauges.add_group(self.last_executed().0, 0, self.view().0, self.stable_seq().0);
        gauges.pending_requests += u64::from(Replica::has_pending_requests(self));
    }

    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        self.enable_durable_events();
        Replica::drain_durable_events(self)
    }

    fn replay_durable_event(&mut self, event: DurableEvent) {
        Replica::replay_durable_event(self, event)
    }

    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        Replica::durable_checkpoint(self)
    }

    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        self.restore_durable_checkpoint(cp)
    }

    fn catch_up_messages(&self, have_seq: SeqNum) -> Vec<ConsensusMessage> {
        Replica::catch_up_messages(self, have_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::make_request;
    use splitbft_app::CounterApp;
    use splitbft_types::{ClientId, ClusterConfig, ReplicaId, Timestamp};

    #[test]
    fn replica_hosts_as_protocol() {
        let cfg = ClusterConfig::new(4).unwrap();
        let mut primary: Replica<CounterApp> =
            Replica::new(cfg, ReplicaId(0), 42, CounterApp::new());
        let request =
            make_request(42, ClientId(0), Timestamp(1), bytes::Bytes::from_static(b"inc"));
        let outputs = Protocol::on_client_requests(&mut primary, vec![request]);
        assert!(
            outputs.iter().any(|o| matches!(o, ProtocolOutput::Broadcast(_))),
            "primary should broadcast a PrePrepare"
        );
    }
}
