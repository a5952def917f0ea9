//! Hosting adapter: [`SplitBftReplica`] (the compartment broker) as a
//! [`Protocol`].
//!
//! The broker is exactly the paper's untrusted host process: it owns
//! batching, timers and network I/O around the three enclaves. This impl
//! lets the whole three-compartment replica drop into any `splitbft-net`
//! runtime, including the TCP socket runtime used by `splitbft-node`.

use crate::replica::{ReplicaEvent, SplitBftReplica};
use splitbft_app::Application;
use splitbft_net::transport::{Protocol, ProtocolGauges, ProtocolOutput};
use splitbft_types::{
    ConsensusMessage, DurableCheckpoint, DurableEvent, ProtocolError, Request, SeqNum,
};

/// Drains the broker's event buffer (which it keeps for its next call)
/// into the outputs the runtime acts on, allocated once at their count.
fn to_outputs(events: &mut Vec<ReplicaEvent>) -> Vec<ProtocolOutput<ConsensusMessage>> {
    let on_the_network = events
        .iter()
        .filter(|e| matches!(e, ReplicaEvent::Broadcast(_) | ReplicaEvent::Reply { .. }))
        .count();
    let mut outputs = Vec::with_capacity(on_the_network);
    outputs.extend(events.drain(..).filter_map(|event| match event {
        ReplicaEvent::Broadcast(msg) => Some(ProtocolOutput::Broadcast(msg)),
        ReplicaEvent::Reply { to, reply } => Some(ProtocolOutput::Reply { to, reply }),
        // Persistence, compartment telemetry and rejection events
        // have no network footprint.
        _ => None,
    }));
    outputs
}

impl<A: Application + 'static> Protocol for SplitBftReplica<A> {
    type Message = ConsensusMessage;

    fn on_message(&mut self, msg: ConsensusMessage) -> Vec<ProtocolOutput<ConsensusMessage>> {
        to_outputs(self.deliver_network_message(msg))
    }

    fn on_client_requests(
        &mut self,
        requests: Vec<Request>,
    ) -> Vec<ProtocolOutput<ConsensusMessage>> {
        to_outputs(self.deliver_client_batch(requests))
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<ConsensusMessage>> {
        to_outputs(self.deliver_view_timeout())
    }

    fn progress(&self) -> u64 {
        self.last_executed().0
    }

    fn has_pending_requests(&self) -> bool {
        SplitBftReplica::has_pending_requests(self)
    }

    fn probe_gauges(&self, gauges: &mut ProtocolGauges) {
        // The preparation compartment leads view changes; the other two
        // follow, so its view is the replica's externally visible one.
        gauges.add_group(self.last_executed().0, 0, self.views().0 .0, self.stable_seq().0);
        gauges.pending_requests += u64::from(SplitBftReplica::has_pending_requests(self));
    }

    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        self.enable_durable_events();
        SplitBftReplica::drain_durable_events(self)
    }

    fn replay_durable_event(&mut self, event: DurableEvent) {
        SplitBftReplica::replay_durable_event(self, event)
    }

    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        SplitBftReplica::durable_checkpoint(self)
    }

    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        self.restore_durable_checkpoint(cp)
    }

    fn catch_up_messages(&self, have_seq: SeqNum) -> Vec<ConsensusMessage> {
        // The broker's suffix ring: committed proposals + their commit
        // votes, retained above the stable checkpoint even though the
        // compartments themselves discard executed slots. Lagging peers
        // recover from this log path like pbft does; a stable checkpoint
        // only covers what lies at or below it.
        SplitBftReplica::catch_up_messages(self, have_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_app::CounterApp;
    use splitbft_tee::{CostModel, ExecMode};
    use splitbft_types::{ClusterConfig, ReplicaId};

    #[test]
    fn broker_hosts_as_protocol() {
        let cfg = ClusterConfig::new(4).unwrap();
        let mut replica = SplitBftReplica::new(
            cfg,
            ReplicaId(1),
            42,
            CounterApp::new(),
            ExecMode::Hardware,
            CostModel::paper_calibrated(),
        );
        // A non-primary replica with no traffic produces no outputs on a
        // timeout-free tick; the point is that the trait object routes.
        let outputs = Protocol::on_timeout(&mut replica);
        let _ = outputs;
    }
}
