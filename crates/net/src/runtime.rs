//! A threaded in-process cluster runtime.
//!
//! Each node runs on its own OS thread (mirroring the paper's deployment
//! of one SplitBFT process per VM) and exchanges messages over in-process
//! channels. The runnable examples use this to demonstrate live clusters
//! without sockets; the TCP counterpart is [`crate::evented::EventedNode`], and
//! both host the same [`Protocol`] state machines unchanged.

use crate::fault::{FaultDecision, FaultPlan};
use crate::transport::{Protocol, ProtocolOutput, WireMessage};
use splitbft_types::{ClientId, ReplicaId, Reply, Request};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Inputs a hosted node can receive.
#[derive(Debug, Clone)]
pub enum NodeInput<M> {
    /// A protocol message from a peer.
    Message(M),
    /// Client requests (delivered to the node acting as primary).
    ClientRequests(Vec<Request>),
    /// The view-change timer fired.
    ViewTimeout,
    /// Stop the node thread.
    Shutdown,
}

/// A handle to one running node.
#[derive(Debug)]
pub struct NodeHandle<M> {
    /// The node's replica id.
    pub id: ReplicaId,
    sender: Sender<NodeInput<M>>,
    thread: Option<JoinHandle<()>>,
}

/// An in-process cluster of protocol nodes on threads.
///
/// Generic over the message vocabulary, so it hosts any [`Protocol`]:
/// PBFT and SplitBFT clusters exchange `ConsensusMessage`s, hybrid
/// clusters exchange `HybridMessage`s.
#[derive(Debug)]
pub struct ThreadedCluster<M> {
    nodes: Vec<NodeHandle<M>>,
    replies: Receiver<(ClientId, Reply)>,
    /// Per-node mirror of `(shard_progress(), shard_fsyncs())`, updated
    /// by each node thread after every input — the in-process analog of
    /// the TCP runtime's gauges, so sharded tests can watch every
    /// group's progress without sockets.
    shard_gauges: Arc<Mutex<Vec<(Vec<u64>, Vec<u64>)>>>,
}

impl<M: WireMessage> ThreadedCluster<M> {
    /// Spawns one thread per node. `make` builds the protocol replica for
    /// each index.
    pub fn spawn<P>(n: usize, make: impl Fn(ReplicaId) -> P) -> Self
    where
        P: Protocol<Message = M>,
    {
        Self::spawn_with_faults(n, FaultPlan::shared(0), make)
    }

    /// Like [`ThreadedCluster::spawn`], but every peer-to-peer send first
    /// consults the shared `faults` plan — the same hook the TCP runtime
    /// places in its outboxes, so in-process chaos tests exercise the
    /// deployment semantics. Replies to clients are never faulted (the
    /// plan models the replica interconnect, not the client edge).
    pub fn spawn_with_faults<P>(
        n: usize,
        faults: Arc<FaultPlan>,
        make: impl Fn(ReplicaId) -> P,
    ) -> Self
    where
        P: Protocol<Message = M>,
    {
        let (reply_tx, reply_rx) = channel();
        let channels: Vec<(Sender<NodeInput<M>>, Receiver<NodeInput<M>>)> =
            (0..n).map(|_| channel()).collect();
        let senders: Vec<Sender<NodeInput<M>>> =
            channels.iter().map(|(tx, _)| tx.clone()).collect();
        let shard_gauges = Arc::new(Mutex::new(vec![(Vec::new(), Vec::new()); n]));

        let mut nodes = Vec::with_capacity(n);
        for (i, (tx, rx)) in channels.into_iter().enumerate() {
            let id = ReplicaId(i as u32);
            let mut protocol = make(id);
            let peers = senders.clone();
            let replies = reply_tx.clone();
            let faults = Arc::clone(&faults);
            let gauges = Arc::clone(&shard_gauges);
            let thread = std::thread::Builder::new()
                .name(format!("splitbft-node-{i}"))
                .spawn(move || {
                    let deliver = |to: usize, msg: M| {
                        match faults.decide(id, ReplicaId(to as u32)) {
                            FaultDecision::Deliver => {
                                if let Some(peer) = peers.get(to) {
                                    let _ = peer.send(NodeInput::Message(msg));
                                }
                            }
                            FaultDecision::Drop => {}
                            FaultDecision::Duplicate => {
                                if let Some(peer) = peers.get(to) {
                                    let _ = peer.send(NodeInput::Message(msg.clone()));
                                    let _ = peer.send(NodeInput::Message(msg));
                                }
                            }
                            FaultDecision::DeliverAfter(delay) => {
                                // Held back on a sleeper thread so later
                                // sends overtake it, as on the wire.
                                if let Some(peer) = peers.get(to).cloned() {
                                    let _ = std::thread::Builder::new()
                                        .name(format!("splitbft-delay-{i}-to-{to}"))
                                        .spawn(move || {
                                            std::thread::sleep(delay);
                                            let _ = peer.send(NodeInput::Message(msg));
                                        });
                                }
                            }
                        }
                    };
                    while let Ok(input) = rx.recv() {
                        let outputs = match input {
                            NodeInput::Message(msg) => protocol.on_message(msg),
                            NodeInput::ClientRequests(reqs) => protocol.on_client_requests(reqs),
                            NodeInput::ViewTimeout => protocol.on_timeout(),
                            NodeInput::Shutdown => break,
                        };
                        if let Ok(mut gauges) = gauges.lock() {
                            gauges[i] = (protocol.shard_progress(), protocol.shard_fsyncs());
                        }
                        for output in outputs {
                            match output {
                                ProtocolOutput::Broadcast(msg) => {
                                    for j in 0..peers.len() {
                                        if j != i {
                                            deliver(j, msg.clone());
                                        }
                                    }
                                }
                                ProtocolOutput::Send { to, msg } => {
                                    // Self-sends are dropped, matching the
                                    // TCP runtime's semantics.
                                    if to.as_usize() != i {
                                        deliver(to.as_usize(), msg);
                                    }
                                }
                                ProtocolOutput::Reply { to, reply } => {
                                    let _ = replies.send((to, reply));
                                }
                            }
                        }
                    }
                })
                .expect("spawn node thread");
            nodes.push(NodeHandle { id, sender: tx, thread: Some(thread) });
        }
        ThreadedCluster { nodes, replies: reply_rx, shard_gauges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sends client requests to the node at `replica` (typically the
    /// current primary).
    pub fn submit(&self, replica: ReplicaId, requests: Vec<Request>) {
        let _ = self.nodes[replica.as_usize()].sender.send(NodeInput::ClientRequests(requests));
    }

    /// Fires the view-change timer on one node.
    pub fn trigger_timeout(&self, replica: ReplicaId) {
        let _ = self.nodes[replica.as_usize()].sender.send(NodeInput::ViewTimeout);
    }

    /// Injects a raw protocol message into one node (adversarial tests).
    pub fn inject(&self, replica: ReplicaId, msg: M) {
        let _ = self.nodes[replica.as_usize()].sender.send(NodeInput::Message(msg));
    }

    /// The stream of `(client, reply)` pairs produced by the cluster.
    pub fn replies(&self) -> &Receiver<(ClientId, Reply)> {
        &self.replies
    }

    /// Per-shard progress of one node, as observed after its most
    /// recent input — a single entry for unsharded protocols, one per
    /// consensus group for a sharded combinator, empty before the
    /// node's first input.
    pub fn shard_progress(&self, replica: ReplicaId) -> Vec<u64> {
        self.shard_gauges.lock().expect("shard gauges")[replica.as_usize()].0.clone()
    }

    /// Per-shard WAL-fsync counts of one node (see
    /// [`ThreadedCluster::shard_progress`] for the shape).
    pub fn shard_fsyncs(&self, replica: ReplicaId) -> Vec<u64> {
        self.shard_gauges.lock().expect("shard gauges")[replica.as_usize()].1.clone()
    }

    /// Stops all node threads and waits for them.
    pub fn shutdown(mut self) {
        for node in &self.nodes {
            let _ = node.sender.send(NodeInput::Shutdown);
        }
        for node in &mut self.nodes {
            if let Some(thread) = node.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A toy protocol that acks every request batch directly.
    struct Echo {
        id: ReplicaId,
    }

    impl Protocol for Echo {
        type Message = u32;

        fn on_message(&mut self, _msg: u32) -> Vec<ProtocolOutput<u32>> {
            Vec::new()
        }

        fn on_client_requests(&mut self, reqs: Vec<Request>) -> Vec<ProtocolOutput<u32>> {
            reqs.into_iter()
                .map(|r| ProtocolOutput::Reply {
                    to: r.client(),
                    reply: Reply {
                        view: splitbft_types::View(0),
                        request: r.id,
                        replica: self.id,
                        result: r.op,
                        encrypted: false,
                        auth: [0u8; 32],
                    },
                })
                .collect()
        }

        fn on_timeout(&mut self) -> Vec<ProtocolOutput<u32>> {
            Vec::new()
        }
    }

    #[test]
    fn echo_cluster_roundtrip() {
        let cluster = ThreadedCluster::spawn(4, |id| Echo { id });
        assert_eq!(cluster.len(), 4);
        let req = Request {
            id: splitbft_types::RequestId {
                client: ClientId(1),
                timestamp: splitbft_types::Timestamp(1),
            },
            op: bytes::Bytes::from_static(b"ping"),
            encrypted: false,
            auth: [0u8; 32],
        };
        cluster.submit(ReplicaId(2), vec![req]);
        let (client, reply) =
            cluster.replies().recv_timeout(Duration::from_secs(5)).expect("reply");
        assert_eq!(client, ClientId(1));
        assert_eq!(&reply.result[..], b"ping");
        cluster.shutdown();
    }
}
