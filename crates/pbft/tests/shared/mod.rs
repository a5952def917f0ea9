//! Scenario bodies the PBFT and SplitBFT cluster suites run verbatim —
//! `crates/core/tests/splitbft_cluster.rs` includes this file by path.
//! Both stacks speak `ConsensusMessage` and host as a [`Protocol`], so
//! each scenario is one function over `Cluster<P>`; what only the stack
//! knows (how to build a replica and a request, how to read the
//! application, what "in view 1" means) comes in as a [`Stack`].

use bytes::Bytes;
use splitbft_app::{Application, KeyValueStore, KvOp};
use splitbft_net::lockstep::Cluster;
use splitbft_net::transport::{frame_kind, Protocol, ProtocolGauges};
use splitbft_types::fault::FaultCommand;
use splitbft_types::wire::{decode, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use splitbft_types::{ClusterConfig, ConsensusMessage, ReplicaId, Request};
use std::cell::RefCell;
use std::rc::Rc;

/// What a scenario needs to know about the stack it runs on.
pub struct Stack<A, P> {
    /// Builds one replica over `app`.
    pub replica: fn(ClusterConfig, ReplicaId, A) -> P,
    /// An authenticated request from client 0.
    pub request: fn(u64, Bytes) -> Request,
    /// The replica's application.
    pub app: fn(&P) -> &A,
    /// Whether every part of the replica has entered view 1.
    pub in_view_one: fn(&P) -> bool,
}

impl<A, P: Protocol> Stack<A, P> {
    /// An `n`-replica cluster checkpointing every `interval` slots.
    pub fn cluster(&self, n: usize, interval: u64, app: impl Fn() -> A) -> Cluster<P> {
        let config = ClusterConfig::new(n).unwrap().with_checkpoint_interval(interval);
        Cluster::new((0..n as u32).map(|i| (self.replica)(config.clone(), ReplicaId(i), app())))
    }
}

/// Every replica's protocol, crashed ones included.
pub fn replicas<P: Protocol>(cluster: &Cluster<P>) -> impl Iterator<Item = &P> {
    (0..cluster.n()).map(|i| cluster.replica(i))
}

/// Fires the view-change timer of each of `replicas` directly (not
/// through the stall timer), then delivers everything.
pub fn time_out<P: Protocol>(cluster: &mut Cluster<P>, replicas: impl IntoIterator<Item = usize>) {
    for i in replicas {
        cluster.drive(i, P::on_timeout);
    }
    cluster.run();
}

const ISOLATED: &str = "isolated";

/// Cuts `replica` off from the rest of the cluster, both ways.
pub fn isolate<P: Protocol>(cluster: &Cluster<P>, replica: u32) {
    let rest = (0..cluster.n() as u32).filter(|i| *i != replica).map(ReplicaId).collect();
    cluster.faults.apply(FaultCommand::Partition {
        name: ISOLATED.into(),
        side_a: vec![ReplicaId(replica)],
        side_b: rest,
        symmetric: true,
    });
}

/// Undoes [`isolate`].
pub fn heal<P: Protocol>(cluster: &Cluster<P>) {
    cluster.faults.apply(FaultCommand::Heal { name: ISOLATED.into() });
}

fn gauges<P: Protocol>(replica: &P) -> ProtocolGauges {
    let mut gauges = ProtocolGauges::default();
    replica.probe_gauges(&mut gauges);
    gauges
}

/// The replica's latest stable checkpoint.
pub fn stable<P: Protocol>(replica: &P) -> u64 {
    gauges(replica).stable_checkpoint[0]
}

fn consensus_message(kind: u8, payload: &[u8]) -> Option<ConsensusMessage> {
    (kind == frame_kind::PROTOCOL).then(|| decode(payload).expect("a replica's own encoding"))
}

pub fn a_replica_a_few_slots_behind_a_stable_checkpoint_executes_its_way_level<P>(
    stack: &Stack<splitbft_app::CounterApp, P>,
) where
    P: Protocol<Message = ConsensusMessage>,
{
    let inc = |ts| (stack.request)(ts, Bytes::from_static(b"inc"));
    let mut cluster = stack.cluster(4, 4, splitbft_app::CounterApp::new);
    for ts in 1..=3 {
        cluster.submit(0, &[inc(ts)]);
    }
    // Replica 3's link delivers the checkpoint votes for slot 4 ahead of
    // the slot's own messages: the votes pass, the rest is set aside.
    cluster.hold(3);
    cluster.submit(0, &[inc(4)]);
    let slot = Rc::new(RefCell::new(Vec::new()));
    let votes = Rc::new(RefCell::new(0));
    cluster.observe({
        let (slot, votes) = (Rc::clone(&slot), Rc::clone(&votes));
        move |frame| match consensus_message(frame.kind, frame.payload) {
            Some(ConsensusMessage::Checkpoint(_)) if frame.to == ReplicaId(3) => {
                *votes.borrow_mut() += 1;
                true
            }
            Some(msg) if frame.to == ReplicaId(3) => {
                slot.borrow_mut().push(msg);
                false
            }
            _ => true,
        }
    });
    cluster.release(3);
    cluster.run();
    cluster.observe(|_| true);
    assert_eq!(*votes.borrow(), 3);
    assert_eq!(stable(cluster.replica(3)), 4);
    assert_eq!(cluster.replica(3).progress(), 3, "behind, and nothing to restore");

    // The slot is still admissible and nothing it needs was collected:
    // no transfer, it just executes.
    let slot = slot.take();
    cluster.drive(3, |r| slot.into_iter().flat_map(|msg| r.on_message(msg)).collect());
    cluster.run();
    assert_eq!(cluster.replica(3).progress(), 4);
    let snapshot = |i| cluster.replica(i).durable_checkpoint().map(|cp| (cp.seq, cp.digest));
    assert!(snapshot(3).is_some(), "it holds the snapshot it took");
    assert_eq!(snapshot(3), snapshot(0));
    cluster.submit(0, &[inc(5)]);
    assert_eq!((stack.app)(cluster.replica(3)).value(), 5);
}

/// The framed `ViewChange`s and `NewView` of a view change that follows
/// one stable checkpoint of a store holding `state_bytes`, one entry
/// per broadcast.
fn view_change_frames_over_a_state_of<P>(
    stack: &Stack<KeyValueStore, P>,
    state_bytes: usize,
) -> Vec<usize>
where
    P: Protocol<Message = ConsensusMessage>,
{
    let put = |ts, value: &[u8]| (stack.request)(ts, KvOp::put(b"k", value).encode_op());
    let mut cluster = stack.cluster(4, 4, || {
        let mut kvs = KeyValueStore::new();
        kvs.execute(&KvOp::put(b"ballast", &vec![0xAB; state_bytes]).encode_op());
        kvs
    });
    // A broadcast is delivered once per live peer; keep one copy.
    let frames = Rc::new(RefCell::new(Vec::new()));
    cluster.observe({
        let frames = Rc::clone(&frames);
        move |frame| {
            if let Some(ConsensusMessage::ViewChange(_) | ConsensusMessage::NewView(_)) =
                consensus_message(frame.kind, frame.payload)
            {
                let broadcast = (frame.from, FRAME_HEADER_LEN + frame.payload.len());
                if !frames.borrow().contains(&broadcast) {
                    frames.borrow_mut().push(broadcast);
                }
            }
            true
        }
    });
    for ts in 1..=4 {
        cluster.submit(0, &[put(ts, b"v")]);
    }
    assert!(replicas(&cluster).all(|r| stable(r) == 4));
    cluster.crash(0);
    time_out(&mut cluster, 1..4);
    assert!(replicas(&cluster).skip(1).all(stack.in_view_one));
    cluster.submit(1, &[put(5, b"w")]);
    assert!(replicas(&cluster).skip(1).all(|r| r.progress() == 5));
    let frames = frames.borrow();
    frames.iter().map(|(_, len)| *len).collect()
}

pub fn view_change_messages_do_not_grow_with_the_state<P>(stack: &Stack<KeyValueStore, P>)
where
    P: Protocol<Message = ConsensusMessage>,
{
    // Three votes and one NewView, each carrying stable-checkpoint
    // certificates: by digest, so a thousand times the state is not one
    // byte more on the wire (each vote used to embed the snapshot, and
    // nine of them put this NewView past MAX_FRAME_LEN).
    let small = view_change_frames_over_a_state_of(stack, 4 << 10);
    let large = view_change_frames_over_a_state_of(stack, 4 << 20);
    assert_eq!(small.len(), 4);
    assert_eq!(small, large);
    assert!(large.iter().all(|len| *len < MAX_FRAME_LEN as usize / 1000));
}
