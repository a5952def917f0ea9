//! The hosting contract between protocol state machines and runtimes.
//!
//! Every protocol in this workspace — the PBFT baseline, the SplitBFT
//! compartment broker, and the MinBFT-style hybrid — is a *sans-I/O*
//! state machine: handlers consume one input and return a list of
//! outputs. This module turns that convention into a first-class
//! [`Protocol`] trait so that one runtime implementation can host any of
//! the three, whether in memory ([`crate::lockstep::Cluster`]) or
//! across real sockets ([`crate::evented::EventedNode`]).
//!
//! It also provides the stream-transport plumbing the socket runtime,
//! its client and the control-plane helpers share: frame kinds and
//! blocking framed reads/writes over any `Read`/`Write`
//! (length-prefixed, see [`splitbft_types::wire`] for the header
//! layout). The build environment cannot fetch an async reactor (tokio)
//! from crates.io; everything stays on `std::net` and keeps executor
//! code out of the TCB.

use splitbft_types::wire::{
    decode, frame, frame_message, Decode, Encode, FrameHeader, FRAME_HEADER_LEN,
};
use splitbft_types::{
    ClientId, DurableCheckpoint, DurableEvent, ProtocolError, ReplicaId, Reply, Request, SeqNum,
};
use std::fmt;
use std::io::{self, Read, Write};

/// Bound on messages a protocol can put on the wire: canonically
/// encodable, decodable from untrusted bytes, and cheap to fan out.
///
/// Blanket-implemented; never implement it manually.
pub trait WireMessage: Encode + Decode + Clone + fmt::Debug + Send + 'static {}

impl<T: Encode + Decode + Clone + fmt::Debug + Send + 'static> WireMessage for T {}

/// An effect a hosted protocol asks its runtime to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolOutput<M> {
    /// Send `msg` to every *other* replica (the sender has already
    /// processed its own copy internally).
    Broadcast(M),
    /// Send `msg` to a single *other* replica. A self-addressed send is
    /// dropped by every runtime — state machines process their own copy
    /// internally before emitting, as with [`ProtocolOutput::Broadcast`].
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The message.
        msg: M,
    },
    /// Deliver an execution result to a client.
    Reply {
        /// Destination client.
        to: ClientId,
        /// The reply (authenticated, possibly encrypted).
        reply: Reply,
    },
}

/// A BFT protocol replica hostable by any runtime in this crate.
///
/// Implemented by [`splitbft-pbft`'s `Replica`], [`splitbft-core`'s
/// `SplitBftReplica`] and [`splitbft-hybrid`'s `HybridReplica`] (in their
/// own crates, since trait and types live on opposite sides of the
/// dependency edge). The contract mirrors the paper's deployment model:
/// one replica process per machine, driven entirely by network messages,
/// client requests, and the view-change timer.
///
/// [`splitbft-pbft`'s `Replica`]: https://docs.rs/splitbft-pbft
/// [`splitbft-core`'s `SplitBftReplica`]: https://docs.rs/splitbft-core
/// [`splitbft-hybrid`'s `HybridReplica`]: https://docs.rs/splitbft-hybrid
pub trait Protocol: Send + 'static {
    /// The replica-to-replica message vocabulary.
    type Message: WireMessage;

    /// Handles one message from a peer replica.
    fn on_message(&mut self, msg: Self::Message) -> Vec<ProtocolOutput<Self::Message>>;

    /// Handles a batch of client requests (delivered to the node the
    /// client believes is primary).
    fn on_client_requests(&mut self, requests: Vec<Request>)
        -> Vec<ProtocolOutput<Self::Message>>;

    /// Handles a view-change timer expiry.
    fn on_timeout(&mut self) -> Vec<ProtocolOutput<Self::Message>>;

    /// A monotone counter of commit/execution progress (e.g. the highest
    /// executed sequence number).
    ///
    /// Together with [`Protocol::has_pending_requests`] this drives the
    /// *request-aware* view-change timer in socket runtimes: a periodic
    /// tick only forwards to [`Protocol::on_timeout`] when a request has
    /// been accepted but no progress was made since the previous tick, so
    /// an idle cluster never churns views while a crashed primary still
    /// fails over. For protocols that keep the defaults (constant `0`
    /// progress, always-pending), the gate degrades to firing on every
    /// *second* tick — the first tick arms, the next fires — so an
    /// un-opted-in protocol still view-changes, at half the configured
    /// rate; protocols that care about the exact period should
    /// implement both probes.
    fn progress(&self) -> u64 {
        0
    }

    /// `true` while at least one client request has been accepted by this
    /// replica but not yet executed. See [`Protocol::progress`].
    fn has_pending_requests(&self) -> bool {
        true
    }

    // --- durability hooks ---------------------------------------------------
    //
    // The durability plane (`splitbft-store` + the state-transfer client
    // in the node's hosting core) is opt-in: every hook defaults to "no durable
    // state", so protocols that have not wired it keep hosting
    // unchanged. A protocol that opts in implements all five.

    /// Drains the consensus events recorded since the last drain —
    /// accepted proposals, commit points, view entries, trusted-counter
    /// ticks, checkpoint stabilizations (see
    /// [`splitbft_types::durable::DurableEvent`]).
    ///
    /// Durable runtimes call this after *every* handler invocation and
    /// append the events to the write-ahead log — with an fsync —
    /// **before** routing the handler's outputs, so nothing reaches the
    /// network that a crash could un-happen.
    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        Vec::new()
    }

    /// Replays one WAL event during crash recovery. Called in log order
    /// on a freshly constructed replica before any networking starts;
    /// implementations must not assume peers are reachable and should
    /// produce no outputs.
    fn replay_durable_event(&mut self, _event: DurableEvent) {}

    /// The replica's durable state at its latest stable checkpoint, or
    /// `None` while still at genesis. Durable runtimes seal this to disk
    /// whenever its sequence number advances, and serve it to lagging
    /// peers over `STATE_TRANSFER`.
    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        None
    }

    /// Restores protocol and application state from a checkpoint
    /// produced by [`Protocol::durable_checkpoint`] — either unsealed
    /// from local storage or agreed on by `f + 1` peers. Implementations
    /// must re-validate the opaque bytes (certificate signatures,
    /// snapshot digests) rather than trust them.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] when the bytes fail validation; the caller then
    /// falls back to other recovery sources instead of aborting.
    fn restore_checkpoint(&mut self, _cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        Err(ProtocolError::Other("protocol has no durable-state support".into()))
    }

    /// Protocol messages that let a peer whose progress is `have_seq`
    /// catch up above the stable checkpoint through its normal
    /// [`Protocol::on_message`] path (e.g. retained proposals plus their
    /// commit votes). Served verbatim in `STATE_RESPONSE` frames; the
    /// receiver re-verifies them like any network input.
    fn catch_up_messages(&self, _have_seq: SeqNum) -> Vec<Self::Message> {
        Vec::new()
    }

    /// Completes one *drain batch* of handler invocations: runtimes that
    /// process several queued events back to back call this once at the
    /// end of the batch, before routing anything the batch produced.
    ///
    /// This is the group-commit point of the durability plane. A durable
    /// wrapper (`splitbft-store`'s `DurableProtocol` in group-commit
    /// mode) appends WAL records during the handler calls but *withholds
    /// their outputs*; this hook performs the batch's single fsync and
    /// releases everything withheld, so the WAL-before-network invariant
    /// holds with one fsync per batch instead of one per event.
    ///
    /// The default releases nothing (non-durable protocols return their
    /// outputs directly from the handlers). Runtimes must call this
    /// after **every** batch, even a batch of one.
    fn flush_durable(&mut self) -> Vec<ProtocolOutput<Self::Message>> {
        Vec::new()
    }

    /// Monotone count of WAL fsyncs this protocol has performed —
    /// `0` forever for non-durable protocols. Benchmarks read it to
    /// quantify what group-commit saves.
    fn durable_fsyncs(&self) -> u64 {
        0
    }

    /// The read-only probe feeding the telemetry plane (`splitbft-obs`):
    /// adds this protocol's consensus groups and scalar gauges to
    /// `gauges`. Hosts clear one [`ProtocolGauges`] they own and call
    /// this once per drain batch, never per message.
    ///
    /// The default reports one group — [`Protocol::progress`],
    /// [`Protocol::durable_fsyncs`], view `0`, no stable checkpoint — and
    /// a 0/1 pending signal, so test doubles need not implement it. Wrappers forward to what
    /// they wrap and add their own share (a WAL its bytes and seals, a
    /// sharded combinator one group per inner instance), which is why
    /// the probe *adds* rather than overwrites.
    fn probe_gauges(&self, gauges: &mut ProtocolGauges) {
        gauges.add_group(self.progress(), self.durable_fsyncs(), 0, 0);
        gauges.pending_requests += u64::from(self.has_pending_requests());
    }

    /// Graceful-drain epilogue: force a checkpoint seal and WAL flush so
    /// the node's durable state is complete before it exits. Called once
    /// by the host after a drain request once no requests are pending;
    /// any outputs returned are routed like a normal batch. Non-durable
    /// protocols keep the default no-op.
    fn drain_seal(&mut self) -> Vec<ProtocolOutput<Self::Message>> {
        Vec::new()
    }
}

/// What a hosted [`Protocol`] reports to the telemetry plane through
/// [`Protocol::probe_gauges`]. Owned and reused by the host, so a probe
/// allocates nothing once the vectors have grown to the group count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtocolGauges {
    /// Client requests accepted but not yet executed.
    pub pending_requests: u64,
    /// Current write-ahead-log length in bytes (`0` if not durable).
    pub wal_bytes: u64,
    /// Durable checkpoints sealed to disk so far (`0` if not durable).
    pub checkpoint_seals: u64,
    /// Highest executed sequence number of each consensus group.
    pub shard_progress: Vec<u64>,
    /// WAL fsyncs performed for each group.
    pub shard_fsyncs: Vec<u64>,
    /// Current view of each group (the first compartment's, for
    /// multi-compartment protocols).
    pub shard_views: Vec<u64>,
    /// Latest stable checkpoint of each group, on the scale of its
    /// `shard_progress` entry (`0` for a protocol whose checkpoints are
    /// local). A group whose stable checkpoint is ahead of its progress
    /// has fallen behind what `2f + 1` replicas certified, and only a
    /// state transfer closes that gap.
    pub stable_checkpoint: Vec<u64>,
}

impl ProtocolGauges {
    /// Resets every gauge, keeping the vectors' capacity.
    pub fn clear(&mut self) {
        self.pending_requests = 0;
        self.wal_bytes = 0;
        self.checkpoint_seals = 0;
        self.shard_progress.clear();
        self.shard_fsyncs.clear();
        self.shard_views.clear();
        self.stable_checkpoint.clear();
    }

    /// The scalar view gauge: the first group's (the full per-group
    /// picture is `shard_views`), `0` before any group reported.
    pub fn view(&self) -> u64 {
        self.shard_views.first().copied().unwrap_or(0)
    }

    /// Appends one consensus group.
    pub fn add_group(&mut self, progress: u64, fsyncs: u64, view: u64, stable_checkpoint: u64) {
        self.shard_progress.push(progress);
        self.shard_fsyncs.push(fsyncs);
        self.shard_views.push(view);
        self.stable_checkpoint.push(stable_checkpoint);
    }

    /// `true` if some group's stable checkpoint is ahead of what the
    /// group has executed.
    pub fn behind_stable_checkpoint(&self) -> bool {
        self.stable_checkpoint.iter().zip(&self.shard_progress).any(|(stable, done)| stable > done)
    }
}

/// Frame discriminators used by the socket transport (the `kind` byte of
/// [`FrameHeader`]). Kind 8, the retired `FAULT_CONTROL` frame, is never
/// reused: a node skips it like any unknown kind.
pub mod frame_kind {
    /// First frame on a replica→replica connection; payload: `ReplicaId`.
    pub const PEER_HELLO: u8 = 1;
    /// First frame on a client→replica connection; payload: `ClientId`.
    pub const CLIENT_HELLO: u8 = 2;
    /// A protocol message; payload: one `Protocol::Message`.
    pub const PROTOCOL: u8 = 3;
    /// Client requests; payload: `Vec<Request>`.
    pub const REQUESTS: u8 = 4;
    /// A reply to a client; payload: `Reply`.
    pub const REPLY: u8 = 5;
    /// A recovering replica asks a peer for state; payload:
    /// `StateTransferRequest`.
    pub const STATE_REQUEST: u8 = 6;
    /// A peer's checkpoint + log suffix; payload:
    /// `StateTransferResponse`.
    pub const STATE_RESPONSE: u8 = 7;
    /// A read-only observability query on a client connection;
    /// payload: `StatusRequest`, answered with one `StatusResponse`
    /// frame of the same kind (see [`crate::status`]): a snapshot of the
    /// node's gauges or a suffix of its event journal. No verb changes
    /// the node; a request that does not decode closes the connection.
    pub const STATUS: u8 = 9;
}

fn wire_to_io(e: splitbft_types::wire::WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Writes one frame (`kind` + encoded `payload`) to a stream.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame(kind, payload))
}

/// Writes one frame containing a single encoded value.
pub fn write_value<W: Write, T: Encode>(w: &mut W, kind: u8, value: &T) -> io::Result<()> {
    w.write_all(&frame_message(kind, value))
}

/// Blocking-reads one frame, validating the header invariants
/// (magic, version, length bound). Returns the frame kind and payload.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    let mut header_bytes = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header_bytes)?;
    let header = FrameHeader::parse(&header_bytes).map_err(wire_to_io)?;
    let mut payload = vec![0u8; header.len as usize];
    r.read_exact(&mut payload)?;
    Ok((header.kind, payload))
}

/// Reads one frame and decodes its payload, checking the expected kind.
pub fn read_value<R: Read, T: Decode>(r: &mut R, expected_kind: u8) -> io::Result<T> {
    let (kind, payload) = read_frame(r)?;
    if kind != expected_kind {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected frame kind {expected_kind}, got {kind}"),
        ));
    }
    decode(&payload).map_err(wire_to_io)
}

/// Send-path batching limits: how much of a link's queued frames the
/// socket runtime coalesces into one staged write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush once this many frames are coalesced into one write.
    pub max_frames: usize,
    /// Flush once the coalesced write reaches this many bytes.
    pub max_bytes: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        // One syscall per ~64 messages or ~256 KiB, whichever first: large
        // enough to amortize syscalls under load, small enough to keep
        // per-message latency negligible on a LAN.
        BatchPolicy { max_frames: 64, max_bytes: 256 * 1024 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_stream() {
        let mut buf: Vec<u8> = Vec::new();
        write_value(&mut buf, frame_kind::PROTOCOL, &42u64).unwrap();
        write_frame(&mut buf, frame_kind::REQUESTS, b"raw").unwrap();

        let mut cursor = io::Cursor::new(buf);
        let v: u64 = read_value(&mut cursor, frame_kind::PROTOCOL).unwrap();
        assert_eq!(v, 42);
        let (kind, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!(kind, frame_kind::REQUESTS);
        assert_eq!(payload, b"raw");
    }

    #[test]
    fn read_value_rejects_wrong_kind() {
        let mut buf: Vec<u8> = Vec::new();
        write_value(&mut buf, frame_kind::REPLY, &1u32).unwrap();
        let err = read_value::<_, u32>(&mut io::Cursor::new(buf), frame_kind::PROTOCOL)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
