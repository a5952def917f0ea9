//! Property tests for the wire codec under hostile input.
//!
//! The decoder's contract is *total*: any byte string either decodes or
//! returns a [`WireError`] — it must never panic, hang, or allocate
//! unboundedly, because every frame arriving over TCP is
//! attacker-controlled. These properties throw random and
//! systematically-corrupted buffers at the frame layer and at the
//! structured decoders.
//!
//! The encoder's contract is that every way of producing a value's bytes
//! — a fresh buffer, an appended-to buffer, a hasher that never holds
//! them — produces the *same* bytes, the ones the format has always had:
//! the second half of this file generates values of every wire type and
//! holds the paths against each other and against a digest taken before
//! the encoder learned to stream.

use bytes::Bytes;
use proptest::prelude::*;
use splitbft_crypto::hmac::Hmac;
use splitbft_crypto::sha256::Sha256;
use splitbft_crypto::{digest_bytes, hmac_sha256};
use splitbft_types::status::{NodeSnapshot, StatusEvent, StatusRequest, StatusResponse, StatusVerb};
use splitbft_types::wire::{
    decode, encode, frame, frame_message, parse_frame, Decode, Encode, FrameAssembler,
    FrameHeader, Sink, WireError, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_LEN, WIRE_VERSION,
};
use splitbft_types::{
    Checkpoint, CheckpointCertificate, ClientId, Commit, CompartmentKind, ConsensusMessage,
    Digest, DurableCheckpoint, DurableEvent, EnclaveId, FaultCommand, LinkRule, NewView,
    PrePrepare, Prepare, PrepareCertificate, PublicKey, ReplicaId, Reply, Request, RequestBatch,
    RequestId, SeqNum, ShardEnvelope, ShardId, Signature, Signed, SignerId,
    StateTransferRequest, StateTransferResponse, Timestamp, View, ViewChange,
};
use std::fmt::Debug;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Any (kind, payload) frames and parses back to itself.
    #[test]
    fn random_frames_roundtrip(
        kind in any::<u8>(),
        payload in collection::vec(any::<u8>(), 0..512),
    ) {
        let framed = frame(kind, &payload);
        prop_assert_eq!(framed.len(), FRAME_HEADER_LEN + payload.len());

        let mut header_bytes = [0u8; FRAME_HEADER_LEN];
        header_bytes.copy_from_slice(&framed[..FRAME_HEADER_LEN]);
        let header = FrameHeader::parse(&header_bytes).expect("own frame must parse");
        prop_assert_eq!(header.kind, kind);
        prop_assert_eq!(header.len as usize, payload.len());
        prop_assert_eq!(&framed[FRAME_HEADER_LEN..], &payload[..]);
    }

    // A header whose magic is corrupted anywhere is rejected.
    #[test]
    fn bad_magic_rejected(
        kind in any::<u8>(),
        len in 0u32..MAX_FRAME_LEN,
        corrupt_at in 0usize..4,
        xor in 1u32..256,
    ) {
        let mut bytes = FrameHeader { kind, len }.encode();
        bytes[corrupt_at] ^= xor as u8;
        prop_assert!(matches!(
            FrameHeader::parse(&bytes),
            Err(WireError::BadMagic(_))
        ));
    }

    // A length prefix above the frame bound is rejected before any
    // allocation can happen.
    #[test]
    fn oversized_length_rejected(
        kind in any::<u8>(),
        excess in 1u32..1025,
    ) {
        let len = MAX_FRAME_LEN + excess;
        let bytes = FrameHeader { kind, len }.encode();
        prop_assert_eq!(
            FrameHeader::parse(&bytes),
            Err(WireError::FrameTooLarge(len))
        );
    }

    // Any wrong version byte is rejected.
    #[test]
    fn wrong_version_rejected(kind in any::<u8>(), version in any::<u8>()) {
        let mut bytes = FrameHeader { kind, len: 16 }.encode();
        bytes[4] = version;
        let result = FrameHeader::parse(&bytes);
        if version == WIRE_VERSION {
            prop_assert!(result.is_ok());
        } else {
            prop_assert_eq!(
                result,
                Err(WireError::VersionMismatch { expected: WIRE_VERSION, got: version })
            );
        }
    }

    // Truncating an encoded value anywhere yields an error, not a
    // panic — and never `Ok` for a strict prefix of a collection
    // encoding (the length prefix promises more bytes).
    #[test]
    fn truncated_values_error_cleanly(
        payload in collection::vec(any::<u64>(), 1..64),
        cut_ratio in 0u32..1000,
    ) {
        let bytes = encode(&payload);
        let cut = (bytes.len() - 1) * cut_ratio as usize / 1000;
        let result = decode::<Vec<u64>>(&bytes[..cut]);
        prop_assert!(result.is_err(), "decoded {cut}/{} truncated bytes", bytes.len());
    }

    // Arbitrary garbage never panics the structured decoders, and a
    // decode success implies a canonical re-encode (decode ∘ encode is
    // the identity on the accepted set).
    #[test]
    fn garbage_never_panics_consensus_decoder(
        garbage in collection::vec(any::<u8>(), 0..2048),
    ) {
        if let Ok(message) = decode::<ConsensusMessage>(&garbage) {
            prop_assert_eq!(encode(&message), garbage, "non-canonical decode accepted");
        }
        // Errors (the overwhelmingly common case) are fine; panics are not.
        let _ = decode::<Vec<bytes::Bytes>>(&garbage);
        let _ = decode::<String>(&garbage);
        let _ = decode::<(u64, bool, u32)>(&garbage);
    }

    // Streams that open with a non-SBFT preamble (e.g. a stray HTTP
    // client) fail on the first header.
    #[test]
    fn foreign_preambles_rejected(preamble in collection::vec(any::<u8>(), FRAME_HEADER_LEN..64)) {
        let mut header = [0u8; FRAME_HEADER_LEN];
        header.copy_from_slice(&preamble[..FRAME_HEADER_LEN]);
        if header[..4] != FRAME_MAGIC {
            prop_assert!(FrameHeader::parse(&header).is_err());
        }
    }

    // --- zero-copy reassembly (the evented read path) -----------------

    // A frame stream chopped at *random* byte boundaries — mid-magic,
    // mid-length, mid-payload — reassembles into exactly the sent
    // (kind, payload) sequence, whatever the chunking. Chunks are fed
    // through `read_space`/`commit`, the same fill style the evented
    // socket loop uses.
    #[test]
    fn split_read_reassembly_is_boundary_invariant(
        frames in collection::vec(
            (any::<u8>(), collection::vec(any::<u8>(), 0..96)),
            1..12,
        ),
        cuts in collection::vec(1usize..32, 1..64),
    ) {
        let stream: Vec<u8> = frames
            .iter()
            .flat_map(|(kind, payload)| frame(*kind, payload))
            .collect();

        let mut asm = FrameAssembler::new();
        let mut got: Vec<(u8, Vec<u8>)> = Vec::new();
        let mut pos = 0usize;
        let mut cut = cuts.iter().cycle();
        while pos < stream.len() {
            let take = (*cut.next().unwrap()).min(stream.len() - pos);
            let space = asm.read_space(take);
            space[..take].copy_from_slice(&stream[pos..pos + take]);
            asm.commit(take);
            pos += take;
            while let Some(view) = asm.next_frame().expect("clean stream") {
                got.push((view.kind, view.payload.to_vec()));
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(asm.pending(), 0, "no stray bytes after the last frame");
    }

    // The borrowed decode paths agree byte-for-byte with the owned one:
    // `parse_frame`'s view, the assembler's view, and the payload
    // region of the encoded frame are all identical, and a structured
    // decode from the borrowed slice equals a decode from an owned copy.
    #[test]
    fn borrowed_decode_agrees_with_owned_decode(
        kind in any::<u8>(),
        value in collection::vec(any::<u64>(), 0..64),
    ) {
        let payload = encode(&value);
        let framed = frame(kind, &payload);

        let (view, consumed) = parse_frame(&framed).expect("own frame").expect("complete");
        prop_assert_eq!(consumed, framed.len());
        prop_assert_eq!(view.kind, kind);
        prop_assert_eq!(view.payload, &payload[..]);
        prop_assert_eq!(view.payload, &framed[FRAME_HEADER_LEN..]);

        let mut asm = FrameAssembler::new();
        asm.extend(&framed);
        let assembled = asm.next_frame().expect("clean").expect("complete");
        prop_assert_eq!(assembled.kind, kind);
        prop_assert_eq!(assembled.payload, &payload[..]);

        let borrowed: Vec<u64> = decode(assembled.payload).expect("borrowed decode");
        let owned: Vec<u64> = decode(&assembled.payload.to_vec()).expect("owned decode");
        prop_assert_eq!(&borrowed, &owned);
        prop_assert_eq!(borrowed, value);
    }

    // Garbage streams fed in random chunks never panic the assembler:
    // every prefix either yields frames, wants more bytes, or errors —
    // and a framing error surfaces no later than the first full header.
    #[test]
    fn garbage_streams_never_panic_the_assembler(
        garbage in collection::vec(any::<u8>(), 0..2048),
        cuts in collection::vec(1usize..64, 1..32),
    ) {
        let mut asm = FrameAssembler::new();
        let mut pos = 0usize;
        let mut cut = cuts.iter().cycle();
        let mut failed = false;
        while pos < garbage.len() && !failed {
            let take = (*cut.next().unwrap()).min(garbage.len() - pos);
            asm.extend(&garbage[pos..pos + take]);
            pos += take;
            loop {
                match asm.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => {
                        // The stream is condemned; a real connection
                        // drops here.
                        failed = true;
                        break;
                    }
                }
            }
        }
        if !failed && garbage.len() >= FRAME_HEADER_LEN && garbage[..4] != FRAME_MAGIC {
            prop_assert!(false, "a non-SBFT preamble must condemn the stream");
        }
    }

    // A length bomb — a valid-looking header promising more than
    // MAX_FRAME_LEN — is rejected as soon as the header is complete,
    // before any payload arrives, and without growing the buffer toward
    // the advertised length.
    #[test]
    fn length_bombs_rejected_at_the_header(excess in 1u32..100_000) {
        let len = MAX_FRAME_LEN + excess;
        let header = FrameHeader { kind: 3, len }.encode();
        let mut asm = FrameAssembler::new();
        asm.extend(&header);
        prop_assert_eq!(asm.next_frame(), Err(WireError::FrameTooLarge(len)));
    }
}

// ---------------------------------------------------------------------------
// Values of every wire type
// ---------------------------------------------------------------------------

/// A seeded builder of wire values. `size` bounds every byte string and
/// collection it makes, so one knob sweeps from empty to large.
struct Gen {
    state: u64,
    size: usize,
}

impl Gen {
    fn new(seed: u64, size: usize) -> Self {
        Gen { state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1, size }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn len(&mut self) -> usize {
        (self.next() % (self.size as u64 + 1)) as usize
    }

    /// A short list: at most four elements, fewer when `size` is small.
    fn few<T>(&mut self, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.len().min(4);
        (0..n).map(|_| item(self)).collect()
    }

    fn bytes(&mut self) -> Bytes {
        let n = self.len();
        (0..n).map(|_| self.next() as u8).collect()
    }

    fn array<const N: usize>(&mut self) -> [u8; N] {
        std::array::from_fn(|_| self.next() as u8)
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn replica(&mut self) -> ReplicaId {
        ReplicaId(self.next() as u32)
    }

    fn kind(&mut self) -> CompartmentKind {
        match self.next() % 3 {
            0 => CompartmentKind::Preparation,
            1 => CompartmentKind::Confirmation,
            _ => CompartmentKind::Execution,
        }
    }

    fn signer(&mut self) -> SignerId {
        match self.next() % 3 {
            0 => SignerId::Replica(self.replica()),
            1 => SignerId::Enclave(EnclaveId::new(self.replica(), self.kind())),
            _ => SignerId::Client(ClientId(self.next() as u32)),
        }
    }

    fn request_id(&mut self) -> RequestId {
        RequestId { client: ClientId(self.next() as u32), timestamp: Timestamp(self.next()) }
    }

    fn digest(&mut self) -> Digest {
        Digest::from_bytes(self.array())
    }

    fn signed<T>(&mut self, payload: T) -> Signed<T> {
        Signed { payload, signer: self.signer(), signature: Signature(self.array()) }
    }

    fn request(&mut self) -> Request {
        Request { id: self.request_id(), op: self.bytes(), encrypted: self.flag(), auth: self.array() }
    }

    fn reply(&mut self) -> Reply {
        Reply {
            view: View(self.next()),
            request: self.request_id(),
            replica: self.replica(),
            result: self.bytes(),
            encrypted: self.flag(),
            auth: self.array(),
        }
    }

    fn batch(&mut self) -> RequestBatch {
        RequestBatch::new(self.few(Self::request))
    }

    fn pre_prepare(&mut self) -> PrePrepare {
        PrePrepare {
            view: View(self.next()),
            seq: SeqNum(self.next()),
            digest: self.digest(),
            batch: self.batch(),
        }
    }

    fn prepare(&mut self) -> Prepare {
        Prepare {
            view: View(self.next()),
            seq: SeqNum(self.next()),
            digest: self.digest(),
            replica: self.replica(),
        }
    }

    fn commit(&mut self) -> Commit {
        Commit {
            view: View(self.next()),
            seq: SeqNum(self.next()),
            digest: self.digest(),
            replica: self.replica(),
        }
    }

    fn checkpoint(&mut self) -> Checkpoint {
        Checkpoint {
            seq: SeqNum(self.next()),
            state_digest: self.digest(),
            replica: self.replica(),
            snapshot: self.bytes(),
        }
    }

    fn prepare_certificate(&mut self) -> PrepareCertificate {
        let pre_prepare = self.pre_prepare();
        PrepareCertificate {
            pre_prepare: self.signed(pre_prepare),
            prepares: self.few(|g| {
                let prepare = g.prepare();
                g.signed(prepare)
            }),
        }
    }

    fn checkpoint_certificate(&mut self) -> CheckpointCertificate {
        CheckpointCertificate {
            checkpoints: self.few(|g| {
                let checkpoint = g.checkpoint();
                g.signed(checkpoint)
            }),
        }
    }

    fn view_change(&mut self) -> ViewChange {
        ViewChange {
            new_view: View(self.next()),
            stable_seq: SeqNum(self.next()),
            checkpoint_proof: self.checkpoint_certificate(),
            prepared: self.few(Self::prepare_certificate),
            replica: self.replica(),
        }
    }

    fn new_view(&mut self) -> NewView {
        NewView {
            view: View(self.next()),
            view_changes: self.few(|g| {
                let view_change = g.view_change();
                g.signed(view_change)
            }),
            pre_prepares: self.few(|g| {
                let pre_prepare = g.pre_prepare();
                g.signed(pre_prepare)
            }),
        }
    }

    /// One `ConsensusMessage` of variant `which % 6`.
    fn message(&mut self, which: u64) -> ConsensusMessage {
        match which % 6 {
            0 => {
                let payload = self.pre_prepare();
                ConsensusMessage::PrePrepare(self.signed(payload))
            }
            1 => {
                let payload = self.prepare();
                ConsensusMessage::Prepare(self.signed(payload))
            }
            2 => {
                let payload = self.commit();
                ConsensusMessage::Commit(self.signed(payload))
            }
            3 => {
                let payload = self.checkpoint();
                ConsensusMessage::Checkpoint(self.signed(payload))
            }
            4 => {
                let payload = self.view_change();
                ConsensusMessage::ViewChange(self.signed(payload))
            }
            _ => {
                let payload = self.new_view();
                ConsensusMessage::NewView(self.signed(payload))
            }
        }
    }

    fn durable_checkpoint(&mut self) -> DurableCheckpoint {
        DurableCheckpoint { seq: SeqNum(self.next()), digest: self.digest(), state: self.bytes() }
    }

    fn text(&mut self) -> String {
        let n = self.len().min(24);
        (0..n).map(|_| char::from(b'a' + (self.next() % 26) as u8)).collect()
    }

    fn status_event(&mut self, which: u64) -> StatusEvent {
        match which % 8 {
            0 => StatusEvent::ViewChange { view: self.next() },
            1 => StatusEvent::CheckpointSealed { seq: self.next() },
            2 => StatusEvent::CheckpointRestored { seq: self.next(), agreeing_peers: self.next() },
            3 => StatusEvent::StateTransferApplied {
                messages: self.next(),
                from_progress: self.next(),
                to_progress: self.next(),
            },
            4 => StatusEvent::FaultPlanApplied,
            5 => StatusEvent::DrainRequested,
            6 => StatusEvent::DrainCompleted,
            _ => StatusEvent::Recovered { replayed_events: self.next(), checkpoint_seq: self.next() },
        }
    }

    fn node_snapshot(&mut self) -> NodeSnapshot {
        NodeSnapshot {
            version: self.next() as u32,
            replica: self.next() as u32,
            progress: self.next(),
            view: self.next(),
            view_changes: self.next(),
            pending_requests: self.next(),
            fsyncs: self.next(),
            wal_bytes: self.next(),
            checkpoint_seals: self.next(),
            reconnects: self.next(),
            ring_refusals: self.next(),
            bytes_in: self.next(),
            bytes_out: self.next(),
            queue_depth_high_water: self.next(),
            shard_progress: self.few(Self::next),
            shard_fsyncs: self.few(Self::next),
            recovering: self.flag(),
            draining: self.flag(),
            drained: self.flag(),
            journal_head: self.next(),
        }
    }
}

/// What a test does with each generated value.
trait Visit {
    fn visit<T: Encode + Decode + PartialEq + Debug>(&mut self, value: &T);
}

/// Shows `visit` one value of every wire type (and of every variant of
/// the enums among them), built from `g`.
fn every_wire_type(g: &mut Gen, v: &mut impl Visit) {
    // Codec primitives and containers.
    v.visit(&(g.next() as u8));
    v.visit(&(g.next() as u32));
    v.visit(&g.next());
    v.visit(&(u128::from(g.next()) << 64 | u128::from(g.next())));
    v.visit(&(g.next() as i64));
    v.visit(&g.flag());
    v.visit(&g.array::<32>());
    v.visit(&g.bytes());
    v.visit(&g.text());
    v.visit(&g.few(Gen::bytes));
    v.visit(&Some(g.text()));
    v.visit(&None::<u64>);
    v.visit(&(g.next(), g.bytes()));
    v.visit(&(g.replica(), g.next(), g.text()));

    // Identifiers.
    v.visit(&g.replica());
    v.visit(&ClientId(g.next() as u32));
    v.visit(&View(g.next()));
    v.visit(&SeqNum(g.next()));
    v.visit(&Timestamp(g.next()));
    v.visit(&g.request_id());
    for _ in 0..3 {
        v.visit(&g.kind());
        v.visit(&EnclaveId::new(g.replica(), g.kind()));
        v.visit(&g.signer());
    }
    v.visit(&g.digest());
    v.visit(&Signature(g.array()));
    v.visit(&PublicKey(g.array()));
    v.visit(&ShardId(g.next() as u32));

    // The client and agreement vocabulary.
    v.visit(&g.request());
    v.visit(&g.reply());
    v.visit(&g.batch());
    v.visit(&g.pre_prepare());
    v.visit(&g.prepare());
    v.visit(&g.commit());
    v.visit(&g.checkpoint());
    v.visit(&g.prepare_certificate());
    v.visit(&g.checkpoint_certificate());
    v.visit(&splitbft_types::CommitCertificate {
        commits: g.few(|g| {
            let commit = g.commit();
            g.signed(commit)
        }),
    });
    v.visit(&g.view_change());
    v.visit(&g.new_view());
    for which in 0..6 {
        let msg = g.message(which);
        v.visit(&ShardEnvelope { shard: ShardId(g.next() as u32), msg: msg.clone() });
        v.visit(&msg);
    }

    // The durability plane.
    v.visit(&DurableEvent::Accepted { view: View(g.next()), seq: SeqNum(g.next()), digest: g.digest() });
    v.visit(&DurableEvent::Committed { seq: SeqNum(g.next()), batch: g.batch() });
    v.visit(&DurableEvent::EnteredView { view: View(g.next()) });
    v.visit(&DurableEvent::CounterIssued { counter: g.next() });
    v.visit(&DurableEvent::StableCheckpoint { seq: SeqNum(g.next()) });
    v.visit(&DurableEvent::ShardTag { shard: ShardId(g.next() as u32) });
    v.visit(&g.durable_checkpoint());
    v.visit(&StateTransferRequest { replica: g.replica(), have_seq: SeqNum(g.next()) });
    for with_checkpoint in [false, true] {
        v.visit(&StateTransferResponse {
            replica: g.replica(),
            checkpoint: with_checkpoint.then(|| g.durable_checkpoint()),
            suffix: g.bytes(),
        });
    }

    // Fault control.
    let rule = LinkRule {
        from: g.replica(),
        to: g.replica(),
        drop_percent: g.next() as u8,
        duplicate_percent: g.next() as u8,
        reorder_percent: g.next() as u8,
        delay_ms: g.next() as u32,
    };
    v.visit(&rule);
    v.visit(&FaultCommand::SetRule(rule));
    v.visit(&FaultCommand::ClearRules);
    v.visit(&FaultCommand::Partition {
        name: g.text(),
        side_a: g.few(Gen::replica),
        side_b: g.few(Gen::replica),
        symmetric: g.flag(),
    });
    v.visit(&FaultCommand::Heal { name: g.text() });
    v.visit(&FaultCommand::HealAll);

    // The STATUS plane.
    for verb in [StatusVerb::Snapshot, StatusVerb::Events { since: g.next() }, StatusVerb::Drain] {
        v.visit(&verb);
        v.visit(&StatusRequest { verb });
    }
    for which in 0..8 {
        v.visit(&g.status_event(which));
    }
    v.visit(&g.node_snapshot());
    v.visit(&StatusResponse::Snapshot(g.node_snapshot()));
    v.visit(&StatusResponse::Events {
        head: g.next(),
        events: g.few(|g| (g.next(), g.status_event(g.state))),
    });
    v.visit(&StatusResponse::DrainStarted);
    v.visit(&StatusResponse::Refused);
}

/// A sink that remembers how the bytes were cut up.
#[derive(Default)]
struct Pieces(Vec<Vec<u8>>);

impl Sink for Pieces {
    fn put(&mut self, bytes: &[u8]) {
        self.0.push(bytes.to_vec());
    }
}

/// Holds every way of producing a value's bytes against `encode`.
struct AllPathsAgree;

impl Visit for AllPathsAgree {
    fn visit<T: Encode + Decode + PartialEq + Debug>(&mut self, value: &T) {
        let bytes = encode(value);
        assert_eq!(value.encoded_len(), bytes.len(), "encoded_len of {value:?}");
        assert_eq!(bytes.capacity(), bytes.len(), "encode allocates once, at the final size");
        assert_eq!(&decode::<T>(&bytes).expect("own encoding decodes"), value);

        // Appending to a buffer that already holds something.
        let mut appended = b"prefix".to_vec();
        value.encode_to(&mut appended);
        assert_eq!(&appended[..6], b"prefix");
        assert_eq!(&appended[6..], &bytes[..]);

        // However the encoder cuts the bytes up, they are these bytes.
        let mut pieces = Pieces::default();
        value.encode_to(&mut pieces);
        assert_eq!(pieces.0.concat(), bytes);

        // A hasher fed field by field sees what one fed the buffer sees.
        let mut hasher = Sha256::new();
        value.encode_to(&mut hasher);
        assert_eq!(Digest::from_bytes(hasher.finalize()), digest_bytes(&bytes));
        assert_eq!(splitbft_crypto::digest_of(value), digest_bytes(&bytes));
        let mut mac = Hmac::new(b"wire-props");
        value.encode_to(&mut mac);
        assert_eq!(mac.finalize(), hmac_sha256(b"wire-props", &bytes));

        // One buffer for header and payload, the same frame.
        assert_eq!(frame_message(9, value), frame(9, &bytes));
    }
}

/// Folds every encoding, length-prefixed, into one digest.
struct Fold(Sha256);

impl Visit for Fold {
    fn visit<T: Encode + Decode + PartialEq + Debug>(&mut self, value: &T) {
        let bytes = encode(value);
        self.0.update(&(bytes.len() as u64).to_le_bytes());
        self.0.update(&bytes);
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The wire golden vector: the digest of the encodings of 64 generated
/// value sets (sizes 0 to 63), taken with the encoder of the commit
/// *before* `Encode` learned its length and to stream (PR 16, cf5c93c).
/// It must never be regenerated with newer code: a mismatch means bytes on
/// the wire, in the WAL or under a signature changed.
const ENCODINGS_AT_PR16: &str =
    "dd160519c83241fe3af88f2908bfb831eee1e35447a4badc8a889f85f202190b";

#[test]
fn encodings_are_byte_identical_to_the_parent_commit() {
    let mut fold = Fold(Sha256::new());
    for seed in 0..64 {
        every_wire_type(&mut Gen::new(seed, seed as usize), &mut fold);
    }
    assert_eq!(hex(&fold.0.finalize()), ENCODINGS_AT_PR16);
}

#[test]
fn a_mebibyte_payload_streams_like_a_small_one() {
    // Larger than any internal buffer or block, and not a multiple of one.
    let mut g = Gen::new(7, 0);
    let snapshot: Bytes = (0..(1 << 20) + 13).map(|i| (i * 31) as u8).collect();
    let checkpoint = Checkpoint { snapshot: snapshot.clone(), ..g.checkpoint() };
    AllPathsAgree.visit(&ConsensusMessage::Checkpoint(g.signed(checkpoint)));
    AllPathsAgree.visit(&Request { op: snapshot.clone(), ..g.request() });
    AllPathsAgree.visit(&Reply { result: snapshot.clone(), ..g.reply() });
    AllPathsAgree.visit(&DurableCheckpoint { state: snapshot, ..g.durable_checkpoint() });
}

#[test]
fn a_slice_encodes_as_the_vec_of_its_elements() {
    for len in [0usize, 1, 16] {
        let requests: Vec<Request> = {
            let mut g = Gen::new(len as u64, 40);
            (0..len).map(|_| g.request()).collect()
        };
        assert_eq!(encode(&requests[..]), encode(&requests));
        assert_eq!(requests[..].encoded_len(), requests.encoded_len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Every wire type, under random contents and sizes from empty to a
    // few KiB: length, buffer, pieces, hashers and frame all agree.
    #[test]
    fn every_encoding_path_agrees_for_every_wire_type(
        seed in any::<u64>(),
        size in 0usize..3_000,
    ) {
        every_wire_type(&mut Gen::new(seed, size), &mut AllPathsAgree);
    }
}
