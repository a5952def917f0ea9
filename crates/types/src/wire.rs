//! A deterministic binary wire codec.
//!
//! SplitBFT compartments exchange serialized messages across the enclave
//! boundary and across the network, and digests are computed over the
//! serialized form. The codec therefore has to be *canonical*: encoding the
//! same value always produces the same bytes. We hand-roll a small
//! length-prefixed little-endian format rather than pulling in a
//! serialization framework, which keeps the trusted computing base minimal
//! and auditable (the paper's Table 2 counts serialization among the shared
//! TCB).
//!
//! # Format
//!
//! - fixed-width integers: little-endian
//! - `bool`: one byte, `0` or `1` (other values are a decode error)
//! - `Vec<T>`, `Bytes`, `String`: `u32` length prefix followed by elements
//! - `Option<T>`: one-byte discriminant then the payload
//! - enums: one-byte tag chosen by each type's manual implementation
//!
//! # Framing
//!
//! On a stream transport (TCP) the codec needs message boundaries. Every
//! value travels inside a *frame*:
//!
//! ```text
//! offset  size  field      contents
//! 0       4     magic      b"SBFT" — connection sanity check
//! 4       1     version    WIRE_VERSION (currently 1)
//! 5       1     kind       transport-defined frame discriminator
//! 6       4     length     payload byte count, u32 little-endian
//! 10      len   payload    one canonically-encoded value
//! ```
//!
//! See [`FrameHeader`] for the invariants (magic match, exact version
//! match, `length <= MAX_FRAME_LEN`) and `splitbft-net` for the TCP
//! transport built on top.
//!
//! The `kind` byte is owned by the transport (`splitbft-net`'s
//! `frame_kind` module assigns them): peer/client hellos, protocol
//! messages, client requests and replies, plus the durability plane's
//! `STATE_REQUEST`/`STATE_RESPONSE` pair carrying
//! [`crate::durable::StateTransferRequest`] and
//! [`crate::durable::StateTransferResponse`]. Unknown kinds are skipped
//! by receivers, so new kinds are backward-compatible.
//!
//! # Example
//!
//! ```
//! use splitbft_types::wire::{decode, encode, Decode, Encode};
//!
//! let v: Vec<u32> = vec![1, 2, 3];
//! let bytes = encode(&v);
//! let back: Vec<u32> = decode(&bytes).unwrap();
//! assert_eq!(v, back);
//! ```

use bytes::Bytes;
use std::fmt;

/// Maximum length accepted for any length-prefixed collection (16 MiB of
/// elements). Guards decoders against allocation bombs from untrusted input.
pub const MAX_COLLECTION_LEN: u32 = 16 * 1024 * 1024;

/// Errors produced when decoding untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// An enum tag byte did not match any variant.
    InvalidTag {
        /// The type being decoded.
        ty: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A bool byte was neither 0 nor 1.
    InvalidBool(u8),
    /// A length prefix exceeded [`MAX_COLLECTION_LEN`].
    LengthOverflow(u32),
    /// A `String` payload was not valid UTF-8.
    InvalidUtf8,
    /// Trailing bytes remained after a top-level decode.
    TrailingBytes(usize),
    /// A frame header did not start with [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// A frame header carried an unsupported wire version.
    VersionMismatch {
        /// The version this build speaks ([`WIRE_VERSION`]).
        expected: u8,
        /// The version found on the wire.
        got: u8,
    },
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected end of input: needed {needed} bytes, had {remaining}")
            }
            WireError::InvalidTag { ty, tag } => write!(f, "invalid tag {tag} for {ty}"),
            WireError::InvalidBool(b) => write!(f, "invalid bool byte {b}"),
            WireError::LengthOverflow(len) => write!(f, "length prefix {len} too large"),
            WireError::InvalidUtf8 => write!(f, "string payload is not valid UTF-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::VersionMismatch { expected, got } => {
                write!(f, "wire version mismatch: expected {expected}, got {got}")
            }
            WireError::FrameTooLarge(len) => write!(f, "frame length {len} too large"),
        }
    }
}

impl std::error::Error for WireError {}

/// Where an [`Encode`] implementation writes its bytes: a buffer, or a
/// consumer that never materialises them (`splitbft-crypto` implements it
/// for its incremental `Sha256` and `Hmac`, so digests, signatures and MACs
/// over a value hash its fields as they are produced).
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The sink behind [`Encode::encoded_len`]: counts, copies nothing.
struct ByteCount(usize);

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Types that can be canonically serialized.
pub trait Encode {
    /// Writes the canonical encoding of `self` to `out`.
    fn encode_to<S: Sink>(&self, out: &mut S);

    /// The exact length of the canonical encoding, computed by walking
    /// the value with a counting sink — no byte is copied, and it cannot
    /// disagree with [`Encode::encode_to`].
    fn encoded_len(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode_to(&mut count);
        count.0
    }

    /// Returns the canonical encoding as a fresh buffer, allocated once
    /// at its final size.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_to(&mut buf);
        buf
    }
}

/// Types that can be decoded from untrusted bytes.
pub trait Decode: Sized {
    /// Decodes one value from the reader, advancing it.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh byte vector.
pub fn encode<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    value.to_wire()
}

/// Decodes exactly one value from `bytes`, rejecting trailing garbage.
pub fn decode<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

/// A cursor over a byte slice used by [`Decode`] implementations.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes exactly `n` bytes, or fails with [`WireError::UnexpectedEof`].
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes a fixed-size array.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            #[inline]
            fn encode_to<S: Sink>(&self, out: &mut S) {
                out.put(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64);

impl Encode for bool {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        out.put(&[*self as u8]);
    }
}
impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::InvalidBool(b)),
        }
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        out.put(self);
    }
}
impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_array()
    }
}

fn encode_len<S: Sink>(len: usize, out: &mut S) {
    debug_assert!(len <= MAX_COLLECTION_LEN as usize, "collection too large to encode");
    (len as u32).encode_to(out);
}

fn decode_len(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let len = u32::decode(r)?;
    if len > MAX_COLLECTION_LEN {
        return Err(WireError::LengthOverflow(len));
    }
    Ok(len as usize)
}

/// A slice encodes exactly as the `Vec` holding the same elements, so a
/// borrowed batch goes on the wire without being cloned into one.
impl<T: Encode> Encode for [T] {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        encode_len(self.len(), out);
        for item in self {
            item.encode_to(out);
        }
    }
}
impl<T: Encode> Encode for Vec<T> {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.as_slice().encode_to(out);
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(r)?;
        // Do not pre-allocate `len` elements blindly: length is attacker
        // controlled. Cap the initial allocation and let push grow it.
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Encode for Bytes {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        encode_len(self.len(), out);
        out.put(self);
    }
}
impl Decode for Bytes {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(r)?;
        Ok(Bytes::copy_from_slice(r.take(len)?))
    }
}

impl Encode for String {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        encode_len(self.len(), out);
        out.put(self.as_bytes());
    }
}
impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(r)?;
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        match self {
            None => out.put(&[0]),
            Some(v) => {
                out.put(&[1]);
                v.encode_to(out);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag { ty: "Option", tag }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.0.encode_to(out);
        self.1.encode_to(out);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.0.encode_to(out);
        self.1.encode_to(out);
        self.2.encode_to(out);
    }
}
impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// The four magic bytes opening every frame on a stream transport.
///
/// A peer that connects to the wrong port (or a corrupted stream) fails
/// the magic check on the first header rather than mis-decoding garbage:
///
/// ```
/// use splitbft_types::wire::{FrameHeader, WireError, FRAME_HEADER_LEN};
///
/// let mut bogus = [0u8; FRAME_HEADER_LEN];
/// bogus[..4].copy_from_slice(b"HTTP");
/// assert_eq!(
///     FrameHeader::parse(&bogus),
///     Err(WireError::BadMagic(*b"HTTP")),
/// );
/// ```
pub const FRAME_MAGIC: [u8; 4] = *b"SBFT";

/// The wire-format version this build speaks.
///
/// The version is carried in every frame header and checked on receipt;
/// there is no negotiation — mixed-version clusters are refused at the
/// first frame:
///
/// ```
/// use splitbft_types::wire::{FrameHeader, WireError, WIRE_VERSION};
///
/// let mut header = FrameHeader { kind: 0, len: 0 }.encode();
/// header[4] = WIRE_VERSION + 1; // a future version
/// assert_eq!(
///     FrameHeader::parse(&header),
///     Err(WireError::VersionMismatch { expected: WIRE_VERSION, got: WIRE_VERSION + 1 }),
/// );
/// ```
pub const WIRE_VERSION: u8 = 1;

/// Maximum payload length a frame may declare (32 MiB). Bounds the
/// allocation a malicious or corrupted header can force on a receiver,
/// like [`MAX_COLLECTION_LEN`] does for in-payload collections.
pub const MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;

/// Byte size of the fixed frame header: magic (4) + version (1) +
/// kind (1) + length (4).
pub const FRAME_HEADER_LEN: usize = 10;

/// The fixed-size header preceding every framed payload on a stream
/// transport.
///
/// Layout (all multi-byte fields little-endian, matching the codec):
///
/// ```text
/// magic[4] | version u8 | kind u8 | length u32
/// ```
///
/// `kind` is owned by the transport layer (`splitbft-net` uses it to
/// distinguish peer handshakes, protocol messages, client requests and
/// replies); the codec only round-trips it.
///
/// # Invariants
///
/// [`FrameHeader::parse`] accepts exactly the headers produced by
/// [`FrameHeader::encode`]:
///
/// ```
/// use splitbft_types::wire::{FrameHeader, FRAME_HEADER_LEN, FRAME_MAGIC, WIRE_VERSION};
///
/// let header = FrameHeader { kind: 2, len: 0xABCD };
/// let bytes = header.encode();
///
/// // Fixed size, magic prefix, version byte, little-endian length.
/// assert_eq!(bytes.len(), FRAME_HEADER_LEN);
/// assert_eq!(&bytes[..4], &FRAME_MAGIC);
/// assert_eq!(bytes[4], WIRE_VERSION);
/// assert_eq!(bytes[5], 2);
/// assert_eq!(&bytes[6..], &[0xCD, 0xAB, 0, 0]);
///
/// // Exact round-trip.
/// assert_eq!(FrameHeader::parse(&bytes), Ok(header));
/// ```
///
/// Oversized length prefixes are rejected before any allocation happens:
///
/// ```
/// use splitbft_types::wire::{FrameHeader, WireError, MAX_FRAME_LEN};
///
/// let huge = FrameHeader { kind: 0, len: MAX_FRAME_LEN + 1 }.encode();
/// assert_eq!(FrameHeader::parse(&huge), Err(WireError::FrameTooLarge(MAX_FRAME_LEN + 1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Transport-defined frame discriminator.
    pub kind: u8,
    /// Payload length in bytes. Must not exceed [`MAX_FRAME_LEN`].
    pub len: u32,
}

impl FrameHeader {
    /// Serializes the header into its fixed wire form.
    pub fn encode(&self) -> [u8; FRAME_HEADER_LEN] {
        let mut out = [0u8; FRAME_HEADER_LEN];
        out[..4].copy_from_slice(&FRAME_MAGIC);
        out[4] = WIRE_VERSION;
        out[5] = self.kind;
        out[6..].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    /// Validates and parses a header, enforcing the magic, version and
    /// length invariants documented on the type.
    pub fn parse(bytes: &[u8; FRAME_HEADER_LEN]) -> Result<Self, WireError> {
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&bytes[..4]);
        if magic != FRAME_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if bytes[4] != WIRE_VERSION {
            return Err(WireError::VersionMismatch { expected: WIRE_VERSION, got: bytes[4] });
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&bytes[6..]);
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge(len));
        }
        Ok(FrameHeader { kind: bytes[5], len })
    }
}

/// Frames one already-encoded payload: header followed by payload bytes.
///
/// ```
/// use splitbft_types::wire::{frame, FRAME_HEADER_LEN};
///
/// let framed = frame(7, b"abc");
/// assert_eq!(framed.len(), FRAME_HEADER_LEN + 3);
/// assert_eq!(&framed[FRAME_HEADER_LEN..], b"abc");
/// ```
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`]; senders build payloads
/// themselves, so an oversized one is a local logic error, not untrusted
/// input.
pub fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME_LEN as usize, "frame payload too large");
    let header = FrameHeader { kind, len: payload.len() as u32 };
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(payload);
    out
}

/// Encodes `msg` and frames it in one buffer, allocated once: the same
/// bytes as `frame(kind, &encode(msg))` without the intermediate payload.
///
/// ```
/// use splitbft_types::wire::{encode, frame, frame_message};
///
/// let msg = vec![1u32, 2, 3];
/// assert_eq!(frame_message(7, &msg), frame(7, &encode(&msg)));
/// ```
///
/// # Panics
///
/// Panics if the encoding exceeds [`MAX_FRAME_LEN`], like [`frame`].
pub fn frame_message<T: Encode + ?Sized>(kind: u8, msg: &T) -> Vec<u8> {
    let len = msg.encoded_len();
    assert!(len <= MAX_FRAME_LEN as usize, "frame payload too large");
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + len);
    out.put(&FrameHeader { kind, len: len as u32 }.encode());
    msg.encode_to(&mut out);
    out
}

/// A decoded frame header plus a **borrowed** view of its payload.
///
/// This is the zero-copy counterpart of the owned `read_frame` path: the
/// payload is a slice into the receive buffer, so handing it to a
/// [`Decode`] implementation costs no intermediate allocation per frame.
/// The view borrows the buffer it was parsed from and must be consumed
/// before more bytes are appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// Transport-defined frame discriminator (see [`FrameHeader::kind`]).
    pub kind: u8,
    /// The frame's payload, borrowed from the receive buffer.
    pub payload: &'a [u8],
}

/// Internal: locates one frame at the front of `buf` without building a
/// borrowed view, returning `(kind, payload_offset, payload_len, total)`.
/// `Ok(None)` means the buffer holds a valid but incomplete prefix.
fn frame_bounds(buf: &[u8]) -> Result<Option<(u8, usize, usize)>, WireError> {
    // Validate the magic/version prefix as early as it is available, so a
    // stream that is definitely garbage is rejected before the peer
    // finishes sending a full (possibly huge) "header".
    let prefix = buf.len().min(4);
    if buf[..prefix] != FRAME_MAGIC[..prefix] {
        let mut magic = [0u8; 4];
        magic[..prefix].copy_from_slice(&buf[..prefix]);
        return Err(WireError::BadMagic(magic));
    }
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header.copy_from_slice(&buf[..FRAME_HEADER_LEN]);
    let header = FrameHeader::parse(&header)?;
    let len = header.len as usize;
    if buf.len() < FRAME_HEADER_LEN + len {
        return Ok(None);
    }
    Ok(Some((header.kind, FRAME_HEADER_LEN, len)))
}

/// Parses one frame from the front of `buf` **without copying**.
///
/// Returns `Ok(None)` when `buf` holds a valid but incomplete frame
/// prefix (more bytes needed), or `Ok(Some((view, consumed)))` where
/// `view.payload` borrows `buf` and `consumed` is the total frame size
/// (header + payload). Header invariants (magic, version, length bound)
/// are enforced exactly as in [`FrameHeader::parse`]; a four-byte magic
/// mismatch is reported as soon as the mismatching byte arrives, even
/// before a full header is buffered.
///
/// ```
/// use splitbft_types::wire::{frame, parse_frame, FRAME_HEADER_LEN};
///
/// let bytes = frame(7, b"abc");
/// let (view, consumed) = parse_frame(&bytes).unwrap().unwrap();
/// assert_eq!((view.kind, view.payload), (7, &b"abc"[..]));
/// assert_eq!(consumed, FRAME_HEADER_LEN + 3);
/// assert_eq!(parse_frame(&bytes[..5]).unwrap(), None, "incomplete header");
/// ```
pub fn parse_frame(buf: &[u8]) -> Result<Option<(FrameView<'_>, usize)>, WireError> {
    match frame_bounds(buf)? {
        None => Ok(None),
        Some((kind, off, len)) => {
            Ok(Some((FrameView { kind, payload: &buf[off..off + len] }, off + len)))
        }
    }
}

/// An incremental frame reassembler for stream transports.
///
/// Bytes arrive in arbitrary chunks (nonblocking reads split frames at
/// any boundary); the assembler buffers them and yields complete frames
/// as **borrowed** [`FrameView`]s — no per-frame payload allocation.
/// Consumed bytes are compacted away lazily, so steady-state reassembly
/// reuses one buffer.
///
/// Two feeding styles:
/// - [`FrameAssembler::extend`] copies a chunk in (tests, simple loops);
/// - [`FrameAssembler::read_space`] + [`FrameAssembler::commit`] expose
///   the buffer's writable tail so `Read::read` can fill it directly —
///   the socket path copies each byte exactly once, kernel to buffer.
///
/// ```
/// use splitbft_types::wire::{frame, FrameAssembler};
///
/// let bytes = [frame(1, b"first"), frame(2, b"second")].concat();
/// let mut asm = FrameAssembler::new();
/// // Feed in awkward pieces: mid-header, mid-payload.
/// asm.extend(&bytes[..7]);
/// assert!(asm.next_frame().unwrap().is_none());
/// asm.extend(&bytes[7..20]);
/// let first = asm.next_frame().unwrap().unwrap();
/// assert_eq!((first.kind, first.payload), (1, &b"first"[..]));
/// asm.extend(&bytes[20..]);
/// let second = asm.next_frame().unwrap().unwrap();
/// assert_eq!((second.kind, second.payload), (2, &b"second"[..]));
/// assert!(asm.next_frame().unwrap().is_none());
/// ```
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix: bytes in `buf[..start]` belong to already-yielded
    /// frames and are reclaimed on the next compaction.
    start: usize,
    /// Valid bytes end here; `buf[end..]` is writable spare capacity.
    end: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Moves the unconsumed window to the buffer's front when the dead
    /// prefix dominates, bounding memory at ~2× the largest frame.
    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start >= self.end - self.start || self.start >= 64 * 1024 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Exposes at least `min` writable bytes at the buffer's tail for a
    /// direct `read(2)`-style fill; follow with [`FrameAssembler::commit`]
    /// to declare how many were actually written.
    pub fn read_space(&mut self, min: usize) -> &mut [u8] {
        self.compact();
        let needed = self.end + min.max(1);
        if self.buf.len() < needed {
            self.buf.resize(needed, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Declares that `n` bytes of the slice returned by the last
    /// [`FrameAssembler::read_space`] call now hold stream data.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the exposed space — that would claim
    /// uninitialized bytes as stream content.
    pub fn commit(&mut self, n: usize) {
        assert!(self.end + n <= self.buf.len(), "commit past exposed read space");
        self.end += n;
    }

    /// Appends a chunk (copying it once into the buffer).
    pub fn extend(&mut self, bytes: &[u8]) {
        let space = self.read_space(bytes.len().max(1));
        space[..bytes.len()].copy_from_slice(bytes);
        self.commit(bytes.len());
    }

    /// Yields the next complete frame as a borrowed view, or `Ok(None)`
    /// until more bytes arrive. Errors are sticky in practice: a framing
    /// error (bad magic, version, oversized length) means the stream is
    /// unrecoverable and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<FrameView<'_>>, WireError> {
        match frame_bounds(&self.buf[self.start..self.end])? {
            None => Ok(None),
            Some((kind, off, len)) => {
                let payload_start = self.start + off;
                self.start += off + len;
                Ok(Some(FrameView { kind, payload: &self.buf[payload_start..payload_start + len] }))
            }
        }
    }
}

/// Asserts that a value encodes and decodes back to itself. Used pervasively
/// in unit tests across the workspace.
///
/// # Panics
///
/// Panics if the round-trip fails or yields a different value.
pub fn roundtrip<T: Encode + Decode + PartialEq + fmt::Debug>(value: &T) {
    let bytes = encode(value);
    let back: T = decode(&bytes).expect("decode of freshly-encoded value");
    assert_eq!(&back, value, "wire round-trip changed the value");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u8::MAX);
        roundtrip(&0xdead_beefu32);
        roundtrip(&u64::MAX);
        roundtrip(&u128::MAX);
        roundtrip(&(-5i64));
    }

    #[test]
    fn little_endian_layout() {
        assert_eq!(encode(&1u32), vec![1, 0, 0, 0]);
        assert_eq!(encode(&0x0102u16), vec![2, 1]);
    }

    #[test]
    fn bool_rejects_garbage() {
        assert_eq!(decode::<bool>(&[2]), Err(WireError::InvalidBool(2)));
        assert_eq!(decode::<bool>(&[0]), Ok(false));
        assert_eq!(decode::<bool>(&[1]), Ok(true));
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<u64>::new());
        roundtrip(&Bytes::from_static(b"hello world"));
        roundtrip(&String::from("sigma"));
        roundtrip(&Some(42u32));
        roundtrip(&Option::<u32>::None);
        roundtrip(&(7u8, String::from("x")));
    }

    #[test]
    fn eof_is_detected() {
        let bytes = encode(&0xffff_ffffu32);
        assert!(matches!(
            decode::<u64>(&bytes),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&1u8);
        bytes.push(0);
        assert_eq!(decode::<u8>(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn length_bomb_rejected() {
        // A Vec<u8> claiming u32::MAX elements.
        let bytes = encode(&u32::MAX);
        assert_eq!(decode::<Vec<u8>>(&bytes), Err(WireError::LengthOverflow(u32::MAX)));
    }

    #[test]
    fn utf8_validated() {
        let mut bytes = Vec::new();
        encode_len(2, &mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(decode::<String>(&bytes), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn frame_header_roundtrip() {
        for kind in [0u8, 1, 7, 255] {
            for len in [0u32, 1, MAX_FRAME_LEN] {
                let h = FrameHeader { kind, len };
                assert_eq!(FrameHeader::parse(&h.encode()), Ok(h));
            }
        }
    }

    #[test]
    fn frame_prepends_exact_header() {
        let framed = frame(3, b"xyz");
        let mut header = [0u8; FRAME_HEADER_LEN];
        header.copy_from_slice(&framed[..FRAME_HEADER_LEN]);
        assert_eq!(FrameHeader::parse(&header), Ok(FrameHeader { kind: 3, len: 3 }));
        assert_eq!(&framed[FRAME_HEADER_LEN..], b"xyz");
    }

    #[test]
    fn frame_header_rejects_corruption() {
        let good = FrameHeader { kind: 1, len: 4 }.encode();

        let mut bad_magic = good;
        bad_magic[0] = b'X';
        assert!(matches!(FrameHeader::parse(&bad_magic), Err(WireError::BadMagic(_))));

        let mut bad_version = good;
        bad_version[4] = 0;
        assert_eq!(
            FrameHeader::parse(&bad_version),
            Err(WireError::VersionMismatch { expected: WIRE_VERSION, got: 0 })
        );

        let bomb = FrameHeader { kind: 1, len: u32::MAX };
        assert_eq!(FrameHeader::parse(&bomb.encode()), Err(WireError::FrameTooLarge(u32::MAX)));
    }

    #[test]
    fn parse_frame_yields_borrowed_payloads() {
        let bytes = frame(4, b"payload");
        let (view, consumed) = parse_frame(&bytes).unwrap().unwrap();
        assert_eq!(view.kind, 4);
        assert_eq!(view.payload, b"payload");
        assert_eq!(consumed, bytes.len());
        // The payload really borrows the input buffer (no copy).
        assert_eq!(view.payload.as_ptr(), bytes[FRAME_HEADER_LEN..].as_ptr());
    }

    #[test]
    fn parse_frame_reports_incomplete_prefixes_as_none() {
        let bytes = frame(9, &[0xAB; 100]);
        for cut in 0..bytes.len() {
            assert_eq!(parse_frame(&bytes[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn parse_frame_rejects_garbage_before_full_header() {
        // One wrong byte in the magic is enough — no need to wait for the
        // remaining 9 header bytes.
        assert!(matches!(parse_frame(b"X"), Err(WireError::BadMagic(_))));
        assert!(matches!(parse_frame(b"SBFX"), Err(WireError::BadMagic(_))));
        let mut wrong_version = frame(0, b"");
        wrong_version[4] = WIRE_VERSION + 1;
        assert!(matches!(
            parse_frame(&wrong_version),
            Err(WireError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn assembler_reassembles_across_arbitrary_splits() {
        let stream = [frame(1, b"alpha"), frame(2, b""), frame(3, &[7u8; 300])].concat();
        // Feed one byte at a time — the worst split pattern.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for byte in &stream {
            asm.extend(std::slice::from_ref(byte));
            while let Some(view) = asm.next_frame().unwrap() {
                got.push((view.kind, view.payload.to_vec()));
            }
        }
        assert_eq!(
            got,
            vec![(1, b"alpha".to_vec()), (2, Vec::new()), (3, vec![7u8; 300])]
        );
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn assembler_read_space_commit_matches_extend() {
        let stream = [frame(5, b"direct"), frame(6, b"fill")].concat();
        let mut asm = FrameAssembler::new();
        // Simulate a socket read landing directly in the buffer.
        let space = asm.read_space(stream.len());
        space[..stream.len()].copy_from_slice(&stream);
        asm.commit(stream.len());
        let first = asm.next_frame().unwrap().unwrap();
        assert_eq!((first.kind, first.payload), (5, &b"direct"[..]));
        let second = asm.next_frame().unwrap().unwrap();
        assert_eq!((second.kind, second.payload), (6, &b"fill"[..]));
    }

    #[test]
    #[should_panic(expected = "commit past exposed read space")]
    fn assembler_commit_past_space_panics() {
        let mut asm = FrameAssembler::new();
        asm.read_space(4);
        asm.commit(usize::MAX);
    }

    #[test]
    fn assembler_compacts_consumed_prefixes() {
        let mut asm = FrameAssembler::new();
        for round in 0..1_000 {
            asm.extend(&frame(1, &[round as u8; 64]));
            assert!(asm.next_frame().unwrap().is_some());
        }
        // 1000 × 74-byte frames passed through; the buffer must not have
        // grown anywhere near the total volume.
        assert!(asm.buf.len() < 16 * 1024, "buffer grew to {}", asm.buf.len());
    }

    #[test]
    fn error_display_mentions_cause() {
        let e = WireError::InvalidTag { ty: "Foo", tag: 9 };
        assert!(e.to_string().contains("Foo"));
        assert!(WireError::UnexpectedEof { needed: 4, remaining: 1 }
            .to_string()
            .contains("needed 4"));
    }
}
