//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The protocol computes digests over canonical message encodings and over
//! application snapshots; the paper's implementation gets this from `ring`,
//! we implement it directly to keep the reproduction self-contained.
//!
//! Two compression kernels sit behind one hasher, both validated against
//! the NIST short-message vectors and against each other:
//!
//! - [`Backend::Scalar`] — the portable, safe-Rust round loop. It is the
//!   fallback on every CPU and the reference the tests compare against.
//! - [`Backend::ShaNi`] — the x86-64 SHA extensions
//!   (`sha256rnds2`/`sha256msg1`/`sha256msg2`), about five times faster.
//!   It lives in the private `shani` module, the only place in this crate
//!   that contains `unsafe` (see the safety argument there).
//!
//! [`Backend::detect`] picks the kernel from the CPU alone — there is no
//! environment variable, cargo feature or flag — and both kernels produce
//! identical bytes, so which one ran is never observable in a digest.
//! Both absorb whole runs of 64-byte blocks straight from the caller's
//! slice; only a trailing partial block is ever copied.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

/// Bytes per compression block.
pub(crate) const BLOCK: usize = 64;

/// A chaining value: the eight working words between blocks.
pub(crate) type State = [u32; 8];

/// Which compression kernel a hasher runs.
///
/// Production code never names a variant: [`Sha256::new`] asks
/// [`Backend::detect`]. The variants are public so that tests and
/// benchmarks can drive each kernel on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The portable safe-Rust round loop.
    Scalar,
    /// The x86-64 SHA extensions.
    ShaNi,
}

impl Backend {
    /// The fastest kernel this CPU can run.
    pub fn detect() -> Backend {
        if Backend::ShaNi.available() {
            Backend::ShaNi
        } else {
            Backend::Scalar
        }
    }

    /// `true` if this CPU can run the kernel.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => shani::available(),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::ShaNi => false,
        }
    }

    /// A short name for logs and benchmark labels.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::ShaNi => "sha-ni",
        }
    }

    /// Absorbs `blocks` (a whole number of 64-byte blocks) into `state`.
    fn compress_blocks(self, state: &mut State, blocks: &[u8]) {
        match self {
            Backend::Scalar => scalar::compress_blocks(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => shani::compress_blocks(state, blocks),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::ShaNi => unreachable!("Sha256::with_backend refuses an unavailable kernel"),
        }
    }
}

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use splitbft_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let d = h.finalize();
/// assert_eq!(d, splitbft_crypto::sha256::sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: State,
    /// Bytes buffered until a full 64-byte block is available.
    buf: [u8; BLOCK],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the fastest kernel this CPU has.
    pub fn new() -> Self {
        Self::resume(H0, 0)
    }

    /// Creates a fresh hasher on a named kernel, or `None` if this CPU
    /// cannot run it. For tests and benchmarks; everything else uses
    /// [`Sha256::new`].
    pub fn with_backend(backend: Backend) -> Option<Self> {
        backend.available().then(|| Sha256 { backend, ..Self::new() })
    }

    /// Continues from a chaining value saved by [`Sha256::midstate`] after
    /// `absorbed` bytes (a whole number of blocks).
    pub(crate) fn resume(state: State, absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % BLOCK as u64, 0);
        Sha256 {
            state,
            buf: [0u8; BLOCK],
            buf_len: 0,
            total_len: absorbed,
            backend: Backend::detect(),
        }
    }

    /// The chaining value after the blocks absorbed so far. Only
    /// meaningful on a block boundary, which is where HMAC saves it.
    pub(crate) fn midstate(&self) -> State {
        debug_assert_eq!(self.buf_len, 0);
        self.state
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (BLOCK - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < BLOCK {
                return;
            }
            self.backend.compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % BLOCK);
        if !blocks.is_empty() {
            self.backend.compress_blocks(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding, written in place: 0x80, zeros up to the last eight
        // bytes of a block, then the 64-bit big-endian bit length. A
        // buffer already past byte 56 spills into one more block.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= BLOCK - 8 {
            self.backend.compress_blocks(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[BLOCK - 8..].copy_from_slice(&bit_len.to_be_bytes());
        self.backend.compress_blocks(&mut self.state, &self.buf);

        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Hashes whatever is encoded into it, without a buffer in between.
impl splitbft_types::wire::Sink for Sha256 {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// The portable kernel: the FIPS 180-4 round loop in safe Rust.
mod scalar {
    use super::{State, BLOCK, K};

    pub(super) fn compress_blocks(state: &mut State, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % BLOCK, 0);
        for block in blocks.chunks_exact(BLOCK) {
            compress(state, block);
        }
    }

    fn compress(state: &mut State, block: &[u8]) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The x86-64 SHA-extensions kernel — the one module of this crate that
/// contains `unsafe`.
///
/// # Safety argument
///
/// - **Instructions.** [`compress_blocks`] is the only entry point and it
///   asserts [`available`] before *every* call into the
///   `#[target_feature]` function, so the SHA/SSSE3/SSE4.1 instructions
///   never execute on a CPU that lacks them, whatever a caller does.
/// - **Memory.** All memory access goes through `load_bytes`,
///   `load_words` and `store_words`: unaligned 16-byte loads and stores
///   (`_mm_loadu_si128`/`_mm_storeu_si128`) through a reference to an
///   array of exactly 16 bytes. The block a round group reads is a
///   `&[u8; 64]`, its length carried by the type, from `chunks_exact(64)`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::{State, BLOCK, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// `true` if this CPU has every extension the kernel uses. After the
    /// first call this is a few relaxed atomic loads (std caches `cpuid`).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Absorbs a whole number of 64-byte blocks.
    ///
    /// # Panics
    ///
    /// If the CPU lacks the SHA extensions — [`super::Sha256`] never
    /// selects this kernel there.
    pub(super) fn compress_blocks(state: &mut State, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % BLOCK, 0);
        assert!(available(), "SHA-NI kernel selected on a CPU without SHA extensions");
        // SAFETY: `available()` just confirmed sha, ssse3 and sse4.1 (sse2
        // is part of x86-64), the features `compress_blocks_sha` enables.
        unsafe { compress_blocks_sha(state, blocks) }
    }

    #[inline(always)]
    fn load_bytes(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: the reference covers the 16 bytes read; unaligned load.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    #[inline(always)]
    fn load_words(words: &[u32; 4]) -> __m128i {
        // SAFETY: the reference covers the 16 bytes read; unaligned load.
        unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store_words(words: &mut [u32; 4], value: __m128i) {
        // SAFETY: the reference covers the 16 bytes written; unaligned store.
        unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), value) }
    }

    /// Four rounds on the schedule words `$w` = `W[t..t+4]`, low lane first.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $t:expr) => {{
            let k: &[u32; 4] = K[$t..$t + 4].try_into().expect("4 constants");
            let wk = _mm_add_epi32($w, load_words(k));
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }

    /// Replaces the oldest four message-schedule words (`$w0`) by the next
    /// four, derived from the previous sixteen, and runs four rounds on them.
    macro_rules! step4 {
        ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $t:expr) => {{
            $w0 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            );
            rounds4!($abef, $cdgh, $w0, $t);
        }};
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks_sha(state: &mut State, blocks: &[u8]) {
        // Big-endian message words: reverse the bytes of each 32-bit lane.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // The instructions want the state as (A,B,E,F) and (C,D,G,H),
        // high lane first; memory order is A..H, low lane first.
        let (abcd, efgh) = state.split_at_mut(4);
        let abcd: &mut [u32; 4] = abcd.try_into().expect("4 words");
        let efgh: &mut [u32; 4] = efgh.try_into().expect("4 words");
        let cdab = _mm_shuffle_epi32(load_words(abcd), 0xb1);
        let hgfe = _mm_shuffle_epi32(load_words(efgh), 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, hgfe, 8);
        let mut cdgh = _mm_blend_epi16(hgfe, cdab, 0xf0);

        for block in blocks.chunks_exact(BLOCK) {
            let block: &[u8; BLOCK] = block.try_into().expect("chunks_exact(64)");
            let (abef_in, cdgh_in) = (abef, cdgh);
            let quarter = |i: usize| -> __m128i {
                let bytes: &[u8; 16] = block[16 * i..16 * i + 16].try_into().expect("16 bytes");
                _mm_shuffle_epi8(load_bytes(bytes), byte_swap)
            };
            let (mut w0, mut w1, mut w2, mut w3) = (quarter(0), quarter(1), quarter(2), quarter(3));

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 4);
            rounds4!(abef, cdgh, w2, 8);
            rounds4!(abef, cdgh, w3, 12);
            step4!(abef, cdgh, w0, w1, w2, w3, 16);
            step4!(abef, cdgh, w1, w2, w3, w0, 20);
            step4!(abef, cdgh, w2, w3, w0, w1, 24);
            step4!(abef, cdgh, w3, w0, w1, w2, 28);
            step4!(abef, cdgh, w0, w1, w2, w3, 32);
            step4!(abef, cdgh, w1, w2, w3, w0, 36);
            step4!(abef, cdgh, w2, w3, w0, w1, 40);
            step4!(abef, cdgh, w3, w0, w1, w2, 44);
            step4!(abef, cdgh, w0, w1, w2, w3, 48);
            step4!(abef, cdgh, w1, w2, w3, w0, 52);
            step4!(abef, cdgh, w2, w3, w0, w1, 56);
            step4!(abef, cdgh, w3, w0, w1, w2, 60);

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        store_words(abcd, _mm_blend_epi16(feba, dchg, 0xf0));
        store_words(efgh, _mm_alignr_epi8(dchg, feba, 8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every kernel this CPU can run; says so when SHA-NI is skipped.
    fn backends() -> Vec<Backend> {
        if !Backend::ShaNi.available() {
            println!("note: this CPU lacks the SHA extensions; only the scalar kernel is tested");
        }
        [Backend::Scalar, Backend::ShaNi].into_iter().filter(|b| b.available()).collect()
    }

    fn sha256_on(backend: Backend, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_backend(backend).expect("available");
        h.update(data);
        h.finalize()
    }

    #[test]
    fn nist_vectors_on_every_backend() {
        let million_a = vec![b'a'; 1_000_000];
        let cases: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        for backend in backends() {
            for (msg, expect) in cases {
                assert_eq!(hex(&sha256_on(backend, msg)), expect, "{backend:?}, {} B", msg.len());
            }
        }
        // And through the detected default.
        assert_eq!(hex(&sha256(b"abc")), cases[1].1);
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let expect = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must all work.
        for len in 50..70 {
            let data = vec![0xabu8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for chunk in data.chunks(7) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    /// xorshift64*: enough randomness for split points and payloads.
    fn next(rng: &mut u64) -> u64 {
        *rng ^= *rng >> 12;
        *rng ^= *rng << 25;
        *rng ^= *rng >> 27;
        rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    #[test]
    fn backends_agree_on_random_inputs_under_random_splits() {
        let mut rng = 0x5eed_5eed_5eed_5eedu64;
        let kernels = backends();
        for round in 0..2_000 {
            let len = (next(&mut rng) % 301) as usize;
            let data: Vec<u8> = (0..len).map(|_| next(&mut rng) as u8).collect();
            let reference = sha256_on(Backend::Scalar, &data);
            for &backend in &kernels {
                let mut h = Sha256::with_backend(backend).expect("available");
                let mut rest = &data[..];
                while !rest.is_empty() {
                    let take = (next(&mut rng) as usize % 130).min(rest.len());
                    h.update(&rest[..take]);
                    rest = &rest[take..];
                }
                assert_eq!(h.finalize(), reference, "{backend:?}, round {round}, {len} B");
            }
        }
    }

    #[test]
    fn resumed_midstate_continues_the_same_hash() {
        let data: Vec<u8> = (0..200u8).collect();
        let mut head = Sha256::new();
        head.update(&data[..128]);
        let mut resumed = Sha256::resume(head.midstate(), 128);
        resumed.update(&data[128..]);
        assert_eq!(resumed.finalize(), sha256(&data));
    }

    #[test]
    fn detected_backend_is_available_and_an_unavailable_one_is_refused() {
        // CI runs this test with --nocapture to record the kernel in use.
        println!("sha256 backend selected on this CPU: {}", Backend::detect().name());
        assert!(Sha256::with_backend(Backend::Scalar).is_some());
        assert_eq!(Sha256::with_backend(Backend::ShaNi).is_some(), Backend::ShaNi.available());
        assert!(Backend::detect().available());
    }
}
