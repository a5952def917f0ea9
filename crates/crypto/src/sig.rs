//! A Schnorr-style signature scheme over a small prime-order field.
//!
//! The paper signs inter-replica and inter-enclave messages with 256-bit
//! ed25519. Reproducing ed25519 from scratch is out of scope, so we use a
//! textbook Schnorr scheme over the multiplicative group of the Mersenne
//! prime `p = 2^61 − 1` with deterministic (hash-derived) nonces. This is
//! **simulation-grade**: the group is far too small for real security, but
//! the scheme is *publicly verifiable* — verification uses only the public
//! key — so every protocol code path (sign on send, verify on receive,
//! reject forgeries, quorum certificates over third-party signatures) is
//! exercised exactly as with ed25519. See `DESIGN.md` §2 for the
//! substitution rationale.
//!
//! Signature layout inside the 64-byte [`splitbft_types::Signature`]:
//! bytes `0..8` hold `e` and bytes `8..16` hold `s` (little-endian); the
//! remainder is zero. Public keys occupy the first 8 bytes of the 32-byte
//! [`splitbft_types::PublicKey`].

use crate::sha256::Sha256;
use splitbft_types::{PublicKey, Signature};

/// The group modulus: the Mersenne prime `2^61 − 1`.
pub const P: u64 = (1u64 << 61) - 1;
/// The exponent modulus (group order of `Z_p^*`).
pub const Q: u64 = P - 1;
/// The generator.
pub const G: u64 = 3;

/// `a · b mod P` for operands already reduced (`≤ P`).
///
/// `P = 2^61 − 1`, so `2^61 ≡ 1`: the 122-bit product folds to its low 61
/// bits plus its high bits, and one conditional subtraction finishes the
/// reduction — no division.
#[inline]
const fn mul_mod(a: u64, b: u64) -> u64 {
    debug_assert!(a <= P && b <= P);
    let x = a as u128 * b as u128;
    // lo ≤ P and hi < P − 1, so the sum is below 2P.
    let r = (x as u64 & P) + (x >> 61) as u64;
    if r >= P {
        r - P
    } else {
        r
    }
}

/// `base^exp mod P` by squaring — the variable-base path. Repeated
/// exponentiation of one base goes through a fixed-base table instead.
pub fn pow_mod(base: u64, mut exp: u64) -> u64 {
    let mut base = base % P;
    let mut acc: u64 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// A fixed-base exponentiation table: row `i`, column `d` holds
/// `base^(d · 16^i) mod P`, so any 64-bit power of the base is sixteen
/// multiplications and no squaring (about a sixth of [`pow_mod`]'s work).
/// 2 KiB per base: one static table for [`G`], one per registered
/// verification key.
#[derive(Clone)]
struct FixedBase([[u64; 16]; 16]);

impl FixedBase {
    const fn new(base: u64) -> Self {
        let mut table = [[1u64; 16]; 16];
        let mut window_base = base % P; // base^(16^i)
        let mut i = 0;
        while i < 16 {
            // The running power stays in a local: reading it back through
            // `table[i][d - 1]` sent LLVM into minutes of compile time.
            let mut power = 1; // window_base^d
            let mut d = 1;
            while d < 16 {
                power = mul_mod(power, window_base);
                table[i][d] = power;
                d += 1;
            }
            window_base = mul_mod(power, window_base);
            i += 1;
        }
        FixedBase(table)
    }

    fn pow(&self, exp: u64) -> u64 {
        let mut acc = 1;
        for (i, row) in self.0.iter().enumerate() {
            acc = mul_mod(acc, row[(exp >> (4 * i)) as usize & 15]);
        }
        acc
    }
}

/// Powers of the generator, built at compile time.
static G_POWERS: FixedBase = FixedBase::new(G);

/// Hashes `parts`, then whatever `message` absorbs, to a nonzero scalar.
fn hash_to_scalar(parts: &[&[u8]], message: impl FnOnce(&mut Sha256)) -> u64 {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    message(&mut h);
    let d = h.finalize();
    let mut v = u64::from_le_bytes(d[..8].try_into().expect("8 bytes")) % Q;
    if v == 0 {
        v = 1; // zero scalars break the scheme; remap deterministically
    }
    v
}

/// Diffie–Hellman public value `g^secret mod p` over the same group.
///
/// Used by the attestation flow: the Execution enclave publishes its DH
/// value in the attestation quote's report data; the client derives a
/// shared secret to wrap the session key. Simulation-grade, like the
/// signatures.
pub fn dh_public(secret: u64) -> u64 {
    G_POWERS.pow(secret % Q)
}

/// The DH shared secret `other^secret mod p`.
pub fn dh_shared(secret: u64, other_public: u64) -> u64 {
    pow_mod(other_public, secret % Q)
}

/// A secret signing key, kept with the public key it determines.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    scalar: u64,
    public: SigPublicKey,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(…)")
    }
}

impl SecretKey {
    /// Derives a secret key deterministically from a seed. Used by the
    /// simulated provisioning step (in the paper each enclave generates its
    /// key pair at attestation time).
    pub fn from_seed(seed: u64) -> Self {
        let scalar = hash_to_scalar(&[b"splitbft-sk", &seed.to_le_bytes()], |_| {});
        SecretKey { scalar, public: SigPublicKey(G_POWERS.pow(scalar)) }
    }

    /// The matching public key `g^sk mod p`.
    pub fn public(&self) -> SigPublicKey {
        self.public
    }

    /// Signs `msg`, producing a deterministic Schnorr signature.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_streamed(|h| h.update(msg))
    }

    /// Signs the bytes `message` feeds into a hasher, without
    /// materialising them. The scheme hashes the message twice (nonce and
    /// challenge), so `message` runs twice and must feed the same bytes
    /// both times.
    pub fn sign_streamed(&self, message: impl Fn(&mut Sha256)) -> Signature {
        // Deterministic nonce: k = H(sk, msg). Reusing k across messages
        // would leak sk in a real scheme, so derive it from both.
        let k = hash_to_scalar(&[b"splitbft-nonce", &self.scalar.to_le_bytes()], &message);
        let r = G_POWERS.pow(k);
        let e = challenge(r, self.public, &message);
        let s = (k as u128 + e as u128 * self.scalar as u128) % Q as u128;
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&e.to_le_bytes());
        out[8..16].copy_from_slice(&(s as u64).to_le_bytes());
        Signature(out)
    }
}

/// The Schnorr challenge `e = H(r, pk, msg)`.
fn challenge(r: u64, pk: SigPublicKey, message: impl FnOnce(&mut Sha256)) -> u64 {
    hash_to_scalar(&[b"splitbft-chal", &r.to_le_bytes(), &pk.0.to_le_bytes()], message)
}

/// Verifies `sig` over the bytes `message` feeds the hasher under `pk`,
/// with `pk_pow(x)` computing `pk^x mod P` — by squaring for a one-off
/// key, from a table for a [`VerifyingKey`].
fn verify_with(
    pk: SigPublicKey,
    pk_pow: impl FnOnce(u64) -> u64,
    message: impl FnOnce(&mut Sha256),
    sig: &Signature,
) -> bool {
    if pk.0 == 0 || pk.0 >= P {
        return false;
    }
    let e = u64::from_le_bytes(sig.0[..8].try_into().expect("8 bytes"));
    let s = u64::from_le_bytes(sig.0[8..16].try_into().expect("8 bytes"));
    if e == 0 || e >= Q || s >= Q {
        return false;
    }
    if sig.0[16..].iter().any(|&b| b != 0) {
        return false; // non-canonical padding
    }
    // r' = g^s * pk^(-e) = g^s * pk^(Q - e)
    let r = mul_mod(G_POWERS.pow(s), pk_pow(Q - e));
    e == challenge(r, pk, message)
}

/// A public verification key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SigPublicKey(pub u64);

impl SigPublicKey {
    /// Verifies `sig` over `msg`.
    ///
    /// Returns `false` for malformed signatures, out-of-range values, or a
    /// failed challenge check — verification never panics on attacker
    /// input.
    #[must_use]
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        verify_with(*self, |x| pow_mod(self.0, x), |h| h.update(msg), sig)
    }

    /// Packs into the opaque wire representation.
    pub fn to_wire(self) -> PublicKey {
        let mut out = [0u8; 32];
        out[..8].copy_from_slice(&self.0.to_le_bytes());
        PublicKey(out)
    }

    /// Unpacks from the wire representation.
    ///
    /// Returns `None` if the value is out of range or the padding is
    /// non-canonical.
    pub fn from_wire(pk: &PublicKey) -> Option<Self> {
        if pk.0[8..].iter().any(|&b| b != 0) {
            return None;
        }
        let v = u64::from_le_bytes(pk.0[..8].try_into().expect("8 bytes"));
        if v == 0 || v >= P {
            return None;
        }
        Some(SigPublicKey(v))
    }
}

/// A public key prepared for many verifications: it carries the table of
/// its own powers, so each [`verify`](VerifyingKey::verify) replaces the
/// ~90 multiplications of `pk^(Q−e)` by 16. What
/// [`KeyRegistry`](crate::KeyRegistry) stores.
#[derive(Clone)]
pub struct VerifyingKey {
    key: SigPublicKey,
    powers: Box<FixedBase>,
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("VerifyingKey").field(&self.key).finish()
    }
}

impl VerifyingKey {
    /// Builds the power table for `key` (≈ 250 multiplications).
    pub fn new(key: SigPublicKey) -> Self {
        VerifyingKey { key, powers: Box::new(FixedBase::new(key.0)) }
    }

    /// The plain public key.
    pub fn key(&self) -> SigPublicKey {
        self.key
    }

    /// Verifies `sig` over `msg`; same verdict as [`SigPublicKey::verify`].
    #[must_use]
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        self.verify_streamed(|h| h.update(msg), sig)
    }

    /// Verifies `sig` over the bytes `message` feeds into a hasher,
    /// without materialising them.
    #[must_use]
    pub fn verify_streamed(&self, message: impl FnOnce(&mut Sha256), sig: &Signature) -> bool {
        verify_with(self.key, |x| self.powers.pow(x), message, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let sk = SecretKey::from_seed(1);
        let pk = sk.public();
        let sig = sk.sign(b"message");
        assert!(pk.verify(b"message", &sig));
    }

    #[test]
    fn verification_rejects_wrong_message() {
        let sk = SecretKey::from_seed(2);
        let sig = sk.sign(b"message");
        assert!(!sk.public().verify(b"other", &sig));
    }

    #[test]
    fn verification_rejects_wrong_key() {
        let a = SecretKey::from_seed(3);
        let b = SecretKey::from_seed(4);
        let sig = a.sign(b"message");
        assert!(!b.public().verify(b"message", &sig));
    }

    #[test]
    fn signature_is_deterministic() {
        let sk = SecretKey::from_seed(5);
        assert_eq!(sk.sign(b"m").0, sk.sign(b"m").0);
        assert_ne!(sk.sign(b"m").0, sk.sign(b"n").0);
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SecretKey::from_seed(6);
        let mut sig = sk.sign(b"message");
        sig.0[0] ^= 1;
        assert!(!sk.public().verify(b"message", &sig));
    }

    #[test]
    fn non_canonical_padding_rejected() {
        let sk = SecretKey::from_seed(7);
        let mut sig = sk.sign(b"message");
        sig.0[63] = 1;
        assert!(!sk.public().verify(b"message", &sig));
    }

    #[test]
    fn zero_signature_rejected() {
        let sk = SecretKey::from_seed(8);
        assert!(!sk.public().verify(b"message", &Signature::ZERO));
    }

    #[test]
    fn wire_roundtrip_and_validation() {
        let pk = SecretKey::from_seed(9).public();
        let wire = pk.to_wire();
        assert_eq!(SigPublicKey::from_wire(&wire), Some(pk));

        let mut bad = wire;
        bad.0[20] = 1;
        assert_eq!(SigPublicKey::from_wire(&bad), None);

        let zero = PublicKey([0u8; 32]);
        assert_eq!(SigPublicKey::from_wire(&zero), None);
    }

    /// The parent implementation: `u128 %`, any modulus.
    fn mul_ref(a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % P as u128) as u64
    }

    fn pow_ref(mut base: u64, mut exp: u64) -> u64 {
        let mut acc = 1;
        base %= P;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mul_ref(acc, base);
            }
            base = mul_ref(base, base);
            exp >>= 1;
        }
        acc
    }

    fn next(rng: &mut u64) -> u64 {
        *rng ^= *rng >> 12;
        *rng ^= *rng << 25;
        *rng ^= *rng >> 27;
        rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    #[test]
    fn mul_mod_matches_division_on_edge_and_random_operands() {
        let edges = [0, 1, 2, P - 2, P - 1, P, 1 << 60, (1 << 60) + 1];
        for a in edges {
            for b in edges {
                assert_eq!(mul_mod(a, b), mul_ref(a, b), "{a} * {b}");
            }
        }
        let mut rng = 0x1234_5678_9abc_def1u64;
        for _ in 0..100_000 {
            let (a, b) = (next(&mut rng) % P, next(&mut rng) % P);
            assert_eq!(mul_mod(a, b), mul_ref(a, b), "{a} * {b}");
        }
    }

    #[test]
    fn pow_mod_and_fixed_base_match_division_reference() {
        assert_eq!(pow_mod(2, 10), 1024);
        assert_eq!(pow_mod(3, 0), 1);
        assert_eq!(pow_mod(G, Q), 1); // group order
        let g = FixedBase::new(G);
        let mut rng = 0xfeed_f00d_dead_beefu64;
        let edges = [0, 1, P - 1, P, u64::MAX];
        for round in 0..2_000 {
            let base = if round < 25 { edges[round % 5] } else { next(&mut rng) };
            let exp = if round < 25 { edges[round / 5] } else { next(&mut rng) };
            assert_eq!(pow_mod(base, exp), pow_ref(base, exp), "{base}^{exp}");
            assert_eq!(FixedBase::new(base).pow(exp), pow_ref(base, exp), "table {base}^{exp}");
            assert_eq!(g.pow(exp), pow_ref(G, exp), "G^{exp}");
        }
    }

    #[test]
    fn verifying_key_gives_the_same_verdicts() {
        let sk = SecretKey::from_seed(11);
        let prepared = VerifyingKey::new(sk.public());
        assert_eq!(prepared.key(), sk.public());
        let sig = sk.sign(b"message");
        assert!(prepared.verify(b"message", &sig));
        assert!(!prepared.verify(b"other", &sig));
        let mut bad = sig;
        bad.0[9] ^= 4;
        assert_eq!(prepared.verify(b"message", &bad), sk.public().verify(b"message", &bad));
        assert!(!prepared.verify(b"message", &Signature::ZERO));
        assert!(!VerifyingKey::new(SigPublicKey(0)).verify(b"message", &sig));
        assert!(!VerifyingKey::new(SigPublicKey(P)).verify(b"message", &sig));
    }

    #[test]
    fn dh_agreement() {
        let (a, b) = (0xAAAA_BBBB, 0xCCCC_DDDD);
        let shared_ab = dh_shared(a, dh_public(b));
        let shared_ba = dh_shared(b, dh_public(a));
        assert_eq!(shared_ab, shared_ba);
        // A third party with different secret disagrees.
        assert_ne!(dh_shared(0xEEEE, dh_public(b)), shared_ab);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let keys: Vec<u64> = (0..50).map(|s| SecretKey::from_seed(s).public().0).collect();
        let unique: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len());
    }
}
