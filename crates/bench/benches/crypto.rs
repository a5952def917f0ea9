//! Microbenchmarks of the cryptographic primitives — the real-time
//! counterpart to the virtual-time constants in
//! `splitbft_tee::CostModel`.
//!
//! Each `crypto.*` probe of the repository benchmark (`BENCHMARK.json`)
//! has a twin here with the same input shape, named in the comments, so a
//! developer can run one primitive alone:
//! `cargo bench --offline -p splitbft-bench --bench crypto`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use splitbft_crypto::aead::{open, seal, AeadKey};
use splitbft_crypto::hmac::hmac_sha256;
use splitbft_crypto::sha256::{sha256, Backend, Sha256};
use splitbft_crypto::{KeyPair, KeyRegistry, MacKey};
use splitbft_types::{Digest, Prepare, ReplicaId, SeqNum, SignerId, View};

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    g.sample_size(20);

    let payload_small = vec![0xABu8; 64];
    let payload_kib = vec![0x5Au8; 1024];
    let payload_large = vec![0xABu8; 16 * 1024];
    let payload_checkpoint = vec![0x5Au8; 512 * 1024];

    println!("sha256 backend selected on this CPU: {}", Backend::detect().name());
    g.bench_function("sha256/64B", |b| b.iter(|| sha256(black_box(&payload_small))));
    g.bench_function("sha256/16KiB", |b| b.iter(|| sha256(black_box(&payload_large))));
    // crypto.sha256_ns_per_kib, once per kernel this CPU can run.
    for backend in [Backend::Scalar, Backend::ShaNi] {
        let Some(fresh) = Sha256::with_backend(backend) else {
            println!("sha256/1KiB/{}: skipped, this CPU cannot run it", backend.name());
            continue;
        };
        g.bench_function(&format!("sha256/1KiB/{}", backend.name()), |b| {
            b.iter(|| {
                let mut h = fresh.clone();
                h.update(black_box(&payload_kib));
                h.finalize()
            })
        });
    }

    g.bench_function("hmac/64B", |b| {
        b.iter(|| hmac_sha256(black_box(b"key material 32 bytes long......"), black_box(&payload_small)))
    });
    // crypto.hmac_tag_ns_64b: a keyed tag, pads already absorbed.
    let mac = MacKey::derive(b"probe", b"hmac");
    g.bench_function("mackey/tag-64B", |b| b.iter(|| mac.tag(black_box(&payload_small))));

    // crypto.sign_us / crypto.verify_us (wire-form key, parsed per call).
    let kp = KeyPair::from_seed(7);
    let sig = kp.sign(&payload_small);
    let pk = kp.public_key();
    g.bench_function("schnorr/sign", |b| b.iter(|| kp.sign(black_box(&payload_small))));
    g.bench_function("schnorr/verify", |b| {
        b.iter(|| KeyPair::verify(black_box(&pk), black_box(&payload_small), black_box(&sig)))
    });
    // What replicas actually run per message: a registered key with its
    // power table, over a signed protocol payload.
    let signer = SignerId::Replica(ReplicaId(1));
    let signer_pair = KeyPair::for_signer(7, signer);
    let registry = KeyRegistry::with_signers(7, [signer]);
    let prepare = Prepare {
        view: View(0),
        seq: SeqNum(1),
        digest: Digest::from_bytes([1u8; 32]),
        replica: ReplicaId(1),
    };
    let signed = signer_pair.sign_payload(prepare, signer);
    g.bench_function("registry/verify_signed", |b| {
        b.iter(|| registry.verify_signed(black_box(&signed)).unwrap())
    });

    let key = AeadKey::new(&[7u8; 32]);
    let sealed = seal(&key, 1, b"", &payload_small);
    g.bench_function("aead/seal-64B", |b| {
        b.iter(|| seal(black_box(&key), 1, b"", black_box(&payload_small)))
    });
    // crypto.aead_seal_ns_per_kib, and the sealed-checkpoint size of the
    // durable KVS workload.
    g.bench_function("aead/seal-1KiB", |b| {
        b.iter(|| seal(black_box(&key), 1, b"probe", black_box(&payload_kib)))
    });
    g.bench_function("aead/seal-512KiB", |b| {
        b.iter(|| seal(black_box(&key), 1, b"probe", black_box(&payload_checkpoint)))
    });
    g.bench_function("aead/open-64B", |b| {
        b.iter(|| open(black_box(&key), 1, b"", black_box(&sealed)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
