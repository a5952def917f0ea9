//! Byte compatibility with the commit before the fast crypto path.
//!
//! `golden_pr14.txt` was written by running [`transcript`] against the
//! parent commit (scalar SHA-256, five-compression HMAC, `u128 %`
//! arithmetic). Signatures, MAC keys and tags, sealed blobs and digests
//! must not change by one byte: peers, WAL directories and sealed
//! checkpoints from before the change have to keep verifying.
//!
//! The transcript uses only items both commits have, so the same file
//! regenerates the pin on either side.

use splitbft_crypto::sha256::sha256;
use splitbft_crypto::{
    client_mac_key, digest_bytes, digest_of, hmac_sha256, seal, AeadKey, KeyPair, MacKey,
};
use splitbft_types::{ClientId, Digest, Prepare, ReplicaId, SeqNum, View};
use std::fmt::Write as _;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 % 251) as u8).collect()
}

fn transcript() -> String {
    let mut out = String::new();
    let mut line = |name: String, bytes: &[u8]| writeln!(out, "{name} = {}", hex(bytes)).unwrap();

    let messages = [Vec::new(), b"splitbft golden message".to_vec(), pattern(100)];
    for seed in [1u64, 7, 0xdead_beef_cafe] {
        let pair = KeyPair::from_seed(seed);
        line(format!("public_key seed={seed}"), &pair.public_key().0);
        for msg in &messages {
            line(format!("sign seed={seed} len={}", msg.len()), &pair.sign(msg).0);
        }
    }

    let key = MacKey::derive(b"golden master", b"golden context");
    line("mac derive".into(), key.as_bytes());
    for len in [0usize, 20, 64, 200] {
        line(format!("mac tag len={len}"), &key.tag(&pattern(len)));
    }
    let client = client_mac_key(42, ClientId(7));
    line("client_mac_key seed=42 client=7".into(), client.as_bytes());
    line("client_mac_key tag".into(), &client.tag(b"request bytes"));
    line("hmac long key".into(), &hmac_sha256(&pattern(150), &pattern(70)));

    let aead = AeadKey::derive(b"golden master", b"golden aead");
    line("seal len=0".into(), &seal(&aead, 5, b"hdr", b""));
    line("seal len=33".into(), &seal(&aead, 6, b"hdr", &pattern(33)));
    let big = seal(&aead, 7, b"a longer associated-data label", &pattern(10_000));
    line("seal len=10000 head".into(), &big[..48]);
    line("seal len=10000 tag".into(), &big[big.len() - 32..]);
    line("seal len=10000 sha256".into(), &sha256(&big));

    line("digest_bytes len=1000".into(), &digest_bytes(&pattern(1000)).0);
    line("digest_of vec".into(), &digest_of(&vec![1u32, 2, 3]).0);
    let prepare = Prepare {
        view: View(3),
        seq: SeqNum(99),
        digest: Digest::from_bytes([0x11; 32]),
        replica: ReplicaId(2),
    };
    line("digest_of prepare".into(), &digest_of(&prepare).0);
    out
}

#[test]
fn outputs_are_byte_identical_to_the_parent_commit() {
    let pinned = include_str!("golden_pr14.txt");
    let actual = transcript();
    for (pinned, actual) in pinned.lines().zip(actual.lines()) {
        assert_eq!(actual, pinned);
    }
    assert_eq!(actual.lines().count(), pinned.lines().count());
}
