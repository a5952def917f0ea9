//! The confidential client path: attest the Execution enclaves, install
//! a session key, submit encrypted operations — and verify the untrusted
//! environment never observes the plaintext.
//!
//! ```sh
//! cargo run --example confidentiality
//! ```

use splitbft::prelude::*;
use splitbft::types::wire::encode;
use std::cell::Cell;
use std::rc::Rc;

const MASTER_SEED: u64 = 2022;
const SECRET: &[u8] = b"diagnosis: classified";

fn main() {
    let config = ClusterConfig::new(4).expect("4 replicas");
    let authority = PlatformAuthority::from_seed(9);
    let mut cluster = Cluster::new(config.replicas().map(|id| {
        SplitBftReplica::new(
            config.clone(),
            id,
            MASTER_SEED,
            KeyValueStore::new(),
            ExecMode::Hardware,
            CostModel::paper_calibrated(),
        )
    }));

    // 1) Attestation: the client verifies each Execution enclave's quote
    //    against the platform authority before trusting it with a key.
    let mut client = SplitBftClient::new(config.clone(), ClientId(3), MASTER_SEED, 555);
    println!("Attesting the 4 Execution enclaves…");
    for i in 0..4 {
        let replica = cluster.replica_mut(i);
        let quote = replica.attestation_quote(&authority);
        let (dh_public, wrapped_key) = client
            .attest_execution_enclave(&authority.public_key(), &quote)
            .expect("genuine Execution enclave");
        replica.install_session_key(ClientId(3), dh_public, wrapped_key);
    }
    println!("Session key installed in all Execution enclaves.\n");

    // 2) Submit an encrypted PUT carrying the secret.
    let request = client.issue(&KvOp::put(b"patient-7", SECRET).encode_op());
    println!("Request on the wire is ciphertext: {} bytes, encrypted = {}", request.op.len(), request.encrypted);
    let wire = encode(&request);
    let leaked = wire.windows(SECRET.len()).any(|w| w == SECRET);
    println!("Secret visible in the serialized request: {leaked}");
    assert!(!leaked);

    // 3) Order it through the cluster, watching every byte that crosses
    //    the (untrusted) network: each frame as a peer receives it, and
    //    each reply.
    let leaks = |bytes: &[u8]| bytes.windows(SECRET.len()).any(|w| w == SECRET);
    let observed_on_wire = Rc::new(Cell::new(0usize));
    let sightings_on_wire = Rc::new(Cell::new(0usize));
    cluster.observe({
        let (observed, sightings) = (Rc::clone(&observed_on_wire), Rc::clone(&sightings_on_wire));
        move |frame| {
            observed.set(observed.get() + frame.payload.len());
            sightings.set(sightings.get() + usize::from(leaks(frame.payload)));
            true
        }
    });
    cluster.submit(0, &[request]);
    let replies = std::mem::take(&mut cluster.replies);
    let observed_on_wire = observed_on_wire.get();
    let secret_sightings =
        sightings_on_wire.get() + replies.iter().filter(|reply| leaks(&encode(*reply))).count();

    println!("\nAgreement traffic inspected: {observed_on_wire} bytes across all links");
    println!("Plaintext sightings outside the enclaves: {secret_sightings}");
    assert_eq!(secret_sightings, 0, "confidentiality breach!");

    // 4) The client — and only the client — recovers the result.
    let mut completed = false;
    for reply in &replies {
        if let ClientEvent::Completed(result) = client.on_reply(reply) {
            println!("Client decrypted its result ({} bytes): PUT accepted.", result.len());
            completed = true;
            break;
        }
    }
    assert!(completed);
    println!("\nConfidentiality held: the secret existed in plaintext only inside");
    println!("the Execution enclaves and at the client.");
}
