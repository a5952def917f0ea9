//! The confidential client path: attest the Execution enclaves, install
//! a session key, submit encrypted operations — and verify the untrusted
//! environment never observes the plaintext.
//!
//! ```sh
//! cargo run --example confidentiality
//! ```

use splitbft::prelude::*;
use splitbft::types::wire::encode;
use splitbft::types::ConsensusMessage;
use std::collections::VecDeque;

const MASTER_SEED: u64 = 2022;
const SECRET: &[u8] = b"diagnosis: classified";

fn main() {
    let config = ClusterConfig::new(4).expect("4 replicas");
    let authority = PlatformAuthority::from_seed(9);
    let mut replicas: Vec<SplitBftReplica<KeyValueStore>> = (0..4u32)
        .map(|i| {
            SplitBftReplica::new(
                config.clone(),
                ReplicaId(i),
                MASTER_SEED,
                KeyValueStore::new(),
                ExecMode::Hardware,
                CostModel::paper_calibrated(),
            )
        })
        .collect();

    // 1) Attestation: the client verifies each Execution enclave's quote
    //    against the platform authority before trusting it with a key.
    let mut client = SplitBftClient::new(config.clone(), ClientId(3), MASTER_SEED, 555);
    println!("Attesting the 4 Execution enclaves…");
    for replica in &mut replicas {
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
    //    the (untrusted) network.
    let mut queues: Vec<VecDeque<ConsensusMessage>> = (0..4).map(|_| VecDeque::new()).collect();
    let mut observed_on_wire = 0usize;
    let mut secret_sightings = 0usize;
    let mut replies = Vec::new();

    let events = replicas[0].on_client_batch(vec![request]);
    let fanout = |from: usize,
                      events: Vec<ReplicaEvent>,
                      queues: &mut Vec<VecDeque<ConsensusMessage>>,
                      replies: &mut Vec<splitbft::types::Reply>,
                      observed: &mut usize,
                      sightings: &mut usize| {
        for event in events {
            match event {
                ReplicaEvent::Broadcast(msg) => {
                    let bytes = encode(&msg);
                    *observed += bytes.len();
                    *sightings += usize::from(bytes.windows(SECRET.len()).any(|w| w == SECRET));
                    for (j, q) in queues.iter_mut().enumerate() {
                        if j != from {
                            q.push_back(msg.clone());
                        }
                    }
                }
                ReplicaEvent::Reply { reply, .. } => {
                    let bytes = encode(&reply);
                    *sightings += usize::from(bytes.windows(SECRET.len()).any(|w| w == SECRET));
                    replies.push(reply);
                }
                _ => {}
            }
        }
    };
    fanout(0, events, &mut queues, &mut replies, &mut observed_on_wire, &mut secret_sightings);
    loop {
        let mut progressed = false;
        for i in 0..4 {
            while let Some(msg) = queues[i].pop_front() {
                progressed = true;
                let events = replicas[i].on_network_message(msg);
                fanout(i, events, &mut queues, &mut replies, &mut observed_on_wire, &mut secret_sightings);
            }
        }
        if !progressed {
            break;
        }
    }

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
