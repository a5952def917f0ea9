//! Regenerates **Table 2**: TCB sizes (lines of code) for the shared
//! types, each enclave's unique logic, the untrusted environment, and the
//! trusted counter — computed over *this repository* with the built-in
//! comment-aware counter (the paper uses `tokei`).

use splitbft_bench::loc::{count_paths, workspace_root, LocCount};
use splitbft_bench::{print_row, print_sep};

fn main() {
    let root = workspace_root();
    let count = |paths: &[&str]| -> LocCount {
        count_paths(&root, paths).expect("workspace sources readable")
    };

    // Shared in-enclave code: type definitions, wire codec, crypto, and
    // the protocol data structures (logs, certificates, verification,
    // and — in `viewchange.rs` — the replica kit's `ViewTimer` and
    // `PendingRequests`) that all compartments link against.
    let shared = {
        let mut c = count(&["crates/types/src", "crates/crypto/src"]);
        c.add(count(&[
            "crates/pbft/src/log.rs",
            "crates/pbft/src/votes.rs",
            "crates/pbft/src/checkpoint.rs",
            "crates/pbft/src/viewchange.rs",
            "crates/pbft/src/verify.rs",
        ]));
        c
    };
    let prep = count(&["crates/core/src/prep.rs"]);
    let conf = count(&["crates/core/src/conf.rs"]);
    // The Execution enclave's logic includes the hosted application (the
    // paper: "the LOC of the execution enclave includes the key-value
    // store") and the replica kit's reply cache, which it shares with the
    // two baselines but with no other compartment.
    let reply_cache = count(&["crates/app/src/replies.rs"]);
    let exec = {
        let mut c = count(&["crates/core/src/exec.rs"]);
        c.add(count(&[
            "crates/app/src/lib.rs",
            "crates/app/src/kvs.rs",
            "crates/app/src/blockchain.rs",
            "crates/app/src/counter.rs",
        ]));
        c.add(reply_cache);
        c
    };
    // The client library runs outside every TCB.
    let client = count(&["crates/app/src/client.rs", "crates/core/src/client.rs"]);
    let untrusted = count(&[
        "crates/core/src/replica.rs",
        "crates/core/src/adapter.rs",
        "crates/core/src/ecall.rs",
        "crates/net/src",
        "crates/pbft/src/batcher.rs",
    ]);
    let counter = count(&["crates/hybrid/src/usig.rs"]);

    println!("Table 2 — TCB sizes of this reproduction (code lines, comments excluded)");
    println!("(paper reports: Prep 2917, Conf 2888, Exec 3009, untrusted 12565, counter 439)\n");

    let widths = [20, 14, 12, 12, 8];
    print_row(
        &["Component".into(), "Shared types".into(), "Logic".into(), "Total LOC".into(), "Files".into()],
        &widths,
    );
    print_sep(&widths);
    let row = |name: &str, logic: LocCount, with_shared: bool| {
        let shared_code = if with_shared { shared.code } else { 0 };
        print_row(
            &[
                name.into(),
                if with_shared { shared_code.to_string() } else { "—".into() },
                logic.code.to_string(),
                (shared_code + logic.code).to_string(),
                logic.files.to_string(),
            ],
            &widths,
        );
    };
    row("Preparation Enc.", prep, true);
    row("Confirmation Enc.", conf, true);
    row("Execution Enc.", exec, true);
    row("Untrusted Env.", untrusted, false);
    row("Trusted Counter", counter, false);
    row("Client library", client, false);

    println!();
    println!(
        "Shared in-enclave code: {} code lines across {} files \
         (types, wire codec, crypto, protocol structures).",
        shared.code, shared.files
    );
    println!("Shared vs unique, per enclave (what an audit reads once vs once per compartment):");
    for (name, logic) in [("Preparation", prep), ("Confirmation", conf), ("Execution", exec)] {
        println!(
            "  {name:<13} {:>5} shared + {:>5} unique = {:>4.1} % shared",
            shared.code,
            logic.code,
            100.0 * shared.code as f64 / (shared.code + logic.code) as f64,
        );
    }
    println!(
        "  of Execution's unique lines, {} are the reply cache and checkpoint-state \
         format it shares with the PBFT and hybrid baselines (app/src/replies.rs).",
        reply_cache.code
    );
    println!(
        "Observation matching the paper: each individual enclave is far \
         smaller than the whole application — the attack surface per \
         compartment shrinks accordingly."
    );
}
