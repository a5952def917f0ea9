//! The binary's flag check: each subcommand knows its flags, and a
//! mistyped or removed one exits 1 naming it before any cluster file is
//! read or any node binds.

use std::process::Command;

/// Runs `splitbft-node` and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_splitbft-node"))
        .args(args)
        .output()
        .expect("run splitbft-node");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_flags_exit_1_naming_the_flag() {
    // The cluster file does not exist: an error about it would mean the
    // flags were not checked first.
    for flag in ["--data-dri", "--enable-fault-injection", "--enable-status-admin", "--byzantine"] {
        let (code, stderr) =
            run(&["serve", "--config", "absent.toml", "--replica", "0", flag, "/d"]);
        assert_eq!(code, Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("serve: unknown flag {flag:?}")), "{flag}: {stderr}");
    }
    let (code, stderr) = run(&["client", "--config", "absent.toml", "--requets", "3"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("client: unknown flag \"--requets\""), "{stderr}");
    // The flags `bench` no longer takes, and a mistyped one: the bench
    // would otherwise launch a cluster and measure it for 5 s.
    for flag in [
        "--compare", "--config", "--sweep-batch-frames", "--window-ms", "--retry-ms",
        "--drain-secs", "--client-base", "--pipelin",
    ] {
        let (code, stderr) = run(&["bench", "--protocol", "pbft", flag, "1"]);
        assert_eq!(code, Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("bench: unknown flag {flag:?}")), "{flag}: {stderr}");
    }
}

#[test]
fn known_flags_pass_the_check() {
    // How `crash_recovery.rs` and `sharded_e2e.rs` launch replicas, then
    // a client using every client flag: each gets as far as reading the
    // (absent) cluster file.
    for args in [
        &["serve", "--config", "absent.toml", "--replica", "3", "--data-dir", "/d"][..],
        &[
            "client", "--config", "absent.toml", "--protocol", "pbft", "--client", "2", "--op",
            "inc", "--requests", "3", "--timeout-secs", "5",
        ],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("cannot read absent.toml"), "{args:?}: {stderr}");
    }
}
