//! `splitbft-node` — deployable replica / client binary.
//!
//! ```text
//! splitbft-node serve  --config cluster.toml --replica 0 [--protocol pbft|splitbft|minbft]
//! splitbft-node client --config cluster.toml [--protocol ...] [--client 1]
//!                      [--op inc] [--requests 5] [--timeout-secs 30]
//! splitbft-node bench  --protocol splitbft --clients 8 --pipeline 4 --duration 5s
//! splitbft-node bench  --compare --sweep-batch-frames 1,64 --out bench-out
//! ```
//!
//! `serve` hosts one replica of the cluster over the framed TCP
//! transport (one readiness-loop thread) and runs until killed.
//! `client` drives sequential requests at the view-0 primary and
//! prints each agreed result. `bench` measures a cluster — self-orchestrated on localhost, or an existing
//! `--config` deployment — and writes `BENCH_<name>.json` reports (see
//! the `splitbft_node::bench` module docs). See `docs/ARCHITECTURE.md`
//! and the crate docs of `splitbft_node` for the cluster-file format.

use splitbft_node::{
    apply_batch_flags, apply_durability_flags, bench, check_retired_transport_flag,
    cli_flag as flag, parse_cluster_toml, run_client, run_replica, ClusterFile, NodeOptions,
    ProtocolKind,
};
use splitbft_obs::MetricsServer;
use splitbft_types::{ClientId, ReplicaId};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the `SIGTERM` handler; the serve loop polls it and turns the
/// signal into a graceful drain (stop admitting requests, finish
/// in-flight batches, seal a checkpoint, flush the WAL, exit 0).
static TERMINATE: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    // Async-signal-safe: one relaxed store, nothing else.
    TERMINATE.store(true, Ordering::Relaxed);
}

/// Installs the `SIGTERM` handler via the libc `signal(2)` entry point.
/// The workspace has no `libc` crate, so the binary declares the symbol
/// itself; it lives in the binary, outside every
/// `#![forbid(unsafe_code)]` crate. (The library modules allowed
/// `unsafe_code` are `splitbft-crypto`'s SHA-NI kernel and
/// `splitbft-net`'s `readiness` wait.)
fn install_sigterm_handler() {
    #[cfg(unix)]
    {
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGTERM, on_sigterm);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("bench") => run_to_exit(bench::run(&args[1..]).map(|_| ())),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
splitbft-node — run a PBFT / SplitBFT / MinBFT replica, client, or bench over TCP

USAGE:
    splitbft-node serve  --config <cluster.toml> --replica <id> [--protocol <p>]
                         [--data-dir <dir>] [--wal-group-commit-us <us>]
                         [--timeout-ms <ms>] [--batch-frames <n>]
                         [--batch-bytes <n>] [--shards <n>]
                         [--enable-fault-injection] [--enable-status-admin]
                         [--metrics-addr <host:port>]
    splitbft-node client --config <cluster.toml> [--protocol <p>] [--client <id>]
                         [--op <bytes>] [--requests <n>] [--timeout-secs <s>]
    splitbft-node bench  (--protocol <p> | --compare) [--config <cluster.toml>]
                         [--app counter|kvs|blockchain] [--replicas <n>]
                         [--clients <n>] [--pipeline <n>] [--duration <5s>]
                         [--rate <req/s>] [--sweep-rate <a,b,..>]
                         [--keys <n>] [--value-size <n>]
                         [--read-ratio <f>] [--payload <n>]
                         [--batch-frames <n>] [--sweep-batch-frames <a,b,..>]
                         [--data-dir <dir>] [--wal-group-commit-us <us>]
                         [--shards <n>]
                         [--out <dir>] [--name <name>]

The cluster file lists every replica's id and address plus the shared
seed, protocol, application, and runtime knobs (view-change timer,
send-path batching, data_dir, wal_group_commit_us); see the
splitbft_node crate docs and docs/OPERATIONS.md. `--data-dir` makes the
replica durable: consensus events are WAL'd and checkpoints sealed
under <dir>/replica-<id>/, and a restarted replica recovers from them
plus peer state transfer. `--wal-group-commit-us` shares one WAL fsync
across each drain batch of the node's loop. `--enable-fault-injection` lets the
replica honor unauthenticated FAULT_CONTROL frames (partitions, lossy
links) from any client; it is for fault-injection tests only — never
pass it in production.
`--enable-status-admin` likewise gates the STATUS admin verbs (graceful
drain) — read-only STATUS queries are always served. `--metrics-addr`
serves Prometheus text at /metrics plus /healthz and /readyz on that
address. SIGTERM drains gracefully: the replica stops admitting client
requests, finishes in-flight batches, seals a checkpoint, flushes the
WAL, and exits 0.
Every replica serves on one socket runtime, a readiness loop per node.
`--transport evented` (serve, bench, and the cluster file's
`transport` key) is still accepted and changes nothing; `blocking`, the
removed thread-per-connection runtime, is a deprecated alias that
warns; any other value is an error. `bench` without --config
self-orchestrates a localhost cluster, writes one BENCH_<name>.json per
run, and exits nonzero if a run completes zero requests.
";

fn load(args: &[String]) -> Result<(ClusterFile, ProtocolKind), String> {
    let path = flag(args, "--config").ok_or("missing --config <cluster.toml>")?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let file = parse_cluster_toml(&text).map_err(|e| e.to_string())?;
    let protocol = match flag(args, "--protocol") {
        Some(p) => p.parse().map_err(|e: splitbft_node::ConfigError| e.to_string())?,
        None => file.protocol,
    };
    Ok((file, protocol))
}

/// Applies the serve CLI's runtime-knob overrides on top of the file's.
fn options_from(args: &[String], file: &ClusterFile) -> Result<NodeOptions, String> {
    let mut options = file.options.clone();
    if let Some(ms) = flag(args, "--timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| "--timeout-ms must be an integer".to_string())?;
        options.timeout_every = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if flag(args, "--byzantine").is_some() {
        return Err("--byzantine was removed: Byzantine replicas run in the fault catalog \
                    (splitbft_model::chaos) on the in-memory cluster"
            .to_string());
    }
    if let Some(shards) = flag(args, "--shards") {
        options.shards = match shards.parse::<u32>() {
            Ok(0) | Err(_) => return Err("--shards must be a positive integer".to_string()),
            Ok(s) => s,
        };
    }
    check_retired_transport_flag(args)?;
    if args.iter().any(|a| a == "--enable-fault-injection") {
        options.fault_injection = true;
    }
    if args.iter().any(|a| a == "--enable-status-admin") {
        options.status_admin = true;
    }
    apply_durability_flags(args, &mut options)?;
    apply_batch_flags(args, &mut options.batch)?;
    Ok(options)
}

fn serve(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let (file, protocol) = load(args)?;
        let id: u32 = flag(args, "--replica")
            .ok_or("missing --replica <id>")?
            .parse()
            .map_err(|_| "--replica must be an integer".to_string())?;
        let options = options_from(args, &file)?;
        let node =
            run_replica(&file, protocol, ReplicaId(id), &options).map_err(|e| e.to_string())?;
        // Keep the metrics server alive for the process lifetime; it
        // reads the same telemetry handle the node writes.
        let _metrics = match flag(args, "--metrics-addr") {
            None => None,
            Some(addr) => {
                let addr = addr
                    .parse()
                    .map_err(|_| format!("--metrics-addr must be host:port, got {addr:?}"))?;
                let server =
                    MetricsServer::serve(addr, node.telemetry()).map_err(|e| e.to_string())?;
                println!(
                    "replica {id} metrics on http://{}/metrics (health: /healthz, /readyz)",
                    server.local_addr(),
                );
                Some(server)
            }
        };
        println!(
            "replica {id} serving {protocol} on {} ({} replicas, app {:?})",
            node.local_addr(),
            file.n(),
            file.app,
        );
        install_sigterm_handler();
        // Serve until SIGTERM (or an admin drain over STATUS): the
        // node's own threads do all the work; this loop only watches
        // for the drain-and-exit conditions.
        let telemetry = node.telemetry();
        loop {
            std::thread::sleep(Duration::from_millis(50));
            if TERMINATE.load(Ordering::Relaxed) && !telemetry.draining() {
                eprintln!("replica {id}: SIGTERM — draining (no new requests, sealing checkpoint)");
                node.request_drain();
            }
            if telemetry.drained() {
                eprintln!("replica {id}: drain complete — WAL flushed, checkpoint sealed; exiting");
                return Ok(());
            }
        }
    };
    run_to_exit(run())
}

fn client(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let (file, protocol) = load(args)?;
        let client_id: u32 = flag(args, "--client")
            .unwrap_or_else(|| "1".into())
            .parse()
            .map_err(|_| "--client must be an integer".to_string())?;
        let op = flag(args, "--op").unwrap_or_else(|| "inc".into());
        let count: usize = flag(args, "--requests")
            .unwrap_or_else(|| "1".into())
            .parse()
            .map_err(|_| "--requests must be an integer".to_string())?;
        let timeout: u64 = flag(args, "--timeout-secs")
            .unwrap_or_else(|| "30".into())
            .parse()
            .map_err(|_| "--timeout-secs must be an integer".to_string())?;
        let results = run_client(
            &file,
            protocol,
            ClientId(client_id),
            op.as_bytes(),
            count,
            Duration::from_secs(timeout),
        )
        .map_err(|e| e.to_string())?;
        for (i, result) in results.iter().enumerate() {
            // Counter results are little-endian u64s; print those
            // readably and anything else as a lossy string.
            if result.len() == 8 {
                let mut le = [0u8; 8];
                le.copy_from_slice(result);
                println!("request {i}: {}", u64::from_le_bytes(le));
            } else {
                println!("request {i}: {:?}", String::from_utf8_lossy(result));
            }
        }
        Ok(())
    };
    run_to_exit(run())
}

fn run_to_exit(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
