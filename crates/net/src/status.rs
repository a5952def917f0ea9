//! Client-side STATUS helpers: snapshot and event-journal polling.
//!
//! Every socket replica answers [`frame_kind::STATUS`] requests on its
//! client port. Both verbs ([`StatusVerb::Snapshot`],
//! [`StatusVerb::Events`]) are read-only — they expose the same
//! telemetry the Prometheus endpoint renders, but as typed values over
//! the existing wire format, so operators and tests can poll a node
//! without parsing text or grepping stderr. Nothing here changes a
//! node: a deployed node drains on `SIGTERM` only.
//!
//! Each call opens a throwaway connection, writes one request, and
//! blocks for the reply frame.

use crate::transport::{frame_kind, read_value, write_value};
use splitbft_types::status::{StatusEvent, StatusRequest, StatusResponse, StatusVerb};
use splitbft_types::ClientId;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client id announced by STATUS connections. Reserved: real clients
/// use small ids.
pub const STATUS_CLIENT: ClientId = ClientId(u32::MAX - 1);

/// Sends one [`StatusRequest`] to the replica at `addr` and waits for
/// the matching [`StatusResponse`].
///
/// # Errors
///
/// Connection, write, or decode failures.
pub fn send_status_request(
    addr: SocketAddr,
    request: &StatusRequest,
) -> io::Result<StatusResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_value(&mut stream, frame_kind::CLIENT_HELLO, &STATUS_CLIENT)?;
    write_value(&mut stream, frame_kind::STATUS, request)?;
    stream.flush()?;
    read_value(&mut stream, frame_kind::STATUS)
}

/// Fetches the node's current [`NodeSnapshot`].
///
/// # Errors
///
/// I/O failures, or an unexpected response variant.
///
/// [`NodeSnapshot`]: splitbft_types::status::NodeSnapshot
pub fn fetch_snapshot(
    addr: SocketAddr,
) -> io::Result<splitbft_types::status::NodeSnapshot> {
    match send_status_request(addr, &StatusRequest { verb: StatusVerb::Snapshot })? {
        StatusResponse::Snapshot(snap) => Ok(snap),
        other => Err(unexpected(&other)),
    }
}

/// Fetches journal entries with sequence `>= since`, plus the current
/// journal head (the sequence the *next* event will get).
///
/// # Errors
///
/// I/O failures, or an unexpected response variant.
pub fn fetch_events(
    addr: SocketAddr,
    since: u64,
) -> io::Result<(u64, Vec<(u64, StatusEvent)>)> {
    match send_status_request(addr, &StatusRequest { verb: StatusVerb::Events { since } })? {
        StatusResponse::Events { head, events } => Ok((head, events)),
        other => Err(unexpected(&other)),
    }
}

/// Polls the journal until `pred` matches an event, or the deadline
/// passes.
///
/// Returns the matching `(seq, event)` pair. Polling starts at journal
/// sequence `since`, so callers can record `head` before an action and
/// only observe evidence produced *after* it — the STATUS replacement
/// for the old stderr-cursor protocol.
///
/// # Errors
///
/// `TimedOut` when the deadline passes without a match. Transient
/// connection errors (node restarting) are swallowed and retried until
/// the deadline.
pub fn await_event(
    addr: SocketAddr,
    since: u64,
    deadline: Duration,
    mut pred: impl FnMut(&StatusEvent) -> bool,
) -> io::Result<(u64, StatusEvent)> {
    let start = Instant::now();
    let mut cursor = since;
    loop {
        if let Ok((_, events)) = fetch_events(addr, cursor) {
            for (seq, event) in events {
                cursor = cursor.max(seq + 1);
                if pred(&event) {
                    return Ok((seq, event));
                }
            }
        }
        if start.elapsed() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no matching status event within {deadline:?}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn unexpected(response: &StatusResponse) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected STATUS response: {response:?}"),
    )
}
