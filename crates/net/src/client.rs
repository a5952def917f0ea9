//! The socket client: one connection per replica, replies streamed back
//! or routed to per-request handlers.
//!
//! The client is transport only — pair it with a client state machine
//! (`splitbft-app`'s `LockstepClient`, `splitbft-core`'s confidential
//! `SplitBftClient` around it) or a bare `QuorumTracker`, which own
//! authentication, retransmission and reply-quorum logic.
//!
//! # Threads
//!
//! One reader thread per connected replica decodes `REPLY` frames into a
//! shared channel. A lock-step caller pulls them from
//! [`TcpClient::replies`]. The first [`TcpClient::submit_batch`] hands
//! that channel to a dispatcher thread instead, which runs each reply's
//! registered [`ReplyHandler`] — the pipelined mode load generators use.

use crate::transport::{frame_kind, read_value, write_value};
use splitbft_types::wire::frame_message;
use splitbft_types::{ClientId, Reply, Request, RequestId};
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-request completion handler: called on the dispatcher thread for
/// every reply to the registered request; returns `true` once the
/// request is complete (the handler is then dropped).
pub type ReplyHandler = Box<dyn FnMut(&Reply) -> bool + Send>;

type Pending = Arc<Mutex<HashMap<RequestId, ReplyHandler>>>;

/// A socket client: connects to replicas, sends request batches, and
/// hands back replies — pulled from [`TcpClient::replies`], or, once
/// [`TcpClient::submit_batch`] is used, pushed to a [`ReplyHandler`] per
/// request, which is what lets a load generator keep many requests
/// outstanding per client id (the protocol client state machines are
/// strictly lock-step).
///
/// Handler-mode requests are *submitted*, not awaited: the caller bounds
/// its own pipeline depth by counting completions, and retransmits with
/// [`TcpClient::send_all`] — only it knows its timeout policy.
pub struct TcpClient {
    id: ClientId,
    // Indexed by replica position in the address book; `None` for
    // replicas that were unreachable at connect time.
    streams: Vec<Option<TcpStream>>,
    /// Fed by the reader threads; moved into the dispatcher (and left
    /// disconnected here) by the first `submit_batch`.
    replies: Receiver<Reply>,
    pending: Pending,
    dispatcher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("id", &self.id)
            .field("connected", &self.connected())
            .field("outstanding", &self.outstanding())
            .finish_non_exhaustive()
    }
}

impl TcpClient {
    /// Connects to the replicas in `addrs` (all attempts run
    /// concurrently, each retrying with backoff), announcing `id` so
    /// replies route back here.
    ///
    /// Connection is best-effort: a BFT client must make progress with
    /// up to `f` replicas unreachable, so dead replicas are skipped
    /// (check [`TcpClient::connected`]) — once the first replica
    /// answers, stragglers get a short grace window rather than the
    /// full `timeout`, keeping connect latency independent of how many
    /// replicas are down. Errors only if *no* replica could be reached
    /// within `timeout`.
    pub fn connect(id: ClientId, addrs: &[SocketAddr], timeout: Duration) -> io::Result<Self> {
        /// How long after the first successful connection the remaining
        /// attempts may keep retrying.
        const STRAGGLER_GRACE: Duration = Duration::from_secs(1);

        if addrs.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no replica addresses given"));
        }
        let deadline = Instant::now() + timeout;
        let give_up = Arc::new(AtomicBool::new(false));
        let (conn_tx, conn_rx) = channel::<(usize, io::Result<TcpStream>)>();
        for (index, addr) in addrs.iter().enumerate() {
            let addr = *addr;
            let give_up = Arc::clone(&give_up);
            let conn_tx = conn_tx.clone();
            let _ = std::thread::Builder::new().name("client-connect".into()).spawn(move || {
                let result = (|| -> io::Result<TcpStream> {
                    let mut stream = connect_until(addr, deadline, &give_up)?;
                    let _ = stream.set_nodelay(true);
                    write_value(&mut stream, frame_kind::CLIENT_HELLO, &id)?;
                    Ok(stream)
                })();
                let _ = conn_tx.send((index, result));
            });
        }
        drop(conn_tx);

        let (reply_tx, replies) = channel();
        let mut streams: Vec<Option<TcpStream>> = (0..addrs.len()).map(|_| None).collect();
        let mut last_err: Option<io::Error> = None;
        let mut pending = addrs.len();
        let mut grace_deadline: Option<Instant> = None;
        while pending > 0 {
            let wait_until = grace_deadline.unwrap_or(deadline);
            let remaining = wait_until.saturating_duration_since(Instant::now());
            let Ok((index, result)) = conn_rx.recv_timeout(remaining.max(Duration::from_millis(1)))
            else {
                if give_up.load(Ordering::SeqCst) {
                    break; // grace expired; abandon stragglers
                }
                if Instant::now() >= wait_until {
                    give_up.store(true, Ordering::SeqCst);
                }
                continue;
            };
            pending -= 1;
            match result {
                Ok(stream) => {
                    if grace_deadline.is_none() {
                        grace_deadline = Some((Instant::now() + STRAGGLER_GRACE).min(deadline));
                    }
                    // Replicas flush a batch's replies in one write, so
                    // buffering turns two `read` calls per reply (header,
                    // payload) into one per burst.
                    let mut reader = BufReader::new(stream.try_clone()?);
                    let reply_tx = reply_tx.clone();
                    // Reader threads exit when the socket closes (client
                    // drop or replica shutdown) or the receiver is gone.
                    let _ =
                        std::thread::Builder::new().name("client-reader".into()).spawn(move || {
                            while let Ok(reply) =
                                read_value::<_, Reply>(&mut reader, frame_kind::REPLY)
                            {
                                if reply_tx.send(reply).is_err() {
                                    break;
                                }
                            }
                        });
                    streams[index] = Some(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        give_up.store(true, Ordering::SeqCst);

        if streams.iter().all(Option::is_none) {
            return Err(last_err
                .unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no replica reachable")));
        }

        Ok(TcpClient { id, streams, replies, pending: Pending::default(), dispatcher: None })
    }

    /// How many replicas this client reached at connect time.
    pub fn connected(&self) -> usize {
        self.streams.iter().flatten().count()
    }

    /// Requests submitted with a handler but not yet completed (or
    /// cancelled).
    pub fn outstanding(&self) -> usize {
        self.pending.lock().expect("pending registry").len()
    }

    /// Sends a request batch to the `replica_index`-th replica (clients
    /// address the primary; index 0 in view 0).
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the index is outside the address book given
    /// to [`TcpClient::connect`]; `NotConnected` when that replica was
    /// unreachable at connect time or the write failed — callers should
    /// fall back to [`Self::send_all`], the PBFT client rule for a
    /// suspected-faulty primary.
    pub fn send_to(&mut self, replica_index: usize, requests: &[Request]) -> io::Result<()> {
        let known = self.streams.len();
        let stream = self.streams.get_mut(replica_index).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("replica index {replica_index} out of range ({known} replicas)"),
            )
        })?;
        if write_requests(stream.iter_mut(), requests) == 0 {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("replica {replica_index} is unreachable"),
            ));
        }
        Ok(())
    }

    /// Sends a request batch to every reachable replica — the first
    /// transmission when the primary is suspected faulty and every
    /// retransmission (replicas that already executed a request re-send
    /// their cached reply). Errors only if no send succeeded.
    pub fn send_all(&mut self, requests: &[Request]) -> io::Result<()> {
        if write_requests(self.streams.iter_mut().flatten(), requests) == 0 {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "no replica reachable"));
        }
        Ok(())
    }

    /// The stream of replies from all connected replicas. Lock-step
    /// callers feed these to the protocol client's `on_reply` until it
    /// reports completion. Disconnected once [`TcpClient::submit_batch`]
    /// has been used: replies then go to handlers.
    pub fn replies(&self) -> &Receiver<Reply> {
        &self.replies
    }

    /// Registers a handler per request and submits them all in **one**
    /// `REQUESTS` frame — the client-side counterpart of the replicas'
    /// send-path batching. A deep pipeline refilling after a burst of completions pays one
    /// syscall and one frame header for the whole refill instead of one
    /// per request. The frame goes to the `primary_index`-th replica,
    /// falling back to all reachable replicas if that one cannot be
    /// written or the index names none (how a leadership-agnostic
    /// caller broadcasts every submission).
    ///
    /// All handlers are registered before the frame is written (a reply
    /// can race back immediately); on send failure every handler is
    /// deregistered again before the error is returned.
    pub fn submit_batch(
        &mut self,
        primary_index: usize,
        batch: Vec<(Request, ReplyHandler)>,
    ) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.dispatcher.is_none() {
            let replies = std::mem::replace(&mut self.replies, channel().1);
            let registry = Arc::clone(&self.pending);
            // Exits when every per-replica reader is gone (socket
            // teardown drops their reply senders and disconnects the
            // channel). A reply nobody registered for — the ones beyond
            // a quorum arrive after their handler is gone — is dropped.
            let dispatcher = std::thread::Builder::new()
                .name("client-dispatch".into())
                .spawn(move || {
                    while let Ok(reply) = replies.recv() {
                        let mut map = registry.lock().expect("pending registry");
                        if let Some(handler) = map.get_mut(&reply.request) {
                            if handler(&reply) {
                                map.remove(&reply.request);
                            }
                        }
                    }
                })
                .expect("spawn client dispatcher");
            self.dispatcher = Some(dispatcher);
        }
        let mut requests = Vec::with_capacity(batch.len());
        {
            let mut pending = self.pending.lock().expect("pending registry");
            for (request, handler) in batch {
                pending.insert(request.id, handler);
                requests.push(request);
            }
        }
        let result =
            self.send_to(primary_index, &requests).or_else(|_| self.send_all(&requests));
        if result.is_err() {
            let mut pending = self.pending.lock().expect("pending registry");
            for request in &requests {
                pending.remove(&request.id);
            }
        }
        result
    }

    /// Deregisters a request's handler (e.g. after a client-side
    /// timeout). Returns `false` if it already completed.
    pub fn cancel(&mut self, request: RequestId) -> bool {
        self.pending.lock().expect("pending registry").remove(&request).is_some()
    }

    /// Closes all connections and joins the dispatcher, if one runs.
    pub fn close(mut self) {
        for stream in self.streams.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
    }
}

/// Writes one `REQUESTS` frame carrying `requests` to each of `streams`
/// and returns how many writes succeeded.
fn write_requests<'a>(
    streams: impl Iterator<Item = &'a mut TcpStream>,
    requests: &[Request],
) -> usize {
    let framed = requests_frame(requests);
    streams.filter_map(|stream| stream.write_all(&framed).ok()).count()
}

/// The `REQUESTS` frame carrying `requests`, encoded from the borrowed
/// slice (a slice encodes as the `Vec` of the same elements).
pub(crate) fn requests_frame(requests: &[Request]) -> Vec<u8> {
    frame_message(frame_kind::REQUESTS, requests)
}

fn connect_until(
    addr: SocketAddr,
    deadline: Instant,
    give_up: &AtomicBool,
) -> io::Result<TcpStream> {
    let mut backoff = Duration::from_millis(10);
    loop {
        if give_up.load(Ordering::SeqCst) {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "connect abandoned"));
        }
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() + backoff >= deadline => return Err(e),
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(200));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::Timestamp;

    fn request(client: u32, ts: u64) -> Request {
        Request {
            id: RequestId { client: ClientId(client), timestamp: Timestamp(ts) },
            op: bytes::Bytes::from_static(b"op"),
            encrypted: false,
            auth: [0u8; 32],
        }
    }

    #[test]
    fn submit_batch_coalesces_into_one_requests_frame() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let _: ClientId = read_value(&mut conn, frame_kind::CLIENT_HELLO).unwrap();
            // Exactly one REQUESTS frame carrying the whole batch.
            let batch: Vec<Request> = read_value(&mut conn, frame_kind::REQUESTS).unwrap();
            batch.len()
        });

        let mut client = TcpClient::connect(ClientId(4), &[addr], Duration::from_secs(5)).unwrap();
        let batch: Vec<(Request, ReplyHandler)> = (1..=5u64)
            .map(|ts| (request(4, ts), Box::new(|_: &Reply| true) as ReplyHandler))
            .collect();
        client.submit_batch(0, batch).unwrap();
        assert_eq!(client.outstanding(), 5, "all five handlers registered");
        assert_eq!(accept.join().unwrap(), 5, "one frame, five requests");
        client.close();
    }

    #[test]
    fn requests_frame_is_the_frame_of_the_cloned_batch() {
        use splitbft_types::wire::{encode, frame};
        for len in [0u64, 1, 16] {
            let requests: Vec<Request> = (0..len).map(|ts| request(7, ts)).collect();
            // What the client sent before it could encode a slice.
            let cloned = frame(frame_kind::REQUESTS, &encode(&requests.to_vec()));
            assert_eq!(requests_frame(&requests), cloned, "{len} requests");
        }
    }

    #[test]
    fn out_of_range_replica_index_is_invalid_input() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpClient::connect(ClientId(5), &[addr], Duration::from_secs(5)).unwrap();

        let err = client.send_to(1, &[request(5, 1)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        client.close();
    }
}
