//! The socket client: one connection per replica, replies read on the
//! caller's thread.
//!
//! The client is transport only — pair it with a client state machine
//! (`splitbft-app`'s `LockstepClient`, `splitbft-core`'s confidential
//! `SplitBftClient` around it) or a bare `QuorumTracker`, which own
//! authentication, retransmission and reply-quorum logic.
//!
//! # Threads
//!
//! One: the caller's. [`TcpClient::connect`] dials every replica from
//! short-lived threads and joins them; after that nothing runs in the
//! background. [`TcpClient::poll`] waits in the same `ppoll(2)` the
//! socket runtime uses, reads each ready connection once into its frame
//! assembler and hands every complete `REPLY` to the caller — a load
//! generator feeds its quorum trackers inline. [`TcpClient::recv_timeout`]
//! is the one-reply-at-a-time form for lock-step callers.

use crate::readiness::{self, PollFd, READABLE};
use crate::transport::{frame_kind, write_value};
use splitbft_types::wire::{decode, frame_message, FrameAssembler};
use splitbft_types::{ClientId, Reply, Request};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes read from one ready connection per [`TcpClient::poll`]: a
/// replica flushes a batch's replies in one write, and sixteen replies
/// are ≈ 1.5 KB. A longer burst stays queued in the kernel, and the
/// next wait reports it at once.
const READ_CHUNK: usize = 8 * 1024;

/// One replica connection: a blocking socket (so `write_all` needs no
/// retry loop) and the reassembly buffer its replies are framed out of.
struct Link {
    stream: TcpStream,
    assembler: FrameAssembler,
}

impl Link {
    /// One read into the assembler, then every complete `REPLY` frame to
    /// `on_reply`. Called only after the wait reported the socket
    /// readable, so the blocking read returns at once with whatever is
    /// queued. Returns `false` once the connection is finished: end of
    /// stream, a read error, or a frame that is not a well-formed reply.
    fn read(&mut self, on_reply: &mut impl FnMut(Reply)) -> bool {
        let space = self.assembler.read_space(READ_CHUNK);
        match self.stream.read(space) {
            Ok(0) => return false,
            Ok(n) => self.assembler.commit(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return true,
            Err(_) => return false,
        }
        loop {
            match self.assembler.next_frame() {
                Ok(None) => return true,
                Ok(Some(view)) if view.kind == frame_kind::REPLY => match decode(view.payload) {
                    Ok(reply) => on_reply(reply),
                    Err(_) => return false,
                },
                _ => return false,
            }
        }
    }
}

/// A socket client: connects to replicas, sends request batches, and
/// reads replies when the caller asks for them. It never holds a request
/// itself — the caller bounds its own pipeline depth, matches replies to
/// requests, and retransmits with [`TcpClient::send_all`] (only it knows
/// its timeout policy).
pub struct TcpClient {
    id: ClientId,
    /// Indexed by replica position in the address book; `None` for a
    /// replica that was unreachable at connect time or has since hung
    /// up, so it is never waited on again.
    links: Vec<Option<Link>>,
    /// The wait list, rebuilt from the live links on every poll.
    wait_list: Vec<PollFd>,
    /// Replies read by [`TcpClient::recv_timeout`] beyond the one it
    /// returned, handed out by the next calls.
    surplus: VecDeque<Reply>,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("id", &self.id)
            .field("connected", &self.connected())
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

        let mut links: Vec<Option<Link>> = (0..addrs.len()).map(|_| None).collect();
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
                    links[index] = Some(Link { stream, assembler: FrameAssembler::new() });
                }
                Err(e) => last_err = Some(e),
            }
        }
        give_up.store(true, Ordering::SeqCst);

        if links.iter().all(Option::is_none) {
            return Err(last_err
                .unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no replica reachable")));
        }

        Ok(TcpClient { id, links, wait_list: Vec::new(), surplus: VecDeque::new() })
    }

    /// How many replicas this client holds a connection to: those
    /// reached at connect time, less any that hung up since.
    pub fn connected(&self) -> usize {
        self.links.iter().flatten().count()
    }

    /// Sends a request batch to the `replica_index`-th replica (clients
    /// address the primary; index 0 in view 0) as one `REQUESTS` frame.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the index is outside the address book given
    /// to [`TcpClient::connect`]; `NotConnected` when that replica is not
    /// connected or the write failed — callers should fall back to
    /// [`Self::send_all`], the PBFT client rule for a suspected-faulty
    /// primary.
    pub fn send_to(&mut self, replica_index: usize, requests: &[Request]) -> io::Result<()> {
        let known = self.links.len();
        let link = self.links.get_mut(replica_index).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("replica index {replica_index} out of range ({known} replicas)"),
            )
        })?;
        if write_requests(link.iter_mut(), requests) == 0 {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("replica {replica_index} is unreachable"),
            ));
        }
        Ok(())
    }

    /// Sends a request batch to every connected replica — the first
    /// transmission when the primary is suspected faulty and every
    /// retransmission (replicas that already executed a request re-send
    /// their cached reply). Errors only if no send succeeded.
    pub fn send_all(&mut self, requests: &[Request]) -> io::Result<()> {
        if write_requests(self.links.iter_mut().flatten(), requests) == 0 {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "no replica reachable"));
        }
        Ok(())
    }

    /// Waits up to `timeout` for any connection to become readable,
    /// reads each ready one once, and hands every complete reply to
    /// `on_reply`; returns how many it handed over. A partial frame
    /// waits in its connection's assembler for the next poll. A
    /// connection that ended or sent anything but replies is dropped.
    /// With no connection left the call just sleeps out `timeout`.
    pub fn poll(&mut self, timeout: Duration, mut on_reply: impl FnMut(Reply)) -> usize {
        self.wait_list.clear();
        for link in self.links.iter().flatten() {
            self.wait_list.push(PollFd::new(&link.stream, READABLE));
        }
        // A failed wait (`ENOMEM`) reports nothing ready: the caller's
        // next poll tries again.
        if readiness::wait(&mut self.wait_list, timeout).is_err() {
            return 0;
        }
        let mut delivered = 0;
        let mut on_reply = |reply| {
            delivered += 1;
            on_reply(reply);
        };
        let mut ready = self.wait_list.iter();
        for slot in &mut self.links {
            let Some(link) = slot else { continue };
            let readable = ready.next().is_some_and(PollFd::readable);
            if readable && !link.read(&mut on_reply) {
                *slot = None;
            }
        }
        delivered
    }

    /// The next reply, waiting up to `timeout` for one; `None` if none
    /// arrived in time. Built on [`TcpClient::poll`]: replies a read
    /// brings in beyond the first are kept for the next calls. A zero
    /// `timeout` still reads what is already queued.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<Reply> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(reply) = self.surplus.pop_front() {
                return Some(reply);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            let mut surplus = std::mem::take(&mut self.surplus);
            self.poll(left, |reply| surplus.push_back(reply));
            self.surplus = surplus;
            if self.surplus.is_empty() && left.is_zero() {
                return None;
            }
        }
    }

    /// Closes all connections; dropping the client does the same.
    pub fn close(self) {}
}

/// Writes one `REQUESTS` frame carrying `requests` to each of `links`
/// and returns how many writes succeeded.
fn write_requests<'a>(links: impl Iterator<Item = &'a mut Link>, requests: &[Request]) -> usize {
    let framed = requests_frame(requests);
    links.filter_map(|link| link.stream.write_all(&framed).ok()).count()
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
    use crate::transport::read_value;
    use splitbft_types::{ReplicaId, RequestId, Timestamp, View};
    use std::net::TcpListener;

    fn request(client: u32, ts: u64) -> Request {
        Request {
            id: RequestId { client: ClientId(client), timestamp: Timestamp(ts) },
            op: bytes::Bytes::from_static(b"op"),
            encrypted: false,
            auth: [0u8; 32],
        }
    }

    fn reply(replica: u32, ts: u64) -> Reply {
        Reply {
            view: View(0),
            request: RequestId { client: ClientId(1), timestamp: Timestamp(ts) },
            replica: ReplicaId(replica),
            result: bytes::Bytes::from_static(b"ok"),
            encrypted: false,
            auth: [0u8; 32],
        }
    }

    /// `n` listening "replicas" and a client connected to all of them;
    /// each replica's end of the connection, hello already read.
    fn client_and_replicas(n: usize) -> (TcpClient, Vec<TcpStream>) {
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let client = TcpClient::connect(ClientId(1), &addrs, Duration::from_secs(5)).unwrap();
        let conns = listeners
            .iter()
            .map(|listener| {
                let (mut conn, _) = listener.accept().unwrap();
                let _: ClientId = read_value(&mut conn, frame_kind::CLIENT_HELLO).unwrap();
                conn
            })
            .collect();
        (client, conns)
    }

    fn reply_burst(replica: u32, timestamps: std::ops::RangeInclusive<u64>) -> Vec<u8> {
        timestamps.flat_map(|ts| frame_message(frame_kind::REPLY, &reply(replica, ts))).collect()
    }

    /// Polls until `want` replies arrived or five seconds passed.
    fn collect(client: &mut TcpClient, want: usize) -> Vec<Reply> {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < want && Instant::now() < deadline {
            client.poll(Duration::from_millis(100), |reply| got.push(reply));
        }
        got
    }

    #[test]
    fn send_to_writes_five_requests_as_one_requests_frame() {
        let (mut client, mut conns) = client_and_replicas(1);
        let requests: Vec<Request> = (1..=5u64).map(|ts| request(1, ts)).collect();
        client.send_to(0, &requests).unwrap();
        // Exactly one REQUESTS frame carrying the whole batch.
        let batch: Vec<Request> = read_value(&mut conns[0], frame_kind::REQUESTS).unwrap();
        assert_eq!(batch, requests, "one frame, five requests");
        client.close();
    }

    #[test]
    fn one_poll_delivers_both_replicas_bursts() {
        let (mut client, mut conns) = client_and_replicas(2);
        conns[0].write_all(&reply_burst(0, 1..=16)).unwrap();
        conns[1].write_all(&reply_burst(1, 1..=16)).unwrap();
        // Both bursts are queued before the client waits: one wait
        // reports both sockets ready and one read drains each.
        std::thread::sleep(Duration::from_millis(50));
        let mut got = Vec::new();
        let delivered = client.poll(Duration::from_secs(5), |reply| got.push(reply));
        assert_eq!(delivered, 32);
        assert_eq!(got.iter().filter(|r| r.replica == ReplicaId(1)).count(), 16);
        let first: Vec<u64> = got[..16].iter().map(|r| r.request.timestamp.0).collect();
        assert_eq!(first, (1..=16).collect::<Vec<u64>>(), "replica 0's burst, in order");
        client.close();
    }

    #[test]
    fn a_reply_written_in_two_halves_reassembles() {
        let (mut client, mut conns) = client_and_replicas(1);
        let framed = frame_message(frame_kind::REPLY, &reply(0, 7));
        let (first, second) = framed.split_at(framed.len() / 2);
        conns[0].write_all(first).unwrap();
        assert_eq!(client.poll(Duration::from_secs(5), |_| {}), 0, "half a frame is no reply");
        conns[0].write_all(second).unwrap();
        let mut got = Vec::new();
        assert_eq!(client.poll(Duration::from_secs(5), |reply| got.push(reply)), 1);
        assert_eq!(got, vec![reply(0, 7)]);
        assert_eq!(client.connected(), 1);
        client.close();
    }

    #[test]
    fn a_hung_up_replica_is_dropped_while_the_other_delivers() {
        let (mut client, mut conns) = client_and_replicas(2);
        drop(conns.remove(0));
        // The hang-up is read as end of stream and the link dropped.
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.connected() == 2 && Instant::now() < deadline {
            client.poll(Duration::from_millis(100), |_| {});
        }
        assert_eq!(client.connected(), 1, "the closed connection leaves the wait list");
        assert!(client.send_to(0, &[request(1, 1)]).is_err(), "nothing left to write to");

        conns[0].write_all(&reply_burst(1, 1..=3)).unwrap();
        let got = collect(&mut client, 3);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|r| r.replica == ReplicaId(1)));
        client.close();
    }

    #[test]
    fn recv_timeout_keeps_surplus_replies_in_order() {
        let (mut client, mut conns) = client_and_replicas(1);
        conns[0].write_all(&reply_burst(0, 1..=3)).unwrap();
        for ts in 1..=3u64 {
            let reply = client.recv_timeout(Duration::from_secs(5)).expect("reply");
            assert_eq!(reply.request.timestamp, Timestamp(ts));
        }
        assert_eq!(client.recv_timeout(Duration::from_millis(20)), None);

        // A zero timeout still reads what is already queued.
        conns[0].write_all(&reply_burst(0, 4..=4)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let reply = client.recv_timeout(Duration::ZERO).expect("queued reply");
        assert_eq!(reply.request.timestamp, Timestamp(4));
        assert_eq!(client.recv_timeout(Duration::ZERO), None);
        client.close();
    }

    #[test]
    fn recv_timeout_waits_when_every_replica_is_gone() {
        let (mut client, conns) = client_and_replicas(1);
        drop(conns);
        for _ in 0..2 {
            // The first call reads the hang-up and then sleeps out its
            // timeout over an empty wait list; so does the second.
            let started = Instant::now();
            assert_eq!(client.recv_timeout(Duration::from_millis(200)), None);
            let took = started.elapsed();
            assert!(took >= Duration::from_millis(200), "returned after {took:?}");
        }
        assert_eq!(client.connected(), 0);
    }

    #[test]
    fn framing_garbage_drops_the_connection() {
        let (mut client, mut conns) = client_and_replicas(1);
        conns[0].write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.connected() == 1 && Instant::now() < deadline {
            client.poll(Duration::from_millis(100), |_| panic!("garbage is no reply"));
        }
        assert_eq!(client.connected(), 0);
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpClient::connect(ClientId(5), &[addr], Duration::from_secs(5)).unwrap();

        let err = client.send_to(1, &[request(5, 1)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        client.close();
    }
}
