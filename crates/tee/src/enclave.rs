//! The enclave abstraction: code that runs inside the trusted boundary.

use std::fmt;

/// The enclave side's handle to the untrusted world during an ecall.
///
/// An ocall is a request from enclave code to the environment (send a
/// message, persist a block, arm a timer, …). Ocalls carry opaque bytes;
/// the broker in `splitbft-core` defines the typed protocol on top.
/// Keeping the boundary byte-oriented mirrors the SGX SDK (and lets the
/// host charge copy costs accurately).
///
/// Real SGX ocalls are synchronous; SplitBFT deliberately queues them
/// ("enclave handlers request I/O from the broker by posting ocalls into
/// its queue") so an ecall runs to completion without re-entering the
/// environment — principle P2. This trait models that queue.
pub trait OcallSink {
    /// Posts an ocall to the environment's queue.
    fn ocall(&mut self, id: u32, data: &[u8]);

    /// Posts an ocall whose argument `write` marshals by appending to the
    /// buffer it is handed, so a sink that owns its storage
    /// ([`OcallQueue`]) receives the bytes in place. The default marshals
    /// into a temporary buffer and forwards to [`OcallSink::ocall`], which
    /// is all a sink that inspects or rewrites payloads needs.
    fn ocall_with(&mut self, id: u32, write: &mut dyn FnMut(&mut Vec<u8>)) {
        let mut data = Vec::new();
        write(&mut data);
        self.ocall(id, &data);
    }
}

/// Code loaded into a (simulated) enclave.
///
/// Implementations hold the compartment's safety-critical state. They are
/// entered only through [`handle_ecall`](Enclave::handle_ecall), one call
/// at a time — the host owns the enclave exclusively, reproducing the
/// paper's single-threaded enclave configuration.
pub trait Enclave: Send {
    /// The enclave *measurement* (SGX `MRENCLAVE`): a digest identifying
    /// the code loaded into the enclave. Sealing keys and attestation
    /// quotes are bound to it. Enclaves of the same compartment type share
    /// a measurement; different compartments have different ones.
    fn measurement(&self) -> [u8; 32];

    /// Handles one ecall: `id` selects the entry point, `input` is the
    /// marshalled argument (copied into the enclave), the return value is
    /// copied back out. Outbound work is posted through `env`.
    fn handle_ecall(&mut self, id: u32, input: &[u8], env: &mut dyn OcallSink) -> Vec<u8>;

    /// Approximate bytes of enclave heap in use, for EPC accounting.
    /// Defaults to 0 for enclaves that do not track memory.
    fn memory_usage(&self) -> usize {
        0
    }
}

/// Errors surfaced by the host when an enclave cannot serve an ecall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnclaveError {
    /// The enclave has crashed (e.g. fault injection, or a previous panic)
    /// and must be rebuilt/recovered before further use.
    Crashed,
    /// The enclave was destroyed by the host.
    Destroyed,
}

impl fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnclaveError::Crashed => f.write_str("enclave has crashed"),
            EnclaveError::Destroyed => f.write_str("enclave was destroyed"),
        }
    }
}

impl std::error::Error for EnclaveError {}

/// A buffering [`OcallSink`] collecting posted ocalls, used by hosts and
/// tests.
///
/// All payloads of one ecall land back to back in one byte arena, with an
/// `(id, range)` entry per ocall; [`OcallQueue::clear`] keeps the storage,
/// so a host that reuses its queue across ecalls stops allocating for
/// them.
#[derive(Debug, Default)]
pub struct OcallQueue {
    arena: Vec<u8>,
    /// `(ocall id, end of its payload in the arena)`, in posting order;
    /// a payload starts where the previous one ends.
    entries: Vec<(u32, usize)>,
}

/// Empties a marshalling buffer that is reused from one boundary
/// crossing to the next. Its storage is kept — unless it grew past 64 KiB,
/// which only an unusually large payload does (a checkpoint carrying the
/// application snapshot): that much is released rather than pinned for
/// the life of the replica.
pub fn recycle(buffer: &mut Vec<u8>) {
    const KEEP_CAPACITY: usize = 64 * 1024;
    if buffer.capacity() > KEEP_CAPACITY {
        *buffer = Vec::new();
    } else {
        buffer.clear();
    }
}

impl OcallQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the queued ocalls, keeping the storage for the next ecall
    /// unless a large payload inflated it.
    pub fn clear(&mut self) {
        self.entries.clear();
        recycle(&mut self.arena);
    }

    /// The queued ocalls as `(id, payload)`, in posting order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u8])> {
        let mut start = 0;
        self.entries.iter().map(move |&(id, end)| {
            let payload = &self.arena[start..end];
            start = end;
            (id, payload)
        })
    }

    /// Number of queued ocalls.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total payload bytes queued.
    pub fn payload_bytes(&self) -> usize {
        self.arena.len()
    }
}

impl OcallSink for OcallQueue {
    fn ocall(&mut self, id: u32, data: &[u8]) {
        self.arena.extend_from_slice(data);
        self.entries.push((id, self.arena.len()));
    }

    fn ocall_with(&mut self, id: u32, write: &mut dyn FnMut(&mut Vec<u8>)) {
        let start = self.arena.len();
        write(&mut self.arena);
        // `write` is enclave code and may be compromised: whatever it did
        // to the buffer, earlier entries must stay inside it.
        if self.arena.len() < start {
            self.arena.resize(start, 0);
        }
        self.entries.push((id, self.arena.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;
    impl Enclave for Doubler {
        fn measurement(&self) -> [u8; 32] {
            [1u8; 32]
        }
        fn handle_ecall(&mut self, _id: u32, input: &[u8], env: &mut dyn OcallSink) -> Vec<u8> {
            env.ocall(1, input);
            env.ocall(2, input);
            input.repeat(2)
        }
    }

    fn queued(q: &OcallQueue) -> Vec<(u32, Vec<u8>)> {
        q.iter().map(|(id, data)| (id, data.to_vec())).collect()
    }

    #[test]
    fn ocall_queue_preserves_order() {
        let mut q = OcallQueue::new();
        let mut e = Doubler;
        let out = e.handle_ecall(0, b"ab", &mut q);
        assert_eq!(out, b"abab");
        assert_eq!(q.len(), 2);
        assert_eq!(queued(&q), [(1, b"ab".to_vec()), (2, b"ab".to_vec())]);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn arena_keeps_order_and_content_for_none_one_and_many_ocalls() {
        let mut q = OcallQueue::new();
        assert_eq!(queued(&q), []);
        assert_eq!(q.payload_bytes(), 0);

        q.ocall(7, b"only");
        assert_eq!(queued(&q), [(7, b"only".to_vec())]);

        // Many, through both entry points, with empty payloads at the
        // front, in the middle and at the back.
        q.clear();
        let posted: Vec<(u32, Vec<u8>)> = vec![
            (1, vec![]),
            (2, b"first".to_vec()),
            (2, vec![]),
            (3, vec![0xAB; 300]),
            (4, b"x".to_vec()),
            (5, vec![]),
        ];
        for (i, (id, data)) in posted.iter().enumerate() {
            if i % 2 == 0 {
                q.ocall(*id, data);
            } else {
                q.ocall_with(*id, &mut |buf| buf.extend_from_slice(data));
            }
        }
        assert_eq!(queued(&q), posted);
        assert_eq!(q.payload_bytes(), 5 + 300 + 1);
    }

    #[test]
    fn a_reused_queue_leaks_nothing_from_the_previous_ecall() {
        let mut q = OcallQueue::new();
        q.ocall(1, b"secret of the first ecall");
        q.ocall(2, b"more");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(queued(&q), []);
        q.ocall_with(9, &mut |buf| buf.extend_from_slice(b"new"));
        assert_eq!(queued(&q), [(9, b"new".to_vec())]);
        assert_eq!(q.payload_bytes(), 3);
    }

    #[test]
    fn a_large_ocall_does_not_pin_its_memory() {
        let mut q = OcallQueue::new();
        q.ocall(1, &vec![0u8; 1 << 20]);
        q.clear();
        assert_eq!(q.arena.capacity(), 0, "a megabyte arena must be released");
        q.ocall(1, &[0u8; 100]);
        let kept = q.arena.capacity();
        q.clear();
        assert_eq!(q.arena.capacity(), kept, "an ordinary arena is kept");
    }

    #[test]
    fn a_writer_that_truncates_the_arena_cannot_unseat_earlier_entries() {
        let mut q = OcallQueue::new();
        q.ocall(1, b"kept");
        q.ocall_with(2, &mut |buf| buf.clear());
        let calls = queued(&q);
        assert_eq!(calls.len(), 2);
        assert_eq!((calls[0].0, calls[0].1.len()), (1, 4));
        assert_eq!(calls[1], (2, vec![]));
    }

    #[test]
    fn the_default_ocall_with_forwards_the_marshalled_bytes_to_ocall() {
        struct Recorder(Vec<(u32, Vec<u8>)>);
        impl OcallSink for Recorder {
            fn ocall(&mut self, id: u32, data: &[u8]) {
                self.0.push((id, data.to_vec()));
            }
        }
        let mut r = Recorder(Vec::new());
        r.ocall_with(3, &mut |buf| buf.extend_from_slice(b"abc"));
        assert_eq!(r.0, [(3, b"abc".to_vec())]);
    }

    #[test]
    fn default_memory_usage_is_zero() {
        assert_eq!(Doubler.memory_usage(), 0);
    }

    #[test]
    fn error_display() {
        assert_eq!(EnclaveError::Crashed.to_string(), "enclave has crashed");
        assert_eq!(EnclaveError::Destroyed.to_string(), "enclave was destroyed");
    }
}
