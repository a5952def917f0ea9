//! Bounded outbound frame rings for the evented backend.
//!
//! Every peer link and client connection queues its outbound frames in
//! one [`FrameRing`], drained by the readiness loop itself — no
//! channels, no writer threads. The ring is bounded in frames *and* bytes, and it **refuses new frames
//! instead of evicting queued ones** — the same stance as the
//! suffix-ring in `splitbft-core`: silently dropping something already
//! accepted would reorder/lose traffic the caller believes is in
//! flight, while refusing at the door gives the caller an explicit
//! backpressure signal (and the transport's at-most-once contract
//! already makes a refused frame equivalent to a frame lost on the
//! wire).

use std::collections::VecDeque;
use std::sync::Arc;

/// A bounded FIFO of pre-framed, `Arc`-shared byte buffers.
#[derive(Debug)]
pub(crate) struct FrameRing {
    frames: VecDeque<Arc<Vec<u8>>>,
    max_frames: usize,
    max_bytes: usize,
    bytes: usize,
    refused: u64,
}

impl FrameRing {
    /// An empty ring admitting at most `max_frames` frames or
    /// `max_bytes` queued bytes, whichever bound is hit first.
    pub(crate) fn new(max_frames: usize, max_bytes: usize) -> Self {
        FrameRing {
            frames: VecDeque::new(),
            max_frames,
            max_bytes,
            bytes: 0,
            refused: 0,
        }
    }

    /// Admits `framed` at the tail, or refuses it (returning `false`
    /// and counting the refusal) when either bound is reached. A frame
    /// larger than `max_bytes` on its own is still admitted into an
    /// otherwise empty ring — frames are indivisible, so refusing it
    /// forever would wedge the link.
    pub(crate) fn push(&mut self, framed: Arc<Vec<u8>>) -> bool {
        let over_bytes = self.bytes + framed.len() > self.max_bytes && !self.frames.is_empty();
        if self.frames.len() >= self.max_frames || over_bytes {
            self.refused += 1;
            return false;
        }
        self.bytes += framed.len();
        self.frames.push_back(framed);
        true
    }

    /// Removes and returns the head frame.
    pub(crate) fn pop(&mut self) -> Option<Arc<Vec<u8>>> {
        let frame = self.frames.pop_front()?;
        self.bytes -= frame.len();
        Some(frame)
    }

    /// `true` when nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frames refused (backpressure signals) since creation.
    #[cfg(test)]
    pub(crate) fn refused(&self) -> u64 {
        self.refused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn f(bytes: &[u8]) -> Arc<Vec<u8>> {
        Arc::new(bytes.to_vec())
    }

    #[test]
    fn refuses_at_the_frame_cap_without_evicting() {
        let mut ring = FrameRing::new(2, 1024);
        assert!(ring.push(f(b"a")));
        assert!(ring.push(f(b"b")));
        assert!(!ring.push(f(b"c")), "the third frame is refused, not admitted");
        assert_eq!(ring.refused(), 1);
        // The queued frames are untouched — refuse, don't evict.
        assert_eq!(&**ring.pop().unwrap(), b"a");
        assert_eq!(&**ring.pop().unwrap(), b"b");
        assert!(ring.pop().is_none());
        // Refusal is transient: space freed readmits.
        assert!(ring.push(f(b"c")));
    }

    #[test]
    fn refuses_at_the_byte_cap_but_admits_an_oversized_frame_alone() {
        let mut ring = FrameRing::new(64, 8);
        assert!(ring.push(f(b"12345")));
        assert!(!ring.push(f(b"6789")), "9 queued bytes would exceed the 8-byte cap");
        assert_eq!(ring.refused(), 1);
        ring.pop();
        // A single frame above the cap still goes into an empty ring:
        // frames are indivisible and must not wedge the link forever.
        assert!(ring.push(f(b"0123456789abcdef")));
        assert!(!ring.push(f(b"x")), "but nothing rides along with it");
    }

    /// Stress: concurrent producers against a draining consumer at
    /// capacity. Every frame the ring *accepted* must come out exactly
    /// once, in per-producer order; everything else must be accounted
    /// for by the refusal counter — no silent loss, no duplication, no
    /// eviction.
    #[test]
    fn contended_ring_neither_loses_nor_duplicates_accepted_frames() {
        use std::sync::atomic::{AtomicBool, Ordering};

        const PRODUCERS: u8 = 4;
        const PER_PRODUCER: u32 = 5000;

        let ring = Arc::new(Mutex::new(FrameRing::new(64, 64 * 1024)));
        let done = AtomicBool::new(false);
        let decode = |frame: &[u8]| -> (u8, u32) {
            (frame[0], u32::from_le_bytes(frame[1..5].try_into().unwrap()))
        };

        let (accepted, mut consumed) = std::thread::scope(|s| {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|producer| {
                    let ring = Arc::clone(&ring);
                    s.spawn(move || {
                        let mut accepted = Vec::new();
                        for seq in 0..PER_PRODUCER {
                            let mut frame = vec![producer];
                            frame.extend_from_slice(&seq.to_le_bytes());
                            if ring.lock().unwrap().push(Arc::new(frame)) {
                                accepted.push((producer, seq));
                            }
                            if seq % 64 == 0 {
                                std::thread::yield_now();
                            }
                        }
                        accepted
                    })
                })
                .collect();

            // Consumer: drain until the producers are done AND the ring
            // is empty (the flag flips only after they joined, so one
            // last empty-check cannot race a straggling push).
            let consumer = {
                let ring = Arc::clone(&ring);
                let done = &done;
                s.spawn(move || {
                    let mut consumed: Vec<(u8, u32)> = Vec::new();
                    loop {
                        let frame = ring.lock().unwrap().pop();
                        match frame {
                            Some(frame) => consumed.push(decode(&frame)),
                            None => {
                                if done.load(Ordering::SeqCst) {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    consumed
                })
            };

            let accepted: Vec<(u8, u32)> =
                producers.into_iter().flat_map(|h| h.join().unwrap()).collect();
            done.store(true, Ordering::SeqCst);
            (accepted, consumer.join().unwrap())
        });
        // Sweep anything the consumer's final empty-check left behind.
        while let Some(frame) = ring.lock().unwrap().pop() {
            consumed.push(decode(&frame));
        }

        let refused = ring.lock().unwrap().refused();
        assert_eq!(
            accepted.len() as u64 + refused,
            u64::from(PRODUCERS) * u64::from(PER_PRODUCER),
            "every push is either accepted or counted as refused"
        );
        assert!(refused > 0, "the bounds must actually bite under this load");

        // Exactly the accepted frames come out — no loss, no dup.
        let mut accepted_sorted = accepted.clone();
        let mut consumed_sorted = consumed.clone();
        accepted_sorted.sort_unstable();
        consumed_sorted.sort_unstable();
        assert_eq!(consumed_sorted, accepted_sorted);

        // FIFO per producer: sequence numbers strictly increase.
        for p in 0..PRODUCERS {
            let seqs: Vec<u32> =
                consumed.iter().filter(|(pr, _)| *pr == p).map(|(_, s)| *s).collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "producer {p} order preserved");
        }
    }
}
