//! A bounded, structured event journal.
//!
//! The typed replacement for the stderr marker protocol: layers record
//! [`StatusEvent`]s (view changes, checkpoint seals, state-transfer
//! applications, fault-plan changes, drain lifecycle) into a bounded
//! ring; tooling polls a suffix by sequence number over the `STATUS`
//! frame. Eviction is oldest-first, so a slow poller loses history, not
//! recency — the same refuse-the-past stance as the transport's bounded
//! rings.

use splitbft_types::StatusEvent;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default retention: events kept before the oldest is evicted. Chaos
/// phases produce a handful of events each; 1024 spans an entire
/// scenario with two orders of magnitude to spare.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// The bounded journal. `record` takes the mutex briefly; `head` is a
/// lock-free read for hot-path checks.
#[derive(Debug)]
pub struct EventJournal {
    inner: Mutex<Inner>,
    /// Mirror of `inner.next` for lock-free reads.
    head: AtomicU64,
    capacity: usize,
}

#[derive(Debug)]
struct Inner {
    /// `(sequence, event)` pairs, oldest first.
    events: VecDeque<(u64, StatusEvent)>,
    /// Sequence number the next event will get.
    next: u64,
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl EventJournal {
    /// An empty journal retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        EventJournal {
            inner: Mutex::new(Inner { events: VecDeque::new(), next: 0 }),
            head: AtomicU64::new(0),
            capacity,
        }
    }

    /// Appends one event, evicting the oldest if full. Returns the
    /// sequence number assigned.
    pub fn record(&self, event: StatusEvent) -> u64 {
        let mut inner = self.inner.lock().expect("event journal");
        let seq = inner.next;
        inner.next += 1;
        inner.events.push_back((seq, event));
        if inner.events.len() > self.capacity {
            inner.events.pop_front();
        }
        self.head.store(inner.next, Ordering::Release);
        seq
    }

    /// The sequence number the next event will be assigned (equals the
    /// count ever recorded). Lock-free.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Retained events with sequence `>= since`, oldest first.
    pub fn since(&self, since: u64) -> Vec<(u64, StatusEvent)> {
        let inner = self.inner.lock().expect("event journal");
        inner.events.iter().filter(|(seq, _)| *seq >= since).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_dense_and_queries_are_suffixes() {
        let journal = EventJournal::new(16);
        for view in 0..5u64 {
            assert_eq!(journal.record(StatusEvent::ViewChange { view }), view);
        }
        assert_eq!(journal.head(), 5);
        let tail = journal.since(3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0], (3, StatusEvent::ViewChange { view: 3 }));
        assert_eq!(tail[1], (4, StatusEvent::ViewChange { view: 4 }));
        assert!(journal.since(5).is_empty());
    }

    #[test]
    fn eviction_drops_oldest_but_keeps_sequence_numbers() {
        let journal = EventJournal::new(4);
        for seq in 0..10u64 {
            journal.record(StatusEvent::CheckpointSealed { seq });
        }
        assert_eq!(journal.head(), 10);
        let all = journal.since(0);
        assert_eq!(all.len(), 4, "bounded at capacity");
        // The survivors are the newest four, with original sequences.
        assert_eq!(
            all.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn concurrent_recording_assigns_unique_sequences() {
        use std::sync::Arc;
        let journal = Arc::new(EventJournal::new(100_000));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let journal = Arc::clone(&journal);
                s.spawn(move || {
                    for _ in 0..1000 {
                        journal.record(StatusEvent::DrainRequested);
                    }
                });
            }
        });
        assert_eq!(journal.head(), 4000);
        let all = journal.since(0);
        assert_eq!(all.len(), 4000);
        for (index, (seq, _)) in all.iter().enumerate() {
            assert_eq!(*seq, index as u64, "dense, ordered sequences");
        }
    }
}
