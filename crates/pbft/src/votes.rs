//! One vote per replica, kept in replica order.
//!
//! Every quorum the protocol counts — prepares, commits, checkpoints — is
//! "at most one vote from each of the `n` replicas". [`VoteSet`] stores
//! exactly that: a table indexed by replica id, allocated once at `n`
//! entries when the first vote arrives. It replaces the per-slot
//! `BTreeMap<ReplicaId, _>`s, whose first insert allocated an 11-entry
//! leaf however few replicas there are, and iterates in the same
//! (ascending replica) order, so the certificates built from it list their
//! votes exactly as before.

use splitbft_types::ReplicaId;

/// The votes of an `n`-replica cluster on one question, at most one per
/// replica.
#[derive(Debug, Clone)]
pub struct VoteSet<T> {
    /// Index = replica id; empty until the first vote.
    votes: Vec<Option<T>>,
}

impl<T> Default for VoteSet<T> {
    fn default() -> Self {
        VoteSet { votes: Vec::new() }
    }
}

impl<T> VoteSet<T> {
    /// An empty set; holds no memory until the first vote.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `replica`'s vote in a cluster of `n`, replacing its earlier
    /// vote if there was one. A replica id outside `0..n` is refused:
    /// nothing is stored and `false` is returned, so an id read from
    /// untrusted input can neither grow the table nor index past it.
    pub fn insert(&mut self, replica: ReplicaId, vote: T, n: usize) -> bool {
        let index = replica.as_usize();
        if index >= n {
            return false;
        }
        if self.votes.len() < n {
            self.votes.reserve_exact(n - self.votes.len());
            self.votes.resize_with(n, || None);
        }
        self.votes[index] = Some(vote);
        true
    }

    /// `replica`'s vote, if it cast one.
    pub fn get(&self, replica: ReplicaId) -> Option<&T> {
        self.votes.get(replica.as_usize())?.as_ref()
    }

    /// The votes cast, in ascending replica order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.votes.iter().flatten()
    }

    /// Number of votes cast.
    pub fn len(&self) -> usize {
        self.values().count()
    }

    /// `true` if no replica voted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn a_second_vote_from_one_replica_replaces_the_first() {
        let mut votes = VoteSet::new();
        assert!(votes.is_empty());
        assert!(votes.insert(ReplicaId(2), "first", 4));
        assert!(votes.insert(ReplicaId(2), "second", 4));
        assert_eq!(votes.len(), 1);
        assert_eq!(votes.get(ReplicaId(2)), Some(&"second"));
        assert_eq!(votes.get(ReplicaId(1)), None);
    }

    #[test]
    fn a_replica_id_outside_the_cluster_is_refused_and_stores_nothing() {
        let mut votes = VoteSet::new();
        for id in [4, 5, 1 << 20, u32::MAX] {
            assert!(!votes.insert(ReplicaId(id), id, 4));
            assert_eq!(votes.get(ReplicaId(id)), None);
        }
        assert!(votes.is_empty());
        assert_eq!(votes.votes.capacity(), 0, "a refused vote must not allocate");
        assert!(votes.insert(ReplicaId(3), 3, 4));
        assert!(!votes.insert(ReplicaId(4), 4, 4));
        assert_eq!(votes.values().copied().collect::<Vec<_>>(), [3]);
        assert_eq!(votes.votes.capacity(), 4, "one allocation, of exactly n entries");
    }

    #[test]
    fn iteration_is_in_replica_order_like_the_map_it_replaces() {
        // Certificates list their votes in iteration order, and the bytes
        // of a `ViewChange` or `CheckpointCertificate` depend on it.
        let arrival = [5u32, 0, 6, 2, 5, 3, 0];
        let mut votes = VoteSet::new();
        let mut map = BTreeMap::new();
        for (round, replica) in arrival.into_iter().enumerate() {
            assert!(votes.insert(ReplicaId(replica), (replica, round), 7));
            map.insert(ReplicaId(replica), (replica, round));
        }
        assert_eq!(votes.len(), map.len());
        assert!(votes.values().eq(map.values()));
    }
}
