//! The broker's committed-certificate **suffix ring** — the log path of
//! peer state transfer.
//!
//! The three compartments discard a slot's messages once it executes,
//! which kept the broker honest about memory but left lagging peers
//! only whole checkpoints to catch up on: a replica a few dozen slots
//! behind had to wait for the next stable checkpoint (and a transfer of
//! its state) even though every peer had just processed exactly the
//! messages it needs.
//!
//! The ring closes that gap at the broker layer. As consensus traffic
//! flows through the (untrusted) broker it *harvests* each slot's
//! `PrePrepare` and its `Commit` votes verbatim; when the Execution
//! compartment reports the slot committed, the entry is frozen to the
//! committed digest — only the proposal whose batch actually hashes to
//! the committed digest and the votes for that digest are retained, so
//! a byzantine proposal can never plant a substitute. Stable
//! checkpoints garbage-collect everything at or below them, and only
//! the horizon `(stable, stable + cap]` is ever admitted — which both
//! bounds the ring structurally at `cap` slots and refuses far-future
//! garbage no checkpoint would ever GC. GC is the only thing that ever
//! drops a committed certificate, and it only drops at or below the
//! stable sequence number.
//!
//! [`SuffixRing::messages_from`] serves the retained suffix to a peer
//! over `STATE_RESPONSE`: the peer replays the messages through its
//! normal verifying `on_message` path, so nothing here is trusted — a
//! corrupt ring (the broker is compromisable by design) costs liveness
//! only, never safety.

use splitbft_types::{ConsensusMessage, Digest, ReplicaId, SeqNum, View};
use std::collections::BTreeMap;

/// Default capacity (= admission-horizon length): comfortably above
/// any watermark window the compartments accept (256 by default), so
/// horizon refusal never touches legitimate traffic.
pub const DEFAULT_SUFFIX_CAP: usize = 512;

/// Most candidate proposals retained per slot. Honest traffic has one
/// per digest per view (two during an equivocation being resolved); a
/// byzantine flood of distinct-digest forgeries for one slot is capped
/// here instead of growing the per-slot map without bound.
pub const MAX_SLOT_PROPOSALS: usize = 8;

/// How far above the broker's current view a harvested `NewView` may
/// claim to be. Legitimate view changes advance in small steps (the
/// stall backoff re-broadcasts before escalating), so anything further
/// is an unverifiable forgery that must not displace the real latest
/// `NewView` from the head of the served suffix.
pub const NEW_VIEW_SLACK: u64 = 16;

/// One slot's harvested messages.
#[derive(Debug, Clone, Default)]
struct SuffixSlot {
    /// Proposals keyed by the *recomputed* digest of their batch (never
    /// the digest the message claims), so the commit point can select
    /// the batch that actually committed.
    pre_prepares: BTreeMap<Digest, ConsensusMessage>,
    /// Commit votes by sender, pruned to the committed digest once the
    /// slot commits.
    commits: BTreeMap<ReplicaId, ConsensusMessage>,
    /// Set (with the committed digest) when Execution reports the slot
    /// committed; only committed slots are served.
    committed: Option<Digest>,
}

/// A bounded ring of committed slot certificates (proposal + commit
/// votes) retained for peer catch-up. See the module docs.
#[derive(Debug, Clone)]
pub struct SuffixRing {
    slots: BTreeMap<SeqNum, SuffixSlot>,
    /// Highest garbage-collected stable checkpoint; nothing at or below
    /// it is retained or ever re-admitted.
    stable: SeqNum,
    cap: usize,
    /// The highest-view `NewView` observed, retained across GC: a peer
    /// that was down during a view change rejects every message of the
    /// new view until it processes this (self-certifying) message, so
    /// it leads every served suffix.
    latest_new_view: Option<(splitbft_types::View, ConsensusMessage)>,
}

impl SuffixRing {
    /// An empty ring retaining at most `cap` slots.
    pub fn new(cap: usize) -> Self {
        SuffixRing {
            slots: BTreeMap::new(),
            stable: SeqNum(0),
            cap: cap.max(1),
            latest_new_view: None,
        }
    }

    /// Harvests one message flowing through the broker (inbound from
    /// the network or broadcast by a local compartment). Only
    /// `PrePrepare`, `Commit`, and `NewView` are retained; slots at or
    /// below the stable checkpoint or beyond the horizon are refused,
    /// and a `NewView` claiming more than [`NEW_VIEW_SLACK`] above
    /// `current_view` (the broker's Execution-compartment view) is an
    /// unverifiable forgery and ignored.
    ///
    /// Returns the recomputed batch digest when `msg` is a
    /// `PrePrepare` — it is computed here anyway, so the broker can
    /// reuse it instead of hashing the batch a second time.
    pub fn observe(&mut self, msg: &ConsensusMessage, current_view: View) -> Option<Digest> {
        match msg {
            ConsensusMessage::PrePrepare(pp) => {
                let seq = pp.payload.seq;
                let view = pp.payload.view;
                let digest = splitbft_crypto::digest_of(&pp.payload.batch);
                let Some(slot) = self.admit(seq) else { return Some(digest) };
                // Committed slots are frozen: the digest decided.
                if slot.committed.is_some() {
                    return Some(digest);
                }
                // Latest view wins: a slot whose agreement spans a view
                // change gets re-proposed (same batch, same digest) in
                // the new view, and a recovering peer — moved to that
                // view by the NewView leading the suffix — rejects the
                // old-view copy as WrongView. Serving stale views would
                // defeat the log path exactly under primary kills.
                match slot.pre_prepares.get(&digest) {
                    Some(ConsensusMessage::PrePrepare(held))
                        if held.payload.view >= view => {}
                    _ if slot.pre_prepares.len() >= MAX_SLOT_PROPOSALS
                        && !slot.pre_prepares.contains_key(&digest) =>
                    {
                        // Flood guard: keep the candidates already held
                        // rather than let distinct-digest forgeries grow
                        // the slot without bound.
                    }
                    _ => {
                        slot.pre_prepares.insert(digest, msg.clone());
                    }
                }
                Some(digest)
            }
            ConsensusMessage::Commit(c) => {
                let seq = c.payload.seq;
                let view = c.payload.view;
                let voter = c.payload.replica;
                let vote_digest = c.payload.digest;
                let Some(slot) = self.admit(seq) else { return None };
                if slot.committed.is_some_and(|d| d != vote_digest) {
                    return None; // vote for a digest that lost: useless to peers
                }
                // Same latest-view-wins rule per voter.
                match slot.commits.get(&voter) {
                    Some(ConsensusMessage::Commit(held)) if held.payload.view >= view => {}
                    _ => {
                        slot.commits.insert(voter, msg.clone());
                    }
                }
                None
            }
            ConsensusMessage::NewView(nv) => {
                let view = nv.payload.view;
                if view.0 <= current_view.0.saturating_add(NEW_VIEW_SLACK)
                    && self.latest_new_view.as_ref().is_none_or(|(v, _)| view > *v)
                {
                    self.latest_new_view = Some((view, msg.clone()));
                }
                None
            }
            _ => None,
        }
    }

    /// Looks up (or creates, horizon permitting) the slot for `seq`.
    ///
    /// Messages are harvested *before* compartment verification (the
    /// broker is untrusted and cannot verify), so admission is hardened
    /// against byzantine poisoning: only seqs in the **horizon**
    /// `(stable, stable + cap]` are admitted. No legitimate watermark
    /// window reaches beyond it (the compartments' window is smaller
    /// than any sane cap), far-future garbage — which no stable
    /// checkpoint would ever GC — is refused outright, and since every
    /// retained slot lives inside a cap-sized interval the ring is
    /// *structurally* bounded at `cap` slots: junk can at worst occupy
    /// in-horizon seq numbers, which the next stable checkpoint sweeps
    /// away, never crowd out a real slot or outlive GC.
    fn admit(&mut self, seq: SeqNum) -> Option<&mut SuffixSlot> {
        if seq <= self.stable || seq.0 > self.stable.0 + self.cap as u64 {
            return None;
        }
        Some(self.slots.entry(seq).or_default())
    }

    /// Freezes `seq` to its committed `digest` (reported by the
    /// Execution compartment): the matching proposal and votes are
    /// retained, everything else for the slot is dropped.
    pub fn mark_committed(&mut self, seq: SeqNum, digest: Digest) {
        let Some(slot) = self.slots.get_mut(&seq) else { return };
        slot.committed = Some(digest);
        slot.pre_prepares.retain(|d, _| *d == digest);
        slot.commits.retain(|_, msg| {
            matches!(msg, ConsensusMessage::Commit(c) if c.payload.digest == digest)
        });
    }

    /// Garbage-collects at a stable checkpoint: every slot at or below
    /// `stable` is dropped; **nothing above it ever is** (the property
    /// the ring's tests pin down).
    pub fn gc(&mut self, stable: SeqNum) {
        if stable <= self.stable {
            return;
        }
        self.stable = stable;
        self.slots = self.slots.split_off(&SeqNum(stable.0 + 1));
    }

    /// Most slots served per [`SuffixRing::messages_from`] call. Catch-up
    /// is *chunked*: a deeply lagging peer gets the first window above
    /// its progress, executes it, and its next (guarded) state-request
    /// round carries a higher `have_seq` — incremental transfer instead
    /// of one giant response that drowns the recovering core loop.
    /// Shared with PBFT's catch-up so both protocols pace recovery
    /// identically.
    pub const SERVE_CHUNK_SLOTS: usize = splitbft_pbft::CATCH_UP_CHUNK_SLOTS;

    /// The retained catch-up suffix for a peer whose progress is
    /// `have_seq`: for up to [`Self::SERVE_CHUNK_SLOTS`] *committed*
    /// slots above `max(have_seq, stable)` (every retained one when
    /// `have_seq` is zero), the committed proposal
    /// followed by its commit votes, in slot order — led by the latest
    /// retained `NewView`, which a view-stranded peer needs before it
    /// will accept anything else. Slots missing their proposal are
    /// skipped (the peer cannot execute a digest-only slot).
    pub fn messages_from(&self, have_seq: SeqNum) -> Vec<ConsensusMessage> {
        let from = have_seq.max(self.stable);
        let mut msgs = Vec::new();
        if let Some((_, nv)) = &self.latest_new_view {
            msgs.push(nv.clone());
        }
        // A requester reporting no progress cannot page (see PBFT's
        // catch-up): it gets everything the ring retains.
        let chunk =
            if have_seq == SeqNum::zero() { usize::MAX } else { Self::SERVE_CHUNK_SLOTS };
        let mut served = 0usize;
        for (_, slot) in self.slots.range(SeqNum(from.0 + 1)..) {
            if served >= chunk {
                break;
            }
            let Some(digest) = slot.committed else { continue };
            let Some(pp) = slot.pre_prepares.get(&digest) else { continue };
            msgs.push(pp.clone());
            msgs.extend(slot.commits.values().cloned());
            served += 1;
        }
        msgs
    }

    /// Number of retained slots (committed or still collecting).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no slot is retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The stable checkpoint the ring last GC'd at.
    pub fn stable(&self) -> SeqNum {
        self.stable
    }

    /// `true` if `seq` is retained as a committed certificate (both the
    /// committed proposal and at least one vote are present).
    pub fn holds_committed(&self, seq: SeqNum) -> bool {
        self.slots.get(&seq).is_some_and(|slot| {
            slot.committed
                .is_some_and(|d| slot.pre_prepares.contains_key(&d) && !slot.commits.is_empty())
        })
    }
}

impl Default for SuffixRing {
    fn default() -> Self {
        SuffixRing::new(DEFAULT_SUFFIX_CAP)
    }
}
