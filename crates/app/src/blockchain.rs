//! The blockchain (distributed ledger) application — the paper's second
//! use case, where the BFT cluster acts as an ordering service.
//!
//! "The blockchain application creates blocks of five messages in the
//! execution enclave and writes them using an ocall into the untrusted
//! memory to be stored and encrypted persistently." We reproduce that:
//! every five executed transactions close a [`Block`] chained by parent
//! hash, and the serialized block is queued for the hosting enclave to
//! seal and persist via ocall ([`Application::drain_persist`]).

use crate::{AppError, Application, NOOP_RESULT};
use bytes::Bytes;
use splitbft_crypto::digest_of;
use splitbft_types::wire::{encode, Decode, Encode, Reader, Sink, WireError};
use splitbft_types::Digest;

/// Transactions per block, as in the paper's evaluation.
pub const BLOCK_SIZE: usize = 5;

/// A block of ordered transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Height in the chain (genesis children start at 0).
    pub height: u64,
    /// Digest of the parent block ([`Digest::ZERO`] for the first block).
    pub parent: Digest,
    /// The transactions, in agreement order.
    pub transactions: Vec<Bytes>,
}

impl Block {
    /// This block's digest (over the canonical encoding).
    pub fn digest(&self) -> Digest {
        digest_of(self)
    }
}

impl Encode for Block {
    fn encode_to<S: Sink>(&self, out: &mut S) {
        self.height.encode_to(out);
        self.parent.encode_to(out);
        self.transactions.encode_to(out);
    }
}
impl Decode for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Block {
            height: u64::decode(r)?,
            parent: Digest::decode(r)?,
            transactions: Vec::decode(r)?,
        })
    }
}

/// The ledger state machine.
///
/// Every valid operation is appended as a transaction; its result is a
/// receipt carrying the transaction's position (height, index). Blocks are
/// handed to the environment through [`Application::drain_persist`] — in
/// SplitBFT the Execution enclave seals them first.
#[derive(Debug, Clone, Default)]
pub struct Blockchain {
    /// Transactions not yet baked into a block.
    pending: Vec<Bytes>,
    /// Digest of the last closed block.
    head: Digest,
    /// Number of closed blocks.
    height: u64,
    /// Closed blocks awaiting persistence (drained via ocall).
    outbox: Vec<Bytes>,
    bytes_pending: usize,
}

impl Blockchain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Height of the chain (number of closed blocks).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Digest of the chain head ([`Digest::ZERO`] before the first block).
    pub fn head(&self) -> Digest {
        self.head
    }

    /// Transactions accumulated toward the next block.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn close_block(&mut self) {
        let block = Block {
            height: self.height,
            parent: self.head,
            transactions: std::mem::take(&mut self.pending),
        };
        self.bytes_pending = 0;
        self.head = block.digest();
        self.height += 1;
        self.outbox.push(Bytes::from(encode(&block)));
    }
}

impl Application for Blockchain {
    fn execute(&mut self, op: &[u8]) -> Bytes {
        // A transaction must be non-empty; empty submissions execute as
        // no-ops so byzantine clients cannot inflate blocks for free.
        if op.is_empty() {
            return Bytes::from_static(NOOP_RESULT);
        }
        let index = self.pending.len() as u64;
        self.bytes_pending += op.len();
        self.pending.push(Bytes::copy_from_slice(op));

        // Receipt: block height this tx will land in, index within it.
        let mut receipt = Vec::with_capacity(16);
        self.height.encode_to(&mut receipt);
        index.encode_to(&mut receipt);

        if self.pending.len() >= BLOCK_SIZE {
            self.close_block();
        }
        Bytes::from(receipt)
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.height.encode_to(&mut buf);
        self.head.encode_to(&mut buf);
        self.pending.encode_to(&mut buf);
        buf
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), AppError> {
        let mut r = Reader::new(snapshot);
        let height = u64::decode(&mut r).map_err(|e| AppError::BadSnapshot(e.to_string()))?;
        let head = Digest::decode(&mut r).map_err(|e| AppError::BadSnapshot(e.to_string()))?;
        let pending: Vec<Bytes> =
            Vec::decode(&mut r).map_err(|e| AppError::BadSnapshot(e.to_string()))?;
        if r.remaining() != 0 {
            return Err(AppError::BadSnapshot("trailing bytes".into()));
        }
        self.height = height;
        self.head = head;
        self.bytes_pending = pending.iter().map(|t| t.len()).sum();
        self.pending = pending;
        self.outbox.clear();
        Ok(())
    }

    fn drain_persist(&mut self) -> Vec<Bytes> {
        std::mem::take(&mut self.outbox)
    }

    fn memory_usage(&self) -> usize {
        self.bytes_pending
            + self.pending.len() * 32
            + self.outbox.iter().map(|b| b.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::wire::decode;

    fn tx(i: u8) -> Vec<u8> {
        vec![i; 10]
    }

    #[test]
    fn five_transactions_close_a_block() {
        let mut chain = Blockchain::new();
        for i in 0..4 {
            chain.execute(&tx(i));
            assert_eq!(chain.height(), 0);
            assert!(chain.drain_persist().is_empty());
        }
        chain.execute(&tx(4));
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.pending_len(), 0);

        let persisted = chain.drain_persist();
        assert_eq!(persisted.len(), 1);
        let block: Block = decode(&persisted[0]).unwrap();
        assert_eq!(block.height, 0);
        assert_eq!(block.parent, Digest::ZERO);
        assert_eq!(block.transactions.len(), BLOCK_SIZE);
    }

    #[test]
    fn blocks_chain_by_parent_digest() {
        let mut chain = Blockchain::new();
        for i in 0..10 {
            chain.execute(&tx(i));
        }
        let blocks: Vec<Block> =
            chain.drain_persist().iter().map(|b| decode(b).unwrap()).collect();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[1].parent, blocks[0].digest());
        assert_eq!(chain.head(), blocks[1].digest());
    }

    #[test]
    fn receipts_carry_position() {
        let mut chain = Blockchain::new();
        let r0 = chain.execute(&tx(0));
        let mut reader = Reader::new(&r0);
        assert_eq!(u64::decode(&mut reader).unwrap(), 0); // height
        assert_eq!(u64::decode(&mut reader).unwrap(), 0); // index

        for i in 1..6 {
            chain.execute(&tx(i));
        }
        // Sixth tx goes into block 1 at index 0.
        let r6 = chain.execute(&tx(6));
        let mut reader = Reader::new(&r6);
        assert_eq!(u64::decode(&mut reader).unwrap(), 1);
        assert_eq!(u64::decode(&mut reader).unwrap(), 1);
    }

    #[test]
    fn empty_tx_is_noop() {
        let mut chain = Blockchain::new();
        assert_eq!(&chain.execute(b"")[..], NOOP_RESULT);
        assert_eq!(chain.pending_len(), 0);
    }

    #[test]
    fn snapshot_restore_preserves_chain_position() {
        let mut chain = Blockchain::new();
        for i in 0..7 {
            chain.execute(&tx(i));
        }
        chain.drain_persist();
        let snap = chain.snapshot();

        let mut restored = Blockchain::new();
        restored.restore(&snap).unwrap();
        assert_eq!(restored.height(), chain.height());
        assert_eq!(restored.head(), chain.head());
        assert_eq!(restored.pending_len(), chain.pending_len());
        assert_eq!(restored.state_digest(), chain.state_digest());

        // Continue executing on both: they stay identical.
        for i in 7..12 {
            chain.execute(&tx(i));
            restored.execute(&tx(i));
        }
        assert_eq!(restored.state_digest(), chain.state_digest());
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut chain = Blockchain::new();
        assert!(chain.restore(b"junk").is_err());
        assert!(chain.restore(b"").is_err());
    }

    #[test]
    fn identical_histories_identical_digests() {
        let mut a = Blockchain::new();
        let mut b = Blockchain::new();
        for i in 0..23 {
            a.execute(&tx(i));
            b.execute(&tx(i));
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.head(), b.head());
    }
}
