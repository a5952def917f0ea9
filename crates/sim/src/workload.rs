//! Closed-loop client workloads.
//!
//! "Clients constantly issue synchronous requests in all our measurements
//! and measure the time it takes to collect the replies." Unbatched runs
//! give every client one outstanding request; the batched experiment
//! "allows each client to have 40 outstanding requests in parallel."
//! Each client is a `splitbft_app::Client` of that depth; this module
//! only decides what it asks for.

use bytes::Bytes;
use splitbft_app::KvOp;
use splitbft_types::RequestId;

/// Which application the workload targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// The key-value store: PUT operations updating entries.
    Kvs,
    /// The blockchain: opaque transactions batched into blocks of five.
    Blockchain,
}

/// The operation request `id` carries: `payload` bytes for `app`,
/// varying with the request's timestamp.
pub fn op(app: AppKind, id: RequestId, payload: usize) -> Bytes {
    let fill = (id.timestamp.0 % 251) as u8;
    match app {
        // "Our throughput and latency measurements evaluate a PUT
        // operation that updates the entries": each client hammers its
        // own key with a payload-sized value.
        AppKind::Kvs => KvOp::put(&id.client.0.to_le_bytes(), &vec![fill; payload]).encode_op(),
        // Blockchain transactions are opaque payload bytes.
        AppKind::Blockchain => {
            let mut tx = vec![fill; payload.max(1)];
            tx[0] = id.client.0 as u8; // non-empty, client-tagged
            Bytes::from(tx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::{ClientId, Timestamp};

    #[test]
    fn ops_are_payload_sized_and_vary_with_the_request() {
        let id = |client, ts| RequestId { client: ClientId(client), timestamp: Timestamp(ts) };
        let put = op(AppKind::Kvs, id(3, 7), 10);
        assert_eq!(put, KvOp::put(&3u32.to_le_bytes(), &[7; 10]).encode_op());
        assert_ne!(put, op(AppKind::Kvs, id(3, 8), 10));
        // Transactions are client-tagged and never empty.
        assert_eq!(&op(AppKind::Blockchain, id(5, 2), 4)[..], &[5, 2, 2, 2]);
        assert_eq!(&op(AppKind::Blockchain, id(5, 2), 0)[..], &[5]);
    }
}
