//! Compute-cost estimation for protocol steps.
//!
//! The simulator drives the real protocol implementations, but wall-clock time
//! on the simulation host says nothing about the paper's testbed. Instead,
//! every step is charged *virtual* nanoseconds assembled from the
//! [`CostModel`]'s primitives (signature create/verify, HMAC, per-event
//! bookkeeping, execution) according to counts of what the step did: the
//! ecalls each enclave host served, the messages and replies the replica
//! sent, the blocks its application sealed. For SplitBFT the enclave
//! boundary itself is not estimated here — the hosts charge it from real
//! byte counts and the simulator reads their counters. The constants are
//! calibrated in [`CostModel::paper_calibrated`] so that the emergent
//! per-compartment ecall totals land in the regime the paper reports
//! (≈ 0.84 ms summed ecalls per unbatched request; Preparation ≈ 0.9 ms
//! per 200-request batch, bounding batched throughput near 227k op/s).

use splitbft_tee::CostModel;
use splitbft_types::wire::Encode;
use splitbft_types::{CompartmentKind, ConsensusMessage, Request};

/// What a replica is handed in one step.
#[derive(Debug, Clone)]
pub enum Input {
    /// A client batch, at the primary.
    Batch(Vec<Request>),
    /// A peer's protocol message.
    Message(ConsensusMessage),
}

/// Per-request admission: authenticate each client MAC and (de)serialize
/// the request bytes.
fn admission_ns(requests: &[Request], cost: &CostModel) -> u64 {
    let bytes: usize = requests.iter().map(Encode::encoded_len).sum();
    requests.len() as u64 * cost.request_admission_ns
        + (bytes as f64 * cost.serialize_ns_per_byte) as u64
}

/// The compartment that signs `msg`: Preparation proposes and prepares,
/// Confirmation commits and votes to change view, Execution checkpoints.
pub fn splitbft_signer(msg: &ConsensusMessage) -> CompartmentKind {
    match msg {
        ConsensusMessage::PrePrepare(_)
        | ConsensusMessage::Prepare(_)
        | ConsensusMessage::NewView(_) => CompartmentKind::Preparation,
        ConsensusMessage::Commit(_) | ConsensusMessage::ViewChange(_) => {
            CompartmentKind::Confirmation
        }
        ConsensusMessage::Checkpoint(_) => CompartmentKind::Execution,
    }
}

/// What one step made a SplitBFT compartment do, counted from outside it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EcallWork {
    /// Ecalls its enclave host served.
    pub ecalls: u64,
    /// Messages it signed.
    pub signed: u64,
    /// Requests it executed (Execution only).
    pub executed: u64,
    /// Blocks it sealed (Execution only).
    pub sealed: u64,
}

/// Virtual compute one SplitBFT compartment spends on one step, beyond
/// the boundary cost its enclave host already counted.
///
/// Every ecall pays the handler's bookkeeping and verifies one signed
/// message — the input, or a sibling compartment's broadcast looped back
/// — except the ecall that takes the input where the pair (`kind`, input
/// kind) says otherwise. `redundant` marks a vote the compartment
/// early-drops without verifying it.
pub fn splitbft_compute(
    kind: CompartmentKind,
    input: &Input,
    redundant: bool,
    work: EcallWork,
    cost: &CostModel,
) -> u64 {
    use CompartmentKind::*;
    use ConsensusMessage::*;
    if work.ecalls == 0 {
        return 0;
    }
    let base = cost.handler_ns;
    let verifying = base + cost.verify_ns;
    let first = match (kind, input) {
        // The early-drop path: bookkeeping only.
        (Confirmation, Input::Message(Prepare(_))) | (Execution, Input::Message(Commit(_)))
            if redundant =>
        {
            base / 4
        }
        // Handler (1): the primary admits every client request.
        (Preparation, Input::Batch(requests)) => base + admission_ns(requests, cost),
        // Handler (2): verify the primary's signature, admit (copy,
        // unmarshal, authenticate) every client request in the batch.
        (Preparation, Input::Message(PrePrepare(pp))) => {
            verifying + admission_ns(&pp.payload.batch.requests, cost)
        }
        // Execution hashes the batch to bind it to future commits.
        (Execution, Input::Batch(requests)) => base + cost.hmac_ns(op_bytes(requests)),
        (Execution, Input::Message(PrePrepare(pp))) => {
            base + cost.hmac_ns(op_bytes(&pp.payload.batch.requests))
        }
        // View changes and new views are off the performance path; a flat
        // signature-heavy estimate suffices.
        (_, Input::Message(ViewChange(vc))) => {
            base + cost.verify_ns * (2 + vc.payload.prepared.len() as u64 * 3)
        }
        (_, Input::Message(NewView(nv))) => {
            base + cost.verify_ns * (1 + nv.payload.view_changes.len() as u64)
        }
        _ => verifying,
    };
    let mut ns = first + (work.ecalls - 1) * verifying + work.signed * cost.sign_ns;
    if kind == Execution {
        // Per request: re-authenticate, decrypt, execute, encrypt + MAC
        // the reply; per block: seal + ocall.
        ns += work.executed * cost.exec_request_ns + work.sealed * cost.block_seal_ns;
    }
    ns
}

fn op_bytes(requests: &[Request]) -> usize {
    requests.iter().map(|r| r.op.len()).sum()
}

/// Virtual compute of one PBFT step, split into the parallelizable
/// authentication share (worker pool) and the serial protocol share
/// (core thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbftCompute {
    /// Work offloadable to the 4-worker auth pool.
    pub auth_ns: u64,
    /// Serial protocol-core work.
    pub core_ns: u64,
}

/// Estimates the PBFT baseline's cost for one step that was handed
/// `input` and then sent `sent` messages, executed `executed` requests
/// (one reply each) and sealed `sealed` blocks.
pub fn pbft_compute(
    input: &Input,
    sent: u64,
    executed: u64,
    sealed: u64,
    cost: &CostModel,
) -> PbftCompute {
    let macs =
        |requests: &[Request]| -> u64 { requests.iter().map(|r| cost.hmac_ns(r.op.len())).sum() };
    let verify = match input {
        Input::Batch(requests) => macs(requests),
        Input::Message(ConsensusMessage::PrePrepare(pp)) => {
            let requests = &pp.payload.batch.requests;
            let unmarshal = requests.len() as u64 * (cost.serialize_ns_per_byte * 60.0) as u64;
            cost.verify_ns + macs(requests) + unmarshal
        }
        Input::Message(_) => cost.verify_ns,
    };
    let auth_ns = verify + sent * cost.sign_ns + executed * cost.hmac_ns(16);
    // Block persistence costs PBFT too (plain file I/O: roughly half the
    // sealed-write cost SplitBFT pays inside the enclave).
    let core_ns =
        cost.handler_ns + executed * cost.exec_ns_per_op + sealed * cost.block_seal_ns / 2;
    PbftCompute { auth_ns, core_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use splitbft_types::{
        ClientId, Commit, Digest, PrePrepare, Prepare, ReplicaId, RequestBatch, RequestId, SeqNum,
        Signature, Signed, SignerId, Timestamp, View,
    };

    fn request(bytes: usize) -> Request {
        Request {
            id: RequestId { client: ClientId(0), timestamp: Timestamp(1) },
            op: Bytes::from(vec![0u8; bytes]),
            encrypted: false,
            auth: [0u8; 32],
        }
    }

    fn pre_prepare(k: usize) -> Input {
        let batch = RequestBatch::new((0..k).map(|_| request(10)).collect());
        Input::Message(ConsensusMessage::PrePrepare(Signed::new(
            PrePrepare { view: View(0), seq: SeqNum(1), digest: Digest::ZERO, batch },
            SignerId::Replica(ReplicaId(0)),
            Signature::ZERO,
        )))
    }

    /// A backup's Prepare (or, with `commit`, its Commit) for slot 1.
    fn vote(commit: bool) -> Input {
        let (view, seq, digest, replica) = (View(0), SeqNum(1), Digest::ZERO, ReplicaId(1));
        let signer = SignerId::Replica(replica);
        Input::Message(if commit {
            let payload = Commit { view, seq, digest, replica };
            ConsensusMessage::Commit(Signed::new(payload, signer, Signature::ZERO))
        } else {
            let payload = Prepare { view, seq, digest, replica };
            ConsensusMessage::Prepare(Signed::new(payload, signer, Signature::ZERO))
        })
    }

    fn ecalls(ecalls: u64) -> EcallWork {
        EcallWork { ecalls, ..EcallWork::default() }
    }

    fn compute(kind: CompartmentKind, input: &Input, redundant: bool, work: EcallWork) -> u64 {
        splitbft_compute(kind, input, redundant, work, &CostModel::paper_calibrated())
    }

    #[test]
    fn preparation_cost_scales_with_batch_size() {
        let prep = |k| compute(CompartmentKind::Preparation, &pre_prepare(k), false, ecalls(1));
        let (small, large) = (prep(1), prep(200));
        // Per-request authentication makes the 200-request ecall several
        // times the single-request one (it cannot be 200× — the signature
        // verification is paid once either way).
        assert!(large > small * 3, "large {large} vs small {small}");
    }

    #[test]
    fn confirmation_cost_is_batch_size_independent() {
        // "Ecalls to the Confirmation compartment are similar to the
        // unbatched mode since this compartment only handles a hash."
        let conf = |k| compute(CompartmentKind::Confirmation, &pre_prepare(k), false, ecalls(1));
        assert_eq!(conf(1), conf(200));
    }

    #[test]
    fn unbatched_ecall_totals_match_paper_regime() {
        // Per unbatched request on the leader, summed compartment compute
        // should land in the high-hundreds of microseconds (the paper
        // reports 841 µs including boundary costs). The leader's steps:
        // order the batch; three prepares, the second of which completes
        // the quorum — its Commit loops back into Execution — and the
        // third is dropped; three commits, likewise.
        use CompartmentKind::*;
        let (batch, prepare, commit) = (Input::Batch(vec![request(10)]), vote(false), vote(true));
        let signing = EcallWork { signed: 1, ..ecalls(1) };
        let prep = compute(Preparation, &batch, false, signing);
        let conf = compute(Confirmation, &batch, false, ecalls(1))
            + compute(Confirmation, &prepare, false, ecalls(1))
            + compute(Confirmation, &prepare, false, signing)
            + compute(Confirmation, &prepare, true, ecalls(1));
        let exec = compute(Execution, &batch, false, ecalls(1))
            + compute(Execution, &prepare, false, ecalls(1))
            + compute(Execution, &commit, false, ecalls(1))
            + compute(Execution, &commit, false, EcallWork { executed: 1, ..ecalls(1) })
            + compute(Execution, &commit, true, ecalls(1));
        let total = prep + conf + exec;
        assert!(
            (500_000..1_200_000).contains(&total),
            "summed per-request ecall compute {total} ns outside the paper's regime"
        );
        // Execution is the heaviest compartment without batching.
        assert!(exec > conf, "exec {exec} vs conf {conf}");
    }

    #[test]
    fn pbft_core_work_is_much_smaller_than_auth_work() {
        let cost = CostModel::paper_calibrated();
        let c = pbft_compute(&pre_prepare(1), 0, 0, 0, &cost);
        assert!(c.auth_ns > c.core_ns, "auth dominates and is parallelized");
    }
}
