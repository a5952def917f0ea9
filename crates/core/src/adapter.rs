//! Adapts a compartment state machine to the byte-oriented enclave
//! boundary of `splitbft-tee`.
//!
//! The compartments themselves are pure typed state machines; this
//! adapter gives them the shape of a real enclave: a single ecall entry
//! point taking *serialized* input (the host charges copy costs on the
//! real byte counts) and posting each output as a serialized ocall into
//! the broker's queue — exactly the structure §5 of the paper describes.
//! Each output is encoded once, straight into the queue's byte arena
//! ([`OcallSink::ocall_with`]); the adapter's own list of pending outputs
//! is reused from one ecall to the next.

use crate::conf::ConfirmationCompartment;
use crate::ecall::{CompartmentInput, CompartmentOutput, ECALL_HANDLE, OCALL_OUTPUT};
use crate::exec::ExecutionCompartment;
use crate::prep::PreparationCompartment;
use crate::scheme::compartment_measurement;
use splitbft_app::Application;
use splitbft_tee::enclave::{Enclave, OcallSink};
use splitbft_types::wire::{decode, Encode};
use splitbft_types::{CompartmentKind, ProtocolError};

/// A compartment state machine that can be loaded into an enclave.
pub trait Compartment: Send {
    /// Which compartment type this is.
    fn kind(&self) -> CompartmentKind;
    /// Handles one event to completion (principle P2), appending its
    /// effects to `outputs`, or says why it rejected the event.
    fn handle(
        &mut self,
        input: CompartmentInput,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError>;
    /// Approximate heap usage, for EPC accounting.
    fn memory_usage(&self) -> usize;
}

impl Compartment for PreparationCompartment {
    fn kind(&self) -> CompartmentKind {
        CompartmentKind::Preparation
    }
    fn handle(
        &mut self,
        input: CompartmentInput,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        PreparationCompartment::handle(self, input, outputs)
    }
    fn memory_usage(&self) -> usize {
        PreparationCompartment::memory_usage(self)
    }
}

impl Compartment for ConfirmationCompartment {
    fn kind(&self) -> CompartmentKind {
        CompartmentKind::Confirmation
    }
    fn handle(
        &mut self,
        input: CompartmentInput,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        ConfirmationCompartment::handle(self, input, outputs)
    }
    fn memory_usage(&self) -> usize {
        ConfirmationCompartment::memory_usage(self)
    }
}

impl<A: Application> Compartment for ExecutionCompartment<A> {
    fn kind(&self) -> CompartmentKind {
        CompartmentKind::Execution
    }
    fn handle(
        &mut self,
        input: CompartmentInput,
        outputs: &mut Vec<CompartmentOutput>,
    ) -> Result<(), ProtocolError> {
        ExecutionCompartment::handle(self, input, outputs)
    }
    fn memory_usage(&self) -> usize {
        ExecutionCompartment::memory_usage(self)
    }
}

/// Wraps a [`Compartment`] as a TEE [`Enclave`].
#[derive(Debug)]
pub struct EnclaveAdapter<C> {
    inner: C,
    /// The outputs of the ecall in progress; empty between ecalls.
    outputs: Vec<CompartmentOutput>,
}

impl<C: Compartment> EnclaveAdapter<C> {
    /// Loads `compartment` behind the enclave boundary.
    pub fn new(compartment: C) -> Self {
        EnclaveAdapter { inner: compartment, outputs: Vec::new() }
    }

    /// Read access to the compartment (inspection by tests and invariant
    /// checkers; production traffic goes through ecalls).
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Compartment> Enclave for EnclaveAdapter<C> {
    fn measurement(&self) -> [u8; 32] {
        compartment_measurement(self.inner.kind())
    }

    fn handle_ecall(&mut self, id: u32, input: &[u8], env: &mut dyn OcallSink) -> Vec<u8> {
        if id != ECALL_HANDLE {
            return Vec::new();
        }
        // Untrusted input: a malformed event is dropped with a rejection
        // ocall so the broker can account for it; the enclave never
        // panics on garbage.
        let handled = decode::<CompartmentInput>(input)
            .map_err(|e| e.to_string())
            .and_then(|event| {
                self.inner.handle(event, &mut self.outputs).map_err(|e| e.to_string())
            });
        if let Err(reason) = handled {
            // A rejected event has exactly one effect: the rejection.
            self.outputs.clear();
            self.outputs.push(CompartmentOutput::Rejected { reason });
        }
        for output in self.outputs.drain(..) {
            env.ocall_with(OCALL_OUTPUT, &mut |arena| {
                arena.reserve(output.encoded_len());
                output.encode_to(arena);
            });
        }
        Vec::new()
    }

    fn memory_usage(&self) -> usize {
        self.inner.memory_usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_tee::enclave::OcallQueue;
    use splitbft_types::{ClusterConfig, ReplicaId};

    #[test]
    fn garbage_input_yields_rejection_ocall() {
        let cfg = ClusterConfig::new(4).unwrap();
        let mut adapter =
            EnclaveAdapter::new(PreparationCompartment::new(cfg, ReplicaId(0), 1));
        let mut q = OcallQueue::new();
        let out = adapter.handle_ecall(ECALL_HANDLE, b"\xff\xff\xff", &mut q);
        assert!(out.is_empty());
        let calls: Vec<_> = q.iter().collect();
        assert_eq!(calls.len(), 1, "exactly one ocall for garbage input");
        assert_eq!(calls[0].0, OCALL_OUTPUT);
        let output: CompartmentOutput = decode(calls[0].1).unwrap();
        assert!(matches!(output, CompartmentOutput::Rejected { .. }));
    }

    #[test]
    fn unknown_ecall_id_is_ignored() {
        let cfg = ClusterConfig::new(4).unwrap();
        let mut adapter =
            EnclaveAdapter::new(ConfirmationCompartment::new(cfg, ReplicaId(0), 1));
        let mut q = OcallQueue::new();
        assert!(adapter.handle_ecall(99, b"", &mut q).is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn measurement_matches_compartment_kind() {
        let cfg = ClusterConfig::new(4).unwrap();
        let prep = EnclaveAdapter::new(PreparationCompartment::new(cfg.clone(), ReplicaId(0), 1));
        let conf = EnclaveAdapter::new(ConfirmationCompartment::new(cfg, ReplicaId(0), 1));
        assert_eq!(prep.measurement(), compartment_measurement(CompartmentKind::Preparation));
        assert_eq!(conf.measurement(), compartment_measurement(CompartmentKind::Confirmation));
        assert_ne!(prep.measurement(), conf.measurement());
    }
}
