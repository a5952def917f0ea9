//! Fault-injection wrappers for enclaves.
//!
//! SplitBFT's whole point is that *enclaves themselves may fail*: "we do
//! assume that enclaves can fail and become byzantine". The robustness
//! experiments (paper Table 1) inject such faults. [`FaultyEnclave`] wraps
//! any [`Enclave`] and corrupts its observable behaviour according to a
//! [`FaultPlan`] — from the outside it is indistinguishable from a
//! compromised enclave, which is exactly the attacker model.
//!
//! Crash faults are injected at the host instead
//! ([`EnclaveHost::inject_crash`](crate::host::EnclaveHost::inject_crash)),
//! since a crash is visible to the environment while byzantine behaviour
//! is not. Protocol-aware equivocation (sending *different well-formed
//! messages* to different peers) is implemented at the protocol layer in
//! `splitbft-sim` and `splitbft-model`, where message semantics are known.

use crate::enclave::{Enclave, OcallSink};

/// The observable misbehaviours a wrapped enclave can exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Stop posting ocalls: the enclave silently drops all its outputs
    /// (an "exploited enclave could remain unresponsive to messages").
    MuteOcalls,
    /// Flip bits in every ocall payload (memory corruption of outputs).
    CorruptOcalls {
        /// XOR mask applied to every payload byte.
        xor: u8,
    },
    /// Return garbage from ecalls while still posting ocalls.
    CorruptReturns {
        /// XOR mask applied to every returned byte.
        xor: u8,
    },
    /// Swallow every ecall: no state change, no output, no ocalls
    /// (an enclave "delaying executing an operation" indefinitely).
    DropEcalls,
}

/// When a fault becomes active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The kind of misbehaviour.
    pub kind: FaultKind,
    /// The fault activates after this many healthy ecalls (0 = from the
    /// start). Models latent compromises that trigger mid-protocol.
    pub after_ecalls: u64,
}

impl FaultPlan {
    /// A fault active from the first ecall.
    pub fn immediate(kind: FaultKind) -> Self {
        FaultPlan { kind, after_ecalls: 0 }
    }

    /// A fault activating after `n` healthy ecalls.
    pub fn after(kind: FaultKind, n: u64) -> Self {
        FaultPlan { kind, after_ecalls: n }
    }

    /// A plan that never activates — lets healthy enclaves be hosted
    /// through the same [`FaultyEnclave`] wrapper type as faulty ones.
    pub fn benign() -> Self {
        FaultPlan { kind: FaultKind::MuteOcalls, after_ecalls: u64::MAX }
    }
}

/// An [`Enclave`] wrapper that misbehaves according to a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyEnclave<E> {
    inner: E,
    plan: FaultPlan,
    ecalls_seen: u64,
}

impl<E: Enclave> FaultyEnclave<E> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        FaultyEnclave { inner, plan, ecalls_seen: 0 }
    }

    /// `true` once the fault is active.
    pub fn is_active(&self) -> bool {
        self.ecalls_seen >= self.plan.after_ecalls
    }

    /// Access to the wrapped enclave.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Replaces the fault plan (arming or disarming the fault at
    /// runtime, as the robustness experiments do mid-protocol).
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.ecalls_seen = 0;
    }
}

/// An ocall sink that applies a fault transformation before forwarding.
struct FaultSink<'a> {
    inner: &'a mut dyn OcallSink,
    kind: FaultKind,
}

impl OcallSink for FaultSink<'_> {
    fn ocall(&mut self, id: u32, data: &[u8]) {
        match self.kind {
            FaultKind::MuteOcalls => {}
            FaultKind::CorruptOcalls { xor } => {
                let corrupted: Vec<u8> = data.iter().map(|b| b ^ xor).collect();
                self.inner.ocall(id, &corrupted);
            }
            FaultKind::CorruptReturns { .. } | FaultKind::DropEcalls => {
                self.inner.ocall(id, data);
            }
        }
    }
}

impl<E: Enclave> Enclave for FaultyEnclave<E> {
    fn measurement(&self) -> [u8; 32] {
        // A compromised enclave still *measures* as the genuine code: the
        // exploit happened after attestation. This is the crux of the
        // paper's threat model — attestation does not save you from bugs.
        self.inner.measurement()
    }

    fn handle_ecall(&mut self, id: u32, input: &[u8], env: &mut dyn OcallSink) -> Vec<u8> {
        let active = self.is_active();
        self.ecalls_seen += 1;
        if !active {
            return self.inner.handle_ecall(id, input, env);
        }
        match self.plan.kind {
            FaultKind::DropEcalls => Vec::new(),
            kind => {
                let mut sink = FaultSink { inner: env, kind };
                let out = self.inner.handle_ecall(id, input, &mut sink);
                match kind {
                    FaultKind::CorruptReturns { xor } => {
                        out.into_iter().map(|b| b ^ xor).collect()
                    }
                    _ => out,
                }
            }
        }
    }

    fn memory_usage(&self) -> usize {
        self.inner.memory_usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::OcallQueue;

    struct Echo;
    impl Enclave for Echo {
        fn measurement(&self) -> [u8; 32] {
            [0xAA; 32]
        }
        fn handle_ecall(&mut self, _id: u32, input: &[u8], env: &mut dyn OcallSink) -> Vec<u8> {
            env.ocall(1, input);
            input.to_vec()
        }
    }

    fn run(e: &mut dyn Enclave, input: &[u8]) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut q = OcallQueue::new();
        let out = e.handle_ecall(0, input, &mut q);
        (out, q.iter().map(|(_, data)| data.to_vec()).collect())
    }

    #[test]
    fn mute_drops_ocalls_but_returns() {
        let mut e = FaultyEnclave::new(Echo, FaultPlan::immediate(FaultKind::MuteOcalls));
        let (out, ocalls) = run(&mut e, b"hi");
        assert_eq!(out, b"hi");
        assert!(ocalls.is_empty());
    }

    #[test]
    fn corrupt_ocalls_flips_bits() {
        let mut e = FaultyEnclave::new(
            Echo,
            FaultPlan::immediate(FaultKind::CorruptOcalls { xor: 0xFF }),
        );
        let (out, ocalls) = run(&mut e, &[0x00, 0x0F]);
        assert_eq!(out, &[0x00, 0x0F]);
        assert_eq!(ocalls[0], vec![0xFF, 0xF0]);
    }

    #[test]
    fn corrupt_returns_flips_output_only() {
        let mut e = FaultyEnclave::new(
            Echo,
            FaultPlan::immediate(FaultKind::CorruptReturns { xor: 0x01 }),
        );
        let (out, ocalls) = run(&mut e, &[0x10]);
        assert_eq!(out, &[0x11]);
        assert_eq!(ocalls[0], vec![0x10]);
    }

    #[test]
    fn drop_ecalls_swallows_everything() {
        let mut e = FaultyEnclave::new(Echo, FaultPlan::immediate(FaultKind::DropEcalls));
        let (out, ocalls) = run(&mut e, b"hi");
        assert!(out.is_empty());
        assert!(ocalls.is_empty());
    }

    #[test]
    fn deferred_fault_activates_after_threshold() {
        let mut e = FaultyEnclave::new(Echo, FaultPlan::after(FaultKind::MuteOcalls, 2));
        assert!(!e.is_active());
        let (_, ocalls) = run(&mut e, b"1");
        assert_eq!(ocalls.len(), 1);
        let (_, ocalls) = run(&mut e, b"2");
        assert_eq!(ocalls.len(), 1);
        // Third call: fault active.
        assert!(e.is_active());
        let (_, ocalls) = run(&mut e, b"3");
        assert!(ocalls.is_empty());
    }

    /// [`Echo`], marshalling its ocall in place.
    struct InPlaceEcho;
    impl Enclave for InPlaceEcho {
        fn measurement(&self) -> [u8; 32] {
            [0xAA; 32]
        }
        fn handle_ecall(&mut self, _id: u32, input: &[u8], env: &mut dyn OcallSink) -> Vec<u8> {
            env.ocall_with(1, &mut |buf| buf.extend_from_slice(input));
            input.to_vec()
        }
    }

    #[test]
    fn every_fault_treats_in_place_ocalls_like_copied_ones() {
        let kinds = [
            FaultKind::MuteOcalls,
            FaultKind::CorruptOcalls { xor: 0x5A },
            FaultKind::CorruptReturns { xor: 0x01 },
            FaultKind::DropEcalls,
        ];
        for kind in kinds {
            for plan in [FaultPlan::immediate(kind), FaultPlan::after(kind, 1), FaultPlan::benign()] {
                let mut copied = FaultyEnclave::new(Echo, plan);
                let mut in_place = FaultyEnclave::new(InPlaceEcho, plan);
                for input in [&b""[..], b"\x00\x0f", b"third call"] {
                    assert_eq!(run(&mut in_place, input), run(&mut copied, input), "{plan:?}");
                }
            }
        }
    }

    #[test]
    fn compromised_enclave_keeps_genuine_measurement() {
        let e = FaultyEnclave::new(Echo, FaultPlan::immediate(FaultKind::MuteOcalls));
        assert_eq!(e.measurement(), [0xAA; 32]);
    }
}
