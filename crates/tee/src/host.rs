//! The untrusted side of the enclave boundary.
//!
//! An [`EnclaveHost`] owns one enclave exclusively (reproducing the
//! single-threaded enclave configuration of the paper), funnels every entry
//! through [`EnclaveHost::ecall`], charges the [`CostModel`] for the
//! crossing, and keeps [`TransitionStats`] — the raw data behind the
//! paper's Figure 4 and its "ecalls sum up to 841 µs" analysis.

use crate::cost::CostModel;
use crate::enclave::{Enclave, EnclaveError, OcallQueue};

/// Whether the (simulated) enclave pays hardware transition costs.
///
/// Mirrors the paper's evaluation, which runs SGX both in hardware mode and
/// in *simulation mode* to isolate the cost of enclave transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Full cost accounting: transitions, copies, serialization.
    Hardware,
    /// Free transitions (SGX simulation mode); copies still charged at a
    /// reduced rate.
    Simulation,
}

/// Aggregate statistics of a host's boundary crossings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionStats {
    /// Number of ecalls served.
    pub ecalls: u64,
    /// Number of ocalls posted by the enclave.
    pub ocalls: u64,
    /// Bytes copied into the enclave.
    pub bytes_in: u64,
    /// Bytes copied out of the enclave (returns + ocalls).
    pub bytes_out: u64,
    /// Total virtual boundary time charged, in nanoseconds.
    pub boundary_ns: u64,
    /// Peak observed enclave memory usage (EPC pressure), in bytes.
    pub peak_memory: u64,
}

/// The result of one successful ecall.
#[derive(Debug)]
pub struct EcallReply<'a> {
    /// The enclave's return value, copied out.
    pub output: Vec<u8>,
    /// Ocalls the enclave posted during the call, in order. The queue is
    /// the host's and is overwritten by its next ecall.
    pub ocalls: &'a OcallQueue,
    /// Virtual boundary cost of this call (transition + copies), in
    /// nanoseconds. Handler compute time is charged separately by the
    /// simulator.
    pub boundary_ns: u64,
}

/// Owns one enclave and mediates all crossings into it.
#[derive(Debug)]
pub struct EnclaveHost<E> {
    enclave: E,
    mode: ExecMode,
    cost: CostModel,
    stats: TransitionStats,
    crashed: bool,
    /// The ocall queue every ecall posts into, reused across ecalls.
    ocalls: OcallQueue,
}

impl<E: Enclave> EnclaveHost<E> {
    /// Loads `enclave` and prepares the boundary with the given mode and
    /// cost model.
    pub fn new(enclave: E, mode: ExecMode, cost: CostModel) -> Self {
        let cost = match mode {
            ExecMode::Hardware => cost,
            ExecMode::Simulation => CostModel {
                transition_cycles: 0,
                copy_ns_per_byte: cost.copy_ns_per_byte * 0.3,
                ..cost
            },
        };
        EnclaveHost {
            enclave,
            mode,
            cost,
            stats: TransitionStats::default(),
            crashed: false,
            ocalls: OcallQueue::new(),
        }
    }

    /// The execution mode the host was created with.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// This enclave's measurement.
    pub fn measurement(&self) -> [u8; 32] {
        self.enclave.measurement()
    }

    /// Enters the enclave.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::Crashed`] if the enclave was crashed by fault
    /// injection (see [`EnclaveHost::inject_crash`]); a crashed enclave
    /// stays unavailable until [`EnclaveHost::recover`].
    pub fn ecall(&mut self, id: u32, input: &[u8]) -> Result<EcallReply<'_>, EnclaveError> {
        if self.crashed {
            return Err(EnclaveError::Crashed);
        }
        self.ocalls.clear();
        let output = self.enclave.handle_ecall(id, input, &mut self.ocalls);

        let mut boundary_ns = self.cost.ecall_boundary_ns(input.len(), output.len());
        for (_, data) in self.ocalls.iter() {
            boundary_ns += self.cost.ocall_boundary_ns(data.len());
        }

        self.stats.ecalls += 1;
        self.stats.ocalls += self.ocalls.len() as u64;
        self.stats.bytes_in += input.len() as u64;
        self.stats.bytes_out += (output.len() + self.ocalls.payload_bytes()) as u64;
        self.stats.boundary_ns += boundary_ns;
        self.stats.peak_memory = self.stats.peak_memory.max(self.enclave.memory_usage() as u64);

        Ok(EcallReply { output, ocalls: &self.ocalls, boundary_ns })
    }

    /// Crash-faults the enclave: subsequent ecalls fail until
    /// [`EnclaveHost::recover`]. Models the paper's "enclave is subject to
    /// sudden crashes triggered due to a compromised environment".
    pub fn inject_crash(&mut self) {
        self.crashed = true;
    }

    /// `true` if the enclave is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Reboots the enclave *logic* with a fresh instance (the enclave
    /// recovery path of the paper's §4 discussion; persistent secrets are
    /// recovered separately through sealing).
    pub fn recover(&mut self, fresh: E) {
        self.enclave = fresh;
        self.crashed = false;
    }

    /// Boundary statistics accumulated so far.
    pub fn stats(&self) -> TransitionStats {
        self.stats
    }

    /// Resets the statistics (used between measurement windows).
    pub fn reset_stats(&mut self) {
        self.stats = TransitionStats::default();
    }

    /// Shared access to the enclave for *read-only* inspection in tests
    /// and invariant checks. Production code must go through
    /// [`EnclaveHost::ecall`]; the model checker uses this to read enclave
    /// state when checking safety invariants.
    pub fn enclave(&self) -> &E {
        &self.enclave
    }

    /// Mutable access to the enclave, for fault injection and test
    /// setup only. Production traffic must go through
    /// [`EnclaveHost::ecall`] — mutating live enclave state from the
    /// "outside" would violate the trust boundary the simulation models.
    pub fn enclave_mut(&mut self) -> &mut E {
        &mut self.enclave
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::OcallSink;

    struct Echo {
        mem: usize,
    }
    impl Enclave for Echo {
        fn measurement(&self) -> [u8; 32] {
            [0xEC; 32]
        }
        fn handle_ecall(&mut self, id: u32, input: &[u8], env: &mut dyn OcallSink) -> Vec<u8> {
            if id == 9 {
                env.ocall(1, b"side-effect");
            }
            self.mem += input.len();
            input.to_vec()
        }
        fn memory_usage(&self) -> usize {
            self.mem
        }
    }

    fn host(mode: ExecMode) -> EnclaveHost<Echo> {
        EnclaveHost::new(Echo { mem: 0 }, mode, CostModel::paper_calibrated())
    }

    #[test]
    fn ecall_returns_output_and_ocalls() {
        let mut h = host(ExecMode::Hardware);
        let r = h.ecall(9, b"data").unwrap();
        assert_eq!(r.output, b"data");
        assert_eq!(r.ocalls.iter().collect::<Vec<_>>(), [(1, &b"side-effect"[..])]);
        assert!(r.boundary_ns > 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = host(ExecMode::Hardware);
        h.ecall(1, b"abc").unwrap();
        h.ecall(9, b"defg").unwrap();
        let s = h.stats();
        assert_eq!(s.ecalls, 2);
        assert_eq!(s.ocalls, 1);
        assert_eq!(s.bytes_in, 7);
        assert_eq!(s.bytes_out, 7 + "side-effect".len() as u64);
        assert!(s.boundary_ns > 0);
        assert_eq!(s.peak_memory, 7);

        h.reset_stats();
        assert_eq!(h.stats(), TransitionStats::default());
    }

    #[test]
    fn simulation_mode_is_cheaper_than_hardware() {
        let mut hw = host(ExecMode::Hardware);
        let mut sim = host(ExecMode::Simulation);
        let payload = vec![0u8; 1024];
        let hw_ns = hw.ecall(1, &payload).unwrap().boundary_ns;
        let sim_ns = sim.ecall(1, &payload).unwrap().boundary_ns;
        assert!(sim_ns < hw_ns, "sim {sim_ns} vs hw {hw_ns}");
    }

    #[test]
    fn crash_blocks_ecalls_until_recovery() {
        let mut h = host(ExecMode::Hardware);
        h.ecall(1, b"ok").unwrap();
        h.inject_crash();
        assert!(h.is_crashed());
        assert_eq!(h.ecall(1, b"x").err(), Some(EnclaveError::Crashed));
        h.recover(Echo { mem: 0 });
        assert!(h.ecall(1, b"back").is_ok());
        // Fresh instance: memory was reset.
        assert_eq!(h.enclave().memory_usage(), 4);
    }

    #[test]
    fn measurement_passthrough() {
        let h = host(ExecMode::Hardware);
        assert_eq!(h.measurement(), [0xEC; 32]);
    }
}
