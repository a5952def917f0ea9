//! The virtual-time cost model of the trusted-execution boundary.
//!
//! The paper's overhead analysis (§5, §6) attributes SplitBFT's cost to
//! (i) enclave transitions (≈ 8,640 cycles each, citing HotCalls, Weisse et al.),
//! (ii) copying data in and out of enclaves, and (iii) added
//! serialization. This module turns those into numbers the host accounting
//! charges and the Figure 3/4 simulator reads back. The defaults are
//! calibrated against the paper's measurements on a 3.7 GHz Xeon E-2288G:
//! signature-heavy ecalls in the hundreds of microseconds, an unbatched
//! Execution ecall total around 340 µs, and a batched Preparation ecall
//! near 0.9 ms per 200-request batch.

/// Virtual-time costs for enclave and protocol operations, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// CPU frequency in GHz, used to convert cycle counts.
    pub cpu_ghz: f64,
    /// Cycles per enclave transition (one ecall = enter + exit, charged
    /// once with this total). Weisse et al. measure ≈ 8,640 cycles.
    pub transition_cycles: u64,
    /// Cost per byte copied across the boundary (in or out).
    pub copy_ns_per_byte: f64,
    /// Cost of serializing/deserializing one byte of message data.
    pub serialize_ns_per_byte: f64,
    /// Creating one signature (the paper uses 256-bit ed25519 via `ring`).
    pub sign_ns: u64,
    /// Verifying one signature.
    pub verify_ns: u64,
    /// Fixed cost of one HMAC-SHA2 computation.
    pub hmac_base_ns: u64,
    /// Per-byte cost of HMAC-SHA2.
    pub hmac_ns_per_byte: f64,
    /// Fixed per-event protocol handling (deserialization, log
    /// insertion, quorum bookkeeping) charged per handled message. The
    /// dominant calibration constant: with ed25519 verification it puts
    /// the Execution compartment's unbatched ecall total near the paper's
    /// 343 µs and the PBFT core near its ~5k op/s unbatched ceiling.
    pub handler_ns: u64,
    /// Admitting one client request into the Preparation enclave:
    /// copy-in, unmarshalling, HMAC verification. Dominates the batched
    /// Preparation ecall (≈ 0.9 ms per 200-request batch in the paper).
    pub request_admission_ns: u64,
    /// Executing one application operation (KVS put/get).
    pub exec_ns_per_op: u64,
    /// SplitBFT Execution-side per-request total: MAC re-check, AEAD
    /// decrypt, execute, encrypt + MAC the reply.
    pub exec_request_ns: u64,
    /// AEAD-decrypting one (small) client request inside Execution.
    pub decrypt_ns: u64,
    /// Sealing and persisting one blockchain block via ocall
    /// (`sgx_tprotected_fs` in the paper) — charged per block of 5
    /// requests in the blockchain application.
    pub block_seal_ns: u64,
    /// One-way network latency between replicas (same-region Azure VMs on
    /// 40 Gb Ethernet).
    pub net_one_way_ns: u64,
    /// Per-byte network serialization cost (bandwidth term).
    pub net_ns_per_byte: f64,
}

impl CostModel {
    /// The default model, calibrated to the paper's testbed (Intel Xeon
    /// E-2288G at 3.7 GHz, SGX SDK 2.16, same-region Azure networking).
    pub fn paper_calibrated() -> Self {
        CostModel {
            cpu_ghz: 3.7,
            transition_cycles: 8_640,
            copy_ns_per_byte: 0.6,
            serialize_ns_per_byte: 0.8,
            sign_ns: 25_000,
            verify_ns: 75_000,
            hmac_base_ns: 2_000,
            hmac_ns_per_byte: 8.0,
            handler_ns: 28_000,
            request_admission_ns: 3_500,
            exec_ns_per_op: 1_000,
            exec_request_ns: 1_800,
            decrypt_ns: 800,
            block_seal_ns: 110_000,
            net_one_way_ns: 60_000,
            net_ns_per_byte: 0.25,
        }
    }

    /// The same model with enclave transitions free — SGX *simulation
    /// mode*, which the paper measures to isolate transition overhead
    /// ("enclave transitions cause 20% of the overhead").
    pub fn simulation_mode() -> Self {
        CostModel { transition_cycles: 0, copy_ns_per_byte: 0.2, ..Self::paper_calibrated() }
    }

    /// Converts a cycle count to nanoseconds at the model's clock.
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        (cycles as f64 / self.cpu_ghz) as u64
    }

    /// The boundary cost of one ecall moving `bytes_in` in and `bytes_out`
    /// out: transition plus copy plus (de)serialization.
    pub fn ecall_boundary_ns(&self, bytes_in: usize, bytes_out: usize) -> u64 {
        let total = (bytes_in + bytes_out) as f64;
        self.cycles_to_ns(self.transition_cycles)
            + (total * self.copy_ns_per_byte) as u64
            + (total * self.serialize_ns_per_byte) as u64
    }

    /// The boundary cost of one ocall carrying `bytes` out of the enclave.
    pub fn ocall_boundary_ns(&self, bytes: usize) -> u64 {
        self.ecall_boundary_ns(bytes, 0)
    }

    /// Cost of HMAC over `len` bytes.
    pub fn hmac_ns(&self, len: usize) -> u64 {
        self.hmac_base_ns + (len as f64 * self.hmac_ns_per_byte) as u64
    }

    /// Network propagation + bandwidth delay for a message of `len` bytes.
    pub fn net_delay_ns(&self, len: usize) -> u64 {
        self.net_one_way_ns + (len as f64 * self.net_ns_per_byte) as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_cost_matches_cited_measurement() {
        let m = CostModel::paper_calibrated();
        // 8,640 cycles at 3.7 GHz is roughly 2.3 µs.
        let ns = m.cycles_to_ns(m.transition_cycles);
        assert!((2_000..2_600).contains(&ns), "got {ns} ns");
    }

    #[test]
    fn simulation_mode_has_free_transitions() {
        let m = CostModel::simulation_mode();
        assert_eq!(m.cycles_to_ns(m.transition_cycles), 0);
        // But copies are still not entirely free.
        assert!(m.ecall_boundary_ns(1_000, 0) > 0);
    }

    #[test]
    fn boundary_cost_scales_with_bytes() {
        let m = CostModel::paper_calibrated();
        let small = m.ecall_boundary_ns(10, 10);
        let large = m.ecall_boundary_ns(20_000, 10);
        assert!(large > small);
        // A 20 KB batch copy costs tens of microseconds, not milliseconds.
        assert!(large < 100_000, "got {large} ns");
    }

    #[test]
    fn hmac_cost_scales_linearly() {
        let m = CostModel::paper_calibrated();
        assert_eq!(m.hmac_ns(0), m.hmac_base_ns);
        assert!(m.hmac_ns(1_000) > m.hmac_ns(10));
    }

    #[test]
    fn signature_costs_are_realistic_for_ed25519() {
        let m = CostModel::paper_calibrated();
        // Verification is slower than signing for ed25519.
        assert!(m.verify_ns > m.sign_ns);
        // Both in the tens of microseconds.
        assert!((10_000..200_000).contains(&m.sign_ns));
        assert!((10_000..200_000).contains(&m.verify_ns));
    }

    #[test]
    fn net_delay_has_latency_floor() {
        let m = CostModel::paper_calibrated();
        assert!(m.net_delay_ns(0) >= m.net_one_way_ns);
        assert!(m.net_delay_ns(1_000_000) > m.net_delay_ns(0));
    }
}
