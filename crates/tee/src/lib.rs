//! A simulated trusted-execution substrate standing in for Intel SGX.
//!
//! The paper runs each compartment in an SGX enclave built with the
//! Teaclave SDK. This crate reproduces the *architecture* of that stack in
//! software so the rest of the system is written exactly as if it targeted
//! real enclaves:
//!
//! - [`enclave`] — the [`enclave::Enclave`] trait: code loaded
//!   into an enclave, entered only through *ecalls* and talking to the
//!   outside world only through *ocalls*. Enclaves are single-threaded, as
//!   in the paper ("we only allow a single thread to execute in each
//!   enclave").
//! - [`host`] — [`host::EnclaveHost`]: the untrusted side of
//!   the boundary. It serializes every crossing, charges the cost model,
//!   accounts copied bytes and EPC usage, and exposes transition
//!   statistics (the data behind the paper's Figure 4).
//! - [`cost`] — [`cost::CostModel`]: virtual-time costs of
//!   transitions (≈ 8,640 cycles each, after Weisse et al. (HotCalls)), byte
//!   copies, cryptographic operations and request execution. Calibrated
//!   against the paper's measurements; used by the enclave hosts'
//!   accounting and the Figure 3/4 simulator.
//! - [`seal`] — SGX-style sealing: encrypt enclave secrets under a key
//!   derived from the platform and the enclave *measurement*, so only the
//!   same enclave code on the same platform can unseal.
//! - [`attest`] — simulated remote attestation: quotes over a measurement
//!   and report data, verified against the (simulated) platform
//!   certification authority. Clients use this to authenticate Execution
//!   enclaves before installing session keys.
//! - [`fault`] — fault-injection wrappers that make an enclave crash, go
//!   mute, or corrupt its outputs, used by the robustness experiments
//!   (paper Table 1).
//!
//! # Example
//!
//! ```
//! use splitbft_tee::enclave::{Enclave, OcallSink};
//! use splitbft_tee::host::{EnclaveHost, ExecMode};
//! use splitbft_tee::cost::CostModel;
//!
//! struct Echo;
//! impl Enclave for Echo {
//!     fn measurement(&self) -> [u8; 32] { [0xEC; 32] }
//!     fn handle_ecall(&mut self, _id: u32, input: &[u8], env: &mut dyn OcallSink) -> Vec<u8> {
//!         env.ocall(7, input);
//!         input.to_vec()
//!     }
//! }
//!
//! let mut host = EnclaveHost::new(Echo, ExecMode::Hardware, CostModel::paper_calibrated());
//! let reply = host.ecall(1, b"ping").expect("enclave is healthy");
//! assert_eq!(reply.output, b"ping");
//! assert_eq!(reply.ocalls.len(), 1);
//! assert_eq!(host.stats().ecalls, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod cost;
pub mod enclave;
pub mod fault;
pub mod host;
pub mod seal;

pub use attest::{AttestationError, PlatformAuthority, Quote};
pub use cost::CostModel;
pub use enclave::{Enclave, EnclaveError, OcallQueue, OcallSink};
pub use fault::{FaultKind, FaultPlan, FaultyEnclave};
pub use host::{EcallReply, EnclaveHost, ExecMode, TransitionStats};
pub use seal::{seal_data, unseal_data, SealError, SealingIdentity};
