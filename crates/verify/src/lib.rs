//! Speed-independence verification of synthesized circuits.
//!
//! This crate plays the role of the BDD model checker of reference \[32\] in the
//! paper's flow: every circuit produced by the structural synthesis is
//! independently verified against its STG specification on the explicit
//! state space —
//!
//! * [`verify_circuit`] / [`verify_circuit_with`]: functional correctness
//!   at every reachable marking plus Property-1 monotonicity of every
//!   set/reset network;
//! * [`check_conformance`]: exhaustive product-automaton exploration under
//!   the unbounded gate delay model, detecting unexpected outputs, disabled
//!   (hazardous) outputs and starved outputs;
//! * [`random_walks`]: long random schedules of the composed system,
//!   from the initial code of the consistent encoding;
//! * [`EngineVerify`]: all three as methods on the `si_core::Engine`
//!   session, sharing its cached reachability graph and encoding.
//!
//! The two exhaustive checks are [`si_petri::space::StateSpace`]s driven
//! by the workspace's generic explorer, which also builds the
//! reachability graph both read. Every failing report carries a
//! firing-sequence counterexample ([`VerificationReport::trace`],
//! [`ConformanceReport::trace`]).
//!
//! # Examples
//!
//! The pipeline spelling — synthesize, verify and conformance-check over
//! one session, building the reachability graph once:
//!
//! ```
//! use si_core::Engine;
//! use si_verify::EngineVerify;
//!
//! let stg = si_stg::generators::clatch(2);
//! let engine = Engine::new(&stg);
//! let syn = engine.synthesize()?;
//! assert!(engine.verify(&syn.circuit)?.is_ok());
//! assert!(engine.check_conformance(&syn.circuit)?.is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The one-shot free functions ([`verify_circuit`], [`check_conformance`])
//! remain as thin wrappers for single calls.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod check;
mod conform;
mod engine_ext;
mod sim;

pub use check::{verify_circuit, verify_circuit_with, VerificationReport, Violation};
pub use conform::{
    check_conformance, check_conformance_with, ConformanceFailure, ConformanceReport,
};
pub use engine_ext::EngineVerify;
pub use sim::{random_walks, record_walk, WalkOutcome};
