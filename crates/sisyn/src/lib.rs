//! `sisyn` — structural synthesis of speed-independent circuits.
//!
//! Umbrella crate of the workspace reproducing Pastor, Cortadella,
//! Kondratyev and Roig, *“Structural Methods for the Synthesis of
//! Speed-Independent Circuits”* (IEEE TCAD 17(11), 1998; EDAC-ETC-EuroASIC
//! 1996). It re-exports the layered crates:
//!
//! * [`boolean`] — cube/cover algebra and two-level minimization;
//! * [`petri`] — Petri-net kernel, reachability, SM-covers, concurrency;
//! * [`stg`] — signal transition graphs, `.g` format, consistency,
//!   ground-truth oracles, benchmarks and generators;
//! * [`core`] — the structural synthesis flow (the paper's contribution)
//!   plus the state-based baseline and technology mapping;
//! * [`csc`] — the conflict-core CSC resolution subsystem (state-signal
//!   insertion by a parallel candidate search around the conflict
//!   cores);
//! * [`proto`] — the CFSM channel-protocol front end (`sisyn deadlock`):
//!   parse or generate systems of communicating FSMs and detect global
//!   deadlocks, dangling sends and channel overflows on the shared
//!   state-space engine, with replayable action-sequence witnesses;
//! * [`verify`] — speed-independence verification;
//! * [`serve`] — the persistent synthesis service (`sisyn serve`): a
//!   socket server with a content-addressed artifact store, so repeated
//!   and incrementally edited specs reuse cached reachability summaries
//!   and per-signal covers.
//!
//! # Examples
//!
//! The pipeline API: one [`Engine`](crate::core::Engine) session per STG,
//! shared artifacts, the whole flow as methods:
//!
//! ```
//! use sisyn::prelude::*;
//!
//! // Parse an STG, synthesize it structurally, verify the result — the
//! // reachability graph behind `verify` is built once and cached.
//! let stg = sisyn::stg::generators::clatch(3);
//! let engine = Engine::new(&stg);
//! let syn = engine.synthesize()?;
//! assert!(engine.verify(&syn.circuit)?.is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use si_boolean as boolean;
pub use si_core as core;
pub use si_csc as csc;
pub use si_petri as petri;
pub use si_proto as proto;
pub use si_serve as serve;
pub use si_stg as stg;
pub use si_verify as verify;

/// The most common imports in one place.
pub mod prelude {
    pub use si_boolean::{Bits, Cover, Cube, Minimizer, MinimizerChoice};
    pub use si_core::{
        map_circuit, synthesize, synthesize_state_based, to_verilog, Analysis, Architecture,
        Backend, BaselineFlavor, Circuit, CscVerdict, Engine, ImplKind, MinimizeStages,
        StructuralContext, Synthesis, SynthesisOptions,
    };
    pub use si_csc::{
        CscOptions, EngineResolve, InsertionPlan, ResolveOutcome, ResolveStats, Strategy,
    };
    pub use si_petri::{
        check_live_safe_fc, Budget, CancelToken, Interrupt, InterruptReason, PetriNet, ReachError,
        ReachOptions, ReachabilityGraph,
    };
    pub use si_proto::{
        check_deadlock, check_deadlock_with, parse_proto, write_proto, DeadlockReport, ProtoSpace,
        ProtoSystem, ProtoViolation,
    };
    pub use si_stg::{parse_g, stg_to_dot, write_g, SignalKind, Stg, StgAnalysis};
    pub use si_verify::{
        check_conformance, check_conformance_with, random_walks, record_walk, verify_circuit,
        verify_circuit_with, ConformanceFailure, ConformanceReport, EngineVerify,
        VerificationReport, Violation,
    };
}
