//! Structural synthesis of speed-independent circuits.
//!
//! The primary contribution of the reproduced paper: a complete synthesis
//! flow from free-choice (or SM-coverable) signal transition graphs to
//! hazard-free speed-independent circuits, with **every step performed on
//! the structure of the STG** — no reachability graph is ever built:
//!
//! 1. consistency (Fig. 9, via `si-stg`);
//! 2. marked-region cover cubes ([`PlaceCubes`], Lemma 10);
//! 3. signal-region approximations + SM-cover refinement
//!    ([`StructuralContext`], §VI–§VII, Theorems 14/15);
//! 4. implementability checks ([`checks`], eq. 2 + Property 16);
//! 5. cover synthesis and minimization ([`synthesize`], §VIII + Appendix);
//! 6. realization in the three architectures of Fig. 3 ([`circuit`]).
//!
//! A conventional state-based flow ([`statebased`]) is included as the
//! baseline the paper compares against (SIS / ASSASSIN / SYN / FORCAGE
//! stand-in).
//!
//! The whole flow is exposed as methods on one session object,
//! [`Engine`], which lazily caches the shared artifacts (structural
//! context, reachability graph, concurrency relation); the free functions
//! below are one-shot wrappers over it.
//!
//! # Examples
//!
//! ```
//! use si_core::{Engine, SynthesisOptions};
//!
//! let stg = si_stg::generators::clatch(2);
//! let syn = Engine::new(&stg).synthesize()?;
//! assert_eq!(syn.results.len(), 1); // one output: the C-element
//!
//! // Equivalent one-shot spelling:
//! let same = si_core::synthesize(&stg, &SynthesisOptions::default())?;
//! assert_eq!(syn.circuit, same.circuit);
//! # Ok::<(), si_core::SynthesisError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
pub mod checks;
pub mod circuit;
pub mod context;
pub mod csc;
pub mod cubes;
pub mod engine;
pub mod netlist;
pub mod statebased;
pub mod synthesis;
pub mod techmap;

pub use artifact::{clusters_from_wire, clusters_to_wire, signal_fingerprint};
pub use circuit::{Circuit, ImplKind, SignalImplementation};
pub use context::{CodingConflict, CscVerdict, SignalCovers, StructuralContext, SynthesisError};
pub use csc::{apply_insertion, no_conflict_resolution, sentinel_plan, InsertionPlan};
pub use cubes::PlaceCubes;
pub use engine::{Analysis, Backend, Engine};
pub use netlist::to_verilog;
pub use statebased::{
    synthesize_state_based, synthesize_state_based_on, synthesize_state_based_with, BaselineError,
    BaselineFlavor, BaselineSynthesis,
};
pub use synthesis::{
    derive_clusters, realize_clusters, revalidate_clusters, synthesize, synthesize_signal,
    synthesize_with_context, Architecture, MinimizeStages, SignalClusters, SignalResult, Synthesis,
    SynthesisOptions,
};
pub use techmap::{map_circuit, CellUse, MappedCircuit};
