//! Structural CSC resolution by state-signal insertion — the subsystem
//! behind `sisyn resolve`.
//!
//! When the structural analysis cannot establish complete state coding
//! (§VI of the paper: "by adding state signals, the covers can always be
//! reduced to nonintersecting" — the procedure itself is deferred to the
//! companion paper \[27\]), synthesis rejects the STG. This crate
//! implements the missing piece as a scalable search, built on three
//! pillars:
//!
//! 1. **Conflict cores** ([`conflict_cores`]): the structural obstructions
//!    — preset places of synthesized transitions whose ER covers the
//!    refinement rounds cannot separate from a witness place (Theorem 14)
//!    — extracted from the [`StructuralContext`] of the input. Insertion
//!    candidates are generated *around* the cores, nearest first, instead
//!    of enumerating all transition pairs blindly ([`targeted_candidates`]).
//! 2. **Incremental re-analysis**
//!    ([`StructuralContext::build_incremental`], in `si-core`): each
//!    candidate's structural context is replayed from the input's recorded
//!    refinement trace, recomputing only the covers the insertion touched
//!    — bit-identical to a full rebuild (prop-tested) without paying for
//!    one per candidate (pinned by [`StructuralContext::build_count`]).
//! 3. **Parallel candidate evaluation** ([`resolve`]): surviving
//!    candidates are scored concurrently (on the workspace pool,
//!    `si_fault::par_map`), ranked by a cost model (estimated literal delta
//!    plus a concurrency-reduction penalty), and accepted through the
//!    behavioural oracle under a [`Strategy`] — greedy first-fit in core
//!    proximity order, or beam search over the best-ranked survivors.
//!
//! The pre-subsystem blind search is kept verbatim as
//! [`resolve_csc_blind`], the equivalence oracle and bench baseline (the
//! same pattern as the `_naive` engines of `si-petri`).
//!
//! # Examples
//!
//! ```
//! use si_csc::EngineResolve;
//!
//! let raw = si_stg::benchmarks::vme_read_raw();
//! let engine = si_core::Engine::new(&raw).cap(100_000);
//! let (fixed, _plan) = engine.resolve_csc(50_000).expect("resolvable");
//! assert_eq!(fixed.signal_count(), raw.signal_count() + 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cores;
mod engine_ext;
mod search;

pub use cores::{conflict_cores, targeted_candidate_tiers, targeted_candidates, ConflictCore};
pub use engine_ext::EngineResolve;
pub use search::{
    resolve, resolve_csc, resolve_csc_blind, resolve_csc_with, CscOptions, Resolution,
    ResolveOutcome, ResolveStats, Strategy,
};

// The types the subsystem's API is phrased in.
pub use si_core::StructuralContext;
pub use si_stg::{apply_insertion, apply_insertion_mapped, InsertionMap, InsertionPlan};
