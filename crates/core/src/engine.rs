//! The synthesis session: one pipeline over shared, lazily-cached
//! artifacts.
//!
//! The paper's flow is a pipeline — structural analysis feeding synthesis,
//! CSC resolution and verification — but free functions like
//! [`crate::synthesize`] and `si_verify::verify_circuit` each re-derive the
//! expensive shared artifacts per call: the [`StructuralContext`] and the
//! explicit [`ReachabilityGraph`] with its state encoding.
//! [`Engine`] owns one specification and computes each artifact **at most
//! once**, on first use, whatever order the pipeline methods are called in:
//!
//! ```text
//!              Engine::new(&stg).cap(..).timeout(..).minimizer(..)
//!                                  │
//!          ┌───────────────────────┼───────────────────────────┐
//!          ▼ (lazy, cached)        ▼ (lazy, cached)            ▼ (lazy, cached)
//!   StructuralContext       ReachabilityGraph + enc     symbolic reachable set
//!          │                        │                          │
//!   analyze / synthesize /   synthesize_state_based /   spec_state_count /
//!   resolve_csc (si-csc's    verify / conformance       exact CSC verdict
//!   EngineResolve)           (si-verify's EngineVerify)
//! ```
//!
//! The legacy free functions remain as one-shot wrappers over a fresh
//! `Engine`, so both spellings stay bit-identical; pipelines that make more
//! than one call should hold an `Engine` (a synth-then-verify run builds
//! the reachability graph once instead of twice — pinned by a build-count
//! test against [`ReachabilityGraph::build_count`]).
//!
//! Speed-independence verification is provided on the same object by the
//! `EngineVerify` extension trait of `si_verify` (the verifier depends on
//! this crate, not the other way around), and CSC resolution by the
//! `EngineResolve` trait of `si_csc`, whose search reads the session's
//! context of the input.

use crate::context::{CscVerdict, StructuralContext, SynthesisError};
use crate::statebased::{synthesize_state_based_on, BaselineError, BaselineFlavor};
use crate::synthesis::{
    synthesize_with_context, Architecture, MinimizeStages, Synthesis, SynthesisOptions,
};
use si_boolean::MinimizerChoice;
use si_petri::{
    Interrupt, ReachError, ReachOptions, ReachSummary, ReachabilityGraph, SymbolicReach,
};
use si_stg::{EncodingError, StateEncoding, Stg, SymbolicAnalysis};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Which reachability backend answers the session's state-space queries.
///
/// The explicit explorer is the oracle and the default; the symbolic BDD
/// backend answers cardinality/membership/coding queries without
/// enumerating states, so it keeps working past the explicit state cap on
/// highly concurrent nets. `Auto` tries the explicit explorer first and
/// falls back to the symbolic backend when the explicit run ends
/// inconclusively (cap, deadline, cancellation, memory).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The explicit interned state graph (the oracle).
    #[default]
    Explicit,
    /// The symbolic BDD reachable set.
    Symbolic,
    /// Explicit first, symbolic on an inconclusive explicit verdict.
    Auto,
}

impl Backend {
    /// Parses the CLI spelling (`explicit`, `symbolic`, `auto`).
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "explicit" => Some(Backend::Explicit),
            "symbolic" => Some(Backend::Symbolic),
            "auto" => Some(Backend::Auto),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Explicit => "explicit",
            Backend::Symbolic => "symbolic",
            Backend::Auto => "auto",
        }
    }
}

/// Summary of the structural analysis (the `analyze()` step of the
/// pipeline): what `sisyn check` reports, as data.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Surviving structural coding conflicts (Def. 11).
    pub conflicts: usize,
    /// Refinement rounds the context ran (Fig. 12).
    pub refinement_rounds: usize,
    /// Size of the SM-cover.
    pub sm_count: usize,
    /// Total cubes over all place cover functions (Table VIII).
    pub place_cover_cubes: usize,
    /// The structural CSC verdict (Theorems 14/15).
    pub csc: CscVerdict,
}

/// A synthesis session over one STG: builder-configured options, lazily
/// cached shared artifacts, and the whole flow as methods.
///
/// # Examples
///
/// Configure once, then run any part of the pipeline; artifacts are shared
/// between the steps:
///
/// ```
/// use si_core::{BaselineFlavor, Engine};
///
/// let stg = si_stg::generators::clatch(3);
/// let engine = Engine::new(&stg).cap(100_000);
///
/// let report = engine.analyze()?;           // structural only, no graph
/// assert_eq!(report.conflicts, 0);
///
/// let syn = engine.synthesize()?;           // structural flow
/// let base = engine.synthesize_state_based(BaselineFlavor::ExcitationExact)
///     .expect("within cap");                // baseline — builds the graph …
/// assert_eq!(syn.results.len(), base.circuit.implementations.len());
///
/// let rg = engine.reachability()?;          // … which is now cached
/// assert_eq!(rg.state_count(), 16);
/// assert_eq!(engine.reach_build_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Engine<'a> {
    stg: &'a Stg,
    options: SynthesisOptions,
    reach: ReachOptions,
    backend: Backend,
    ctx: OnceLock<Result<StructuralContext<'a>, SynthesisError>>,
    rg: OnceLock<Result<ReachabilityGraph, ReachError>>,
    enc: OnceLock<Result<StateEncoding, EncodingError>>,
    sym: OnceLock<Result<SymbolicAnalysis, ReachError>>,
    sym_net: OnceLock<Result<SymbolicReach, ReachError>>,
    rg_builds: AtomicUsize,
    summary: Option<ReachSummary>,
}

impl<'a> Engine<'a> {
    /// The state cap of a session that sets none.
    pub const DEFAULT_CAP: usize = 4_000_000;

    /// A session over `stg` with default options: excitation-function
    /// architecture, full minimization ladder, espresso minimizer, a
    /// [`Engine::DEFAULT_CAP`] state cap and the sequential reachability
    /// engine.
    pub fn new(stg: &'a Stg) -> Self {
        Engine {
            stg,
            options: SynthesisOptions::default(),
            reach: ReachOptions::with_cap(Self::DEFAULT_CAP),
            backend: Backend::Explicit,
            ctx: OnceLock::new(),
            rg: OnceLock::new(),
            enc: OnceLock::new(),
            sym: OnceLock::new(),
            sym_net: OnceLock::new(),
            rg_builds: AtomicUsize::new(0),
            summary: None,
        }
    }

    /// Imports a previously exported exploration summary (see
    /// [`Engine::export_reach_summary`]). Headline state-space queries
    /// ([`Engine::spec_state_count`]) answer from it without building any
    /// reachability graph — the cross-session analogue of the in-session
    /// artifact cache. Methods that need the actual graph (verification,
    /// state-based baselines) still build it on first use.
    pub fn reach_summary(mut self, summary: ReachSummary) -> Self {
        self.summary = Some(summary);
        self
    }

    /// Selects the reachability backend for the state-space queries that
    /// either backend can answer ([`Engine::spec_state_count`]); the
    /// synthesis/verification oracles stay on the explicit graph.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the state cap of every reachability-backed method.
    pub fn cap(mut self, cap: usize) -> Self {
        self.reach.budget.cap = cap;
        self
    }

    /// Sets a wall-clock deadline on every state-space traversal the
    /// session runs: past it, explorations wind down gracefully and
    /// surface as [`ReachError::Interrupted`] (graph builds) or partial
    /// verdicts (verification/conformance via `si-verify`).
    pub fn deadline(mut self, at: std::time::Instant) -> Self {
        self.reach = self.reach.deadline(at);
        self
    }

    /// Sets the deadline `d` from now (see [`Engine::deadline`]); a `d`
    /// too large for an `Instant` means no deadline.
    pub fn timeout(mut self, d: std::time::Duration) -> Self {
        self.reach = self.reach.timeout(d);
        self
    }

    /// Attaches a cooperative cancellation token to every state-space
    /// traversal the session runs; cancelling it winds explorations down
    /// gracefully, like [`Engine::deadline`].
    pub fn cancel(mut self, token: si_petri::CancelToken) -> Self {
        self.reach.budget.cancel = Some(token);
        self
    }

    /// Replaces the whole reachability option set.
    pub fn reach(mut self, reach: ReachOptions) -> Self {
        self.reach = reach;
        self
    }

    /// Selects the two-level minimizer backend.
    pub fn minimizer(mut self, minimizer: MinimizerChoice) -> Self {
        self.options.minimizer = minimizer;
        self
    }

    /// Selects the implementation architecture.
    pub fn architecture(mut self, architecture: Architecture) -> Self {
        self.options.architecture = architecture;
        self
    }

    /// Selects the minimization stages.
    pub fn stages(mut self, stages: MinimizeStages) -> Self {
        self.options.stages = stages;
        self
    }

    /// Replaces the whole synthesis option set.
    pub fn options(mut self, options: SynthesisOptions) -> Self {
        self.options = options;
        self
    }

    /// The specification this session is bound to.
    pub fn stg(&self) -> &'a Stg {
        self.stg
    }

    /// The configured reachability options.
    pub fn reach_options(&self) -> ReachOptions {
        self.reach.clone()
    }

    /// The cached structural context (built on first use).
    ///
    /// # Errors
    ///
    /// The construction error of [`StructuralContext::build`], replayed on
    /// every call once it failed.
    pub fn context(&self) -> Result<&StructuralContext<'a>, SynthesisError> {
        self.ctx
            .get_or_init(|| {
                si_obs::counter_inc("engine.context_builds");
                StructuralContext::build(self.stg)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The cached explicit reachability graph (built on first use under
    /// the configured budget).
    ///
    /// # Errors
    ///
    /// The construction error of [`ReachabilityGraph::build_with`],
    /// replayed on every call once it failed.
    pub fn reachability(&self) -> Result<&ReachabilityGraph, ReachError> {
        self.rg
            .get_or_init(|| {
                si_obs::counter_inc("engine.reach_builds");
                let built = ReachabilityGraph::build_with(self.stg.net(), &self.reach.budget);
                if built.is_ok() {
                    self.rg_builds.fetch_add(1, Ordering::Relaxed);
                }
                built
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The cached encoding computation (built on first use, inconsistency
    /// kept as a value so each caller can map it to its own error type).
    fn encoding_entry(&self) -> Result<&Result<StateEncoding, EncodingError>, ReachError> {
        let rg = self.reachability()?;
        Ok(self.enc.get_or_init(|| {
            let _span = si_obs::span("stg.encode");
            StateEncoding::compute(self.stg, rg)
        }))
    }

    /// The cached state encoding over [`Engine::reachability`].
    ///
    /// # Errors
    ///
    /// Propagates the reachability error.
    ///
    /// # Panics
    ///
    /// Panics when the STG is behaviourally inconsistent (verification
    /// callers only pass synthesizable inputs, which never are; the
    /// state-based baseline reports inconsistency as a value instead).
    pub fn encoding(&self) -> Result<&StateEncoding, ReachError> {
        Ok(self.encoding_entry()?.as_ref().expect("consistent STG"))
    }

    /// The configured backend choice.
    pub fn backend_choice(&self) -> Backend {
        self.backend
    }

    /// The cached symbolic analysis (built on first use under the
    /// session's soft budget limits — the explicit state cap does not
    /// apply to the symbolic backend).
    ///
    /// # Errors
    ///
    /// [`ReachError::NotSafe`] from the symbolic build, or
    /// [`ReachError::Interrupted`] when a deadline/cancellation/memory
    /// limit stopped a symbolic fixpoint — the same tagged inconclusive
    /// verdict the explicit explorer reports, replayed on every call.
    pub fn symbolic(&self) -> Result<&SymbolicAnalysis, ReachError> {
        self.sym
            .get_or_init(|| {
                si_obs::counter_inc("engine.symbolic_builds");
                let sym = SymbolicAnalysis::build_with(self.stg, &self.reach.budget)?;
                uninterrupted(sym.interrupt(), sym)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The cached net-level symbolic reachable set (no signal coding
    /// layer — the cheap artifact behind [`Engine::spec_state_count`];
    /// [`Engine::symbolic`] pays the per-signal closures on top and is
    /// only built when a coding query actually needs them).
    ///
    /// # Errors
    ///
    /// As [`Engine::symbolic`].
    pub fn symbolic_reach(&self) -> Result<&SymbolicReach, ReachError> {
        self.sym_net
            .get_or_init(|| {
                si_obs::counter_inc("engine.symbolic_builds");
                let sym = SymbolicReach::build_with(self.stg.net(), &self.reach.budget)?;
                uninterrupted(sym.interrupt(), sym)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Reachable-state count of the specification, answered by the
    /// configured [`Backend`]: the explicit graph, the symbolic reachable
    /// set, or (`Auto`) the explicit graph with a symbolic fallback when
    /// the explicit run ends inconclusively.
    ///
    /// # Errors
    ///
    /// The selected backend's build error; under `Auto` a conclusive
    /// explicit error (e.g. [`ReachError::NotSafe`]) propagates without
    /// consulting the symbolic backend.
    pub fn spec_state_count(&self) -> Result<u128, ReachError> {
        if let Some(summary) = &self.summary {
            si_obs::counter_inc("engine.summary_hits");
            return Ok(summary.states as u128);
        }
        let symbolic_count = || {
            // The coding-layer analysis subsumes the net-level set; use
            // whichever is already cached before building anything.
            if let Some(Ok(sym)) = self.sym.get() {
                return Ok(sym.state_count());
            }
            Ok(self.symbolic_reach()?.state_count())
        };
        match self.backend {
            Backend::Explicit => Ok(self.reachability()?.state_count() as u128),
            Backend::Symbolic => symbolic_count(),
            Backend::Auto => match self.reachability() {
                Ok(rg) => Ok(rg.state_count() as u128),
                Err(e) if e.is_inconclusive() => symbolic_count(),
                Err(e) => Err(e),
            },
        }
    }

    /// How many times **this session** actually constructed a reachability
    /// graph (0 until a reachability-backed method runs, then 1 forever —
    /// the artifact-cache guarantee; the process-wide analog is
    /// [`ReachabilityGraph::build_count`]).
    pub fn reach_build_count(&self) -> usize {
        self.rg_builds.load(Ordering::Relaxed)
    }

    /// Exports the summary of this session's exploration for reuse by a
    /// later session ([`Engine::reach_summary`]): `Some` once the explicit
    /// graph was built conclusively, `None` otherwise (inconclusive and
    /// failed builds have nothing stable to cache).
    pub fn export_reach_summary(&self) -> Option<ReachSummary> {
        match self.rg.get() {
            Some(Ok(rg)) => Some(ReachSummary::of(rg)),
            _ => None,
        }
    }

    /// Structural analysis: conflicts, refinement effort, SM-cover size
    /// and the CSC verdict — without building any state graph.
    ///
    /// # Errors
    ///
    /// Context precondition failures ([`SynthesisError::Inconsistent`],
    /// [`SynthesisError::NotSmCoverable`]). An unresolved CSC verdict is
    /// **data** here, not an error.
    pub fn analyze(&self) -> Result<Analysis, SynthesisError> {
        let ctx = self.context()?;
        Ok(Analysis {
            conflicts: ctx.conflicts().len(),
            refinement_rounds: ctx.refinement_rounds,
            sm_count: ctx.sm_cover.len(),
            place_cover_cubes: ctx.total_cubes(),
            csc: ctx.csc_verdict(),
        })
    }

    /// The structural synthesis flow (§VIII) under the session options,
    /// over the cached context.
    ///
    /// # Errors
    ///
    /// As [`crate::synthesize`].
    pub fn synthesize(&self) -> Result<Synthesis, SynthesisError> {
        self.synthesize_with(&self.options)
    }

    /// Like [`Engine::synthesize`] with one-off options (the cached
    /// context is shared across architecture/stage sweeps).
    ///
    /// # Errors
    ///
    /// As [`crate::synthesize`].
    pub fn synthesize_with(&self, options: &SynthesisOptions) -> Result<Synthesis, SynthesisError> {
        synthesize_with_context(self.context()?, options)
    }

    /// The state-based baseline (§IX-B/C) over the cached reachability
    /// graph, with the session's minimizer backend.
    ///
    /// # Errors
    ///
    /// As [`crate::synthesize_state_based`]; a cap overflow surfaces as
    /// [`BaselineError::StateExplosion`].
    pub fn synthesize_state_based(
        &self,
        flavor: BaselineFlavor,
    ) -> Result<crate::statebased::BaselineSynthesis, BaselineError> {
        let rg = self.reachability().map_err(BaselineError::StateExplosion)?;
        let enc = self
            .encoding_entry()
            .map_err(BaselineError::StateExplosion)?
            .as_ref()
            .map_err(|e| BaselineError::Inconsistent(e.clone()))?;
        synthesize_state_based_on(self.stg, flavor, rg, enc, self.options.minimizer)
    }
}

/// A symbolic build as a session artifact: complete, or the
/// [`ReachError::Interrupted`] its budget interrupt maps to.
fn uninterrupted<T>(interrupt: Option<Interrupt>, built: T) -> Result<T, ReachError> {
    match interrupt {
        Some(i) => Err(ReachError::Interrupted {
            reason: i.reason,
            states_explored: i.states_explored,
            elapsed_ms: i.elapsed.as_millis() as u64,
        }),
        None => Ok(built),
    }
}
