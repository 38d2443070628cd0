//! Verification methods on the synthesis session.
//!
//! `si_core::Engine` owns the cached reachability artifacts but cannot
//! depend on this crate (the dependency points the other way), so the
//! verification half of the pipeline arrives as an extension trait:
//! import [`EngineVerify`] (it is in `sisyn::prelude`) and the whole flow
//! reads as methods on one session object.

use crate::check::{verify_circuit_on_opts, VerificationReport};
use crate::conform::{engine_conformance, ConformanceReport};
use crate::sim::{walks_from, WalkOutcome};
use si_boolean::Bits;
use si_core::{Circuit, Engine};
use si_petri::ReachError;

/// Speed-independence verification over an [`Engine`]'s cached artifacts.
///
/// Every method reuses the session's reachability graph and encoding: a
/// synthesize-verify-conformance-walks pipeline explores the
/// specification's state space **exactly once** (pinned by a build-count
/// test).
///
/// # Examples
///
/// ```
/// use si_core::Engine;
/// use si_verify::EngineVerify;
///
/// let stg = si_stg::generators::clatch(2);
/// let engine = Engine::new(&stg);
/// let syn = engine.synthesize()?;
/// assert!(engine.verify(&syn.circuit)?.is_ok());
/// assert!(engine.check_conformance(&syn.circuit)?.is_ok());
/// assert_eq!(engine.reach_build_count(), 1); // graph shared by both checks
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait EngineVerify {
    /// Functional + monotonic-cover verification
    /// ([`crate::verify_circuit_with`] semantics) over the cached graph.
    /// The violation search runs under the session's soft budget
    /// (deadline / cancellation — an interrupted search returns a partial
    /// report tagged [`VerificationReport::interrupted`]).
    ///
    /// # Errors
    ///
    /// Any [`ReachError`] from building the session's reachability graph
    /// — including [`ReachError::Interrupted`] when the budget ran out
    /// mid-build.
    fn verify(&self, circuit: &Circuit) -> Result<VerificationReport, ReachError>;

    /// Product-automaton conformance checking
    /// ([`crate::check_conformance_with`] semantics). The session's
    /// budget bounds the product exploration (exhausting it returns a
    /// partial report tagged [`ConformanceReport::interrupted`], not an
    /// error); the probe graph falls back to the [`Engine::DEFAULT_CAP`] headroom (one-shot,
    /// outside the session cache) when the session cap is too small for
    /// the specification, so a small cap still allows partial product
    /// exploration.
    ///
    /// # Errors
    ///
    /// [`ReachError::NotSafe`] on a broken specification.
    fn check_conformance(&self, circuit: &Circuit) -> Result<ConformanceReport, ReachError>;

    /// Random walks ([`crate::random_walks`] semantics) from the initial
    /// code the conformance probe reads, so they build nothing of their
    /// own.
    ///
    /// # Errors
    ///
    /// The reachability error that left the initial code unknown (which
    /// [`EngineVerify::check_conformance`] reports as an inconclusive
    /// probe instead).
    fn random_walks(
        &self,
        circuit: &Circuit,
        walks: usize,
        steps: usize,
        seed: u64,
    ) -> Result<WalkOutcome, ReachError>;
}

impl EngineVerify for Engine<'_> {
    fn verify(&self, circuit: &Circuit) -> Result<VerificationReport, ReachError> {
        let rg = self.reachability()?;
        let enc = self.encoding()?;
        Ok(verify_circuit_on_opts(
            self.stg(),
            circuit,
            rg,
            enc,
            &self.reach_options(),
        ))
    }

    fn check_conformance(&self, circuit: &Circuit) -> Result<ConformanceReport, ReachError> {
        engine_conformance(self, circuit, self.reach_options())
    }

    fn random_walks(
        &self,
        circuit: &Circuit,
        walks: usize,
        steps: usize,
        seed: u64,
    ) -> Result<WalkOutcome, ReachError> {
        let code0 = initial_code(self)?;
        let _span = si_obs::span("verify.walks");
        Ok(walks_from(self.stg(), circuit, code0, walks, steps, seed))
    }
}

/// The specification's initial wire values: the initial state's code in
/// the session's cached encoding. When the session cap is too small for
/// the specification, the code comes from a **one-shot** graph at the
/// [`Engine::DEFAULT_CAP`] headroom instead, outside the session cache, so
/// a small cap still lets the conformance product and the walks start.
pub(crate) fn initial_code(engine: &Engine<'_>) -> Result<Bits, ReachError> {
    let mut probe = engine.reach_options();
    match engine.reachability() {
        Ok(rg) => {
            let s0 = rg.state_of(&engine.stg().net().initial_marking());
            Ok(engine.encoding()?.code(s0.expect("initial state")).clone())
        }
        Err(ReachError::StateCapExceeded { .. }) if probe.cap() < Engine::DEFAULT_CAP => {
            probe.budget.cap = Engine::DEFAULT_CAP;
            initial_code(&Engine::new(engine.stg()).reach(probe))
        }
        Err(e) => Err(e),
    }
}
