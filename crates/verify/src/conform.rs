//! Product-automaton conformance checking under the unbounded gate delay
//! model (§III-B hazard-freedom, checked behaviourally).
//!
//! The circuit (atomic networks + latch per signal) is composed with the
//! STG acting as the environment. A product state is a pair
//! `(marking, wire values)`; the exploration is exhaustive up to a cap:
//!
//! * **input** transitions fire whenever the STG enables them;
//! * an **output** is *excited* when its implementation's next value
//!   differs from its current wire value; firing it must correspond to an
//!   enabled STG transition of that signal — otherwise the circuit produces
//!   an **unexpected output** (conformance failure);
//! * if some other firing removes the excitation of an output, the circuit
//!   has a **disabled output** — a potential glitch, i.e. a hazard;
//! * if the STG can proceed with an output the circuit never excites, the
//!   implementation has a **liveness failure**.
//!
//! For speed-independent circuits the exploration terminates with no
//! failures; this is the behavioural mirror of the paper's claim that
//! correct + monotonic covers yield SI implementations.
//!
//! The product is defined as a [`si_petri::space::StateSpace`] — packed
//! states are `marking words ‖ wire-value words`, successors the product
//! firings above — and driven by the workspace's generic explorers, so
//! conformance gets sharded parallel exploration (`reach.shards > 1`),
//! reachability-identical cap semantics and a firing-sequence
//! counterexample ([`ConformanceReport::trace`]) from the same machinery
//! as every other traversal.

use crate::engine_ext::initial_code;
use si_boolean::Bits;
use si_core::{Circuit, Engine};
use si_petri::space::{explore_with, ExploreError, ExploreOptions, SpaceVisitor, StateSpace};
use si_petri::{FiringView, Interrupt, InterruptReason, ReachError, TransId};
use si_stg::{SignalId, SignalKind, Stg};

/// A conformance failure discovered during product exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConformanceFailure {
    /// An excited output has no matching enabled STG transition.
    UnexpectedOutput {
        /// The offending signal.
        signal: SignalId,
        /// Wire values at the failure state.
        code: Bits,
    },
    /// Firing `fired` removed the excitation of `disabled` — a hazard.
    DisabledOutput {
        /// The transition whose firing disabled the output.
        fired: TransId,
        /// The output signal that lost its excitation.
        disabled: SignalId,
    },
    /// The STG expects an output the circuit never produces.
    LivenessFailure {
        /// The starved transition.
        transition: TransId,
    },
}

/// Result of [`check_conformance`].
#[derive(Clone, Debug, Default)]
pub struct ConformanceReport {
    /// All discovered failures (empty = conformant and hazard-free).
    pub failures: Vec<ConformanceFailure>,
    /// Number of product states explored.
    pub states_explored: usize,
    /// Counterexample: a firing sequence from the initial product state
    /// to the state at which `failures[0]` was observed (`None` when the
    /// circuit conforms).
    pub trace: Option<Vec<TransId>>,
    /// `Some` when the product exploration was stopped early by the
    /// budget (state cap, wall-clock deadline, cancellation): the verdict
    /// is **partial** — every reported failure is real, but a clean
    /// report only means "no failure in the `states_explored` product
    /// states explored".
    pub interrupted: Option<Interrupt>,
}

impl ConformanceReport {
    /// `true` when no failure was found. For an interrupted exploration
    /// this only covers the explored prefix — gate on
    /// [`ConformanceReport::is_conclusive`] for a definitive verdict.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// `true` when the exploration ran to completion (the verdict covers
    /// the whole product, not just an explored prefix).
    pub fn is_conclusive(&self) -> bool {
        self.interrupted.is_none()
    }
}

/// Collecting more failures than this is pointless — the verdict is long
/// settled; the explorers stop once the budget is spent.
const ENOUGH_EVIDENCE: usize = 8;

/// Exhaustively explores the circuit × environment product up to `cap`
/// states.
///
/// # Errors
///
/// See [`check_conformance_with`].
pub fn check_conformance(
    stg: &Stg,
    circuit: &Circuit,
    cap: usize,
) -> Result<ConformanceReport, ReachError> {
    check_conformance_with(stg, circuit, si_petri::ReachOptions::with_cap(cap))
}

/// Like [`check_conformance`] but with explicit [`si_petri::ReachOptions`]:
/// the budget (state cap, deadline, cancellation) bounds the product
/// exploration and `reach.shards > 1` runs **both** the specification's
/// reachability probe (which seeds the initial wire encoding) and the
/// product exploration itself on the sharded multi-threaded explorer. The
/// verdict is identical at any shard count.
///
/// Exhausting the budget is **not** an error: the report comes back
/// partial, tagged [`ConformanceReport::interrupted`]. The probe keeps at
/// least the [`Engine::DEFAULT_CAP`] headroom so a small product cap still
/// allows partial product exploration; only past that does the report turn
/// inconclusive with zero product states. This is a one-shot wrapper over
/// [`Engine`]; pipelines that also verify should hold an `Engine`
/// and call [`crate::EngineVerify::check_conformance`] so the probe graph
/// is shared.
///
/// # Errors
///
/// [`ReachError::NotSafe`] when the specification's net is unsafe (a
/// broken specification, not an inconclusive exploration), and
/// [`ReachError::WorkerPanicked`] when a sharded explorer worker panicked.
pub fn check_conformance_with(
    stg: &Stg,
    circuit: &Circuit,
    reach: si_petri::ReachOptions,
) -> Result<ConformanceReport, ReachError> {
    engine_conformance(&Engine::new(stg).reach(reach.clone()), circuit, reach)
}

/// A zero-progress inconclusive report: the specification probe itself ran
/// out of budget, so not a single product state was explored.
fn probe_exhausted(reason: InterruptReason) -> ConformanceReport {
    ConformanceReport {
        failures: Vec::new(),
        states_explored: 0,
        trace: None,
        interrupted: Some(Interrupt {
            reason,
            states_explored: 0,
            elapsed: std::time::Duration::ZERO,
        }),
    }
}

/// Conformance over an [`Engine`]'s cached probe graph: the engine
/// supplies the initial wire values ([`initial_code`], with its headroom
/// fallback under a small session cap — the same contract as
/// [`check_conformance_with`]); `reach`'s budget bounds the product
/// exploration itself and `reach.shards` parallelizes it. When the probe
/// runs out of budget the report turns inconclusive with zero product
/// states.
pub(crate) fn engine_conformance(
    engine: &Engine<'_>,
    circuit: &Circuit,
    reach: si_petri::ReachOptions,
) -> Result<ConformanceReport, ReachError> {
    let _span = si_obs::span("verify.conformance");
    let code0 = match initial_code(engine) {
        Ok(code) => code,
        Err(ReachError::StateCapExceeded { .. }) => {
            return Ok(probe_exhausted(InterruptReason::CapExceeded))
        }
        Err(ReachError::Interrupted { reason, .. }) => return Ok(probe_exhausted(reason)),
        Err(e) => return Err(e),
    };
    let space = ProductSpace::new(engine.stg(), circuit, code0);
    let opts = ExploreOptions::from(reach)
        .max_violations(ENOUGH_EVIDENCE)
        .witness();
    let expl = match explore_with(&space, opts) {
        Ok(expl) => expl,
        Err(ExploreError::WorkerPanicked { shard, message }) => {
            return Err(ReachError::WorkerPanicked { shard, message })
        }
        Err(ExploreError::Fatal(_)) => unreachable!("the product space has no fatal violations"),
    };
    let trace = expl
        .violations
        .first()
        .map(|&(gid, _)| expl.witness(gid).into_iter().map(TransId).collect());
    Ok(ConformanceReport {
        interrupted: expl.interrupt(),
        states_explored: expl.states,
        failures: expl.violations.into_iter().map(|(_, v)| v).collect(),
        trace,
    })
}

/// What the product space needs to know about one STG transition.
#[derive(Copy, Clone)]
struct TransInfo {
    /// Index of the transition's signal.
    sig: usize,
    /// The wire value the transition drives its signal to.
    target: bool,
    /// The environment fires it (input signal) — the circuit otherwise.
    is_input: bool,
    /// The signal is synthesized (output/internal): an enabled transition
    /// of it must be matched by an excitation (liveness).
    synthesized: bool,
}

/// The spec × circuit product space. Packed states are
/// `marking words ‖ wire-value words`; labels are STG transition indices.
struct ProductSpace<'a> {
    circuit: &'a Circuit,
    view: FiringView,
    /// Words of the marking part.
    mw: usize,
    /// Words of the wire-value part.
    cw: usize,
    /// Number of signals (wire-value bit width).
    nsig: usize,
    initial: Vec<u64>,
    tinfo: Vec<TransInfo>,
    /// Excited implementations are looked up by signal index.
    imp_of_sig: Vec<Option<usize>>,
}

impl<'a> ProductSpace<'a> {
    fn new(stg: &'a Stg, circuit: &'a Circuit, code0: Bits) -> Self {
        let net = stg.net();
        let view = net.firing_view();
        let mw = view.words();
        let nsig = stg.signal_count();
        debug_assert_eq!(code0.len(), nsig);
        let cw = code0.as_words().len();
        let mut initial = net.initial_marking().as_words().to_vec();
        initial.extend_from_slice(code0.as_words());
        let tinfo = net
            .transitions()
            .map(|t| {
                let sig = stg.signal_of(t);
                TransInfo {
                    sig: sig.index(),
                    target: stg.direction_of(t).target_value(),
                    is_input: stg.signal_kind(sig) == SignalKind::Input,
                    synthesized: stg.signal_kind(sig).is_synthesized(),
                }
            })
            .collect();
        let mut imp_of_sig = vec![None; nsig];
        for (i, imp) in circuit.implementations.iter().enumerate() {
            imp_of_sig[imp.signal.index()] = Some(i);
        }
        ProductSpace {
            circuit,
            view,
            mw,
            cw,
            nsig,
            initial,
            tinfo,
            imp_of_sig,
        }
    }

    /// The wire values of a packed product state, as [`Bits`].
    fn code_of(&self, state: &[u64]) -> Bits {
        Bits::from_words(self.nsig, state[self.mw..].to_vec())
    }
}

impl StateSpace for ProductSpace<'_> {
    type Violation = ConformanceFailure;

    fn words(&self) -> usize {
        self.mw + self.cw
    }

    fn initial(&self) -> Vec<u64> {
        self.initial.clone()
    }

    fn for_each_successor<Vis: SpaceVisitor<ConformanceFailure>>(
        &self,
        state: &[u64],
        scratch: &mut [u64],
        visit: &mut Vis,
    ) -> Result<(), ConformanceFailure> {
        let (m, _) = state.split_at(self.mw);
        let code = self.code_of(state);
        let excited: Vec<usize> = self
            .circuit
            .implementations
            .iter()
            .filter(|imp| {
                let i = imp.signal.index();
                imp.next_value(&code, code.get(i)) != code.get(i)
            })
            .map(|imp| imp.signal.index())
            .collect();
        let enabled: Vec<usize> = (0..self.tinfo.len())
            .filter(|&ti| self.view.is_enabled(m, ti))
            .collect();

        // Every excited output must be justified by an enabled transition
        // of that signal in the right direction.
        for &z in &excited {
            let target = !code.get(z);
            let justified = enabled
                .iter()
                .any(|&t| self.tinfo[t].sig == z && self.tinfo[t].target == target);
            if !justified {
                visit.violation(ConformanceFailure::UnexpectedOutput {
                    signal: SignalId(z as u16),
                    code: code.clone(),
                });
                continue;
            }
        }

        // Liveness: an enabled synthesized transition must be excited.
        for &t in &enabled {
            let info = self.tinfo[t];
            if info.synthesized && !excited.contains(&info.sig) {
                // The output may still be mid-handshake elsewhere; a true
                // starvation shows as: enabled in the STG, value already at
                // the source level, but not excited.
                if code.get(info.sig) != info.target {
                    visit.violation(ConformanceFailure::LivenessFailure {
                        transition: TransId(t as u32),
                    });
                }
            }
        }

        // Successors: inputs fire freely; outputs fire when excited (and we
        // already know they are justified).
        for &t in &enabled {
            let info = self.tinfo[t];
            let fires = if info.is_input {
                // The wire of an input follows the STG directly; only fire
                // it from the consistent level.
                code.get(info.sig) != info.target
            } else {
                excited.contains(&info.sig) && code.get(info.sig) != info.target
            };
            if !fires {
                continue;
            }
            let (sm, sc) = scratch.split_at_mut(self.mw);
            self.view.fire_into(m, t, sm);
            sc.copy_from_slice(&state[self.mw..]);
            sc[info.sig / 64] ^= 1u64 << (info.sig % 64);
            let code2 = Bits::from_words(self.nsig, sc.to_vec());

            // Hazard check: no previously excited output may lose its
            // excitation (other than the one that fired).
            for &z in &excited {
                if z == info.sig {
                    continue;
                }
                let imp = &self.circuit.implementations
                    [self.imp_of_sig[z].expect("excited signals are implemented")];
                if imp.next_value(&code2, code2.get(z)) == code2.get(z) {
                    visit.violation(ConformanceFailure::DisabledOutput {
                        fired: TransId(t as u32),
                        disabled: SignalId(z as u16),
                    });
                }
            }

            if !visit.successor(t as u32, scratch) {
                return Ok(());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_core::{synthesize, SynthesisOptions};
    use si_stg::benchmarks;

    #[test]
    fn synthesized_circuits_conform() {
        for stg in [
            benchmarks::half_handshake(),
            benchmarks::converter(),
            benchmarks::burst2(),
            si_stg::generators::clatch(3),
        ] {
            let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
            let report = check_conformance(&stg, &syn.circuit, 1_000_000).unwrap();
            assert!(
                report.is_ok(),
                "{}: {:?}",
                stg.name(),
                &report.failures[..report.failures.len().min(3)]
            );
            assert!(report.is_conclusive());
            assert!(report.trace.is_none());
        }
    }

    #[test]
    fn inverted_output_is_not_conformant() {
        let stg = si_stg::generators::clatch(2);
        let mut syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        let z = syn.results[0].signal;
        syn.circuit.implementations[0] = si_core::SignalImplementation {
            signal: z,
            kind: si_core::ImplKind::Combinational {
                cover: si_boolean::Cover::universe(stg.signal_count()),
                inverted: false,
            },
        };
        let report = check_conformance(&stg, &syn.circuit, 100_000).unwrap();
        assert!(!report.is_ok());
        assert!(report.trace.is_some());
    }

    #[test]
    fn conformance_counterexample_replays_in_the_product() {
        // Sabotaged circuit: the trace must replay through the product
        // semantics (fire the STG transition, toggle the wire) and end at
        // a state exhibiting the first reported failure.
        let stg = si_stg::generators::clatch(2);
        let mut syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        let z = syn.results[0].signal;
        syn.circuit.implementations[0] = si_core::SignalImplementation {
            signal: z,
            kind: si_core::ImplKind::Combinational {
                cover: si_boolean::Cover::universe(stg.signal_count()),
                inverted: false,
            },
        };
        for shards in [1, 2] {
            let report = check_conformance_with(
                &stg,
                &syn.circuit,
                si_petri::ReachOptions::with_cap(100_000).shards(shards),
            )
            .unwrap();
            assert!(!report.is_ok());
            let trace = report.trace.as_ref().expect("failures come with a trace");
            let net = stg.net();
            let mut m = net.initial_marking();
            let rg = si_petri::ReachabilityGraph::build(net, 100_000).unwrap();
            let enc = si_stg::StateEncoding::compute(&stg, &rg).unwrap();
            let mut code = enc.code(rg.state_of(&m).unwrap()).clone();
            for &t in trace {
                assert!(
                    net.is_enabled(&m, t),
                    "{shards} shards: dead trace step {t}"
                );
                m = net.fire(&m, t);
                code.toggle(stg.signal_of(t).index());
            }
            // The failure state must exhibit the first reported failure.
            match &report.failures[0] {
                ConformanceFailure::UnexpectedOutput { code: fc, .. } => {
                    assert_eq!(&code, fc, "{shards} shards: trace misses the failure state");
                }
                other => {
                    // Liveness / hazard failures are observed at the trace
                    // end by construction; just sanity-check the state is
                    // reachable in the spec.
                    let _ = other;
                    assert!(rg.state_of(&m).is_some());
                }
            }
        }
    }
}
