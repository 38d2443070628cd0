//! State-based verification of synthesized circuits (the role of reference \[32\] in
//! the paper: every synthesis result is independently checked to be speed
//! independent).
//!
//! Two layers:
//!
//! * **functional correctness** — at every reachable marking the
//!   implementation's next value equals the specified next-state function
//!   (eq. 1 for complex gates; the C-latch/gC semantics make this the
//!   correct-cover condition (2) including backward-expansion
//!   observability);
//! * **monotonic covers** (Property 1 + Appendix E): along reachability
//!   edges a set network never re-rises while its signal is high and never
//!   falls while the signal is low (symmetrically for reset) — the
//!   glitch-freedom condition behind speed independence.
//!
//! The search for violating states is a [`si_petri::space::StateSpace`]
//! over the prebuilt reachability graph — states are graph ids, successors
//! its edges, the [`inspect`](si_petri::space::StateSpace::inspect) hook
//! runs both checks — driven by the workspace's generic explorers. That
//! buys sharded parallel verification (`shards > 1` splits the walk across
//! worker threads) and a firing-sequence **counterexample trace** to the
//! first violation ([`VerificationReport::trace`]) from the explorer's
//! witness machinery.

use crate::EngineVerify;
use si_boolean::Cover;
use si_core::{Circuit, ImplKind};
use si_petri::space::{
    explore_with, ExploreError, ExploreOptions, SpaceVisitor, StateSpace, Verdict,
};
use si_petri::{Interrupt, ReachabilityGraph, StateId, TransId};
use si_stg::{SignalId, StateEncoding, Stg};

/// One verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The implementation computes a wrong next value at a reachable state.
    Functional {
        /// The signal.
        signal: SignalId,
        /// The state where the mismatch occurs.
        state: StateId,
        /// What the implementation produces.
        produced: bool,
        /// What the specification requires.
        required: bool,
    },
    /// A set network re-rises / falls non-monotonically (Property 1).
    NonMonotonicSet {
        /// The signal.
        signal: SignalId,
        /// Source state of the offending edge.
        from: StateId,
        /// Target state of the offending edge.
        to: StateId,
    },
    /// A reset network re-rises / falls non-monotonically.
    NonMonotonicReset {
        /// The signal.
        signal: SignalId,
        /// Source state of the offending edge.
        from: StateId,
        /// Target state of the offending edge.
        to: StateId,
    },
}

impl Violation {
    /// The state a counterexample trace should reach: the violating state
    /// itself for functional violations, the source of the offending edge
    /// for monotonicity violations.
    pub fn at_state(&self) -> StateId {
        match *self {
            Violation::Functional { state, .. } => state,
            Violation::NonMonotonicSet { from, .. } | Violation::NonMonotonicReset { from, .. } => {
                from
            }
        }
    }

    /// Total order making reports deterministic at any shard count:
    /// by state, then violation kind, then signal, then edge target.
    fn sort_key(&self) -> (u32, u8, u16, u32) {
        match *self {
            Violation::Functional { signal, state, .. } => (state.0, 0, signal.0, 0),
            Violation::NonMonotonicSet { signal, from, to } => (from.0, 1, signal.0, to.0),
            Violation::NonMonotonicReset { signal, from, to } => (from.0, 2, signal.0, to.0),
        }
    }
}

/// Result of [`verify_circuit`].
#[derive(Clone, Debug, Default)]
pub struct VerificationReport {
    /// All found violations (empty = verified), ordered by state / kind /
    /// signal — deterministic at any shard count.
    pub violations: Vec<Violation>,
    /// Number of reachable states examined.
    pub states_checked: usize,
    /// Counterexample: a firing sequence from the initial marking to
    /// `violations[0].at_state()` (`None` when the circuit verifies).
    pub trace: Option<Vec<TransId>>,
    /// `Some` when the violation search was stopped early by the budget
    /// (wall-clock deadline or cancellation): the verdict is **partial** —
    /// every reported violation is real, but a clean report only means "no
    /// violation in the `states_checked` states explored".
    pub interrupted: Option<Interrupt>,
}

impl VerificationReport {
    /// `true` when no violations were found. For an interrupted search
    /// this only covers the explored prefix — gate on
    /// [`VerificationReport::is_conclusive`] for a definitive verdict.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` when the search ran to completion (the verdict covers the
    /// whole state space, not just an explored prefix).
    pub fn is_conclusive(&self) -> bool {
        self.interrupted.is_none()
    }
}

/// The specified next value of `signal` at state `s`: the target of an
/// enabled transition of the signal, else the current value.
fn spec_next(
    stg: &Stg,
    rg: &ReachabilityGraph,
    enc: &StateEncoding,
    s: StateId,
    signal: SignalId,
) -> bool {
    for &(t, _) in rg.successors(s) {
        if stg.signal_of(t) == signal {
            return stg.direction_of(t).target_value();
        }
    }
    enc.value(s, signal)
}

/// Verifies a circuit against its STG on the explicit reachability graph.
///
/// # Panics
///
/// Panics if the STG is not safe/consistent (callers verify synthesizable
/// inputs, which always are).
pub fn verify_circuit(stg: &Stg, circuit: &Circuit) -> VerificationReport {
    match si_core::Engine::new(stg).verify(circuit) {
        Ok(report) => report,
        Err(e) => panic!("state-based verification impossible: {e}"),
    }
}

/// Verifies with explicit [`si_petri::ReachOptions`]: `reach.cap` bounds
/// the specification's state space (the call returns
/// [`si_petri::ReachError::StateCapExceeded`] instead of hanging past it)
/// and `reach.shards > 1` runs both the reachability build **and** the
/// violation search on the sharded multi-threaded explorer. The report is
/// identical at any shard count (violations are canonically ordered; only
/// the counterexample trace may differ between equally valid witnesses).
///
/// This is a one-shot wrapper over [`si_core::Engine`]; pipelines that
/// also synthesize or check conformance should hold an `Engine` and call
/// [`crate::EngineVerify::verify`] so the graph is built once.
///
/// # Errors
///
/// Any [`si_petri::ReachError`] from building the reachability graph.
pub fn verify_circuit_with(
    stg: &Stg,
    circuit: &Circuit,
    reach: si_petri::ReachOptions,
) -> Result<VerificationReport, si_petri::ReachError> {
    si_core::Engine::new(stg).reach(reach).verify(circuit)
}

/// Verification over a **prebuilt** reachability graph and encoding — the
/// form the [`si_core::Engine`] artifact cache calls (via
/// [`crate::EngineVerify`]) so a synth-then-verify pipeline explores the
/// state space once. The violation search runs under `reach`'s shard
/// count **and** soft budget (deadline, cancellation) — exhausting a soft
/// limit returns a partial report tagged [`VerificationReport::interrupted`]
/// instead of aborting. The budget's state *cap* is ignored here: the walk
/// is bounded by the graph, whose construction the cap already governed.
/// The violation list is identical at any shard count; the counterexample
/// trace is always a valid firing sequence to `violations[0].at_state()`
/// but may differ between runs (any witness is a witness).
///
/// # Errors
///
/// [`si_petri::ReachError::WorkerPanicked`] when a sharded explorer
/// worker panicked (only observable with fault injection or a broken
/// space — panics are isolated per worker and surface structurally).
pub(crate) fn verify_circuit_on_opts(
    stg: &Stg,
    circuit: &Circuit,
    rg: &ReachabilityGraph,
    enc: &StateEncoding,
    reach: &si_petri::ReachOptions,
) -> Result<VerificationReport, si_petri::ReachError> {
    let _span = si_obs::span("verify.check");
    let space = VerifySpace::new(stg, circuit, rg, enc);
    let mut opts = ExploreOptions::from(reach).witness();
    opts.budget.cap = usize::MAX;
    let mut expl = match explore_with(&space, opts) {
        Ok(expl) => expl,
        Err(ExploreError::WorkerPanicked { shard, message }) => {
            return Err(si_petri::ReachError::WorkerPanicked { shard, message })
        }
        Err(ExploreError::Fatal(_)) => unreachable!("the verify space has no fatal violations"),
    };
    let mut tagged = std::mem::take(&mut expl.violations);
    tagged.sort_by_key(|(_, v)| v.sort_key());
    let trace = tagged
        .first()
        .map(|&(gid, _)| expl.witness(gid).into_iter().map(TransId).collect());
    Ok(VerificationReport {
        violations: tagged.into_iter().map(|(_, v)| v).collect(),
        states_checked: expl.states,
        trace,
        interrupted: expl.interrupt(),
    })
}

/// The speed-independence verification space: packed states are
/// reachability-graph ids (one word), successors its edges, and
/// [`StateSpace::inspect`] runs the functional and monotonicity checks of
/// the module docs at each state.
struct VerifySpace<'a> {
    stg: &'a Stg,
    circuit: &'a Circuit,
    rg: &'a ReachabilityGraph,
    enc: &'a StateEncoding,
    /// Per-implementation excitation networks; `None` for combinational
    /// implementations (eq. (1) suffices \[5\]).
    covers: Vec<Option<(Cover, Cover)>>,
}

impl<'a> VerifySpace<'a> {
    fn new(
        stg: &'a Stg,
        circuit: &'a Circuit,
        rg: &'a ReachabilityGraph,
        enc: &'a StateEncoding,
    ) -> Self {
        let covers = circuit
            .implementations
            .iter()
            .map(|imp| match &imp.kind {
                ImplKind::CLatch { .. } | ImplKind::GcLatch { .. } => {
                    Some(imp.excitation_covers().expect("latch kinds have covers"))
                }
                ImplKind::GatedLatch { data, control } => {
                    Some((control.and(data), control.and(&data.complement())))
                }
                ImplKind::Combinational { .. } => None,
            })
            .collect();
        VerifySpace {
            stg,
            circuit,
            rg,
            enc,
            covers,
        }
    }
}

impl StateSpace for VerifySpace<'_> {
    type Violation = Violation;

    fn words(&self) -> usize {
        1
    }

    fn initial(&self) -> Vec<u64> {
        vec![0] // the reachability graph numbers its initial marking 0
    }

    fn inspect<Vis: SpaceVisitor<Violation>>(&self, state: &[u64], sink: &mut Vis) -> Verdict {
        let s = StateId(state[0] as u32);
        let mut verdict = Verdict::Continue;
        for (imp, covers) in self.circuit.implementations.iter().zip(&self.covers) {
            let signal = imp.signal;
            // Functional check at this state.
            let produced = imp.next_value(self.enc.code(s), self.enc.value(s, signal));
            let required = spec_next(self.stg, self.rg, self.enc, s, signal);
            if produced != required {
                sink.violation(Violation::Functional {
                    signal,
                    state: s,
                    produced,
                    required,
                });
                verdict = Verdict::Violation;
            }

            // Monotonicity of the excitation networks along outgoing edges.
            let Some((set, reset)) = covers else { continue };
            let on = |cover: &Cover, s: StateId| cover.contains_vertex(self.enc.code(s));
            let vs = self.enc.value(s, signal);
            for &(_, d) in self.rg.successors(s) {
                let vd = self.enc.value(d, signal);
                // Set network: may not re-rise while the signal is high, may
                // not fall while the signal is low (pre-excitation).
                if vs && vd && !on(set, s) && on(set, d) || !vs && !vd && on(set, s) && !on(set, d)
                {
                    sink.violation(Violation::NonMonotonicSet {
                        signal,
                        from: s,
                        to: d,
                    });
                    verdict = Verdict::Violation;
                }
                // Reset network: symmetric.
                if !vs && !vd && !on(reset, s) && on(reset, d)
                    || vs && vd && on(reset, s) && !on(reset, d)
                {
                    sink.violation(Violation::NonMonotonicReset {
                        signal,
                        from: s,
                        to: d,
                    });
                    verdict = Verdict::Violation;
                }
            }
        }
        verdict
    }

    fn for_each_successor<Vis: SpaceVisitor<Violation>>(
        &self,
        state: &[u64],
        scratch: &mut [u64],
        visit: &mut Vis,
    ) -> Result<(), Violation> {
        for &(t, d) in self.rg.successors(StateId(state[0] as u32)) {
            scratch[0] = d.0 as u64;
            if !visit.successor(t.0, scratch) {
                return Ok(());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_core::{synthesize, Architecture, Engine, MinimizeStages, SynthesisOptions};
    use si_stg::benchmarks;

    #[test]
    fn synthesized_toggle_verifies() {
        let stg = si_stg::parse_g(
            "\
.model toggle
.inputs x
.outputs y
.graph
x+ y+
y+ x-
x- y-
y- x+
.marking { <y-,x+> }
.end
",
        )
        .unwrap();
        let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        let report = verify_circuit(&stg, &syn.circuit);
        assert!(report.is_ok(), "violations: {:?}", report.violations);
        assert!(report.trace.is_none());
    }

    #[test]
    fn broken_circuit_caught() {
        let stg = si_stg::generators::clatch(2);
        let mut syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        // Sabotage: invert the implementation.
        let z = syn.results[0].signal;
        syn.circuit.implementations[0] = si_core::SignalImplementation {
            signal: z,
            kind: ImplKind::Combinational {
                cover: si_boolean::Cover::empty(stg.signal_count()),
                inverted: false,
            },
        };
        let report = verify_circuit(&stg, &syn.circuit);
        assert!(!report.is_ok());
        assert!(matches!(report.violations[0], Violation::Functional { .. }));
    }

    #[test]
    fn non_monotonic_cover_caught() {
        // Running example, signal d with a hand-broken set cover that skips
        // the fork code 1111 but grabs 1001 deep in the quiescent region.
        let stg = benchmarks::running_example();
        let syn = synthesize(
            &stg,
            &SynthesisOptions {
                architecture: Architecture::ExcitationFunction,
                stages: MinimizeStages::none(),
                ..Default::default()
            },
        )
        .unwrap();
        let d = stg.signal_by_name("d").unwrap();
        let idx = syn
            .circuit
            .implementations
            .iter()
            .position(|i| i.signal == d)
            .unwrap();
        let mut broken = syn.circuit.clone();
        if let ImplKind::CLatch { set, .. } = &mut broken.implementations[idx].kind {
            set.push(Cover::from_cube("1001".parse().unwrap()));
        }
        let report = verify_circuit(&stg, &broken);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NonMonotonicSet { .. })));
    }

    #[test]
    fn counterexample_trace_replays_to_the_violating_state() {
        let stg = si_stg::generators::clatch(3);
        let mut syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        let z = syn.results[0].signal;
        syn.circuit.implementations[0] = si_core::SignalImplementation {
            signal: z,
            kind: ImplKind::Combinational {
                cover: si_boolean::Cover::empty(stg.signal_count()),
                inverted: false,
            },
        };
        for shards in [1, 4] {
            let engine = Engine::new(&stg).cap(100_000).shards(shards);
            let report = engine.verify(&syn.circuit).unwrap();
            assert!(!report.is_ok());
            let trace = report.trace.as_ref().expect("violations come with a trace");
            // Replay the firing sequence on the net: it must be enabled at
            // every step and end at the state of the first violation.
            let net = stg.net();
            let mut m = net.initial_marking();
            for &t in trace {
                assert!(
                    net.is_enabled(&m, t),
                    "{shards} shards: dead trace step {t}"
                );
                m = net.fire(&m, t);
            }
            assert_eq!(
                engine.reachability().unwrap().state_of(&m),
                Some(report.violations[0].at_state()),
                "{shards} shards: trace does not reach the violating state"
            );
        }
    }

    #[test]
    fn sharded_verification_matches_sequential() {
        let stg = benchmarks::running_example();
        let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        // A clean circuit and a sabotaged one: violation lists must be
        // identical at any shard count.
        let mut broken = syn.circuit.clone();
        broken.implementations[0].kind = ImplKind::Combinational {
            cover: Cover::empty(stg.signal_count()),
            inverted: false,
        };
        for circuit in [&syn.circuit, &broken] {
            let verify = |shards| {
                let engine = Engine::new(&stg).cap(100_000).shards(shards);
                engine.verify(circuit).unwrap()
            };
            let seq = verify(1);
            for shards in [2, 4, 8] {
                let par = verify(shards);
                assert_eq!(seq.violations, par.violations);
                assert_eq!(seq.states_checked, par.states_checked);
                assert_eq!(seq.is_ok(), par.is_ok());
            }
        }
    }

    #[test]
    fn all_architectures_verify_on_suite() {
        for stg in benchmarks::synthesizable_suite() {
            for arch in [
                Architecture::ComplexGate,
                Architecture::ExcitationFunction,
                Architecture::PerRegion,
            ] {
                for stage in [MinimizeStages::none(), MinimizeStages::full()] {
                    let syn = synthesize(
                        &stg,
                        &SynthesisOptions {
                            architecture: arch,
                            stages: stage,
                            ..Default::default()
                        },
                    )
                    .unwrap_or_else(|e| panic!("{} {arch:?}: {e}", stg.name()));
                    let report = verify_circuit(&stg, &syn.circuit);
                    assert!(
                        report.is_ok(),
                        "{} under {arch:?} {stage:?}: {:?}",
                        stg.name(),
                        &report.violations[..report.violations.len().min(3)]
                    );
                }
            }
        }
    }
}
