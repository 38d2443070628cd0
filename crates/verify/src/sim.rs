//! Randomized unbounded-delay simulation.
//!
//! [`crate::check_conformance`] explores the circuit × environment product
//! exhaustively; this module complements it with long *random walks* under
//! adversarial scheduling — cheap on specifications whose product is too
//! large to exhaust, and a natural fault-injection harness: a sabotaged
//! circuit is expected to fail within a few thousand steps.
//!
//! A walk needs only the initial wire values, so it builds nothing: it
//! starts from the initial code of the session's cached encoding
//! ([`crate::EngineVerify::random_walks`]), and the free functions here are
//! one-shot wrappers over a fresh [`Engine`].

use crate::engine_ext::initial_code;
use crate::EngineVerify;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use si_boolean::Bits;
use si_core::{Circuit, Engine};
use si_stg::{SignalId, SignalKind, Stg};

/// Outcome of one random walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalkOutcome {
    /// Completed all steps without a violation.
    Clean {
        /// Steps actually taken.
        steps: usize,
    },
    /// The circuit excited an output with no matching enabled transition.
    UnexpectedOutput {
        /// The offending signal.
        signal: SignalId,
        /// Step index of the failure.
        step: usize,
    },
    /// A firing removed the excitation of another output.
    DisabledOutput {
        /// The output that lost its excitation.
        signal: SignalId,
        /// Step index of the failure.
        step: usize,
    },
    /// No transition could fire but the specification is not finished —
    /// the composed system deadlocked.
    Deadlock {
        /// Step index of the deadlock.
        step: usize,
    },
}

impl WalkOutcome {
    /// `true` for [`WalkOutcome::Clean`].
    pub fn is_clean(&self) -> bool {
        matches!(self, WalkOutcome::Clean { .. })
    }
}

/// Runs `walks` random schedules of `steps` steps each; returns the first
/// non-clean outcome, or the clean summary of the longest walk.
///
/// This is a one-shot wrapper over [`Engine`]; pipelines that also verify
/// should hold an `Engine` and call [`crate::EngineVerify::random_walks`]
/// so the walks reuse the session's encoding.
///
/// # Panics
///
/// Panics if the STG is not safe/consistent or its state space exceeds
/// [`Engine::DEFAULT_CAP`].
pub fn random_walks(
    stg: &Stg,
    circuit: &Circuit,
    walks: usize,
    steps: usize,
    seed: u64,
) -> WalkOutcome {
    match Engine::new(stg).random_walks(circuit, walks, steps, seed) {
        Ok(outcome) => outcome,
        Err(e) => panic!("random walks impossible: {e}"),
    }
}

/// [`random_walks`] from explicit initial wire values `code0`.
pub(crate) fn walks_from(
    stg: &Stg,
    circuit: &Circuit,
    code0: Bits,
    walks: usize,
    steps: usize,
    seed: u64,
) -> WalkOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut longest = 0;
    for _ in 0..walks {
        match walk(stg, circuit, code0.clone(), steps, &mut rng, None) {
            WalkOutcome::Clean { steps } => longest = longest.max(steps),
            failure => return failure,
        }
    }
    WalkOutcome::Clean { steps: longest }
}

/// Runs one recorded random walk: returns the outcome plus the fired
/// transition trace (for waveform rendering / debugging).
///
/// # Panics
///
/// As [`random_walks`].
pub fn record_walk(
    stg: &Stg,
    circuit: &Circuit,
    steps: usize,
    seed: u64,
) -> (WalkOutcome, Vec<si_petri::TransId>) {
    let code0 = match initial_code(&Engine::new(stg)) {
        Ok(code) => code,
        Err(e) => panic!("random walks impossible: {e}"),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Vec::new();
    let outcome = walk(stg, circuit, code0, steps, &mut rng, Some(&mut trace));
    (outcome, trace)
}

/// One walk from the wire values `code`.
fn walk(
    stg: &Stg,
    circuit: &Circuit,
    mut code: Bits,
    steps: usize,
    rng: &mut StdRng,
    mut trace: Option<&mut Vec<si_petri::TransId>>,
) -> WalkOutcome {
    let net = stg.net();
    let mut marking = net.initial_marking();

    let excited = |code: &Bits| -> Vec<SignalId> {
        circuit
            .implementations
            .iter()
            .filter(|imp| {
                imp.next_value(code, code.get(imp.signal.index())) != code.get(imp.signal.index())
            })
            .map(|imp| imp.signal)
            .collect()
    };

    for step in 0..steps {
        let enabled = net.enabled_transitions(&marking);
        let excited_now = excited(&code);

        // Conformance: every excited output must be justified.
        for &z in &excited_now {
            let target = !code.get(z.index());
            let ok = enabled
                .iter()
                .any(|&t| stg.signal_of(t) == z && stg.direction_of(t).target_value() == target);
            if !ok {
                return WalkOutcome::UnexpectedOutput { signal: z, step };
            }
        }

        // Fireable moves: inputs freely, outputs when excited.
        let mut moves: Vec<si_petri::TransId> = Vec::new();
        for &t in &enabled {
            let sig = stg.signal_of(t);
            let level_ok = code.get(sig.index()) != stg.direction_of(t).target_value();
            if !level_ok {
                continue;
            }
            if stg.signal_kind(sig) == SignalKind::Input || excited_now.contains(&sig) {
                moves.push(t);
            }
        }
        let Some(&t) = moves.choose(rng) else {
            return WalkOutcome::Deadlock { step };
        };
        // Occasionally bias toward racing outputs first (adversarial-ish).
        let t = if rng.gen_bool(0.3) {
            *moves
                .iter()
                .find(|&&u| stg.signal_kind(stg.signal_of(u)).is_synthesized())
                .unwrap_or(&t)
        } else {
            t
        };

        marking = net.fire(&marking, t);
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(t);
        }
        let fired_sig = stg.signal_of(t);
        code.toggle(fired_sig.index());

        // Hazard: previously excited outputs must stay excited.
        let excited_after = excited(&code);
        for &z in &excited_now {
            if z != fired_sig && !excited_after.contains(&z) {
                return WalkOutcome::DisabledOutput { signal: z, step };
            }
        }
    }
    WalkOutcome::Clean { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_core::{synthesize, ImplKind, SynthesisOptions};

    #[test]
    fn clean_circuits_walk_clean() {
        for stg in [
            si_stg::benchmarks::burst2(),
            si_stg::benchmarks::vme_read_csc(),
            si_stg::generators::clatch(4),
        ] {
            let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
            let outcome = random_walks(&stg, &syn.circuit, 8, 4000, 42);
            assert!(outcome.is_clean(), "{}: {outcome:?}", stg.name());
        }
    }

    #[test]
    fn fault_injection_is_detected() {
        let stg = si_stg::generators::clatch(3);
        let mut syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        // Sabotage: make z combinational-high whenever any input is high —
        // fires far too early.
        let z = syn.results[0].signal;
        let w = stg.signal_count();
        let mut any_input = si_boolean::Cover::empty(w);
        for s in stg.signals() {
            if stg.signal_kind(s) == si_stg::SignalKind::Input {
                any_input.push(si_boolean::Cube::literal(w, s.index(), true));
            }
        }
        syn.circuit.implementations[0] = si_core::SignalImplementation {
            signal: z,
            kind: ImplKind::Combinational {
                cover: any_input,
                inverted: false,
            },
        };
        let outcome = random_walks(&stg, &syn.circuit, 8, 4000, 7);
        assert!(!outcome.is_clean(), "sabotage must be detected");
    }

    #[test]
    fn deterministic_given_seed() {
        let stg = si_stg::benchmarks::half_handshake();
        let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        let a = random_walks(&stg, &syn.circuit, 2, 500, 99);
        let b = random_walks(&stg, &syn.circuit, 2, 500, 99);
        assert_eq!(a, b);
    }
}
