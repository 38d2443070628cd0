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
//!
//! # The step kernel
//!
//! Each call builds its tables once and runs every walk on them: the
//! net's [`FiringView`]; per signal, the word mask of its transitions;
//! the masks of the rising, the input and the synthesized transitions;
//! and per signal, the implementations that read it (the care bits of
//! their covers, plus the implementation's own signal). A step allocates
//! nothing. Over word vectors of transition sets it computes
//!
//! * the moves: enabled ∧ level ∧ (input ∨ transition of an excited
//!   signal), where *level* means the signal's value differs from the
//!   transition's target;
//! * for each excited output `z`, in implementation order, whether it is
//!   justified: enabled ∧ level ∧ (transitions of `z`) is non-empty, else
//!   [`WalkOutcome::UnexpectedOutput`].
//!
//! It fires the chosen move with [`FiringView::fire_into`] into a reused
//! buffer and then updates only what the firing changed: the enabledness
//! of the consumers of the fired transition's pre- and post-places, the
//! level bits of the fired signal's transitions, and the excitation of the
//! implementations that read the fired signal. The code after a firing is
//! the next step's code, so the excitation is carried from step to step
//! and each implementation is evaluated at most once per step, through its
//! own covers ([`si_core::SignalImplementation::next_value_words`]).
//!
//! The schedules are fixed, since every verify report prints
//! `random_walks_ok` and `synth --waveform` prints a recorded walk: a seed
//! draws what the walk drew when it listed its moves in ascending
//! transition order and called `moves.choose(rng)`. That is one
//! `gen_range(0..count)` when a move exists and nothing otherwise, taking
//! the k-th set bit in ascending order, then `gen_bool(0.3)` and, when it
//! is true, the lowest synthesized move. The list-based walk stays in the
//! tests as the reference the kernel runs in lockstep with.

use crate::engine_ext::initial_code;
use crate::EngineVerify;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use si_boolean::Bits;
use si_core::{Circuit, Engine, ImplKind};
use si_petri::{FiringView, TransId};
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
    /// No move could fire: no enabled transition of an input or of an
    /// excited output would change its signal's value. The walk reports
    /// this whenever it happens, whether or not the specification could
    /// go on (a circuit that never excites an output stalls it).
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
    let mut kernel = WalkKernel::new(stg, circuit);
    let mut longest = 0;
    for _ in 0..walks {
        match kernel.walk(&code0, steps, &mut rng, None) {
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
) -> (WalkOutcome, Vec<TransId>) {
    let code0 = match initial_code(&Engine::new(stg)) {
        Ok(code) => code,
        Err(e) => panic!("random walks impossible: {e}"),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Vec::new();
    let outcome = WalkKernel::new(stg, circuit).walk(&code0, steps, &mut rng, Some(&mut trace));
    (outcome, trace)
}

/// The step kernel of the walks (module docs): the tables of one
/// specification and circuit, and the state of the walk under way.
struct WalkKernel<'a> {
    stg: &'a Stg,
    circuit: &'a Circuit,
    view: FiringView,
    /// Words per transition set.
    tw: usize,
    /// Per signal, the mask of its transitions (`tw` words each).
    of_signal: Vec<u64>,
    /// The transitions whose target value is 1.
    rising: Vec<u64>,
    /// The transitions of input signals.
    input: Vec<u64>,
    /// The transitions of synthesized signals.
    synthesized: Vec<u64>,
    /// Per signal `s`, `readers[reader_start[s]..reader_start[s + 1]]`:
    /// the implementations whose excitation depends on `s`, ascending.
    reader_start: Vec<usize>,
    readers: Vec<usize>,
    /// The initial marking and the transitions enabled at it.
    marking0: Vec<u64>,
    enabled0: Vec<u64>,
    // The walk under way.
    marking: Vec<u64>,
    /// The successor marking's buffer, swapped with `marking`.
    scratch: Vec<u64>,
    code: Vec<u64>,
    enabled: Vec<u64>,
    /// Transitions whose signal's value differs from their target.
    level: Vec<u64>,
    /// The excited implementations, one bit each.
    excited: Vec<u64>,
    moves: Vec<u64>,
}

impl<'a> WalkKernel<'a> {
    fn new(stg: &'a Stg, circuit: &'a Circuit) -> Self {
        let net = stg.net();
        let view = net.firing_view();
        let nt = net.transition_count();
        let tw = nt.div_ceil(64);
        let ns = stg.signal_count();
        let mut of_signal = vec![0; ns * tw];
        let (mut rising, mut input, mut synthesized) = (vec![0; tw], vec![0; tw], vec![0; tw]);
        for t in net.transitions() {
            let (w, bit) = (t.index() / 64, 1u64 << (t.index() % 64));
            let s = stg.signal_of(t);
            of_signal[s.index() * tw + w] |= bit;
            if stg.direction_of(t).target_value() {
                rising[w] |= bit;
            }
            match stg.signal_kind(s) {
                SignalKind::Input => input[w] |= bit,
                kind if kind.is_synthesized() => synthesized[w] |= bit,
                _ => {}
            }
        }
        let mut reads: Vec<Bits> = vec![Bits::zeros(ns); circuit.implementations.len()];
        for (read, imp) in reads.iter_mut().zip(&circuit.implementations) {
            for cover in covers(&imp.kind) {
                for cube in cover.iter() {
                    read.union_with(cube.care());
                }
            }
            read.set(imp.signal.index(), true);
        }
        let mut reader_start = vec![0; ns + 1];
        let mut readers = Vec::new();
        for s in 0..ns {
            readers.extend((0..reads.len()).filter(|&i| reads[i].get(s)));
            reader_start[s + 1] = readers.len();
        }
        let marking0 = net.initial_marking().as_words().to_vec();
        let mut enabled0 = vec![0; tw];
        for t in 0..nt {
            set_bit(&mut enabled0, t, view.is_enabled(&marking0, t));
        }
        let iw = circuit.implementations.len().div_ceil(64);
        WalkKernel {
            stg,
            circuit,
            tw,
            of_signal,
            rising,
            input,
            synthesized,
            reader_start,
            readers,
            marking: marking0.clone(),
            scratch: marking0.clone(),
            enabled: enabled0.clone(),
            marking0,
            enabled0,
            view,
            code: vec![0; ns.div_ceil(64)],
            level: vec![0; tw],
            excited: vec![0; iw],
            moves: vec![0; tw],
        }
    }

    /// One walk of at most `steps` steps from the initial marking and the
    /// wire values `code0`, drawing from `rng`; appends each fired
    /// transition to `trace`. Adds the firings to `verify.walk_steps`.
    fn walk(
        &mut self,
        code0: &Bits,
        steps: usize,
        rng: &mut StdRng,
        mut trace: Option<&mut Vec<TransId>>,
    ) -> WalkOutcome {
        self.start(code0);
        let mut fired = 0;
        let mut run = || -> Result<(), WalkOutcome> {
            for step in 0..steps {
                let t = self.choose(step, rng)?;
                if let Some(trace) = trace.as_deref_mut() {
                    trace.push(TransId(t as u32));
                }
                fired += 1;
                self.fire(step, t)?;
            }
            Ok(())
        };
        let outcome = run().err().unwrap_or(WalkOutcome::Clean { steps });
        si_obs::counter_add("verify.walk_steps", fired);
        outcome
    }

    /// Resets the walk state to the initial marking and `code0`.
    fn start(&mut self, code0: &Bits) {
        self.marking.copy_from_slice(&self.marking0);
        self.enabled.copy_from_slice(&self.enabled0);
        self.code.copy_from_slice(code0.as_words());
        // A transition is at level iff it rises from 0 or falls from 1.
        self.level.copy_from_slice(&self.rising);
        for s in code0.iter_ones() {
            xor_into(&mut self.level, row(&self.of_signal, s, self.tw));
        }
        for (i, imp) in self.circuit.implementations.iter().enumerate() {
            let z = imp.signal.index();
            let current = bit(&self.code, z);
            let excited = imp.next_value_words(&self.code, current) != current;
            set_bit(&mut self.excited, i, excited);
        }
    }

    /// Checks that every excited output is justified and draws the move
    /// of step `step` (module docs: the draws are fixed).
    fn choose(&mut self, step: usize, rng: &mut StdRng) -> Result<usize, WalkOutcome> {
        let tw = self.tw;
        for w in 0..tw {
            self.moves[w] = self.enabled[w] & self.level[w] & self.input[w];
        }
        for (wi, &word) in self.excited.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let i = wi * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let z = self.circuit.implementations[i].signal;
                let mut justified = false;
                for (w, &mask) in row(&self.of_signal, z.index(), tw).iter().enumerate() {
                    let fireable = self.enabled[w] & self.level[w] & mask;
                    self.moves[w] |= fireable;
                    justified |= fireable != 0;
                }
                if !justified {
                    return Err(WalkOutcome::UnexpectedOutput { signal: z, step });
                }
            }
        }
        let count: usize = self.moves.iter().map(|w| w.count_ones() as usize).sum();
        if count == 0 {
            return Err(WalkOutcome::Deadlock { step });
        }
        let t = nth_one(&self.moves, rng.gen_range(0..count));
        // Occasionally bias toward racing outputs first (adversarial-ish).
        if rng.gen_bool(0.3) {
            let first = (self.moves.iter().zip(&self.synthesized).enumerate())
                .find(|(_, (&m, &s))| m & s != 0)
                .map(|(w, (&m, &s))| w * 64 + (m & s).trailing_zeros() as usize);
            return Ok(first.unwrap_or(t));
        }
        Ok(t)
    }

    /// Fires `t` and updates what the firing changed; a previously excited
    /// output of another signal that lost its excitation fails the walk.
    fn fire(&mut self, step: usize, t: usize) -> Result<(), WalkOutcome> {
        self.view.fire_into(&self.marking, t, &mut self.scratch);
        std::mem::swap(&mut self.marking, &mut self.scratch);
        let (net, fired) = (self.stg.net(), TransId(t as u32));
        for &p in net.pre_t(fired).iter().chain(net.post_t(fired)) {
            for &u in net.post_p(p) {
                let enabled = self.view.is_enabled(&self.marking, u.index());
                set_bit(&mut self.enabled, u.index(), enabled);
            }
        }
        let s = self.stg.signal_of(fired).index();
        self.code[s / 64] ^= 1 << (s % 64);
        xor_into(&mut self.level, row(&self.of_signal, s, self.tw));
        // Hazard: previously excited outputs must stay excited.
        for &i in &self.readers[self.reader_start[s]..self.reader_start[s + 1]] {
            let imp = &self.circuit.implementations[i];
            let z = imp.signal.index();
            let current = bit(&self.code, z);
            let now = imp.next_value_words(&self.code, current) != current;
            if bit(&self.excited, i) && !now && z != s {
                return Err(WalkOutcome::DisabledOutput {
                    signal: imp.signal,
                    step,
                });
            }
            set_bit(&mut self.excited, i, now);
        }
        Ok(())
    }
}

/// The covers an implementation's gates evaluate.
fn covers(kind: &ImplKind) -> Vec<&si_boolean::Cover> {
    match kind {
        ImplKind::Combinational { cover, .. } => vec![cover],
        ImplKind::CLatch { set, reset } => set.iter().chain(reset).collect(),
        ImplKind::GcLatch { set, reset } => vec![set, reset],
        ImplKind::GatedLatch { data, control } => vec![data, control],
    }
}

/// Row `i` of a flat table of `width`-word rows.
fn row(table: &[u64], i: usize, width: usize) -> &[u64] {
    &table[i * width..(i + 1) * width]
}

fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

fn set_bit(words: &mut [u64], i: usize, on: bool) {
    let mask = 1 << (i % 64);
    if on {
        words[i / 64] |= mask;
    } else {
        words[i / 64] &= !mask;
    }
}

/// The index of the `k`-th set bit of `words`, counting from 0 in
/// ascending order.
fn nth_one(words: &[u64], mut k: usize) -> usize {
    for (w, &word) in words.iter().enumerate() {
        let ones = word.count_ones() as usize;
        if k < ones {
            let mut rest = word;
            for _ in 0..k {
                rest &= rest - 1;
            }
            return w * 64 + rest.trailing_zeros() as usize;
        }
        k -= ones;
    }
    unreachable!("fewer than k + 1 set bits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use si_boolean::{Cover, Cube};
    use si_core::{synthesize, SignalImplementation, SynthesisOptions};
    use si_stg::generators::{burst, clatch, muller_pipeline, philosophers, selector, sequencer};

    /// The walk the step kernel replaced, kept as its oracle: it lists the
    /// enabled transitions and the excited outputs afresh at every step,
    /// evaluates every implementation before and after each firing, and
    /// draws its move from the list.
    mod reference {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::Rng;
        use si_boolean::Bits;
        use si_core::Circuit;
        use si_petri::TransId;
        use si_stg::{SignalId, SignalKind, Stg};

        use super::WalkOutcome;

        pub fn walk(
            stg: &Stg,
            circuit: &Circuit,
            mut code: Bits,
            steps: usize,
            rng: &mut StdRng,
            mut trace: Option<&mut Vec<TransId>>,
        ) -> WalkOutcome {
            let net = stg.net();
            let mut marking = net.initial_marking();

            let excited = |code: &Bits| -> Vec<SignalId> {
                circuit
                    .implementations
                    .iter()
                    .filter(|imp| {
                        imp.next_value(code, code.get(imp.signal.index()))
                            != code.get(imp.signal.index())
                    })
                    .map(|imp| imp.signal)
                    .collect()
            };

            for step in 0..steps {
                let enabled = net.enabled_transitions(&marking);
                let excited_now = excited(&code);

                for &z in &excited_now {
                    let target = !code.get(z.index());
                    let ok = enabled.iter().any(|&t| {
                        stg.signal_of(t) == z && stg.direction_of(t).target_value() == target
                    });
                    if !ok {
                        return WalkOutcome::UnexpectedOutput { signal: z, step };
                    }
                }

                let mut moves: Vec<TransId> = Vec::new();
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

                let excited_after = excited(&code);
                for &z in &excited_now {
                    if z != fired_sig && !excited_after.contains(&z) {
                        return WalkOutcome::DisabledOutput { signal: z, step };
                    }
                }
            }
            WalkOutcome::Clean { steps }
        }
    }

    /// Runs `walks` walks of `steps` steps on the step kernel and on the
    /// reference walk, each drawing from its own generator seeded with
    /// `seed`, and asserts that every walk ends alike, fires the same
    /// transitions and leaves the generators in the same state. Returns
    /// the last walk's outcome, after checking that [`walks_from`] reports
    /// it too.
    fn lockstep(
        stg: &Stg,
        circuit: &Circuit,
        walks: usize,
        steps: usize,
        seed: u64,
    ) -> WalkOutcome {
        let code0 = initial_code(&Engine::new(stg)).expect("initial code");
        let mut kernel = WalkKernel::new(stg, circuit);
        let mut ours = StdRng::seed_from_u64(seed);
        let mut theirs = StdRng::seed_from_u64(seed);
        let mut outcome = WalkOutcome::Clean { steps };
        for walk in 0..walks {
            let case = format!("{} seed {seed} walk {walk}", stg.name());
            let (mut got_trace, mut want_trace) = (Vec::new(), Vec::new());
            let got = kernel.walk(&code0, steps, &mut ours, Some(&mut got_trace));
            let want = reference::walk(
                stg,
                circuit,
                code0.clone(),
                steps,
                &mut theirs,
                Some(&mut want_trace),
            );
            assert_eq!(got, want, "{case}");
            assert_eq!(got_trace, want_trace, "{case}");
            let draw = |rng: &StdRng| rng.clone().next_u64();
            assert_eq!(draw(&ours), draw(&theirs), "{case}: draws");
            outcome = want;
            if !outcome.is_clean() {
                break;
            }
        }
        assert_eq!(
            walks_from(stg, circuit, code0, walks, steps, seed),
            outcome,
            "{} seed {seed}: walks_from",
            stg.name()
        );
        outcome
    }

    fn synthesized(stg: &Stg) -> Circuit {
        synthesize(stg, &SynthesisOptions::default())
            .unwrap()
            .circuit
    }

    /// The five sabotages of one implementation, by name: a constant 1
    /// (the universe), a constant 0 (the inverted universe), every cover
    /// of its kind emptied, its set and reset swapped (an inverted gate, a
    /// gated latch's data and control), and the OR of the other signals.
    fn sabotages(stg: &Stg, imp: &SignalImplementation) -> Vec<(&'static str, ImplKind)> {
        let w = stg.signal_count();
        let constant = |inverted| ImplKind::Combinational {
            cover: Cover::universe(w),
            inverted,
        };
        let emptied = match &imp.kind {
            ImplKind::Combinational { inverted, .. } => ImplKind::Combinational {
                cover: Cover::empty(w),
                inverted: *inverted,
            },
            ImplKind::CLatch { set, reset } => ImplKind::CLatch {
                set: vec![Cover::empty(w); set.len()],
                reset: vec![Cover::empty(w); reset.len()],
            },
            ImplKind::GcLatch { .. } => ImplKind::GcLatch {
                set: Cover::empty(w),
                reset: Cover::empty(w),
            },
            ImplKind::GatedLatch { .. } => ImplKind::GatedLatch {
                data: Cover::empty(w),
                control: Cover::empty(w),
            },
        };
        let swapped = match imp.kind.clone() {
            ImplKind::Combinational { cover, inverted } => ImplKind::Combinational {
                cover,
                inverted: !inverted,
            },
            ImplKind::CLatch { set, reset } => ImplKind::CLatch {
                set: reset,
                reset: set,
            },
            ImplKind::GcLatch { set, reset } => ImplKind::GcLatch {
                set: reset,
                reset: set,
            },
            ImplKind::GatedLatch { data, control } => ImplKind::GatedLatch {
                data: control,
                control: data,
            },
        };
        let others = stg
            .signals()
            .filter(|&s| s != imp.signal)
            .map(|s| Cube::literal(w, s.index(), true));
        vec![
            ("universe", constant(false)),
            ("inverted universe", constant(true)),
            ("empty cover", emptied),
            ("swapped set/reset", swapped),
            (
                "or of the other signals",
                ImplKind::Combinational {
                    cover: Cover::from_cubes(w, others),
                    inverted: false,
                },
            ),
        ]
    }

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
        assert_eq!(
            outcome,
            WalkOutcome::UnexpectedOutput { signal: z, step: 1 }
        );
    }

    /// `random_walks` (4 walks × 4000 steps) of `stg`'s circuit with its
    /// `index`-th implementation replaced by the sabotage called `name`.
    fn sabotaged_walks(stg: &Stg, index: usize, name: &str, seed: u64) -> WalkOutcome {
        let mut circuit = synthesize(stg, &SynthesisOptions::default())
            .unwrap()
            .circuit;
        let (_, kind) = sabotages(stg, &circuit.implementations[index])
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("a sabotage of that name");
        circuit.implementations[index].kind = kind;
        random_walks(stg, &circuit, 4, 4000, seed)
    }

    #[test]
    fn sabotaged_walks_fail_where_pinned() {
        use si_stg::generators::{muller_pipeline, philosophers};
        let stg = muller_pipeline(3);
        let outcome = sabotaged_walks(&stg, 0, "or of the other signals", 0);
        let signal = stg.signal_by_name("c0").unwrap();
        assert_eq!(outcome, WalkOutcome::UnexpectedOutput { signal, step: 3 });
        // A firing of another signal withdraws done2's own excitation.
        let stg = philosophers(4);
        let outcome = sabotaged_walks(&stg, 2, "or of the other signals", 1);
        let signal = stg.signal_by_name("done2").unwrap();
        assert_eq!(outcome, WalkOutcome::DisabledOutput { signal, step: 31 });
        // done0 never rises, so its philosopher's forks are never returned.
        let stg = philosophers(3);
        let outcome = sabotaged_walks(&stg, 0, "empty cover", 4);
        assert_eq!(outcome, WalkOutcome::Deadlock { step: 17 });
    }

    #[test]
    fn kernel_walks_in_lockstep_with_the_reference() {
        let mut specs = si_stg::benchmarks::synthesizable_suite();
        specs.extend([
            clatch(12),
            muller_pipeline(9),
            burst(5),
            philosophers(4),
            philosophers(7),
        ]);
        for stg in &specs {
            let circuit = synthesized(stg);
            for seed in [1, 2, 3, 7] {
                let outcome = lockstep(stg, &circuit, 4, 4000, seed);
                assert!(outcome.is_clean(), "{}: {outcome:?}", stg.name());
            }
        }
    }

    /// More than 64 signals and transitions (and, on selector(70), more
    /// than 64 implementations): every set of the kernel spans several
    /// words. The circuits are the state-based complex gates, which a
    /// debug build derives in seconds where the structural flow takes
    /// minutes on selector(70).
    #[test]
    fn kernel_walks_in_lockstep_across_words() {
        for stg in [sequencer(40), selector(70)] {
            assert!(stg.signal_count() > 64, "{}", stg.name());
            assert!(stg.net().transition_count() > 128, "{}", stg.name());
            let circuit = Engine::new(&stg)
                .synthesize_state_based(si_core::BaselineFlavor::ComplexGateExact)
                .unwrap()
                .circuit;
            let outcome = lockstep(&stg, &circuit, 4, 4000, 7);
            assert!(outcome.is_clean(), "{}: {outcome:?}", stg.name());
            let last = circuit.implementations.len() - 1;
            for (name, kind) in sabotages(&stg, &circuit.implementations[last]) {
                let mut sabotaged = circuit.clone();
                sabotaged.implementations[last].kind = kind;
                let outcome = lockstep(&stg, &sabotaged, 4, 1000, 7);
                assert!(!outcome.is_clean(), "{} {name}", stg.name());
            }
        }
    }

    #[test]
    fn sabotaged_kernel_walks_in_lockstep_with_the_reference() {
        let mut specs = si_stg::benchmarks::synthesizable_suite();
        specs.push(philosophers(4));
        let mut seen = [false; 4];
        for stg in &specs {
            let circuit = synthesized(stg);
            for i in 0..circuit.implementations.len() {
                for (_, kind) in sabotages(stg, &circuit.implementations[i]) {
                    let mut sabotaged = circuit.clone();
                    sabotaged.implementations[i].kind = kind;
                    for seed in 0..6 {
                        seen[match lockstep(stg, &sabotaged, 4, 500, seed) {
                            WalkOutcome::Clean { .. } => 0,
                            WalkOutcome::UnexpectedOutput { .. } => 1,
                            WalkOutcome::DisabledOutput { .. } => 2,
                            WalkOutcome::Deadlock { .. } => 3,
                        }] = true;
                    }
                }
            }
        }
        assert_eq!(seen, [true; 4], "clean, unexpected, disabled, deadlock");
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
