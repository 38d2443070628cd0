//! Symbolic signal coding on top of the BDD reachable set.
//!
//! [`si_petri::SymbolicReach`] answers the marking-level questions
//! (cardinality, safeness, enabledness) without enumerating states; this
//! module lifts the *signal* interpretation to the same representation so
//! the coding questions of §II-C/§II-D — signal values, excitation and
//! quiescent regions, USC/CSC — are answered symbolically too.
//!
//! The construction mirrors the explicit [`crate::StateEncoding`]
//! constraint propagation, but as restricted fixpoints over the one BDD
//! manager:
//!
//! 1. **Initial values.** `Rₐ` = closure of the initial marking under every
//!    transition *not* of signal `a` — the states reachable before `a`
//!    first switches. If `a+` is enabled somewhere in `Rₐ` the initial
//!    value is 0; if `a-` is, it is 1; both ⇒ inconsistent, neither ⇒
//!    `a` never fires and the encoding is undetermined (the same verdicts
//!    [`crate::EncodingError`] reports).
//! 2. **Value sets.** `V1ₐ` = closure, under every non-`a` transition, of
//!    all `a+` successor states (plus the initial cube when `a` starts
//!    at 1); `V0ₐ` dually. Consistency holds iff `V1ₐ`/`V0ₐ` partition the
//!    reachable set and no `a+` is enabled inside `V1ₐ` (nor `a-` inside
//!    `V0ₐ`) — otherwise the explicit encoding would contradict itself on
//!    some state.
//! 3. **Code relation.** With one auxiliary BDD variable `vₐ` per signal,
//!    `code_rel = R ∧ ⋀ₐ (vₐ ↔ V1ₐ)` relates every reachable marking to
//!    its binary code. Quantifying the marking variables away leaves the
//!    *code space*; its cardinality over the auxiliary rail counts
//!    distinct codes, so USC holds iff it equals the state count, and a
//!    CSC conflict for synthesized `a` is one relational product per
//!    signal: some code both excites and does not excite `a`.
//!
//! The explicit oracles ([`crate::StateEncoding`], [`crate::CodingAnalysis`],
//! [`crate::SignalRegions`]) pin every one of these answers in the
//! differential suite `crates/petri/tests/prop_symbolic.rs`.
//!
//! # Examples
//!
//! ```
//! use si_stg::generators::clatch;
//! use si_stg::symbolic::SymbolicAnalysis;
//!
//! let stg = clatch(4); // 2^5 = 32 states
//! let sym = SymbolicAnalysis::build(&stg)?;
//! assert_eq!(sym.state_count(), 32);
//! assert!(sym.consistency().is_consistent());
//! assert_eq!(sym.has_usc(), Some(true));
//! assert_eq!(sym.has_csc(), Some(true));
//! # Ok::<(), si_petri::ReachError>(())
//! ```

use crate::signal::{Direction, SignalId};
use crate::stg::Stg;
use si_boolean::{BddRef, Bits, BDD_FALSE};
use si_petri::{Budget, Interrupt, Marking, ReachError, SymbolicReach, TransId};

/// The symbolic consistency verdict — the BDD counterpart of
/// [`crate::EncodingError`], plus [`SymbolicConsistency::Unknown`] when a
/// budget interrupt stopped the coding fixpoints before a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymbolicConsistency {
    /// A unique consistent binary encoding exists.
    Consistent,
    /// The encoding contradicts itself on `signal` (switchover error or
    /// autoconcurrency — the explicit oracle's `Inconsistent`).
    Inconsistent {
        /// The signal whose value assignment is contradictory.
        signal: SignalId,
    },
    /// `signal` never switches, so its value is not determined by the
    /// behaviour (the explicit oracle's `Undetermined`).
    Undetermined {
        /// The signal with no reachable transition occurrence.
        signal: SignalId,
    },
    /// A soft budget limit interrupted the coding fixpoints; no verdict.
    Unknown,
}

impl SymbolicConsistency {
    /// Is the verdict [`SymbolicConsistency::Consistent`]?
    pub fn is_consistent(self) -> bool {
        matches!(self, SymbolicConsistency::Consistent)
    }
}

/// The symbolic signal-coding analysis of an STG: the reachable set of the
/// underlying net plus, when the encoding is consistent, per-signal value
/// sets and the code relation — everything needed to answer value, ER/QR
/// membership and USC/CSC queries without enumerating a single state.
#[derive(Debug)]
pub struct SymbolicAnalysis {
    reach: SymbolicReach,
    nsig: usize,
    /// Per-transition symbolic excitation region `R ∧ En_t`.
    er_t: Vec<BddRef>,
    /// Per-signal pure enabledness `⋁_{t ∈ T_a} En_t` (not intersected
    /// with the reachable set).
    en_any: Vec<BddRef>,
    /// Per-signal, per-direction enabledness.
    en_rise: Vec<BddRef>,
    en_fall: Vec<BddRef>,
    /// Per-signal value sets (meaningful only when `consistency` is
    /// `Consistent`; `BDD_FALSE` placeholders otherwise).
    v1: Vec<BddRef>,
    v0: Vec<BddRef>,
    initial_values: Vec<bool>,
    consistency: SymbolicConsistency,
    distinct_codes: Option<u128>,
    csc_conflicts: Option<Vec<SignalId>>,
    peak_nodes: usize,
    interrupt: Option<Interrupt>,
}

impl SymbolicAnalysis {
    /// Runs the full symbolic analysis with an unbounded budget.
    ///
    /// # Errors
    ///
    /// [`ReachError::NotSafe`] when the underlying net is not safe — the
    /// same verdict the explicit explorer gives.
    pub fn build(stg: &Stg) -> Result<SymbolicAnalysis, ReachError> {
        SymbolicAnalysis::build_with(stg, &Budget::unbounded())
    }

    /// Runs the symbolic analysis under `budget`'s soft limits (deadline,
    /// cancellation, byte ceiling — the explicit state cap does not apply,
    /// see [`si_petri::SymbolicReach`]). Interruption at any fixpoint is
    /// the tagged partial verdict: the build returns `Ok` with
    /// [`SymbolicAnalysis::interrupt`] set, [`SymbolicAnalysis::reach`]
    /// holding the set grown so far, and every coding query answering
    /// `None`/[`SymbolicConsistency::Unknown`].
    ///
    /// # Errors
    ///
    /// [`ReachError::NotSafe`] as [`SymbolicAnalysis::build`].
    pub fn build_with(stg: &Stg, budget: &Budget) -> Result<SymbolicAnalysis, ReachError> {
        let _span = si_obs::span("symbolic.analysis");
        let nsig = stg.signal_count();
        let mut reach = SymbolicReach::build_with_aux(stg.net(), budget, nsig)?;
        // What the reachability build already counted: the work below
        // runs on the same manager and is counted on top.
        let (hits0, misses0) = reach.bdd().cache_stats();
        let nt = reach.transition_count();

        // Per-transition ERs and per-signal enabledness disjunctions are
        // cheap and meaningful even on a partial reached set.
        let reached = reach.reached();
        let mut er_t = Vec::with_capacity(nt);
        for t in 0..nt {
            let en = reach.enabled_bdd(t);
            er_t.push(reach.bdd_mut().and(reached, en));
        }
        let mut en_any = vec![BDD_FALSE; nsig];
        let mut en_rise = vec![BDD_FALSE; nsig];
        let mut en_fall = vec![BDD_FALSE; nsig];
        for t in 0..nt {
            let tid = TransId(t as u32);
            let a = stg.signal_of(tid).index();
            let en = reach.enabled_bdd(t);
            en_any[a] = reach.bdd_mut().or(en_any[a], en);
            match stg.direction_of(tid) {
                Direction::Rise => en_rise[a] = reach.bdd_mut().or(en_rise[a], en),
                Direction::Fall => en_fall[a] = reach.bdd_mut().or(en_fall[a], en),
            }
        }

        let mut sym = SymbolicAnalysis {
            reach,
            nsig,
            er_t,
            en_any,
            en_rise,
            en_fall,
            v1: vec![BDD_FALSE; nsig],
            v0: vec![BDD_FALSE; nsig],
            initial_values: vec![false; nsig],
            consistency: SymbolicConsistency::Unknown,
            distinct_codes: None,
            csc_conflicts: None,
            peak_nodes: 0,
            interrupt: None,
        };
        if sym.reach.is_complete() {
            sym.coding_layer(stg, budget);
        } else {
            sym.interrupt = sym.reach.interrupt();
        }
        sym.peak_nodes = sym.reach.peak_nodes().max(sym.reach.bdd().node_count());
        if si_obs::enabled() {
            let (hits, misses) = sym.reach.bdd().cache_stats();
            si_obs::counter_add("bdd.cache_hits", hits - hits0);
            si_obs::counter_add("bdd.cache_misses", misses - misses0);
            si_obs::gauge_max("symbolic.peak_nodes", sym.peak_nodes as i64);
            si_obs::gauge_set("symbolic.live_nodes", sym.reach.bdd().node_count() as i64);
        }
        Ok(sym)
    }

    /// Derives initial values, value sets, the code relation and the
    /// USC/CSC verdicts; sets `consistency` to the first failure found.
    fn coding_layer(&mut self, stg: &Stg, budget: &Budget) {
        let _span = si_obs::span("symbolic.coding");
        let nt = self.reach.transition_count();
        // Transition indices grouped per signal.
        let mut rise_of: Vec<Vec<usize>> = vec![Vec::new(); self.nsig];
        let mut fall_of: Vec<Vec<usize>> = vec![Vec::new(); self.nsig];
        for t in 0..nt {
            let tid = TransId(t as u32);
            let a = stg.signal_of(tid).index();
            match stg.direction_of(tid) {
                Direction::Rise => rise_of[a].push(t),
                Direction::Fall => fall_of[a].push(t),
            }
        }
        let others_of = |a: usize| -> Vec<usize> {
            (0..nt)
                .filter(|&t| stg.signal_of(TransId(t as u32)).index() != a)
                .collect()
        };

        let initial = self.reach.initial();
        let reached = self.reach.reached();
        for a in 0..self.nsig {
            let others = others_of(a);
            // R_a: reachable before a's first switch.
            let r_a = match self.reach.closure(initial, &others, budget) {
                Ok(r) => r,
                Err(i) => {
                    self.interrupt = Some(i);
                    return;
                }
            };
            let can_rise = self.reach.bdd_mut().and(r_a, self.en_rise[a]) != BDD_FALSE;
            let can_fall = self.reach.bdd_mut().and(r_a, self.en_fall[a]) != BDD_FALSE;
            let init_val = match (can_rise, can_fall) {
                (true, false) => false,
                (false, true) => true,
                (true, true) => {
                    self.consistency = SymbolicConsistency::Inconsistent {
                        signal: SignalId(a as u16),
                    };
                    return;
                }
                (false, false) => {
                    self.consistency = SymbolicConsistency::Undetermined {
                        signal: SignalId(a as u16),
                    };
                    return;
                }
            };
            self.initial_values[a] = init_val;

            // V1_a / V0_a: closures of the a± successor sets (plus the
            // initial cube on its side) under every non-a transition.
            let mut seed1 = if init_val { initial } else { BDD_FALSE };
            for &t in &rise_of[a] {
                let img = self.reach.image(reached, t);
                seed1 = self.reach.bdd_mut().or(seed1, img);
            }
            let mut seed0 = if init_val { BDD_FALSE } else { initial };
            for &t in &fall_of[a] {
                let img = self.reach.image(reached, t);
                seed0 = self.reach.bdd_mut().or(seed0, img);
            }
            let (v1, v0) = match (
                self.reach.closure(seed1, &others, budget),
                self.reach.closure(seed0, &others, budget),
            ) {
                (Ok(v1), Ok(v0)) => (v1, v0),
                (Err(i), _) | (_, Err(i)) => {
                    self.interrupt = Some(i);
                    return;
                }
            };

            // Consistency of the value assignment: V1/V0 partition the
            // reachable set, and no transition is enabled towards the
            // value its source already has (autoconcurrency).
            let bdd = self.reach.bdd_mut();
            let overlap = bdd.and(v1, v0);
            let union = bdd.or(v1, v0);
            let rise_in_v1 = bdd.and(v1, self.en_rise[a]);
            let fall_in_v0 = bdd.and(v0, self.en_fall[a]);
            if overlap != BDD_FALSE
                || union != reached
                || rise_in_v1 != BDD_FALSE
                || fall_in_v0 != BDD_FALSE
            {
                self.consistency = SymbolicConsistency::Inconsistent {
                    signal: SignalId(a as u16),
                };
                return;
            }
            self.v1[a] = v1;
            self.v0[a] = v0;
        }
        self.consistency = SymbolicConsistency::Consistent;

        // Code relation: every reachable marking paired with its binary
        // code on the auxiliary rail.
        let mut code_rel = reached;
        for a in 0..self.nsig {
            let var = self.reach.aux_var(a);
            let v1 = self.v1[a];
            let bdd = self.reach.bdd_mut();
            let lit = bdd.literal(var, true);
            let eq = bdd.iff(lit, v1);
            code_rel = bdd.and(code_rel, eq);
        }
        let current = self.reach.current_vars().clone();
        let width = self.reach.bdd().width();
        let codespace = self.reach.bdd_mut().exists(code_rel, &current);
        let aux_vars = Bits::from_ones(width, (0..self.nsig).map(|a| self.reach.aux_var(a)));
        let distinct = self.reach.bdd().sat_count_within(codespace, &aux_vars);
        self.distinct_codes = Some(distinct);

        // CSC: a conflict for synthesized a is a code with both an
        // exciting and a non-exciting reachable marking.
        let mut conflicts = Vec::new();
        for s in stg.synthesized_signals() {
            let a = s.index();
            let bdd = self.reach.bdd_mut();
            let excited = bdd.and(code_rel, self.en_any[a]);
            let excited_codes = bdd.exists(excited, &current);
            let quiet = bdd.not(self.en_any[a]);
            let quiet = bdd.and(code_rel, quiet);
            let quiet_codes = bdd.exists(quiet, &current);
            if bdd.and(excited_codes, quiet_codes) != BDD_FALSE {
                conflicts.push(s);
            }
        }
        self.csc_conflicts = Some(conflicts);
    }

    /// The underlying marking-level reachable set.
    pub fn reach(&self) -> &SymbolicReach {
        &self.reach
    }

    /// Reachable-state cardinality (of the partial set when interrupted).
    pub fn state_count(&self) -> u128 {
        self.reach.state_count()
    }

    /// Fixpoint iterations of the main reachability build.
    pub fn iterations(&self) -> usize {
        self.reach.iterations()
    }

    /// Peak live node count across reachability *and* coding fixpoints.
    pub fn peak_nodes(&self) -> usize {
        self.peak_nodes
    }

    /// Did every fixpoint (reachability and coding) run to completion?
    pub fn is_complete(&self) -> bool {
        self.interrupt.is_none()
    }

    /// The tagged partial verdict, if a soft budget limit fired.
    pub fn interrupt(&self) -> Option<Interrupt> {
        self.interrupt
    }

    /// The symbolic consistency verdict.
    pub fn consistency(&self) -> SymbolicConsistency {
        self.consistency
    }

    /// The initial value of `signal`, when the encoding is consistent.
    pub fn initial_value(&self, signal: SignalId) -> Option<bool> {
        self.consistency
            .is_consistent()
            .then(|| self.initial_values[signal.index()])
    }

    /// The value of `signal` at marking `m`, when the encoding is
    /// consistent (meaningful for reachable `m`).
    pub fn value(&self, signal: SignalId, m: &Marking) -> Option<bool> {
        self.consistency.is_consistent().then(|| {
            self.reach
                .bdd()
                .eval(self.v1[signal.index()], &self.reach.assignment_of(m))
        })
    }

    /// Is `m` reachable (in the possibly partial set)?
    pub fn contains(&self, m: &Marking) -> bool {
        self.reach.contains(m)
    }

    /// Is `m` in the excitation region of transition `t` — reachable with
    /// `t` enabled?
    pub fn in_er(&self, t: TransId, m: &Marking) -> bool {
        self.reach
            .bdd()
            .eval(self.er_t[t.index()], &self.reach.assignment_of(m))
    }

    /// Is any transition of `signal` enabled at `m` (pure mask query)?
    pub fn is_excited(&self, signal: SignalId, m: &Marking) -> bool {
        self.reach
            .bdd()
            .eval(self.en_any[signal.index()], &self.reach.assignment_of(m))
    }

    /// Is `m` in the generalized quiescent region of `signal` at value
    /// `v` — reachable, carrying value `v`, with no transition of the
    /// signal enabled? `None` when the encoding is not consistent.
    pub fn in_qr(&self, signal: SignalId, v: bool, m: &Marking) -> Option<bool> {
        let value = self.value(signal, m)?;
        Some(self.contains(m) && value == v && !self.is_excited(signal, m))
    }

    /// Cardinality of the symbolic excitation region of transition `t`.
    pub fn er_count(&self, t: TransId) -> u128 {
        self.reach
            .bdd()
            .sat_count_within(self.er_t[t.index()], self.reach.current_vars())
    }

    /// Number of distinct reachable binary codes (`None` until the coding
    /// layer completes on a consistent encoding).
    pub fn distinct_code_count(&self) -> Option<u128> {
        self.distinct_codes
    }

    /// Does unique state coding hold? Distinct codes equal reachable
    /// states exactly when no two states share a code.
    pub fn has_usc(&self) -> Option<bool> {
        self.distinct_codes.map(|d| d == self.state_count())
    }

    /// Does complete state coding hold (no synthesized signal with a
    /// conflicting code)?
    pub fn has_csc(&self) -> Option<bool> {
        self.csc_conflicts.as_ref().map(|c| c.is_empty())
    }

    /// The synthesized signals with at least one CSC conflict.
    pub fn csc_conflict_signals(&self) -> Option<&[SignalId]> {
        self.csc_conflicts.as_deref()
    }
}
