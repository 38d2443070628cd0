//! Symbolic reachability: the BDD backend of the explicit explorer.
//!
//! The explicit engines of [`crate::reach`] enumerate markings one by one,
//! so highly concurrent nets pay for every interleaving — an artifact of
//! the representation, not of the question being asked. This module
//! answers the same reachability queries *without enumerating states*: a
//! safe marking over `np` places is a vertex of `{0,1}^np`, the reachable
//! set is one BDD over place variables, and the set grows by **symbolic
//! image iteration** with per-transition relation BDDs built straight from
//! the [`FiringView`] masks.
//!
//! Variable order interleaves the two state rails — current-state variable
//! of place `p` at level `2·pos(p)`, next-state at `2·pos(p)+1` — which
//! keeps every transition relation `O(np)` nodes (each place contributes a
//! constant band of the frame condition `x'_p ↔ x_p`). The position
//! `pos(p)` comes from a **structural ordering heuristic**: a DFS preorder
//! of the place flow graph (`p → q` when some transition consumes `p` and
//! produces `q`) started from the initially marked places, so the places
//! of one sequential component sit on adjacent levels whatever order the
//! net was declared in. Raw declaration order is quadratically to
//! exponentially worse on parsed `.g` files, whose implicit places arrive
//! grouped by *transition* rather than by component. One image step is the
//! classical relational product,
//!
//! ```text
//! Img_t(S) = (∃ current . S ∧ T_t)[next := current]
//! ```
//!
//! fused into a single [`Bdd::and_exists`] pass plus an order-preserving
//! [`Bdd::rename`].
//!
//! The explicit explorer remains the **oracle**: on every net both
//! backends can finish, [`SymbolicReach::state_count`] equals
//! [`crate::ReachabilityGraph::state_count`], safeness verdicts coincide,
//! and per-transition enabledness agrees state for state — pinned by the
//! differential suite in `tests/prop_symbolic.rs`.
//!
//! # Governance
//!
//! The fixpoint honors the soft [`Budget`] limits (deadline, cancellation,
//! byte ceiling) with one amortized check per iteration, and interruption
//! is the same *tagged partial verdict* as everywhere else: the build
//! returns `Ok` with [`SymbolicReach::interrupt`] set and the reached set
//! grown so far — a certified underapproximation. The explicit state
//! **cap does not apply**: a cap bounds enumeration, and nothing is
//! enumerated here (breaking that wall is the point of the backend; pair
//! the build with a deadline when the BDD itself might blow up).
//!
//! # Examples
//!
//! ```
//! use si_petri::{Budget, PetriNet, ReachabilityGraph, SymbolicReach};
//!
//! let mut b = PetriNet::builder();
//! let p0 = b.add_place("idle", true);
//! let p1 = b.add_place("busy", false);
//! let go = b.add_transition("go");
//! let done = b.add_transition("done");
//! b.arc_pt(p0, go);
//! b.arc_tp(go, p1);
//! b.arc_pt(p1, done);
//! b.arc_tp(done, p0);
//! let net = b.build();
//!
//! let sym = SymbolicReach::build(&net)?;
//! let rg = ReachabilityGraph::build(&net, 100)?;
//! assert_eq!(sym.state_count(), rg.state_count() as u128);
//! assert!(sym.contains(&net.initial_marking()));
//! # Ok::<(), si_petri::ReachError>(())
//! ```

use crate::budget::{Budget, Interrupt, InterruptReason};
use crate::net::{Marking, PetriNet, TransId};
use crate::reach::ReachError;
use si_boolean::{Bdd, BddRef, Bits, BDD_FALSE, BDD_TRUE};
use si_fault::fail_trigger;
use std::time::Instant;

/// Approximate bytes per live BDD node — the same order-of-magnitude
/// accounting the explicit explorers use for their arenas. A node takes
/// 12 bytes in the arena (up to 24 with the `Vec`'s spare capacity) and
/// 8 to 16 bytes of unique-table slots (a `u32` per slot, the table
/// between a quarter and a half full). The computed table is capped at
/// 1 MiB whatever the node count. 64 bytes over-counts this on purpose,
/// so a byte ceiling trips early rather than late.
const BYTES_PER_NODE: usize = 64;

/// The symbolically computed reachable set of a safe net, with the
/// artifacts needed to answer membership, cardinality, enabledness and
/// safeness queries — and to let the signal-level layer (si-stg) run
/// further fixpoints over the same manager.
#[derive(Debug)]
pub struct SymbolicReach {
    bdd: Bdd,
    np: usize,
    nt: usize,
    aux: usize,
    /// The reachable set over current-state variables (partial when
    /// `interrupted` is set).
    reached: BddRef,
    /// The initial marking as a cube over current-state variables.
    initial: BddRef,
    /// Per-transition enabling condition `•t ⊆ m` over current variables.
    enabled: Vec<BddRef>,
    /// Per-transition relation over current+next variables.
    relations: Vec<BddRef>,
    /// Per-transition safeness-violation predicate
    /// `En_t ∧ (m ∩ (t• \ •t) ≠ ∅)`, `BDD_FALSE` when `t` cannot violate.
    violates: Vec<BddRef>,
    /// All current-state variables (the quantification set of one image).
    current_vars: Bits,
    /// The next→current substitution (`2k+1 → 2k`, identity elsewhere).
    rename_down: Vec<u32>,
    /// Place → rail position: the structural variable order (DFS preorder
    /// of the place flow graph; place `p`'s current variable is
    /// `2·pos[p]`).
    pos: Vec<usize>,
    iterations: usize,
    peak_nodes: usize,
    interrupted: Option<Interrupt>,
    /// Build start, so interrupts can report elapsed wall time.
    started: Instant,
}

/// The structural variable-ordering heuristic: DFS preorder of the place
/// flow graph (`p → q` when some transition consumes `p` and produces
/// `q`), started from the initially marked places, then from any place
/// left unvisited. Returns `pos` with `pos[p]` = rail position of place
/// `p`. Declaration order is a hostage to the input syntax (a parsed `.g`
/// file groups implicit places by transition, striping every sequential
/// component across the whole rail); the DFS follows token flow instead,
/// so a component's places land on adjacent levels.
fn flow_order(net: &PetriNet) -> Vec<usize> {
    let fv = net.firing_view();
    let np = fv.place_count();
    let word_bit = |mask: &[u64], p: usize| mask[p / 64] >> (p % 64) & 1 == 1;
    // Place successors via each consuming transition's postset.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); np];
    for t in 0..fv.transition_count() {
        let (pre, post) = (fv.pre(t), fv.post(t));
        for p in (0..np).filter(|&p| word_bit(pre, p)) {
            succ[p].extend((0..np).filter(|&q| word_bit(post, q)));
        }
    }
    let m0 = net.initial_marking();
    let mut pos = vec![usize::MAX; np];
    let mut next = 0;
    let mut stack = Vec::new();
    let roots = (0..np).filter(|&p| m0.get(p)).chain(0..np);
    for root in roots {
        if pos[root] != usize::MAX {
            continue;
        }
        stack.push(root);
        while let Some(p) = stack.pop() {
            if pos[p] != usize::MAX {
                continue;
            }
            pos[p] = next;
            next += 1;
            // Reversed so the first declared successor is visited first.
            stack.extend(succ[p].iter().rev().filter(|&&q| pos[q] == usize::MAX));
        }
    }
    debug_assert_eq!(next, np, "every place gets a position");
    pos
}

impl SymbolicReach {
    /// Computes the full reachable set of `net` with an unbounded budget.
    ///
    /// # Errors
    ///
    /// [`ReachError::NotSafe`] when a reachable firing would duplicate a
    /// token — the same verdict the explicit explorer gives.
    pub fn build(net: &PetriNet) -> Result<SymbolicReach, ReachError> {
        SymbolicReach::build_with(net, &Budget::unbounded())
    }

    /// Computes the reachable set under `budget`'s soft limits (deadline,
    /// cancellation, byte ceiling), checked once per fixpoint iteration.
    /// On exhaustion the partial set is returned `Ok` with
    /// [`SymbolicReach::interrupt`] tagged — the PR 6 inconclusive
    /// verdict, not an error. `budget.cap` is ignored (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// [`ReachError::NotSafe`] as [`SymbolicReach::build`].
    pub fn build_with(net: &PetriNet, budget: &Budget) -> Result<SymbolicReach, ReachError> {
        SymbolicReach::build_with_aux(net, budget, 0)
    }

    /// Like [`SymbolicReach::build_with`], with `aux` extra variables
    /// appended after the two state rails (levels `2·np ..`). The fixpoint
    /// itself never touches them; they give a downstream layer (si-stg's
    /// signal coding) room to build relations over the same manager.
    ///
    /// # Errors
    ///
    /// [`ReachError::NotSafe`] as [`SymbolicReach::build`].
    pub fn build_with_aux(
        net: &PetriNet,
        budget: &Budget,
        aux: usize,
    ) -> Result<SymbolicReach, ReachError> {
        let _span = si_obs::span("symbolic.build");
        let t0 = Instant::now();
        let fv = net.firing_view();
        let np = fv.place_count();
        let nt = fv.transition_count();
        let width = 2 * np + aux;
        let mut bdd = Bdd::new(width);

        // The structural variable order, and its inverse: `order[k]` is
        // the place on rail position `k`. Every cube/relation below is
        // built walking `order` from the highest position down so each
        // `mk` stays below the running root.
        let pos = flow_order(net);
        let mut order = vec![0usize; np];
        for (p, &k) in pos.iter().enumerate() {
            order[k] = p;
        }

        // The initial marking as a cube over the current rail.
        let m0 = net.initial_marking();
        let mut initial = BDD_TRUE;
        for &p in order.iter().rev() {
            let cur = 2 * pos[p];
            initial = if m0.get(p) {
                bdd.mk_node(cur, BDD_FALSE, initial)
            } else {
                bdd.mk_node(cur, initial, BDD_FALSE)
            };
        }

        // Per-transition artifacts straight from the firing-view masks.
        let mut enabled = Vec::with_capacity(nt);
        let mut relations = Vec::with_capacity(nt);
        let mut violates = Vec::with_capacity(nt);
        let word_bit = |mask: &[u64], p: usize| mask[p / 64] >> (p % 64) & 1 == 1;
        for t in 0..nt {
            let (pre, post, gain) = (fv.pre(t), fv.post(t), fv.gain(t));
            // En_t = ∧_{p ∈ •t} x_p.
            let mut en = BDD_TRUE;
            // T_t, built in one descending pass: each place contributes its
            // band of literals / frame condition on the interleaved rails.
            let mut rel = BDD_TRUE;
            for &p in order.iter().rev() {
                let (cur, nxt) = (2 * pos[p], 2 * pos[p] + 1);
                let (in_pre, in_post) = (word_bit(pre, p), word_bit(post, p));
                if in_pre {
                    en = bdd.mk_node(cur, BDD_FALSE, en);
                }
                rel = match (in_pre, in_post) {
                    // p ∈ •t ∩ t•: consumed and reproduced — x_p ∧ x'_p.
                    (true, true) => {
                        let hi = bdd.mk_node(nxt, BDD_FALSE, rel);
                        bdd.mk_node(cur, BDD_FALSE, hi)
                    }
                    // p ∈ •t \ t•: consumed — x_p ∧ ¬x'_p.
                    (true, false) => {
                        let hi = bdd.mk_node(nxt, rel, BDD_FALSE);
                        bdd.mk_node(cur, BDD_FALSE, hi)
                    }
                    // p ∈ t• \ •t: produced — x'_p (x_p free; the safeness
                    // check below guarantees x_p = 0 on every state the
                    // relation is ever applied to).
                    (false, true) => bdd.mk_node(nxt, BDD_FALSE, rel),
                    // p untouched: frame condition x'_p ↔ x_p.
                    (false, false) => {
                        let lo = bdd.mk_node(nxt, rel, BDD_FALSE);
                        let hi = bdd.mk_node(nxt, BDD_FALSE, rel);
                        bdd.mk_node(cur, lo, hi)
                    }
                };
            }
            // Violation: t enabled with a token already on a gained place.
            let mut gain_any = BDD_FALSE;
            for (p, &k) in pos.iter().enumerate() {
                if word_bit(gain, p) {
                    let lit = bdd.literal(2 * k, true);
                    gain_any = bdd.or(gain_any, lit);
                }
            }
            let viol = bdd.and(en, gain_any);
            enabled.push(en);
            relations.push(rel);
            violates.push(viol);
        }

        let current_vars = Bits::from_ones(width, (0..np).map(|k| 2 * k));
        let mut rename_down: Vec<u32> = (0..width as u32).collect();
        for k in 0..np {
            rename_down[2 * k + 1] = 2 * k as u32;
        }

        let mut sym = SymbolicReach {
            bdd,
            np,
            nt,
            aux,
            reached: initial,
            initial,
            enabled,
            relations,
            violates,
            current_vars,
            rename_down,
            pos,
            iterations: 0,
            peak_nodes: 0,
            interrupted: None,
            started: t0,
        };
        sym.peak_nodes = sym.bdd.node_count();
        sym.fixpoint(budget)?;
        if si_obs::enabled() {
            si_obs::counter_add("symbolic.iterations", sym.iterations as u64);
            si_obs::gauge_max("symbolic.peak_nodes", sym.peak_nodes as i64);
            si_obs::gauge_set("symbolic.live_nodes", sym.bdd.node_count() as i64);
            let (hits, misses) = sym.bdd.cache_stats();
            si_obs::counter_add("bdd.cache_hits", hits);
            si_obs::counter_add("bdd.cache_misses", misses);
        }
        Ok(sym)
    }

    /// The symbolic image iteration: grows `reached` frontier by frontier
    /// until stable, with one amortized governance check per iteration and
    /// the per-iteration safeness sweep (the explicit explorer's NotSafe
    /// verdict, detected before the offending firing is ever imaged).
    fn fixpoint(&mut self, budget: &Budget) -> Result<(), ReachError> {
        let soft = budget.has_soft_limits();
        let mut frontier = self.reached;
        loop {
            if soft {
                if let Some(reason) = budget.check_soft(self.bdd.node_count() * BYTES_PER_NODE) {
                    self.interrupted = Some(self.interrupt_now(budget, reason));
                    return Ok(());
                }
            }
            // Failpoint: simulate the budget bursting at this iteration
            // (`fail_trigger!` compiles to nothing without the
            // `failpoints` feature) — the csc::evaluate-style injection
            // site of the symbolic path.
            if fail_trigger!("symbolic::iterate", self.iterations as u64) {
                self.interrupted = Some(self.interrupt_now(budget, InterruptReason::Cancelled));
                return Ok(());
            }
            // Safeness sweep over the frontier: a state enabling t with a
            // token already on a gained place is the same defect the
            // explicit engine reports, and it must surface *before* the
            // bogus successor (token loss under the mask rule) spreads.
            for t in 0..self.nt {
                if self.violates[t] != BDD_FALSE {
                    let hit = self.bdd.and(frontier, self.violates[t]);
                    if hit != BDD_FALSE {
                        return Err(ReachError::NotSafe {
                            transition: TransId(t as u32),
                        });
                    }
                }
            }
            let mut new = BDD_FALSE;
            for t in 0..self.nt {
                let img = self.image(frontier, t);
                new = self.bdd.or(new, img);
            }
            let fresh = self.bdd.diff(new, self.reached);
            if fresh == BDD_FALSE {
                return Ok(());
            }
            self.reached = self.bdd.or(self.reached, fresh);
            frontier = fresh;
            self.iterations += 1;
            let nodes = self.bdd.node_count();
            // Per-iteration observation rides the same amortization as
            // the governance check above (one relaxed load when off).
            si_obs::histogram_record(
                "symbolic.node_growth",
                nodes.saturating_sub(self.peak_nodes) as u64,
            );
            self.peak_nodes = self.peak_nodes.max(nodes);
        }
    }

    /// The tagged partial verdict at the current point of the fixpoint.
    fn interrupt_now(&self, budget: &Budget, reason: InterruptReason) -> Interrupt {
        Interrupt {
            reason,
            states_explored: self.state_count().min(usize::MAX as u128) as usize,
            elapsed: budget.elapsed_since(self.started, Some(reason)),
        }
    }

    /// One-transition image `Img_t(set)` over current-state variables.
    pub fn image(&mut self, set: BddRef, t: usize) -> BddRef {
        let shifted = self
            .bdd
            .and_exists(set, self.relations[t], &self.current_vars);
        self.bdd.rename(shifted, &self.rename_down)
    }

    /// The reflexive-transitive closure of `seed` under the transition
    /// subset `transitions`, within the already-reached set — the
    /// secondary fixpoint the signal-coding layer runs per signal. Honors
    /// the same per-iteration governance as the main build.
    ///
    /// # Errors
    ///
    /// The tagged [`Interrupt`] when a soft budget limit fires mid-closure.
    pub fn closure(
        &mut self,
        seed: BddRef,
        transitions: &[usize],
        budget: &Budget,
    ) -> Result<BddRef, Interrupt> {
        let soft = budget.has_soft_limits();
        let mut acc = seed;
        let mut frontier = seed;
        loop {
            if soft {
                if let Some(reason) = budget.check_soft(self.bdd.node_count() * BYTES_PER_NODE) {
                    return Err(self.interrupt_now(budget, reason));
                }
            }
            let mut new = BDD_FALSE;
            for &t in transitions {
                let img = self.image(frontier, t);
                new = self.bdd.or(new, img);
            }
            let fresh = self.bdd.diff(new, acc);
            if fresh == BDD_FALSE {
                return Ok(acc);
            }
            acc = self.bdd.or(acc, fresh);
            frontier = fresh;
        }
    }

    /// Number of places (current-state variables).
    pub fn place_count(&self) -> usize {
        self.np
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.nt
    }

    /// Number of auxiliary variables appended after the state rails.
    pub fn aux_count(&self) -> usize {
        self.aux
    }

    /// The manager level of place `p`'s current-state variable
    /// (`2·pos(p)` under the structural variable order).
    pub fn current_var(&self, p: usize) -> usize {
        2 * self.pos[p]
    }

    /// The manager level of auxiliary variable `j` (`2·np + j`).
    pub fn aux_var(&self, j: usize) -> usize {
        2 * self.np + j
    }

    /// The reachable-set BDD over current-state variables (an
    /// underapproximation when [`SymbolicReach::interrupt`] is set).
    pub fn reached(&self) -> BddRef {
        self.reached
    }

    /// The initial marking as a cube over current-state variables.
    pub fn initial(&self) -> BddRef {
        self.initial
    }

    /// The enabling condition `•t ⊆ m` of transition `t`.
    pub fn enabled_bdd(&self, t: usize) -> BddRef {
        self.enabled[t]
    }

    /// The set of current-state variables (for quantification by the
    /// signal-coding layer).
    pub fn current_vars(&self) -> &Bits {
        &self.current_vars
    }

    /// Shared access to the underlying manager.
    pub fn bdd(&self) -> &Bdd {
        &self.bdd
    }

    /// Mutable access to the underlying manager (the signal-coding layer
    /// builds its own constraints over the same variable space).
    pub fn bdd_mut(&mut self) -> &mut Bdd {
        &mut self.bdd
    }

    /// Reachable-state cardinality via [`Bdd::sat_count_within`] over the
    /// current-state variables — exact, without enumeration, and immune
    /// to the next/auxiliary rails inflating the count.
    pub fn state_count(&self) -> u128 {
        self.bdd.sat_count_within(self.reached, &self.current_vars)
    }

    /// Whether the fixpoint ran to completion (no budget interruption).
    pub fn is_complete(&self) -> bool {
        self.interrupted.is_none()
    }

    /// The tagged partial verdict, if a soft budget limit stopped the
    /// fixpoint early (`states_explored` is the partial set's cardinality,
    /// saturating at `usize::MAX`).
    pub fn interrupt(&self) -> Option<Interrupt> {
        self.interrupted
    }

    /// Fixpoint iterations run (the state-graph depth when complete).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Peak live node count of the manager across the build.
    pub fn peak_nodes(&self) -> usize {
        self.peak_nodes
    }

    /// The assignment encoding of `m` over the manager's variable space
    /// (place `p` on its current-state level; next/aux rails zero).
    pub fn assignment_of(&self, m: &Marking) -> Bits {
        Bits::from_ones(
            2 * self.np + self.aux,
            m.iter_ones().map(|p| 2 * self.pos[p]),
        )
    }

    /// Is `m` in the (possibly partial) reached set?
    pub fn contains(&self, m: &Marking) -> bool {
        self.bdd.eval(self.reached, &self.assignment_of(m))
    }

    /// Is transition `t` enabled at `m` (pure mask query, no reachability)?
    pub fn is_enabled_at(&self, t: usize, m: &Marking) -> bool {
        self.bdd.eval(self.enabled[t], &self.assignment_of(m))
    }

    /// Cardinality of the symbolic excitation region of `t`: reachable
    /// states enabling `t` (matches
    /// [`crate::ReachabilityGraph::states_enabling`]`.count_ones()`).
    pub fn er_count(&mut self, t: usize) -> u128 {
        let er = self.bdd.and(self.reached, self.enabled[t]);
        self.bdd.sat_count_within(er, &self.current_vars)
    }
}
