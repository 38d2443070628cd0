//! The generic state-space layer: one lazy-successor abstraction and one
//! sequential explorer behind every traversal.
//!
//! Reachability-graph construction, speed-independence verification and
//! product-automaton conformance checking are all the same computation —
//! enumerate the states reachable from an initial packed state, watch for
//! violations along the way — yet they historically each hand-rolled their
//! own loop. This module factors the traversal out:
//!
//! * [`StateSpace`] — a state space as data: a packed-word state format,
//!   an [`initial`](StateSpace::initial) state, a lazy
//!   [`for_each_successor`](StateSpace::for_each_successor) function and a
//!   [`Verdict`]-producing [`inspect`](StateSpace::inspect) hook;
//! * [`explore`] — the explorer (LIFO frontier + marking-style interner,
//!   the exact discipline of the word-parallel reachability engine);
//! * [`ExploreOptions`] / [`Exploration`] — one knob set (budget, violation
//!   budget, edge recording, witness reconstruction) and one result shape
//!   for every client.
//!
//! ```text
//!    spaces                     explorer                 clients
//!   ┌───────────────┐     ┌──────────────────────┐    ┌──────────────────┐
//!   │ MarkingSpace  │────▶│ explore              │───▶│ ReachabilityGraph│
//!   │ (firing rule) │  ┌─▶│ (LIFO frontier,      │    │ ::build          │
//!   ├───────────────┤  │  │  interned states)    │    ├──────────────────┤
//!   │ SI-verify     │──┤  │                      │───▶│ EngineVerify::   │
//!   │ (rg walk)     │  │  │                      │    │   verify         │
//!   ├───────────────┤  │  │                      │    ├──────────────────┤
//!   │ spec×circuit  │──┤  │                      │───▶│ conform::        │
//!   │ product       │  │  │                      │    │   check_*        │
//!   ├───────────────┤  │  │                      │    ├──────────────────┤
//!   │ CFSM channel  │──┘  │                      │───▶│ si_proto::       │
//!   │ protocols     │     └──────────────────────┘    │   check_deadlock │
//!   └───────────────┘                                 └──────────────────┘
//! ```
//!
//! The abstraction is not Petri-net shaped: `si_proto::ProtoSpace` packs
//! communicating finite-state machines (module control states + channel
//! slots) into the same word format and gets deadlock checking from this
//! explorer unchanged.
//!
//! The explorer interns states in one flat word arena, supports a state
//! cap, stops early once the violation budget is spent, and can
//! reconstruct a firing-sequence **witness** (the label path from the
//! initial state to any discovered state) — which is how verification and
//! conformance reports grow counterexample traces for free.

use crate::budget::{Budget, Interrupt, InterruptReason};
use crate::net::{FiringView, PetriNet, TransId};
use crate::reach::{MarkingInterner, ReachError, StateId};
use si_boolean::hash_word_slice;
use std::time::{Duration, Instant};

/// How often (in explored states) the explorer consults the soft budget
/// limits (deadline / cancellation / bytes).
const GOVERN_STRIDE: usize = 256;

/// Outcome of inspecting one state.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Nothing wrong at this state; keep exploring.
    Continue,
    /// The state violates the property under check (details are reported
    /// through the visitor's [`SpaceVisitor::violation`] channel).
    Violation,
}

/// Receiver of one state's expansion: the explorer hands an implementation
/// of this to [`StateSpace::for_each_successor`] and
/// [`StateSpace::inspect`].
pub trait SpaceVisitor<V> {
    /// A successor reached by firing `label`. Returns `false` when the
    /// space must stop enumerating — implementations of
    /// [`StateSpace::for_each_successor`] must return `Ok(())`
    /// immediately in that case. The explorer buffers each successor and
    /// interns them once the state is expanded, so it returns `false` only
    /// after a [`Self::violation`] whose flush of that buffer hit the cap.
    fn successor(&mut self, label: u32, next: &[u64]) -> bool;

    /// A non-fatal violation observed at the current state (or on one of
    /// its outgoing edges).
    fn violation(&mut self, v: V);
}

/// A lazily-defined state space over packed `u64`-word states.
///
/// Implementations define *what* the states and successors are;
/// [`explore`] defines *how* the space is walked.
///
/// States are fixed-width word vectors ([`Self::words`] words each): the
/// explorer interns them in a flat arena exactly like reachability
/// markings, so a space never sees its own visited set — it only maps a
/// state to its successors (and violations).
pub trait StateSpace {
    /// The violation payload this space can report — speed-independence
    /// violations, conformance failures, or [`ReachError`] for the plain
    /// marking space.
    type Violation;

    /// Words per packed state.
    fn words(&self) -> usize;

    /// The initial packed state.
    fn initial(&self) -> Vec<u64>;

    /// Per-state verdict hook, called once when a state is explored,
    /// before its successors are enumerated. Report the details of each
    /// violation through `sink`, and return [`Verdict::Violation`] iff
    /// any was reported: the explorer then re-checks the violation budget
    /// immediately, so a spent budget (e.g.
    /// [`ExploreOptions::max_violations`]`(1)`) skips even this state's
    /// successor expansion.
    ///
    /// The default implementation reports nothing.
    fn inspect<Vis: SpaceVisitor<Self::Violation>>(
        &self,
        state: &[u64],
        sink: &mut Vis,
    ) -> Verdict {
        let _ = (state, sink);
        Verdict::Continue
    }

    /// Enumerates the successors of `state` in canonical (ascending label)
    /// order, calling `visit.successor(label, next)` for each. `scratch`
    /// is a caller-provided buffer of [`Self::words`] words for building
    /// successor states without per-call allocation. Non-fatal per-edge
    /// violations go through `visit.violation`.
    ///
    /// # Errors
    ///
    /// A **fatal** violation (one that invalidates the whole exploration,
    /// like a safeness violation of the underlying net) aborts the
    /// traversal and is returned as the explorer's error.
    fn for_each_successor<Vis: SpaceVisitor<Self::Violation>>(
        &self,
        state: &[u64],
        scratch: &mut [u64],
        visit: &mut Vis,
    ) -> Result<(), Self::Violation>;
}

/// Tuning knobs of a generic exploration — one surface for every client.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Resource budget: state cap, approximate byte ceiling, wall-clock
    /// deadline, cooperative cancellation. Exhausting any dimension
    /// *interrupts* the exploration — the partial result is returned,
    /// tagged with [`Exploration::interrupted`].
    pub budget: Budget,
    /// Stop exploring new states once this many violations were collected
    /// (`usize::MAX` = exhaustive). `1` is the early-exit-on-first-
    /// violation mode.
    pub max_violations: usize,
    /// Record the full labelled successor adjacency — needed by
    /// reachability-graph construction, wasted on verdict-only clients.
    pub record_edges: bool,
    /// Record each state's discovering edge so
    /// [`Exploration::witness`] can reconstruct a firing sequence from
    /// the initial state.
    pub witness: bool,
}

impl ExploreOptions {
    /// Exhaustive exploration with the given state cap, no edge
    /// recording, no witnesses.
    pub fn with_cap(cap: usize) -> Self {
        ExploreOptions {
            budget: Budget::with_cap(cap),
            max_violations: usize::MAX,
            record_edges: false,
            witness: false,
        }
    }

    /// Replaces the whole resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the violation budget (`1` = stop at the first violation).
    pub fn max_violations(mut self, max: usize) -> Self {
        self.max_violations = max;
        self
    }

    /// Enables successor-adjacency recording.
    pub fn record_edges(mut self) -> Self {
        self.record_edges = true;
        self
    }

    /// Enables witness (firing-sequence) reconstruction.
    pub fn witness(mut self) -> Self {
        self.witness = true;
        self
    }
}

impl From<crate::ReachOptions> for ExploreOptions {
    fn from(r: crate::ReachOptions) -> Self {
        ExploreOptions::with_cap(r.cap()).budget(r.budget)
    }
}

impl From<&crate::ReachOptions> for ExploreOptions {
    fn from(r: &crate::ReachOptions) -> Self {
        ExploreOptions::from(r.clone())
    }
}

/// Sentinel parent of the initial state.
const NO_PARENT: u32 = u32::MAX;

/// Result of a generic exploration — everything any client needs:
/// the interned states, the optional adjacency, the violations (tagged
/// with the state they were observed at) and the parent links for
/// witness reconstruction.
///
/// State ids are dense `u32`s in discovery order; id `0` is the initial
/// state.
#[derive(Debug)]
pub struct Exploration<V> {
    /// The interned states: state `s` is key `s`.
    interner: MarkingInterner,
    /// Successor edges `(label, dst)` when
    /// [`ExploreOptions::record_edges`]; state `s` owns
    /// `succ_edges[succ_ranges[s].0 .. succ_ranges[s].1]`.
    pub(crate) succ_edges: Vec<(u32, u32)>,
    /// Per-state `(start, end)` ranges into [`Self::succ_edges`].
    pub(crate) succ_ranges: Vec<(u32, u32)>,
    /// Per-state discovering edge `(parent, label)` when
    /// [`ExploreOptions::witness`]; the initial state's parent is
    /// [`NO_PARENT`].
    pub(crate) parents: Vec<(u32, u32)>,
    /// Violations in discovery order, tagged with the id of the state
    /// they were observed at.
    pub violations: Vec<(u32, V)>,
    /// `Some(reason)` when the exploration stopped because a
    /// [`Budget`] dimension ran out (cap, deadline, cancellation,
    /// bytes) — the result is *partial* but valid: every recorded state,
    /// edge, witness and violation is real.
    pub interrupted: Option<InterruptReason>,
    /// Number of states explored (capped at the budget's state cap).
    pub states: usize,
    /// Wall time the exploration ran (set whether or not it completed,
    /// so partial verdicts can report elapsed time alongside
    /// [`Self::states`]); a deadline interrupt counts from the moment the
    /// deadline was armed ([`Budget::elapsed_since`]).
    pub elapsed: Duration,
}

impl<V> Exploration<V> {
    /// The packed words of state `s`.
    pub fn key(&self, s: u32) -> &[u64] {
        self.interner.key(s as usize)
    }

    /// The interruption, if any, paired with the number of states the
    /// partial result covers — ready for a "no violation in the N states
    /// explored" verdict.
    pub fn interrupt(&self) -> Option<Interrupt> {
        self.interrupted.map(|reason| Interrupt {
            reason,
            states_explored: self.states,
            elapsed: self.elapsed,
        })
    }

    /// Whether the exploration was truncated by the state cap
    /// (compatibility shorthand for matching on [`Self::interrupted`]).
    pub fn cap_exceeded(&self) -> bool {
        self.interrupted == Some(InterruptReason::CapExceeded)
    }

    /// Number of states interned (on a capped run this can exceed
    /// [`Self::states`] by the one state that burst the cap).
    pub fn interned(&self) -> usize {
        self.interner.len()
    }

    /// Decomposes an exploration into its interner and recorded adjacency
    /// — the packing path of [`crate::ReachabilityGraph::build`].
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_interned_parts(self) -> (MarkingInterner, Vec<(u32, u32)>, Vec<(u32, u32)>) {
        (self.interner, self.succ_edges, self.succ_ranges)
    }

    /// The firing sequence (label path) from the initial state to `s`,
    /// reconstructed from the recorded discovering edges.
    ///
    /// # Panics
    ///
    /// Panics if the exploration ran without [`ExploreOptions::witness`].
    pub fn witness(&self, s: u32) -> Vec<u32> {
        assert!(
            !self.parents.is_empty() || self.interner.len() == 0,
            "exploration ran without witness recording"
        );
        let mut labels = Vec::new();
        let mut cur = s;
        while cur != 0 {
            let (p, l) = self.parents[cur as usize];
            debug_assert_ne!(p, NO_PARENT, "unreachable state in witness chain");
            labels.push(l);
            cur = p;
        }
        labels.reverse();
        labels
    }
}

/// The explorer: LIFO frontier over an interned flat-arena visited set —
/// the exact discipline (and state numbering) of the word-parallel
/// reachability engine, for any [`StateSpace`].
///
/// # Errors
///
/// The first fatal violation returned by
/// [`StateSpace::for_each_successor`]. Budget exhaustion (cap, deadline,
/// cancellation, bytes) is **not** an error: the partial exploration is
/// returned, tagged [`Exploration::interrupted`].
pub fn explore<S: StateSpace>(
    space: &S,
    opts: ExploreOptions,
) -> Result<Exploration<S::Violation>, S::Violation> {
    let _span = si_obs::span("explore.sequential");
    let t0 = Instant::now();
    let nw = space.words();
    // Without edges no hit needs its id, so one-word states can sit in
    // their slots.
    let mut interner = if nw == 1 && !opts.record_edges {
        MarkingInterner::keyed()
    } else {
        MarkingInterner::new(nw)
    };
    let init = space.initial();
    debug_assert_eq!(init.len(), nw);
    let s0 = interner.insert_hashed(&init, hash_word_slice(&init));
    debug_assert_eq!(s0, Some(StateId(0)));

    let mut sink = SequentialSink {
        interner,
        frontier: vec![0u32],
        succ_edges: Vec::new(),
        succ_ranges: if opts.record_edges {
            vec![(0, 0)]
        } else {
            Vec::new()
        },
        parents: if opts.witness {
            vec![(NO_PARENT, 0)]
        } else {
            Vec::new()
        },
        violations: Vec::new(),
        states: 1,
        interrupted: None,
        src: 0,
        record_edges: opts.record_edges,
        witness: opts.witness,
        cap: opts.budget.cap,
        nw,
        pending: Vec::new(),
        pending_keys: Vec::new(),
    };
    let mut cur = vec![0u64; nw];
    let mut scratch = vec![0u64; nw];
    // Soft limits (deadline/cancel/bytes) are consulted once per
    // GOVERN_STRIDE explored states, never per state — an unbounded
    // budget costs one branch per stride. Progress heartbeats piggyback
    // on the same checkpoint, so arming them adds no per-state branch.
    let governed = opts.budget.has_soft_limits();
    let ticking = si_obs::progress_armed();
    let checkpointed = governed || ticking;
    let mut explored = 0usize;

    while let Some(s) = sink.frontier.pop() {
        if sink.violations.len() >= opts.max_violations || sink.interrupted.is_some() {
            break;
        }
        if checkpointed && explored.is_multiple_of(GOVERN_STRIDE) {
            if governed {
                if let Some(reason) = opts.budget.check_soft(sink.approx_bytes()) {
                    sink.interrupted = Some(reason);
                    break;
                }
            }
            if ticking {
                si_obs::progress_tick(explored, sink.frontier.len() + 1);
            }
        }
        explored += 1;
        cur.copy_from_slice(sink.interner.key(s as usize));
        sink.src = s;
        // A violating verdict counts against the budget immediately: a
        // spent budget skips even this state's successor expansion.
        if space.inspect(&cur, &mut sink) == Verdict::Violation
            && sink.violations.len() >= opts.max_violations
        {
            break;
        }
        let start = sink.succ_edges.len() as u32;
        let expanded = space.for_each_successor(&cur, &mut scratch, &mut sink);
        sink.flush();
        // A flush that hit the cap stands for the one-at-a-time sink
        // stopping the space there, before it reached its error.
        if let (Err(e), None) = (expanded, sink.interrupted) {
            return Err(e);
        }
        if opts.record_edges {
            sink.succ_ranges[s as usize] = (start, sink.succ_edges.len() as u32);
        }
    }

    let states = sink.states.min(opts.budget.cap);
    if si_obs::enabled() {
        si_obs::counter_add("explore.states", states as u64);
        si_obs::counter_add("explore.edges", sink.succ_edges.len() as u64);
    }
    Ok(Exploration {
        interner: sink.interner,
        succ_edges: sink.succ_edges,
        succ_ranges: sink.succ_ranges,
        parents: sink.parents,
        violations: sink.violations,
        interrupted: sink.interrupted,
        states,
        elapsed: opts.budget.elapsed_since(t0, sink.interrupted),
    })
}

/// The explorer's visitor: interns successors, records
/// edges/parents, collects violations, enforces the cap.
///
/// It expands, then interns: [`SpaceVisitor::successor`] buffers the
/// successor with its hash, and [`Self::flush`] interns the current
/// state's buffer in one loop, in label order, once the space is done
/// with the state. The probes of that loop do not depend on each other,
/// so their cache misses overlap, and `successor` has already prefetched
/// each one's home slot. Ids, edges, parents and violations are those of
/// interning each successor as it is reported.
struct SequentialSink<V> {
    interner: MarkingInterner,
    frontier: Vec<u32>,
    succ_edges: Vec<(u32, u32)>,
    succ_ranges: Vec<(u32, u32)>,
    parents: Vec<(u32, u32)>,
    violations: Vec<(u32, V)>,
    /// States accepted (the over-cap key is interned but not accepted).
    states: usize,
    interrupted: Option<InterruptReason>,
    /// State currently being expanded.
    src: u32,
    record_edges: bool,
    witness: bool,
    cap: usize,
    /// Words per state.
    nw: usize,
    /// The current state's buffered successors `(label, hash)`, in label
    /// order; successor `i` is `pending_keys[i * nw .. (i + 1) * nw]`.
    pending: Vec<(u32, u64)>,
    pending_keys: Vec<u64>,
}

impl<V> SequentialSink<V> {
    /// Interns the buffered successors in label order, as the
    /// one-at-a-time sink would have, and empties the buffer. Sets
    /// `interrupted` and drops the rest of the buffer at the cap.
    fn flush(&mut self) {
        let mut at = 0;
        for &(label, hash) in &self.pending {
            let key = &self.pending_keys[at..at + self.nw];
            at += self.nw;
            // Only an edge needs the id of a state already interned.
            let id = if self.record_edges {
                let (id, is_new) = self.interner.intern_hashed(key, hash);
                if !is_new {
                    self.succ_edges.push((label, id.0));
                    continue;
                }
                id
            } else {
                match self.interner.insert_hashed(key, hash) {
                    Some(id) => id,
                    None => continue,
                }
            };
            if self.states >= self.cap {
                self.interrupted = Some(InterruptReason::CapExceeded);
                break;
            }
            self.states += 1;
            if self.record_edges {
                self.succ_ranges.push((0, 0));
                self.succ_edges.push((label, id.0));
            }
            if self.witness {
                self.parents.push((self.src, label));
            }
            self.frontier.push(id.0);
        }
        self.pending.clear();
        self.pending_keys.clear();
    }

    /// Approximate live bytes: state arena + interner table + recorded
    /// adjacency (the dominant allocations of an exploration).
    fn approx_bytes(&self) -> usize {
        self.interner.approx_bytes()
            + self.succ_edges.len() * 8
            + (self.succ_ranges.len() + self.parents.len() + self.frontier.len()) * 8
    }
}

impl<V> SpaceVisitor<V> for SequentialSink<V> {
    fn successor(&mut self, label: u32, next: &[u64]) -> bool {
        if self.interrupted.is_some() {
            return false;
        }
        let hash = hash_word_slice(next);
        self.interner.prefetch(hash);
        self.pending.push((label, hash));
        self.pending_keys.extend_from_slice(next);
        true
    }

    /// Flushes the buffered successors first, so the violation lands
    /// where the one-at-a-time sink put it. When that flush hits the cap,
    /// that sink would have stopped the space before this violation, so
    /// it is dropped.
    fn violation(&mut self, v: V) {
        self.flush();
        if self.interrupted.is_none() {
            self.violations.push((self.src, v));
        }
    }
}

/// The trivial state space of a Petri net's reachable markings: states are
/// markings, labels are transition indices, successors follow the firing
/// rule `(m \ •t) ∪ t•` via a [`FiringView`]. A safeness violation is
/// fatal ([`ReachError::NotSafe`]).
///
/// This is the space behind [`crate::ReachabilityGraph::build`] on nets
/// of more than 64 places; it reports no
/// [`inspect`](StateSpace::inspect) violations.
#[derive(Debug)]
pub struct MarkingSpace {
    view: FiringView,
    initial: Vec<u64>,
}

impl MarkingSpace {
    /// The marking space of `net`.
    pub fn new(net: &PetriNet) -> Self {
        MarkingSpace {
            view: net.firing_view(),
            initial: net.initial_marking().as_words().to_vec(),
        }
    }
}

impl StateSpace for MarkingSpace {
    type Violation = ReachError;

    fn words(&self) -> usize {
        self.view.words()
    }

    fn initial(&self) -> Vec<u64> {
        self.initial.clone()
    }

    fn for_each_successor<Vis: SpaceVisitor<ReachError>>(
        &self,
        m: &[u64],
        scratch: &mut [u64],
        visit: &mut Vis,
    ) -> Result<(), ReachError> {
        for ti in 0..self.view.transition_count() {
            if !self.view.is_enabled(m, ti) {
                continue;
            }
            if self.view.violates_safeness(m, ti) {
                return Err(ReachError::NotSafe {
                    transition: TransId(ti as u32),
                });
            }
            self.view.fire_into(m, ti, scratch);
            if !visit.successor(ti as u32, scratch) {
                return Ok(());
            }
        }
        Ok(())
    }
}

/// Single-word fast path of [`MarkingSpace`] for nets of at most 64
/// places: one interleaved `[pre, gain, post]` record per transition, so
/// enable / safeness / firing are a handful of scalar ALU ops.
#[derive(Debug)]
pub(crate) struct ScalarMarkingSpace {
    masks: Vec<[u64; 3]>,
    initial: u64,
}

impl ScalarMarkingSpace {
    pub(crate) fn new(net: &PetriNet) -> Self {
        debug_assert_eq!(net.initial_marking().as_words().len(), 1);
        ScalarMarkingSpace {
            masks: net
                .transitions()
                .map(|t| {
                    [
                        net.pre_mask(t).as_words()[0],
                        net.gain_mask(t).as_words()[0],
                        net.post_mask(t).as_words()[0],
                    ]
                })
                .collect(),
            initial: net.initial_marking().as_words()[0],
        }
    }
}

impl StateSpace for ScalarMarkingSpace {
    type Violation = ReachError;

    fn words(&self) -> usize {
        1
    }

    fn initial(&self) -> Vec<u64> {
        vec![self.initial]
    }

    fn for_each_successor<Vis: SpaceVisitor<ReachError>>(
        &self,
        m: &[u64],
        scratch: &mut [u64],
        visit: &mut Vis,
    ) -> Result<(), ReachError> {
        let cur = m[0];
        for (ti, &[pre, gain, post]) in self.masks.iter().enumerate() {
            if pre & !cur != 0 {
                continue; // •t ⊄ m
            }
            if gain & cur != 0 {
                return Err(ReachError::NotSafe {
                    transition: TransId(ti as u32),
                });
            }
            scratch[0] = (cur & !pre) | post;
            if !visit.successor(ti as u32, scratch) {
                return Ok(());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// p0 -> t0 -> p1 -> t1 -> p0 with a side choice p1 -> t2 -> p0.
    fn ring_with_choice() -> PetriNet {
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", false);
        let t0 = b.add_transition("t0");
        let t1 = b.add_transition("t1");
        let t2 = b.add_transition("t2");
        b.arc_pt(p0, t0);
        b.arc_tp(t0, p1);
        b.arc_pt(p1, t1);
        b.arc_tp(t1, p0);
        b.arc_pt(p1, t2);
        b.arc_tp(t2, p0);
        b.build()
    }

    #[test]
    fn sequential_marking_exploration() {
        let net = ring_with_choice();
        let space = MarkingSpace::new(&net);
        let e = explore(
            &space,
            ExploreOptions::with_cap(100).record_edges().witness(),
        )
        .unwrap();
        assert_eq!(e.states, 2);
        assert!(!e.cap_exceeded());
        assert_eq!(e.interrupt(), None);
        // State 1 (p1) discovered from state 0 by t0.
        assert_eq!(e.witness(1), vec![0]);
        assert_eq!(e.witness(0), Vec::<u32>::new());
        // Edges: s0 -t0-> s1; s1 -t1-> s0, s1 -t2-> s0.
        assert_eq!(e.succ_edges, vec![(0, 1), (1, 0), (2, 0)]);
    }

    #[test]
    fn cap_truncates() {
        let net = ring_with_choice();
        let space = MarkingSpace::new(&net);
        let e = explore(&space, ExploreOptions::with_cap(1)).unwrap();
        assert!(e.cap_exceeded());
        assert_eq!(e.states, 1);
        let i = e.interrupt().unwrap();
        assert_eq!(i.reason, InterruptReason::CapExceeded);
        assert_eq!(i.states_explored, 1);
        assert_eq!(i.elapsed, e.elapsed);
    }

    /// A space that flags every state whose low bit is set.
    struct OddFlagger;

    impl StateSpace for OddFlagger {
        type Violation = u64;

        fn words(&self) -> usize {
            1
        }

        fn initial(&self) -> Vec<u64> {
            vec![0]
        }

        fn inspect<Vis: SpaceVisitor<u64>>(&self, state: &[u64], sink: &mut Vis) -> Verdict {
            if state[0] % 2 == 1 {
                sink.violation(state[0]);
                Verdict::Violation
            } else {
                Verdict::Continue
            }
        }

        fn for_each_successor<Vis: SpaceVisitor<u64>>(
            &self,
            state: &[u64],
            scratch: &mut [u64],
            visit: &mut Vis,
        ) -> Result<(), u64> {
            if state[0] < 10 {
                scratch[0] = state[0] + 1;
                if !visit.successor(0, scratch) {
                    return Ok(());
                }
            }
            Ok(())
        }
    }

    #[test]
    fn violation_budget_stops_exploration() {
        let all = explore(&OddFlagger, ExploreOptions::with_cap(1000)).unwrap();
        assert_eq!(all.violations.len(), 5); // 1, 3, 5, 7, 9
        let first = explore(
            &OddFlagger,
            ExploreOptions::with_cap(1000).max_violations(1),
        )
        .unwrap();
        assert_eq!(first.violations.len(), 1);
        assert_eq!(first.violations[0].1, 1);
        assert!(first.states < all.states);
    }

    /// The one-successor-at-a-time sink that [`SequentialSink`] replaced,
    /// kept as the oracle of its expand-then-intern batching: every
    /// successor is interned the moment the space reports it, and the cap
    /// stops the space at once.
    mod reference {
        use super::*;

        struct OneAtATimeSink<V> {
            interner: MarkingInterner,
            frontier: Vec<u32>,
            succ_edges: Vec<(u32, u32)>,
            succ_ranges: Vec<(u32, u32)>,
            parents: Vec<(u32, u32)>,
            violations: Vec<(u32, V)>,
            states: usize,
            interrupted: Option<InterruptReason>,
            src: u32,
            record_edges: bool,
            witness: bool,
            cap: usize,
        }

        impl<V> SpaceVisitor<V> for OneAtATimeSink<V> {
            fn successor(&mut self, label: u32, next: &[u64]) -> bool {
                if self.interrupted.is_some() {
                    return false;
                }
                let (id, is_new) = self.interner.intern(next);
                if is_new {
                    if self.states >= self.cap {
                        self.interrupted = Some(InterruptReason::CapExceeded);
                        return false;
                    }
                    self.states += 1;
                    if self.record_edges {
                        self.succ_ranges.push((0, 0));
                    }
                    if self.witness {
                        self.parents.push((self.src, label));
                    }
                    self.frontier.push(id.0);
                }
                if self.record_edges {
                    self.succ_edges.push((label, id.0));
                }
                true
            }

            fn violation(&mut self, v: V) {
                self.violations.push((self.src, v));
            }
        }

        /// [`explore`]'s loop around the old sink, for budgets with a
        /// state cap only.
        pub(super) fn explore<S: StateSpace>(
            space: &S,
            opts: ExploreOptions,
        ) -> Result<Exploration<S::Violation>, S::Violation> {
            assert!(!opts.budget.has_soft_limits());
            let nw = space.words();
            let mut interner = MarkingInterner::new(nw);
            interner.intern(&space.initial());
            let mut sink = OneAtATimeSink {
                interner,
                frontier: vec![0u32],
                succ_edges: Vec::new(),
                succ_ranges: if opts.record_edges {
                    vec![(0, 0)]
                } else {
                    Vec::new()
                },
                parents: if opts.witness {
                    vec![(NO_PARENT, 0)]
                } else {
                    Vec::new()
                },
                violations: Vec::new(),
                states: 1,
                interrupted: None,
                src: 0,
                record_edges: opts.record_edges,
                witness: opts.witness,
                cap: opts.budget.cap,
            };
            let mut cur = vec![0u64; nw];
            let mut scratch = vec![0u64; nw];
            while let Some(s) = sink.frontier.pop() {
                if sink.violations.len() >= opts.max_violations || sink.interrupted.is_some() {
                    break;
                }
                cur.copy_from_slice(sink.interner.key(s as usize));
                sink.src = s;
                if space.inspect(&cur, &mut sink) == Verdict::Violation
                    && sink.violations.len() >= opts.max_violations
                {
                    break;
                }
                let start = sink.succ_edges.len() as u32;
                space.for_each_successor(&cur, &mut scratch, &mut sink)?;
                if opts.record_edges {
                    sink.succ_ranges[s as usize] = (start, sink.succ_edges.len() as u32);
                }
            }
            Ok(Exploration {
                interner: sink.interner,
                succ_edges: sink.succ_edges,
                succ_ranges: sink.succ_ranges,
                parents: sink.parents,
                violations: sink.violations,
                interrupted: sink.interrupted,
                states: sink.states.min(opts.budget.cap),
                elapsed: Duration::ZERO,
            })
        }
    }

    /// splitmix64: a seeded generator for the random nets below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random net of a few hundred markings: one token circling in each
    /// of a few state machines of the given sizes, local moves, two-machine
    /// rendezvous, and now and then a transition that moves a token between
    /// machines, so some nets reach an unsafe marking (a fatal error).
    fn random_net(rng: &mut Rng, sizes: &[usize]) -> PetriNet {
        let mut b = PetriNet::builder();
        let machines: Vec<Vec<_>> = sizes
            .iter()
            .enumerate()
            .map(|(m, &n)| {
                (0..n)
                    .map(|i| b.add_place(format!("m{m}p{i}"), i == 0))
                    .collect()
            })
            .collect();
        let mut t = 0;
        let mut arc = |b: &mut crate::net::PetriNetBuilder, moves: &[(usize, usize, usize)]| {
            let tr = b.add_transition(format!("t{t}"));
            t += 1;
            for &(m, from, to) in moves {
                b.arc_pt(machines[m][from], tr);
                b.arc_tp(tr, machines[m][to]);
            }
        };
        for (m, &n) in sizes.iter().enumerate() {
            for i in 0..n {
                arc(&mut b, &[(m, i, (i + 1) % n)]);
            }
        }
        for _ in 0..sizes.len() * 2 {
            let m = rng.below(sizes.len());
            let k = (m + 1 + rng.below(sizes.len() - 1)) % sizes.len();
            let (a, c) = (rng.below(sizes[m]), rng.below(sizes[k]));
            let (bb, d) = (rng.below(sizes[m]), rng.below(sizes[k]));
            arc(&mut b, &[(m, a, bb), (k, c, d)]);
        }
        if rng.below(2) == 0 {
            let (m, k) = (0, sizes.len() - 1);
            let tr = b.add_transition("leak");
            b.arc_pt(machines[m][rng.below(sizes[m])], tr);
            b.arc_tp(tr, machines[k][rng.below(sizes[k])]);
        }
        b.build()
    }

    /// A space over a net's markings that reports a violation at chosen
    /// states (`inspect`), a per-edge violation before chosen successors,
    /// and a fatal error at chosen edges.
    struct EdgeFlagger {
        inner: MarkingSpace,
        salt: u64,
    }

    impl EdgeFlagger {
        fn pick(&self, words: &[u64], label: u32) -> u64 {
            hash_word_slice(words) ^ self.salt.wrapping_mul(label as u64 + 1)
        }
    }

    impl StateSpace for EdgeFlagger {
        type Violation = (u32, u64);

        fn words(&self) -> usize {
            self.inner.words()
        }

        fn initial(&self) -> Vec<u64> {
            self.inner.initial()
        }

        fn inspect<Vis: SpaceVisitor<(u32, u64)>>(&self, state: &[u64], sink: &mut Vis) -> Verdict {
            if self.pick(state, u32::MAX).is_multiple_of(11) {
                sink.violation((u32::MAX, state[0]));
                return Verdict::Violation;
            }
            Verdict::Continue
        }

        fn for_each_successor<Vis: SpaceVisitor<(u32, u64)>>(
            &self,
            state: &[u64],
            scratch: &mut [u64],
            visit: &mut Vis,
        ) -> Result<(), (u32, u64)> {
            struct Collect(Vec<(u32, Vec<u64>)>);
            impl SpaceVisitor<ReachError> for Collect {
                fn successor(&mut self, label: u32, next: &[u64]) -> bool {
                    self.0.push((label, next.to_vec()));
                    true
                }
                fn violation(&mut self, _: ReachError) {}
            }
            let mut all = Collect(Vec::new());
            let _ = self.inner.for_each_successor(state, scratch, &mut all);
            for (label, next) in all.0 {
                let pick = self.pick(&next, label) ^ state[0];
                match pick % 89 {
                    0 => return Err((label, next[0])),
                    1..=12 => visit.violation((label, next[0])),
                    _ => {}
                }
                if !visit.successor(label, &next) {
                    return Ok(());
                }
                if pick.is_multiple_of(17) {
                    visit.violation((label, !next[0]));
                }
            }
            Ok(())
        }
    }

    fn assert_same<V: PartialEq + std::fmt::Debug>(
        batched: &Result<Exploration<V>, V>,
        reference: &Result<Exploration<V>, V>,
        ctx: &str,
    ) {
        match (batched, reference) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.interned(), b.interned(), "{ctx}: interned");
                for s in 0..a.interned() as u32 {
                    assert_eq!(a.key(s), b.key(s), "{ctx}: key of state {s}");
                }
                assert_eq!(a.succ_edges, b.succ_edges, "{ctx}: edges");
                assert_eq!(a.succ_ranges, b.succ_ranges, "{ctx}: ranges");
                assert_eq!(a.parents, b.parents, "{ctx}: parents");
                assert_eq!(a.violations, b.violations, "{ctx}: violations");
                assert_eq!(a.interrupted, b.interrupted, "{ctx}: interrupted");
                assert_eq!(a.states, b.states, "{ctx}: states");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}: error"),
            _ => panic!(
                "{ctx}: batched is_ok {} against reference is_ok {}",
                batched.is_ok(),
                reference.is_ok()
            ),
        }
    }

    /// Runs both sinks on `space` at every cap from 1 to one past its
    /// state count, with edges and witnesses on and off and, when
    /// `violations`, with a violation budget of 1 too. A space that fails
    /// is swept until every exhaustive run fails: a larger cap fails at
    /// the same edge.
    fn assert_sinks_agree<S: StateSpace>(space: &S, violations: bool, ctx: &str)
    where
        S::Violation: PartialEq + std::fmt::Debug,
    {
        let n = reference::explore(space, ExploreOptions::with_cap(100_000))
            .map_or(usize::MAX, |e| e.states);
        for cap in 1..=n.saturating_add(1) {
            let mut all_fail = true;
            for flags in 0..8 {
                if flags & 4 != 0 && !violations {
                    continue;
                }
                let mut opts = ExploreOptions::with_cap(cap);
                if flags & 1 != 0 {
                    opts = opts.record_edges();
                }
                if flags & 2 != 0 {
                    opts = opts.witness();
                }
                if flags & 4 != 0 {
                    opts = opts.max_violations(1);
                }
                let reference = reference::explore(space, opts.clone());
                all_fail &= flags & 4 != 0 || reference.is_err();
                let ctx = format!("{ctx}, cap {cap}, flags {flags}");
                assert_same(&explore(space, opts), &reference, &ctx);
            }
            if all_fail {
                break;
            }
            assert!(cap <= 2_000, "{ctx}: too many states for the cap sweep");
        }
    }

    #[test]
    fn batched_sink_matches_the_one_at_a_time_sink_on_random_nets() {
        let mut rng = Rng(7);
        let (mut unsafe_nets, mut failing_flaggers) = (0, 0);
        for case in 0..12 {
            // One-word nets, then nets of more than 64 places.
            let sizes: Vec<usize> = if case < 6 {
                (0..3).map(|_| 2 + rng.below(5)).collect()
            } else {
                vec![65 + rng.below(3), 2 + rng.below(2)]
            };
            let net = random_net(&mut rng, &sizes);
            let ctx = format!("case {case}, sizes {sizes:?}");
            let space = MarkingSpace::new(&net);
            assert_eq!(space.words(), if case < 6 { 1 } else { 2 }, "{ctx}");
            let full = reference::explore(&space, ExploreOptions::with_cap(100_000));
            unsafe_nets += full.is_err() as usize;
            assert_sinks_agree(&space, false, &ctx);
            if case < 6 {
                assert_sinks_agree(&ScalarMarkingSpace::new(&net), false, &ctx);
            }
            let flagger = EdgeFlagger {
                inner: space,
                salt: case as u64,
            };
            let flagged = reference::explore(&flagger, ExploreOptions::with_cap(100_000));
            failing_flaggers += flagged.is_err() as usize;
            assert_sinks_agree(&flagger, true, &format!("{ctx}, flagged"));
        }
        assert!(unsafe_nets > 0, "some net must reach an unsafe marking");
        assert!(failing_flaggers > 0, "some flagged space must fail");
        assert!(failing_flaggers < 12, "some flagged space must finish");
    }

    /// A counter from `u64::MAX - 3` that steps by 1 and by 2, wrapping
    /// through the all-ones state (which a keyed slot cannot hold) to 3,
    /// and from 3 back to the start. It flags the all-ones state.
    struct WrappingCounter;

    impl StateSpace for WrappingCounter {
        type Violation = u64;

        fn words(&self) -> usize {
            1
        }

        fn initial(&self) -> Vec<u64> {
            vec![u64::MAX - 3]
        }

        fn inspect<Vis: SpaceVisitor<u64>>(&self, state: &[u64], sink: &mut Vis) -> Verdict {
            if state[0] == u64::MAX {
                sink.violation(state[0]);
                return Verdict::Violation;
            }
            Verdict::Continue
        }

        fn for_each_successor<Vis: SpaceVisitor<u64>>(
            &self,
            state: &[u64],
            scratch: &mut [u64],
            visit: &mut Vis,
        ) -> Result<(), u64> {
            let s = state[0];
            let next = [s.wrapping_add(1), s.wrapping_add(2), u64::MAX - 3];
            for (label, &n) in next.iter().enumerate() {
                if (n >= u64::MAX - 3 || n <= 3) && (label < 2 || s == 3) {
                    scratch[0] = n;
                    if !visit.successor(label as u32, scratch) {
                        return Ok(());
                    }
                }
            }
            Ok(())
        }
    }

    #[test]
    fn batched_sink_matches_the_one_at_a_time_sink_through_the_all_ones_state() {
        let full = reference::explore(&WrappingCounter, ExploreOptions::with_cap(100)).unwrap();
        assert_eq!(full.states, 8);
        assert_eq!(full.violations, vec![(3, u64::MAX)]);
        assert_sinks_agree(&WrappingCounter, true, "wrapping counter");
    }
}
