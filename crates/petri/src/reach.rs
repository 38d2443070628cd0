//! Explicit reachability-graph construction and behavioural oracles.
//!
//! This is the *state-based* substrate that the paper's structural methods
//! avoid — and that the baselines (SIS/ASSASSIN-style flows) and all
//! ground-truth tests require. The builder enumerates reachable markings
//! breadth-first up to a configurable cap, so callers can detect "state
//! explosion" instead of hanging.
//!
//! The engine is word-parallel end to end: markings are interned through an
//! open-addressing table over a flat `u64` arena (no marking clones, no
//! per-firing allocation — the firing rule is the mask-based
//! `(m \ •t) ∪ t•` on machine words, with a scalar fast path for nets of
//! at most 64 places), adjacency is stored as flat CSR arrays, and the
//! per-transition excitation regions are indexed once at build time.
//! [`ReachabilityGraph::build_naive`] keeps the original
//! `HashMap<Marking, StateId>` + `Vec<Vec<…>>` implementation as the
//! equivalence oracle and the "before" side of the benchmark.

use crate::budget::{Budget, CancelToken, InterruptReason};
use crate::net::{Marking, PetriNet, TransId};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Tuning knobs of a reachability exploration.
///
/// `budget` governs the resources the build may consume: the state cap
/// maps to [`ReachError::StateCapExceeded`], the soft dimensions
/// (deadline, cancellation, byte ceiling) to [`ReachError::Interrupted`]
/// — a reachability *graph* is an all-or-nothing artifact, so budget
/// exhaustion is an error here even though the underlying explorer
/// returns partial results (verdict-style clients consume those).
///
/// # Examples
///
/// ```
/// use si_petri::ReachOptions;
///
/// let reach = ReachOptions::with_cap(10_000);
/// assert_eq!(reach.cap(), 10_000);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReachOptions {
    /// Resource budget of the exploration (state cap, byte ceiling,
    /// deadline, cancellation).
    pub budget: Budget,
}

impl ReachOptions {
    /// Exploration with the given state cap.
    pub fn with_cap(cap: usize) -> Self {
        ReachOptions {
            budget: Budget::with_cap(cap),
        }
    }

    /// The state cap (shorthand for `self.budget.cap`).
    pub fn cap(&self) -> usize {
        self.budget.cap
    }

    /// Replaces the whole resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets an absolute wall-clock deadline on the exploration.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.budget = self.budget.deadline(at);
        self
    }

    /// Sets the deadline `d` from now (see [`Budget::timeout`]).
    pub fn timeout(mut self, d: Duration) -> Self {
        self.budget = self.budget.timeout(d);
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.budget.cancel = Some(token);
        self
    }
}

/// Index of a marking inside a [`ReachabilityGraph`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StateId(pub u32);

impl StateId {
    /// The index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Outcome of a bounded reachability exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReachError {
    /// The exploration hit the marking cap before exhausting the state space.
    StateCapExceeded {
        /// The cap that was configured.
        cap: usize,
    },
    /// A soft budget dimension (deadline, cancellation, byte ceiling) ran
    /// out before the state space was exhausted. Not a property of the
    /// net — the analysis is *inconclusive*, and `states_explored` says
    /// how far it got.
    Interrupted {
        /// Which budget dimension ran out.
        reason: InterruptReason,
        /// States explored before the interruption.
        states_explored: usize,
        /// Wall milliseconds the exploration ran before the interruption.
        elapsed_ms: u64,
    },
    /// A transition firing produced a non-safe marking (a token added to an
    /// already-marked place).
    NotSafe {
        /// The transition whose firing violated safeness.
        transition: TransId,
    },
}

impl ReachError {
    /// Whether this error means "analysis ran out of budget" (cap, time,
    /// memory, cancellation) rather than "the net is defective" — the
    /// failed-vs-inconclusive distinction surfaced by `sisyn` exit codes.
    pub fn is_inconclusive(&self) -> bool {
        matches!(
            self,
            ReachError::StateCapExceeded { .. } | ReachError::Interrupted { .. }
        )
    }
}

impl std::fmt::Display for ReachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReachError::StateCapExceeded { cap } => {
                write!(f, "state space exceeds the cap of {cap} markings")
            }
            ReachError::Interrupted {
                reason,
                states_explored,
                elapsed_ms,
            } => {
                write!(
                    f,
                    "exploration {reason} after {states_explored} states / {elapsed_ms} ms \
                     (inconclusive)"
                )
            }
            ReachError::NotSafe { transition } => {
                write!(f, "net is not safe: firing {transition} duplicates a token")
            }
        }
    }
}

impl std::error::Error for ReachError {}

/// Open-addressing interner mapping markings to dense [`StateId`]s.
///
/// Keys live in one flat `u64` arena (`nwords` words per marking), so a
/// probe compares contiguous words — no per-marking heap pointer to chase,
/// no clones, no `Hasher` machinery. The table stores `u32` state indices
/// probed by a multiplicative hash of the words.
#[derive(Clone, Debug)]
pub(crate) struct MarkingInterner {
    /// Flat key storage: marking `s` is `words[s*nwords .. (s+1)*nwords]`.
    words: Vec<u64>,
    /// Words per marking.
    nwords: usize,
    /// Slot -> `(hash tag << 32) | state index`, `u64::MAX` = empty.
    /// Power-of-two length, kept at most half full; the tag filters out
    /// almost every colliding probe before the key words are touched.
    slots: Vec<u64>,
    mask: usize,
    len: usize,
}

const EMPTY_SLOT: u64 = u64::MAX;
const TAG_MASK: u64 = 0xffff_ffff_0000_0000;

use si_boolean::hash_word_slice as hash_key;

impl MarkingInterner {
    pub(crate) fn new(nwords: usize) -> Self {
        MarkingInterner {
            words: Vec::new(),
            nwords,
            slots: vec![EMPTY_SLOT; 64],
            mask: 63,
            len: 0,
        }
    }

    pub(crate) fn key(&self, s: usize) -> &[u64] {
        &self.words[s * self.nwords..(s + 1) * self.nwords]
    }

    /// Number of interned markings.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Approximate heap bytes held (key arena + slot table) — feeds the
    /// explorer's byte-budget accounting.
    pub(crate) fn approx_bytes(&self) -> usize {
        (self.words.len() + self.slots.len()) * 8
    }

    /// Looks up `key`; on a miss interns it as state `len` and returns
    /// `(id, true)`.
    pub(crate) fn intern(&mut self, key: &[u64]) -> (StateId, bool) {
        self.intern_hashed(key, hash_key(key))
    }

    /// [`Self::intern`] with the key's hash, `h == hash_key(key)`,
    /// computed by the caller. One probe sequence for both outcomes.
    pub(crate) fn intern_hashed(&mut self, key: &[u64], h: u64) -> (StateId, bool) {
        debug_assert_eq!(key.len(), self.nwords);
        debug_assert_eq!(h, hash_key(key));
        let tag = h & TAG_MASK;
        let mut i = (h as usize) & self.mask;
        loop {
            let e = self.slots[i];
            if e == EMPTY_SLOT {
                let id = self.len as u32;
                self.slots[i] = tag | id as u64;
                self.words.extend_from_slice(key);
                self.len += 1;
                if self.len * 2 >= self.slots.len() {
                    self.grow();
                }
                return (StateId(id), true);
            }
            if e & TAG_MASK == tag {
                let s = e as u32;
                if self.key(s as usize) == key {
                    return (StateId(s), false);
                }
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Lookup without insertion, comparing candidate keys against the
    /// caller's markings (the internal key arena is freed after the build
    /// by [`Self::drop_keys`] — see there).
    fn get(&self, key: &[u64], markings: &[Marking]) -> Option<StateId> {
        if key.len() != self.nwords {
            return None;
        }
        let h = hash_key(key);
        let tag = h & TAG_MASK;
        let mut i = (h as usize) & self.mask;
        loop {
            let e = self.slots[i];
            if e == EMPTY_SLOT {
                return None;
            }
            if e & TAG_MASK == tag {
                let s = e as u32;
                if markings[s as usize].as_words() == key {
                    return Some(StateId(s));
                }
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Frees the flat key arena. The arena exists so the *build* hot loop
    /// compares contiguous words without chasing per-marking heap pointers;
    /// once the graph is finished every key is also held by the graph's
    /// `markings` vector, so keeping both would double the dominant memory
    /// of a large graph for no benefit. Afterwards only [`Self::get`]
    /// (which compares via `markings`) may be used — not [`Self::intern`].
    fn drop_keys(&mut self) {
        self.words = Vec::new();
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        self.mask = new_len - 1;
        self.slots.clear();
        self.slots.resize(new_len, EMPTY_SLOT);
        for s in 0..self.len {
            let h = hash_key(self.key(s));
            let mut i = (h as usize) & self.mask;
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = (h & TAG_MASK) | s as u64;
        }
    }
}

/// Process-wide construction counter feeding
/// [`ReachabilityGraph::build_count`] (all engines funnel through
/// [`ReachabilityGraph::index_edges`]).
static BUILD_COUNT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// The explicit reachability graph of a safe net.
///
/// # Examples
///
/// ```
/// use si_petri::{PetriNet, ReachabilityGraph};
///
/// let mut b = PetriNet::builder();
/// let p0 = b.add_place("p0", true);
/// let p1 = b.add_place("p1", false);
/// let t0 = b.add_transition("t0");
/// let t1 = b.add_transition("t1");
/// b.arc_pt(p0, t0); b.arc_tp(t0, p1);
/// b.arc_pt(p1, t1); b.arc_tp(t1, p0);
/// let net = b.build();
/// let rg = ReachabilityGraph::build(&net, 1_000)?;
/// assert_eq!(rg.state_count(), 2);
/// # Ok::<(), si_petri::ReachError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ReachabilityGraph {
    markings: Vec<Marking>,
    interner: MarkingInterner,
    /// Per-state `(start, end)` range into `succ_edges` — filled during
    /// exploration, so no src-sort pass is needed.
    succ_ranges: Vec<(u32, u32)>,
    /// Outgoing edges `(t, successor)`; state `s` owns `succ_ranges[s]`.
    succ_edges: Vec<(TransId, StateId)>,
    /// CSR row offsets into `pred_edges`, length `state_count() + 1`.
    pred_off: Vec<u32>,
    /// Incoming edges `(t, predecessor)`, grouped by destination state.
    pred_edges: Vec<(TransId, StateId)>,
    /// CSR row offsets into `er_states`, length `transition_count + 1`.
    er_off: Vec<u32>,
    /// States enabling each transition (its excitation region), ascending.
    er_states: Vec<StateId>,
}

impl ReachabilityGraph {
    /// Explores the state space of `net` with the word-parallel engine:
    /// mask-based enable/safeness tests, allocation-free firing and interned
    /// markings.
    ///
    /// # Errors
    ///
    /// [`ReachError::StateCapExceeded`] if more than `cap` markings are
    /// reachable; [`ReachError::NotSafe`] if a firing puts a second token on
    /// a place.
    pub fn build(net: &PetriNet, cap: usize) -> Result<Self, ReachError> {
        Self::build_with(net, &Budget::with_cap(cap))
    }

    /// Maps a partial exploration's interruption tag onto the
    /// corresponding [`ReachError`] — a graph is an all-or-nothing
    /// artifact, so any interruption fails the build (carrying how far
    /// the exploration got).
    fn check_interrupt(expl: &crate::space::Exploration<ReachError>) -> Result<(), ReachError> {
        match expl.interrupted {
            None => Ok(()),
            Some(InterruptReason::CapExceeded) => {
                Err(ReachError::StateCapExceeded { cap: expl.states })
            }
            Some(reason) => Err(ReachError::Interrupted {
                reason,
                states_explored: expl.states,
                elapsed_ms: expl.elapsed.as_millis() as u64,
            }),
        }
    }

    /// Packs a marking-space [`crate::space::Exploration`] (edge
    /// recording on) into the CSR/interned representation.
    fn from_exploration(
        net: &PetriNet,
        expl: crate::space::Exploration<ReachError>,
    ) -> Result<Self, ReachError> {
        Self::check_interrupt(&expl)?;
        let np = net.place_count();
        let (interner, succ_edges, succ_ranges) = expl.into_interned_parts();
        let markings: Vec<Marking> = (0..interner.len())
            .map(|s| Marking::from_words(np, interner.key(s).to_vec()))
            .collect();
        let succ_edges = succ_edges
            .into_iter()
            .map(|(t, d)| (TransId(t), StateId(d)))
            .collect();
        Ok(Self::index_edges(
            net.transition_count(),
            markings,
            interner,
            succ_edges,
            succ_ranges,
        ))
    }

    /// Explores the state space under `budget` with the word-parallel
    /// explorer ([`crate::space::explore`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::build`], plus [`ReachError::Interrupted`]
    /// when a soft budget dimension (deadline, cancellation, byte
    /// ceiling) runs out.
    pub fn build_with(net: &PetriNet, budget: &Budget) -> Result<Self, ReachError> {
        use crate::space::{explore, ExploreOptions, MarkingSpace, ScalarMarkingSpace};
        let _span = si_obs::span("reach.build");
        si_obs::counter_inc("reach.builds");
        let opts = ExploreOptions::with_cap(budget.cap)
            .budget(budget.clone())
            .record_edges();
        let nw = net.initial_marking().as_words().len();
        let expl = if nw == 1 {
            explore(&ScalarMarkingSpace::new(net), opts)
        } else {
            explore(&MarkingSpace::new(net), opts)
        };
        Self::from_exploration(net, expl?)
    }

    /// Process-wide number of reachability-graph constructions completed so
    /// far (both engines: interned and naive).
    ///
    /// This is the **build-count hook** behind the `Engine` artifact-cache
    /// guarantee: tests snapshot it, run a synth-then-verify pipeline, and
    /// assert the graph was constructed exactly once. Monotonic, never
    /// reset; callers compare deltas, not absolute values.
    pub fn build_count() -> usize {
        BUILD_COUNT.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Builds the predecessor CSR and the excitation-region index from the
    /// successor adjacency in one fused pass over the edges.
    fn index_edges(
        nt: usize,
        markings: Vec<Marking>,
        mut interner: MarkingInterner,
        succ_edges: Vec<(TransId, StateId)>,
        succ_ranges: Vec<(u32, u32)>,
    ) -> Self {
        BUILD_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        interner.drop_keys();
        let n = markings.len();
        let mut pred_off = vec![0u32; n + 1];
        let mut er_off = vec![0u32; nt + 1];
        for &(t, d) in &succ_edges {
            pred_off[d.index() + 1] += 1;
            er_off[t.index() + 1] += 1;
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
        }
        for i in 0..nt {
            er_off[i + 1] += er_off[i];
        }
        // Scatter scanning sources ascending, so each predecessor list is
        // ordered by source state and each excitation region is ascending.
        let mut pred_cursor = pred_off.clone();
        let mut er_cursor = er_off.clone();
        let mut pred_edges = vec![(TransId(0), StateId(0)); succ_edges.len()];
        let mut er_states = vec![StateId(0); succ_edges.len()];
        for (s, &(start, end)) in succ_ranges.iter().enumerate() {
            for &(t, d) in &succ_edges[start as usize..end as usize] {
                let c = &mut pred_cursor[d.index()];
                pred_edges[*c as usize] = (t, StateId(s as u32));
                *c += 1;
                let c = &mut er_cursor[t.index()];
                er_states[*c as usize] = StateId(s as u32);
                *c += 1;
            }
        }
        ReachabilityGraph {
            markings,
            interner,
            succ_ranges,
            succ_edges,
            pred_off,
            pred_edges,
            er_off,
            er_states,
        }
    }

    /// The original textbook implementation: `HashMap<Marking, StateId>`
    /// interning with per-place enable/fire loops. Kept verbatim as the
    /// equivalence oracle for property tests and as the "before" side of
    /// `BENCH_substrates.json`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::build`].
    pub fn build_naive(net: &PetriNet, cap: usize) -> Result<Self, ReachError> {
        let m0 = net.initial_marking();
        let mut markings = vec![m0.clone()];
        let mut index = HashMap::new();
        index.insert(m0, StateId(0));
        let mut succs: Vec<Vec<(TransId, StateId)>> = vec![Vec::new()];
        let mut frontier = vec![StateId(0)];
        while let Some(s) = frontier.pop() {
            let m = markings[s.index()].clone();
            for t in net.transitions() {
                if !net.is_enabled_naive(&m, t) {
                    continue;
                }
                // Safeness: a postset place outside the preset must be empty.
                for p in net.post_t(t) {
                    if m.get(p.index()) && !net.pre_t(t).contains(p) {
                        return Err(ReachError::NotSafe { transition: t });
                    }
                }
                let m2 = net.fire_naive(&m, t);
                let id = match index.get(&m2) {
                    Some(&id) => id,
                    None => {
                        let id = StateId(markings.len() as u32);
                        if markings.len() >= cap {
                            return Err(ReachError::StateCapExceeded { cap });
                        }
                        markings.push(m2.clone());
                        index.insert(m2, id);
                        succs.push(Vec::new());
                        frontier.push(id);
                        id
                    }
                };
                succs[s.index()].push((t, id));
            }
        }
        Ok(Self::from_adjacency(
            net.transition_count(),
            markings,
            &succs,
        ))
    }

    /// Packs naive adjacency lists into the CSR/interned representation.
    pub(crate) fn from_adjacency(
        nt: usize,
        markings: Vec<Marking>,
        succs: &[Vec<(TransId, StateId)>],
    ) -> Self {
        let mut interner = MarkingInterner::new(markings[0].as_words().len());
        for m in &markings {
            interner.intern(m.as_words());
        }
        let mut succ_edges: Vec<(TransId, StateId)> = Vec::new();
        let mut succ_ranges: Vec<(u32, u32)> = Vec::with_capacity(succs.len());
        for out in succs {
            let start = succ_edges.len() as u32;
            succ_edges.extend_from_slice(out);
            succ_ranges.push((start, succ_edges.len() as u32));
        }
        Self::index_edges(nt, markings, interner, succ_edges, succ_ranges)
    }

    /// Number of reachable markings.
    pub fn state_count(&self) -> usize {
        self.markings.len()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ_edges.len()
    }

    /// The marking of a state.
    pub fn marking(&self, s: StateId) -> &Marking {
        &self.markings[s.index()]
    }

    /// Looks up the state of a marking.
    pub fn state_of(&self, m: &Marking) -> Option<StateId> {
        if self.markings.is_empty() || m.len() != self.markings[0].len() {
            return None;
        }
        self.interner.get(m.as_words(), &self.markings)
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.state_count() as u32).map(StateId)
    }

    /// Outgoing edges of a state.
    pub fn successors(&self, s: StateId) -> &[(TransId, StateId)] {
        let (start, end) = self.succ_ranges[s.index()];
        &self.succ_edges[start as usize..end as usize]
    }

    /// Incoming edges of a state.
    pub fn predecessors(&self, s: StateId) -> &[(TransId, StateId)] {
        &self.pred_edges[self.pred_off[s.index()] as usize..self.pred_off[s.index() + 1] as usize]
    }

    /// States at which `t` is enabled (the excitation region of `t` in
    /// Petri-net terms), ascending. Precomputed — O(1), no edge rescans.
    pub fn states_enabling(&self, t: TransId) -> &[StateId] {
        &self.er_states[self.er_off[t.index()] as usize..self.er_off[t.index() + 1] as usize]
    }

    /// Behavioural liveness: every transition can fire again from every
    /// reachable marking.
    ///
    /// For the strongly-connected systems used in SI synthesis this reduces
    /// to: the RG is strongly connected and every transition labels at least
    /// one edge. The general check (per-marking re-enableability) is also
    /// what this implements, via one backward closure per transition seeded
    /// from the excitation-region index and tracked in a word-parallel
    /// visited set.
    pub fn is_live(&self, net: &PetriNet) -> bool {
        let n = self.state_count();
        let mut stack: Vec<StateId> = Vec::new();
        for t in net.transitions() {
            let seed = self.states_enabling(t);
            if seed.len() == n {
                continue; // enabled everywhere — trivially live
            }
            let mut can = si_boolean::Bits::zeros(n);
            stack.clear();
            for &s in seed {
                can.set(s.index(), true);
                stack.push(s);
            }
            let mut reached = seed.len();
            while let Some(s) = stack.pop() {
                for &(_, p) in self.predecessors(s) {
                    if !can.get(p.index()) {
                        can.set(p.index(), true);
                        reached += 1;
                        stack.push(p);
                    }
                }
            }
            if reached != n {
                return false;
            }
        }
        true
    }

    /// Returns `true` if the RG is strongly connected (common for live+safe
    /// cyclic specifications; cheap necessary check used by tests).
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.state_count();
        if n == 0 {
            return true;
        }
        let reach_all = |backward: bool| {
            let mut seen = vec![false; n];
            let mut stack = vec![StateId(0)];
            seen[0] = true;
            let mut count = 1;
            while let Some(s) = stack.pop() {
                let edges = if backward {
                    self.predecessors(s)
                } else {
                    self.successors(s)
                };
                for &(_, d) in edges {
                    if !seen[d.index()] {
                        seen[d.index()] = true;
                        count += 1;
                        stack.push(d);
                    }
                }
            }
            count == n
        };
        reach_all(false) && reach_all(true)
    }

    /// Behavioural concurrency of two transitions: some reachable marking
    /// enables both and firing either keeps the other enabled.
    pub fn transitions_concurrent(&self, net: &PetriNet, a: TransId, b: TransId) -> bool {
        if a == b {
            return false;
        }
        let mut scratch = match self.markings.first() {
            Some(m) => m.clone(),
            None => return false,
        };
        // Scan the smaller excitation region only.
        let (x, y) = if self.states_enabling(a).len() <= self.states_enabling(b).len() {
            (a, b)
        } else {
            (b, a)
        };
        self.states_enabling(x).iter().any(|&s| {
            let m = &self.markings[s.index()];
            if !net.is_enabled(m, y) {
                return false;
            }
            net.fire_into(m, x, &mut scratch);
            if !net.is_enabled(&scratch, y) {
                return false;
            }
            net.fire_into(m, y, &mut scratch);
            net.is_enabled(&scratch, x)
        })
    }

    /// Behavioural concurrency of two places: some reachable marking marks
    /// both.
    pub fn places_concurrent(&self, p: crate::net::PlaceId, q: crate::net::PlaceId) -> bool {
        if p == q {
            return false;
        }
        self.markings
            .iter()
            .any(|m| m.get(p.index()) && m.get(q.index()))
    }

    /// Behavioural concurrency of a place and a transition: some reachable
    /// marking enables `t`, marks `p`, and `p` stays marked after firing `t`.
    pub fn place_transition_concurrent(
        &self,
        net: &PetriNet,
        p: crate::net::PlaceId,
        t: TransId,
    ) -> bool {
        let mut scratch = match self.markings.first() {
            Some(m) => m.clone(),
            None => return false,
        };
        self.states_enabling(t).iter().any(|&s| {
            let m = &self.markings[s.index()];
            if !m.get(p.index()) {
                return false;
            }
            net.fire_into(m, t, &mut scratch);
            scratch.get(p.index())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{PetriNet, PlaceId};

    /// Fork-join: t0 forks into p1 ∥ p2, t3 joins back to p0.
    fn fork_join() -> PetriNet {
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", false);
        let p2 = b.add_place("p2", false);
        let p3 = b.add_place("p3", false);
        let p4 = b.add_place("p4", false);
        let t0 = b.add_transition("fork");
        let t1 = b.add_transition("left");
        let t2 = b.add_transition("right");
        let t3 = b.add_transition("join");
        b.arc_pt(p0, t0);
        b.arc_tp(t0, p1);
        b.arc_tp(t0, p2);
        b.arc_pt(p1, t1);
        b.arc_tp(t1, p3);
        b.arc_pt(p2, t2);
        b.arc_tp(t2, p4);
        b.arc_pt(p3, t3);
        b.arc_pt(p4, t3);
        b.arc_tp(t3, p0);
        b.build()
    }

    #[test]
    fn unrepresentable_timeout_sets_no_deadline() {
        let reach = ReachOptions::with_cap(10).timeout(Duration::MAX);
        assert_eq!(reach.budget.deadline, None);
        let reach = ReachOptions::with_cap(10).timeout(Duration::from_secs(60));
        assert!(reach.budget.deadline.is_some());
    }

    #[test]
    fn explores_fork_join() {
        let net = fork_join();
        let rg = ReachabilityGraph::build(&net, 100).unwrap();
        // markings: p0; p1p2; p3p2; p1p4; p3p4 => 5
        assert_eq!(rg.state_count(), 5);
        assert!(rg.is_strongly_connected());
        assert!(rg.is_live(&net));
    }

    #[test]
    fn interned_build_matches_naive_exactly() {
        let net = fork_join();
        let a = ReachabilityGraph::build(&net, 100).unwrap();
        let b = ReachabilityGraph::build_naive(&net, 100).unwrap();
        assert_eq!(a.state_count(), b.state_count());
        for s in a.states() {
            assert_eq!(a.marking(s), b.marking(s), "marking of {s:?}");
            assert_eq!(a.successors(s), b.successors(s), "succs of {s:?}");
            assert_eq!(a.predecessors(s), b.predecessors(s), "preds of {s:?}");
        }
        for t in net.transitions() {
            assert_eq!(a.states_enabling(t), b.states_enabling(t));
        }
        assert_eq!(a.is_live(&net), b.is_live(&net));
    }

    #[test]
    fn behavioural_concurrency() {
        let net = fork_join();
        let rg = ReachabilityGraph::build(&net, 100).unwrap();
        let left = net.transition_by_name("left").unwrap();
        let right = net.transition_by_name("right").unwrap();
        let fork = net.transition_by_name("fork").unwrap();
        assert!(rg.transitions_concurrent(&net, left, right));
        assert!(!rg.transitions_concurrent(&net, fork, left));
        assert!(rg.places_concurrent(PlaceId(1), PlaceId(2)));
        assert!(!rg.places_concurrent(PlaceId(0), PlaceId(1)));
        // p2 stays marked while t1 (left) fires
        assert!(rg.place_transition_concurrent(&net, PlaceId(2), left));
        // p1 is consumed by left
        assert!(!rg.place_transition_concurrent(&net, PlaceId(1), left));
    }

    #[test]
    fn cap_is_enforced() {
        let net = fork_join();
        let err = ReachabilityGraph::build(&net, 2).unwrap_err();
        assert_eq!(err, ReachError::StateCapExceeded { cap: 2 });
        let err = ReachabilityGraph::build_naive(&net, 2).unwrap_err();
        assert_eq!(err, ReachError::StateCapExceeded { cap: 2 });
    }

    #[test]
    fn unsafe_net_detected() {
        // t0 puts a token on p1 twice (two firings without consumption).
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", false);
        let p2 = b.add_place("p2", true);
        let t0 = b.add_transition("t0");
        let t1 = b.add_transition("t1");
        b.arc_pt(p0, t0);
        b.arc_tp(t0, p1);
        b.arc_pt(p2, t1);
        b.arc_tp(t1, p1); // second producer while p1 may be marked
        b.arc_tp(t1, p0); // keep things going
        let net = b.build();
        let r = ReachabilityGraph::build(&net, 100);
        assert!(matches!(r, Err(ReachError::NotSafe { .. })));
        let r = ReachabilityGraph::build_naive(&net, 100);
        assert!(matches!(r, Err(ReachError::NotSafe { .. })));
    }

    #[test]
    fn dead_transition_not_live() {
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", false);
        let pd = b.add_place("dead_in", false);
        let t0 = b.add_transition("t0");
        let t1 = b.add_transition("t1");
        let td = b.add_transition("dead");
        b.arc_pt(p0, t0);
        b.arc_tp(t0, p1);
        b.arc_pt(p1, t1);
        b.arc_tp(t1, p0);
        b.arc_pt(pd, td);
        b.arc_tp(td, pd);
        let net = b.build();
        let rg = ReachabilityGraph::build(&net, 100).unwrap();
        assert!(!rg.is_live(&net));
    }

    #[test]
    fn state_lookup() {
        let net = fork_join();
        let rg = ReachabilityGraph::build(&net, 100).unwrap();
        let m0 = net.initial_marking();
        assert_eq!(rg.state_of(&m0), Some(StateId(0)));
        assert_eq!(rg.marking(StateId(0)), &m0);
        let ers = rg.states_enabling(net.transition_by_name("fork").unwrap());
        assert_eq!(ers, &[StateId(0)]);
        // Unreachable marking of the right width -> None; wrong width -> None.
        let unreachable = crate::net::Marking::from_ones(5, [1]);
        assert_eq!(rg.state_of(&unreachable), None);
        assert_eq!(rg.state_of(&crate::net::Marking::zeros(3)), None);
    }

    #[test]
    fn interner_survives_growth() {
        // A chain net with > 64 states forces table growth.
        let n = 200;
        let mut b = PetriNet::builder();
        let places: Vec<_> = (0..n)
            .map(|i| b.add_place(format!("p{i}"), i == 0))
            .collect();
        for i in 0..n {
            let t = b.add_transition(format!("t{i}"));
            b.arc_pt(places[i], t);
            b.arc_tp(t, places[(i + 1) % n]);
        }
        let net = b.build();
        let rg = ReachabilityGraph::build(&net, 1000).unwrap();
        assert_eq!(rg.state_count(), n);
        for s in rg.states() {
            assert_eq!(rg.state_of(rg.marking(s)), Some(s));
        }
    }
}
