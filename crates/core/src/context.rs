//! The structural synthesis context (§VI–§VII).
//!
//! [`StructuralContext`] bundles everything the synthesis flow derives from
//! the STG *without touching the reachability graph*: consistency analysis,
//! place cover functions, the SM-cover, structural coding conflicts, the
//! refinement loop (Figs. 11/12), the CSC verdict (Theorems 14/15) and the
//! signal-region approximations (QPS domains, ER/QR covers with boundary
//! subtraction).

use crate::cubes::PlaceCubes;
use si_boolean::{Bits, Cover};
use si_petri::{sm_cover, PlaceId, SmComponent, SmCoverError, SmFinder, TransId};
use si_stg::{ConsistencyError, Direction, InsertionMap, SignalId, Stg, StgAnalysis};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide construction counter feeding
/// [`StructuralContext::build_count`] (the full-analysis path; the
/// incremental path counts into [`StructuralContext::incremental_count`]).
static BUILD_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Process-wide counter of incremental re-analyses
/// ([`StructuralContext::build_incremental`]).
static INCREMENTAL_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Refinement cap shared by the full build and the incremental replay.
const MAX_REFINE_ROUNDS: usize = 4;

/// Cube cap of one refined place cover (see [`StructuralContext::refine_round`]).
const REFINED_CUBE_CAP: usize = 24;

/// Net size up to which the first refinement round runs unconditionally.
const UNCONDITIONAL_PLACE_LIMIT: usize = 128;

/// The recorded refinement history of one [`StructuralContext::build_traced`]
/// run: the per-round cover snapshots and change sets that
/// [`StructuralContext::build_incremental`] replays.
#[derive(Clone, Debug, Default)]
pub struct RefinementTrace {
    /// Post-round cover snapshot and the places whose cover changed, one
    /// entry per executed round.
    rounds: Vec<RoundTrace>,
}

#[derive(Clone, Debug)]
struct RoundTrace {
    /// `place_cover` after the round.
    covers: Vec<Cover>,
    /// Places whose stored cover was replaced this round.
    changed: Bits,
}

/// A structural coding conflict (Def. 11): two places of one SM-component
/// whose cover functions intersect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodingConflict {
    /// Index of the SM-component in the SM-cover.
    pub sm_index: usize,
    /// The two conflicting places.
    pub places: (PlaceId, PlaceId),
}

/// Outcome of the structural CSC analysis (Theorems 14/15).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CscVerdict {
    /// No structural coding conflicts at all — USC holds (and hence CSC).
    UscHolds,
    /// Conflicts remain but every preset place of every synthesized-signal
    /// transition is conflict-free in some SM-component — CSC holds.
    CscHolds,
    /// CSC could not be established; state-signal insertion would be
    /// required (out of the scope the paper covers in this flow).
    Unknown {
        /// Preset places for which no conflict-free component was found.
        places: Vec<PlaceId>,
    },
}

/// Errors of context construction / synthesis preconditions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthesisError {
    /// The STG failed structural consistency (Fig. 9).
    Inconsistent(ConsistencyError),
    /// No SM-cover exists (net outside the supported class).
    NotSmCoverable(SmCoverError),
    /// CSC could not be established structurally.
    CscViolationPossible {
        /// The unresolved preset places.
        places: Vec<PlaceId>,
    },
    /// A derived cover failed the implementability conditions.
    CoverCheckFailed {
        /// The signal whose cover failed.
        signal: SignalId,
        /// Human-readable detail.
        detail: String,
    },
    /// A worker of the per-signal synthesis pool panicked while
    /// synthesizing this signal. The panic was caught at the worker
    /// boundary — the process (and the other signals' results) survive;
    /// the earliest-listed failing signal still wins, so this is as
    /// deterministic as any other per-signal error.
    WorkerPanicked {
        /// The signal whose synthesis panicked.
        signal: SignalId,
        /// The panic message.
        detail: String,
    },
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::Inconsistent(e) => write!(f, "inconsistent STG: {e}"),
            SynthesisError::NotSmCoverable(e) => write!(f, "not SM-coverable: {e}"),
            SynthesisError::CscViolationPossible { places } => {
                write!(f, "possible CSC violation at {} place(s)", places.len())
            }
            SynthesisError::CoverCheckFailed { signal, detail } => {
                write!(f, "cover check failed for signal #{}: {detail}", signal.0)
            }
            SynthesisError::WorkerPanicked { signal, detail } => {
                write!(
                    f,
                    "synthesis worker panicked on signal #{}: {detail}",
                    signal.0
                )
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Signal-region approximations of one signal, ready for cover synthesis.
#[derive(Clone, Debug)]
pub struct SignalCovers {
    /// The signal.
    pub signal: SignalId,
    /// Rising transitions.
    pub rising: Vec<TransId>,
    /// Falling transitions.
    pub falling: Vec<TransId>,
    /// `C(t)` — single-region excitation cover per transition.
    pub er: HashMap<TransId, Cover>,
    /// QR cover per transition (boundary-subtracted).
    pub qr: HashMap<TransId, Cover>,
    /// Restricted QR cover per transition (shared QPS places dropped).
    pub qr_restricted: HashMap<TransId, Cover>,
    /// Union of rising ER covers (GER(a+) approximation).
    pub ger_rise: Cover,
    /// Union of falling ER covers.
    pub ger_fall: Cover,
    /// Union of rising QR covers (GQR(1) approximation).
    pub gqr_one: Cover,
    /// Union of falling QR covers (GQR(0) approximation).
    pub gqr_zero: Cover,
}

/// Everything the structural flow knows about an STG.
#[derive(Debug)]
pub struct StructuralContext<'a> {
    /// The specification.
    pub stg: &'a Stg,
    /// Consistency + concurrency analysis.
    pub analysis: StgAnalysis,
    /// The initial (Lemma 10) cover cubes and the interleave relation.
    pub cubes: PlaceCubes,
    /// Current (possibly refined) cover function per place.
    pub place_cover: Vec<Cover>,
    /// The SM-cover used for conflict detection and refinement.
    pub sm_cover: Vec<SmComponent>,
    /// QPS per transition (places interleaved between `t` and `next(t)`).
    pub qps: Vec<Bits>,
    /// Number of refinement rounds that were applied.
    pub refinement_rounds: usize,
}

impl<'a> StructuralContext<'a> {
    /// Builds the context: consistency, cubes, SM-cover, QPS; then runs the
    /// refinement loop while structural conflicts shrink and derives the
    /// CSC verdict.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Inconsistent`] / [`SynthesisError::NotSmCoverable`]
    /// on precondition failures; the CSC verdict is *not* an error here —
    /// callers decide (synthesis rejects `Unknown`, analysis tools may not).
    pub fn build(stg: &'a Stg) -> Result<Self, SynthesisError> {
        BUILD_COUNT.fetch_add(1, Ordering::Relaxed);
        let mut ctx = Self::unrefined(stg)?;
        ctx.refine_until_stable(MAX_REFINE_ROUNDS);
        Ok(ctx)
    }

    /// Like [`StructuralContext::build`], additionally recording the
    /// refinement history so later insertions of a state signal can be
    /// re-analysed incrementally ([`StructuralContext::build_incremental`]).
    ///
    /// # Errors
    ///
    /// As [`StructuralContext::build`].
    pub fn build_traced(stg: &'a Stg) -> Result<(Self, RefinementTrace), SynthesisError> {
        BUILD_COUNT.fetch_add(1, Ordering::Relaxed);
        let mut ctx = Self::unrefined(stg)?;
        let mut trace = RefinementTrace::default();
        ctx.refine_until_stable_traced(MAX_REFINE_ROUNDS, Some(&mut trace));
        Ok((ctx, trace))
    }

    /// How many times this process ran the **full** structural analysis
    /// ([`StructuralContext::build`] / [`StructuralContext::build_traced`]).
    ///
    /// The build-count hook of the CSC resolve loop (same pattern as
    /// `ReachabilityGraph::build_count`): tests snapshot it, resolve a
    /// conflicted STG, and assert the candidate loop re-analysed
    /// incrementally instead of rebuilding per candidate. Monotonic, never
    /// reset; callers compare deltas, not absolute values.
    pub fn build_count() -> usize {
        BUILD_COUNT.load(Ordering::Relaxed)
    }

    /// How many times this process ran the incremental re-analysis
    /// ([`StructuralContext::build_incremental`]).
    pub fn incremental_count() -> usize {
        INCREMENTAL_COUNT.load(Ordering::Relaxed)
    }

    /// The pre-refinement context: consistency, cubes and QPS, SM-cover.
    fn unrefined(stg: &'a Stg) -> Result<Self, SynthesisError> {
        let analysis = {
            let _span = si_obs::span("context.consistency");
            StgAnalysis::analyze(stg).map_err(SynthesisError::Inconsistent)?
        };
        let (cubes, place_cover, qps) = {
            let _span = si_obs::span("context.cubes");
            let cubes = PlaceCubes::compute(stg, &analysis);
            let nsig = stg.signal_count();
            let place_cover: Vec<Cover> = cubes
                .cubes
                .iter()
                .map(|c| Cover::from_cubes(nsig, [c.clone()]))
                .collect();

            // QPS per transition from the interleave relation.
            let nt = stg.net().transition_count();
            let mut qps = vec![Bits::zeros(stg.net().place_count()); nt];
            for t in stg.net().transitions() {
                for &succ in analysis.next_of(t) {
                    if let Some(il) = cubes.pairs.get(&(t, succ)) {
                        qps[t.index()].union_with(&il.places);
                    }
                }
            }
            (cubes, place_cover, qps)
        };
        let sms = {
            let _span = si_obs::span("context.sm_cover");
            sm_cover(stg.net()).map_err(SynthesisError::NotSmCoverable)?
        };

        Ok(StructuralContext {
            stg,
            analysis,
            cubes,
            place_cover,
            sm_cover: sms,
            qps,
            refinement_rounds: 0,
        })
    }

    /// Incremental re-analysis after a state-signal insertion — the
    /// `resolve` loop's per-candidate path.
    ///
    /// Produces a context **bit-identical** to [`StructuralContext::build`]
    /// on `stg`, but instead of refining every place cover from scratch it
    /// replays the parent's recorded refinement rounds: only the covers
    /// touched by the insertion — the new signal's ER/QR neighbourhood
    /// (places whose cover cube gained a literal of the new signal), the
    /// split halves and wait places, any SM-component or concurrency edge
    /// the surgery disturbed, plus whatever that dirt spreads to round by
    /// round — are recomputed; every other cover is copied from the trace
    /// with the new signal appended as a don't-care column (appending a
    /// column commutes with every cover operation (see
    /// [`si_boolean::Cube::widened`]), so the copies are exact).
    ///
    /// `parent` and `trace` must come from
    /// [`StructuralContext::build_traced`] on the STG the plan was applied
    /// to, and `stg`/`map` must be the `si_stg::apply_insertion_mapped`
    /// result. Dirtiness tracking is conservative: over-approximating only
    /// costs time, never bit-identity (prop-tested against full rebuilds
    /// across the benchmark and generator suites).
    ///
    /// # Errors
    ///
    /// As [`StructuralContext::build`] (the candidate may be inconsistent
    /// or not SM-coverable — such candidates are simply rejected by the
    /// resolve loop).
    pub fn build_incremental<'b>(
        parent: &StructuralContext<'_>,
        trace: &RefinementTrace,
        stg: &'b Stg,
        map: &InsertionMap,
    ) -> Result<StructuralContext<'b>, SynthesisError> {
        INCREMENTAL_COUNT.fetch_add(1, Ordering::Relaxed);
        let mut ctx = StructuralContext::unrefined(stg)?;
        ctx.refine_incremental(parent, trace, map);
        Ok(ctx)
    }

    /// The replayed refinement loop behind
    /// [`StructuralContext::build_incremental`].
    fn refine_incremental(
        &mut self,
        parent: &StructuralContext<'_>,
        trace: &RefinementTrace,
        map: &InsertionMap,
    ) {
        let _span = si_obs::span("context.refine");
        let np = self.stg.net().place_count();
        let nsig = self.stg.signal_count();
        let cr = |p: usize, q: usize| {
            self.analysis
                .cr
                .places(PlaceId(p as u32), PlaceId(q as u32))
        };

        // ---- structural dirtiness -------------------------------------
        // A place is *clean* for a replayed round when its whole
        // refinement computation provably matches the parent's (modulo the
        // appended don't-care column). Everything else recomputes honestly.

        // 1. Value dirt at round 0: unmapped places (split halves, wait
        //    places) and places whose initial cube differs — i.e. gained a
        //    literal of the new signal or shifted on the old ones.
        let mut value_dirty = Bits::zeros(np);
        for p in 0..np {
            let clean = map.place_to_old[p].is_some_and(|q| {
                self.cubes.cubes[p] == parent.cubes.cubes[q.index()].widened(nsig)
            });
            if !clean {
                value_dirty.set(p, true);
            }
        }

        // 2. Function dirt around the surgery itself: anything concurrent
        //    with a new place (split halves, wait places) or — in the
        //    parent — with one of the split places reads a changed union.
        let np_old = parent.stg.net().place_count();
        let old_cr = |p: PlaceId, q: PlaceId| parent.analysis.cr.places(p, q);
        let splits_old: Vec<PlaceId> = (0..np_old)
            .filter(|&q| map.place_to_new[q].is_none())
            .map(|q| PlaceId(q as u32))
            .collect();
        let unmapped_new: Vec<usize> = (0..np).filter(|&p| map.place_to_old[p].is_none()).collect();
        let mut func_dirty = Bits::zeros(np);
        for p in 0..np {
            let Some(q) = map.place_to_old[p] else {
                continue; // already value-dirty
            };
            if unmapped_new.iter().any(|&m| cr(p, m)) || splits_old.iter().any(|&s| old_cr(q, s)) {
                func_dirty.set(p, true);
            }
        }

        // 3. SM-components that do not correspond to their positional
        //    parent counterpart *modulo the surgery* (mapped members equal
        //    to the parent members minus the split places; extra members
        //    only from the new places) change the union sequence of their
        //    members and concurrent neighbours wholesale.
        let common = self.sm_cover.len().min(parent.sm_cover.len());
        let coarse = |snew: Option<&SmComponent>,
                      sold: Option<&SmComponent>,
                      func_dirty: &mut Bits| {
            if let Some(snew) = snew {
                for p in 0..np {
                    if snew.contains_place(PlaceId(p as u32))
                        || snew.places().iter().any(|&m| cr(p, m.index()))
                    {
                        func_dirty.set(p, true);
                    }
                }
            }
            if let Some(sold) = sold {
                for p in 0..np {
                    if let Some(q) = map.place_to_old[p] {
                        if sold.contains_place(q) || sold.places().iter().any(|&r| old_cr(q, r)) {
                            func_dirty.set(p, true);
                        }
                    }
                }
            }
        };
        for (snew, sold) in self.sm_cover.iter().zip(&parent.sm_cover) {
            // Mapped members of the candidate component vs the parent
            // component minus the split places; extra members must be new.
            let mut mapped = Bits::zeros(np_old);
            for &p in snew.places() {
                // Unmapped members (halves, waits) are allowed surgery
                // deltas — global rule 2 dirties everything they touch.
                if let Some(q) = map.place_to_old[p.index()] {
                    mapped.set(q.index(), true);
                }
            }
            let mut expected = sold.place_set().clone();
            for &s in &splits_old {
                expected.set(s.index(), false);
            }
            if mapped != expected {
                coarse(Some(snew), Some(sold), &mut func_dirty);
            }
        }
        for snew in &self.sm_cover[common..] {
            coarse(Some(snew), None, &mut func_dirty);
        }
        for sold in &parent.sm_cover[common..] {
            coarse(None, Some(sold), &mut func_dirty);
        }

        // 4. Concurrency drift on mapped pairs: the union domains of p
        //    differ even though the components correspond.
        for p in 0..np {
            if func_dirty.get(p) {
                continue;
            }
            let Some(q) = map.place_to_old[p] else {
                continue; // already value-dirty
            };
            for r in 0..np {
                if let Some(s) = map.place_to_old[r] {
                    if cr(p, r) != old_cr(q, s) {
                        func_dirty.set(p, true);
                        break;
                    }
                }
            }
        }

        // Dirt for a round: function dirt, value dirt, and one concurrency
        // step around the value dirt (the unions read neighbouring covers
        // of the previous round).
        let neighbours = |seed: &Bits| -> Bits {
            let mut out = seed.clone();
            for p in 0..np {
                if !out.get(p) && seed.iter_ones().any(|q| cr(p, q)) {
                    out.set(p, true);
                }
            }
            out
        };
        let mut dirty = func_dirty.clone();
        dirty.union_with(&neighbours(&value_dirty));

        // ---- replayed refinement loop ---------------------------------
        let liberal = np <= UNCONDITIONAL_PLACE_LIMIT;
        for round in 0..MAX_REFINE_ROUNDS {
            let liberal_first_round = liberal && round == 0;
            if !self.has_conflict() && !liberal_first_round {
                break;
            }
            let have_trace = round < trace.rounds.len();
            if !have_trace {
                // Refining past the parent's recorded history: no data to
                // replay, recompute everything from here on.
                dirty = Bits::ones(np);
            }
            let snapshot = self.place_cover.clone();
            let mut changed = false;
            for p in 0..np {
                if have_trace && !dirty.get(p) {
                    // Clean: the fresh computation would reproduce the
                    // parent's post-round cover, widened.
                    let q = map.place_to_old[p]
                        .expect("clean places are mapped")
                        .index();
                    let rt = &trace.rounds[round];
                    if rt.changed.get(q) {
                        changed = true;
                        self.place_cover[p] = rt.covers[q].widened(nsig);
                    }
                    continue;
                }
                let refined = self.refined_from_snapshot(&snapshot, PlaceId(p as u32));
                if !refined.equivalent(&snapshot[p]) {
                    changed = true;
                    self.place_cover[p] = refined;
                }
            }
            if !changed {
                break;
            }
            self.refinement_rounds += 1;
            // Dirt spreads one concurrency step per round: a clean place
            // goes dirty once any cover its unions read was recomputed.
            dirty = neighbours(&dirty);
            dirty.union_with(&func_dirty);
        }
    }

    /// Detects all structural coding conflicts (Def. 11) under the current
    /// cover functions.
    pub fn conflicts(&self) -> Vec<CodingConflict> {
        let mut out = Vec::new();
        for (si, sm) in self.sm_cover.iter().enumerate() {
            let places = sm.places();
            for i in 0..places.len() {
                for j in i + 1..places.len() {
                    let (p, q) = (places[i], places[j]);
                    if self.place_cover[p.index()].intersects(&self.place_cover[q.index()]) {
                        out.push(CodingConflict {
                            sm_index: si,
                            places: (p, q),
                        });
                    }
                }
            }
        }
        out
    }

    /// The Fig. 11 refinement of one place against a cover snapshot: the
    /// cover is intersected with the union of the covers of its concurrent
    /// places in every SM-component that does not contain it. Sound by
    /// Property 7 — every reachable marking of `MR(p)` marks exactly one
    /// concurrent place of each such component. Shared by the full rounds
    /// and the incremental replay so both compute the same function.
    fn refined_from_snapshot(&self, snapshot: &[Cover], p: PlaceId) -> Cover {
        let mut refined = snapshot[p.index()].clone();
        for sm in &self.sm_cover {
            if sm.contains_place(p) {
                continue;
            }
            let union = Cover::union(
                self.stg.signal_count(),
                sm.places()
                    .iter()
                    .filter(|&&q| self.analysis.cr.places(p, q))
                    .map(|q| &snapshot[q.index()]),
            );
            if union.is_empty() {
                // No concurrent place: p can never be marked together
                // with this component — impossible for live nets, so
                // skip rather than emptying the cover.
                continue;
            }
            if union.covers(&refined) {
                // This component adds no information; skipping keeps
                // the intermediate cover from growing multiplicatively
                // across no-op intersections.
                continue;
            }
            let candidate = {
                let mut c = refined.and(&union);
                c.remove_single_cube_contained();
                c
            };
            // Refinement precision is traded against cover size: a
            // highly concurrent place (e.g. the join of an n-way burst)
            // would otherwise accumulate multiplicative cube growth
            // across components and poison every downstream product.
            // Any prefix of refinements is sound, so stop early.
            if candidate.cube_count() > REFINED_CUBE_CAP {
                break;
            }
            refined = candidate;
        }
        refined
    }

    /// One refinement round (Fig. 11) over all places. Returns `true` if
    /// any cover changed.
    pub fn refine_round(&mut self) -> bool {
        self.refine_round_traced(None)
    }

    fn refine_round_traced(&mut self, mut changed_places: Option<&mut Bits>) -> bool {
        let mut changed = false;
        let snapshot = self.place_cover.clone();
        for p in self.stg.net().places() {
            let refined = self.refined_from_snapshot(&snapshot, p);
            // Keep the compact original whenever the refinement is merely a
            // re-expression: storing an equivalent multi-cube form would
            // slow every downstream cover operation for no precision gain.
            if !refined.equivalent(&self.place_cover[p.index()]) {
                changed = true;
                if let Some(bits) = changed_places.as_deref_mut() {
                    bits.set(p.index(), true);
                }
                self.place_cover[p.index()] = refined;
            }
        }
        changed
    }

    /// Runs refinement rounds (Fig. 12 discipline), up to `max_rounds`.
    ///
    /// The paper observes that refining *all* places — not only the
    /// conflicting ones — "leads to much better minimization solutions", so
    /// one round always runs on moderate-size nets; further rounds run only
    /// while structural conflicts persist and covers still change. On very
    /// large nets (where cover blow-up would dominate) refinement stays
    /// conflict-driven.
    pub fn refine_until_stable(&mut self, max_rounds: usize) {
        self.refine_until_stable_traced(max_rounds, None);
    }

    fn refine_until_stable_traced(
        &mut self,
        max_rounds: usize,
        mut trace: Option<&mut RefinementTrace>,
    ) {
        let _span = si_obs::span("context.refine");
        let liberal = self.stg.net().place_count() <= UNCONDITIONAL_PLACE_LIMIT;
        for round in 0..max_rounds {
            let conflicted = self.has_conflict();
            let liberal_first_round = liberal && round == 0;
            if !conflicted && !liberal_first_round {
                break;
            }
            let mut changed_places = Bits::zeros(self.stg.net().place_count());
            if !self.refine_round_traced(Some(&mut changed_places)) {
                break;
            }
            if let Some(t) = trace.as_deref_mut() {
                t.rounds.push(RoundTrace {
                    covers: self.place_cover.clone(),
                    changed: changed_places,
                });
            }
            self.refinement_rounds += 1;
        }
    }

    /// `true` iff any structural coding conflict (Def. 11) survives under
    /// the current covers — the early-exit form of
    /// `!self.conflicts().is_empty()`.
    pub fn has_conflict(&self) -> bool {
        self.sm_cover.iter().any(|sm| {
            let places = sm.places();
            places.iter().enumerate().any(|(i, &p)| {
                places[i + 1..]
                    .iter()
                    .any(|&q| self.place_cover[p.index()].intersects(&self.place_cover[q.index()]))
            })
        })
    }

    /// The structural CSC verdict (Theorems 14/15).
    ///
    /// A CSC violation requires the Theorem 14 witness: an SM-component
    /// holding a preset place `p` of a synthesized transition `t` together
    /// with a place `q` that (a) does not feed any transition of `t`'s
    /// signal and (b) whose cover intersects the excitation cover `C(t)`.
    /// CSC is established (Theorem 15) when every such `p` lies in some
    /// SM-component free of witnesses — searched first in the SM-cover,
    /// then among additionally enumerated components.
    pub fn csc_verdict(&self) -> CscVerdict {
        if !self.has_conflict() {
            return CscVerdict::UscHolds;
        }
        let mut unresolved = self.unresolved_places(false);
        unresolved.sort_unstable();
        unresolved.dedup();
        if unresolved.is_empty() {
            CscVerdict::CscHolds
        } else {
            CscVerdict::Unknown { places: unresolved }
        }
    }

    /// Boolean form of [`StructuralContext::csc_verdict`]: `true` iff the
    /// verdict is not `Unknown`. Stops at the first unresolved place
    /// instead of collecting them all — the form the CSC resolve loop uses
    /// to prune candidates (most rejected candidates have several
    /// unresolved places; their witness searches are skipped).
    pub fn csc_holds(&self) -> bool {
        !self.has_conflict() || self.unresolved_places(true).is_empty()
    }

    /// The unresolved preset places behind `CscVerdict::Unknown`,
    /// optionally stopping at the first one.
    fn unresolved_places(&self, stop_early: bool) -> Vec<PlaceId> {
        let finder = SmFinder::new(self.stg.net());
        let mut unresolved = Vec::new();
        for t in self.stg.net().transitions() {
            if !self.stg.signal_kind(self.stg.signal_of(t)).is_synthesized() {
                continue;
            }
            let er = self.er_cover(t);
            'place: for &p in self.stg.net().pre_t(t) {
                // In-cover components first.
                for sm in &self.sm_cover {
                    if sm.contains_place(p) && self.witness_free_in(p, t, &er, sm) {
                        continue 'place;
                    }
                }
                for sm in finder.enumerate(&[p], &[], 8) {
                    if self.witness_free_in(p, t, &er, &sm) {
                        continue 'place;
                    }
                }
                unresolved.push(p);
                if stop_early {
                    return unresolved;
                }
            }
        }
        unresolved
    }

    /// No Theorem 14 witness against transition `t` inside `sm`.
    fn witness_free_in(&self, p: PlaceId, t: TransId, er: &Cover, sm: &SmComponent) -> bool {
        let sig = self.stg.signal_of(t);
        sm.places().iter().all(|&q| {
            q == p
                // q feeding a transition of the same signal cannot witness a
                // CSC violation (Theorem 14, condition 2).
                || self
                    .stg
                    .net()
                    .post_p(q)
                    .iter()
                    .any(|&u| self.stg.signal_of(u) == sig)
                || !self.place_cover[q.index()].intersects(er)
        })
    }

    /// `C(t)` — the excitation-region cover of a transition: the product of
    /// the cover functions of its preset places (§VI-A).
    pub fn er_cover(&self, t: TransId) -> Cover {
        let mut cover = Cover::universe(self.stg.signal_count());
        for &p in self.stg.net().pre_t(t) {
            cover = cover.and(&self.place_cover[p.index()]);
        }
        cover
    }

    /// The QR cover of a transition: union of the cover functions of its
    /// QPS places, with the boundary subtraction of §VI-A — places feeding
    /// a `next(t)` transition have that transition's ER cover removed.
    pub fn qr_cover(&self, t: TransId) -> Cover {
        self.qr_cover_over(self.qps[t.index()].clone(), t)
    }

    /// The restricted QR cover (§III-B, eq. 4): QPS places shared with
    /// other transitions of the same signal are excluded before the union.
    pub fn qr_restricted_cover(&self, t: TransId) -> Cover {
        self.qr_restricted_for(t, std::slice::from_ref(&t))
    }

    /// Cluster-aware restricted QR: QPS places shared with same-signal
    /// transitions *outside the cluster* are excluded (places shared among
    /// cluster members stay — the cluster is implemented by one gate).
    pub fn qr_restricted_for(&self, t: TransId, cluster: &[TransId]) -> Cover {
        let sig = self.stg.signal_of(t);
        let mut qps = self.qps[t.index()].clone();
        for &u in self.stg.transitions_of(sig) {
            if u != t && !cluster.contains(&u) {
                qps.subtract(&self.qps[u.index()]);
            }
        }
        self.qr_cover_over(qps, t)
    }

    fn qr_cover_over(&self, qps: Bits, t: TransId) -> Cover {
        let mut adjusted = Vec::new();
        for pi in qps.iter_ones() {
            let p = PlaceId(pi as u32);
            let mut f = self.place_cover[pi].clone();
            for &succ in self.analysis.next_of(t) {
                if self.stg.net().pre_t(succ).contains(&p) {
                    f = f.sharp(&self.er_cover(succ));
                }
            }
            adjusted.push(f);
        }
        Cover::union(self.stg.signal_count(), &adjusted)
    }

    /// All region approximations of one signal.
    pub fn signal_covers(&self, signal: SignalId) -> SignalCovers {
        let nsig = self.stg.signal_count();
        let rising = self.stg.transitions_of_dir(signal, Direction::Rise);
        let falling = self.stg.transitions_of_dir(signal, Direction::Fall);
        let mut er = HashMap::new();
        let mut qr = HashMap::new();
        let mut qr_restricted = HashMap::new();
        for &t in rising.iter().chain(&falling) {
            er.insert(t, self.er_cover(t));
            qr.insert(t, self.qr_cover(t));
            qr_restricted.insert(t, self.qr_restricted_cover(t));
        }
        let union = |map: &HashMap<TransId, Cover>, ts: &[TransId]| {
            Cover::union(nsig, ts.iter().map(|t| &map[t]))
        };
        SignalCovers {
            signal,
            ger_rise: union(&er, &rising),
            ger_fall: union(&er, &falling),
            gqr_one: union(&qr, &rising),
            gqr_zero: union(&qr, &falling),
            rising,
            falling,
            er,
            qr,
            qr_restricted,
        }
    }

    /// Total number of cubes across all current place covers — the `#cubes`
    /// statistic of Table VIII.
    pub fn total_cubes(&self) -> usize {
        self.place_cover.iter().map(Cover::cube_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::benchmarks;

    #[test]
    fn fig1_conflict_detected_and_csc_proved() {
        let stg = benchmarks::running_example();
        let ctx = StructuralContext::build(&stg).unwrap();
        // The USC conflict (p0 vs the mode-2 waiting place) survives
        // refinement …
        let conflicts = ctx.conflicts();
        assert!(!conflicts.is_empty(), "expected surviving conflicts");
        // … but the CSC verdict is positive (Theorem 15).
        match ctx.csc_verdict() {
            CscVerdict::CscHolds => {}
            v => panic!("expected CscHolds, got {v:?}"),
        }
    }

    #[test]
    fn fig5_refinement_removes_overestimation() {
        let stg = benchmarks::fig5_example();
        let ctx = StructuralContext::build(&stg).unwrap();
        let pb = stg.net().place_by_name("pb").unwrap();
        // After refinement the unreachable code (r,x,z,y) = 1110 is gone.
        let bad: Bits = [true, true, true, false].into_iter().collect();
        assert!(
            !ctx.place_cover[pb.index()].contains_vertex(&bad),
            "refinement must exclude the unreachable code, cover = {}",
            ctx.place_cover[pb.index()]
        );
        assert!(ctx.refinement_rounds > 0);
    }

    #[test]
    fn conflict_free_benchmarks_report_usc() {
        for stg in [
            benchmarks::half_handshake(),
            benchmarks::converter(),
            si_stg::generators::clatch(3),
        ] {
            let ctx = StructuralContext::build(&stg).unwrap();
            assert_eq!(
                ctx.csc_verdict(),
                CscVerdict::UscHolds,
                "{} should be conflict-free",
                stg.name()
            );
        }
        // The 2-stage sequencer returns to the all-zero code once per
        // stage: a USC conflict between input-only markings, CSC intact.
        let stg = si_stg::generators::sequencer(2);
        let ctx = StructuralContext::build(&stg).unwrap();
        assert_eq!(ctx.csc_verdict(), CscVerdict::CscHolds);
    }

    #[test]
    fn vme_raw_is_rejected_by_csc_analysis() {
        let stg = benchmarks::vme_read_raw();
        let ctx = StructuralContext::build(&stg).unwrap();
        match ctx.csc_verdict() {
            CscVerdict::Unknown { places } => assert!(!places.is_empty()),
            v => panic!("raw VME must not pass the CSC check, got {v:?}"),
        }
    }

    #[test]
    fn er_covers_are_safe_overapproximations() {
        // For every benchmark and every transition: the structural ER cover
        // contains every reachable code of the true excitation region and
        // no reachable code outside it (Property 13 under refinement).
        for stg in benchmarks::synthesizable_suite() {
            let ctx = StructuralContext::build(&stg).unwrap();
            let rg = si_petri::ReachabilityGraph::build(stg.net(), 1_000_000).unwrap();
            let enc = si_stg::StateEncoding::compute(&stg, &rg).unwrap();
            for t in stg.net().transitions() {
                let cover = ctx.er_cover(t);
                for s in rg.states() {
                    let in_er = rg.successors(s).iter().any(|&(u, _)| u == t);
                    if in_er {
                        assert!(
                            cover.contains_vertex(enc.code(s)),
                            "{}: ER({}) must cover code {}",
                            stg.name(),
                            stg.transition_display(t),
                            enc.code(s)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn qr_covers_contain_true_quiescent_codes() {
        // Property 12.2: every QR marking is covered by the QR cover.
        for stg in benchmarks::synthesizable_suite() {
            let ctx = StructuralContext::build(&stg).unwrap();
            let rg = si_petri::ReachabilityGraph::build(stg.net(), 1_000_000).unwrap();
            let enc = si_stg::StateEncoding::compute(&stg, &rg).unwrap();
            for sig in stg.signals() {
                let regions = si_stg::SignalRegions::compute(&stg, &rg, sig);
                for (i, &t) in regions.transitions.iter().enumerate() {
                    let cover = ctx.qr_cover(t);
                    for si in regions.qr[i].iter_ones() {
                        let code = enc.code(si_petri::StateId(si as u32));
                        assert!(
                            cover.contains_vertex(code),
                            "{}: QR({}) missing code {}",
                            stg.name(),
                            stg.transition_display(t),
                            code
                        );
                    }
                }
            }
        }
    }
}
