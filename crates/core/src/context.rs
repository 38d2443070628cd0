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
use si_stg::{ConsistencyError, Direction, SignalId, Stg, StgAnalysis};
use std::collections::HashMap;

/// Refinement cap of the structural context build.
const MAX_REFINE_ROUNDS: usize = 4;

/// Cube cap of one refined place cover (see `refined_from_snapshot`).
const REFINED_CUBE_CAP: usize = 24;

/// Net size up to which the first refinement round runs unconditionally.
const UNCONDITIONAL_PLACE_LIMIT: usize = 128;

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

/// The unions one refinement round has built, over its fixed snapshot.
struct RoundUnions {
    /// The union of the snapshot covers of each set of places built so
    /// far, keyed by the set.
    built: HashMap<Bits, Cover>,
    /// The (place, component) pairs tested.
    pairs: u64,
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
    /// Builds the context: consistency, SM-cover, cubes, QPS; then runs the
    /// refinement loop while structural conflicts shrink and derives the
    /// CSC verdict.
    ///
    /// The SM-cover is searched right after the consistency analysis and
    /// before the cubes are computed, so a net that is not SM-coverable
    /// does not pay for its cubes. Computing the cubes cannot fail, so the
    /// error precedence is that of the analyses' order: an inconsistent
    /// STG reports [`SynthesisError::Inconsistent`] whether or not it is
    /// SM-coverable.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Inconsistent`] / [`SynthesisError::NotSmCoverable`]
    /// on precondition failures; the CSC verdict is *not* an error here —
    /// callers decide (synthesis rejects `Unknown`, analysis tools may not).
    pub fn build(stg: &'a Stg) -> Result<Self, SynthesisError> {
        let analysis = {
            let _span = si_obs::span("context.consistency");
            StgAnalysis::analyze(stg).map_err(SynthesisError::Inconsistent)?
        };
        let sms = {
            let _span = si_obs::span("context.sm_cover");
            sm_cover(stg.net()).map_err(SynthesisError::NotSmCoverable)?
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

        let mut ctx = StructuralContext {
            stg,
            analysis,
            cubes,
            place_cover,
            sm_cover: sms,
            qps,
            refinement_rounds: 0,
        };
        ctx.refine_until_stable();
        Ok(ctx)
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
    /// concurrent place of each such component.
    ///
    /// A component lists its places in ascending order, so the union
    /// depends only on the set of its places concurrent with `p`:
    /// `unions` keeps each one the round has built, keyed by that set, for
    /// every later (place, component) pair with the same set.
    fn refined_from_snapshot(
        &self,
        snapshot: &[Cover],
        unions: &mut RoundUnions,
        p: PlaceId,
    ) -> Cover {
        let mut refined = snapshot[p.index()].clone();
        for sm in &self.sm_cover {
            if sm.contains_place(p) {
                continue;
            }
            unions.pairs += 1;
            let concurrent = Bits::from_ones(
                snapshot.len(),
                sm.places()
                    .iter()
                    .filter(|&&q| self.analysis.cr.places(p, q))
                    .map(|q| q.index()),
            );
            let union = unions.built.entry(concurrent).or_insert_with_key(|set| {
                Cover::union(
                    self.stg.signal_count(),
                    set.iter_ones().map(|q| &snapshot[q]),
                )
            });
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
                let mut c = refined.and(union);
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
    fn refine_round(&mut self) -> bool {
        let mut changed = false;
        let snapshot = self.place_cover.clone();
        let mut unions = RoundUnions {
            built: HashMap::new(),
            pairs: 0,
        };
        for p in self.stg.net().places() {
            let refined = self.refined_from_snapshot(&snapshot, &mut unions, p);
            // Keep the compact original whenever the refinement is merely a
            // re-expression: storing an equivalent multi-cube form would
            // slow every downstream cover operation for no precision gain.
            if !refined.equivalent(&self.place_cover[p.index()]) {
                changed = true;
                self.place_cover[p.index()] = refined;
            }
        }
        si_obs::counter_add("context.refine_pairs", unions.pairs);
        si_obs::counter_add("context.refine_unions", unions.built.len() as u64);
        changed
    }

    /// Runs refinement rounds (Fig. 12 discipline), up to
    /// `MAX_REFINE_ROUNDS`.
    ///
    /// The paper observes that refining *all* places — not only the
    /// conflicting ones — "leads to much better minimization solutions", so
    /// one round always runs on moderate-size nets; further rounds run only
    /// while structural conflicts persist and covers still change. On very
    /// large nets (where cover blow-up would dominate) refinement stays
    /// conflict-driven.
    fn refine_until_stable(&mut self) {
        let _span = si_obs::span("context.refine");
        let liberal = self.stg.net().place_count() <= UNCONDITIONAL_PLACE_LIMIT;
        for round in 0..MAX_REFINE_ROUNDS {
            let conflicted = self.has_conflict();
            let liberal_first_round = liberal && round == 0;
            if !conflicted && !liberal_first_round {
                break;
            }
            if !self.refine_round() {
                break;
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

    /// The Fig. 11 refinement of one place as it stood before the rounds
    /// shared their unions: one union and one containment test per
    /// (place, component) pair. It is the reference that pins the shared
    /// rounds cover for cover.
    fn unshared_refined(ctx: &StructuralContext<'_>, snapshot: &[Cover], p: PlaceId) -> Cover {
        let mut refined = snapshot[p.index()].clone();
        for sm in &ctx.sm_cover {
            if sm.contains_place(p) {
                continue;
            }
            let union = Cover::union(
                ctx.stg.signal_count(),
                sm.places()
                    .iter()
                    .filter(|&&q| ctx.analysis.cr.places(p, q))
                    .map(|q| &snapshot[q.index()]),
            );
            if union.is_empty() || union.covers(&refined) {
                continue;
            }
            let mut candidate = refined.and(&union);
            candidate.remove_single_cube_contained();
            if candidate.cube_count() > REFINED_CUBE_CAP {
                break;
            }
            refined = candidate;
        }
        refined
    }

    /// Runs refinement rounds on `stg`'s context from its initial covers,
    /// each against the unshared reference round, and asserts after every
    /// round that both changed the same covers to the same cubes. Returns
    /// the number of rounds that changed a cover, or `None` when the
    /// context cannot be built.
    fn rounds_agree(stg: &Stg) -> Option<usize> {
        let mut ctx = StructuralContext::build(stg).ok()?;
        let nsig = stg.signal_count();
        ctx.place_cover = ctx
            .cubes
            .cubes
            .iter()
            .map(|c| Cover::from_cubes(nsig, [c.clone()]))
            .collect();
        let mut changed_rounds = 0;
        for round in 0..MAX_REFINE_ROUNDS {
            let snapshot = ctx.place_cover.clone();
            let mut want = snapshot.clone();
            for p in stg.net().places() {
                let refined = unshared_refined(&ctx, &snapshot, p);
                if !refined.equivalent(&snapshot[p.index()]) {
                    want[p.index()] = refined;
                }
            }
            let changed = ctx.refine_round();
            assert_eq!(changed, want != snapshot, "{} round {round}", stg.name());
            assert_eq!(ctx.place_cover, want, "{} round {round}", stg.name());
            if !changed {
                break;
            }
            changed_rounds += 1;
        }
        Some(changed_rounds)
    }

    #[test]
    fn shared_unions_refine_like_the_unshared_rounds() {
        use si_stg::generators::{
            burst, clatch, muller_pipeline, philosophers, selector, sequencer, vme_burst, vme_chain,
        };
        let mut stgs = benchmarks::synthesizable_suite();
        stgs.push(benchmarks::vme_read_raw());
        for n in 2..=4 {
            stgs.extend([
                sequencer(n),
                selector(n),
                burst(n),
                philosophers(n),
                clatch(n),
                muller_pipeline(n),
            ]);
        }
        let mut changed = 0;
        for stg in &stgs {
            changed += rounds_agree(stg).expect("the suite and the families build");
        }
        // The candidate contexts of a CSC search: each plan's STG, in the
        // order the search scores them.
        let mut candidates = 0;
        for stg in (1..=8).map(vme_chain).chain((1..=3).map(vme_burst)) {
            let base = si_csc::StructuralContext::build(&stg).expect("the input builds");
            let cores = si_csc::conflict_cores(&base);
            let tiers = si_csc::CandidateTiers::new(&base, &cores);
            for plan in tiers.plans().take(96) {
                let candidate = si_csc::apply_insertion(&stg, "csc0", &plan);
                if let Some(rounds) = rounds_agree(&candidate) {
                    changed += rounds;
                    candidates += 1;
                }
            }
        }
        assert!(
            candidates > 500 && changed > candidates,
            "{candidates} / {changed}"
        );
    }

    #[test]
    fn inconsistency_is_reported_before_a_missing_sm_cover() {
        // b's cycle holds no token, so no one-token SM-component covers
        // its places; a rises twice in a row, so the STG is inconsistent.
        let spec = |a_cycle: &str| {
            si_stg::parse_g(&format!(
                ".model precedence\n.outputs a b\n.graph\n{a_cycle}\
                 b+ b-\nb- b+\n.marking {{ <a-,a+> }}\n.end\n"
            ))
            .unwrap()
        };
        let both = spec("a+ a+/2\na+/2 a-\na- a+\n");
        assert!(matches!(
            StructuralContext::build(&both),
            Err(SynthesisError::Inconsistent(_))
        ));
        let uncoverable = spec("a+ a-\na- a+\n");
        assert!(matches!(
            StructuralContext::build(&uncoverable),
            Err(SynthesisError::NotSmCoverable(_))
        ));
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
