//! The candidate search: structural scoring, cost ranking, strategies and
//! the behavioural acceptance oracle.
//!
//! The search pipeline per candidate:
//!
//! 1. `apply_insertion_mapped` — the STG surgery (`si_stg::edit`);
//! 2. [`StructuralContext::build_incremental`] — incremental re-analysis
//!    replaying the input's refinement trace (no full context rebuild);
//! 3. structural pruning — candidates whose CSC verdict stays `Unknown`
//!    are rejected without ever touching a state graph;
//! 4. cost model — estimated literal delta (place-cover cube growth plus
//!    the literals of the new signal's own excitation covers) plus a
//!    penalty per concurrent place pair the insertion serializes;
//! 5. behavioural oracle — liveness, safeness, consistency, CSC and output
//!    semimodularity on the candidate's own [`Engine`] session.
//!
//! Steps 1–4 are scored concurrently on the workspace pool
//! ([`si_fault::par_map`]); the oracle runs in deterministic rank order,
//! so the outcome is identical at any worker count.

use crate::cores::{conflict_cores, targeted_candidate_tiers};
use si_core::{no_conflict_resolution, CscVerdict, Engine, RefinementTrace, StructuralContext};
use si_petri::{Budget, Interrupt, PlaceId, ReachOptions, TransId};
use si_stg::{
    apply_insertion, apply_insertion_mapped, semimodularity_violations, CodingAnalysis,
    InsertionMap, InsertionPlan, StateEncoding, Stg,
};
use std::time::Instant;

/// Candidate-selection strategy of [`resolve`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// First fit in core-proximity order: candidates are scored in
    /// batches and the first structural survivor the oracle accepts wins.
    /// Cheapest wall time; the plan quality rides on the tier ordering.
    Greedy,
    /// Score candidates tier by tier (expanding core-proximity radius,
    /// within the budget) until a completed tier yields structural
    /// survivors; rank those survivors by the cost model and oracle the
    /// best `beam_width` in rank order — the accepted plan is the
    /// least-cost one the oracle admits *within the nearest productive
    /// tier* (the full space is only scored when every closer tier is
    /// barren, which keeps beam cost comparable to greedy).
    Beam,
}

impl Strategy {
    /// The stable CLI identifier (`--strategy` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Greedy => "greedy",
            Strategy::Beam => "beam",
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "greedy" => Ok(Strategy::Greedy),
            "beam" => Ok(Strategy::Beam),
            other => Err(format!(
                "unknown strategy {other:?} (expected greedy or beam)"
            )),
        }
    }
}

/// Options of the CSC resolution search.
#[derive(Clone, Debug)]
pub struct CscOptions {
    /// Candidate-search budget: how many insertion candidates may be
    /// structurally evaluated (distinct from `reach.cap`, which bounds
    /// each candidate's acceptance oracle).
    pub budget: usize,
    /// The search strategy.
    pub strategy: Strategy,
    /// How many ranked survivors the beam strategy oracles.
    pub beam_width: usize,
    /// Reachability options of the behavioural acceptance oracle.
    pub reach: ReachOptions,
    /// Worker threads for the structural scoring phase; `0` picks the
    /// hardware thread count.
    pub workers: usize,
    /// Name of the inserted signal.
    pub signal_name: String,
}

impl Default for CscOptions {
    fn default() -> Self {
        CscOptions {
            budget: 100_000,
            strategy: Strategy::Greedy,
            beam_width: 8,
            reach: ReachOptions::with_cap(1_000_000),
            workers: 0,
            signal_name: "csc0".to_string(),
        }
    }
}

impl CscOptions {
    /// Sets the candidate-search budget.
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the beam width.
    pub fn beam_width(mut self, width: usize) -> Self {
        self.beam_width = width.max(1);
        self
    }

    /// Sets the oracle's reachability options.
    pub fn reach(mut self, reach: ReachOptions) -> Self {
        self.reach = reach;
        self
    }

    /// Sets the scoring worker count (`0` = hardware threads).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            si_fault::hardware_threads()
        } else {
            self.workers
        }
    }
}

/// Counters of one [`resolve`] run — the `--json` search statistics of
/// `sisyn resolve`.
///
/// When the input fails the structural preconditions (inconsistent / not
/// SM-coverable) the resolver falls back to [`resolve_csc_blind`], which
/// has no counters: only `wall_ms` and `strategy` are meaningful then.
#[derive(Clone, Debug)]
pub struct ResolveStats {
    /// The strategy that ran.
    pub strategy: Strategy,
    /// Conflict cores extracted from the input.
    pub cores: usize,
    /// Insertion candidates generated (deduplicated, budget-capped).
    pub generated: usize,
    /// Candidates structurally evaluated (incremental re-analyses).
    pub evaluated: usize,
    /// Candidates the structural pruning rejected.
    pub rejected: usize,
    /// Behavioural oracle runs.
    pub oracle_calls: usize,
    /// Oracle runs that rejected the candidate.
    pub oracle_rejected: usize,
    /// Candidates whose scoring worker panicked. Panics are isolated per
    /// candidate (`si_fault::run_isolated`): the panicking candidate is
    /// skipped and the search continues on the surviving ones.
    pub panicked: usize,
    /// Set when the oracle budget's deadline or cancellation token stopped
    /// the search early; `states_explored` carries the number of
    /// candidates evaluated up to that point. The outcome then reports the
    /// best resolution found so far (possibly none) — inconclusive, not
    /// failed.
    pub interrupted: Option<Interrupt>,
    /// End-to-end wall time in milliseconds.
    pub wall_ms: f64,
}

impl ResolveStats {
    pub(crate) fn new(strategy: Strategy) -> Self {
        ResolveStats {
            strategy,
            cores: 0,
            generated: 0,
            evaluated: 0,
            rejected: 0,
            oracle_calls: 0,
            oracle_rejected: 0,
            panicked: 0,
            interrupted: None,
            wall_ms: 0.0,
        }
    }

    /// Records a deadline/cancellation interruption (first one wins) of a
    /// search that began at `started`.
    fn interrupt(&mut self, reason: si_petri::InterruptReason, budget: &Budget, started: Instant) {
        if self.interrupted.is_none() {
            self.interrupted = Some(Interrupt {
                reason,
                states_explored: self.evaluated,
                elapsed: budget.elapsed_since(started, Some(reason)),
            });
        }
    }
}

/// A successful resolution: the repaired STG, the plan that produced it
/// and its cost-model score (`0` for the no-conflict fast path).
#[derive(Clone, Debug)]
pub struct Resolution {
    /// The repaired STG (one more internal signal).
    pub stg: Stg,
    /// The accepted insertion plan (the sentinel plan when the input
    /// already satisfied CSC).
    pub plan: InsertionPlan,
    /// Cost-model score of the accepted candidate.
    pub cost: i64,
}

/// The result of [`resolve`]: the resolution (if any) plus the search
/// statistics, which are reported even on failure.
#[derive(Clone, Debug)]
pub struct ResolveOutcome {
    /// The resolution, or `None` when no candidate within the budget
    /// passed both the structural pruning and the behavioural oracle.
    pub resolution: Option<Resolution>,
    /// Search statistics.
    pub stats: ResolveStats,
}

/// Searches for a single-signal insertion that resolves the CSC conflicts
/// of `stg` under the given options. See the crate docs for the pipeline.
///
/// When the input already satisfies CSC it is returned unchanged together
/// with the no-op sentinel plan (`si_core::sentinel_plan`).
pub fn resolve(stg: &Stg, options: &CscOptions) -> ResolveOutcome {
    let _span = si_obs::span("csc.resolve");
    let t0 = Instant::now();
    let mut stats = ResolveStats::new(options.strategy);
    let Ok((parent, trace)) = StructuralContext::build_traced(stg) else {
        // The input fails the structural preconditions; fall back to the
        // blind search for exact behavioural parity (its candidates are
        // built from scratch and may still pass — rare, but the old
        // semantics). The blind search has no counters, so only `wall_ms`
        // and the requested strategy label are meaningful in the returned
        // stats on this path.
        let resolution = resolve_csc_blind(stg, options.budget, options.reach.clone())
            .map(|(stg, plan)| Resolution { stg, plan, cost: 0 });
        stats.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        return ResolveOutcome { resolution, stats };
    };
    if let Some((same, plan)) = no_conflict_resolution(stg, &parent) {
        stats.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        return ResolveOutcome {
            resolution: Some(Resolution {
                stg: same,
                plan,
                cost: 0,
            }),
            stats,
        };
    }
    // Counted at the build site (and each reanalysis in `evaluate_one`),
    // so concurrent searches count only their own builds.
    si_obs::counter_inc("csc.context_rebuilds");

    let cores = conflict_cores(&parent);
    stats.cores = cores.len();
    let tiers = targeted_candidate_tiers(&parent, &cores, options.budget);
    stats.generated = tiers.iter().map(Vec::len).sum();
    let workers = options.effective_workers();
    let name = fresh_signal_name(stg, &options.signal_name);

    let mut resolution = None;
    match options.strategy {
        Strategy::Greedy => {
            // Fixed-size batches keep the outcome deterministic at any
            // worker count: survivors of a batch are oracled in candidate
            // order before the next batch is scored.
            let batch = (workers * 8).max(32);
            'outer: for chunk in tiers.iter().flat_map(|tier| tier.chunks(batch)) {
                if let Some(reason) = options.reach.budget.check_soft(0) {
                    stats.interrupt(reason, &options.reach.budget, t0);
                    break 'outer;
                }
                let results = evaluate_batch(stg, &parent, &trace, &name, chunk, workers);
                stats.evaluated += chunk.len();
                for (i, result) in results.into_iter().enumerate() {
                    let result = match result {
                        Ok(scored) => scored,
                        Err(_panic) => {
                            stats.panicked += 1;
                            continue;
                        }
                    };
                    let Some((candidate, cost)) = result else {
                        stats.rejected += 1;
                        continue;
                    };
                    stats.oracle_calls += 1;
                    if oracle_accepts(&candidate, &options.reach) {
                        resolution = Some(Resolution {
                            stg: candidate,
                            plan: chunk[i].clone(),
                            cost,
                        });
                        break 'outer;
                    }
                    stats.oracle_rejected += 1;
                }
            }
        }
        Strategy::Beam => {
            // Score tier by tier; once a completed tier has structural
            // survivors, rank them by cost and oracle the best. Ranking
            // within completed tiers keeps beam cost comparable to greedy
            // (the full candidate space is only scored when every closer
            // tier is barren) while still optimizing the cost model.
            let batch = (workers * 8).max(32);
            let mut survivors: Vec<(i64, usize, Stg, InsertionPlan)> = Vec::new();
            let mut order = 0usize;
            'scoring: for tier in &tiers {
                for chunk in tier.chunks(batch) {
                    if let Some(reason) = options.reach.budget.check_soft(0) {
                        // Graceful degradation: rank whatever survived the
                        // batches scored so far instead of discarding them.
                        stats.interrupt(reason, &options.reach.budget, t0);
                        break 'scoring;
                    }
                    let results = evaluate_batch(stg, &parent, &trace, &name, chunk, workers);
                    stats.evaluated += chunk.len();
                    for (i, result) in results.into_iter().enumerate() {
                        match result {
                            Ok(Some((candidate, cost))) => {
                                survivors.push((cost, order, candidate, chunk[i].clone()))
                            }
                            Ok(None) => stats.rejected += 1,
                            Err(_panic) => stats.panicked += 1,
                        }
                        order += 1;
                    }
                }
                if !survivors.is_empty() {
                    break;
                }
            }
            survivors.sort_by_key(|&(cost, index, _, _)| (cost, index));
            for (cost, _, candidate, plan) in survivors.into_iter().take(options.beam_width) {
                if let Some(reason) = options.reach.budget.check_soft(0) {
                    stats.interrupt(reason, &options.reach.budget, t0);
                    break;
                }
                stats.oracle_calls += 1;
                if oracle_accepts(&candidate, &options.reach) {
                    resolution = Some(Resolution {
                        stg: candidate,
                        plan,
                        cost,
                    });
                    break;
                }
                stats.oracle_rejected += 1;
            }
        }
    }
    stats.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if si_obs::enabled() {
        si_obs::counter_add("csc.cores", stats.cores as u64);
        si_obs::counter_add("csc.tiers", tiers.len() as u64);
        si_obs::counter_add("csc.candidates", stats.generated as u64);
        si_obs::counter_add("csc.evaluated", stats.evaluated as u64);
        si_obs::counter_add("csc.rejected", stats.rejected as u64);
        si_obs::counter_add("csc.oracle_calls", stats.oracle_calls as u64);
        si_obs::counter_add("csc.oracle_rejected", stats.oracle_rejected as u64);
    }
    ResolveOutcome { resolution, stats }
}

/// The configured insertion-signal name, uniquified against the input's
/// signals by a numeric suffix (`csc0` → `csc0_1`, `csc0_2`, … —
/// resolving an STG that already went through a resolution round must
/// not collide).
fn fresh_signal_name(stg: &Stg, base: &str) -> String {
    if stg.signal_by_name(base).is_none() {
        return base.to_string();
    }
    (1..)
        .map(|i| format!("{base}_{i}"))
        .find(|name| stg.signal_by_name(name).is_none())
        .expect("some suffixed name is free")
}

/// One candidate's scoring outcome: `Ok(Some)` on a structural survivor
/// with its cost, `Ok(None)` on a structural reject, `Err` on a panic
/// captured by the isolation boundary.
type EvalOutcome = Result<Option<(Stg, i64)>, String>;

/// Scores one batch of candidates on the workspace pool
/// ([`si_fault::par_map`]), preserving input order.
///
/// Each candidate is scored inside a panic-isolation boundary: a
/// panicking candidate yields `Err(message)` in its slot — and, under the
/// `failpoints` feature, hosts the `csc::evaluate` injection site (value =
/// in-batch candidate index) — while every other candidate proceeds
/// normally.
fn evaluate_batch(
    base: &Stg,
    parent: &StructuralContext<'_>,
    trace: &RefinementTrace,
    name: &str,
    plans: &[InsertionPlan],
    workers: usize,
) -> Vec<EvalOutcome> {
    si_fault::par_map(plans.len(), workers, |i| {
        si_fault::fail_point!("csc::evaluate", i);
        evaluate_one(base, parent, trace, name, &plans[i])
    })
}

/// Structural evaluation of one candidate: surgery, incremental
/// re-analysis, CSC pruning, cost. `None` when the candidate is rejected.
fn evaluate_one(
    base: &Stg,
    parent: &StructuralContext<'_>,
    trace: &RefinementTrace,
    name: &str,
    plan: &InsertionPlan,
) -> Option<(Stg, i64)> {
    let (candidate, map) = apply_insertion_mapped(base, name, plan);
    si_obs::counter_inc("csc.context_reanalyses");
    let cost = {
        let ctx = StructuralContext::build_incremental(parent, trace, &candidate, &map).ok()?;
        if !ctx.csc_holds() {
            return None;
        }
        cost_of(parent, &ctx, &map)
    };
    Some((candidate, cost))
}

/// The candidate cost model: estimated literal delta (place-cover cube
/// growth plus the literals of the new signal's excitation covers — the
/// logic the insertion adds) plus a penalty per concurrent place pair the
/// insertion serializes (lost concurrency is lost performance in the
/// implemented circuit).
fn cost_of(parent: &StructuralContext<'_>, ctx: &StructuralContext<'_>, map: &InsertionMap) -> i64 {
    const CONCURRENCY_PENALTY: i64 = 4;
    let cube_delta = ctx.total_cubes() as i64 - parent.total_cubes() as i64;
    let new_signal_literals =
        ctx.er_cover(map.rise).literal_count() + ctx.er_cover(map.fall).literal_count();
    let mut serialized = 0i64;
    let mapped: Vec<(PlaceId, PlaceId)> = map
        .place_to_new
        .iter()
        .enumerate()
        .filter_map(|(old, new)| new.map(|n| (PlaceId(old as u32), n)))
        .collect();
    for (i, &(old_p, new_p)) in mapped.iter().enumerate() {
        for &(old_q, new_q) in &mapped[i + 1..] {
            if parent.analysis.cr.places(old_p, old_q) && !ctx.analysis.cr.places(new_p, new_q) {
                serialized += 1;
            }
        }
    }
    cube_delta + new_signal_literals as i64 + CONCURRENCY_PENALTY * serialized
}

/// Does the behavioural oracle accept the candidate completely? Runs on
/// the candidate's own [`Engine`] session under `reach` (cap and shard
/// count): liveness, safeness, consistency, CSC and output
/// semimodularity.
fn oracle_accepts(stg: &Stg, reach: &ReachOptions) -> bool {
    let engine = Engine::new(stg).reach(reach.clone());
    let Ok(rg) = engine.reachability() else {
        return false;
    };
    if !rg.is_live(stg.net()) {
        return false;
    }
    let Ok(enc) = StateEncoding::compute(stg, rg) else {
        return false;
    };
    let coding = CodingAnalysis::compute(stg, rg, &enc);
    coding.has_csc() && semimodularity_violations(stg, rg).is_empty()
}

/// Searches for a single-signal insertion that resolves the CSC conflicts
/// of `stg` with the default options (greedy strategy, 1M-state oracle
/// cap). Returns the repaired STG and the plan, or `None` when no
/// candidate within `budget` works.
///
/// When the input already satisfies CSC it is returned unchanged together
/// with the no-op sentinel plan (`rise_split == fall_split == PlaceId(0)`,
/// no waits — impossible for a real insertion, whose split places always
/// differ).
pub fn resolve_csc(stg: &Stg, budget: usize) -> Option<(Stg, InsertionPlan)> {
    resolve_csc_with(stg, budget, ReachOptions::with_cap(1_000_000))
}

/// Like [`resolve_csc`] but with explicit [`ReachOptions`] for the
/// behavioural acceptance oracle: `reach.cap` bounds the candidate's state
/// space and `reach.shards > 1` runs the oracle's reachability build on
/// the sharded multi-threaded engine.
pub fn resolve_csc_with(
    stg: &Stg,
    budget: usize,
    reach: ReachOptions,
) -> Option<(Stg, InsertionPlan)> {
    resolve(stg, &CscOptions::default().budget(budget).reach(reach))
        .resolution
        .map(|r| (r.stg, r.plan))
}

/// The pre-subsystem blind search, kept verbatim as the equivalence
/// oracle and bench baseline: all ordered pairs of distinct simple places
/// under a budget, first without wait arcs, then with one wait arc from
/// every transition — each candidate paying a **full**
/// [`StructuralContext::build`] before the behavioural oracle.
pub fn resolve_csc_blind(
    stg: &Stg,
    budget: usize,
    reach: ReachOptions,
) -> Option<(Stg, InsertionPlan)> {
    if let Ok(ctx) = StructuralContext::build(stg) {
        if let Some(done) = no_conflict_resolution(stg, &ctx) {
            return Some(done);
        }
    }
    let net = stg.net();
    let splittable: Vec<PlaceId> = net
        .places()
        .filter(|&p| {
            net.pre_p(p).len() == 1
                && net.post_p(p).len() == 1
                && !net.initial_marking().get(p.index())
                && stg
                    .signal_kind(stg.signal_of(net.post_p(p)[0]))
                    .is_synthesized()
        })
        .collect();

    let mut tried = 0usize;
    // Pass 1: plain arc splits. Pass 2: with one wait arc.
    for with_waits in [false, true] {
        for &rise in &splittable {
            for &fall in &splittable {
                if rise == fall {
                    continue;
                }
                let wait_options: Vec<Vec<(TransId, bool)>> = if with_waits {
                    net.transitions()
                        .flat_map(|t| [vec![(t, true)], vec![(t, false)]])
                        .collect()
                } else {
                    vec![Vec::new()]
                };
                for rise_waits in wait_options {
                    // A wait from the transition x+ precedes is cyclic junk.
                    if rise_waits
                        .iter()
                        .any(|&(t, _)| t == net.post_p(rise)[0] || t == net.pre_p(rise)[0])
                    {
                        continue;
                    }
                    tried += 1;
                    if tried > budget {
                        return None;
                    }
                    let plan = InsertionPlan {
                        rise_split: rise,
                        fall_split: fall,
                        rise_waits,
                    };
                    let candidate = apply_insertion(stg, "csc0", &plan);
                    // Structural pruning — full rebuild per candidate.
                    let Ok(ctx) = StructuralContext::build(&candidate) else {
                        continue;
                    };
                    if matches!(ctx.csc_verdict(), CscVerdict::Unknown { .. }) {
                        continue;
                    }
                    // Behavioural acceptance.
                    if oracle_accepts(&candidate, &reach) {
                        return Some((candidate, plan));
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vme_read_conflict_is_resolved_automatically() {
        let raw = si_stg::benchmarks::vme_read_raw();
        let (fixed, plan) = resolve_csc(&raw, 50_000).expect("resolvable");
        assert_eq!(fixed.signal_count(), raw.signal_count() + 1);
        // The repaired STG synthesizes and verifies.
        let syn = si_core::synthesize(&fixed, &si_core::SynthesisOptions::default())
            .expect("synthesizable");
        assert!(syn.literal_area > 0);
        let _ = plan;
    }

    #[test]
    fn csc_clean_stg_returned_unchanged() {
        let stg = si_stg::benchmarks::burst2();
        let (same, plan) = resolve_csc(&stg, 10).expect("already clean");
        assert_eq!(same.signal_count(), stg.signal_count());
        assert!(plan.rise_waits.is_empty());
    }

    #[test]
    fn apply_insertion_shapes_the_net() {
        let stg = si_stg::benchmarks::half_handshake();
        let net = stg.net();
        // split <a+,b+> for x+ and <a-,b-> for x-.
        let ap = stg.transition_by_display("a+").unwrap();
        let am = stg.transition_by_display("a-").unwrap();
        let rise = net.post_t(ap)[0];
        let fall = net.post_t(am)[0];
        let plan = InsertionPlan {
            rise_split: rise,
            fall_split: fall,
            rise_waits: Vec::new(),
        };
        let out = apply_insertion(&stg, "x", &plan);
        assert_eq!(out.signal_count(), stg.signal_count() + 1);
        assert_eq!(
            out.net().transition_count(),
            stg.net().transition_count() + 2
        );
        // behaviour stays live and consistent
        assert!(oracle_accepts(&out, &ReachOptions::with_cap(10_000)));
    }

    #[test]
    fn beam_strategy_resolves_vme_with_stats() {
        let raw = si_stg::benchmarks::vme_read_raw();
        let outcome = resolve(
            &raw,
            &CscOptions::default()
                .strategy(Strategy::Beam)
                .budget(50_000),
        );
        let resolution = outcome.resolution.expect("beam resolves the VME bus");
        assert_eq!(resolution.stg.signal_count(), raw.signal_count() + 1);
        assert!(outcome.stats.cores > 0);
        assert!(outcome.stats.evaluated > 0);
        assert!(outcome.stats.oracle_calls > 0);
        // Beam scores whole tiers (here every closer tier is barren, so
        // the full candidate space was scored before committing).
        assert!(outcome.stats.evaluated > 0);
        assert!(outcome.stats.evaluated <= outcome.stats.generated);
    }

    #[test]
    fn subsystem_and_blind_search_agree_on_resolvability() {
        for (stg, budget) in [
            (si_stg::benchmarks::vme_read_raw(), 50_000usize),
            (si_stg::benchmarks::burst2(), 100),
        ] {
            let reach = ReachOptions::with_cap(100_000);
            let blind = resolve_csc_blind(&stg, budget, reach.clone());
            let new = resolve_csc_with(&stg, budget, reach.clone());
            assert_eq!(blind.is_some(), new.is_some(), "{}", stg.name());
            if let (Some((b, _)), Some((n, _))) = (blind, new) {
                assert_eq!(b.signal_count(), n.signal_count(), "{}", stg.name());
                // Both picks must pass the full behavioural oracle.
                assert!(oracle_accepts(&b, &reach));
                assert!(oracle_accepts(&n, &reach));
            }
        }
    }

    #[test]
    fn parallel_scoring_is_deterministic() {
        let raw = si_stg::benchmarks::vme_read_raw();
        let base = resolve(&raw, &CscOptions::default().budget(50_000).workers(1));
        let multi = resolve(&raw, &CscOptions::default().budget(50_000).workers(4));
        let (a, b) = (base.resolution.unwrap(), multi.resolution.unwrap());
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.cost, b.cost);
        assert_eq!(si_stg::write_g(&a.stg), si_stg::write_g(&b.stg));
    }
}
