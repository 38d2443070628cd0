//! The candidate search: structural scoring, cost ranking, strategies and
//! the behavioural acceptance oracle.
//!
//! The search pipeline per candidate:
//!
//! 1. `apply_insertion_mapped` — the STG surgery (`si_stg::edit`);
//! 2. [`StructuralContext::build`] — the candidate's own structural
//!    context, built like any other;
//! 3. structural pruning — candidates whose CSC verdict stays `Unknown`
//!    are rejected without ever touching a state graph;
//! 4. cost model — estimated literal delta (place-cover cube growth plus
//!    the literals of the new signal's own excitation covers) plus a
//!    penalty per concurrent place pair the insertion serializes;
//! 5. behavioural oracle — liveness, safeness, consistency, CSC and output
//!    semimodularity on the candidate's own [`Engine`] session.
//!
//! Steps 1–4 are scored concurrently on the workspace pool
//! ([`si_fault::par_map`]), one chunk of candidates at a time; the oracle
//! runs in deterministic rank order, so the outcome is identical at any
//! worker count.

use crate::cores::{conflict_cores, CandidateTiers};
use si_core::{no_conflict_resolution, CscVerdict, Engine, StructuralContext};
use si_petri::{Budget, Interrupt, PlaceId, ReachOptions, TransId};
use si_stg::{
    apply_insertion, apply_insertion_mapped, semimodularity_violations, CodingAnalysis,
    InsertionMap, InsertionPlan, StateEncoding, Stg,
};
use std::time::Instant;

/// Candidate-selection strategy of the CSC search
/// ([`crate::EngineResolve::resolve_csc_outcome`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// First fit in core-proximity order: candidates are scored in
    /// chunks and the first structural survivor the oracle accepts wins.
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

/// Counters of one CSC search — the `--json` search statistics of
/// `sisyn resolve`.
#[derive(Clone, Debug)]
pub struct ResolveStats {
    /// The strategy that ran.
    pub strategy: Strategy,
    /// Conflict cores extracted from the input.
    pub cores: usize,
    /// Insertion candidates in the search space, capped by the budget
    /// (the tiers themselves are generated only as far as the search
    /// reaches).
    pub generated: usize,
    /// Candidates structurally evaluated (one context build each).
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

    /// Adds the search counters to the `si_obs` registry; `tiers` is how
    /// many candidate tiers the search reached.
    pub(crate) fn record(&self, tiers: usize) {
        if si_obs::enabled() {
            si_obs::counter_add("csc.cores", self.cores as u64);
            si_obs::counter_add("csc.tiers", tiers as u64);
            si_obs::counter_add("csc.candidates", self.generated as u64);
            si_obs::counter_add("csc.evaluated", self.evaluated as u64);
            si_obs::counter_add("csc.rejected", self.rejected as u64);
            si_obs::counter_add("csc.oracle_calls", self.oracle_calls as u64);
            si_obs::counter_add("csc.oracle_rejected", self.oracle_rejected as u64);
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

/// The result of a CSC search: the resolution (if any) plus the search
/// statistics, which are reported even on failure.
#[derive(Clone, Debug)]
pub struct ResolveOutcome {
    /// The resolution, or `None` when no candidate within the budget
    /// passed both the structural pruning and the behavioural oracle.
    pub resolution: Option<Resolution>,
    /// Search statistics.
    pub stats: ResolveStats,
}

/// The conflict-core search of `stg` whose context `parent` leaves CSC
/// unresolved: the candidate tiers around its cores, scored in chunks in
/// one loop for both strategies. Greedy sends each chunk's survivors to
/// the oracle in candidate order; beam collects the survivors of the
/// first tier that has any, then oracles the best `beam_width` by cost.
/// The deadline and cancellation token of `options.reach.budget` are
/// checked before each chunk and each beam oracle call. Returns the
/// resolution and how many tiers the search reached.
pub(crate) fn targeted_search(
    stg: &Stg,
    parent: &StructuralContext<'_>,
    name: &str,
    options: &CscOptions,
    stats: &mut ResolveStats,
    started: Instant,
) -> (Option<Resolution>, usize) {
    let cores = conflict_cores(parent);
    stats.cores = cores.len();
    let tiers = CandidateTiers::new(parent, &cores);
    stats.generated = tiers.count().min(options.budget);
    let workers = options.effective_workers();
    // Fixed-size chunks within a tier keep the outcome deterministic at
    // any worker count: a chunk's survivors are handled in candidate
    // order before the next chunk is scored.
    let batch = (workers * 8).max(32);
    let mut chunk = Vec::with_capacity(batch);
    let mut survivors: Vec<(i64, Stg, InsertionPlan)> = Vec::new();
    let mut reached = 0;
    'tiers: for k in 0..CandidateTiers::TIERS {
        let mut plans = tiers.tier(k);
        loop {
            let room = batch.min(stats.generated - stats.evaluated);
            chunk.extend(plans.by_ref().take(room));
            if chunk.is_empty() {
                break;
            }
            reached = k + 1;
            if let Some(reason) = options.reach.budget.check_soft(0) {
                // Beam ranks whatever survived the chunks scored so far.
                stats.interrupt(reason, &options.reach.budget, started);
                break 'tiers;
            }
            let results = evaluate_batch(stg, parent, name, &chunk, workers);
            stats.evaluated += chunk.len();
            for (plan, result) in chunk.drain(..).zip(results) {
                match result {
                    Ok(Some((candidate, cost))) if options.strategy == Strategy::Greedy => {
                        if let Some(found) = oracle(candidate, plan, cost, &options.reach, stats) {
                            return (Some(found), reached);
                        }
                    }
                    Ok(Some((candidate, cost))) => survivors.push((cost, candidate, plan)),
                    Ok(None) => stats.rejected += 1,
                    Err(_panic) => stats.panicked += 1,
                }
            }
        }
        if !survivors.is_empty() {
            break;
        }
    }
    // A stable sort: equal costs keep candidate order.
    survivors.sort_by_key(|&(cost, ..)| cost);
    for (cost, candidate, plan) in survivors.into_iter().take(options.beam_width) {
        if let Some(reason) = options.reach.budget.check_soft(0) {
            stats.interrupt(reason, &options.reach.budget, started);
            break;
        }
        if let Some(found) = oracle(candidate, plan, cost, &options.reach, stats) {
            return (Some(found), reached);
        }
    }
    (None, reached)
}

/// One behavioural oracle call on a structural survivor, counted into
/// `stats`: the resolution when the oracle accepts it.
fn oracle(
    candidate: Stg,
    plan: InsertionPlan,
    cost: i64,
    reach: &ReachOptions,
    stats: &mut ResolveStats,
) -> Option<Resolution> {
    stats.oracle_calls += 1;
    if oracle_accepts(&candidate, reach) {
        return Some(Resolution {
            stg: candidate,
            plan,
            cost,
        });
    }
    stats.oracle_rejected += 1;
    None
}

/// The configured insertion-signal name, uniquified against the input's
/// signals by a numeric suffix (`csc0` → `csc0_1`, `csc0_2`, … —
/// resolving an STG that already went through a resolution round must
/// not collide).
pub(crate) fn fresh_signal_name(stg: &Stg, base: &str) -> String {
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

/// Scores one chunk of candidates on the workspace pool
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
    name: &str,
    plans: &[InsertionPlan],
    workers: usize,
) -> Vec<EvalOutcome> {
    si_fault::par_map(plans.len(), workers, |i| {
        si_fault::fail_point!("csc::evaluate", i);
        evaluate_one(base, parent, name, &plans[i])
    })
}

/// Structural evaluation of one candidate: surgery, the candidate's own
/// context build, CSC pruning, cost. `None` when the candidate is
/// rejected.
fn evaluate_one(
    base: &Stg,
    parent: &StructuralContext<'_>,
    name: &str,
    plan: &InsertionPlan,
) -> Option<(Stg, i64)> {
    let (candidate, map) = apply_insertion_mapped(base, name, plan);
    si_obs::counter_inc("csc.context_reanalyses");
    let cost = {
        let ctx = StructuralContext::build(&candidate).ok()?;
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
/// the candidate's own [`Engine`] session under `reach`'s budget:
/// liveness, safeness, consistency, CSC and output semimodularity, all
/// read from the candidate's reachability graph.
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

/// The pre-subsystem blind search, kept as the equivalence oracle and
/// bench baseline: all ordered pairs of distinct simple places under a
/// budget, first without wait arcs, then with one wait arc from every
/// transition — each candidate paying a full [`StructuralContext::build`]
/// before the behavioural oracle. The new signal is named `csc0`,
/// suffixed if the input already has a signal of that name.
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
    let name = fresh_signal_name(stg, "csc0");
    let mut stats = ResolveStats::new(Strategy::Greedy);
    blind_search(stg, &name, budget, &reach, &mut stats, Instant::now())
}

/// The candidate loop of [`resolve_csc_blind`], which the CSC search also
/// runs when the input fails the structural preconditions. Counts into
/// `stats`, and checks the deadline and cancellation token of
/// `reach.budget` before each candidate.
pub(crate) fn blind_search(
    stg: &Stg,
    name: &str,
    budget: usize,
    reach: &ReachOptions,
    stats: &mut ResolveStats,
    started: Instant,
) -> Option<(Stg, InsertionPlan)> {
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
                    if stats.evaluated >= budget {
                        return None;
                    }
                    if let Some(reason) = reach.budget.check_soft(0) {
                        stats.interrupt(reason, &reach.budget, started);
                        return None;
                    }
                    stats.generated += 1;
                    stats.evaluated += 1;
                    let plan = InsertionPlan {
                        rise_split: rise,
                        fall_split: fall,
                        rise_waits,
                    };
                    let candidate = apply_insertion(stg, name, &plan);
                    // Structural pruning — full rebuild per candidate.
                    si_obs::counter_inc("csc.context_reanalyses");
                    let survives = StructuralContext::build(&candidate)
                        .is_ok_and(|ctx| !matches!(ctx.csc_verdict(), CscVerdict::Unknown { .. }));
                    if !survives {
                        stats.rejected += 1;
                        continue;
                    }
                    // Behavioural acceptance.
                    stats.oracle_calls += 1;
                    if oracle_accepts(&candidate, reach) {
                        return Some((candidate, plan));
                    }
                    stats.oracle_rejected += 1;
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineResolve;

    /// The search as every caller runs it: through a fresh session.
    fn resolve(stg: &Stg, options: &CscOptions) -> ResolveOutcome {
        Engine::new(stg).resolve_csc_outcome(options)
    }

    #[test]
    fn vme_read_conflict_is_resolved_automatically() {
        let raw = si_stg::benchmarks::vme_read_raw();
        let (fixed, plan) = Engine::new(&raw).resolve_csc(50_000).expect("resolvable");
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
        let (same, plan) = Engine::new(&stg).resolve_csc(10).expect("already clean");
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
        assert_eq!(outcome.stats.evaluated, outcome.stats.generated);
    }

    #[test]
    fn subsystem_and_blind_search_agree_on_resolvability() {
        for (stg, budget) in [
            (si_stg::benchmarks::vme_read_raw(), 50_000usize),
            (si_stg::benchmarks::burst2(), 100),
        ] {
            let reach = ReachOptions::with_cap(100_000);
            let blind = resolve_csc_blind(&stg, budget, reach.clone());
            let new = Engine::new(&stg).reach(reach.clone()).resolve_csc(budget);
            assert_eq!(blind.is_some(), new.is_some(), "{}", stg.name());
            if let (Some((b, _)), Some((n, _))) = (blind, new) {
                assert_eq!(b.signal_count(), n.signal_count(), "{}", stg.name());
                // Both picks must pass the full behavioural oracle.
                assert!(oracle_accepts(&b, &reach));
                assert!(oracle_accepts(&n, &reach));
            }
        }
    }

    /// An inconsistent STG (`csc0` rises twice) whose only output is named
    /// `csc0`, the blind search's signal name.
    const DUP_CSC0: &str = ".model dup\n.inputs a\n.outputs csc0\n.graph\na+ csc0+\n\
        csc0+ a-\na- csc0+/2\ncsc0+/2 a+\n.marking { <csc0+/2,a+> }\n.end\n";

    /// The cycle `a+ b1+ … b4+ a+/2 b1- … b4-`: inconsistent (`a` never
    /// falls), with 8 simple places in front of outputs to split.
    const CYCLE4: &str = ".model cycle\n.inputs a\n.outputs b1 b2 b3 b4\n.graph\n\
        a+ b1+\nb1+ b2+\nb2+ b3+\nb3+ b4+\nb4+ a+/2\n\
        a+/2 b1-\nb1- b2-\nb2- b3-\nb3- b4-\nb4- a+\n.marking { <b4-,a+> }\n.end\n";

    #[test]
    fn blind_fallback_names_its_signal_afresh() {
        let stg = si_stg::parse_g(DUP_CSC0).expect("parses");
        assert!(
            StructuralContext::build(&stg).is_err(),
            "must take the fallback"
        );
        let outcome = resolve(&stg, &CscOptions::default());
        assert!(outcome.resolution.is_none());
        assert!(outcome.stats.evaluated > 0);
        assert_eq!(outcome.stats.evaluated, outcome.stats.rejected);
        assert!(resolve_csc_blind(&stg, 100_000, ReachOptions::with_cap(10_000)).is_none());
    }

    #[test]
    fn blind_fallback_obeys_cancellation_and_budget() {
        let stg = si_stg::parse_g(CYCLE4).expect("parses");
        let token = si_petri::CancelToken::new();
        token.cancel();
        let cancelled = CscOptions::default().reach(ReachOptions::with_cap(10_000).cancel(token));
        let outcome = resolve(&stg, &cancelled);
        assert!(outcome.resolution.is_none());
        let interrupt = outcome.stats.interrupted.expect("interrupted");
        assert_eq!(interrupt.reason, si_petri::InterruptReason::Cancelled);
        assert_eq!(outcome.stats.evaluated, 0);

        let outcome = resolve(&stg, &CscOptions::default().budget(50));
        assert!(outcome.resolution.is_none());
        assert!(outcome.stats.interrupted.is_none());
        assert_eq!(outcome.stats.generated, 50);
        assert_eq!(outcome.stats.evaluated, 50);
        assert_eq!(outcome.stats.rejected, 50);
    }

    #[test]
    fn targeted_search_checks_the_deadline_before_scoring() {
        let raw = si_stg::benchmarks::vme_read_raw();
        let token = si_petri::CancelToken::new();
        token.cancel();
        let cancelled = CscOptions::default().reach(ReachOptions::with_cap(10_000).cancel(token));
        for strategy in [Strategy::Greedy, Strategy::Beam] {
            let outcome = resolve(&raw, &cancelled.clone().strategy(strategy));
            assert!(outcome.resolution.is_none());
            let interrupt = outcome.stats.interrupted.expect("interrupted");
            assert_eq!(interrupt.reason, si_petri::InterruptReason::Cancelled);
            assert!(outcome.stats.cores > 0 && outcome.stats.generated > 0);
            assert_eq!(outcome.stats.evaluated, 0);
            assert_eq!(outcome.stats.oracle_calls, 0);
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
