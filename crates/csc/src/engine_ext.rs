//! CSC resolution as an [`Engine`] method — the one entry to the search.
//!
//! `si-csc` depends on `si-core` (resolution drives whole `Engine`
//! sessions per candidate), so — like speed-independence verification in
//! `si-verify` — the engine surface lives here as an extension trait. It
//! is re-exported from `sisyn::prelude`, so `engine.resolve_csc(..)`
//! keeps reading exactly as before the subsystem split.

use crate::search::{
    blind_search, fresh_signal_name, targeted_search, CscOptions, Resolution, ResolveOutcome,
    ResolveStats,
};
use si_core::{no_conflict_resolution, Engine};
use si_stg::{InsertionPlan, Stg};
use std::time::Instant;

/// CSC resolution methods of the synthesis session.
pub trait EngineResolve {
    /// CSC resolution by state-signal insertion with the session's
    /// reachability options as the acceptance oracle and the default
    /// greedy strategy.
    ///
    /// Returns the repaired STG and the insertion plan, or `None` when no
    /// candidate within `budget` works. When the input already satisfies
    /// CSC it is returned unchanged together with the no-op sentinel plan
    /// (`si_core::sentinel_plan`: `rise_split == fall_split`, no waits —
    /// impossible for a real insertion, whose split places always differ).
    fn resolve_csc(&self, budget: usize) -> Option<(Stg, InsertionPlan)>;

    /// The full-control form: explicit [`CscOptions`] (strategy, beam
    /// width, workers, oracle reach options), returning the search
    /// statistics alongside the resolution. See the crate docs for the
    /// pipeline.
    ///
    /// The session's structural context of the input is built once and
    /// serves the no-conflict fast path, the conflict cores and the cost
    /// model. When that build fails (an inconsistent or not SM-coverable
    /// input), the blind search of [`crate::resolve_csc_blind`] runs
    /// instead: its candidates are built from scratch and may still pass.
    fn resolve_csc_outcome(&self, options: &CscOptions) -> ResolveOutcome;
}

impl EngineResolve for Engine<'_> {
    fn resolve_csc(&self, budget: usize) -> Option<(Stg, InsertionPlan)> {
        self.resolve_csc_outcome(
            &CscOptions::default()
                .budget(budget)
                .reach(self.reach_options()),
        )
        .resolution
        .map(|r| (r.stg, r.plan))
    }

    fn resolve_csc_outcome(&self, options: &CscOptions) -> ResolveOutcome {
        let _span = si_obs::span("csc.resolve");
        let started = Instant::now();
        let stg = self.stg();
        let mut stats = ResolveStats::new(options.strategy);
        let name = fresh_signal_name(stg, &options.signal_name);
        let unscored = |(stg, plan)| Resolution { stg, plan, cost: 0 };
        let (resolution, tiers) = match self.context() {
            Ok(ctx) => match no_conflict_resolution(stg, ctx) {
                // The fast path records no search counters.
                Some(same) => {
                    stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
                    let resolution = Some(unscored(same));
                    return ResolveOutcome { resolution, stats };
                }
                None => targeted_search(stg, ctx, &name, options, &mut stats, started),
            },
            Err(_) => {
                let reach = &options.reach;
                let found = blind_search(stg, &name, options.budget, reach, &mut stats, started);
                (found.map(unscored), 0)
            }
        };
        stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        stats.record(tiers);
        ResolveOutcome { resolution, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_reports_zero_search() {
        let stg = si_stg::benchmarks::burst2();
        let engine = Engine::new(&stg);
        let outcome = engine.resolve_csc_outcome(&CscOptions::default());
        assert!(outcome.resolution.is_some());
        assert_eq!(outcome.stats.evaluated, 0);
        assert_eq!(outcome.stats.oracle_calls, 0);
    }
}
