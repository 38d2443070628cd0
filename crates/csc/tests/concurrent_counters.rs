//! The CSC search counts its context builds where they happen, so two
//! searches running at once — as concurrent resolve jobs do in
//! `sisyn serve` — do not count each other's builds.
//!
//! Deliberately a single-test binary: the si-obs registry is
//! process-wide, so no other test may record into it in this process.

use si_core::Engine;
use si_csc::{CscOptions, EngineResolve};
use std::sync::Barrier;

#[test]
fn concurrent_searches_count_only_their_own_context_builds() {
    si_obs::set_enabled(true);
    si_obs::reset();
    let raw = si_stg::benchmarks::vme_read_raw();
    let start = Barrier::new(2);
    let evaluated: Vec<usize> = std::thread::scope(|scope| {
        let searches: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let outcome = Engine::new(&raw)
                        .resolve_csc_outcome(&CscOptions::default().budget(50_000));
                    assert!(outcome.resolution.is_some(), "VME must resolve");
                    outcome.stats.evaluated
                })
            })
            .collect();
        searches
            .into_iter()
            .map(|s| s.join().expect("search thread"))
            .collect()
    });
    si_obs::set_enabled(false);
    assert!(evaluated.iter().all(|&e| e > 0), "{evaluated:?}");
    assert_eq!(
        si_obs::counter_value("csc.context_reanalyses"),
        Some(evaluated.iter().sum::<usize>() as u64),
        "one reanalysis per evaluated candidate of either search"
    );
    assert_eq!(
        si_obs::counter_value("engine.context_builds"),
        Some(2),
        "one input context build per search"
    );
}
