//! The artifact-cache guarantee, pinned by the build-count hook: an
//! `Engine` running the whole pipeline — synthesize, state-based baseline,
//! functional verification, conformance, random walks — constructs the
//! reachability graph **exactly once**, and so does one whole `verify` op.
//!
//! This test is deliberately alone in its binary: the hook
//! (`ReachabilityGraph::build_count`) is process-wide, and a sibling test
//! building graphs concurrently would make the delta assertion racy.

use sisyn::prelude::*;
use sisyn::serve::report::{self, JobOptions, Op, Report};

#[test]
fn pipeline_builds_the_reachability_graph_exactly_once() {
    let stg = sisyn::stg::benchmarks::vme_read_csc();
    let engine = Engine::new(&stg).cap(500_000);

    let before = ReachabilityGraph::build_count();
    let syn = engine.synthesize().expect("synthesizable");
    assert_eq!(
        ReachabilityGraph::build_count(),
        before,
        "structural synthesis must not touch the state graph"
    );

    let functional = engine.verify(&syn.circuit).expect("within cap");
    assert!(functional.is_ok());
    let conformance = engine.check_conformance(&syn.circuit).expect("within cap");
    assert!(conformance.is_ok());
    let walks = engine.random_walks(&syn.circuit, 4, 4000, 7);
    assert!(walks.expect("within cap").is_clean());
    let baseline = engine
        .synthesize_state_based(BaselineFlavor::ExcitationExact)
        .expect("within cap");
    assert!(baseline.literal_area > 0);

    assert_eq!(
        ReachabilityGraph::build_count() - before,
        1,
        "verify + conformance + walks + baseline must share one cached graph"
    );
    assert_eq!(engine.reach_build_count(), 1);

    // One whole `verify` op, as `sisyn verify` and the serve `verify` op
    // run it on a fresh session: the functional oracle's graph also seeds
    // the conformance probe and the random walks.
    let options = JobOptions::default();
    let fresh = options.engine(&stg, Op::Verify);
    let before_op = ReachabilityGraph::build_count();
    let verified = report::Verify::build(&fresh, &options, fresh.synthesize());
    assert_eq!(verified.exit_code(), 0, "{}", verified.json().finish());
    assert_eq!(
        ReachabilityGraph::build_count() - before_op,
        1,
        "a verify op builds one reachability graph"
    );

    // The free random walks are a one-shot session: one graph per call.
    let before_walks = ReachabilityGraph::build_count();
    assert!(random_walks(&stg, &syn.circuit, 4, 4000, 7).is_clean());
    assert_eq!(ReachabilityGraph::build_count() - before_walks, 1);

    // The legacy free functions, by contrast, rebuild per call: the same
    // three reachability-backed steps cost three constructions.
    let before_legacy = ReachabilityGraph::build_count();
    let _ = verify_circuit(&stg, &syn.circuit);
    let _ = check_conformance(&stg, &syn.circuit, 500_000);
    let _ = synthesize_state_based(&stg, BaselineFlavor::ExcitationExact, 500_000);
    assert_eq!(ReachabilityGraph::build_count() - before_legacy, 3);
}
