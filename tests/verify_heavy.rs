//! The verify-heavy suite: every reachability-backed check of the
//! pipeline — graph build, speed-independence verification, conformance
//! product — across the large benchmark set. Synthesized circuits must
//! verify and conform; sabotaged ones must fail with counterexamples that
//! replay to the failing state.
//!
//! These tests repeat the most expensive verification workloads of the
//! repository, so they are `#[ignore]`d by default and run explicitly by
//! the dedicated CI step (`cargo test --test verify_heavy -- --ignored`).

use sisyn::prelude::*;
use sisyn::stg::generators;

/// Far above every member's state space and product: every check must
/// finish.
const CAP: usize = 2_000_000;

/// The large benchmark set (mirrors `si_bench::large_set()`, which this
/// crate cannot depend on).
fn large_set() -> Vec<Stg> {
    vec![
        generators::clatch(8),
        generators::clatch(12),
        generators::burst(6),
        generators::burst(8),
        generators::muller_pipeline(8),
        generators::muller_pipeline(12),
        generators::philosophers(5),
        generators::philosophers(7),
        generators::sequencer(10),
        generators::selector(8),
    ]
}

/// Each member with its synthesized circuit and a sabotaged copy whose
/// first implementation is stuck excited.
fn members() -> Vec<(Stg, Circuit, Circuit)> {
    large_set()
        .into_iter()
        .map(|stg| {
            let syn = Engine::new(&stg)
                .synthesize()
                .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
            let mut bad = syn.circuit.clone();
            bad.implementations[0].kind = ImplKind::Combinational {
                cover: Cover::universe(stg.signal_count()),
                inverted: false,
            };
            (stg, syn.circuit, bad)
        })
        .collect()
}

#[test]
#[ignore = "verify-heavy suite; CI runs it with -- --ignored"]
fn large_set_synthesized_circuits_verify_and_conform() {
    for (stg, good, _) in members() {
        let name = stg.name();
        let engine = Engine::new(&stg).cap(CAP);
        let states = engine.reachability().unwrap().state_count();

        let report = engine.verify(&good).unwrap();
        assert!(report.is_ok(), "{name}: synthesized circuit must verify");
        assert!(report.is_conclusive(), "{name}");
        assert!(report.trace.is_none(), "{name}: spurious verify trace");
        assert_eq!(report.states_checked, states, "{name}: every state checked");

        let conf = engine.check_conformance(&good).unwrap();
        assert!(conf.is_ok(), "{name}: synthesized circuit must conform");
        assert!(
            conf.is_conclusive(),
            "{name}: the cap must cover the product"
        );
        assert!(conf.trace.is_none(), "{name}: spurious conformance trace");
    }
}

#[test]
#[ignore = "verify-heavy suite; CI runs it with -- --ignored"]
fn large_set_counterexamples_replay() {
    for (stg, _, bad) in members() {
        let name = stg.name();
        let engine = Engine::new(&stg).cap(CAP);
        let rg = engine.reachability().unwrap();
        let net = stg.net();

        let report = engine.verify(&bad).unwrap();
        if !report.is_ok() {
            let trace = report
                .trace
                .as_ref()
                .expect("failing verify carries a trace");
            let mut m = net.initial_marking();
            for &t in trace {
                assert!(net.is_enabled(&m, t), "{name}: dead trace step");
                m = net.fire(&m, t);
            }
            assert_eq!(
                rg.state_of(&m),
                Some(report.violations[0].at_state()),
                "{name}: verify trace must reach the violating state"
            );
        }

        // The conformance witness replays under the product semantics:
        // fire the STG transition, toggle the signal's wire.
        let conf = engine.check_conformance(&bad).unwrap();
        assert!(!conf.is_ok(), "{name}: sabotage must break conformance");
        let trace = conf
            .trace
            .as_ref()
            .expect("failing conformance carries a trace");
        let mut m = net.initial_marking();
        let enc = engine.encoding().unwrap();
        let mut code = enc.code(rg.state_of(&m).unwrap()).clone();
        for &t in trace {
            assert!(net.is_enabled(&m, t), "{name}: dead conformance trace step");
            m = net.fire(&m, t);
            code.toggle(stg.signal_of(t).index());
        }
        match &conf.failures[0] {
            ConformanceFailure::UnexpectedOutput { code: at, .. } => {
                assert_eq!(&code, at, "{name}: trace misses the failure state")
            }
            // Hazard and liveness failures are observed at the trace's
            // end; the marking it reaches must be a specification state.
            _ => assert!(rg.state_of(&m).is_some(), "{name}: trace leaves the spec"),
        }
    }
}
