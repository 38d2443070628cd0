//! The `Engine` session API is a **pure reorganization**: every pipeline
//! method must produce bit-identical results to the legacy free functions
//! across the benchmark suite, for synthesis, the state-based baseline,
//! functional verification and conformance checking — and the `auto`
//! minimizer must never lose literals to the espresso baseline.

use sisyn::prelude::*;
use sisyn::stg::benchmarks;

#[test]
fn engine_synthesis_bit_identical_to_free_function() {
    for stg in benchmarks::synthesizable_suite() {
        let engine = Engine::new(&stg);
        for arch in [
            Architecture::ComplexGate,
            Architecture::ExcitationFunction,
            Architecture::PerRegion,
        ] {
            let opts = SynthesisOptions {
                architecture: arch,
                ..Default::default()
            };
            let via_engine = engine.synthesize_with(&opts).unwrap();
            let via_free = synthesize(&stg, &opts).unwrap();
            assert_eq!(
                via_engine.circuit,
                via_free.circuit,
                "{} under {arch:?}: engine and free-function circuits differ",
                stg.name()
            );
            assert_eq!(via_engine.literal_area, via_free.literal_area);
            assert_eq!(via_engine.csc, via_free.csc);
        }
    }
}

#[test]
fn engine_baseline_bit_identical_to_free_function() {
    for stg in benchmarks::synthesizable_suite() {
        let engine = Engine::new(&stg).cap(1_000_000);
        for flavor in [
            BaselineFlavor::ComplexGateExact,
            BaselineFlavor::ExcitationExact,
        ] {
            let via_engine = engine.synthesize_state_based(flavor).unwrap();
            let via_free = synthesize_state_based(&stg, flavor, 1_000_000).unwrap();
            assert_eq!(
                via_engine.circuit,
                via_free.circuit,
                "{} under {flavor:?}: engine and free-function baselines differ",
                stg.name()
            );
            assert_eq!(via_engine.states, via_free.states);
        }
    }
}

#[test]
fn engine_verification_bit_identical_to_free_function() {
    for stg in benchmarks::synthesizable_suite() {
        let engine = Engine::new(&stg);
        let syn = engine.synthesize().unwrap();

        let via_engine = engine.verify(&syn.circuit).unwrap();
        let via_free = verify_circuit(&stg, &syn.circuit);
        assert_eq!(via_engine.violations, via_free.violations, "{}", stg.name());
        assert_eq!(via_engine.states_checked, via_free.states_checked);

        let conf_engine = engine.check_conformance(&syn.circuit).unwrap();
        let conf_free = check_conformance(&stg, &syn.circuit, 4_000_000).unwrap();
        assert_eq!(conf_engine.failures, conf_free.failures, "{}", stg.name());
        assert_eq!(conf_engine.states_explored, conf_free.states_explored);
    }
}

#[test]
fn engine_conformance_keeps_probe_headroom_under_small_caps() {
    // A session cap smaller than the specification's state space must not
    // blind the conformance check: like the free function, the probe
    // falls back to the 4M headroom and the product is explored up to the
    // session cap (partial, tagged `interrupted` with a cap-exceeded
    // reason) instead of returning an empty inconclusive report.
    let stg = sisyn::stg::generators::clatch(5); // 64 states
    let full = Engine::new(&stg);
    let syn = full.synthesize().unwrap();

    let small = Engine::new(&stg).cap(10);
    let via_engine = small.check_conformance(&syn.circuit).unwrap();
    let via_free = check_conformance(&stg, &syn.circuit, 10).unwrap();
    assert_eq!(via_engine.failures, via_free.failures);
    assert_eq!(via_engine.states_explored, via_free.states_explored);
    assert!(via_engine.states_explored > 0, "probe fallback must run");
    assert!(
        !via_engine.is_conclusive(),
        "a capped product exploration is a partial verdict"
    );
    assert_eq!(
        via_engine.interrupted.map(|i| i.reason),
        Some(InterruptReason::CapExceeded)
    );
    // The session cache stays at the session cap: reachability still fails.
    assert!(small.reachability().is_err());
    assert_eq!(small.reach_build_count(), 0); // failed builds are not counted
}

#[test]
fn auto_minimizer_never_worse_than_espresso_on_benchmarks() {
    // The acceptance gate: per benchmark and architecture, synthesizing
    // with `auto` never yields more literals than `espresso` (auto keeps
    // the espresso result as its floor per cover).
    for stg in benchmarks::synthesizable_suite() {
        let engine = Engine::new(&stg);
        for arch in [Architecture::ComplexGate, Architecture::ExcitationFunction] {
            let area_of = |minimizer| {
                engine
                    .synthesize_with(&SynthesisOptions {
                        architecture: arch,
                        minimizer,
                        ..Default::default()
                    })
                    .unwrap()
                    .literal_area
            };
            let auto = area_of(MinimizerChoice::Auto);
            let espresso = area_of(MinimizerChoice::Espresso);
            assert!(
                auto <= espresso,
                "{} under {arch:?}: auto {auto} > espresso {espresso}",
                stg.name()
            );
        }
    }
}

#[test]
fn every_minimizer_backend_passes_the_baseline_monotonicity_filter() {
    // The minimizer knob also reaches the state-based baselines, whose
    // region covers pass through the monotonicity shrink loop of
    // `region_cover`; every backend must come out the other side with a
    // verifiably speed-independent circuit under both flavors.
    for stg in benchmarks::synthesizable_suite() {
        for minimizer in MinimizerChoice::ALL {
            let engine = Engine::new(&stg).cap(1_000_000).minimizer(minimizer);
            for flavor in [
                BaselineFlavor::ComplexGateExact,
                BaselineFlavor::ExcitationExact,
            ] {
                let base = engine
                    .synthesize_state_based(flavor)
                    .unwrap_or_else(|e| panic!("{} {flavor:?} {minimizer}: {e}", stg.name()));
                let report = engine.verify(&base.circuit).unwrap();
                assert!(
                    report.is_ok(),
                    "{} {flavor:?} {minimizer}: {:?}",
                    stg.name(),
                    &report.violations[..report.violations.len().min(3)]
                );
            }
        }
    }
}

#[test]
fn every_minimizer_backend_synthesizes_and_verifies_the_suite() {
    // All four backends produce verifiably speed-independent circuits on
    // the complex-gate architecture (the one whose covers they minimize).
    for stg in benchmarks::synthesizable_suite() {
        let engine = Engine::new(&stg);
        for minimizer in MinimizerChoice::ALL {
            let syn = engine
                .synthesize_with(&SynthesisOptions {
                    architecture: Architecture::ComplexGate,
                    minimizer,
                    ..Default::default()
                })
                .unwrap_or_else(|e| panic!("{} with {minimizer}: {e}", stg.name()));
            let report = engine.verify(&syn.circuit).unwrap();
            assert!(
                report.is_ok(),
                "{} with {minimizer}: {:?}",
                stg.name(),
                &report.violations[..report.violations.len().min(3)]
            );
        }
    }
}
