//! Cross-validation: every structural analysis agrees with (or safely
//! over-approximates) the behavioural oracle on the whole benchmark suite.

use sisyn::prelude::*;
use sisyn::stg::{
    benchmarks, next_behavioural, semimodularity_violations, SignalRegions, StateEncoding,
};

fn suite() -> Vec<sisyn::stg::Stg> {
    benchmarks::synthesizable_suite()
}

#[test]
fn structural_adjacency_matches_behaviour() {
    for stg in suite() {
        let analysis = StgAnalysis::analyze(&stg).expect("consistent");
        let rg = ReachabilityGraph::build(stg.net(), 1_000_000).unwrap();
        for t in stg.net().transitions() {
            let structural = analysis.next_of(t).to_vec();
            let behavioural = next_behavioural(&stg, &rg, t);
            assert_eq!(
                structural,
                behavioural,
                "{}: next({}) mismatch",
                stg.name(),
                stg.transition_display(t)
            );
        }
    }
}

#[test]
fn structural_concurrency_is_exact_on_fc_suite() {
    for stg in suite() {
        if !stg.net().is_free_choice() {
            continue; // exactness is guaranteed for live-safe FC only
        }
        let analysis = StgAnalysis::analyze(&stg).expect("consistent");
        let rg = ReachabilityGraph::build(stg.net(), 1_000_000).unwrap();
        for p in stg.net().places() {
            for t in stg.net().transitions() {
                assert_eq!(
                    analysis.cr.place_transition(p, t),
                    rg.place_transition_concurrent(stg.net(), p, t),
                    "{}: ({}, {})",
                    stg.name(),
                    stg.net().place_name(p),
                    stg.transition_display(t)
                );
            }
        }
    }
}

#[test]
fn region_approximations_cover_ground_truth() {
    // ER and QR covers must contain every reachable code of the exact
    // regions (safety of Properties 12/13 after refinement).
    for stg in suite() {
        let ctx = StructuralContext::build(&stg).unwrap();
        let rg = ReachabilityGraph::build(stg.net(), 1_000_000).unwrap();
        let enc = StateEncoding::compute(&stg, &rg).unwrap();
        for sig in stg.signals() {
            let regions = SignalRegions::compute(&stg, &rg, sig);
            for (i, &t) in regions.transitions.iter().enumerate() {
                let er_cover = ctx.er_cover(t);
                for s in regions.er[i].iter_ones() {
                    let code = enc.code(sisyn::petri::StateId(s as u32));
                    assert!(
                        er_cover.contains_vertex(code),
                        "{}: ER({}) misses {}",
                        stg.name(),
                        stg.transition_display(t),
                        code
                    );
                }
                let qr_cover = ctx.qr_cover(t);
                for s in regions.qr[i].iter_ones() {
                    let code = enc.code(sisyn::petri::StateId(s as u32));
                    assert!(
                        qr_cover.contains_vertex(code),
                        "{}: QR({}) misses {}",
                        stg.name(),
                        stg.transition_display(t),
                        code
                    );
                }
            }
        }
    }
}

#[test]
fn er_covers_never_hit_foreign_reachable_codes() {
    // Property 13: no reachable code outside ER(t) is covered by C(t) —
    // this is the strong form that holds when the benchmark is free of
    // relevant conflicts; where USC shadows exist, the covered foreign code
    // must at least share the enabled-signal semantics (CSC). We assert the
    // weaker, always-sound form: C(t) never covers a reachable code whose
    // markings all *disagree* with ER(t) on the implied next value.
    for stg in suite() {
        let ctx = StructuralContext::build(&stg).unwrap();
        let rg = ReachabilityGraph::build(stg.net(), 1_000_000).unwrap();
        let enc = StateEncoding::compute(&stg, &rg).unwrap();
        for t in stg.net().transitions() {
            if !stg.signal_kind(stg.signal_of(t)).is_synthesized() {
                continue;
            }
            let cover = ctx.er_cover(t);
            let sig = stg.signal_of(t);
            let target = stg.direction_of(t).target_value();
            for s in rg.states() {
                if !cover.contains_vertex(enc.code(s)) {
                    continue;
                }
                // covered state: implied next value of sig must match the
                // transition's direction (same excitation semantics).
                let implied = rg
                    .successors(s)
                    .iter()
                    .find(|&&(u, _)| stg.signal_of(u) == sig)
                    .map(|&(u, _)| stg.direction_of(u).target_value())
                    .unwrap_or_else(|| enc.value(s, sig));
                assert_eq!(
                    implied,
                    target,
                    "{}: C({}) covers state {} with wrong implied value",
                    stg.name(),
                    stg.transition_display(t),
                    s.0
                );
            }
        }
    }
}

#[test]
fn csc_verdict_matches_oracle() {
    // Structural CSC analysis must accept everything the oracle accepts
    // (on this suite) and reject what it rejects.
    for stg in suite() {
        let ctx = StructuralContext::build(&stg).unwrap();
        let rg = ReachabilityGraph::build(stg.net(), 1_000_000).unwrap();
        let enc = StateEncoding::compute(&stg, &rg).unwrap();
        let coding = sisyn::stg::CodingAnalysis::compute(&stg, &rg, &enc);
        let verdict = ctx.csc_verdict();
        assert!(
            coding.has_csc(),
            "{}: suite member must satisfy CSC",
            stg.name()
        );
        assert!(
            !matches!(verdict, CscVerdict::Unknown { .. }),
            "{}: structural CSC too conservative: {verdict:?}",
            stg.name()
        );
    }
    // Negative case.
    let raw = benchmarks::vme_read_raw();
    let ctx = StructuralContext::build(&raw).unwrap();
    assert!(matches!(ctx.csc_verdict(), CscVerdict::Unknown { .. }));
}

#[test]
fn suite_is_semimodular() {
    for stg in suite() {
        let rg = ReachabilityGraph::build(stg.net(), 1_000_000).unwrap();
        assert!(
            semimodularity_violations(&stg, &rg).is_empty(),
            "{}",
            stg.name()
        );
    }
}

#[test]
fn commoner_liveness_matches_behaviour() {
    // Structural liveness (Commoner) agrees with the behavioural oracle on
    // every free-choice benchmark.
    for stg in suite() {
        if !stg.net().is_free_choice() {
            continue;
        }
        let verdict = check_live_safe_fc(stg.net());
        let rg = ReachabilityGraph::build(stg.net(), 1_000_000).unwrap();
        assert_eq!(
            verdict,
            sisyn::petri::StructuralCheck::Ok,
            "{}: structural liveness check must accept a live benchmark",
            stg.name()
        );
        assert!(rg.is_live(stg.net()), "{}", stg.name());
    }
}

#[test]
fn random_walk_simulation_agrees_with_verification() {
    // The hazard simulator finds nothing on verified circuits.
    for stg in suite().into_iter().take(6) {
        let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        assert!(verify_circuit(&stg, &syn.circuit).is_ok(), "{}", stg.name());
        let outcome = random_walks(&stg, &syn.circuit, 4, 2000, 1);
        assert!(outcome.is_clean(), "{}: {outcome:?}", stg.name());
    }
}

#[test]
fn verilog_export_covers_every_synthesized_signal() {
    for stg in suite() {
        let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        let v = to_verilog(&stg, &syn.circuit);
        for r in &syn.results {
            let name = stg.signal_name(r.signal);
            assert!(
                v.contains(&format!("assign {name}")) || v.contains(&format!("u_{name}")),
                "{}: {name} missing from the netlist",
                stg.name()
            );
        }
    }
}

#[test]
fn dot_exports_are_wellformed() {
    for stg in suite().into_iter().take(4) {
        let dot = stg_to_dot(&stg);
        assert!(dot.starts_with("digraph"));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
