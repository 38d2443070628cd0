//! Equivalence property tests for the word-parallel state substrate: the
//! mask-based firing rule, the interned CSR reachability engine and the
//! batched concurrency fixpoint must agree *exactly* with the naive
//! reference implementations on random live, safe, free-choice nets.

use proptest::prelude::*;
use si_petri::{ConcurrencyRelation, PetriNet, ReachabilityGraph};

/// Expansion step applied to a random place of a ring (same grammar as the
/// structural property tests: the result stays live/safe/free-choice).
#[derive(Clone, Debug)]
enum Expand {
    ForkJoin,
    Choice,
    Chain,
}

fn arb_expansions() -> impl Strategy<Value = Vec<(usize, Expand)>> {
    proptest::collection::vec(
        (
            0..64usize,
            prop_oneof![
                Just(Expand::ForkJoin),
                Just(Expand::Choice),
                Just(Expand::Chain)
            ],
        ),
        0..6,
    )
}

/// Builds a net by starting from a 2-place ring and expanding places.
fn build_net(expansions: &[(usize, Expand)]) -> PetriNet {
    // Symbolic transitions over abstract place ids, starting from the ring
    // p0 -> t -> p1 -> t' -> p0.
    let mut nplaces: usize = 2;
    let mut trans: Vec<(Vec<usize>, Vec<usize>)> = vec![(vec![0], vec![1]), (vec![1], vec![0])];
    for (pick, ex) in expansions {
        let target = pick % nplaces;
        match ex {
            Expand::Chain => {
                // target -> te -> fresh; consumers of target move to fresh.
                let fresh = nplaces;
                nplaces += 1;
                for (pre, _) in trans.iter_mut() {
                    for p in pre.iter_mut() {
                        if *p == target {
                            *p = fresh;
                        }
                    }
                }
                trans.push((vec![target], vec![fresh]));
            }
            Expand::ForkJoin => {
                // target -> te -> (a ∥ b) -> tx -> exit; consumers move to exit.
                let (a, b, exit) = (nplaces, nplaces + 1, nplaces + 2);
                nplaces += 3;
                for (pre, _) in trans.iter_mut() {
                    for p in pre.iter_mut() {
                        if *p == target {
                            *p = exit;
                        }
                    }
                }
                trans.push((vec![target], vec![a, b]));
                trans.push((vec![a, b], vec![exit]));
            }
            Expand::Choice => {
                // target -> (ta | tb) -> (a | b) -> (tja | tjb) -> exit.
                let (a, b, exit) = (nplaces, nplaces + 1, nplaces + 2);
                nplaces += 3;
                for (pre, _) in trans.iter_mut() {
                    for p in pre.iter_mut() {
                        if *p == target {
                            *p = exit;
                        }
                    }
                }
                trans.push((vec![target], vec![a]));
                trans.push((vec![target], vec![b]));
                trans.push((vec![a], vec![exit]));
                trans.push((vec![b], vec![exit]));
            }
        }
    }
    let mut builder = PetriNet::builder();
    let places: Vec<_> = (0..nplaces)
        .map(|i| builder.add_place(format!("p{i}"), i == 0))
        .collect();
    for (i, (pre, post)) in trans.iter().enumerate() {
        let t = builder.add_transition(format!("t{i}"));
        for &p in pre {
            builder.arc_pt(places[p], t);
        }
        for &p in post {
            builder.arc_tp(t, places[p]);
        }
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mask_firing_rule_matches_naive(exps in arb_expansions()) {
        let net = build_net(&exps);
        let rg = ReachabilityGraph::build(&net, 20_000).unwrap();
        for s in rg.states() {
            let m = rg.marking(s);
            for t in net.transitions() {
                prop_assert_eq!(
                    net.is_enabled(m, t),
                    net.is_enabled_naive(m, t),
                    "enable mismatch at {:?} for {}", s, t
                );
                if net.is_enabled(m, t) {
                    let mut out = m.clone();
                    net.fire_into(m, t, &mut out);
                    prop_assert_eq!(&out, &net.fire_naive(m, t), "fire mismatch for {}", t);
                    prop_assert_eq!(&out, &net.fire(m, t));
                }
            }
        }
    }

    #[test]
    fn interned_reachability_matches_naive(exps in arb_expansions()) {
        let net = build_net(&exps);
        let fast = ReachabilityGraph::build(&net, 20_000).unwrap();
        let naive = ReachabilityGraph::build_naive(&net, 20_000).unwrap();
        prop_assert_eq!(fast.state_count(), naive.state_count());
        prop_assert_eq!(fast.edge_count(), naive.edge_count());
        for s in fast.states() {
            prop_assert_eq!(fast.marking(s), naive.marking(s));
            prop_assert_eq!(fast.successors(s), naive.successors(s));
            prop_assert_eq!(fast.predecessors(s), naive.predecessors(s));
            prop_assert_eq!(fast.state_of(fast.marking(s)), Some(s));
        }
        for t in net.transitions() {
            prop_assert_eq!(fast.states_enabling(t), naive.states_enabling(t));
        }
        prop_assert_eq!(fast.is_live(&net), naive.is_live(&net));
        prop_assert_eq!(fast.is_strongly_connected(), naive.is_strongly_connected());
    }

    #[test]
    fn batched_concurrency_matches_naive(exps in arb_expansions()) {
        let net = build_net(&exps);
        let fast = ConcurrencyRelation::compute(&net);
        let naive = ConcurrencyRelation::compute_naive(&net);
        prop_assert_eq!(fast.pair_count(), naive.pair_count());
        for p in net.places() {
            for q in net.places() {
                if p != q {
                    prop_assert_eq!(fast.places(p, q), naive.places(p, q), "{} {}", p, q);
                }
            }
            for t in net.transitions() {
                prop_assert_eq!(
                    fast.place_transition(p, t),
                    naive.place_transition(p, t),
                    "{} {}", p, t
                );
            }
        }
        for a in net.transitions() {
            for b in net.transitions() {
                if a != b {
                    prop_assert_eq!(fast.transitions(a, b), naive.transitions(a, b), "{} {}", a, b);
                }
            }
        }
    }

    #[test]
    fn cap_and_errors_agree(exps in arb_expansions()) {
        let net = build_net(&exps);
        let full = ReachabilityGraph::build(&net, 20_000).unwrap();
        if full.state_count() > 1 {
            let cap = full.state_count() - 1;
            let a = ReachabilityGraph::build(&net, cap);
            let b = ReachabilityGraph::build_naive(&net, cap);
            prop_assert!(a.is_err() && b.is_err());
            prop_assert_eq!(a.unwrap_err(), b.unwrap_err());
        }
    }
}
