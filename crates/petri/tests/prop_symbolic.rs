//! Differential suite: the symbolic BDD backend against the explicit
//! explorer and the STG-level coding oracles.
//!
//! The explicit explorer is the oracle of record (ROADMAP discipline):
//! on every net both backends can finish, the symbolic reachable-state
//! count, safeness verdict, per-transition excitation-region sizes and
//! sampled state memberships must be **identical** — on proptest-grown
//! random nets and on every scalable generator family. The STG layer is
//! pinned the same way against [`StateEncoding`]/[`CodingAnalysis`]/
//! [`SignalRegions`]: signal values, ER/QR membership, USC/CSC verdicts
//! and distinct-code counts.
//!
//! The explicit side honors `SISYN_DIFF_SHARDS` (CI runs the suite at two
//! shard counts) — the symbolic answers must match the sequential *and*
//! the sharded spelling of the oracle.

use proptest::prelude::*;
use si_petri::{
    PetriNet, ReachError, ReachOptions, ReachabilityGraph, StateId, SymbolicReach, TransId,
};
use si_stg::generators::{clatch, philosophers, vme_burst, vme_chain};
use si_stg::{CodingAnalysis, SignalRegions, StateEncoding, Stg, SymbolicAnalysis};

/// Shard count of the explicit oracle (`SISYN_DIFF_SHARDS`, default 1) —
/// the differential assertions are shard-invariant because the explicit
/// build itself is pinned bit-identical at any shard count.
fn diff_shards() -> usize {
    std::env::var("SISYN_DIFF_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn explicit(net: &PetriNet, cap: usize) -> Result<ReachabilityGraph, ReachError> {
    ReachabilityGraph::build_with(net, ReachOptions::with_cap(cap).shards(diff_shards()))
}

/// Sampled subset of the explicit states: all of them on small graphs, an
/// evenly-strided slice on bigger ones (membership checks are per-state
/// BDD walks; the counts above already pin the whole set).
fn sample_states(rg: &ReachabilityGraph) -> Vec<StateId> {
    let ns = rg.state_count();
    let stride = (ns / 256).max(1);
    rg.states().step_by(stride).collect()
}

/// Net-level agreement: counts, per-transition ER cardinalities, sampled
/// membership and enabledness.
fn assert_net_agrees(net: &PetriNet) {
    let rg = explicit(net, 4_000_000).expect("explicit oracle within cap");
    let sym = SymbolicReach::build(net).expect("symbolic build");
    assert!(sym.is_complete());
    assert_eq!(
        sym.state_count(),
        rg.state_count() as u128,
        "reachable-state count"
    );
    let mut sym2 = SymbolicReach::build(net).expect("symbolic rebuild");
    for t in 0..net.transition_count() {
        assert_eq!(
            sym2.er_count(t),
            rg.states_enabling(TransId(t as u32)).len() as u128,
            "ER cardinality of transition {t}"
        );
    }
    for s in sample_states(&rg) {
        let m = rg.marking(s);
        assert!(sym.contains(m), "reachable marking in the symbolic set");
        for t in 0..net.transition_count() {
            let explicit_enabled = rg
                .successors(s)
                .iter()
                .any(|&(u, _)| u == TransId(t as u32));
            assert_eq!(
                sym.is_enabled_at(t, m),
                explicit_enabled,
                "enabledness of transition {t}"
            );
        }
    }
}

/// STG-level agreement: everything of the net level plus signal values,
/// ER/QR membership, consistency and the USC/CSC coding verdicts.
fn assert_stg_agrees(stg: &Stg) {
    assert_net_agrees(stg.net());
    let rg = explicit(stg.net(), 4_000_000).expect("explicit oracle within cap");
    let enc = StateEncoding::compute(stg, &rg).expect("generator STGs are consistent");
    let coding = CodingAnalysis::compute(stg, &rg, &enc);
    let sym = SymbolicAnalysis::build(stg).expect("symbolic build");

    assert!(sym.consistency().is_consistent(), "consistency verdict");
    assert_eq!(sym.state_count(), rg.state_count() as u128);
    assert_eq!(
        sym.distinct_code_count(),
        Some(enc.distinct_codes().len() as u128),
        "distinct code count"
    );
    assert_eq!(sym.has_usc(), Some(coding.has_usc()), "USC verdict");
    assert_eq!(sym.has_csc(), Some(coding.has_csc()), "CSC verdict");

    // Every edge against the encoding: the switched signal reads the
    // opposite of the edge's target value at the source, and the target's
    // code is the source's with exactly that bit toggled.
    for s in rg.states() {
        for &(t, d) in rg.successors(s) {
            let a = stg.signal_of(t);
            assert_eq!(
                enc.value(s, a),
                !stg.direction_of(t).target_value(),
                "{} at state {}",
                stg.transition_display(t),
                s.index()
            );
            let mut switched = enc.code(s).clone();
            switched.toggle(a.index());
            assert_eq!(
                enc.code(d),
                &switched,
                "code across {} from state {}",
                stg.transition_display(t),
                s.index()
            );
        }
    }
    // The initial code against the symbolic initial values.
    let s0 = rg
        .state_of(&stg.net().initial_marking())
        .expect("initial state");
    for sig in stg.signals() {
        assert_eq!(
            sym.initial_value(sig),
            Some(enc.value(s0, sig)),
            "initial value of {}",
            stg.signal_name(sig)
        );
    }

    let samples = sample_states(&rg);
    for sig in stg.signals() {
        let regions = SignalRegions::compute(stg, &rg, sig);
        // ER cardinality per transition of the signal, against the exact
        // region oracle.
        for (i, &t) in regions.transitions.iter().enumerate() {
            assert_eq!(
                sym.er_count(t),
                regions.er[i].count_ones() as u128,
                "ER size of {}",
                stg.transition_display(t)
            );
        }
        for &s in &samples {
            let m = rg.marking(s);
            // Signal value against the explicit encoding.
            assert_eq!(
                sym.value(sig, m),
                Some(enc.value(s, sig)),
                "value of {} at state {}",
                stg.signal_name(sig),
                s.index()
            );
            // ER membership per transition of the signal.
            for &t in &regions.transitions {
                let explicit_er = rg.successors(s).iter().any(|&(u, _)| u == t);
                assert_eq!(
                    sym.in_er(t, m),
                    explicit_er,
                    "ER membership of {}",
                    stg.transition_display(t)
                );
            }
            // Generalized QR membership: value stable at v with no
            // transition of the signal enabled.
            let excited = rg
                .successors(s)
                .iter()
                .any(|&(t, _)| stg.signal_of(t) == sig);
            for v in [false, true] {
                let explicit_qr = enc.value(s, sig) == v && !excited;
                assert_eq!(
                    sym.in_qr(sig, v, m),
                    Some(explicit_qr),
                    "QR({}, {v}) membership",
                    stg.signal_name(sig)
                );
            }
            // The region oracle's generalized quiescent sets are subsets
            // of the symbolic ones (they exclude quiescent states not
            // forward-reachable from a switch of the signal).
            if regions.gqr_one.get(s.index()) {
                assert_eq!(sym.in_qr(sig, true, m), Some(true));
            }
            if regions.gqr_zero.get(s.index()) {
                assert_eq!(sym.in_qr(sig, false, m), Some(true));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Generator families.

#[test]
fn clatch_family_agrees() {
    for n in 1..=6 {
        assert_stg_agrees(&clatch(n));
    }
}

#[test]
fn vme_chain_family_agrees() {
    for n in 1..=4 {
        assert_stg_agrees(&vme_chain(n));
    }
}

#[test]
fn vme_burst_family_agrees() {
    for n in 1..=4 {
        assert_stg_agrees(&vme_burst(n));
    }
}

#[test]
fn philosophers_family_agrees() {
    for n in 2..=4 {
        assert_stg_agrees(&philosophers(n));
    }
}

/// The acceptance witness: a concurrent generator instance solved
/// symbolically at a size where the explicit explorer exceeds its default
/// 4M-state cap. `clatch(22)` has exactly `2^23 = 8388608` reachable
/// markings — the symbolic count proves the explicit default cap
/// (4000000) must overflow, and a small-cap explicit run witnesses the
/// overflow behaviour without walking millions of states in a debug test.
#[test]
fn symbolic_solves_beyond_the_explicit_cap() {
    let stg = clatch(22);
    let sym = SymbolicReach::build(stg.net()).expect("symbolic build");
    assert!(sym.is_complete());
    assert_eq!(sym.state_count(), 1u128 << 23);
    assert!(sym.state_count() > 4_000_000);
    match explicit(stg.net(), 100_000) {
        Err(ReachError::StateCapExceeded { cap: 100_000 }) => {}
        other => panic!("expected the explicit cap to overflow, got {other:?}"),
    }
}

/// The structural variable-ordering heuristic: `n` disjoint two-place
/// rings declared in the *hostile* order (all first places, then all
/// second places — the striping a parsed `.g` file produces, under which
/// the reached set `⋀_i (a_i ⊕ c_i)` is an exponential BDD in raw
/// declaration order). The flow-order DFS must pair each ring's places on
/// adjacent levels, keeping the build linear — and the answers identical
/// to the explicit oracle regardless.
#[test]
fn hostile_declaration_order_stays_linear_and_agrees() {
    let n = 18;
    let mut b = PetriNet::builder();
    let firsts: Vec<_> = (0..n).map(|i| b.add_place(format!("a{i}"), true)).collect();
    let seconds: Vec<_> = (0..n)
        .map(|i| b.add_place(format!("c{i}"), false))
        .collect();
    for i in 0..n {
        let go = b.add_transition(format!("go{i}"));
        let back = b.add_transition(format!("back{i}"));
        b.arc_pt(firsts[i], go);
        b.arc_tp(go, seconds[i]);
        b.arc_pt(seconds[i], back);
        b.arc_tp(back, firsts[i]);
    }
    let net = b.build();
    let sym = SymbolicReach::build(&net).expect("symbolic build");
    assert!(sym.is_complete());
    assert_eq!(sym.state_count(), 1u128 << n);
    // Striped order needs ≥ 2^18 nodes for the reached set alone (node
    // counts are cumulative — the manager hash-conses and never frees);
    // the flow order keeps the whole build two orders of magnitude under
    // that.
    assert!(
        sym.peak_nodes() < 100_000,
        "peak {} nodes — the ordering heuristic regressed",
        sym.peak_nodes()
    );
    assert_net_agrees(&net);
}

// ---------------------------------------------------------------------
// Unsafe nets: both backends must report the same NotSafe verdict.

/// A deliberately unsafe net: two producers feed one place before it is
/// consumed, so the second firing duplicates the token.
fn unsafe_net() -> PetriNet {
    let mut b = PetriNet::builder();
    let p0 = b.add_place("p0", true);
    let p1 = b.add_place("p1", true);
    let q = b.add_place("q", false);
    let t0 = b.add_transition("t0");
    let t1 = b.add_transition("t1");
    b.arc_pt(p0, t0);
    b.arc_tp(t0, q);
    b.arc_pt(p1, t1);
    b.arc_tp(t1, q);
    b.build()
}

#[test]
fn unsafe_nets_agree_on_the_not_safe_verdict() {
    let net = unsafe_net();
    let explicit_err = explicit(&net, 1_000).expect_err("explicit NotSafe");
    let symbolic_err = SymbolicReach::build(&net).expect_err("symbolic NotSafe");
    assert!(matches!(explicit_err, ReachError::NotSafe { .. }));
    assert!(matches!(symbolic_err, ReachError::NotSafe { .. }));
}

// ---------------------------------------------------------------------
// Random nets (the prop_substrate grammar: live, safe, free-choice).

/// Expansion step applied to a random place of a ring (same grammar as the
/// substrate property tests: the result stays live/safe/free-choice).
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
    let mut nplaces: usize = 2;
    let mut trans: Vec<(Vec<usize>, Vec<usize>)> = vec![(vec![0], vec![1]), (vec![1], vec![0])];
    for (pick, ex) in expansions {
        let target = pick % nplaces;
        match ex {
            Expand::Chain => {
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

    /// Random live/safe/free-choice nets: counts, ER cardinalities,
    /// membership and enabledness all agree with the explicit oracle.
    #[test]
    fn random_nets_agree(expansions in arb_expansions()) {
        assert_net_agrees(&build_net(&expansions));
    }
}
