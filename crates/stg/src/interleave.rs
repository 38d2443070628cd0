//! The interleave relation (Def. 8 of the paper).
//!
//! A node `x` is interleaved with an adjacent transition pair `(t, t')` of
//! signal `a` when some path `t → … → x → … → t'` is realizable by a firing
//! sequence containing no other transition of `a`. Interleaving determines
//!
//! * the **literal values** of marked-region cover cubes (Lemma 10): a place
//!   non-concurrent with `a`, interleaved between `a+` and `a-`, has `a = 1`
//!   throughout its marked region;
//! * the **quiescent place sets** QPS (§VI-A, Fig. 10): the domain of the
//!   QR approximations;
//! * the subgraph the monotonicity check of a cover walks (Property 16).
//!
//! Like adjacency, the computation is two-tier: a sound filtered traversal
//! (Property 4 conditions), then a completing pass that confirms the extra
//! candidate places of a relaxed traversal with the realizability check of
//! Property 5. The completing pass runs **one** path search per pair, the
//! search that also confirms adjacency (`StgAnalysis::analyze`): every
//! realizable path it completes confirms each still-open candidate on it,
//! and it stops once none is open. The search visits the same paths in the
//! same order, under the same expansion budget, whichever candidates are
//! open, so a candidate is confirmed exactly when a search for that
//! candidate alone would confirm it.
//!
//! `si-core` computes the relation once per structural context, one
//! [`InterleavedNodes`] per adjacent pair (`PlaceCubes::pairs`), and every
//! consumer reads it there.

use crate::consistency::{realizable_path_search, StgAnalysis};
use crate::stg::Stg;
use si_boolean::Bits;
use si_petri::TransId;

/// The nodes interleaved with one adjacent transition pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterleavedNodes {
    /// Interleaved places (bit per place).
    pub places: Bits,
    /// Interleaved transitions (bit per transition), endpoints included.
    pub transitions: Bits,
}

/// Computes the nodes interleaved between adjacent transitions `from` and
/// `to` (which should satisfy `to ∈ next(from)`).
pub fn interleaved_nodes(
    stg: &Stg,
    analysis: &StgAnalysis,
    from: TransId,
    to: TransId,
) -> InterleavedNodes {
    let (mut places, mut transitions) = strict_nodes(stg, analysis, from, to);

    // Completing pass: places on relaxed paths that the strict filter missed.
    let candidates = completing_candidates(stg, analysis, from, to, &places);
    places.union_with(&confirmed(stg, analysis, from, to, &candidates));

    transitions.set(from.index(), true);
    transitions.set(to.index(), true);
    InterleavedNodes {
        places,
        transitions,
    }
}

/// The nodes on paths `from → … → to` that pass the Property 4 filter.
fn strict_nodes(stg: &Stg, analysis: &StgAnalysis, from: TransId, to: TransId) -> (Bits, Bits) {
    let (mut places, mut transitions) = directed_reach(stg, analysis, from, to, true, true);
    let (bwd_p, bwd_t) = directed_reach(stg, analysis, to, from, false, true);
    places.intersect_with(&bwd_p);
    transitions.intersect_with(&bwd_t);
    (places, transitions)
}

/// The completing pass's candidates: places on relaxed paths from `from`
/// to `to` (only same-signal transitions block them) outside `strict`.
fn completing_candidates(
    stg: &Stg,
    analysis: &StgAnalysis,
    from: TransId,
    to: TransId,
    strict: &Bits,
) -> Bits {
    let (mut places, _) = directed_reach(stg, analysis, from, to, true, false);
    let (bwd_p, _) = directed_reach(stg, analysis, to, from, false, false);
    places.intersect_with(&bwd_p);
    places.subtract(strict);
    places
}

/// The `candidates` that lie on a realizable path `from → … → to`, found
/// by one shared path search.
fn confirmed(
    stg: &Stg,
    analysis: &StgAnalysis,
    from: TransId,
    to: TransId,
    candidates: &Bits,
) -> Bits {
    let mut open = candidates.clone();
    realizable_path_search(stg, &analysis.cr, from, to, Some(&mut open));
    candidates.difference(&open)
}

/// One-directional filtered reachability from `start` toward `stop`,
/// collecting visited nodes. `forward` chooses arc direction; `strict`
/// applies the Property 4 place filter (no places concurrent to the
/// signal of `start`).
fn directed_reach(
    stg: &Stg,
    analysis: &StgAnalysis,
    start: TransId,
    stop: TransId,
    forward: bool,
    strict: bool,
) -> (Bits, Bits) {
    let sig = stg.signal_of(start);
    let net = stg.net();
    let mut seen_p = Bits::zeros(net.place_count());
    let mut seen_t = Bits::zeros(net.transition_count());
    let mut stack = vec![start];
    seen_t.set(start.index(), true);
    while let Some(u) = stack.pop() {
        let places = if forward { net.post_t(u) } else { net.pre_t(u) };
        for &p in places {
            if seen_p.get(p.index()) {
                continue;
            }
            if strict && analysis.scr.place(p, sig) {
                continue;
            }
            seen_p.set(p.index(), true);
            let nexts = if forward { net.post_p(p) } else { net.pre_p(p) };
            for &v in nexts {
                if seen_t.get(v.index()) {
                    continue;
                }
                seen_t.set(v.index(), true);
                if v == stop {
                    continue; // endpoint reached; do not walk through it
                }
                if stg.signal_of(v) == sig {
                    continue; // other same-signal transitions block the walk
                }
                stack.push(v);
            }
        }
    }
    (seen_p, seen_t)
}

/// The quiescent place set of a transition (Fig. 10): all places
/// interleaved between `t` and some `t' ∈ next(t)`.
pub fn quiescent_place_set(stg: &Stg, analysis: &StgAnalysis, t: TransId) -> Bits {
    let mut qps = Bits::zeros(stg.net().place_count());
    for &succ in analysis.next_of(t) {
        qps.union_with(&interleaved_nodes(stg, analysis, t, succ).places);
    }
    qps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Direction::{Fall, Rise};
    use crate::signal::SignalKind;

    /// x+ -> y+ -> x- -> y- loop, marked on the last arc.
    fn toggle() -> Stg {
        let mut b = Stg::builder("toggle");
        let x = b.add_signal("x", SignalKind::Input);
        let y = b.add_signal("y", SignalKind::Output);
        let xp = b.add_transition(x, Rise);
        let yp = b.add_transition(y, Rise);
        let xm = b.add_transition(x, Fall);
        let ym = b.add_transition(y, Fall);
        b.arc(xp, yp);
        b.arc(yp, xm);
        b.arc(xm, ym);
        let p = b.arc(ym, xp);
        b.mark_place(p);
        b.build()
    }

    #[test]
    fn toggle_interleaving() {
        let stg = toggle();
        let a = StgAnalysis::analyze(&stg).unwrap();
        let xp = stg.transition_by_display("x+").unwrap();
        let xm = stg.transition_by_display("x-").unwrap();
        // Between x+ and x-: places <x+,y+> and <y+,x->, transition y+.
        let il = interleaved_nodes(&stg, &a, xp, xm);
        assert_eq!(il.places.count_ones(), 2);
        let yp = stg.transition_by_display("y+").unwrap();
        assert!(il.transitions.get(yp.index()));
        // endpoints included
        assert!(il.transitions.get(xp.index()) && il.transitions.get(xm.index()));
    }

    #[test]
    fn qps_of_toggle() {
        let stg = toggle();
        let a = StgAnalysis::analyze(&stg).unwrap();
        let yp = stg.transition_by_display("y+").unwrap();
        let qps = quiescent_place_set(&stg, &a, yp);
        // Between y+ and y-: places <y+,x-> and <x-,y->.
        assert_eq!(qps.count_ones(), 2);
    }

    /// Four dining philosophers, as `generators::philosophers(4)`, except
    /// that philosopher 2 is served (and cleaned up) by `done2` or by
    /// `alt2`, a free choice. The completing pass of `(eat0-, eat0+)`
    /// confirms the places of the two routes on two different paths; in
    /// the generator families one path confirms every candidate of a pair
    /// that gets confirmed.
    fn two_route_philosophers() -> Stg {
        let n = 4;
        let mut b = Stg::builder("phil_two_routes");
        let eat: Vec<_> = (0..n)
            .map(|i| b.add_signal(format!("eat{i}"), SignalKind::Input))
            .collect();
        let done: Vec<_> = (0..n)
            .map(|i| b.add_signal(format!("done{i}"), SignalKind::Output))
            .collect();
        let alt = b.add_signal("alt2", SignalKind::Output);
        let forks: Vec<_> = (0..n)
            .map(|i| b.add_place(format!("fork{i}"), true))
            .collect();
        for i in 0..n {
            let thinking = b.add_place(format!("thinking{i}"), true);
            let eating = b.add_place(format!("eating{i}"), false);
            let take = b.add_transition(eat[i], Rise);
            b.arc_pt(thinking, take)
                .arc_pt(forks[i], take)
                .arc_pt(forks[(i + 1) % n], take)
                .arc_tp(take, eating);
            let servers = if i == 2 {
                vec![done[i], alt]
            } else {
                vec![done[i]]
            };
            for server in servers {
                let serve = b.add_transition(server, Rise);
                let release = b.add_transition(eat[i], Fall);
                let clean = b.add_transition(server, Fall);
                b.arc_pt(eating, serve);
                b.arc(serve, release);
                b.arc(release, clean);
                b.arc_tp(release, forks[i])
                    .arc_tp(release, forks[(i + 1) % n])
                    .arc_tp(clean, thinking);
            }
        }
        b.build()
    }

    /// The synthesizable suite, the other named benchmarks, each
    /// generator family at small sizes, and [`two_route_philosophers`].
    fn pinned_stgs() -> Vec<Stg> {
        use crate::{benchmarks, generators};
        let mut stgs = benchmarks::synthesizable_suite();
        stgs.push(benchmarks::vme_read_raw());
        stgs.push(two_route_philosophers());
        for n in 1..=12 {
            stgs.push(generators::clatch(n));
            stgs.push(generators::muller_pipeline(n));
            stgs.push(generators::sequencer(n));
            stgs.push(generators::burst(n));
        }
        for n in 2..=8 {
            stgs.push(generators::selector(n));
            stgs.push(generators::philosophers(n));
        }
        for n in 1..=8 {
            stgs.push(generators::vme_chain(n));
            stgs.push(generators::vme_burst(n));
        }
        stgs
    }

    #[test]
    fn completing_pass_matches_one_search_per_candidate() {
        let (mut candidates, mut confirmations) = (0, 0);
        for stg in pinned_stgs() {
            let a = StgAnalysis::analyze(&stg).expect("consistent");
            let np = stg.net().place_count();
            for t in stg.net().transitions() {
                for &u in a.next_of(t) {
                    let (strict, _) = strict_nodes(&stg, &a, t, u);
                    let cands = completing_candidates(&stg, &a, t, u, &strict);
                    let shared = confirmed(&stg, &a, t, u, &cands);
                    for p in cands.iter_ones() {
                        candidates += 1;
                        let alone = confirmed(&stg, &a, t, u, &Bits::from_ones(np, [p]));
                        assert_eq!(
                            shared.get(p),
                            alone.get(p),
                            "{}: place {} between {} and {}",
                            stg.name(),
                            stg.net().place_name(si_petri::PlaceId(p as u32)),
                            stg.transition_display(t),
                            stg.transition_display(u)
                        );
                    }
                    confirmations += shared.count_ones();
                    assert_eq!(
                        interleaved_nodes(&stg, &a, t, u).places,
                        strict.union(&shared),
                        "{}: {} -> {}",
                        stg.name(),
                        stg.transition_display(t),
                        stg.transition_display(u)
                    );
                }
            }
        }
        assert!(candidates > 0 && confirmations > 0);
    }

    #[test]
    fn concurrent_branch_is_not_interleaved() {
        // r+ forks to (x+ ; x-) and (y+ ; y-), join at r-.
        // The y-branch places are NOT interleaved between x+ and x-.
        let mut b = Stg::builder("par");
        let r = b.add_signal("r", SignalKind::Input);
        let x = b.add_signal("x", SignalKind::Output);
        let y = b.add_signal("y", SignalKind::Output);
        let rp = b.add_transition(r, Rise);
        let rm = b.add_transition(r, Fall);
        let xp = b.add_transition(x, Rise);
        let xm = b.add_transition(x, Fall);
        let yp = b.add_transition(y, Rise);
        let ym = b.add_transition(y, Fall);
        b.arc(rp, xp);
        let px = b.arc(xp, xm);
        b.arc(rp, yp);
        let py = b.arc(yp, ym);
        b.arc(xm, rm);
        b.arc(ym, rm);
        let p0 = b.arc(rm, rp);
        b.mark_place(p0);
        let stg = b.build();
        let a = StgAnalysis::analyze(&stg).unwrap();
        let xp_t = stg.transition_by_display("x+").unwrap();
        let xm_t = stg.transition_by_display("x-").unwrap();
        let il = interleaved_nodes(&stg, &a, xp_t, xm_t);
        assert!(il.places.get(px.index()));
        assert!(!il.places.get(py.index()));
        assert!(!il.places.get(p0.index()));
    }
}
