//! Structural implementability checks (§III, §VIII-B).
//!
//! Every candidate set/reset cover produced by synthesis or minimization is
//! gated by two structural conditions, both evaluated purely on the region
//! approximations of the [`StructuralContext`]:
//!
//! * **correctness** (eq. 2): the cover contains every excitation-region
//!   cover of its own direction and misses the generalized regions of the
//!   opposite direction;
//! * **monotonicity** (Property 16): once the cover turns off inside a
//!   quiescent region it never turns on again before the next excitation —
//!   checked through the `FD` sets of first-disabling transitions over the
//!   interleaved (QPS) subgraph.

use crate::context::{SignalCovers, StructuralContext};
use si_boolean::{Bits, Cover};
use si_petri::{PlaceId, TransId};

/// Which half of the excitation function a cover implements.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CoverRole {
    /// Set function: rises in GER(a+), may stay through GQR(1).
    Set,
    /// Reset function: rises in GER(a−), may stay through GQR(0).
    Reset,
}

impl CoverRole {
    /// The transitions whose ERs the cover must contain.
    pub fn own_transitions<'c>(&self, sc: &'c SignalCovers) -> &'c [TransId] {
        match self {
            CoverRole::Set => &sc.rising,
            CoverRole::Reset => &sc.falling,
        }
    }

    /// The transitions of the opposite direction.
    pub fn opposite_transitions<'c>(&self, sc: &'c SignalCovers) -> &'c [TransId] {
        match self {
            CoverRole::Set => &sc.falling,
            CoverRole::Reset => &sc.rising,
        }
    }
}

/// Outcome of a structural cover check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckResult {
    /// Both conditions hold.
    Ok,
    /// The cover misses part of an excitation region.
    MissesExcitation(TransId),
    /// The cover intersects the opposite generalized regions.
    IntersectsOffSet,
    /// Property 16 failed: the cover could glitch after `transition`.
    NonMonotonic(TransId),
}

impl CheckResult {
    /// `true` for [`CheckResult::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, CheckResult::Ok)
    }
}

/// The off-set approximation a cover of the given role must avoid:
/// the opposite generalized excitation and quiescent region covers.
pub fn off_set_cover(sc: &SignalCovers, role: CoverRole) -> Cover {
    match role {
        CoverRole::Set => sc.ger_fall.or(&sc.gqr_zero),
        CoverRole::Reset => sc.ger_rise.or(&sc.gqr_one),
    }
}

/// Full structural check: correctness (eq. 2) plus monotonicity
/// (Property 16) of `cover` in the given role.
///
/// `backward_dc` — codes the cover is additionally allowed to intersect
/// (the observability don't-cares of backward expansion, Appendix E);
/// empty for the standard architectures.
pub fn check_cover(
    ctx: &StructuralContext<'_>,
    sc: &SignalCovers,
    role: CoverRole,
    cover: &Cover,
    backward_dc: &Cover,
) -> CheckResult {
    let off = off_set_cover(sc, role);
    check_cluster(ctx, sc, role.own_transitions(sc), cover, &off, backward_dc)
}

/// The cluster-level variant used by the per-excitation-region architecture
/// (Fig. 3(c)): the cover must contain the ERs of exactly the transitions
/// in `own`, avoid the caller-supplied off-set (which encodes the one-hot
/// condition, eq. 3/4), and be monotonic for each owned transition.
pub fn check_cluster(
    ctx: &StructuralContext<'_>,
    sc: &SignalCovers,
    own: &[TransId],
    cover: &Cover,
    off: &Cover,
    backward_dc: &Cover,
) -> CheckResult {
    // Correctness: on-set inclusion.
    for &t in own {
        if !cover.covers(&sc.er[&t]) {
            return CheckResult::MissesExcitation(t);
        }
    }
    // Correctness: off-set exclusion (minus the explicit extra dc).
    let effective_off = if backward_dc.is_empty() {
        off.clone()
    } else {
        off.sharp(backward_dc)
    };
    if cover.intersects(&effective_off) {
        return CheckResult::IntersectsOffSet;
    }
    // Monotonicity per owned transition.
    for &t in own {
        if let Some(u) = MonotonicityFrame::new(ctx, sc, t).violation(cover) {
            return CheckResult::NonMonotonic(u);
        }
    }
    CheckResult::Ok
}

/// The cover-independent half of the Property 16 check for one
/// transition `t`, built once and then asked about any number of covers.
///
/// The check walks the interleaved (QPS) subgraph between `t` and its
/// successors. A first-disabling (FD) candidate `u` is an interleaved
/// transition with an interleaved post-place whose boundary-adjusted cover
/// the cover does not contain; the cover is non-monotonic after `u` if it
/// meets the adjusted cover of any interleaved place reachable from `u`'s
/// postset. Only the two containment tests depend on the cover: the
/// adjusted covers, the candidates and their reached places do not, so the
/// frame computes them once.
#[derive(Debug)]
pub struct MonotonicityFrame {
    /// Boundary-adjusted covers of the interleaved places, one per slot.
    adjusted: Vec<Cover>,
    /// The FD candidates, in transition order.
    candidates: Vec<FdCandidate>,
}

#[derive(Debug)]
struct FdCandidate {
    transition: TransId,
    /// Slots of the interleaved post-places with a non-empty cover.
    turnoff: Vec<usize>,
    /// Slots of every interleaved place reachable from the postset.
    reached: Vec<usize>,
}

impl MonotonicityFrame {
    /// Builds the frame of `t`, a transition of the signal `sc` covers.
    pub fn new(ctx: &StructuralContext<'_>, sc: &SignalCovers, t: TransId) -> Self {
        let net = ctx.stg.net();
        let nexts = ctx.analysis.next_of(t);

        // Interleaved nodes between t and its successors.
        let mut il_places = Bits::zeros(net.place_count());
        let mut il_trans = Bits::zeros(net.transition_count());
        for &succ in nexts {
            let il = ctx
                .cubes
                .pairs
                .get(&(t, succ))
                .expect("the context holds every adjacent pair's interleaved nodes");
            il_places.union_with(&il.places);
            il_trans.union_with(&il.transitions);
        }
        il_trans.set(t.index(), false);
        for &succ in nexts {
            il_trans.set(succ.index(), false);
        }

        // Boundary-adjusted cover function of each interleaved place:
        // places feeding a successor lose that successor's ER.
        let places: Vec<PlaceId> = il_places.iter_ones().map(|pi| PlaceId(pi as u32)).collect();
        let mut slot = vec![usize::MAX; net.place_count()];
        let mut adjusted = Vec::with_capacity(places.len());
        for (s, &p) in places.iter().enumerate() {
            let mut f = ctx.place_cover[p.index()].clone();
            for &succ in nexts {
                if net.pre_t(succ).contains(&p) {
                    f = f.sharp(&sc.er[&succ]);
                }
            }
            slot[p.index()] = s;
            adjusted.push(f);
        }
        let interleaved_post = |u: TransId| {
            net.post_t(u)
                .iter()
                .filter(|p| il_places.get(p.index()))
                .map(|p| slot[p.index()])
        };

        let mut candidates = Vec::new();
        for ui in il_trans.iter_ones() {
            let u = TransId(ui as u32);
            // Every cover contains an empty adjusted cover: not a turn-off.
            let turnoff: Vec<usize> = interleaved_post(u)
                .filter(|&s| !adjusted[s].is_empty())
                .collect();
            if turnoff.is_empty() {
                continue;
            }
            let mut reached = Vec::new();
            let mut seen = vec![false; adjusted.len()];
            let mut frontier: Vec<usize> = interleaved_post(u).collect();
            while let Some(s) = frontier.pop() {
                if std::mem::replace(&mut seen[s], true) {
                    continue;
                }
                reached.push(s);
                for &v in net.post_p(places[s]) {
                    if il_trans.get(v.index()) {
                        frontier.extend(interleaved_post(v).filter(|&q| !seen[q]));
                    }
                }
            }
            candidates.push(FdCandidate {
                transition: u,
                turnoff,
                reached,
            });
        }
        MonotonicityFrame {
            adjusted,
            candidates,
        }
    }

    /// The first FD candidate after which `cover` turns on again inside
    /// the QPS region, or `None` if `cover` is monotonic for `t`.
    ///
    /// The candidates are tried in transition order, as the walk tries
    /// them; a candidate fails as soon as any reached place meets the
    /// cover, so the order in which its places are visited cannot change
    /// the verdict.
    pub fn violation(&self, cover: &Cover) -> Option<TransId> {
        self.candidates
            .iter()
            .find(|c| {
                c.turnoff.iter().any(|&s| !cover.covers(&self.adjusted[s]))
                    && c.reached
                        .iter()
                        .any(|&s| cover.intersects(&self.adjusted[s]))
            })
            .map(|c| c.transition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::benchmarks;

    /// Builds the context and signal covers of the toggle's output.
    fn toggle_setup() -> (si_stg::Stg, Cover, Cover) {
        let stg = si_stg::parse_g(
            "\
.model toggle
.inputs x
.outputs y
.graph
x+ y+
y+ x-
x- y-
y- x+
.marking { <y-,x+> }
.end
",
        )
        .unwrap();
        let ctx = StructuralContext::build(&stg).unwrap();
        let y = stg.signal_by_name("y").unwrap();
        let sc = ctx.signal_covers(y);
        let set_init = sc.er[&sc.rising[0]].clone();
        let reset_init = sc.er[&sc.falling[0]].clone();
        (stg.clone(), set_init, reset_init)
    }

    #[test]
    fn initial_er_covers_pass_checks() {
        let (stg, set_init, reset_init) = toggle_setup();
        let ctx = StructuralContext::build(&stg).unwrap();
        let y = stg.signal_by_name("y").unwrap();
        let sc = ctx.signal_covers(y);
        let none = Cover::empty(stg.signal_count());
        assert!(check_cover(&ctx, &sc, CoverRole::Set, &set_init, &none).is_ok());
        assert!(check_cover(&ctx, &sc, CoverRole::Reset, &reset_init, &none).is_ok());
    }

    #[test]
    fn expanded_cover_into_qr_passes() {
        let (stg, _, _) = toggle_setup();
        let ctx = StructuralContext::build(&stg).unwrap();
        let y = stg.signal_by_name("y").unwrap();
        let sc = ctx.signal_covers(y);
        let none = Cover::empty(stg.signal_count());
        // set = x (drops the y' literal): covers ER(y+)={10} and QR={11}.
        let set = Cover::from_cube("1-".parse().unwrap());
        assert!(check_cover(&ctx, &sc, CoverRole::Set, &set, &none).is_ok());
    }

    #[test]
    fn cover_touching_off_set_rejected() {
        let (stg, _, _) = toggle_setup();
        let ctx = StructuralContext::build(&stg).unwrap();
        let y = stg.signal_by_name("y").unwrap();
        let sc = ctx.signal_covers(y);
        let none = Cover::empty(stg.signal_count());
        // universe obviously hits ER(y-)/GQR0
        let bad = Cover::universe(stg.signal_count());
        assert_eq!(
            check_cover(&ctx, &sc, CoverRole::Set, &bad, &none),
            CheckResult::IntersectsOffSet
        );
        // missing the excitation region
        let empty = Cover::empty(stg.signal_count());
        assert!(matches!(
            check_cover(&ctx, &sc, CoverRole::Set, &empty, &none),
            CheckResult::MissesExcitation(_)
        ));
    }

    #[test]
    fn non_monotonic_cover_rejected() {
        // Burst2: d's set cover C(d+) = b1·b2·… ; craft a cover that is on
        // in ER(d+), off right after d+ …, on again later — detected by the
        // monotonicity walk on the paper's running example instead:
        let stg = benchmarks::running_example();
        let ctx = StructuralContext::build(&stg).unwrap();
        let d = stg.signal_by_name("d").unwrap();
        let sc = ctx.signal_covers(d);
        let none = Cover::empty(stg.signal_count());
        // Initial covers are fine.
        let dp1 = stg.transition_by_display("d+").unwrap();
        let dp2 = stg.transition_by_display("d+/2").unwrap();
        let set = sc.er[&dp1].or(&sc.er[&dp2]);
        assert!(check_cover(&ctx, &sc, CoverRole::Set, &set, &none).is_ok());
        // A cover that additionally grabs a code deep inside QR(d+/1)
        // ((a,b,c,d) = 1001, after both b- and c-) while skipping the fork
        // code 1111: on → off → on again — non-monotonic.
        let set_bad = set.or(&Cover::from_cube("1001".parse().unwrap()));
        assert!(matches!(
            check_cover(&ctx, &sc, CoverRole::Set, &set_bad, &none),
            CheckResult::NonMonotonic(_)
        ));
    }

    /// The Property 16 walk the frame replaced, kept as its reference: it
    /// re-derives every adjusted cover and re-walks the interleaved
    /// subgraph on each call.
    fn walk_violation(
        ctx: &StructuralContext<'_>,
        sc: &SignalCovers,
        t: TransId,
        cover: &Cover,
    ) -> Option<TransId> {
        let net = ctx.stg.net();
        let nexts = ctx.analysis.next_of(t);
        let mut il_places = Bits::zeros(net.place_count());
        let mut il_trans = Bits::zeros(net.transition_count());
        for &succ in nexts {
            let il = &ctx.cubes.pairs[&(t, succ)];
            il_places.union_with(&il.places);
            il_trans.union_with(&il.transitions);
        }
        il_trans.set(t.index(), false);
        for &succ in nexts {
            il_trans.set(succ.index(), false);
        }
        let adjusted = |p: PlaceId| -> Cover {
            let mut f = ctx.place_cover[p.index()].clone();
            for &succ in nexts {
                if net.pre_t(succ).contains(&p) {
                    f = f.sharp(&sc.er[&succ]);
                }
            }
            f
        };
        for ui in il_trans.iter_ones() {
            let u = TransId(ui as u32);
            let turnoff = net.post_t(u).iter().any(|&p| {
                if !il_places.get(p.index()) {
                    return false;
                }
                let f = adjusted(p);
                !f.is_empty() && !cover.covers(&f)
            });
            if !turnoff {
                continue;
            }
            let mut frontier: Vec<PlaceId> = net
                .post_t(u)
                .iter()
                .copied()
                .filter(|p| il_places.get(p.index()))
                .collect();
            let mut seen = Bits::zeros(net.place_count());
            while let Some(p) = frontier.pop() {
                if seen.get(p.index()) {
                    continue;
                }
                seen.set(p.index(), true);
                if cover.intersects(&adjusted(p)) {
                    return Some(u);
                }
                for &v in net.post_p(p) {
                    if il_trans.get(v.index()) {
                        for &q in net.post_t(v) {
                            if il_places.get(q.index()) && !seen.get(q.index()) {
                                frontier.push(q);
                            }
                        }
                    }
                }
            }
        }
        None
    }

    #[test]
    fn frame_agrees_with_the_walk() {
        use si_stg::generators::{
            burst, clatch, muller_pipeline, philosophers, selector, sequencer,
        };
        let mut stgs = benchmarks::synthesizable_suite();
        for n in 2..=4 {
            stgs.extend([
                sequencer(n),
                selector(n),
                burst(n),
                philosophers(n),
                clatch(n),
                muller_pipeline(n),
            ]);
        }
        let (mut monotonic, mut violations) = (0, 0);
        for stg in &stgs {
            let ctx = StructuralContext::build(stg).unwrap();
            for signal in stg.synthesized_signals() {
                let sc = ctx.signal_covers(signal);
                for &t in sc.rising.iter().chain(&sc.falling) {
                    let er = &sc.er[&t];
                    // The ER cover, the ER joined with the QR, and every
                    // one-literal drop of an ER cube (stage M0's candidates).
                    let mut covers = vec![er.clone(), er.or(&sc.qr[&t])];
                    for (i, cube) in er.iter().enumerate() {
                        for var in cube.care().iter_ones() {
                            let mut cubes = er.cubes().to_vec();
                            cubes[i].set(var, None);
                            covers.push(Cover::from_cubes(er.width(), cubes));
                        }
                    }
                    for cover in &covers {
                        if frame_and_walk_agree(&ctx, &sc, t, cover) {
                            violations += 1;
                        } else {
                            monotonic += 1;
                        }
                    }
                }
            }
        }
        assert!(
            monotonic > 0 && violations > 0,
            "{monotonic} / {violations}"
        );
        // The known violation of `non_monotonic_cover_rejected`.
        let stg = benchmarks::running_example();
        let ctx = StructuralContext::build(&stg).unwrap();
        let sc = ctx.signal_covers(stg.signal_by_name("d").unwrap());
        let set = sc.er[&sc.rising[0]].or(&sc.er[&sc.rising[1]]);
        let set_bad = set.or(&Cover::from_cube("1001".parse().unwrap()));
        assert!(
            sc.rising
                .iter()
                .any(|&t| frame_and_walk_agree(&ctx, &sc, t, &set_bad)),
            "set_bad must violate Property 16"
        );
    }

    /// Asserts that the frame of `t` and the walk give `cover` the same
    /// verdict; returns whether it is a violation.
    fn frame_and_walk_agree(
        ctx: &StructuralContext<'_>,
        sc: &SignalCovers,
        t: TransId,
        cover: &Cover,
    ) -> bool {
        let got = MonotonicityFrame::new(ctx, sc, t).violation(cover);
        assert_eq!(
            got,
            walk_violation(ctx, sc, t, cover),
            "{}: {} against {cover}",
            ctx.stg.name(),
            ctx.stg.transition_display(t)
        );
        got.is_some()
    }

    #[test]
    fn off_set_cover_orientation() {
        let (stg, _, _) = toggle_setup();
        let ctx = StructuralContext::build(&stg).unwrap();
        let y = stg.signal_by_name("y").unwrap();
        let sc = ctx.signal_covers(y);
        let off_set = off_set_cover(&sc, CoverRole::Set);
        let off_reset = off_set_cover(&sc, CoverRole::Reset);
        // set-off contains ER(y-) = {01}; reset-off contains ER(y+) = {10}.
        assert!(off_set.contains_vertex(&Bits::from_ones(2, [1])));
        assert!(off_reset.contains_vertex(&Bits::from_ones(2, [0])));
    }
}
