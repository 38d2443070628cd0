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
        if let Some(u) = monotonicity_violation(ctx, sc, t, cover) {
            return CheckResult::NonMonotonic(u);
        }
    }
    CheckResult::Ok
}

/// Property 16: searches for a first-disabling transition after which the
/// cover intersects a later place cover inside the QPS region of `t`.
/// Returns the offending transition if found.
pub fn monotonicity_violation(
    ctx: &StructuralContext<'_>,
    sc: &SignalCovers,
    t: TransId,
    cover: &Cover,
) -> Option<TransId> {
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

    // Boundary-adjusted cover function of an interleaved place.
    let adjusted = |p: PlaceId| -> Cover {
        let mut f = ctx.place_cover[p.index()].clone();
        for &succ in nexts {
            if net.pre_t(succ).contains(&p) {
                f = f.sharp(&sc.er[&succ]);
            }
        }
        f
    };

    // FD candidates: interleaved transitions with a postset place whose
    // adjusted cover is not fully covered.
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
        // All interleaved places reachable from u (its postset onward) must
        // not intersect the cover any more.
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
            let f = adjusted(p);
            if cover.intersects(&f) {
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
