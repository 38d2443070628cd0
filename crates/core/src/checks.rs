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
use si_boolean::{Bits, Cover, Cube};
use si_petri::{PlaceId, TransId};
use std::cell::{Cell, OnceCell};

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
    check_cluster_in(&Frames::new(ctx, sc), own, cover, off, backward_dc)
}

/// [`check_cluster`] with the frames of a signal's transitions shared
/// across calls.
pub(crate) fn check_cluster_in(
    frames: &Frames<'_, '_>,
    own: &[TransId],
    cover: &Cover,
    off: &Cover,
    backward_dc: &Cover,
) -> CheckResult {
    let sc = frames.sc;
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
        if let Some(u) = frames.violation(t, cover, &mut frames.answers(t)) {
            return CheckResult::NonMonotonic(u);
        }
    }
    CheckResult::Ok
}

/// The [`MonotonicityFrame`]s of one signal's transitions, each built on
/// first use and then shared by every check of the signal's covers. The
/// Property 16 checks made through them are added to the
/// `synth.monotonicity_checks` counter when they drop.
pub(crate) struct Frames<'s, 'c> {
    pub(crate) ctx: &'s StructuralContext<'c>,
    pub(crate) sc: &'s SignalCovers,
    /// Per transition index.
    built: Vec<OnceCell<MonotonicityFrame>>,
    checks: Cell<u64>,
}

impl<'s, 'c> Frames<'s, 'c> {
    pub(crate) fn new(ctx: &'s StructuralContext<'c>, sc: &'s SignalCovers) -> Self {
        let transitions = ctx.stg.net().transition_count();
        Frames {
            ctx,
            sc,
            built: (0..transitions).map(|_| OnceCell::new()).collect(),
            checks: Cell::new(0),
        }
    }

    fn frame(&self, t: TransId) -> &MonotonicityFrame {
        self.built[t.index()].get_or_init(|| MonotonicityFrame::new(self.ctx, self.sc, t))
    }

    /// Fresh answers for `t`'s frame: nothing known about any cover.
    pub(crate) fn answers(&self, t: TransId) -> SlotAnswers {
        SlotAnswers::unknown(self.frame(t).adjusted.len())
    }

    /// [`MonotonicityFrame::violation_with`] on `t`'s frame.
    pub(crate) fn violation(
        &self,
        t: TransId,
        cover: &Cover,
        answers: &mut SlotAnswers,
    ) -> Option<TransId> {
        self.checks.set(self.checks.get() + 1);
        self.frame(t).violation_with(cover, answers)
    }
}

impl Drop for Frames<'_, '_> {
    fn drop(&mut self) {
        si_obs::counter_add("synth.monotonicity_checks", self.checks.get());
    }
}

/// What one cover is known to do to each slot of a [`MonotonicityFrame`]:
/// whether it contains the slot's adjusted cover and whether it meets it.
/// A check fills the answers in as it tests the slots, so each slot is
/// tested at most once per cover.
#[derive(Clone, Debug)]
pub(crate) struct SlotAnswers {
    contains: Answers,
    meets: Answers,
    /// The cube the cover grew by, for the `no_before_growth` slots.
    grown: Option<usize>,
}

/// The slots one question about a cover has been answered for.
#[derive(Clone, Debug)]
struct Answers {
    yes: Bits,
    no: Bits,
    /// The slots answered no before the cover's cube `grown` grew: still
    /// no unless that cube meets the slot.
    no_before_growth: Bits,
}

impl Answers {
    fn unknown(slots: usize) -> Self {
        Answers {
            yes: Bits::zeros(slots),
            no: Bits::zeros(slots),
            no_before_growth: Bits::zeros(slots),
        }
    }

    fn record(&mut self, s: usize, answer: bool) -> bool {
        if answer {
            self.yes.set(s, true);
        } else {
            self.no.set(s, true);
        }
        answer
    }

    /// See [`SlotAnswers::grown_from`].
    fn grown_from(&mut self, before: &Answers) {
        self.yes.copy_from(&before.yes);
        self.no_before_growth.copy_from(&before.no);
        self.no.clear();
    }
}

impl SlotAnswers {
    fn unknown(slots: usize) -> Self {
        SlotAnswers {
            contains: Answers::unknown(slots),
            meets: Answers::unknown(slots),
            grown: None,
        }
    }

    /// Sets these answers to what `before`, the answers of some cover,
    /// tells about that cover with its cube `cube` grown (by dropping
    /// literals). The grown cover is a superset, so a slot it contained
    /// or met stays so. A slot it did not contain or meet can change only
    /// where the grown cube meets the slot. Everything else is unknown.
    pub(crate) fn grown_from(&mut self, before: &SlotAnswers, cube: usize) {
        self.contains.grown_from(&before.contains);
        self.meets.grown_from(&before.meets);
        self.grown = Some(cube);
    }

    /// The grown cube of a grown cover.
    fn grown<'c>(&self, cover: &'c Cover) -> &'c Cube {
        let grown = self.grown.expect("a grown cover names its grown cube");
        &cover.cubes()[grown]
    }
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
    reached: Bits,
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
            let mut reached = Bits::zeros(adjusted.len());
            let mut frontier: Vec<usize> = interleaved_post(u).collect();
            while let Some(s) = frontier.pop() {
                if reached.get(s) {
                    continue;
                }
                reached.set(s, true);
                for &v in net.post_p(places[s]) {
                    if il_trans.get(v.index()) {
                        frontier.extend(interleaved_post(v).filter(|&q| !reached.get(q)));
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
    /// the verdict. Each slot is tested at most once per call, however
    /// many candidates share it.
    pub fn violation(&self, cover: &Cover) -> Option<TransId> {
        self.violation_with(cover, &mut SlotAnswers::unknown(self.adjusted.len()))
    }

    /// [`MonotonicityFrame::violation`] given `answers`, what is known
    /// about `cover`'s slots, which the call completes as it tests them.
    pub(crate) fn violation_with(
        &self,
        cover: &Cover,
        answers: &mut SlotAnswers,
    ) -> Option<TransId> {
        self.candidates
            .iter()
            .find(|c| {
                self.meets_any(cover, answers, &c.reached)
                    && c.turnoff.iter().any(|&s| !self.contains(cover, answers, s))
            })
            .map(|c| c.transition)
    }

    fn contains(&self, cover: &Cover, answers: &mut SlotAnswers, s: usize) -> bool {
        let known = &answers.contains;
        if known.yes.get(s) || known.no.get(s) {
            return known.yes.get(s);
        }
        let adjusted = &self.adjusted[s];
        let contains = if known.no_before_growth.get(s) {
            adjusted.intersects_cube(answers.grown(cover)) && cover.covers(adjusted)
        } else {
            cover.covers(adjusted)
        };
        answers.contains.record(s, contains)
    }

    /// Whether `cover` meets the adjusted cover of any slot in `slots`,
    /// testing the slots whose answer is not known yet in ascending order.
    fn meets_any(&self, cover: &Cover, answers: &mut SlotAnswers, slots: &Bits) -> bool {
        if slots.intersects(&answers.meets.yes) {
            return true;
        }
        for (w, &word) in slots.as_words().iter().enumerate() {
            let known = answers.meets.yes.as_words()[w] | answers.meets.no.as_words()[w];
            let mut open = word & !known;
            while open != 0 {
                let s = w * 64 + open.trailing_zeros() as usize;
                open &= open - 1;
                let meets = if answers.meets.no_before_growth.get(s) {
                    self.adjusted[s].intersects_cube(answers.grown(cover))
                } else {
                    cover.intersects(&self.adjusted[s])
                };
                if answers.meets.record(s, meets) {
                    return true;
                }
            }
        }
        false
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

    /// The frame's check as it stood before the slot answers: one
    /// containment test per (candidate, turn-off slot) pair and one
    /// intersection test per (candidate, reached slot) pair. It is the
    /// reference that pins [`MonotonicityFrame::violation_with`].
    fn unshared_violation(frame: &MonotonicityFrame, cover: &Cover) -> Option<TransId> {
        frame
            .candidates
            .iter()
            .find(|c| {
                c.turnoff.iter().any(|&s| !cover.covers(&frame.adjusted[s]))
                    && c.reached
                        .iter_ones()
                        .any(|s| cover.intersects(&frame.adjusted[s]))
            })
            .map(|c| c.transition)
    }

    #[test]
    fn slot_answers_agree_with_the_unshared_violation() {
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
        stgs.extend([sequencer(40), selector(40)]);
        let (mut monotonic, mut violations, mut grown, mut joined_violations) = (0, 0, 0, 0);
        for stg in &stgs {
            let ctx = StructuralContext::build(stg).unwrap();
            // On the large specs, every tenth signal and the first 24
            // drops of each cover keep the debug build's run short.
            let signals = stg.synthesized_signals();
            let sample = if signals.len() > 20 { 10 } else { 1 };
            for signal in signals.into_iter().step_by(sample) {
                let sc = ctx.signal_covers(signal);
                for &t in sc.rising.iter().chain(&sc.falling) {
                    let frame = MonotonicityFrame::new(&ctx, &sc, t);
                    let same = |cover: &Cover, answers: &mut SlotAnswers| {
                        let want = unshared_violation(&frame, cover);
                        let what = format!("{}: {} against {cover}", stg.name(), t.index());
                        assert_eq!(frame.violation_with(cover, answers), want, "{what}");
                        assert_eq!(frame.violation(cover), want, "{what}: fresh");
                        want
                    };
                    // The ER grown literal by literal as the greedy
                    // expansion grows it, each candidate from the answers
                    // of the cover it grew from, each violation-free one
                    // accepted; then, from fresh answers, the ER joined
                    // with the QR and with each slot's adjusted cover.
                    let mut cover = sc.er[&t].clone();
                    let mut known = SlotAnswers::unknown(frame.adjusted.len());
                    same(&cover, &mut known);
                    let mut trial = known.clone();
                    for i in 0..cover.cube_count() {
                        let literals: Vec<usize> = cover.cubes()[i].care().iter_ones().collect();
                        for var in literals.into_iter().take(24) {
                            let mut cubes = cover.cubes().to_vec();
                            cubes[i].set(var, None);
                            let cand = Cover::from_cubes(cover.width(), cubes);
                            trial.grown_from(&known, i);
                            grown += 1;
                            if same(&cand, &mut trial).is_some() {
                                violations += 1;
                            } else {
                                monotonic += 1;
                                cover = cand;
                                std::mem::swap(&mut known, &mut trial);
                            }
                        }
                    }
                    let fresh = || SlotAnswers::unknown(frame.adjusted.len());
                    same(&sc.er[&t].or(&sc.qr[&t]), &mut fresh());
                    for s in 0..frame.adjusted.len() {
                        if same(&sc.er[&t].or(&frame.adjusted[s]), &mut fresh()).is_some() {
                            joined_violations += 1;
                        }
                    }
                }
            }
        }
        assert!(
            monotonic > 1000 && violations > 100 && grown > 2000 && joined_violations > 100,
            "{monotonic} / {violations} / {grown} / {joined_violations}"
        );
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
        let frame = MonotonicityFrame::new(ctx, sc, t);
        let got = frame.violation(cover);
        assert_eq!(got, unshared_violation(&frame, cover));
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
