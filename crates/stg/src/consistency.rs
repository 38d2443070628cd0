//! Structural consistency verification (§V-B, Fig. 9 of the paper).
//!
//! Consistency = non-autoconcurrency + switchover correctness. Both are
//! decided **structurally**: autoconcurrency through the signal concurrency
//! relation (SCR), switchover through the *adjacency* sets `next(t)`
//! computed by path analysis:
//!
//! * a **sound** search (Property 4 filter: paths avoiding transitions of
//!   the signal and places concurrent to it) — every pair it finds is truly
//!   adjacent;
//! * a **completing** search (Property 5): a relaxed traversal proposes
//!   extra candidates, which are confirmed by enumerating simple paths and
//!   checking that the path survives the forward reduction by the signal's
//!   transitions concurrent to its places (i.e. the path is realizable by a
//!   firing sequence with no transition of the signal).
//!
//! The paper observes the completing search is "rarely met in practice";
//! the implementation mirrors that by only running it when the relaxed
//! traversal finds more than the sound one.

use crate::signal::SignalId;
use crate::stg::Stg;
use si_boolean::Bits;
use si_petri::{ConcurrencyRelation, ForwardReduction, PlaceId, ReachabilityGraph, TransId};

/// Signal concurrency relation (Def. 3): node ‖ signal iff the node is
/// concurrent with some transition of the signal.
#[derive(Clone, Debug)]
pub struct SignalConcurrency {
    /// `place_rows[p]` — bit per signal.
    place_rows: Vec<Bits>,
    /// `trans_rows[t]` — bit per signal.
    trans_rows: Vec<Bits>,
}

impl SignalConcurrency {
    /// Derives the SCR from the node-level concurrency relation.
    pub fn compute(stg: &Stg, cr: &ConcurrencyRelation) -> Self {
        let nsig = stg.signal_count();
        let np = stg.net().place_count();
        let nt = stg.net().transition_count();
        let mut place_rows = vec![Bits::zeros(nsig); np];
        let mut trans_rows = vec![Bits::zeros(nsig); nt];
        for t in stg.net().transitions() {
            let sig = stg.signal_of(t);
            for p in stg.net().places() {
                if cr.place_transition(p, t) {
                    place_rows[p.index()].set(sig.index(), true);
                }
            }
            for u in stg.net().transitions() {
                if u != t && cr.transitions(u, t) {
                    trans_rows[u.index()].set(sig.index(), true);
                }
            }
        }
        SignalConcurrency {
            place_rows,
            trans_rows,
        }
    }

    /// Is place `p` concurrent with signal `s`?
    pub fn place(&self, p: PlaceId, s: SignalId) -> bool {
        self.place_rows[p.index()].get(s.index())
    }

    /// Is transition `t` concurrent with signal `s`?
    pub fn transition(&self, t: TransId, s: SignalId) -> bool {
        self.trans_rows[t.index()].get(s.index())
    }
}

/// Why structural consistency failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsistencyError {
    /// A transition is concurrent with its own signal.
    Autoconcurrent {
        /// The offending transition.
        transition: TransId,
    },
    /// Adjacent transitions of one signal have equal directions.
    SwitchoverViolation {
        /// The earlier transition.
        from: TransId,
        /// The adjacent successor with the non-alternating direction.
        to: TransId,
    },
    /// A transition has no adjacent successor of its own signal — the
    /// signal cannot alternate (non-live or malformed STG).
    NoSuccessor {
        /// The transition without successors.
        transition: TransId,
    },
}

impl std::fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyError::Autoconcurrent { transition } => {
                write!(f, "transition {transition} is autoconcurrent")
            }
            ConsistencyError::SwitchoverViolation { from, to } => {
                write!(f, "adjacent transitions {from} -> {to} do not alternate")
            }
            ConsistencyError::NoSuccessor { transition } => {
                write!(f, "transition {transition} has no same-signal successor")
            }
        }
    }
}

impl std::error::Error for ConsistencyError {}

/// Adjacency sets of all transitions plus the relations they were derived
/// from — the output of the Fig. 9 algorithm.
#[derive(Clone, Debug)]
pub struct StgAnalysis {
    /// Node-level concurrency relation.
    pub cr: ConcurrencyRelation,
    /// Signal concurrency relation.
    pub scr: SignalConcurrency,
    /// `next[t]` — adjacent same-signal successors of `t` (Prop. 4+5).
    pub next: Vec<Vec<TransId>>,
    /// `prev[t]` — inverse of `next`.
    pub prev: Vec<Vec<TransId>>,
}

impl StgAnalysis {
    /// Runs the full structural consistency analysis.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConsistencyError`] encountered.
    pub fn analyze(stg: &Stg) -> Result<Self, ConsistencyError> {
        let cr = ConcurrencyRelation::compute(stg.net());
        let scr = SignalConcurrency::compute(stg, &cr);

        // Non-autoconcurrency (Fig. 9 step 1).
        for t in stg.net().transitions() {
            if scr.transition(t, stg.signal_of(t)) {
                return Err(ConsistencyError::Autoconcurrent { transition: t });
            }
        }

        // Adjacency (Fig. 9 steps 2-3).
        let nt = stg.net().transition_count();
        let mut next: Vec<Vec<TransId>> = vec![Vec::new(); nt];
        for t in stg.net().transitions() {
            let sig = stg.signal_of(t);
            let sound = reachable_same_signal(stg, &scr, t, true);
            let relaxed = reachable_same_signal(stg, &scr, t, false);
            let mut found = sound.clone();
            for &cand in &relaxed {
                if !found.contains(&cand) && realizable_path_search(stg, &cr, t, cand, None) {
                    found.push(cand);
                }
            }
            found.sort_unstable();
            if found.is_empty() && stg.transitions_of(sig).len() > 1 {
                return Err(ConsistencyError::NoSuccessor { transition: t });
            }
            if found.is_empty() {
                return Err(ConsistencyError::NoSuccessor { transition: t });
            }
            // Switchover correctness.
            for &u in &found {
                if stg.direction_of(u) != stg.direction_of(t).opposite() {
                    return Err(ConsistencyError::SwitchoverViolation { from: t, to: u });
                }
            }
            next[t.index()] = found;
        }

        let mut prev: Vec<Vec<TransId>> = vec![Vec::new(); nt];
        for t in stg.net().transitions() {
            for &u in &next[t.index()] {
                prev[u.index()].push(t);
            }
        }
        for v in &mut prev {
            v.sort_unstable();
        }

        Ok(StgAnalysis {
            cr,
            scr,
            next,
            prev,
        })
    }

    /// Adjacent successors of `t`.
    pub fn next_of(&self, t: TransId) -> &[TransId] {
        &self.next[t.index()]
    }

    /// Adjacent predecessors of `t`.
    pub fn prev_of(&self, t: TransId) -> &[TransId] {
        &self.prev[t.index()]
    }
}

/// Graph search from `t` towards same-signal transitions.
///
/// With `strict` the Property 4 filter applies: places concurrent to the
/// signal are not traversed (sound). Without it only same-signal
/// transitions block the walk (complete but optimistic).
fn reachable_same_signal(
    stg: &Stg,
    scr: &SignalConcurrency,
    t: TransId,
    strict: bool,
) -> Vec<TransId> {
    let sig = stg.signal_of(t);
    let net = stg.net();
    let mut seen_p = Bits::zeros(net.place_count());
    let mut seen_t = Bits::zeros(net.transition_count());
    let mut found = Vec::new();
    // worklist of transitions whose outputs we expand
    let mut stack = vec![t];
    seen_t.set(t.index(), true);
    while let Some(u) = stack.pop() {
        for &p in net.post_t(u) {
            if seen_p.get(p.index()) {
                continue;
            }
            if strict && scr.place(p, sig) {
                continue;
            }
            seen_p.set(p.index(), true);
            for &v in net.post_p(p) {
                if seen_t.get(v.index()) {
                    continue;
                }
                if stg.signal_of(v) == sig {
                    seen_t.set(v.index(), true);
                    found.push(v);
                    continue; // do not walk through same-signal transitions
                }
                seen_t.set(v.index(), true);
                stack.push(v);
            }
        }
    }
    found
}

/// Expansion budget of one Property 5 path search. Simple paths can be
/// exponentially many, so past this many expansions the search extends
/// no path further; it still tests the paths its open frames complete.
const PATH_SEARCH_BUDGET: usize = 20_000;

/// The Property 5 path search from `start` to `target`: a DFS over simple
/// paths `start → … → target` through no other transition of `start`'s
/// signal, bounded by [`PATH_SEARCH_BUDGET`] expansions, that tests each
/// completed path for realizability. Shared by adjacency confirmation and
/// the completing pass of the interleave relation (Def. 8).
///
/// With `open == None` the search stops at its first realizable path
/// (adjacency confirmation). With `Some(open)` it tests only the paths
/// through a place still in `open`, removes the places of each realizable
/// one from `open`, and stops once `open` is empty. Which paths it visits,
/// and in which order, does not depend on `open`, so a place leaves `open`
/// exactly when a search for that place alone would have confirmed it.
///
/// Returns whether the search stopped early: it found a realizable path
/// (`None`), or confirmed every open place (`Some`).
pub(crate) fn realizable_path_search(
    stg: &Stg,
    cr: &ConcurrencyRelation,
    start: TransId,
    target: TransId,
    open: Option<&mut Bits>,
) -> bool {
    if open.as_ref().is_some_and(|o| o.is_zero()) {
        return true;
    }
    let net = stg.net();
    let mut on_path_t = Bits::zeros(net.transition_count());
    on_path_t.set(start.index(), true);
    PathSearch {
        stg,
        cr,
        sig: stg.signal_of(start),
        start,
        target,
        open,
        on_path_p: Bits::zeros(net.place_count()),
        on_path_t,
        path_places: Vec::new(),
        path_trans: Vec::new(),
        budget: PATH_SEARCH_BUDGET,
    }
    .extend(start)
}

/// The state of one [`realizable_path_search`]: the current path (its
/// nodes in order and as bitmaps) and what is left to confirm.
struct PathSearch<'a> {
    stg: &'a Stg,
    cr: &'a ConcurrencyRelation,
    sig: SignalId,
    start: TransId,
    target: TransId,
    open: Option<&'a mut Bits>,
    on_path_p: Bits,
    on_path_t: Bits,
    path_places: Vec<PlaceId>,
    path_trans: Vec<TransId>,
    budget: usize,
}

impl PathSearch<'_> {
    /// Extends the current path, which ends at `cur`, by every place of
    /// `cur`'s postset. Returns `true` once the search is done.
    fn extend(&mut self, cur: TransId) -> bool {
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        let stg = self.stg;
        let net = stg.net();
        for &p in net.post_t(cur) {
            if self.on_path_p.get(p.index()) {
                continue;
            }
            self.on_path_p.set(p.index(), true);
            self.path_places.push(p);
            let mut done = false;
            for &v in net.post_p(p) {
                if v == self.target {
                    done = self.complete();
                } else if !self.on_path_t.get(v.index()) && stg.signal_of(v) != self.sig {
                    self.on_path_t.set(v.index(), true);
                    self.path_trans.push(v);
                    done = self.extend(v);
                    self.path_trans.pop();
                    self.on_path_t.set(v.index(), false);
                }
                if done {
                    break;
                }
            }
            self.path_places.pop();
            self.on_path_p.set(p.index(), false);
            if done {
                return true;
            }
        }
        false
    }

    /// Tests the current path, which has just reached the target. Returns
    /// `true` once the search is done.
    fn complete(&mut self) -> bool {
        let wanted = match &self.open {
            None => true,
            Some(open) => open.intersects(&self.on_path_p),
        };
        if !wanted || !self.realizable() {
            return false;
        }
        match self.open.as_deref_mut() {
            None => true,
            Some(open) => {
                open.subtract(&self.on_path_p);
                open.is_zero()
            }
        }
    }

    /// The Property 5 condition on the current path.
    fn realizable(&self) -> bool {
        // Transitions of the signal concurrent to some place of the path
        // (other than the endpoints) must be removable without starving the
        // path. The start transition has already fired, so it must never be
        // removed.
        let offenders: Vec<TransId> = self
            .stg
            .transitions_of(self.sig)
            .iter()
            .copied()
            .filter(|&u| u != self.target && u != self.start)
            .filter(|&u| {
                self.path_places
                    .iter()
                    .any(|&p| self.cr.place_transition(p, u))
            })
            .collect();
        if offenders.is_empty() {
            return true;
        }
        // Every node of the path — places AND intermediate transitions —
        // must survive the reduction, otherwise realizing the path needs a
        // firing of a removed transition upstream (Property 5).
        let red = ForwardReduction::compute(self.stg.net(), &offenders);
        self.path_places.iter().all(|&p| red.place_alive(p))
            && self.path_trans.iter().all(|&t| red.transition_alive(t))
            && red.transition_alive(self.target)
    }
}

/// Behavioural adjacency oracle: `u ∈ next(t)` iff some firing of `t` is
/// followed by a firing of `u` with no transition of the signal in between.
/// Used by tests to validate the structural computation.
pub fn next_behavioural(stg: &Stg, rg: &ReachabilityGraph, t: TransId) -> Vec<TransId> {
    let sig = stg.signal_of(t);
    let mut reach = Bits::zeros(rg.state_count());
    let mut stack = Vec::new();
    for s in rg.states() {
        for &(u, d) in rg.successors(s) {
            if u == t && !reach.get(d.index()) {
                reach.set(d.index(), true);
                stack.push(d);
            }
        }
    }
    let mut found: Vec<TransId> = Vec::new();
    while let Some(s) = stack.pop() {
        for &(u, d) in rg.successors(s) {
            if stg.signal_of(u) == sig {
                if !found.contains(&u) {
                    found.push(u);
                }
                continue;
            }
            if !reach.get(d.index()) {
                reach.set(d.index(), true);
                stack.push(d);
            }
        }
    }
    found.sort_unstable();
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Direction::{Fall, Rise};
    use crate::signal::SignalKind;
    use crate::stg::Stg;

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
    fn toggle_is_consistent() {
        let stg = toggle();
        let a = StgAnalysis::analyze(&stg).unwrap();
        let xp = stg.transition_by_display("x+").unwrap();
        let xm = stg.transition_by_display("x-").unwrap();
        assert_eq!(a.next_of(xp), &[xm]);
        assert_eq!(a.prev_of(xm), &[xp]);
    }

    #[test]
    fn structural_matches_behavioural_next() {
        let stg = toggle();
        let a = StgAnalysis::analyze(&stg).unwrap();
        let rg = ReachabilityGraph::build(stg.net(), 1000).unwrap();
        for t in stg.net().transitions() {
            assert_eq!(a.next_of(t), next_behavioural(&stg, &rg, t).as_slice());
        }
    }

    #[test]
    fn autoconcurrency_detected() {
        let mut b = Stg::builder("auto");
        let x = b.add_signal("x", SignalKind::Input);
        let y = b.add_signal("y", SignalKind::Output);
        let x1 = b.add_transition(x, Rise);
        let x2 = b.add_transition(x, Rise);
        let yp = b.add_transition(y, Rise);
        let ym = b.add_transition(y, Fall);
        let p = b.arc(ym, yp);
        b.mark_place(p);
        b.arc(yp, x1);
        b.arc(yp, x2);
        b.arc(x1, ym);
        b.arc(x2, ym);
        let stg = b.build();
        match StgAnalysis::analyze(&stg) {
            Err(ConsistencyError::Autoconcurrent { .. }) => {}
            other => panic!("expected autoconcurrency, got {other:?}"),
        }
    }

    #[test]
    fn switchover_violation_detected() {
        // x+ followed by x+ (same direction, adjacent).
        let mut b = Stg::builder("bad");
        let x = b.add_signal("x", SignalKind::Input);
        let x1 = b.add_transition(x, Rise);
        let x2 = b.add_transition(x, Rise);
        b.arc(x1, x2);
        let p = b.arc(x2, x1);
        b.mark_place(p);
        let stg = b.build();
        match StgAnalysis::analyze(&stg) {
            Err(ConsistencyError::SwitchoverViolation { .. }) => {}
            other => panic!("expected switchover violation, got {other:?}"),
        }
    }

    #[test]
    fn scr_of_concurrent_branch() {
        // fork: x handshake ∥ y handshake; places of the x branch are
        // concurrent with signal y and vice versa.
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
        assert!(a.scr.place(px, y));
        assert!(a.scr.place(py, x));
        assert!(!a.scr.place(px, x));
        assert!(!a.scr.place(p0, x));
        let xp_t = stg.transition_by_display("x+").unwrap();
        assert!(a.scr.transition(xp_t, y));
        assert!(!a.scr.transition(xp_t, r));
    }
}
