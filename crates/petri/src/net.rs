//! The Petri-net kernel: places, transitions, flow relation, markings.
//!
//! Matches §II-B of the paper: a PN is `(P, T, F, m0)`. All nets handled by
//! the synthesis flow are assumed live, safe and free-choice; this module
//! provides the structural class checks and the firing rule, while
//! behavioural checks (liveness, safeness) live in [`crate::reach`].

use si_boolean::Bits;
use std::fmt;

/// Index of a place in a [`PetriNet`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PlaceId(pub u32);

/// Index of a transition in a [`PetriNet`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TransId(pub u32);

impl PlaceId {
    /// The index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TransId {
    /// The index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for TransId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A node of the net graph — either a place or a transition.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// A place node.
    Place(PlaceId),
    /// A transition node.
    Trans(TransId),
}

/// A marking of a safe net: the set of marked places.
pub type Marking = Bits;

/// A place/transition net with a safe initial marking.
///
/// Build one with [`PetriNet::builder`]. Presets and postsets are stored
/// both ways for O(degree) traversal.
///
/// # Examples
///
/// ```
/// use si_petri::PetriNet;
///
/// let mut b = PetriNet::builder();
/// let p0 = b.add_place("p0", true);
/// let p1 = b.add_place("p1", false);
/// let t = b.add_transition("t");
/// b.arc_pt(p0, t);
/// b.arc_tp(t, p1);
/// let net = b.build();
/// assert!(net.is_enabled(&net.initial_marking(), t));
/// ```
#[derive(Clone, Debug)]
pub struct PetriNet {
    place_names: Vec<String>,
    trans_names: Vec<String>,
    /// Preset of each transition (places), sorted.
    pre_t: Vec<Vec<PlaceId>>,
    /// Postset of each transition (places), sorted.
    post_t: Vec<Vec<PlaceId>>,
    /// Preset of each place (transitions), sorted.
    pre_p: Vec<Vec<TransId>>,
    /// Postset of each place (transitions), sorted.
    post_p: Vec<Vec<TransId>>,
    initial: Marking,
    /// Word mask of `•t` per transition (width = place count).
    pre_t_mask: Vec<Bits>,
    /// Word mask of `t•` per transition.
    post_t_mask: Vec<Bits>,
    /// Word mask of `t• \ •t` per transition: the places that *gain* a
    /// token when `t` fires — a safeness violation iff one is already
    /// marked.
    gain_mask: Vec<Bits>,
}

/// Incremental constructor for [`PetriNet`].
#[derive(Clone, Debug, Default)]
pub struct PetriNetBuilder {
    place_names: Vec<String>,
    trans_names: Vec<String>,
    arcs_pt: Vec<(PlaceId, TransId)>,
    arcs_tp: Vec<(TransId, PlaceId)>,
    initial: Vec<bool>,
}

impl PetriNetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a place; `marked` sets its initial token.
    pub fn add_place(&mut self, name: impl Into<String>, marked: bool) -> PlaceId {
        let id = PlaceId(self.place_names.len() as u32);
        self.place_names.push(name.into());
        self.initial.push(marked);
        id
    }

    /// Adds a transition.
    pub fn add_transition(&mut self, name: impl Into<String>) -> TransId {
        let id = TransId(self.trans_names.len() as u32);
        self.trans_names.push(name.into());
        id
    }

    /// Adds an arc from a place to a transition.
    pub fn arc_pt(&mut self, p: PlaceId, t: TransId) -> &mut Self {
        self.arcs_pt.push((p, t));
        self
    }

    /// Adds an arc from a transition to a place.
    pub fn arc_tp(&mut self, t: TransId, p: PlaceId) -> &mut Self {
        self.arcs_tp.push((t, p));
        self
    }

    /// Number of places added so far.
    pub fn place_count(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions added so far.
    pub fn transition_count(&self) -> usize {
        self.trans_names.len()
    }

    /// Finalizes the net.
    ///
    /// # Panics
    ///
    /// Panics if an arc references an unknown node.
    pub fn build(self) -> PetriNet {
        let np = self.place_names.len();
        let nt = self.trans_names.len();
        let mut pre_t = vec![Vec::new(); nt];
        let mut post_t = vec![Vec::new(); nt];
        let mut pre_p = vec![Vec::new(); np];
        let mut post_p = vec![Vec::new(); np];
        for (p, t) in self.arcs_pt {
            assert!(
                p.index() < np && t.index() < nt,
                "arc references unknown node"
            );
            pre_t[t.index()].push(p);
            post_p[p.index()].push(t);
        }
        for (t, p) in self.arcs_tp {
            assert!(
                p.index() < np && t.index() < nt,
                "arc references unknown node"
            );
            post_t[t.index()].push(p);
            pre_p[p.index()].push(t);
        }
        for v in pre_t.iter_mut().chain(post_t.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        for v in pre_p.iter_mut().chain(post_p.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        let initial = Bits::from_ones(
            np,
            self.initial
                .iter()
                .enumerate()
                .filter(|&(_, &m)| m)
                .map(|(i, _)| i),
        );
        let mask = |places: &[PlaceId]| Bits::from_ones(np, places.iter().map(|p| p.index()));
        let pre_t_mask: Vec<Bits> = pre_t.iter().map(|ps| mask(ps)).collect();
        let post_t_mask: Vec<Bits> = post_t.iter().map(|ps| mask(ps)).collect();
        let gain_mask = pre_t_mask
            .iter()
            .zip(&post_t_mask)
            .map(|(pre, post)| post.difference(pre))
            .collect();
        PetriNet {
            place_names: self.place_names,
            trans_names: self.trans_names,
            pre_t,
            post_t,
            pre_p,
            post_p,
            initial,
            pre_t_mask,
            post_t_mask,
            gain_mask,
        }
    }
}

impl PetriNet {
    /// Starts building a net.
    pub fn builder() -> PetriNetBuilder {
        PetriNetBuilder::new()
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.trans_names.len()
    }

    /// Iterates over all place ids.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.place_count() as u32).map(PlaceId)
    }

    /// Iterates over all transition ids.
    pub fn transitions(&self) -> impl Iterator<Item = TransId> {
        (0..self.transition_count() as u32).map(TransId)
    }

    /// The name of a place.
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.place_names[p.index()]
    }

    /// The name of a transition.
    pub fn transition_name(&self, t: TransId) -> &str {
        &self.trans_names[t.index()]
    }

    /// Looks up a place by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.place_names
            .iter()
            .position(|n| n == name)
            .map(|i| PlaceId(i as u32))
    }

    /// Looks up a transition by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransId> {
        self.trans_names
            .iter()
            .position(|n| n == name)
            .map(|i| TransId(i as u32))
    }

    /// Preset of a transition: `•t`.
    pub fn pre_t(&self, t: TransId) -> &[PlaceId] {
        &self.pre_t[t.index()]
    }

    /// Postset of a transition: `t•`.
    pub fn post_t(&self, t: TransId) -> &[PlaceId] {
        &self.post_t[t.index()]
    }

    /// Preset of a place: `•p`.
    pub fn pre_p(&self, p: PlaceId) -> &[TransId] {
        &self.pre_p[p.index()]
    }

    /// Postset of a place: `p•`.
    pub fn post_p(&self, p: PlaceId) -> &[TransId] {
        &self.post_p[p.index()]
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Marking {
        self.initial.clone()
    }

    /// Word mask of `•t` (width = place count).
    pub fn pre_mask(&self, t: TransId) -> &Bits {
        &self.pre_t_mask[t.index()]
    }

    /// Word mask of `t•`.
    pub fn post_mask(&self, t: TransId) -> &Bits {
        &self.post_t_mask[t.index()]
    }

    /// Word mask of `t• \ •t` — the places that gain a token when `t`
    /// fires. Firing `t` at `m` violates safeness iff `m` intersects it.
    pub fn gain_mask(&self, t: TransId) -> &Bits {
        &self.gain_mask[t.index()]
    }

    /// Returns `true` if `t` is enabled at `m` (all of `•t` marked).
    ///
    /// O(words) via the precomputed preset mask.
    pub fn is_enabled(&self, m: &Marking, t: TransId) -> bool {
        self.pre_t_mask[t.index()].is_subset(m)
    }

    /// Reference implementation of [`Self::is_enabled`]: the per-place scan
    /// the masks replaced. Kept as the oracle for equivalence tests and the
    /// before/after benchmark.
    pub fn is_enabled_naive(&self, m: &Marking, t: TransId) -> bool {
        self.pre_t(t).iter().all(|p| m.get(p.index()))
    }

    /// Returns `true` if firing `t` at `m` would put a second token on a
    /// place (`m ∩ (t• \ •t) ≠ ∅`). Only meaningful when `t` is enabled.
    pub fn violates_safeness(&self, m: &Marking, t: TransId) -> bool {
        m.intersects(&self.gain_mask[t.index()])
    }

    /// Fires `t` at `m`, returning the successor marking.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not enabled at `m` (debug assertion semantics for
    /// the safe-net firing rule).
    pub fn fire(&self, m: &Marking, t: TransId) -> Marking {
        assert!(self.is_enabled(m, t), "firing a disabled transition");
        let mut next = m.clone();
        self.fire_into(m, t, &mut next);
        next
    }

    /// In-place firing rule: writes `(m \ •t) ∪ t•` into `out` without
    /// allocating. `out` must have the net's place-count width.
    ///
    /// This is the hot path of reachability exploration: enabledness is a
    /// `debug_assert` here (callers test it first), unlike [`Self::fire`]
    /// which always panics on a disabled firing.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch; in debug builds also if `t` is not
    /// enabled at `m`.
    ///
    /// # Examples
    ///
    /// ```
    /// use si_petri::PetriNet;
    ///
    /// // p0 -> t -> p1
    /// let mut b = PetriNet::builder();
    /// let p0 = b.add_place("p0", true);
    /// let p1 = b.add_place("p1", false);
    /// let t = b.add_transition("t");
    /// b.arc_pt(p0, t);
    /// b.arc_tp(t, p1);
    /// let net = b.build();
    ///
    /// let m0 = net.initial_marking();
    /// let mut out = m0.clone(); // scratch marking, reused across firings
    /// net.fire_into(&m0, t, &mut out);
    /// assert!(!out.get(p0.index()) && out.get(p1.index()));
    /// ```
    pub fn fire_into(&self, m: &Marking, t: TransId, out: &mut Marking) {
        debug_assert!(self.is_enabled(m, t), "firing a disabled transition");
        out.copy_from(m);
        out.subtract(&self.pre_t_mask[t.index()]);
        out.union_with(&self.post_t_mask[t.index()]);
    }

    /// Reference implementation of [`Self::fire`] via per-place updates;
    /// oracle counterpart of [`Self::is_enabled_naive`].
    pub fn fire_naive(&self, m: &Marking, t: TransId) -> Marking {
        assert!(self.is_enabled_naive(m, t), "firing a disabled transition");
        let mut next = m.clone();
        for p in self.pre_t(t) {
            next.set(p.index(), false);
        }
        for p in self.post_t(t) {
            next.set(p.index(), true);
        }
        next
    }

    /// All transitions enabled at `m`.
    pub fn enabled_transitions(&self, m: &Marking) -> Vec<TransId> {
        self.transitions()
            .filter(|&t| self.is_enabled(m, t))
            .collect()
    }

    /// Free-choice check: every arc `(p, t)` is either the unique outgoing
    /// arc of `p` or the unique incoming arc of `t`.
    ///
    /// Equivalently: if `|p•| > 1` then every `t ∈ p•` has `•t = {p}`.
    pub fn is_free_choice(&self) -> bool {
        for p in self.places() {
            if self.post_p(p).len() > 1 {
                for &t in self.post_p(p) {
                    if self.pre_t(t).len() != 1 {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// State-machine check: every transition has exactly one input and one
    /// output place.
    pub fn is_state_machine(&self) -> bool {
        self.transitions()
            .all(|t| self.pre_t(t).len() == 1 && self.post_t(t).len() == 1)
    }

    /// Marked-graph check: every place has exactly one input and one output
    /// transition (no choice, no merge).
    pub fn is_marked_graph(&self) -> bool {
        self.places()
            .all(|p| self.pre_p(p).len() == 1 && self.post_p(p).len() == 1)
    }

    /// Choice places: places with more than one output transition.
    pub fn choice_places(&self) -> Vec<PlaceId> {
        self.places()
            .filter(|&p| self.post_p(p).len() > 1)
            .collect()
    }

    /// Removes duplicate places (identical preset, postset and initial
    /// marking) — the cheapest class of redundant places (§II-B assumes
    /// irredundant nets). Returns the surviving net and, for bookkeeping,
    /// the names of removed places.
    pub fn remove_duplicate_places(&self) -> (PetriNet, Vec<String>) {
        use std::collections::HashMap;
        let mut seen: HashMap<(Vec<TransId>, Vec<TransId>, bool), PlaceId> = HashMap::new();
        let mut keep: Vec<PlaceId> = Vec::new();
        let mut removed = Vec::new();
        for p in self.places() {
            let key = (
                self.pre_p(p).to_vec(),
                self.post_p(p).to_vec(),
                self.initial.get(p.index()),
            );
            if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(key) {
                e.insert(p);
                keep.push(p);
            } else {
                removed.push(self.place_name(p).to_string());
            }
        }
        if removed.is_empty() {
            return (self.clone(), removed);
        }
        let mut b = PetriNet::builder();
        let mut map = vec![None; self.place_count()];
        for &p in &keep {
            map[p.index()] = Some(b.add_place(self.place_name(p), self.initial.get(p.index())));
        }
        for t in self.transitions() {
            let nt = b.add_transition(self.transition_name(t));
            for p in self.pre_t(t) {
                if let Some(np) = map[p.index()] {
                    b.arc_pt(np, nt);
                }
            }
            for p in self.post_t(t) {
                if let Some(np) = map[p.index()] {
                    b.arc_tp(nt, np);
                }
            }
        }
        (b.build(), removed)
    }

    /// Builds the [`FiringView`] of this net: the per-transition masks
    /// flattened into contiguous word arrays.
    pub fn firing_view(&self) -> FiringView {
        let nt = self.transition_count();
        let nw = self.initial.as_words().len();
        let mut pre = vec![0u64; nt * nw];
        let mut post = vec![0u64; nt * nw];
        let mut gain = vec![0u64; nt * nw];
        for t in self.transitions() {
            let o = t.index() * nw;
            pre[o..o + nw].copy_from_slice(self.pre_t_mask[t.index()].as_words());
            post[o..o + nw].copy_from_slice(self.post_t_mask[t.index()].as_words());
            gain[o..o + nw].copy_from_slice(self.gain_mask[t.index()].as_words());
        }
        FiringView {
            nw,
            nt,
            np: self.place_count(),
            pre,
            post,
            gain,
        }
    }

    /// Renders the net in a human-readable adjacency form (debugging aid).
    pub fn to_debug_string(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for t in self.transitions() {
            let pre: Vec<&str> = self.pre_t(t).iter().map(|&p| self.place_name(p)).collect();
            let post: Vec<&str> = self.post_t(t).iter().map(|&p| self.place_name(p)).collect();
            let _ = writeln!(
                s,
                "{} : {{{}}} -> {{{}}}",
                self.transition_name(t),
                pre.join(","),
                post.join(",")
            );
        }
        let marked: Vec<&str> = self
            .initial
            .iter_ones()
            .map(|i| self.place_names[i].as_str())
            .collect();
        let _ = writeln!(s, "m0 = {{{}}}", marked.join(","));
        s
    }
}

/// A snapshot of a net's firing rule, flattened for the exploration hot
/// loops.
///
/// The per-transition preset / postset / gain masks are stored as three
/// contiguous `u64` arrays (`transition_count × words` each), so an enable
/// scan streams straight through memory with no per-transition heap pointer
/// to chase. Markings are handled as raw `&[u64]` word slices (the
/// representation behind [`Marking::as_words`]).
#[derive(Clone, Debug)]
pub struct FiringView {
    nw: usize,
    nt: usize,
    np: usize,
    /// `•t` masks, transition-major: `pre[t*nw .. (t+1)*nw]`.
    pre: Vec<u64>,
    /// `t•` masks, same layout.
    post: Vec<u64>,
    /// `t• \ •t` masks, same layout.
    gain: Vec<u64>,
}

impl FiringView {
    /// Words per marking.
    pub fn words(&self) -> usize {
        self.nw
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.nt
    }

    /// Number of places (the marking width in bits).
    pub fn place_count(&self) -> usize {
        self.np
    }

    /// The `•t` mask words of transition `t`.
    #[inline]
    pub fn pre(&self, t: usize) -> &[u64] {
        &self.pre[t * self.nw..(t + 1) * self.nw]
    }

    /// The `t•` mask words of transition `t`.
    #[inline]
    pub fn post(&self, t: usize) -> &[u64] {
        &self.post[t * self.nw..(t + 1) * self.nw]
    }

    /// The `t• \ •t` mask words of transition `t`.
    #[inline]
    pub fn gain(&self, t: usize) -> &[u64] {
        &self.gain[t * self.nw..(t + 1) * self.nw]
    }

    /// Is `t` enabled at marking `m` (`•t ⊆ m`, word-parallel)?
    #[inline]
    pub fn is_enabled(&self, m: &[u64], t: usize) -> bool {
        self.pre(t).iter().zip(m).all(|(p, w)| p & !w == 0)
    }

    /// Would firing `t` at `m` put a second token on a place
    /// (`m ∩ (t• \ •t) ≠ ∅`)? Only meaningful when `t` is enabled.
    #[inline]
    pub fn violates_safeness(&self, m: &[u64], t: usize) -> bool {
        self.gain(t).iter().zip(m).any(|(g, w)| g & w != 0)
    }

    /// The firing rule `(m \ •t) ∪ t•`, written into `out`.
    #[inline]
    pub fn fire_into(&self, m: &[u64], t: usize, out: &mut [u64]) {
        let pre = self.pre(t);
        let post = self.post(t);
        for w in 0..self.nw {
            out[w] = (m[w] & !pre[w]) | post[w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-place, 2-transition ring: p0 -> t0 -> p1 -> t1 -> p0.
    fn ring() -> PetriNet {
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", false);
        let t0 = b.add_transition("t0");
        let t1 = b.add_transition("t1");
        b.arc_pt(p0, t0);
        b.arc_tp(t0, p1);
        b.arc_pt(p1, t1);
        b.arc_tp(t1, p0);
        b.build()
    }

    #[test]
    fn build_and_query() {
        let n = ring();
        assert_eq!(n.place_count(), 2);
        assert_eq!(n.transition_count(), 2);
        assert_eq!(n.place_by_name("p1"), Some(PlaceId(1)));
        assert_eq!(n.transition_by_name("t0"), Some(TransId(0)));
        assert_eq!(n.pre_t(TransId(0)), &[PlaceId(0)]);
        assert_eq!(n.post_t(TransId(0)), &[PlaceId(1)]);
        assert_eq!(n.pre_p(PlaceId(0)), &[TransId(1)]);
        assert_eq!(n.post_p(PlaceId(0)), &[TransId(0)]);
    }

    #[test]
    fn firing_rule() {
        let n = ring();
        let m0 = n.initial_marking();
        assert!(n.is_enabled(&m0, TransId(0)));
        assert!(!n.is_enabled(&m0, TransId(1)));
        let m1 = n.fire(&m0, TransId(0));
        assert!(m1.get(1) && !m1.get(0));
        let m2 = n.fire(&m1, TransId(1));
        assert_eq!(m2, m0);
        assert_eq!(n.enabled_transitions(&m0), vec![TransId(0)]);
    }

    #[test]
    #[should_panic(expected = "disabled")]
    fn firing_disabled_panics() {
        let n = ring();
        let _ = n.fire(&n.initial_marking(), TransId(1));
    }

    #[test]
    fn class_checks() {
        let n = ring();
        assert!(n.is_free_choice());
        assert!(n.is_state_machine());
        assert!(n.is_marked_graph());

        // Add a choice: p0 -> {t0, t2} with singleton presets => still FC.
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", false);
        let t0 = b.add_transition("t0");
        let t2 = b.add_transition("t2");
        b.arc_pt(p0, t0);
        b.arc_pt(p0, t2);
        b.arc_tp(t0, p1);
        b.arc_tp(t2, p1);
        let n = b.build();
        assert!(n.is_free_choice());
        assert!(!n.is_marked_graph());
        assert_eq!(n.choice_places(), vec![PlaceId(0)]);

        // Non-free-choice: p0 -> {t0, t2}, and t0 also needs p1.
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", true);
        let t0 = b.add_transition("t0");
        let t2 = b.add_transition("t2");
        b.arc_pt(p0, t0);
        b.arc_pt(p0, t2);
        b.arc_pt(p1, t0);
        let n = b.build();
        assert!(!n.is_free_choice());
    }

    #[test]
    fn duplicate_place_removal() {
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p0b = b.add_place("p0_dup", true);
        let p1 = b.add_place("p1", false);
        let t0 = b.add_transition("t0");
        let t1 = b.add_transition("t1");
        for p in [p0, p0b] {
            b.arc_pt(p, t0);
            b.arc_tp(t1, p);
        }
        b.arc_tp(t0, p1);
        b.arc_pt(p1, t1);
        let n = b.build();
        let (reduced, removed) = n.remove_duplicate_places();
        assert_eq!(removed, vec!["p0_dup".to_string()]);
        assert_eq!(reduced.place_count(), 2);
        assert!(reduced.is_enabled(&reduced.initial_marking(), TransId(0)));
    }

    #[test]
    fn masks_match_adjacency_lists() {
        let n = ring();
        for t in n.transitions() {
            assert_eq!(
                n.pre_mask(t).iter_ones().collect::<Vec<_>>(),
                n.pre_t(t).iter().map(|p| p.index()).collect::<Vec<_>>()
            );
            assert_eq!(
                n.post_mask(t).iter_ones().collect::<Vec<_>>(),
                n.post_t(t).iter().map(|p| p.index()).collect::<Vec<_>>()
            );
        }
        // gain of t0 = {p1} (p1 ∉ •t0)
        assert_eq!(
            n.gain_mask(TransId(0)).iter_ones().collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn fire_into_matches_fire_and_naive() {
        let n = ring();
        let m0 = n.initial_marking();
        let mut out = m0.clone();
        n.fire_into(&m0, TransId(0), &mut out);
        assert_eq!(out, n.fire(&m0, TransId(0)));
        assert_eq!(out, n.fire_naive(&m0, TransId(0)));
        assert_eq!(
            n.is_enabled(&m0, TransId(1)),
            n.is_enabled_naive(&m0, TransId(1))
        );
    }

    #[test]
    fn safeness_mask_detects_duplicate_token() {
        // t puts a token on p1 while p1 can already be marked.
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", true);
        let t = b.add_transition("t");
        b.arc_pt(p0, t);
        b.arc_tp(t, p1);
        let n = b.build();
        assert!(n.violates_safeness(&n.initial_marking(), TransId(0)));
        // Self-loop on p1 does not violate safeness.
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", true);
        let t = b.add_transition("t");
        b.arc_pt(p0, t);
        b.arc_pt(p1, t);
        b.arc_tp(t, p1);
        let n = b.build();
        assert!(!n.violates_safeness(&n.initial_marking(), TransId(0)));
    }

    #[test]
    fn firing_view_matches_marking_api() {
        let n = ring();
        let view = n.firing_view();
        assert_eq!(view.words(), 1);
        assert_eq!(view.transition_count(), 2);
        assert_eq!(view.place_count(), 2);
        let m0 = n.initial_marking();
        let mut out = vec![0u64; view.words()];
        for t in n.transitions() {
            assert_eq!(
                view.is_enabled(m0.as_words(), t.index()),
                n.is_enabled(&m0, t)
            );
            assert_eq!(
                view.violates_safeness(m0.as_words(), t.index()),
                n.violates_safeness(&m0, t)
            );
            if n.is_enabled(&m0, t) {
                view.fire_into(m0.as_words(), t.index(), &mut out);
                assert_eq!(&out, n.fire(&m0, t).as_words());
            }
        }
    }

    #[test]
    fn debug_string_mentions_everything() {
        let s = ring().to_debug_string();
        assert!(s.contains("t0") && s.contains("p1") && s.contains("m0"));
    }
}
