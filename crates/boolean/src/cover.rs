//! Covers: sums of cubes (two-level SOP forms).
//!
//! A [`Cover`] is a set of [`Cube`]s over a common variable set. Covers are
//! the representation of signal-region approximations and of set/reset
//! excitation functions throughout the synthesis flow.

use crate::bits::Bits;
use crate::cube::Cube;
use std::fmt;

/// A sum of cubes over a fixed variable set.
///
/// # Examples
///
/// ```
/// use si_boolean::{Cover, Cube};
///
/// let f = Cover::from_cubes(3, vec!["10-".parse()?, "-01".parse()?]);
/// assert!(f.covers_cube(&"101".parse()?));
/// assert!(!f.is_tautology());
/// # Ok::<(), si_boolean::ParseCubeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cover {
    width: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant 0).
    pub fn empty(width: usize) -> Self {
        Cover {
            width,
            cubes: Vec::new(),
        }
    }

    /// The universal cover (constant 1): one full cube.
    pub fn universe(width: usize) -> Self {
        Cover {
            width,
            cubes: vec![Cube::full(width)],
        }
    }

    /// Builds a cover from cubes.
    ///
    /// # Panics
    ///
    /// Panics if any cube has a different width.
    pub fn from_cubes<I: IntoIterator<Item = Cube>>(width: usize, cubes: I) -> Self {
        let cubes: Vec<Cube> = cubes.into_iter().collect();
        for c in &cubes {
            assert_eq!(c.width(), width, "cube width mismatch");
        }
        Cover { width, cubes }
    }

    /// Builds a single-cube cover.
    pub fn from_cube(cube: Cube) -> Self {
        Cover {
            width: cube.width(),
            cubes: vec![cube],
        }
    }

    /// Number of variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literals over all cubes (the SIS area measure).
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Returns `true` if the cover has no cubes (constant 0).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Adds a cube.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.width(), self.width, "cube width mismatch");
        self.cubes.push(cube);
    }

    /// Iterates over the cubes.
    pub fn iter(&self) -> std::slice::Iter<'_, Cube> {
        self.cubes.iter()
    }

    /// Tests whether a complete assignment is covered.
    pub fn contains_vertex(&self, v: &Bits) -> bool {
        self.cubes.iter().any(|c| c.contains_vertex(v))
    }

    /// [`Cover::contains_vertex`] on the raw words of an assignment
    /// ([`Cube::contains_words`]).
    #[inline]
    pub fn contains_words(&self, words: &[u64]) -> bool {
        self.cubes.iter().any(|c| c.contains_words(words))
    }

    /// Returns `true` iff some cube of the cover intersects `cube`.
    pub fn intersects_cube(&self, cube: &Cube) -> bool {
        self.cubes.iter().any(|c| c.intersects(cube))
    }

    /// Returns `true` iff the two covers share at least one vertex.
    pub fn intersects(&self, other: &Cover) -> bool {
        self.cubes.iter().any(|c| other.intersects_cube(c))
    }

    /// The intersection with a cube, as a cover.
    pub fn and_cube(&self, cube: &Cube) -> Cover {
        Cover {
            width: self.width,
            cubes: self.cubes.iter().filter_map(|c| c.and(cube)).collect(),
        }
    }

    /// Product of two covers (may grow quadratically).
    pub fn and(&self, other: &Cover) -> Cover {
        let mut out = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.and(b) {
                    out.push(c);
                }
            }
        }
        let mut r = Cover {
            width: self.width,
            cubes: out,
        };
        r.remove_single_cube_contained();
        r
    }

    /// Union of two covers: [`Cover::union`] of the pair.
    pub fn or(&self, other: &Cover) -> Cover {
        Cover::union(self.width, [self, other])
    }

    /// Union of any number of covers over `width` variables: their cubes
    /// concatenated in order, cleaned once by
    /// [`Cover::remove_single_cube_contained`].
    ///
    /// The result equals folding [`Cover::or`] from `Cover::empty(width)`,
    /// cube for cube and in order. The clean-up is a stable sort by
    /// literal count that drops every cube an earlier cube contains, and a
    /// cube an earlier clean-up dropped is contained in one it kept, so
    /// cleaning after every step drops exactly the cubes that cleaning
    /// once drops.
    ///
    /// # Panics
    ///
    /// Panics if a cover has a different width.
    pub fn union<C: std::borrow::Borrow<Cover>>(
        width: usize,
        covers: impl IntoIterator<Item = C>,
    ) -> Cover {
        let mut cubes = Vec::new();
        for cover in covers {
            let cover = cover.borrow();
            assert_eq!(cover.width, width, "cover width mismatch");
            cubes.extend_from_slice(&cover.cubes);
        }
        let mut r = Cover { width, cubes };
        r.remove_single_cube_contained();
        r
    }

    /// Removes cubes contained in a single other cube (cheap cleanup).
    pub fn remove_single_cube_contained(&mut self) {
        let mut keep: Vec<Cube> = Vec::with_capacity(self.cubes.len());
        // Larger cubes first so they absorb smaller ones.
        let mut sorted = std::mem::take(&mut self.cubes);
        sorted.sort_by_key(Cube::literal_count);
        'next: for c in sorted {
            for k in &keep {
                if k.contains_cube(&c) {
                    continue 'next;
                }
            }
            keep.push(c);
        }
        self.cubes = keep;
    }

    /// Tautology check: does the cover contain every vertex?
    ///
    /// Recursive Shannon expansion with standard shortcuts, run by the
    /// containment kernel (see [`Cover::covers_cube`]).
    pub fn is_tautology(&self) -> bool {
        let answer = self.cubes.iter().any(Cube::is_full)
            || (!self.cubes.is_empty()
                && kernel::tautology(self.width, |words| {
                    for c in &self.cubes {
                        words.extend_from_slice(c.care().as_words());
                        words.extend_from_slice(c.val().as_words());
                    }
                }));
        #[cfg(debug_assertions)]
        lockstep::check(answer, || self.cubes.clone(), self.width);
        answer
    }

    /// Functional containment of a cube: every vertex of `cube` is covered.
    ///
    /// Uses the standard reduction: `c ⊆ F` iff the cofactor `F|c` is a
    /// tautology. A full cofactor answers `true` and an empty one `false`
    /// before the kernel runs; otherwise the kernel tests the cofactor
    /// over flat words in a per-thread scratch buffer, so once that buffer
    /// has grown the test allocates nothing.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        let answer = self.cofactor_is_tautology(cube);
        #[cfg(debug_assertions)]
        lockstep::check(
            answer,
            || self.cubes.iter().filter_map(|c| c.cofactor(cube)).collect(),
            self.width,
        );
        answer
    }

    /// The body of [`Cover::covers_cube`].
    fn cofactor_is_tautology(&self, cube: &Cube) -> bool {
        let mut any = false;
        for c in &self.cubes {
            if c.intersects(cube) {
                if c.care().is_subset(cube.care()) {
                    return true;
                }
                any = true;
            }
        }
        any && kernel::tautology(self.width, |words| {
            let free = cube.care().as_words();
            for c in self.cubes.iter().filter(|c| c.intersects(cube)) {
                let care = c.care().as_words().iter().zip(free);
                words.extend(care.map(|(&a, &b)| a & !b));
                let val = c.val().as_words().iter().zip(free);
                words.extend(val.map(|(&a, &b)| a & !b));
            }
        })
    }

    /// Functional containment of a cover.
    pub fn covers(&self, other: &Cover) -> bool {
        other.cubes.iter().all(|c| self.covers_cube(c))
    }

    /// Semantic equivalence of two covers.
    pub fn equivalent(&self, other: &Cover) -> bool {
        self.covers(other) && other.covers(self)
    }

    /// Complement of the cover over the full Boolean space.
    pub fn complement(&self) -> Cover {
        let mut r = Cover {
            width: self.width,
            cubes: complement_rec(&self.cubes, self.width, &Cube::full(self.width)),
        };
        r.remove_single_cube_contained();
        r
    }

    /// `self \ other` (sharp) as a cover of pairwise-disjoint-from-`other` cubes.
    pub fn sharp(&self, other: &Cover) -> Cover {
        let mut pieces: Vec<Cube> = self.cubes.clone();
        for rem in &other.cubes {
            pieces = pieces.into_iter().flat_map(|c| c.sharp(rem)).collect();
        }
        let mut r = Cover {
            width: self.width,
            cubes: pieces,
        };
        r.remove_single_cube_contained();
        r
    }

    /// Number of vertices covered, as `u128` (exact, via disjoint sharp).
    ///
    /// Worst-case exponential in the number of cubes; intended for oracles
    /// and statistics on the moderate widths used in synthesis.
    pub fn vertex_count(&self) -> u128 {
        let mut disjoint: Vec<Cube> = Vec::new();
        for c in &self.cubes {
            let mut pieces = vec![c.clone()];
            for d in &disjoint {
                pieces = pieces.into_iter().flat_map(|p| p.sharp(d)).collect();
            }
            disjoint.extend(pieces);
        }
        disjoint.iter().map(Cube::vertex_count).sum()
    }

    /// Enumerates all covered vertices (small widths only).
    pub fn vertices(&self) -> Vec<Bits> {
        let mut seen = std::collections::BTreeSet::new();
        for c in &self.cubes {
            for v in c.vertices() {
                seen.insert(v);
            }
        }
        seen.into_iter().collect()
    }

    /// The supercube of all cubes (smallest single cube containing the cover).
    ///
    /// Returns `None` for an empty cover, so the caller can tell the empty
    /// function from one whose supercube is the full cube.
    pub fn supercube(&self) -> Option<Cube> {
        let mut it = self.cubes.iter();
        let first = it.next()?.clone();
        Some(it.fold(first, |acc, c| acc.supercube(c)))
    }
}

/// The containment kernel: one tautology test over flat words.
///
/// A cofactor is its cubes laid end to end in a scratch `Vec<u64>`, each
/// cube as its care words followed by its value words. A split pushes a
/// child's cubes after its parent's and truncates them on return, so once
/// the per-thread scratch has grown a test allocates nothing.
///
/// The heuristics are those of the recursive cube-list test it replaced:
/// split on the lowest literal all cubes share; otherwise branch on the
/// variable most cubes mention, the lowest one on ties, positive half
/// first. A half with a full cube is a tautology and an empty half is
/// not. The answer is a boolean, so a caller cannot tell the two apart.
mod kernel {
    use std::cell::RefCell;

    struct Scratch {
        /// The cubes of every cofactor on the recursion path.
        words: Vec<u64>,
        /// Per-variable literal counts of one branch choice, zero between
        /// uses.
        counts: Vec<u32>,
    }

    thread_local! {
        static SCRATCH: RefCell<Scratch> = const {
            RefCell::new(Scratch {
                words: Vec::new(),
                counts: Vec::new(),
            })
        };
    }

    /// Tests whether the cubes `fill` pushes — at least one, none full,
    /// each as `[care…, val…]` over `width` variables — form a tautology.
    pub(super) fn tautology(width: usize, fill: impl FnOnce(&mut Vec<u64>)) -> bool {
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.words.clear();
            fill(&mut scratch.words);
            if scratch.counts.len() < width {
                scratch.counts.resize(width, 0);
            }
            let answer = tautology_at(&mut scratch.words, &mut scratch.counts, 0, width);
            scratch.words.clear();
            answer
        })
    }

    /// The test of the cofactor stored from `start` to the end of `words`.
    fn tautology_at(words: &mut Vec<u64>, counts: &mut [u32], start: usize, width: usize) -> bool {
        let nw = width.div_ceil(64);
        let end = words.len();
        let var = common_literal(&words[start..end], nw)
            .unwrap_or_else(|| branch_var(&words[start..end], nw, counts));
        super::note_split(var);
        half(words, counts, start, width, var, true)
            && half(words, counts, start, width, var, false)
    }

    /// The lowest variable every cube has a literal on.
    fn common_literal(cubes: &[u64], nw: usize) -> Option<usize> {
        (0..nw).find_map(|w| {
            let common = cubes.chunks_exact(2 * nw).fold(!0u64, |acc, c| acc & c[w]);
            (common != 0).then(|| w * 64 + common.trailing_zeros() as usize)
        })
    }

    /// The variable with a literal in the most cubes, the lowest on ties.
    fn branch_var(cubes: &[u64], nw: usize, counts: &mut [u32]) -> usize {
        for c in cubes.chunks_exact(2 * nw) {
            for (w, &care) in c[..nw].iter().enumerate() {
                let mut bits = care;
                while bits != 0 {
                    counts[w * 64 + bits.trailing_zeros() as usize] += 1;
                    bits &= bits - 1;
                }
            }
        }
        // Scan every counted variable in ascending order, resetting its
        // count; a strictly larger count wins, so ties keep the lowest.
        let mut best = (0u32, usize::MAX);
        for w in 0..nw {
            let mut bits = cubes.chunks_exact(2 * nw).fold(0u64, |acc, c| acc | c[w]);
            while bits != 0 {
                let var = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let count = std::mem::take(&mut counts[var]);
                if count > best.0 {
                    best = (count, var);
                }
            }
        }
        best.1
    }

    /// Pushes the cofactor of the cubes from `start` by `var = polarity`
    /// after them, tests it and truncates it again.
    fn half(
        words: &mut Vec<u64>,
        counts: &mut [u32],
        start: usize,
        width: usize,
        var: usize,
        polarity: bool,
    ) -> bool {
        let nw = width.div_ceil(64);
        let stride = 2 * nw;
        let (w, bit) = (var / 64, 1u64 << (var % 64));
        let child = words.len();
        let mut full = false;
        let mut c = start;
        while c < child {
            let (care, val) = (words[c + w], words[c + nw + w]);
            if care & bit == 0 || (val & bit != 0) == polarity {
                words.extend_from_within(c..c + stride);
                let pushed = words.len() - stride;
                words[pushed + w] &= !bit;
                words[pushed + nw + w] &= !bit;
                if words[pushed..pushed + nw].iter().all(|&x| x == 0) {
                    full = true;
                    break;
                }
            }
            c += stride;
        }
        let answer = full || (words.len() > child && tautology_at(words, counts, child, width));
        words.truncate(child);
        answer
    }
}

/// Records a split of the containment kernel or its reference, so the
/// tests can compare the two split by split.
#[cfg(test)]
fn note_split(var: usize) {
    tests::SPLITS.with(|splits| splits.borrow_mut().push(var));
}

#[cfg(not(test))]
#[inline(always)]
fn note_split(_var: usize) {}

/// The recursive cube-list tautology test the kernel replaced, kept as its
/// reference (tests and builds with debug assertions only).
#[cfg(any(test, debug_assertions))]
mod reference {
    use super::{note_split, select_branch_var};
    use crate::cube::Cube;

    /// Recursive tautology check on a cube list.
    pub(super) fn tautology_rec(cubes: &[Cube], width: usize) -> bool {
        // Shortcut: any full cube (within the remaining space) is a tautology.
        if cubes.iter().any(Cube::is_full) {
            return true;
        }
        if cubes.is_empty() {
            return false;
        }
        // Quick necessary condition: 2^free vertices must be coverable; cheap
        // version — if all cubes share a literal, not a tautology.
        let mut common_care = cubes[0].care().clone();
        for c in &cubes[1..] {
            common_care.intersect_with(c.care());
        }
        if let Some(var) = common_care.first_one() {
            note_split(var);
            // All cubes have a literal on `var`; tautology only if both halves
            // are covered — but every cube lies in one half, so check each half.
            let pos: Vec<Cube> = cubes
                .iter()
                .filter(|c| c.val().get(var))
                .filter_map(|c| c.cofactor(&Cube::literal(width, var, true)))
                .collect();
            let neg: Vec<Cube> = cubes
                .iter()
                .filter(|c| !c.val().get(var))
                .filter_map(|c| c.cofactor(&Cube::literal(width, var, false)))
                .collect();
            return tautology_rec(&pos, width) && tautology_rec(&neg, width);
        }
        // Select the most frequently used variable to branch on.
        let var = select_branch_var(cubes, width);
        let Some(var) = var else {
            // No cube has any literal: some cube exists and is full — handled
            // above, so this is unreachable; be safe anyway.
            return !cubes.is_empty();
        };
        note_split(var);
        let lit_t = Cube::literal(width, var, true);
        let lit_f = Cube::literal(width, var, false);
        let pos: Vec<Cube> = cubes.iter().filter_map(|c| c.cofactor(&lit_t)).collect();
        if !tautology_rec(&pos, width) {
            return false;
        }
        let neg: Vec<Cube> = cubes.iter().filter_map(|c| c.cofactor(&lit_f)).collect();
        tautology_rec(&neg, width)
    }
}

/// Lockstep checking of the containment kernel against its reference, for
/// tests in other crates (builds with debug assertions only).
#[cfg(debug_assertions)]
#[doc(hidden)]
pub mod lockstep {
    use crate::cube::Cube;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static ARMED: AtomicUsize = AtomicUsize::new(0);
    static CHECKED: AtomicUsize = AtomicUsize::new(0);

    /// While an `Armed` guard is alive, every [`crate::Cover::covers_cube`]
    /// and [`crate::Cover::is_tautology`] in the process also runs the
    /// reference and asserts the same answer.
    #[must_use = "the check is armed while the guard is alive"]
    #[derive(Debug)]
    pub struct Armed(());

    /// Arms the check until the guard drops.
    pub fn arm() -> Armed {
        ARMED.fetch_add(1, Ordering::Relaxed);
        Armed(())
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            ARMED.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The number of answers checked so far in this process.
    pub fn checked() -> usize {
        CHECKED.load(Ordering::Relaxed)
    }

    pub(super) fn check(answer: bool, cubes: impl FnOnce() -> Vec<Cube>, width: usize) {
        if ARMED.load(Ordering::Relaxed) == 0 {
            return;
        }
        let cubes = cubes();
        assert_eq!(
            answer,
            super::reference::tautology_rec(&cubes, width),
            "kernel and reference disagree on {cubes:?}"
        );
        CHECKED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Recursive complement; returns cubes covering `space \ cubes` where the
/// recursion is restricted to the subspace cube `space`.
fn complement_rec(cubes: &[Cube], width: usize, space: &Cube) -> Vec<Cube> {
    if cubes.iter().any(Cube::is_full) {
        return Vec::new();
    }
    if cubes.is_empty() {
        return vec![space.clone()];
    }
    if cubes.len() == 1 {
        // Complement of one cube within `space`. The recursion keeps the
        // invariant that `cubes` never conflicts with `space` (cofactoring
        // removed those), so sharp directly yields `space \ cube`.
        return space.sharp(&cubes[0]);
    }
    let var = match select_branch_var(cubes, width) {
        Some(v) => v,
        None => return Vec::new(),
    };
    let lit_t = Cube::literal(width, var, true);
    let lit_f = Cube::literal(width, var, false);
    let pos: Vec<Cube> = cubes.iter().filter_map(|c| c.cofactor(&lit_t)).collect();
    let neg: Vec<Cube> = cubes.iter().filter_map(|c| c.cofactor(&lit_f)).collect();
    let mut space_t = space.clone();
    space_t.set(var, Some(true));
    let mut space_f = space.clone();
    space_f.set(var, Some(false));
    let mut out = complement_rec(&pos, width, &space_t);
    out.extend(complement_rec(&neg, width, &space_f));
    out
}

/// Picks the variable appearing in the most cubes (binate-ness heuristic).
fn select_branch_var(cubes: &[Cube], width: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (count, var)
    for var in 0..width {
        let count = cubes.iter().filter(|c| c.care().get(var)).count();
        if count > 0 && best.is_none_or(|(bc, _)| count > bc) {
            best = Some((count, var));
        }
    }
    best.map(|(_, v)| v)
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cover{{")?;
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl FromIterator<Cube> for Cover {
    /// Collects cubes into a cover.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty (the width cannot be inferred) or the
    /// cube widths are inconsistent. Use [`Cover::from_cubes`] when the
    /// iterator may be empty.
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        let cubes: Vec<Cube> = iter.into_iter().collect();
        let width = cubes
            .first()
            .expect("cannot infer width of empty cover; use Cover::from_cubes")
            .width();
        Cover::from_cubes(width, cubes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn cover(w: usize, cs: &[&str]) -> Cover {
        Cover::from_cubes(w, cs.iter().map(|s| s.parse().unwrap()))
    }

    thread_local! {
        /// The split variables of the kernel or reference runs since the
        /// last [`take_splits`], in order.
        pub(super) static SPLITS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    fn take_splits() -> Vec<usize> {
        SPLITS.with(|splits| std::mem::take(&mut *splits.borrow_mut()))
    }

    /// Asserts that the kernel and the reference give the same answer
    /// after the same splits, and returns the answer.
    fn same(what: &str, kernel: impl FnOnce() -> bool, reference: impl FnOnce() -> bool) -> bool {
        take_splits();
        let got = kernel();
        let got_splits = take_splits();
        let want = reference();
        assert_eq!(got, want, "{what}");
        assert_eq!(got_splits, take_splits(), "{what}: splits");
        got
    }

    #[test]
    fn kernel_agrees_with_the_reference_split_by_split() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut tautologies, mut contained) = ([0usize; 2], [0usize; 2]);
        for width in 1..=200usize {
            for _ in 0..6 {
                // A few variables spread over the width, so the cubes meet
                // often and their literals straddle word boundaries.
                let pool: Vec<usize> = (0..1 + next(8)).map(|_| next(width)).collect();
                let random_cube = |literals: usize, next: &mut dyn FnMut(usize) -> usize| {
                    let mut c = Cube::full(width);
                    for _ in 0..literals {
                        c.set(pool[next(pool.len())], Some(next(2) == 1));
                    }
                    c
                };
                let n = 1 + next(10);
                let f = Cover::from_cubes(
                    width,
                    (0..n).map(|_| {
                        let literals = 1 + next(4);
                        random_cube(literals, &mut next)
                    }),
                );
                // The cover with its complement is a tautology; dropping one
                // of its cubes usually breaks that.
                let mut whole = f.or(&f.complement());
                let mut cut = whole.clone();
                cut.cubes.remove(next(cut.cubes.len()));
                whole.cubes.reverse();
                for g in [&f, &whole, &cut] {
                    let what = format!("width {width}: {g}");
                    let t = same(
                        &what,
                        || g.is_tautology(),
                        || reference::tautology_rec(&g.cubes, width),
                    );
                    tautologies[usize::from(t)] += 1;
                    let literals = next(pool.len() + 1);
                    let c = random_cube(literals, &mut next);
                    let what = format!("{what} covers {c}");
                    let cofactors: Vec<Cube> =
                        g.cubes.iter().filter_map(|d| d.cofactor(&c)).collect();
                    let covered = same(
                        &what,
                        || g.covers_cube(&c),
                        || reference::tautology_rec(&cofactors, width),
                    );
                    contained[usize::from(covered)] += 1;
                }
            }
        }
        assert!(tautologies.iter().all(|&n| n > 1000), "{tautologies:?}");
        assert!(contained.iter().all(|&n| n > 1000), "{contained:?}");
    }

    #[test]
    fn tautology_basic() {
        assert!(Cover::universe(3).is_tautology());
        assert!(!Cover::empty(3).is_tautology());
        assert!(cover(1, &["0", "1"]).is_tautology());
        assert!(cover(2, &["1-", "01", "00"]).is_tautology());
        assert!(!cover(2, &["1-", "01"]).is_tautology());
        // xor-ish split
        assert!(cover(3, &["1--", "-1-", "00-"]).is_tautology());
    }

    #[test]
    fn covers_cube_functional() {
        let f = cover(3, &["11-", "10-"]);
        // f == (1--) semantically
        assert!(f.covers_cube(&"1--".parse().unwrap()));
        assert!(!f.covers_cube(&"---".parse().unwrap()));
        assert!(f.covers_cube(&"101".parse().unwrap()));
    }

    #[test]
    fn equivalence() {
        let a = cover(3, &["11-", "10-"]);
        let b = cover(3, &["1--"]);
        assert!(a.equivalent(&b));
        assert!(!a.equivalent(&cover(3, &["-1-"])));
    }

    #[test]
    fn complement_roundtrip() {
        let f = cover(3, &["1-0", "01-"]);
        let g = f.complement();
        assert!(!f.intersects(&g));
        assert!(f.or(&g).is_tautology());
        assert_eq!(f.vertex_count() + g.vertex_count(), 8);
        // complement of universe is empty, and vice versa
        assert!(Cover::universe(4).complement().is_empty());
        assert!(Cover::empty(4).complement().is_tautology());
    }

    #[test]
    fn sharp_cover() {
        let f = Cover::universe(3);
        let g = cover(3, &["1--"]);
        let d = f.sharp(&g);
        assert!(d.equivalent(&cover(3, &["0--"])));
        assert_eq!(d.vertex_count(), 4);
    }

    #[test]
    fn and_or() {
        let a = cover(2, &["1-"]);
        let b = cover(2, &["-1"]);
        assert!(a.and(&b).equivalent(&cover(2, &["11"])));
        assert!(a.or(&b).covers_cube(&"11".parse().unwrap()));
        assert_eq!(a.and(&cover(2, &["0-"])).cube_count(), 0);
    }

    #[test]
    fn single_cube_containment_cleanup() {
        let mut f = cover(3, &["1--", "10-", "101"]);
        f.remove_single_cube_contained();
        assert_eq!(f.cube_count(), 1);
        assert_eq!(f.cubes()[0], "1--".parse().unwrap());
    }

    #[test]
    fn vertex_count_overlapping() {
        let f = cover(3, &["1--", "--1"]);
        // |1--| = 4, |--1| = 4, overlap |1-1| = 2 => 6
        assert_eq!(f.vertex_count(), 6);
        assert_eq!(f.vertices().len(), 6);
    }

    #[test]
    fn supercube() {
        let f = cover(3, &["101", "100"]);
        assert_eq!(f.supercube().unwrap(), "10-".parse().unwrap());
        assert!(Cover::empty(3).supercube().is_none());
    }

    #[test]
    fn contains_vertex() {
        let f = cover(3, &["1-0"]);
        assert!(f.contains_vertex(&Bits::from_ones(3, [0])));
        assert!(!f.contains_vertex(&Bits::from_ones(3, [2])));
    }

    #[test]
    fn contains_words_agrees_with_contains_vertex() {
        // Two words: literals on both sides of the word boundary.
        let w = 70;
        let mut a = Cube::literal(w, 3, true);
        a.set(66, Some(false));
        let f = Cover::from_cubes(w, [a, Cube::literal(w, 64, true)]);
        for ones in [
            vec![],
            vec![3],
            vec![3, 66],
            vec![64],
            vec![3, 64, 66],
            vec![69],
        ] {
            let v = Bits::from_ones(w, ones);
            assert_eq!(f.contains_words(v.as_words()), f.contains_vertex(&v), "{v}");
            for c in f.cubes() {
                assert_eq!(c.contains_words(v.as_words()), c.contains_vertex(&v), "{v}");
            }
        }
        assert!(!Cover::empty(w).contains_words(Bits::ones(w).as_words()));
    }

    #[test]
    fn display() {
        assert_eq!(Cover::empty(2).to_string(), "0");
        assert_eq!(cover(2, &["1-", "01"]).to_string(), "1- + 01");
    }
}
