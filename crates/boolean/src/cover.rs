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
    /// Recursive Shannon expansion with standard shortcuts.
    pub fn is_tautology(&self) -> bool {
        tautology_rec(&self.cubes, self.width)
    }

    /// Functional containment of a cube: every vertex of `cube` is covered.
    ///
    /// Uses the standard reduction: `c ⊆ F` iff the cofactor `F|c` is a
    /// tautology.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        let cof: Vec<Cube> = self.cubes.iter().filter_map(|c| c.cofactor(cube)).collect();
        tautology_rec(&cof, self.width)
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

/// Recursive tautology check on a cube list.
fn tautology_rec(cubes: &[Cube], width: usize) -> bool {
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
    let lit_t = Cube::literal(width, var, true);
    let lit_f = Cube::literal(width, var, false);
    let pos: Vec<Cube> = cubes.iter().filter_map(|c| c.cofactor(&lit_t)).collect();
    if !tautology_rec(&pos, width) {
        return false;
    }
    let neg: Vec<Cube> = cubes.iter().filter_map(|c| c.cofactor(&lit_f)).collect();
    tautology_rec(&neg, width)
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

    fn cover(w: usize, cs: &[&str]) -> Cover {
        Cover::from_cubes(w, cs.iter().map(|s| s.parse().unwrap()))
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
