//! Three-valued cubes.
//!
//! A cube over `n` Boolean variables assigns each variable one of `0`, `1`
//! or `-` (absent / don't care). Cubes are the positional-notation implicants
//! of §II-A of the paper: value `0` denotes a complemented literal, `1` a
//! plain literal, `-` that the variable does not appear.

use crate::bits::Bits;
use std::fmt;

/// The value a cube assigns to one variable.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CubeVal {
    /// Complemented literal (`x'`).
    Zero,
    /// Plain literal (`x`).
    One,
    /// Variable absent from the cube.
    DontCare,
}

impl fmt::Display for CubeVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CubeVal::Zero => write!(f, "0"),
            CubeVal::One => write!(f, "1"),
            CubeVal::DontCare => write!(f, "-"),
        }
    }
}

/// A cube (product term) over a fixed set of Boolean variables.
///
/// Internally two bit vectors: `care` marks variables that appear as a
/// literal, `val` holds their polarity (`val` is zero wherever `care` is
/// zero, so derived `Eq`/`Hash` are sound).
///
/// # Examples
///
/// ```
/// use si_boolean::Cube;
///
/// let c: Cube = "1-0".parse()?;
/// assert_eq!(c.literal_count(), 2);
/// assert!(c.contains_vertex(&"100".parse::<Cube>()?.to_vertex().unwrap()));
/// # Ok::<(), si_boolean::ParseCubeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    care: Bits,
    val: Bits,
}

/// Error returned when parsing a cube from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCubeError {
    offending: char,
}

impl fmt::Display for ParseCubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid cube character {:?} (expected '0', '1' or '-')",
            self.offending
        )
    }
}

impl std::error::Error for ParseCubeError {}

impl Cube {
    /// The full cube (`---…-`): every variable absent, covers everything.
    pub fn full(width: usize) -> Self {
        Cube {
            care: Bits::zeros(width),
            val: Bits::zeros(width),
        }
    }

    /// A cube fixing exactly one variable.
    ///
    /// # Panics
    ///
    /// Panics if `var >= width`.
    pub fn literal(width: usize, var: usize, polarity: bool) -> Self {
        let mut c = Cube::full(width);
        c.set(var, Some(polarity));
        c
    }

    /// The minterm cube of a complete assignment.
    pub fn from_vertex(v: &Bits) -> Self {
        Cube {
            care: Bits::ones(v.len()),
            val: v.clone(),
        }
    }

    /// Builds a cube from `(care, val)` bit vectors.
    ///
    /// Bits of `val` outside `care` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn from_bits(care: Bits, mut val: Bits) -> Self {
        assert_eq!(care.len(), val.len(), "care/val width mismatch");
        val.intersect_with(&care);
        Cube { care, val }
    }

    /// Number of variables the cube is defined over.
    pub fn width(&self) -> usize {
        self.care.len()
    }

    /// The value assigned to variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    pub fn get(&self, i: usize) -> CubeVal {
        if !self.care.get(i) {
            CubeVal::DontCare
        } else if self.val.get(i) {
            CubeVal::One
        } else {
            CubeVal::Zero
        }
    }

    /// Sets variable `i` to a literal (`Some(polarity)`) or removes it (`None`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    pub fn set(&mut self, i: usize, v: Option<bool>) {
        match v {
            Some(p) => {
                self.care.set(i, true);
                self.val.set(i, p);
            }
            None => {
                self.care.set(i, false);
                self.val.set(i, false);
            }
        }
    }

    /// Number of literals (non-don't-care positions).
    pub fn literal_count(&self) -> usize {
        self.care.count_ones()
    }

    /// Returns `true` if the cube is the full cube.
    pub fn is_full(&self) -> bool {
        self.care.is_zero()
    }

    /// Returns `true` if the cube is a single vertex (minterm).
    pub fn is_vertex(&self) -> bool {
        self.literal_count() == self.width()
    }

    /// The vertex if the cube is a minterm, else `None`.
    pub fn to_vertex(&self) -> Option<Bits> {
        self.is_vertex().then(|| self.val.clone())
    }

    /// The `care` mask (set where a literal appears).
    pub fn care(&self) -> &Bits {
        &self.care
    }

    /// The polarity vector (zero outside `care`).
    pub fn val(&self) -> &Bits {
        &self.val
    }

    /// Tests whether a complete assignment lies inside the cube.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn contains_vertex(&self, v: &Bits) -> bool {
        assert_width(self.width(), v.len());
        // v agrees with val on all care positions: (v ^ val) & care == 0
        self.care
            .as_words()
            .iter()
            .zip(self.val.as_words())
            .zip(v.as_words())
            .all(|((&care, &val), &x)| (x ^ val) & care == 0)
    }

    /// Cube containment: `true` iff every vertex of `other` is in `self`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn contains_cube(&self, other: &Cube) -> bool {
        // Every literal of `self` is a literal of `other`, of equal polarity.
        self.word_pairs(other)
            .all(|[ac, av, bc, bv]| ac & (!bc | (av ^ bv)) == 0)
    }

    /// Number of variables where the cubes take opposite literal values.
    ///
    /// Distance 0 means the cubes intersect; distance 1 means they are
    /// mergeable by the consensus/distance-1 rule.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn distance(&self, other: &Cube) -> usize {
        self.word_pairs(other)
            .map(|[ac, av, bc, bv]| ((av ^ bv) & ac & bc).count_ones() as usize)
            .sum()
    }

    /// Cube intersection; `None` if the cubes are disjoint.
    pub fn and(&self, other: &Cube) -> Option<Cube> {
        if !self.intersects(other) {
            return None;
        }
        Some(Cube {
            care: self.care.union(&other.care),
            val: self.val.union(&other.val),
        })
    }

    /// Returns `true` iff the cubes share at least one vertex (distance 0).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn intersects(&self, other: &Cube) -> bool {
        self.word_pairs(other)
            .all(|[ac, av, bc, bv]| (av ^ bv) & ac & bc == 0)
    }

    /// The words of both cubes side by side, `[care, val, other.care,
    /// other.val]` per word: the allocation-free form of the pairwise
    /// tests above.
    fn word_pairs<'a>(&'a self, other: &'a Cube) -> impl Iterator<Item = [u64; 4]> + 'a {
        assert_width(self.width(), other.width());
        self.care
            .as_words()
            .iter()
            .zip(self.val.as_words())
            .zip(other.care.as_words().iter().zip(other.val.as_words()))
            .map(|((&ac, &av), (&bc, &bv))| [ac, av, bc, bv])
    }

    /// Smallest cube containing both cubes.
    pub fn supercube(&self, other: &Cube) -> Cube {
        // keep literals that appear in both with equal polarity
        let mut care = self.care.intersection(&other.care);
        let mut agree = self.val.clone();
        agree.xor_with(&other.val);
        agree.invert();
        care.intersect_with(&agree);
        let mut val = self.val.clone();
        val.intersect_with(&care);
        Cube { care, val }
    }

    /// The cofactor of this cube with respect to `wrt` (Shannon cofactor).
    ///
    /// Returns `None` when the cubes are disjoint. Otherwise the result has
    /// the literals of `wrt` removed.
    pub fn cofactor(&self, wrt: &Cube) -> Option<Cube> {
        if !self.intersects(wrt) {
            return None;
        }
        let mut care = self.care.clone();
        care.subtract(&wrt.care);
        let mut val = self.val.clone();
        val.intersect_with(&care);
        Some(Cube { care, val })
    }

    /// `self \ other` as a list of pairwise-disjoint cubes (sharp operation).
    pub fn sharp(&self, other: &Cube) -> Vec<Cube> {
        if !self.intersects(other) {
            return vec![self.clone()]; // disjoint: nothing removed
        }
        // Positions where `other` has a literal but `self` does not.
        let mut free = other.care.clone();
        free.subtract(&self.care);
        let mut result = Vec::new();
        let mut prefix = self.clone();
        for i in free.iter_ones() {
            // Split on variable i: the half opposite to `other` survives.
            let mut piece = prefix.clone();
            piece.set(i, Some(!other.val.get(i)));
            result.push(piece);
            prefix.set(i, Some(other.val.get(i)));
        }
        // `prefix` now lies entirely inside `other` and is dropped.
        result
    }

    /// Number of vertices in the cube, as `u128`.
    ///
    /// # Panics
    ///
    /// Panics if `width - literal_count >= 128`.
    pub fn vertex_count(&self) -> u128 {
        let free = self.width() - self.literal_count();
        assert!(free < 128, "cube too wide for u128 vertex count");
        1u128 << free
    }

    /// Iterates over all vertices of the cube (lexicographic in free vars).
    ///
    /// Intended for small cubes (tests, oracles); the iterator yields
    /// `2^(width - literals)` items.
    pub fn vertices(&self) -> Vertices {
        Vertices {
            cube: self.clone(),
            free: {
                let mut f = self.care.clone();
                f.invert();
                f.iter_ones().collect()
            },
            counter: 0,
            done: false,
        }
    }

    /// Renders the cube restricted to positional notation, e.g. `10-1`.
    pub fn to_positional(&self) -> String {
        (0..self.width()).map(|i| self.get(i).to_string()).collect()
    }
}

/// The width check of the word-level tests, with the message of
/// [`Bits`]' own.
fn assert_width(a: usize, b: usize) {
    assert_eq!(a, b, "width mismatch: {a} vs {b}");
}

/// Iterator over the vertices of a [`Cube`]; created by [`Cube::vertices`].
#[derive(Debug)]
pub struct Vertices {
    cube: Cube,
    free: Vec<usize>,
    counter: u64,
    done: bool,
}

impl Iterator for Vertices {
    type Item = Bits;

    fn next(&mut self) -> Option<Bits> {
        if self.done {
            return None;
        }
        let mut v = self.cube.val.clone();
        for (k, &pos) in self.free.iter().enumerate() {
            v.set(pos, (self.counter >> k) & 1 == 1);
        }
        self.counter += 1;
        if self.counter >= (1u64 << self.free.len().min(63)) {
            self.done = true;
        }
        Some(v)
    }
}

impl std::str::FromStr for Cube {
    type Err = ParseCubeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let chars: Vec<char> = s.chars().collect();
        let mut c = Cube::full(chars.len());
        for (i, ch) in chars.into_iter().enumerate() {
            match ch {
                '0' => c.set(i, Some(false)),
                '1' => c.set(i, Some(true)),
                '-' | 'x' | 'X' => {}
                other => return Err(ParseCubeError { offending: other }),
            }
        }
        Ok(c)
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({})", self.to_positional())
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_positional())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> Cube {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["---", "010", "1-0", ""] {
            assert_eq!(c(s).to_string(), s);
        }
        assert!("10z".parse::<Cube>().is_err());
    }

    #[test]
    fn full_and_literal() {
        assert!(Cube::full(5).is_full());
        let l = Cube::literal(4, 2, true);
        assert_eq!(l.to_string(), "--1-");
        assert_eq!(l.literal_count(), 1);
    }

    #[test]
    fn containment() {
        assert!(c("1--").contains_cube(&c("10-")));
        assert!(!c("10-").contains_cube(&c("1--")));
        assert!(c("---").contains_cube(&c("010")));
        assert!(c("101").contains_cube(&c("101")));
        assert!(!c("0--").contains_cube(&c("10-")));
    }

    #[test]
    fn vertex_membership() {
        let cube = c("1-0");
        assert!(cube.contains_vertex(&Bits::from_ones(3, [0])));
        assert!(cube.contains_vertex(&Bits::from_ones(3, [0, 1])));
        assert!(!cube.contains_vertex(&Bits::from_ones(3, [0, 2])));
    }

    #[test]
    fn distance_and_intersection() {
        assert_eq!(c("10-").distance(&c("11-")), 1);
        assert_eq!(c("10-").distance(&c("01-")), 2);
        assert_eq!(c("10-").distance(&c("1-1")), 0);
        assert_eq!(c("10-").and(&c("1-1")).unwrap(), c("101"));
        assert!(c("10-").and(&c("11-")).is_none());
    }

    #[test]
    fn supercube_is_smallest() {
        assert_eq!(c("101").supercube(&c("100")), c("10-"));
        assert_eq!(c("1--").supercube(&c("0--")), c("---"));
        let a = c("10-");
        let b = c("-11");
        let sc = a.supercube(&b);
        assert!(sc.contains_cube(&a) && sc.contains_cube(&b));
        assert_eq!(
            sc,
            c("1--").and(&c("---")).unwrap().supercube(&b).supercube(&a)
        );
    }

    #[test]
    fn cofactor() {
        assert_eq!(c("10-").cofactor(&c("1--")).unwrap(), c("-0-"));
        assert!(c("10-").cofactor(&c("0--")).is_none());
        assert_eq!(c("1-1").cofactor(&c("--1")).unwrap(), c("1--"));
    }

    #[test]
    fn sharp_partitions() {
        // (---) \ (1-0) = (0--) + (1-1)
        let pieces = c("---").sharp(&c("1-0"));
        assert_eq!(pieces.len(), 2);
        let total: u128 = pieces.iter().map(Cube::vertex_count).sum();
        assert_eq!(total, 8 - 2);
        // pieces are disjoint from the removed cube and from each other
        for p in &pieces {
            assert!(!p.intersects(&c("1-0")));
        }
        assert!(!pieces[0].intersects(&pieces[1]));
        // disjoint sharp returns self
        assert_eq!(c("1--").sharp(&c("0--")), vec![c("1--")]);
        // sharp of self is empty
        assert!(c("10-").sharp(&c("10-")).is_empty());
        // sharp by a larger cube is empty
        assert!(c("10-").sharp(&c("1--")).is_empty());
    }

    #[test]
    fn vertices_enumeration() {
        let vs: Vec<Bits> = c("1-0").vertices().collect();
        assert_eq!(vs.len(), 2);
        for v in &vs {
            assert!(c("1-0").contains_vertex(v));
        }
        let all: Vec<Bits> = c("--").vertices().collect();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn vertex_count() {
        assert_eq!(c("---").vertex_count(), 8);
        assert_eq!(c("101").vertex_count(), 1);
    }

    #[test]
    fn from_vertex_roundtrip() {
        let v = Bits::from_ones(4, [1, 3]);
        let cube = Cube::from_vertex(&v);
        assert!(cube.is_vertex());
        assert_eq!(cube.to_vertex().unwrap(), v);
    }

    #[test]
    fn from_bits_clears_val_outside_care() {
        let care = Bits::from_ones(3, [0]);
        let val = Bits::from_ones(3, [0, 2]);
        let cube = Cube::from_bits(care, val);
        assert_eq!(cube, c("1--"));
    }
}
