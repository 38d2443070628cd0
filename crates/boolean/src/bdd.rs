//! A small reduced-ordered BDD package over [`Bits`]-indexed variables.
//!
//! The exact minimizer backend ([`crate::BddMinimizer`]) represents the
//! on-set and the care freedom as BDDs, enumerates **all prime implicants**
//! with the classical recursive decomposition (Blake canonical form), and
//! solves the covering problem on top; the symbolic reachability backend
//! (`si_petri::SymbolicReach`) runs its image fixpoints on the same
//! manager. Variables keep their natural order and nodes are never freed.
//! Prime sets are kept as explicit cube lists rather than ZDDs — at
//! synthesis widths the implicit representation would cost more than it
//! saves.
//!
//! # Table layout
//!
//! The package follows Brace, Rudell and Bryant ("Efficient Implementation
//! of a BDD Package", DAC 1990): a hash-consed node arena plus one lossy
//! computed table shared by every operation.
//!
//! * **Nodes** live in one `Vec` arena; a [`BddRef`] is an arena index, and
//!   the two terminals are indices 0 and 1.
//! * **The unique table** is an open-addressed `Vec<u32>` of node indices:
//!   a power-of-two slot count, linear probing, load at most ½, and 0 (the
//!   FALSE terminal, never hashed) marking an empty slot. When it would
//!   pass half full it doubles and is rebuilt from the arena.
//! * **The computed table** is direct-mapped: one 16-byte entry per slot,
//!   keyed by (operation tag, operand, operand). A new entry overwrites
//!   whatever shared its slot. The tag names the operation and its
//!   parameter: [`Bdd::exists`] and [`Bdd::and_exists`] intern their
//!   variable set into it, [`Bdd::rename`] its map, and [`Bdd::cofactor`]
//!   its literal. Both tables start at 64 slots, so short-lived managers
//!   such as the minimizer's stay small. The computed table grows with
//!   the unique table up to a fixed ceiling of 2^16 entries (1 MiB). The
//!   ceiling is a constant, chosen by measurement on the symbolic
//!   benchmark specs: larger tables cost more in processor-cache misses
//!   and memory than their extra hits save, and smaller ones recompute
//!   too much.
//!
//! # Why a lossy table keeps node ids
//!
//! An entry is written only after its operation has run to the end, so
//! every node that operation's recursion creates exists by then. Nodes
//! are never freed, and the result of an operation is the one canonical
//! node of its function. An evicted entry therefore costs a recomputation
//! whose `mk` calls all find their nodes in the unique table. Nodes are
//! created in the same order, with the same ids, whatever the table size
//! and whatever was evicted. Node counts, fixpoint iteration counts and
//! every report built on them do not depend on the table. The unit tests
//! pin this node for node against a manager with unbounded `HashMap`
//! tables, once at the normal table sizes and once with the computed
//! table held at its smallest size.
//!
//! # Examples
//!
//! ```
//! use si_boolean::{Bdd, Cover};
//!
//! let mut bdd = Bdd::new(2);
//! // f = a·b + a·b'  ==  a
//! let f = bdd.from_cover(&Cover::from_cubes(2, vec![
//!     "11".parse()?,
//!     "10".parse()?,
//! ]));
//! assert_eq!(bdd.sat_count(f), 2);
//! let primes = bdd.primes(f, 64).unwrap();
//! assert_eq!(primes.len(), 1);
//! assert_eq!(primes[0].to_positional(), "1-");
//! # Ok::<(), si_boolean::ParseCubeError>(())
//! ```

use crate::bits::Bits;
use crate::cover::Cover;
use crate::cube::Cube;
use std::borrow::Borrow;
use std::collections::HashMap;

/// A node reference inside one [`Bdd`] manager.
pub type BddRef = u32;

/// The constant FALSE function.
pub const BDD_FALSE: BddRef = 0;
/// The constant TRUE function.
pub const BDD_TRUE: BddRef = 1;

/// Sentinel variable index of the two terminal nodes (sorts after every
/// real variable, which keeps the var-comparison logic branch-free).
const TERMINAL_VAR: u32 = u32::MAX;

/// The slot count both tables start with.
const INITIAL_SLOTS: usize = 64;

/// The most entries the computed table grows to (16 bytes each).
const CACHE_CEILING: usize = 1 << 16;

/// Computed-table operation tags. The low [`OP_BITS`] bits name the
/// operation; the bits above carry its parameter (the interned variable
/// set or rename map, or the cofactor literal). Tag 0 marks an empty
/// entry.
const OP_AND: u32 = 1;
const OP_OR: u32 = 2;
const OP_NOT: u32 = 3;
const OP_EXISTS: u32 = 4;
const OP_AND_EXISTS: u32 = 5;
const OP_RENAME: u32 = 6;
const OP_COFACTOR: u32 = 7;
const OP_BITS: u32 = 3;

#[derive(Copy, Clone, Debug)]
struct Node {
    var: u32,
    lo: BddRef,
    hi: BddRef,
}

/// One computed-table entry: `op(a, b) = r` under operation tag `tag`.
#[derive(Copy, Clone, Debug, Default)]
struct Entry {
    tag: u32,
    a: BddRef,
    b: BddRef,
    r: BddRef,
}

/// The tag bits of operation parameter `p`.
fn param(p: usize) -> u32 {
    assert!(
        p < 1 << (32 - OP_BITS),
        "operation parameter {p} overflows its tag"
    );
    (p as u32) << OP_BITS
}

/// The tag parameter of `key`, interned in `table` on first use (a
/// manager sees only a handful of distinct variable sets and maps).
fn intern<K: ToOwned + PartialEq + ?Sized>(table: &mut Vec<K::Owned>, key: &K) -> u32 {
    let id = match table.iter().position(|k| k.borrow() == key) {
        Some(id) => id,
        None => {
            table.push(key.to_owned());
            table.len() - 1
        }
    };
    param(id)
}

/// The table index of the key `(x, y, z)` in a table of `mask + 1` slots.
#[inline]
fn slot(x: u32, y: u32, z: u32, mask: usize) -> usize {
    let h = (u64::from(x) << 32 | u64::from(y)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(z).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    ((h ^ h >> 31).wrapping_mul(0x1656_67B1_9E37_79F9) >> 32) as usize & mask
}

/// A reduced-ordered BDD manager with hash-consed nodes and one computed
/// table for every operation (see the module docs for the layout).
/// Variables are `0..width` in natural order.
#[derive(Debug)]
pub struct Bdd {
    width: usize,
    nodes: Vec<Node>,
    /// Open-addressed unique table of node indices; 0 is an empty slot.
    unique: Vec<BddRef>,
    /// Direct-mapped computed table.
    cache: Vec<Entry>,
    /// The most entries `cache` grows to: [`CACHE_CEILING`], or the
    /// initial size for the eviction tests.
    cache_ceiling: usize,
    /// Interned quantification sets and rename maps, by tag parameter.
    var_sets: Vec<Bits>,
    maps: Vec<Vec<u32>>,
    /// Computed-table hits/misses (plain counters: every op takes
    /// `&mut self`, so no atomics are needed).
    cache_hits: u64,
    cache_misses: u64,
}

impl Bdd {
    /// A fresh manager for functions of `width` variables.
    pub fn new(width: usize) -> Self {
        Bdd::with_cache_ceiling(width, CACHE_CEILING)
    }

    /// A manager whose computed table never grows past its initial size,
    /// so entries are evicted constantly.
    #[cfg(test)]
    fn with_smallest_cache(width: usize) -> Self {
        Bdd::with_cache_ceiling(width, INITIAL_SLOTS)
    }

    fn with_cache_ceiling(width: usize, cache_ceiling: usize) -> Self {
        let terminal = |r| Node {
            var: TERMINAL_VAR,
            lo: r,
            hi: r,
        };
        Bdd {
            width,
            nodes: vec![terminal(BDD_FALSE), terminal(BDD_TRUE)],
            unique: vec![0; INITIAL_SLOTS],
            cache: vec![Entry::default(); INITIAL_SLOTS],
            cache_ceiling,
            var_sets: Vec::new(),
            maps: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// The number of variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Computed-table `(hits, misses)` since construction, over every
    /// operation — the hit rate is the headline health metric of a
    /// manager's variable order.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// The number of live nodes (terminals included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn var(&self, f: BddRef) -> u32 {
        self.nodes[f as usize].var
    }

    /// The reduced node `(var, lo, hi)` (hash-consed; skips redundant
    /// tests).
    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        if lo == hi {
            return lo;
        }
        let mask = self.unique.len() - 1;
        let mut i = slot(var, lo, hi, mask);
        loop {
            let id = self.unique[i];
            if id == 0 {
                break;
            }
            let n = self.nodes[id as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return id;
            }
            i = (i + 1) & mask;
        }
        let id = self.nodes.len() as BddRef;
        self.nodes.push(Node { var, lo, hi });
        self.unique[i] = id;
        // Terminals are not in the table: keep it at most half full.
        if 2 * (self.nodes.len() - 2) > self.unique.len() {
            self.grow();
        }
        id
    }

    /// Doubles the unique table, rebuilt from the arena, and the computed
    /// table with it up to its ceiling, keeping its entries.
    fn grow(&mut self) {
        let mask = 2 * self.unique.len() - 1;
        self.unique = vec![0; mask + 1];
        for (id, n) in self.nodes.iter().enumerate().skip(2) {
            let mut i = slot(n.var, n.lo, n.hi, mask);
            while self.unique[i] != 0 {
                i = (i + 1) & mask;
            }
            self.unique[i] = id as BddRef;
        }
        let size = self.unique.len().min(self.cache_ceiling);
        if size > self.cache.len() {
            let old = std::mem::replace(&mut self.cache, vec![Entry::default(); size]);
            for e in old.into_iter().filter(|e| e.tag != 0) {
                self.cache[slot(e.tag, e.a, e.b, size - 1)] = e;
            }
        }
    }

    /// The cached result of `tag(a, b)`, if its entry is still there.
    fn lookup(&mut self, tag: u32, a: BddRef, b: BddRef) -> Option<BddRef> {
        let e = self.cache[slot(tag, a, b, self.cache.len() - 1)];
        if e.tag == tag && e.a == a && e.b == b {
            self.cache_hits += 1;
            Some(e.r)
        } else {
            self.cache_misses += 1;
            None
        }
    }

    /// Records `tag(a, b) = r`, evicting the entry that shared its slot.
    fn insert(&mut self, tag: u32, a: BddRef, b: BddRef, r: BddRef) {
        let i = slot(tag, a, b, self.cache.len() - 1);
        self.cache[i] = Entry { tag, a, b, r };
    }

    /// The BDD of one cube (product of literals).
    pub fn from_cube(&mut self, cube: &Cube) -> BddRef {
        let mut f = BDD_TRUE;
        for var in (0..self.width).rev() {
            match cube.get(var) {
                crate::cube::CubeVal::One => f = self.mk(var as u32, BDD_FALSE, f),
                crate::cube::CubeVal::Zero => f = self.mk(var as u32, f, BDD_FALSE),
                crate::cube::CubeVal::DontCare => {}
            }
        }
        f
    }

    /// The BDD of a cover (sum of its cubes).
    pub fn from_cover(&mut self, cover: &Cover) -> BddRef {
        let mut f = BDD_FALSE;
        for cube in cover.cubes() {
            let c = self.from_cube(cube);
            f = self.or(f, c);
        }
        f
    }

    /// `a op b` for `op` one of [`OP_AND`], [`OP_OR`].
    fn apply(&mut self, op: u32, a: BddRef, b: BddRef) -> BddRef {
        match (op, a, b) {
            (OP_AND, BDD_FALSE, _) | (OP_AND, _, BDD_FALSE) => return BDD_FALSE,
            (OP_AND, BDD_TRUE, x) | (OP_AND, x, BDD_TRUE) => return x,
            (OP_OR, BDD_TRUE, _) | (OP_OR, _, BDD_TRUE) => return BDD_TRUE,
            (OP_OR, BDD_FALSE, x) | (OP_OR, x, BDD_FALSE) => return x,
            _ if a == b => return a,
            _ => {}
        }
        // Commutative ops: canonicalize the cache key.
        let (ka, kb) = (a.min(b), a.max(b));
        if let Some(r) = self.lookup(op, ka, kb) {
            return r;
        }
        let (va, vb) = (self.var(a), self.var(b));
        let v = va.min(vb);
        let (a0, a1) = if va == v {
            (self.nodes[a as usize].lo, self.nodes[a as usize].hi)
        } else {
            (a, a)
        };
        let (b0, b1) = if vb == v {
            (self.nodes[b as usize].lo, self.nodes[b as usize].hi)
        } else {
            (b, b)
        };
        let lo = self.apply(op, a0, b0);
        let hi = self.apply(op, a1, b1);
        let r = self.mk(v, lo, hi);
        self.insert(op, ka, kb, r);
        r
    }

    /// Conjunction.
    pub fn and(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.apply(OP_AND, a, b)
    }

    /// Disjunction.
    pub fn or(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.apply(OP_OR, a, b)
    }

    /// Negation.
    pub fn not(&mut self, f: BddRef) -> BddRef {
        match f {
            BDD_FALSE => return BDD_TRUE,
            BDD_TRUE => return BDD_FALSE,
            _ => {}
        }
        if let Some(r) = self.lookup(OP_NOT, f, 0) {
            return r;
        }
        let Node { var, lo, hi } = self.nodes[f as usize];
        let nlo = self.not(lo);
        let nhi = self.not(hi);
        let r = self.mk(var, nlo, nhi);
        self.insert(OP_NOT, f, 0, r);
        r
    }

    /// `a ∧ ¬b`.
    pub fn diff(&mut self, a: BddRef, b: BddRef) -> BddRef {
        let nb = self.not(b);
        self.and(a, nb)
    }

    /// Does `cube ⊆ f` hold (is the cube an implicant of `f`)?
    pub fn cube_implies(&mut self, cube: &Cube, f: BddRef) -> bool {
        let c = self.from_cube(cube);
        self.diff(c, f) == BDD_FALSE
    }

    /// The reduced node `ite(var, hi, lo)` for callers that build
    /// structured functions bottom-up (cubes, transition relations) in one
    /// linear pass instead of `O(n)` apply calls. `var` must lie strictly
    /// above the top variables of `lo` and `hi` (checked in debug builds);
    /// breaking that would silently corrupt the ordering invariant.
    pub fn mk_node(&mut self, var: usize, lo: BddRef, hi: BddRef) -> BddRef {
        debug_assert!(var < self.width);
        debug_assert!(
            (var as u32) < self.var(lo) && (var as u32) < self.var(hi),
            "mk_node: var must be above both children"
        );
        self.mk(var as u32, lo, hi)
    }

    /// The single-literal function `var` (positive) or `¬var` (negative).
    pub fn literal(&mut self, var: usize, polarity: bool) -> BddRef {
        debug_assert!(var < self.width);
        if polarity {
            self.mk(var as u32, BDD_FALSE, BDD_TRUE)
        } else {
            self.mk(var as u32, BDD_TRUE, BDD_FALSE)
        }
    }

    /// Equivalence `a ↔ b` (XNOR).
    pub fn iff(&mut self, a: BddRef, b: BddRef) -> BddRef {
        let both = self.and(a, b);
        let na = self.not(a);
        let nb = self.not(b);
        let neither = self.and(na, nb);
        self.or(both, neither)
    }

    /// Evaluates `f` on a complete assignment (bit `v` of `assignment` is
    /// the value of variable `v`) — a walk from the root, no allocation.
    pub fn eval(&self, f: BddRef, assignment: &Bits) -> bool {
        let mut cur = f;
        loop {
            let node = self.nodes[cur as usize];
            if node.var == TERMINAL_VAR {
                return cur == BDD_TRUE;
            }
            cur = if assignment.get(node.var as usize) {
                node.hi
            } else {
                node.lo
            };
        }
    }

    /// The cofactor `f|var=val` (restriction of one variable).
    pub fn cofactor(&mut self, f: BddRef, var: usize, val: bool) -> BddRef {
        let tag = OP_COFACTOR | param(2 * var + usize::from(val));
        self.cofactor_rec(f, var as u32, val, tag)
    }

    fn cofactor_rec(&mut self, f: BddRef, var: u32, val: bool, tag: u32) -> BddRef {
        let node = self.nodes[f as usize];
        if node.var > var {
            // Past the target level (terminals sort last): f is independent.
            return f;
        }
        if node.var == var {
            return if val { node.hi } else { node.lo };
        }
        if let Some(r) = self.lookup(tag, f, 0) {
            return r;
        }
        let lo = self.cofactor_rec(node.lo, var, val, tag);
        let hi = self.cofactor_rec(node.hi, var, val, tag);
        let r = self.mk(node.var, lo, hi);
        self.insert(tag, f, 0, r);
        r
    }

    /// Existential quantification `∃ vars . f` — eliminates every variable
    /// whose bit is set in `vars` (the result is independent of them all).
    pub fn exists(&mut self, f: BddRef, vars: &Bits) -> BddRef {
        let set = intern(&mut self.var_sets, vars);
        self.exists_rec(f, vars, set)
    }

    /// `∃ vars . f` where `set` is the interned tag parameter of `vars`.
    fn exists_rec(&mut self, f: BddRef, vars: &Bits, set: u32) -> BddRef {
        let node = self.nodes[f as usize];
        if node.var == TERMINAL_VAR {
            return f;
        }
        if let Some(r) = self.lookup(OP_EXISTS | set, f, 0) {
            return r;
        }
        let lo = self.exists_rec(node.lo, vars, set);
        let hi = self.exists_rec(node.hi, vars, set);
        let r = if vars.get(node.var as usize) {
            self.or(lo, hi)
        } else {
            self.mk(node.var, lo, hi)
        };
        self.insert(OP_EXISTS | set, f, 0, r);
        r
    }

    /// The relational product `∃ vars . (a ∧ b)` in one pass — the image
    /// operator of symbolic reachability. Quantification happens on the
    /// fly, so the full conjunction `a ∧ b` is never materialized.
    pub fn and_exists(&mut self, a: BddRef, b: BddRef, vars: &Bits) -> BddRef {
        let set = intern(&mut self.var_sets, vars);
        self.and_exists_rec(a, b, vars, set)
    }

    fn and_exists_rec(&mut self, a: BddRef, b: BddRef, vars: &Bits, set: u32) -> BddRef {
        if a == BDD_FALSE || b == BDD_FALSE {
            return BDD_FALSE;
        }
        if a == BDD_TRUE && b == BDD_TRUE {
            return BDD_TRUE;
        }
        if a == BDD_TRUE {
            return self.exists_rec(b, vars, set);
        }
        if b == BDD_TRUE || a == b {
            return self.exists_rec(a, vars, set);
        }
        let (ka, kb) = (a.min(b), a.max(b));
        if let Some(r) = self.lookup(OP_AND_EXISTS | set, ka, kb) {
            return r;
        }
        let (va, vb) = (self.var(a), self.var(b));
        let v = va.min(vb);
        let (a0, a1) = if va == v {
            (self.nodes[a as usize].lo, self.nodes[a as usize].hi)
        } else {
            (a, a)
        };
        let (b0, b1) = if vb == v {
            (self.nodes[b as usize].lo, self.nodes[b as usize].hi)
        } else {
            (b, b)
        };
        let lo = self.and_exists_rec(a0, b0, vars, set);
        let r = if vars.get(v as usize) {
            // Early exit: once the quantified disjunction saturates, the
            // other branch cannot change it.
            if lo == BDD_TRUE {
                BDD_TRUE
            } else {
                let hi = self.and_exists_rec(a1, b1, vars, set);
                self.or(lo, hi)
            }
        } else {
            let hi = self.and_exists_rec(a1, b1, vars, set);
            self.mk(v, lo, hi)
        };
        self.insert(OP_AND_EXISTS | set, ka, kb, r);
        r
    }

    /// Renames the variables of `f`: variable `v` becomes `map[v]`. The
    /// mapping must be **order-preserving on the support of `f`** (for any
    /// two support variables `u < v`, `map[u] < map[v]`), which keeps the
    /// rebuild a single linear pass — the symbolic backend's next→current
    /// substitution (`2i+1 → 2i` on the interleaved order) satisfies it.
    pub fn rename(&mut self, f: BddRef, map: &[u32]) -> BddRef {
        debug_assert_eq!(map.len(), self.width);
        let tag = OP_RENAME | intern(&mut self.maps, map);
        self.rename_rec(f, map, tag)
    }

    fn rename_rec(&mut self, f: BddRef, map: &[u32], tag: u32) -> BddRef {
        let node = self.nodes[f as usize];
        if node.var == TERMINAL_VAR {
            return f;
        }
        if let Some(r) = self.lookup(tag, f, 0) {
            return r;
        }
        let lo = self.rename_rec(node.lo, map, tag);
        let hi = self.rename_rec(node.hi, map, tag);
        let nv = map[node.var as usize];
        debug_assert!(
            nv < self.var(lo) && nv < self.var(hi),
            "rename map must preserve the variable order on the support"
        );
        let r = self.mk(nv, lo, hi);
        self.insert(tag, f, 0, r);
        r
    }

    /// Number of satisfying assignments over the variable set `vars` only.
    ///
    /// Unlike [`Bdd::sat_count`], which counts over all `width` variables
    /// (and overflows `u128` past 128 of them), this counts assignments to
    /// the `vars` bits alone — the state-count query of the symbolic
    /// reachability backend, where `f` ranges over current-state variables
    /// and the next-state/auxiliary variables must not inflate the count.
    ///
    /// # Panics
    ///
    /// Panics when `f` depends on a variable outside `vars` (the count
    /// would be ill-defined).
    pub fn sat_count_within(&self, f: BddRef, vars: &Bits) -> u128 {
        // rank[v] = how many `vars` variables lie strictly below level v.
        let mut rank = vec![0u32; self.width + 1];
        for v in 0..self.width {
            rank[v + 1] = rank[v] + u32::from(vars.get(v));
        }
        let mut memo: HashMap<BddRef, u128> = HashMap::new();
        let c = self.sat_within_below(f, vars, &rank, &mut memo);
        c << rank[self.level(f) as usize]
    }

    fn sat_within_below(
        &self,
        f: BddRef,
        vars: &Bits,
        rank: &[u32],
        memo: &mut HashMap<BddRef, u128>,
    ) -> u128 {
        match f {
            BDD_FALSE => return 0,
            BDD_TRUE => return 1,
            _ => {}
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let node = self.nodes[f as usize];
        assert!(
            vars.get(node.var as usize),
            "sat_count_within: function depends on a variable outside the set"
        );
        let here = rank[node.var as usize] + 1;
        let lo = self.sat_within_below(node.lo, vars, rank, memo)
            << (rank[self.level(node.lo) as usize] - here);
        let hi = self.sat_within_below(node.hi, vars, rank, memo)
            << (rank[self.level(node.hi) as usize] - here);
        let c = lo + hi;
        memo.insert(f, c);
        c
    }

    /// Number of satisfying assignments over all `width` variables.
    pub fn sat_count(&self, f: BddRef) -> u128 {
        let mut memo: HashMap<BddRef, u128> = HashMap::new();
        // Solutions over the variables strictly below var(f) are counted by
        // the recursion; the `2^var(f)` factor restores the free variables
        // above the root.
        let c = self.sat_below(f, &mut memo);
        c << self.level(f)
    }

    /// The variable level of a node, with terminals at `width`.
    fn level(&self, f: BddRef) -> u32 {
        let v = self.var(f);
        if v == TERMINAL_VAR {
            self.width as u32
        } else {
            v
        }
    }

    fn sat_below(&self, f: BddRef, memo: &mut HashMap<BddRef, u128>) -> u128 {
        match f {
            BDD_FALSE => return 0,
            BDD_TRUE => return 1,
            _ => {}
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let node = self.nodes[f as usize];
        let lo = self.sat_below(node.lo, memo) << (self.level(node.lo) - node.var - 1);
        let hi = self.sat_below(node.hi, memo) << (self.level(node.hi) - node.var - 1);
        let c = lo + hi;
        memo.insert(f, c);
        c
    }

    /// All prime implicants of `f` (the Blake canonical form), by the
    /// classical recursive decomposition on the top variable `x`:
    ///
    /// ```text
    /// P(f) = P(f0 ∧ f1)
    ///      ∪ { x'·c | c ∈ P(f0), c ⊄ f0 ∧ f1 }
    ///      ∪ { x ·c | c ∈ P(f1), c ⊄ f0 ∧ f1 }
    /// ```
    ///
    /// Returns `None` when more than `limit` primes accumulate (the caller
    /// falls back to a heuristic cover) — a safety valve, not an expected
    /// path at synthesis widths.
    pub fn primes(&mut self, f: BddRef, limit: usize) -> Option<Vec<Cube>> {
        let mut memo: HashMap<BddRef, Vec<Cube>> = HashMap::new();
        self.primes_rec(f, limit, &mut memo)?;
        memo.remove(&f)
    }

    fn primes_rec(
        &mut self,
        f: BddRef,
        limit: usize,
        memo: &mut HashMap<BddRef, Vec<Cube>>,
    ) -> Option<()> {
        if memo.contains_key(&f) {
            return Some(());
        }
        let out = match f {
            BDD_FALSE => Vec::new(),
            BDD_TRUE => vec![Cube::full(self.width)],
            _ => {
                let Node { var, lo, hi } = self.nodes[f as usize];
                let both = self.and(lo, hi);
                self.primes_rec(both, limit, memo)?;
                self.primes_rec(lo, limit, memo)?;
                self.primes_rec(hi, limit, memo)?;
                let mut out = memo[&both].clone();
                for (branch, polarity) in [(lo, false), (hi, true)] {
                    for cube in memo[&branch].clone() {
                        // A branch prime survives iff it is not already an
                        // implicant of the var-free part (else dropping the
                        // literal keeps it an implicant — not prime).
                        if !self.cube_implies(&cube, both) {
                            let mut c = cube;
                            c.set(var as usize, Some(polarity));
                            out.push(c);
                        }
                    }
                }
                out
            }
        };
        if out.len() > limit {
            return None;
        }
        memo.insert(f, out);
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(w: usize, cs: &[&str]) -> Cover {
        Cover::from_cubes(w, cs.iter().map(|s| s.parse().unwrap()))
    }

    #[test]
    fn terminals_and_trivial_ops() {
        let mut b = Bdd::new(3);
        assert_eq!(b.and(BDD_TRUE, BDD_FALSE), BDD_FALSE);
        assert_eq!(b.or(BDD_TRUE, BDD_FALSE), BDD_TRUE);
        assert_eq!(b.not(BDD_TRUE), BDD_FALSE);
        assert_eq!(b.sat_count(BDD_TRUE), 8);
        assert_eq!(b.sat_count(BDD_FALSE), 0);
    }

    #[test]
    fn cover_roundtrip_sat_counts() {
        let mut b = Bdd::new(3);
        for (cs, expect) in [
            (vec!["111"], 1u128),
            (vec!["1--"], 4),
            (vec!["11-", "0-1"], 4),
            (vec!["000", "111"], 2),
        ] {
            let f = b.from_cover(&cover(3, &cs));
            assert_eq!(b.sat_count(f), expect, "{cs:?}");
        }
    }

    #[test]
    fn semantic_equivalence_with_cover_algebra() {
        let mut b = Bdd::new(4);
        let f = cover(4, &["11--", "-011", "0-0-"]);
        let g = cover(4, &["1-1-", "--00"]);
        let bf = b.from_cover(&f);
        let bg = b.from_cover(&g);
        let band = b.and(bf, bg);
        let bor = b.or(bf, bg);
        assert_eq!(b.sat_count(band), f.and(&g).vertex_count());
        assert_eq!(b.sat_count(bor), f.or(&g).vertex_count());
        let bnot = b.not(bf);
        assert_eq!(b.sat_count(bnot), f.complement().vertex_count());
    }

    #[test]
    fn primes_of_classic_functions() {
        let mut b = Bdd::new(2);
        // XOR: both minterms are prime.
        let x = b.from_cover(&cover(2, &["01", "10"]));
        let mut p = b.primes(x, 16).unwrap();
        p.sort_by_key(|c| c.to_positional());
        assert_eq!(p.len(), 2);
        // Consensus: ab + a'c has three primes (ab, a'c, bc).
        let mut b3 = Bdd::new(3);
        let f = b3.from_cover(&cover(3, &["11-", "0-1"]));
        let p3 = b3.primes(f, 16).unwrap();
        assert_eq!(p3.len(), 3);
        assert!(p3.iter().any(|c| c.to_positional() == "-11"));
    }

    #[test]
    fn primes_limit_bails_out() {
        // The parity function of 6 vars has 2^5 = 32 primes (its minterms).
        let mut b = Bdd::new(6);
        let minterms: Vec<String> = (0..64u32)
            .filter(|v| v.count_ones() % 2 == 1)
            .map(|v| (0..6).rev().map(|i| ((v >> i) & 1).to_string()).collect())
            .collect();
        let refs: Vec<&str> = minterms.iter().map(|s| s.as_str()).collect();
        let f = b.from_cover(&cover(6, &refs));
        assert!(b.primes(f, 8).is_none());
        assert_eq!(b.primes(f, 64).unwrap().len(), 32);
    }

    #[test]
    fn cube_implies_is_containment() {
        let mut b = Bdd::new(3);
        let f = b.from_cover(&cover(3, &["1--"]));
        assert!(b.cube_implies(&"11-".parse().unwrap(), f));
        assert!(!b.cube_implies(&"-1-".parse().unwrap(), f));
    }

    /// A deterministic pseudo-random function of `w` variables: the BDD of
    /// a handful of arbitrary cubes seeded by `seed` (xorshift).
    fn arb_fn(b: &mut Bdd, w: usize, seed: u64) -> BddRef {
        let mut s = seed | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut f = BDD_FALSE;
        for _ in 0..5 {
            let mut c = BDD_TRUE;
            for v in (0..w).rev() {
                match next() % 3 {
                    0 => c = b.mk(v as u32, BDD_FALSE, c),
                    1 => c = b.mk(v as u32, c, BDD_FALSE),
                    _ => {}
                }
            }
            f = b.or(f, c);
        }
        f
    }

    /// Brute-force evaluation count of `f` over all `2^w` assignments.
    fn brute_count(b: &Bdd, f: BddRef, w: usize) -> u128 {
        (0..1u32 << w)
            .filter(|&v| {
                let bits = Bits::from_ones(w, (0..w).filter(|&i| (v >> i) & 1 == 1));
                b.eval(f, &bits)
            })
            .count() as u128
    }

    #[test]
    fn sat_count_matches_brute_force_enumeration() {
        for w in [4usize, 8, 12] {
            let mut b = Bdd::new(w);
            for seed in 1..6u64 {
                let f = arb_fn(&mut b, w, seed * 977);
                assert_eq!(b.sat_count(f), brute_count(&b, f, w), "w={w} seed={seed}");
                assert_eq!(
                    b.sat_count_within(f, &Bits::ones(w)),
                    b.sat_count(f),
                    "full-set sat_count_within must equal sat_count"
                );
            }
        }
    }

    #[test]
    fn sat_count_within_ignores_unused_variables() {
        // f over vars {0,2} of a 6-var manager: counting within {0,2}
        // must not pay the 2^4 factor of the free variables.
        let mut b = Bdd::new(6);
        let x0 = b.literal(0, true);
        let x2 = b.literal(2, true);
        let f = b.or(x0, x2);
        let vars = Bits::from_ones(6, [0usize, 2]);
        assert_eq!(b.sat_count_within(f, &vars), 3);
        assert_eq!(b.sat_count(f), 3 << 4);
    }

    #[test]
    #[should_panic(expected = "outside the set")]
    fn sat_count_within_rejects_escaping_support() {
        let mut b = Bdd::new(4);
        let f = b.literal(3, true);
        let vars = Bits::from_ones(4, [0usize, 1]);
        b.sat_count_within(f, &vars);
    }

    #[test]
    fn exists_is_the_or_of_cofactors_and_independent_of_x() {
        for w in [5usize, 9] {
            let mut b = Bdd::new(w);
            for seed in 1..5u64 {
                let f = arb_fn(&mut b, w, seed * 131);
                for x in 0..w {
                    let vars = Bits::from_ones(w, [x]);
                    let q = b.exists(f, &vars);
                    let f0 = b.cofactor(f, x, false);
                    let f1 = b.cofactor(f, x, true);
                    let or01 = b.or(f0, f1);
                    assert_eq!(q, or01, "∃x.f = f|x=0 ∨ f|x=1 (w={w} x={x})");
                    // Independence: both cofactors of the result coincide.
                    assert_eq!(b.cofactor(q, x, false), b.cofactor(q, x, true));
                }
            }
        }
    }

    #[test]
    fn exists_over_a_set_quantifies_each_variable() {
        let mut b = Bdd::new(8);
        let f = arb_fn(&mut b, 8, 4242);
        let vars = Bits::from_ones(8, [1usize, 3, 6]);
        let joint = b.exists(f, &vars);
        let mut seq = f;
        for x in [1usize, 3, 6] {
            let one = Bits::from_ones(8, [x]);
            seq = b.exists(seq, &one);
        }
        assert_eq!(joint, seq);
    }

    #[test]
    fn and_exists_is_exists_of_the_conjunction() {
        for w in [6usize, 10] {
            let mut b = Bdd::new(w);
            for seed in 1..6u64 {
                let f = arb_fn(&mut b, w, seed * 31);
                let g = arb_fn(&mut b, w, seed * 67 + 5);
                let vars = Bits::from_ones(w, (0..w).filter(|v| v % 2 == 0));
                let fused = b.and_exists(f, g, &vars);
                let conj = b.and(f, g);
                let staged = b.exists(conj, &vars);
                assert_eq!(fused, staged, "w={w} seed={seed}");
            }
        }
    }

    #[test]
    fn rename_round_trip_is_identity() {
        // Shift the odd "next-state" rail down onto the even rail and back
        // — the exact substitution pair of the symbolic backend.
        let w = 10;
        let mut b = Bdd::new(w);
        // A function of the odd variables only.
        let mut f = BDD_TRUE;
        for i in (0..w / 2).rev() {
            f = b.mk((2 * i + 1) as u32, BDD_FALSE, f);
        }
        let mut down: Vec<u32> = (0..w as u32).collect();
        let mut up: Vec<u32> = (0..w as u32).collect();
        for i in 0..w / 2 {
            down[2 * i + 1] = 2 * i as u32;
            up[2 * i] = (2 * i + 1) as u32;
        }
        let g = b.rename(f, &down);
        assert_ne!(g, f);
        let back = b.rename(g, &up);
        assert_eq!(back, f);
        // Semantics: g is f with every odd var read from the even rail.
        let assignment = Bits::from_ones(w, (0..w / 2).map(|i| 2 * i));
        assert!(b.eval(g, &assignment));
        assert!(!b.eval(f, &assignment));
    }

    #[test]
    fn literal_iff_and_eval_agree() {
        let mut b = Bdd::new(3);
        let x = b.literal(0, true);
        let ny = b.literal(1, false);
        let e = b.iff(x, ny);
        // x ↔ ¬y: satisfied by exactly half the assignments.
        assert_eq!(b.sat_count(e), 4);
        assert!(b.eval(e, &Bits::from_ones(3, [0usize])));
        assert!(!b.eval(e, &Bits::from_ones(3, [0usize, 1])));
    }

    /// The manager as it stood before the computed table: `HashMap`
    /// unique and apply/negate tables that never evict, and a fresh memo
    /// per `exists`, `and_exists`, `rename` and `cofactor` call. It is the
    /// reference that pins [`Bdd`] node for node.
    mod reference {
        use super::super::{Node, TERMINAL_VAR};
        use crate::bits::Bits;
        use crate::{BddRef, BDD_FALSE, BDD_TRUE};
        use std::collections::HashMap;

        #[derive(Copy, Clone, PartialEq, Eq, Hash)]
        enum Op {
            And,
            Or,
        }

        pub struct HashBdd {
            nodes: Vec<Node>,
            unique: HashMap<(u32, BddRef, BddRef), BddRef>,
            apply_cache: HashMap<(Op, BddRef, BddRef), BddRef>,
            not_cache: HashMap<BddRef, BddRef>,
        }

        impl HashBdd {
            pub fn new() -> Self {
                let terminal = |r| Node {
                    var: TERMINAL_VAR,
                    lo: r,
                    hi: r,
                };
                HashBdd {
                    nodes: vec![terminal(BDD_FALSE), terminal(BDD_TRUE)],
                    unique: HashMap::new(),
                    apply_cache: HashMap::new(),
                    not_cache: HashMap::new(),
                }
            }

            pub fn node_count(&self) -> usize {
                self.nodes.len()
            }

            fn var(&self, f: BddRef) -> u32 {
                self.nodes[f as usize].var
            }

            fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
                if lo == hi {
                    return lo;
                }
                *self.unique.entry((var, lo, hi)).or_insert_with(|| {
                    self.nodes.push(Node { var, lo, hi });
                    (self.nodes.len() - 1) as BddRef
                })
            }

            pub fn mk_node(&mut self, var: usize, lo: BddRef, hi: BddRef) -> BddRef {
                self.mk(var as u32, lo, hi)
            }

            pub fn literal(&mut self, var: usize, polarity: bool) -> BddRef {
                if polarity {
                    self.mk(var as u32, BDD_FALSE, BDD_TRUE)
                } else {
                    self.mk(var as u32, BDD_TRUE, BDD_FALSE)
                }
            }

            fn apply(&mut self, op: Op, a: BddRef, b: BddRef) -> BddRef {
                match (op, a, b) {
                    (Op::And, BDD_FALSE, _) | (Op::And, _, BDD_FALSE) => return BDD_FALSE,
                    (Op::And, BDD_TRUE, x) | (Op::And, x, BDD_TRUE) => return x,
                    (Op::Or, BDD_TRUE, _) | (Op::Or, _, BDD_TRUE) => return BDD_TRUE,
                    (Op::Or, BDD_FALSE, x) | (Op::Or, x, BDD_FALSE) => return x,
                    _ if a == b => return a,
                    _ => {}
                }
                let key = (op, a.min(b), a.max(b));
                if let Some(&r) = self.apply_cache.get(&key) {
                    return r;
                }
                let (va, vb) = (self.var(a), self.var(b));
                let v = va.min(vb);
                let (a0, a1) = if va == v {
                    (self.nodes[a as usize].lo, self.nodes[a as usize].hi)
                } else {
                    (a, a)
                };
                let (b0, b1) = if vb == v {
                    (self.nodes[b as usize].lo, self.nodes[b as usize].hi)
                } else {
                    (b, b)
                };
                let lo = self.apply(op, a0, b0);
                let hi = self.apply(op, a1, b1);
                let r = self.mk(v, lo, hi);
                self.apply_cache.insert(key, r);
                r
            }

            pub fn and(&mut self, a: BddRef, b: BddRef) -> BddRef {
                self.apply(Op::And, a, b)
            }

            pub fn or(&mut self, a: BddRef, b: BddRef) -> BddRef {
                self.apply(Op::Or, a, b)
            }

            pub fn not(&mut self, f: BddRef) -> BddRef {
                match f {
                    BDD_FALSE => return BDD_TRUE,
                    BDD_TRUE => return BDD_FALSE,
                    _ => {}
                }
                if let Some(&r) = self.not_cache.get(&f) {
                    return r;
                }
                let Node { var, lo, hi } = self.nodes[f as usize];
                let nlo = self.not(lo);
                let nhi = self.not(hi);
                let r = self.mk(var, nlo, nhi);
                self.not_cache.insert(f, r);
                r
            }

            pub fn diff(&mut self, a: BddRef, b: BddRef) -> BddRef {
                let nb = self.not(b);
                self.and(a, nb)
            }

            pub fn iff(&mut self, a: BddRef, b: BddRef) -> BddRef {
                let both = self.and(a, b);
                let na = self.not(a);
                let nb = self.not(b);
                let neither = self.and(na, nb);
                self.or(both, neither)
            }

            pub fn cofactor(&mut self, f: BddRef, var: usize, val: bool) -> BddRef {
                self.cofactor_rec(f, var as u32, val, &mut HashMap::new())
            }

            fn cofactor_rec(
                &mut self,
                f: BddRef,
                var: u32,
                val: bool,
                memo: &mut HashMap<BddRef, BddRef>,
            ) -> BddRef {
                let node = self.nodes[f as usize];
                if node.var > var {
                    return f;
                }
                if node.var == var {
                    return if val { node.hi } else { node.lo };
                }
                if let Some(&r) = memo.get(&f) {
                    return r;
                }
                let lo = self.cofactor_rec(node.lo, var, val, memo);
                let hi = self.cofactor_rec(node.hi, var, val, memo);
                let r = self.mk(node.var, lo, hi);
                memo.insert(f, r);
                r
            }

            pub fn exists(&mut self, f: BddRef, vars: &Bits) -> BddRef {
                self.exists_rec(f, vars, &mut HashMap::new())
            }

            fn exists_rec(
                &mut self,
                f: BddRef,
                vars: &Bits,
                memo: &mut HashMap<BddRef, BddRef>,
            ) -> BddRef {
                let node = self.nodes[f as usize];
                if node.var == TERMINAL_VAR {
                    return f;
                }
                if let Some(&r) = memo.get(&f) {
                    return r;
                }
                let lo = self.exists_rec(node.lo, vars, memo);
                let hi = self.exists_rec(node.hi, vars, memo);
                let r = if vars.get(node.var as usize) {
                    self.or(lo, hi)
                } else {
                    self.mk(node.var, lo, hi)
                };
                memo.insert(f, r);
                r
            }

            pub fn and_exists(&mut self, a: BddRef, b: BddRef, vars: &Bits) -> BddRef {
                self.and_exists_rec(a, b, vars, &mut HashMap::new())
            }

            fn and_exists_rec(
                &mut self,
                a: BddRef,
                b: BddRef,
                vars: &Bits,
                memo: &mut HashMap<(BddRef, BddRef), BddRef>,
            ) -> BddRef {
                if a == BDD_FALSE || b == BDD_FALSE {
                    return BDD_FALSE;
                }
                if a == BDD_TRUE && b == BDD_TRUE {
                    return BDD_TRUE;
                }
                if a == BDD_TRUE {
                    return self.exists_rec(b, vars, &mut HashMap::new());
                }
                if b == BDD_TRUE || a == b {
                    return self.exists_rec(a, vars, &mut HashMap::new());
                }
                let key = (a.min(b), a.max(b));
                if let Some(&r) = memo.get(&key) {
                    return r;
                }
                let (va, vb) = (self.var(a), self.var(b));
                let v = va.min(vb);
                let (a0, a1) = if va == v {
                    (self.nodes[a as usize].lo, self.nodes[a as usize].hi)
                } else {
                    (a, a)
                };
                let (b0, b1) = if vb == v {
                    (self.nodes[b as usize].lo, self.nodes[b as usize].hi)
                } else {
                    (b, b)
                };
                let lo = self.and_exists_rec(a0, b0, vars, memo);
                let r = if vars.get(v as usize) {
                    if lo == BDD_TRUE {
                        BDD_TRUE
                    } else {
                        let hi = self.and_exists_rec(a1, b1, vars, memo);
                        self.or(lo, hi)
                    }
                } else {
                    let hi = self.and_exists_rec(a1, b1, vars, memo);
                    self.mk(v, lo, hi)
                };
                memo.insert(key, r);
                r
            }

            pub fn rename(&mut self, f: BddRef, map: &[u32]) -> BddRef {
                self.rename_rec(f, map, &mut HashMap::new())
            }

            fn rename_rec(
                &mut self,
                f: BddRef,
                map: &[u32],
                memo: &mut HashMap<BddRef, BddRef>,
            ) -> BddRef {
                let node = self.nodes[f as usize];
                if node.var == TERMINAL_VAR {
                    return f;
                }
                if let Some(&r) = memo.get(&f) {
                    return r;
                }
                let lo = self.rename_rec(node.lo, map, memo);
                let hi = self.rename_rec(node.hi, map, memo);
                let r = self.mk(map[node.var as usize], lo, hi);
                memo.insert(f, r);
                r
            }
        }
    }

    /// Asserts that both managers returned the same node and hold the same
    /// number of nodes after `what`.
    fn same(got: BddRef, want: BddRef, b: &Bdd, r: &reference::HashBdd, what: &str) -> BddRef {
        assert_eq!(got, want, "{what}");
        assert_eq!(b.node_count(), r.node_count(), "{what}: node counts");
        got
    }

    /// Drives `fresh` managers and the [`reference::HashBdd`] through the
    /// same seeded random operation sequences at widths 6 to 16, and
    /// asserts after every step that both return the same node and hold
    /// the same number of nodes.
    fn lockstep(fresh: fn(usize) -> Bdd) {
        const STEPS: usize = 250;
        for w in 6..=16usize {
            for seed in 1..=3u64 {
                let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ w as u64;
                let mut next = move || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s
                };
                let mut b = fresh(w);
                let mut r = reference::HashBdd::new();
                // The symbolic layer's rails: current variables on even
                // levels, `2k+1 → 2k` renaming next onto current. An odd
                // width leaves its last variable as an auxiliary.
                let rails = w / 2;
                let current = Bits::from_ones(w, (0..rails).map(|k| 2 * k));
                let mut down: Vec<u32> = (0..w as u32).collect();
                for k in 0..rails {
                    down[2 * k + 1] = 2 * k as u32;
                }
                // Three quantification sets, so one operand pair meets
                // several sets.
                let sets = [
                    current,
                    Bits::from_ones(w, (0..rails).map(|k| 2 * k + 1)),
                    Bits::from_ones(w, (0..w).filter(|_| next() % 3 == 0)),
                ];
                // Seed the pool with sums of random cubes, built bottom-up
                // with `mk_node` and summed with `or`.
                let mut pool = vec![BDD_FALSE, BDD_TRUE];
                for f in 0..8 {
                    let mut sum = BDD_FALSE;
                    for c in 0..12 {
                        let mut cube = BDD_TRUE;
                        for v in (0..w).rev() {
                            let (lo, hi) = match next() % 4 {
                                0 => (BDD_FALSE, cube),
                                1 => (cube, BDD_FALSE),
                                _ => continue,
                            };
                            let what = format!("w={w} seed={seed} sum {f} cube {c} mk_node");
                            cube = same(b.mk_node(v, lo, hi), r.mk_node(v, lo, hi), &b, &r, &what);
                        }
                        let what = format!("w={w} seed={seed} sum {f} cube {c} or");
                        sum = same(b.or(sum, cube), r.or(sum, cube), &b, &r, &what);
                    }
                    pool.push(sum);
                }
                for step in 0..STEPS {
                    let x = pool[next() as usize % pool.len()];
                    let y = pool[next() as usize % pool.len()];
                    let var = next() as usize % w;
                    let polarity = next() % 2 == 0;
                    let set = &sets[next() as usize % sets.len()];
                    let what = |op: &str| format!("w={w} seed={seed} step={step} {op}");
                    let got = match next() % 11 {
                        0 => {
                            let (got, want) = (b.literal(var, polarity), r.literal(var, polarity));
                            same(got, want, &b, &r, &what("literal"))
                        }
                        1 => {
                            // Children from below `var`, as `mk_node` requires.
                            let below: Vec<BddRef> = pool
                                .iter()
                                .copied()
                                .filter(|&f| b.var(f) > var as u32)
                                .collect();
                            let lo = below[next() as usize % below.len()];
                            let hi = below[next() as usize % below.len()];
                            let (got, want) = (b.mk_node(var, lo, hi), r.mk_node(var, lo, hi));
                            same(got, want, &b, &r, &what("mk_node"))
                        }
                        2 => same(b.and(x, y), r.and(x, y), &b, &r, &what("and")),
                        3 => same(b.or(x, y), r.or(x, y), &b, &r, &what("or")),
                        4 => same(b.not(x), r.not(x), &b, &r, &what("not")),
                        5 => same(b.diff(x, y), r.diff(x, y), &b, &r, &what("diff")),
                        6 => same(b.iff(x, y), r.iff(x, y), &b, &r, &what("iff")),
                        7 => same(b.exists(x, set), r.exists(x, set), &b, &r, &what("exists")),
                        8 => {
                            let (got, want) = (b.and_exists(x, y, set), r.and_exists(x, y, set));
                            same(got, want, &b, &r, &what("and_exists"))
                        }
                        9 => {
                            // The image step: quantify the current rail,
                            // then rename next onto current.
                            let (got, want) =
                                (b.and_exists(x, y, &sets[0]), r.and_exists(x, y, &sets[0]));
                            let q = same(got, want, &b, &r, &what("image and_exists"));
                            same(
                                b.rename(q, &down),
                                r.rename(q, &down),
                                &b,
                                &r,
                                &what("rename"),
                            )
                        }
                        _ => {
                            let (got, want) =
                                (b.cofactor(x, var, polarity), r.cofactor(x, var, polarity));
                            same(got, want, &b, &r, &what("cofactor"))
                        }
                    };
                    pool.push(got);
                }
            }
        }
    }

    #[test]
    fn computed_table_keeps_node_ids_of_the_hashmap_reference() {
        lockstep(Bdd::new);
    }

    #[test]
    fn constant_eviction_keeps_node_ids_of_the_hashmap_reference() {
        lockstep(Bdd::with_smallest_cache);
    }

    /// The computed table follows the unique table, which stays at most
    /// half full; the eviction test's table stays at its initial size.
    #[test]
    fn computed_table_grows_with_the_unique_table_unless_pinned() {
        let w = 16;
        let (mut b, mut pinned) = (Bdd::new(w), Bdd::with_smallest_cache(w));
        for seed in 1..200u64 {
            arb_fn(&mut b, w, seed * 7919);
            arb_fn(&mut pinned, w, seed * 7919);
        }
        assert!(b.unique.len() > INITIAL_SLOTS);
        assert!(2 * (b.node_count() - 2) <= b.unique.len());
        assert_eq!(b.cache.len(), b.unique.len().min(CACHE_CEILING));
        assert_eq!(pinned.unique.len(), b.unique.len());
        assert_eq!(pinned.cache.len(), INITIAL_SLOTS);
    }
}
