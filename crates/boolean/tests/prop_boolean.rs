//! Property-based tests for the cube/cover algebra.
//!
//! Most properties draw cubes over `W = 6` variables, one storage word,
//! where they can enumerate vertices. The `_wide` properties draw them over
//! `WIDE = 70`: two words, the second one partial, so the word-level cube
//! tests cross a word boundary. They sample vertices instead of
//! enumerating them, and pair each drawn cube with a related one (see
//! [`overlay`]) so that containment and intersection both occur.

use proptest::prelude::*;
use si_boolean::{minimize, Bits, Cover, Cube, CubeVal};

const W: usize = 6;
const WIDE: usize = 70;

/// A cube over `width` variables; each variable is a literal with
/// probability `2 / spread`.
fn arb_cube_of(width: usize, spread: u8) -> impl Strategy<Value = Cube> {
    proptest::collection::vec(0..spread, width).prop_map(move |vals| {
        let mut c = Cube::full(width);
        for (i, v) in vals.into_iter().enumerate() {
            match v {
                0 => c.set(i, Some(false)),
                1 => c.set(i, Some(true)),
                _ => {}
            }
        }
        c
    })
}

fn arb_cube() -> impl Strategy<Value = Cube> {
    arb_cube_of(W, 3)
}

/// A sparse cube over `WIDE` variables (about nine literals).
fn arb_wide_cube() -> impl Strategy<Value = Cube> {
    arb_cube_of(WIDE, 16)
}

fn arb_wide_vertex() -> impl Strategy<Value = Bits> {
    proptest::collection::vec(any::<bool>(), WIDE).prop_map(|bs| bs.into_iter().collect())
}

/// `a` with the literals of `c` written over it: contained in `a` exactly
/// when `c` agrees with every literal of `a` it also fixes.
fn overlay(a: &Cube, c: &Cube) -> Cube {
    let mut b = a.clone();
    for i in c.care().iter_ones() {
        b.set(i, Some(c.val().get(i)));
    }
    b
}

/// `v` with the literals of `c` forced: a vertex of `c`.
fn force(v: &Bits, c: &Cube) -> Bits {
    let mut x = v.clone();
    for i in c.care().iter_ones() {
        x.set(i, c.val().get(i));
    }
    x
}

/// The cube pairs a `_wide` property checks: the drawn pair and `a`
/// against its overlay.
fn wide_pairs(a: &Cube, c: &Cube) -> [(Cube, Cube); 2] {
    [(a.clone(), c.clone()), (a.clone(), overlay(a, c))]
}

/// Sampled vertices for a pair: `v` itself, `v` inside `a`, inside `b`,
/// and inside both when they intersect.
fn samples(v: &Bits, a: &Cube, b: &Cube) -> [Bits; 4] {
    [v.clone(), force(v, a), force(v, b), force(&force(v, a), b)]
}

/// Per-variable reference for `contains_cube`.
fn contains_by_variable(a: &Cube, b: &Cube) -> bool {
    (0..a.width()).all(|i| a.get(i) == CubeVal::DontCare || a.get(i) == b.get(i))
}

fn arb_cover() -> impl Strategy<Value = Cover> {
    proptest::collection::vec(arb_cube(), 0..6).prop_map(|cs| Cover::from_cubes(W, cs))
}

fn arb_vertex() -> impl Strategy<Value = Bits> {
    proptest::collection::vec(any::<bool>(), W).prop_map(|bs| bs.into_iter().collect())
}

proptest! {
    #[test]
    fn intersection_agrees_with_membership(a in arb_cube(), b in arb_cube(), v in arb_vertex()) {
        let both = a.contains_vertex(&v) && b.contains_vertex(&v);
        match a.and(&b) {
            Some(c) => prop_assert_eq!(c.contains_vertex(&v), both),
            None => prop_assert!(!both),
        }
    }

    #[test]
    fn containment_is_semantic(a in arb_cube(), b in arb_cube()) {
        let syntactic = a.contains_cube(&b);
        let semantic = b.vertices().all(|v| a.contains_vertex(&v));
        prop_assert_eq!(syntactic, semantic);
    }

    #[test]
    fn supercube_contains_both(a in arb_cube(), b in arb_cube()) {
        let s = a.supercube(&b);
        prop_assert!(s.contains_cube(&a));
        prop_assert!(s.contains_cube(&b));
    }

    #[test]
    fn sharp_is_exact_difference(a in arb_cube(), b in arb_cube(), v in arb_vertex()) {
        let pieces = a.sharp(&b);
        let in_pieces = pieces.iter().any(|p| p.contains_vertex(&v));
        let expected = a.contains_vertex(&v) && !b.contains_vertex(&v);
        prop_assert_eq!(in_pieces, expected);
        // pieces are pairwise disjoint
        for i in 0..pieces.len() {
            for j in i + 1..pieces.len() {
                prop_assert!(!pieces[i].intersects(&pieces[j]));
            }
        }
    }

    #[test]
    fn distance_zero_iff_intersects(a in arb_cube(), b in arb_cube()) {
        prop_assert_eq!(a.distance(&b) == 0, a.and(&b).is_some());
    }

    #[test]
    fn complement_partitions_space(f in arb_cover(), v in arb_vertex()) {
        let g = f.complement();
        prop_assert_eq!(f.contains_vertex(&v), !g.contains_vertex(&v));
        prop_assert_eq!(f.vertex_count() + g.vertex_count(), 1u128 << W);
    }

    #[test]
    fn tautology_matches_vertex_count(f in arb_cover()) {
        prop_assert_eq!(f.is_tautology(), f.vertex_count() == 1u128 << W);
    }

    #[test]
    fn covers_cube_is_semantic(f in arb_cover(), c in arb_cube()) {
        let semantic = c.vertices().all(|v| f.contains_vertex(&v));
        prop_assert_eq!(f.covers_cube(&c), semantic);
    }

    #[test]
    fn or_and_are_semantic(a in arb_cover(), b in arb_cover(), v in arb_vertex()) {
        prop_assert_eq!(a.or(&b).contains_vertex(&v), a.contains_vertex(&v) || b.contains_vertex(&v));
        prop_assert_eq!(a.and(&b).contains_vertex(&v), a.contains_vertex(&v) && b.contains_vertex(&v));
    }

    #[test]
    fn sharp_cover_is_semantic(a in arb_cover(), b in arb_cover(), v in arb_vertex()) {
        let d = a.sharp(&b);
        prop_assert_eq!(d.contains_vertex(&v), a.contains_vertex(&v) && !b.contains_vertex(&v));
    }

    #[test]
    fn minimize_preserves_function(f in arb_cover(), d in arb_cover(), v in arb_vertex()) {
        let r = minimize(&f, &d);
        // covers every strict on-vertex (on ∩ dc is a don't-care and may be
        // dropped)
        if f.contains_vertex(&v) && !d.contains_vertex(&v) {
            prop_assert!(r.cover.contains_vertex(&v));
        }
        // never covers an off-vertex
        if !f.contains_vertex(&v) && !d.contains_vertex(&v) {
            prop_assert!(!r.cover.contains_vertex(&v));
        }
        // never grows the literal count
        prop_assert!(r.literals_after <= r.literals_before || r.cover.cube_count() <= f.cube_count());
    }

    #[test]
    fn union_equals_folded_or(covers in proptest::collection::vec(arb_cover(), 0..5)) {
        let folded = covers.iter().fold(Cover::empty(W), |acc, c| acc.or(c));
        prop_assert_eq!(Cover::union(W, &covers), folded);
    }

    #[test]
    fn union_equals_folded_or_wide(covers in proptest::collection::vec(arb_cover(), 0..5)) {
        // The six variables spread over both words, so containment among
        // the cubes is as common as at W = 6.
        const AT: [usize; W] = [0, 1, 62, 63, 64, 69];
        let spread = |f: &Cover| {
            Cover::from_cubes(WIDE, f.iter().map(|c| {
                let mut wide = Cube::full(WIDE);
                for i in c.care().iter_ones() {
                    wide.set(AT[i], Some(c.val().get(i)));
                }
                wide
            }))
        };
        let covers: Vec<Cover> = covers.iter().map(spread).collect();
        let folded = covers.iter().fold(Cover::empty(WIDE), |acc, c| acc.or(c));
        prop_assert_eq!(Cover::union(WIDE, &covers), folded);
    }

    #[test]
    fn intersection_agrees_with_membership_wide(
        a in arb_wide_cube(),
        c in arb_wide_cube(),
        v in arb_wide_vertex(),
    ) {
        for (a, b) in wide_pairs(&a, &c) {
            for x in samples(&v, &a, &b) {
                let both = a.contains_vertex(&x) && b.contains_vertex(&x);
                match a.and(&b) {
                    Some(ab) => prop_assert_eq!(ab.contains_vertex(&x), both),
                    None => prop_assert!(!both),
                }
            }
        }
    }

    #[test]
    fn containment_is_semantic_wide(
        a in arb_wide_cube(),
        c in arb_wide_cube(),
        v in arb_wide_vertex(),
    ) {
        for (a, b) in wide_pairs(&a, &c) {
            let syntactic = a.contains_cube(&b);
            prop_assert_eq!(syntactic, contains_by_variable(&a, &b));
            // A sampled vertex of `b` lies in `a` when `a` contains `b`.
            let inside = force(&v, &b);
            if syntactic {
                prop_assert!(a.contains_vertex(&inside));
            } else {
                // Otherwise some literal of `a` is not one of `b`'s:
                // flipping it gives a vertex of `b` outside `a`.
                let i = (0..WIDE)
                    .find(|&i| a.get(i) != CubeVal::DontCare && a.get(i) != b.get(i))
                    .expect("a literal of a that b lacks");
                let mut outside = inside;
                outside.set(i, !a.val().get(i));
                prop_assert!(b.contains_vertex(&outside) && !a.contains_vertex(&outside));
            }
        }
    }

    #[test]
    fn distance_zero_iff_intersects_wide(a in arb_wide_cube(), c in arb_wide_cube()) {
        for (a, b) in wide_pairs(&a, &c) {
            let opposite = (0..WIDE)
                .filter(|&i| {
                    a.get(i) != CubeVal::DontCare
                        && b.get(i) != CubeVal::DontCare
                        && a.get(i) != b.get(i)
                })
                .count();
            prop_assert_eq!(a.distance(&b), opposite);
            prop_assert_eq!(a.distance(&b) == 0, a.and(&b).is_some());
            prop_assert_eq!(a.intersects(&b), a.and(&b).is_some());
        }
    }

    #[test]
    fn sharp_is_exact_difference_wide(
        a in arb_wide_cube(),
        c in arb_wide_cube(),
        v in arb_wide_vertex(),
    ) {
        for (a, b) in wide_pairs(&a, &c) {
            let pieces = a.sharp(&b);
            for x in samples(&v, &a, &b) {
                let in_pieces = pieces.iter().any(|p| p.contains_vertex(&x));
                prop_assert_eq!(in_pieces, a.contains_vertex(&x) && !b.contains_vertex(&x));
            }
            for i in 0..pieces.len() {
                prop_assert!(!pieces[i].intersects(&b));
                for j in i + 1..pieces.len() {
                    prop_assert!(!pieces[i].intersects(&pieces[j]));
                }
            }
        }
    }

    #[test]
    fn cofactor_semantics_wide(a in arb_wide_cube(), c in arb_wide_cube(), v in arb_wide_vertex()) {
        for (a, b) in wide_pairs(&a, &c) {
            match a.cofactor(&b) {
                Some(cof) => {
                    for x in samples(&v, &a, &b) {
                        let forced = force(&x, &b);
                        prop_assert_eq!(cof.contains_vertex(&forced), a.contains_vertex(&forced));
                    }
                }
                None => prop_assert!(!a.intersects(&b)),
            }
        }
    }

    #[test]
    fn cofactor_semantics(a in arb_cube(), b in arb_cube(), v in arb_vertex()) {
        // F|c contains v' (v with c's literals forced) iff F contains that point.
        if let Some(cof) = a.cofactor(&b) {
            let mut forced = v.clone();
            for i in b.care().iter_ones() {
                forced.set(i, b.val().get(i));
            }
            prop_assert_eq!(cof.contains_vertex(&forced), a.contains_vertex(&forced));
        }
    }
}
