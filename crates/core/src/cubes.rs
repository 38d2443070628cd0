//! Cover cubes for marked regions (§V-D, Lemma 10).
//!
//! Every place `p` gets the smallest cube covering the binary codes of all
//! markings in `MR(p)`:
//!
//! * a signal concurrent to `p` contributes a don't-care;
//! * a non-concurrent signal contributes the literal implied by the
//!   interleaving of `p` between an adjacent pair of its transitions
//!   (Property 9 guarantees the value is well defined in consistent STGs).
//!
//! If the structural interleave analysis cannot determine a value (or —
//! impossible behaviourally, but possible for a conservative analysis —
//! finds both directions) the literal is dropped, which only *enlarges* the
//! cube: cover cubes stay conservative over-approximations, exactly the
//! safety direction the paper relies on.

use si_boolean::{Bits, Cube};
use si_petri::TransId;
use si_stg::{interleaved_nodes, InterleavedNodes, Stg, StgAnalysis};
use std::collections::HashMap;

/// The cover cubes of all places plus the interleave relation they were
/// read off.
#[derive(Clone, Debug)]
pub struct PlaceCubes {
    /// `cube[p]` — cover cube of `MR(p)` over the signal space.
    pub cubes: Vec<Cube>,
    /// The interleave relation (Def. 8): the interleaved places and
    /// transitions of every adjacent transition pair `(t, t')`, computed
    /// once per structural context with one completing path search per
    /// pair. Besides the cubes, its readers are the QPS domains
    /// (`StructuralContext::qps`), the backward don't-cares of the
    /// synthesis stage M4, and the monotonicity check (Property 16).
    pub pairs: HashMap<(TransId, TransId), InterleavedNodes>,
    /// `(place, signal)` pairs whose literal could not be determined
    /// (left as don't-care). Empty on all well-formed benchmarks.
    pub undetermined: Vec<(usize, usize)>,
}

impl PlaceCubes {
    /// Computes the cover cubes of every place (Lemma 10).
    pub fn compute(stg: &Stg, analysis: &StgAnalysis) -> Self {
        let np = stg.net().place_count();
        let nsig = stg.signal_count();
        let mut votes: Vec<Vec<Option<bool>>> = vec![vec![None; nsig]; np];
        let mut conflicted: Vec<Bits> = vec![Bits::zeros(nsig); np];
        let mut pairs = HashMap::new();

        for sig in stg.signals() {
            for &t in stg.transitions_of(sig) {
                for &succ in analysis.next_of(t) {
                    let il = interleaved_nodes(stg, analysis, t, succ);
                    // Between t and next(t) the signal holds the value t
                    // switched to.
                    let value = stg.direction_of(t).target_value();
                    for pi in il.places.iter_ones() {
                        let p = si_petri::PlaceId(pi as u32);
                        if analysis.scr.place(p, sig) {
                            continue; // concurrent places keep the don't-care
                        }
                        match votes[pi][sig.index()] {
                            None => votes[pi][sig.index()] = Some(value),
                            Some(v) if v == value => {}
                            Some(_) => conflicted[pi].set(sig.index(), true),
                        }
                    }
                    pairs.insert((t, succ), il);
                }
            }
        }

        let mut cubes = Vec::with_capacity(np);
        let mut undetermined = Vec::new();
        for (pi, row) in votes.iter().enumerate() {
            let mut cube = Cube::full(nsig);
            for (si, v) in row.iter().enumerate() {
                if conflicted[pi].get(si) {
                    undetermined.push((pi, si));
                    continue;
                }
                match v {
                    Some(val) => cube.set(si, Some(*val)),
                    None => {
                        // Non-concurrent but never interleaved: leave as
                        // don't-care (conservative) and record it.
                        let p = si_petri::PlaceId(pi as u32);
                        let s = si_stg::SignalId(si as u16);
                        if !analysis.scr.place(p, s) {
                            undetermined.push((pi, si));
                        }
                    }
                }
            }
            cubes.push(cube);
        }

        PlaceCubes {
            cubes,
            pairs,
            undetermined,
        }
    }

    /// The cube of one place.
    pub fn cube(&self, p: si_petri::PlaceId) -> &Cube {
        &self.cubes[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::benchmarks;

    fn cubes_for(stg: &Stg) -> (StgAnalysis, PlaceCubes) {
        let analysis = StgAnalysis::analyze(stg).expect("consistent");
        let cubes = PlaceCubes::compute(stg, &analysis);
        (analysis, cubes)
    }

    /// Oracle check: every cube covers every code of its marked region.
    fn assert_cubes_cover_marked_regions(stg: &Stg) {
        let (_, cubes) = cubes_for(stg);
        let rg = si_petri::ReachabilityGraph::build(stg.net(), 1_000_000).unwrap();
        let enc = si_stg::StateEncoding::compute(stg, &rg).unwrap();
        for s in rg.states() {
            let m = rg.marking(s);
            let code = enc.code(s);
            for pi in m.iter_ones() {
                assert!(
                    cubes.cubes[pi].contains_vertex(code),
                    "{}: cube of place {} must cover code {} (state {})",
                    stg.name(),
                    stg.net().place_name(si_petri::PlaceId(pi as u32)),
                    code,
                    s.0
                );
            }
        }
    }

    #[test]
    fn cubes_cover_marked_regions_on_suite() {
        for stg in benchmarks::synthesizable_suite() {
            assert_cubes_cover_marked_regions(&stg);
        }
    }

    #[test]
    fn clatch_cubes_are_exact() {
        // Fig. 7: place cubes exactly define the excitation regions.
        let stg = si_stg::generators::clatch(3);
        let (_, cubes) = cubes_for(&stg);
        let rg = si_petri::ReachabilityGraph::build(stg.net(), 10_000).unwrap();
        let enc = si_stg::StateEncoding::compute(&stg, &rg).unwrap();
        // For each place: number of reachable codes inside the cube equals
        // the number of markings of its marked region (exactness).
        for p in stg.net().places() {
            let mr_codes: std::collections::BTreeSet<_> = rg
                .states()
                .filter(|&s| rg.marking(s).get(p.index()))
                .map(|s| enc.code(s).clone())
                .collect();
            let covered: std::collections::BTreeSet<_> = rg
                .states()
                .filter(|&s| cubes.cubes[p.index()].contains_vertex(enc.code(s)))
                .map(|s| enc.code(s).clone())
                .collect();
            assert_eq!(mr_codes, covered, "place {}", stg.net().place_name(p));
        }
    }

    #[test]
    fn fig5_pb_overestimates_as_predicted() {
        let stg = benchmarks::fig5_example();
        let (_, cubes) = cubes_for(&stg);
        let pb = stg.net().place_by_name("pb").unwrap();
        // cube(pb) = r=1, y=0, x and z free
        let cube = &cubes.cubes[pb.index()];
        assert_eq!(cube.literal_count(), 2);
        // it covers the unreachable code (r,x,z,y) = 1110
        let bad: Bits = [true, true, true, false].into_iter().collect();
        assert!(cube.contains_vertex(&bad));
    }

    #[test]
    fn no_undetermined_literals_on_suite() {
        for stg in benchmarks::synthesizable_suite() {
            let (_, cubes) = cubes_for(&stg);
            assert!(
                cubes.undetermined.is_empty(),
                "{}: undetermined literals {:?}",
                stg.name(),
                cubes.undetermined
            );
        }
    }
}
