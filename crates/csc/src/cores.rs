//! Conflict-core extraction and targeted candidate generation.
//!
//! A **conflict core** is the structural obstruction behind an unresolved
//! CSC verdict: a preset place `p` of a synthesized transition `t` for
//! which no SM-component free of Theorem 14 witnesses exists — together
//! with the witness places `q` whose (refined) cover still intersects the
//! excitation cover `C(t)`. The refinement rounds of the
//! [`StructuralContext`] could not separate these ER/QR covers, so a state
//! signal must be inserted to tell the two regions apart.
//!
//! Because the separating signal has to flip *between* the core's regions,
//! useful insertion points cluster around the core in the net graph. The
//! candidate generator ([`CandidateTiers`]) exploits that: it emits
//! insertion plans in expanding-radius tiers around the cores — nearest
//! first — and only degenerates to the full blind enumeration (the
//! pre-subsystem search space) in the last tier. Together the tiers cover
//! exactly the old search space, just ordered by how likely a candidate
//! is to break a core; a finite budget is spent on the core-proximal
//! subset first. A plan's tier depends only on its own nodes, so each
//! tier is generated when the search reaches it, with no dedup set.

use si_core::{CscVerdict, StructuralContext};
use si_petri::{PetriNet, PlaceId, TransId};
use si_stg::InsertionPlan;

/// One structural CSC obstruction (Theorem 14): a preset place of a
/// synthesized transition that no witness-free SM-component covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictCore {
    /// The unresolved preset place `p`.
    pub place: PlaceId,
    /// The synthesized transitions `t` with `p ∈ •t` whose ER the
    /// refinement could not separate.
    pub transitions: Vec<TransId>,
    /// Witness places `q` (within the SM-cover components containing `p`)
    /// whose cover intersects some `C(t)`.
    pub witnesses: Vec<PlaceId>,
}

/// Extracts the conflict cores of a context whose CSC verdict is
/// [`CscVerdict::Unknown`]; empty when CSC already holds.
pub fn conflict_cores(ctx: &StructuralContext<'_>) -> Vec<ConflictCore> {
    let CscVerdict::Unknown { places } = ctx.csc_verdict() else {
        return Vec::new();
    };
    let stg = ctx.stg;
    let net = stg.net();
    places
        .into_iter()
        .map(|p| {
            let mut transitions = Vec::new();
            let mut witnesses = Vec::new();
            for &t in net.post_p(p) {
                if !stg.signal_kind(stg.signal_of(t)).is_synthesized() {
                    continue;
                }
                transitions.push(t);
                let er = ctx.er_cover(t);
                let sig = stg.signal_of(t);
                for sm in &ctx.sm_cover {
                    if !sm.contains_place(p) {
                        continue;
                    }
                    for &q in sm.places() {
                        if q == p {
                            continue;
                        }
                        // Same-signal-feeding places cannot witness
                        // (Theorem 14, condition 2).
                        if net.post_p(q).iter().any(|&u| stg.signal_of(u) == sig) {
                            continue;
                        }
                        if ctx.place_cover[q.index()].intersects(&er) {
                            witnesses.push(q);
                        }
                    }
                }
            }
            witnesses.sort_unstable();
            witnesses.dedup();
            ConflictCore {
                place: p,
                transitions,
                witnesses,
            }
        })
        .collect()
}

/// The places an insertion may split: simple (one producer, one consumer),
/// initially unmarked, and delaying only a synthesized transition —
/// inserting state signals in front of environment transitions would
/// change the interface contract (input properness).
fn splittable_places(ctx: &StructuralContext<'_>) -> Vec<PlaceId> {
    let stg = ctx.stg;
    let net = stg.net();
    net.places()
        .filter(|&p| {
            net.pre_p(p).len() == 1
                && net.post_p(p).len() == 1
                && !net.initial_marking().get(p.index())
                && stg
                    .signal_kind(stg.signal_of(net.post_p(p)[0]))
                    .is_synthesized()
        })
        .collect()
}

/// Undirected arc-hop distance from the core seed transitions to every
/// transition (`t → p → t'` counts one hop).
fn core_distances(ctx: &StructuralContext<'_>, cores: &[ConflictCore]) -> Vec<usize> {
    let net = ctx.stg.net();
    let nt = net.transition_count();
    let mut dist = vec![usize::MAX; nt];
    let mut frontier: Vec<TransId> = Vec::new();
    let seed = |t: TransId, dist: &mut Vec<usize>, frontier: &mut Vec<TransId>| {
        if dist[t.index()] == usize::MAX {
            dist[t.index()] = 0;
            frontier.push(t);
        }
    };
    for core in cores {
        for &t in &core.transitions {
            seed(t, &mut dist, &mut frontier);
        }
        for &p in std::iter::once(&core.place).chain(&core.witnesses) {
            for &t in net.pre_p(p).iter().chain(net.post_p(p)) {
                seed(t, &mut dist, &mut frontier);
            }
        }
    }
    while let Some(t) = frontier.pop() {
        let d = dist[t.index()] + 1;
        for &p in net.post_t(t).iter().chain(net.pre_t(t)) {
            for &u in net.post_p(p).iter().chain(net.pre_p(p)) {
                if dist[u.index()] > d {
                    dist[u.index()] = d;
                    frontier.push(u);
                }
            }
        }
    }
    dist
}

/// The radius of each candidate tier, nearest first; the last tier is
/// the rest of the blind search space.
const RADII: [usize; 4] = [1, 2, 3, usize::MAX];

/// The insertion candidates targeted at breaking a set of conflict cores,
/// as expanding-radius tiers generated on demand.
///
/// A plan's tier is the first of the radii 1, 2, 3 and unbounded that
/// holds its rise place, its fall place and its wait transition, measured
/// in arc hops from the cores. Tier `k` walks the shapes of the blind
/// search whose nodes lie within its radius, in the blind search's order,
/// and keeps the plans of tier `k`: the tiers are disjoint, and together
/// they cover exactly the search space of [`crate::resolve_csc_blind`],
/// only ordered by core proximity. Nothing is generated before it is
/// consumed, so a search pays for the plans it scores, not for its
/// budget.
#[derive(Debug)]
pub struct CandidateTiers<'a> {
    net: &'a PetriNet,
    splittable: Vec<PlaceId>,
    dist: Vec<usize>,
}

impl<'a> CandidateTiers<'a> {
    /// The number of tiers.
    pub(crate) const TIERS: usize = RADII.len();

    /// The tiers around `cores`, over the splittable places of `ctx`.
    pub fn new(ctx: &StructuralContext<'a>, cores: &[ConflictCore]) -> Self {
        CandidateTiers {
            net: ctx.stg.net(),
            splittable: splittable_places(ctx),
            dist: core_distances(ctx, cores),
        }
    }

    /// How many plans the tiers hold together: `P(P−1)` plain splits plus
    /// `(P−1)·Σ_p 2(T − |{•p, p•}|)` with one wait arc, for the splittable
    /// places `P` and the transition count `T`.
    pub(crate) fn count(&self) -> usize {
        let net = self.net;
        let others = self.splittable.len().saturating_sub(1);
        let waits: usize = self
            .splittable
            .iter()
            .map(|&p| {
                let junk = if net.pre_p(p) == net.post_p(p) { 1 } else { 2 };
                2 * (net.transition_count() - junk)
            })
            .sum();
        self.splittable.len() * others + others * waits
    }

    /// The plans of tier `k` (`k < TIERS`), generated as they are
    /// consumed.
    pub(crate) fn tier(&self, k: usize) -> impl Iterator<Item = InsertionPlan> + '_ {
        let net = self.net;
        let radius = RADII[k];
        let places = move || {
            self.splittable
                .iter()
                .copied()
                .filter(move |&p| self.place_dist(p) <= radius)
        };
        let pairs = move || {
            places().flat_map(move |rise| {
                places()
                    .filter(move |&fall| fall != rise)
                    .map(move |fall| (rise, fall, self.place_dist(rise).max(self.place_dist(fall))))
            })
        };
        // Pass 1: plain arc splits. Pass 2: with one wait arc (marked and
        // unmarked variants) — the same shapes as the blind search.
        let plain = pairs()
            .filter(move |&(_, _, d)| tier_of(d) == k)
            .map(|(rise, fall, _)| (rise, fall, None));
        let waited = pairs().flat_map(move |(rise, fall, d)| {
            net.transitions()
                // A wait from the transitions x+ sits between is cyclic
                // junk.
                .filter(move |&t| t != net.post_p(rise)[0] && t != net.pre_p(rise)[0])
                .filter(move |&t| tier_of(d.max(self.dist[t.index()])) == k)
                .flat_map(move |t| [true, false].map(|marked| (rise, fall, Some((t, marked)))))
        });
        plain
            .chain(waited)
            .map(|(rise_split, fall_split, wait)| InsertionPlan {
                rise_split,
                fall_split,
                rise_waits: wait.into_iter().collect(),
            })
    }

    /// Every plan, tier by tier.
    pub fn plans(&self) -> impl Iterator<Item = InsertionPlan> + '_ {
        (0..Self::TIERS).flat_map(|k| self.tier(k))
    }

    /// A split place's distance: that of the nearer of its two transitions.
    fn place_dist(&self, p: PlaceId) -> usize {
        let (pre, post) = (self.net.pre_p(p)[0], self.net.post_p(p)[0]);
        self.dist[pre.index()].min(self.dist[post.index()])
    }
}

/// The tier of a plan whose farthest node lies `d` hops from the cores.
fn tier_of(d: usize) -> usize {
    RADII.iter().take_while(|&&radius| d > radius).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn vme_cores_point_at_the_conflict() {
        let stg = si_stg::benchmarks::vme_read_raw();
        let ctx = StructuralContext::build(&stg).unwrap();
        let cores = conflict_cores(&ctx);
        assert!(!cores.is_empty());
        for core in &cores {
            assert!(!core.transitions.is_empty(), "core without transitions");
            assert!(!core.witnesses.is_empty(), "core without witnesses");
        }
    }

    #[test]
    fn clean_stg_has_no_cores() {
        let stg = si_stg::benchmarks::burst2();
        let ctx = StructuralContext::build(&stg).unwrap();
        assert!(conflict_cores(&ctx).is_empty());
    }

    /// The eager generator the on-demand tiers replaced, kept as their
    /// reference: every radius loop in turn, deduplicated across tiers by
    /// a `seen` set, at most `limit` plans in total, empty tiers dropped.
    fn reference_tiers(
        ctx: &StructuralContext<'_>,
        cores: &[ConflictCore],
        limit: usize,
    ) -> Vec<Vec<InsertionPlan>> {
        let net = ctx.stg.net();
        let splittable = splittable_places(ctx);
        let dist = core_distances(ctx, cores);
        let place_dist =
            |p: PlaceId| dist[net.pre_p(p)[0].index()].min(dist[net.post_p(p)[0].index()]);
        let mut tiers: Vec<Vec<InsertionPlan>> = Vec::new();
        let mut seen: HashSet<InsertionPlan> = HashSet::new();
        let mut total = 0usize;
        'tiers: for radius in [1usize, 2, 3, usize::MAX] {
            let tier_places: Vec<PlaceId> = splittable
                .iter()
                .copied()
                .filter(|&p| radius == usize::MAX || place_dist(p) <= radius)
                .collect();
            let tier_waits: Vec<TransId> = net
                .transitions()
                .filter(|&t| radius == usize::MAX || dist[t.index()] <= radius)
                .collect();
            let mut tier = Vec::new();
            for with_waits in [false, true] {
                for &rise in &tier_places {
                    for &fall in &tier_places {
                        if rise == fall {
                            continue;
                        }
                        let wait_options: Vec<Vec<(TransId, bool)>> = if with_waits {
                            tier_waits
                                .iter()
                                .flat_map(|&t| [vec![(t, true)], vec![(t, false)]])
                                .collect()
                        } else {
                            vec![Vec::new()]
                        };
                        for rise_waits in wait_options {
                            if rise_waits
                                .iter()
                                .any(|&(t, _)| t == net.post_p(rise)[0] || t == net.pre_p(rise)[0])
                            {
                                continue;
                            }
                            if total >= limit {
                                if !tier.is_empty() {
                                    tiers.push(tier);
                                }
                                break 'tiers;
                            }
                            let plan = InsertionPlan {
                                rise_split: rise,
                                fall_split: fall,
                                rise_waits,
                            };
                            if seen.insert(plan.clone()) {
                                tier.push(plan);
                                total += 1;
                            }
                        }
                    }
                }
            }
            if !tier.is_empty() {
                tiers.push(tier);
            }
        }
        tiers
    }

    /// The on-demand tiers as the search consumes them: at most `limit`
    /// plans in total, empty tiers dropped.
    fn on_demand_tiers(tiers: &CandidateTiers<'_>, limit: usize) -> Vec<Vec<InsertionPlan>> {
        let mut left = limit;
        (0..CandidateTiers::TIERS)
            .map(|k| {
                let tier: Vec<InsertionPlan> = tiers.tier(k).take(left).collect();
                left -= tier.len();
                tier
            })
            .filter(|tier| !tier.is_empty())
            .collect()
    }

    #[test]
    fn on_demand_tiers_match_the_eager_reference() {
        use si_stg::generators::{vme_burst, vme_chain};
        let mut specs = vec![si_stg::benchmarks::vme_read_raw()];
        specs.extend((1..=8).map(vme_chain));
        specs.extend((1..=3).map(vme_burst));
        for spec in specs {
            // Both text forms: their node numberings, and so the plan
            // orders, differ.
            for text in [si_stg::write_g(&spec), si_stg::canonical_g(&spec)] {
                let stg = si_stg::parse_g(&text).expect("round trip");
                let ctx = StructuralContext::build(&stg).unwrap();
                let cores = conflict_cores(&ctx);
                let tiers = CandidateTiers::new(&ctx, &cores);
                for limit in [50, 1000, usize::MAX] {
                    let reference = reference_tiers(&ctx, &cores, limit);
                    let total: usize = reference.iter().map(Vec::len).sum();
                    assert_eq!(tiers.count().min(limit), total, "{} at {limit}", stg.name());
                    assert!(
                        on_demand_tiers(&tiers, limit) == reference,
                        "{} at {limit}: tiers differ",
                        stg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn targeted_candidates_are_tiered_and_complete() {
        let stg = si_stg::benchmarks::vme_read_raw();
        let ctx = StructuralContext::build(&stg).unwrap();
        let cores = conflict_cores(&ctx);
        let tiers = CandidateTiers::new(&ctx, &cores);
        assert_eq!(tiers.plans().take(50).count(), 50);
        // The tiers reach the blind search space: all ordered pairs
        // without waits appear somewhere.
        let all: Vec<InsertionPlan> = tiers.plans().collect();
        assert_eq!(all.len(), tiers.count());
        let splittable = splittable_places(&ctx);
        let pair_count = splittable.len() * (splittable.len() - 1);
        let no_wait = all.iter().filter(|p| p.rise_waits.is_empty()).count();
        assert_eq!(no_wait, pair_count);
        // No duplicates.
        let set: HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
    }
}
