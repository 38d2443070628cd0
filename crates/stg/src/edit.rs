//! STG edits for state-signal insertion (§VI: "by adding state signals,
//! the covers can always be reduced to nonintersecting").
//!
//! An [`InsertionPlan`] describes how one internal signal is woven into an
//! STG:
//!
//! * `x+` and `x-` are inserted by **splitting** two simple places — the
//!   transition pairs they connect become `t → x± → u`;
//! * optionally `x+` additionally **waits** for other transitions (join
//!   arcs, possibly initially marked) — the shape needed by e.g. the VME
//!   bus controller, where the rising edge must also wait for the release
//!   phase to finish.
//!
//! [`apply_insertion`] performs the surgery; [`apply_insertion_mapped`]
//! additionally returns the [`InsertionMap`] relating the node ids of the
//! two STGs, which the CSC search's cost model reads (old transition ids
//! are preserved; old place ids shift past the split positions).

use crate::signal::{Direction, SignalKind};
use crate::stg::Stg;
use si_petri::{PlaceId, TransId};

/// One candidate insertion of a state signal.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct InsertionPlan {
    /// The simple place split by the rising transition.
    pub rise_split: PlaceId,
    /// The simple place split by the falling transition.
    pub fall_split: PlaceId,
    /// Extra preset arcs of the rising transition: `(producer, marked)`.
    pub rise_waits: Vec<(TransId, bool)>,
}

/// How the nodes of an insertion result relate to the nodes of the input
/// STG. Transitions keep their ids (the two new transitions are appended);
/// unsplit places shift by the number of split positions before them, the
/// two split places become two halves each, and wait places are appended.
#[derive(Clone, Debug)]
pub struct InsertionMap {
    /// `old place → new place` (`None` for the two split places).
    pub place_to_new: Vec<Option<PlaceId>>,
    /// The rising transition `x+`.
    pub rise: TransId,
    /// The falling transition `x-`.
    pub fall: TransId,
}

/// Applies an insertion plan, producing a new STG with one more internal
/// signal named `name`.
///
/// # Panics
///
/// Panics if a split place is not simple (one producer, one consumer) or
/// is initially marked.
pub fn apply_insertion(stg: &Stg, name: &str, plan: &InsertionPlan) -> Stg {
    apply_insertion_mapped(stg, name, plan).0
}

/// Like [`apply_insertion`] but also returns the node-id correspondence.
///
/// # Panics
///
/// As [`apply_insertion`].
pub fn apply_insertion_mapped(stg: &Stg, name: &str, plan: &InsertionPlan) -> (Stg, InsertionMap) {
    let net = stg.net();
    for &p in [&plan.rise_split, &plan.fall_split] {
        assert_eq!(net.pre_p(p).len(), 1, "split place must be simple");
        assert_eq!(net.post_p(p).len(), 1, "split place must be simple");
        assert!(
            !net.initial_marking().get(p.index()),
            "split place must be unmarked"
        );
    }
    let mut b = Stg::builder(format!("{}_{}", stg.name(), name));
    // Signals.
    let mut sig_map = Vec::new();
    for s in stg.signals() {
        sig_map.push(b.add_signal(stg.signal_name(s), stg.signal_kind(s)));
    }
    let x = b.add_signal(name, SignalKind::Internal);
    // Transitions (same order ⇒ same ids).
    let mut t_map = Vec::new();
    for t in net.transitions() {
        let l = stg.label(t);
        t_map.push(b.add_transition_with_instance(
            sig_map[l.signal.index()],
            l.direction,
            l.instance,
        ));
    }
    let xp = b.add_transition(x, Direction::Rise);
    let xm = b.add_transition(x, Direction::Fall);

    // Places and arcs; split places are re-routed through x+/x-.
    let mut place_to_new: Vec<Option<PlaceId>> = vec![None; net.place_count()];
    let mut next_place = 0u32;
    for p in net.places() {
        if p == plan.rise_split || p == plan.fall_split {
            let xt = if p == plan.rise_split { xp } else { xm };
            let producer = t_map[net.pre_p(p)[0].index()];
            let consumer = t_map[net.post_p(p)[0].index()];
            b.arc(producer, xt);
            b.arc(xt, consumer);
            next_place += 2;
        } else {
            let np = b.add_place(net.place_name(p), net.initial_marking().get(p.index()));
            debug_assert_eq!(np.0, next_place);
            place_to_new[p.index()] = Some(np);
            next_place += 1;
            for &t in net.pre_p(p) {
                b.arc_tp(t_map[t.index()], np);
            }
            for &t in net.post_p(p) {
                b.arc_pt(np, t_map[t.index()]);
            }
        }
    }
    for &(producer, marked) in &plan.rise_waits {
        let wp = b.add_place(format!("<wait_{}>", producer.index()), marked);
        b.arc_tp(t_map[producer.index()], wp);
        b.arc_pt(wp, xp);
    }
    let map = InsertionMap {
        place_to_new,
        rise: xp,
        fall: xm,
    };
    (b.build(), map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn map_tracks_split_halves_and_waits() {
        let stg = benchmarks::half_handshake();
        let net = stg.net();
        let ap = stg.transition_by_display("a+").unwrap();
        let am = stg.transition_by_display("a-").unwrap();
        let bp = stg.transition_by_display("b+").unwrap();
        let plan = InsertionPlan {
            rise_split: net.post_t(ap)[0],
            fall_split: net.post_t(am)[0],
            rise_waits: vec![(bp, false)],
        };
        let (out, map) = apply_insertion_mapped(&stg, "x", &plan);
        assert_eq!(out.signal_count(), stg.signal_count() + 1);
        assert_eq!(out.net().transition_count(), net.transition_count() + 2);
        // Two splits add one place each; one wait adds another.
        assert_eq!(out.net().place_count(), net.place_count() + 3);
        // Transitions keep their ids; labels carry over.
        for t in net.transitions() {
            assert_eq!(out.transition_display(t), stg.transition_display(t));
        }
        assert_eq!(out.transition_display(map.rise), "x+");
        assert_eq!(out.transition_display(map.fall), "x-");
        // The map is injective on unsplit places and keeps their names.
        let mut images: Vec<PlaceId> = Vec::new();
        for (old, new) in map.place_to_new.iter().enumerate() {
            if let Some(np) = new {
                assert_eq!(
                    out.net().place_name(*np),
                    net.place_name(PlaceId(old as u32))
                );
                images.push(*np);
            }
        }
        assert_eq!(images.len(), net.place_count() - 2);
        images.sort_unstable();
        images.dedup();
        assert_eq!(images.len(), net.place_count() - 2);
        // The split places are unmapped; each is now two halves around
        // its new transition, and the wait place is a second input of x+.
        let onet = out.net();
        let bm = stg.transition_by_display("b-").unwrap();
        assert_eq!(map.place_to_new[plan.rise_split.index()], None);
        assert_eq!(map.place_to_new[plan.fall_split.index()], None);
        for (x, from, to) in [(map.rise, ap, bp), (map.fall, am, bm)] {
            let out_half = onet.post_t(x);
            assert_eq!(out_half.len(), 1);
            assert_eq!(onet.post_p(out_half[0]), &[to]);
            assert!(onet.pre_t(x).iter().any(|&h| onet.pre_p(h) == [from]));
        }
        assert_eq!(onet.pre_t(map.rise).len(), 2);
        let wait = onet
            .place_by_name(&format!("<wait_{}>", bp.index()))
            .unwrap();
        assert_eq!(onet.pre_p(wait), &[bp]);
        assert_eq!(onet.post_p(wait), &[map.rise]);
    }

    #[test]
    fn mapped_equals_unmapped() {
        let stg = benchmarks::vme_read_raw();
        let net = stg.net();
        let splittable: Vec<PlaceId> = net
            .places()
            .filter(|&p| {
                net.pre_p(p).len() == 1
                    && net.post_p(p).len() == 1
                    && !net.initial_marking().get(p.index())
            })
            .collect();
        let plan = InsertionPlan {
            rise_split: splittable[0],
            fall_split: splittable[1],
            rise_waits: Vec::new(),
        };
        let a = apply_insertion(&stg, "csc0", &plan);
        let (b, _) = apply_insertion_mapped(&stg, "csc0", &plan);
        assert_eq!(crate::parse::write_g(&a), crate::parse::write_g(&b));
    }
}
