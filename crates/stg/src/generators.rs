//! Scalable STG generators — the workloads of Tables VI and VII and the
//! generalized C-latch of Fig. 7.
//!
//! Each generator produces a family of specifications whose reachability
//! graph grows exponentially while the STG itself grows linearly — exactly
//! the regime where the paper's structural methods beat state-based tools.

use crate::signal::Direction::{Fall, Rise};
use crate::signal::SignalKind;
use crate::stg::Stg;

/// The generalized C-latch of Fig. 7: an n-input C-element closed on its
/// inputs through inverters.
///
/// Output `z` rises when all inputs are 1 and falls when all are 0; each
/// `z` edge releases a concurrent burst of input changes. The STG has
/// `2n + 2` transitions and `4n` places but `2^(n+1)` reachable markings —
/// with `n = 90` that exceeds the paper's 10²⁷-state claim.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn clatch(n: usize) -> Stg {
    assert!(n > 0, "clatch needs at least one input");
    let mut b = Stg::builder(format!("clatch_{n}"));
    let z = b.add_signal("z", SignalKind::Output);
    let xs: Vec<_> = (0..n)
        .map(|i| b.add_signal(format!("x{i}"), SignalKind::Input))
        .collect();
    let zp = b.add_transition(z, Rise);
    let zm = b.add_transition(z, Fall);
    for &x in &xs {
        let xp = b.add_transition(x, Rise);
        let xm = b.add_transition(x, Fall);
        // z- -> x+ -> z+ -> x- -> z- ring per input.
        let p0 = b.arc(zm, xp); // marked: initially all inputs may rise
        b.mark_place(p0);
        b.arc(xp, zp);
        b.arc(zp, xm);
        b.arc(xm, zm);
    }
    b.build()
}

/// A Muller pipeline of `n` C-element stages (Table VII).
///
/// Stage `i` implements `c_i = C(c_{i-1}, ¬c_{i+1})`; the left environment
/// drives the input `r`, the right end is free-running. The net is a marked
/// graph; the number of reachable markings grows exponentially with `n`
/// (pipeline occupancy patterns).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn muller_pipeline(n: usize) -> Stg {
    assert!(n > 0, "pipeline needs at least one stage");
    let mut b = Stg::builder(format!("muller_{n}"));
    let r = b.add_signal("r", SignalKind::Input);
    let cs: Vec<_> = (0..n)
        .map(|i| b.add_signal(format!("c{i}"), SignalKind::Output))
        .collect();
    let rp = b.add_transition(r, Rise);
    let rm = b.add_transition(r, Fall);
    let cp: Vec<_> = cs.iter().map(|&c| b.add_transition(c, Rise)).collect();
    let cm: Vec<_> = cs.iter().map(|&c| b.add_transition(c, Fall)).collect();
    // Left environment: r toggles after stage 0 acknowledges.
    b.arc(rp, cp[0]);
    b.arc(rm, cm[0]);
    let p = b.arc(cp[0], rm);
    let _ = p;
    let p0 = b.arc(cm[0], rp);
    b.mark_place(p0);
    for i in 1..n {
        // data forward: c_{i-1}+ -> c_i+, c_{i-1}- -> c_i-
        b.arc(cp[i - 1], cp[i]);
        b.arc(cm[i - 1], cm[i]);
        // acknowledgement backward: c_i+ -> c_{i-1}-, c_i- -> c_{i-1}+
        b.arc(cp[i], cm[i - 1]);
        let back = b.arc(cm[i], cp[i - 1]);
        b.mark_place(back); // initially all stages low: rises are allowed
    }
    b.build()
}

/// Dining philosophers (Table VII): `n` philosophers, `n` shared forks —
/// a live, safe but **non-free-choice** net that is still SM-coverable.
///
/// Philosopher `i` grabs forks `i` and `(i+1) mod n` with the input event
/// `eat_i+`, is served (`done_i+`, output), releases the forks (`eat_i-`)
/// and is cleaned up (`done_i-`, output).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn philosophers(n: usize) -> Stg {
    assert!(n >= 2, "need at least two philosophers");
    let mut b = Stg::builder(format!("phil_{n}"));
    let eat: Vec<_> = (0..n)
        .map(|i| b.add_signal(format!("eat{i}"), SignalKind::Input))
        .collect();
    let done: Vec<_> = (0..n)
        .map(|i| b.add_signal(format!("done{i}"), SignalKind::Output))
        .collect();
    let forks: Vec<_> = (0..n)
        .map(|i| b.add_place(format!("fork{i}"), true))
        .collect();
    for i in 0..n {
        let thinking = b.add_place(format!("thinking{i}"), true);
        let eating = b.add_place(format!("eating{i}"), false);
        let served = b.add_place(format!("served{i}"), false);
        let cleanup = b.add_place(format!("cleanup{i}"), false);
        let take = b.add_transition(eat[i], Rise);
        let serve = b.add_transition(done[i], Rise);
        let release = b.add_transition(eat[i], Fall);
        let clean = b.add_transition(done[i], Fall);
        b.arc_pt(thinking, take);
        b.arc_pt(forks[i], take);
        b.arc_pt(forks[(i + 1) % n], take);
        b.arc_tp(take, eating);
        b.arc_pt(eating, serve);
        b.arc_tp(serve, served);
        b.arc_pt(served, release);
        b.arc_tp(release, cleanup);
        b.arc_tp(release, forks[i]);
        b.arc_tp(release, forks[(i + 1) % n]);
        b.arc_pt(cleanup, clean);
        b.arc_tp(clean, thinking);
    }
    b.build()
}

/// A fork/join burst controller: request `r` spawns `n` concurrent
/// two-phase handshakes (`a_i` out, `b_i` in), the completion detector `d`
/// joins them (the `pe-send-ifc` archetype of Table V/VI).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn burst(n: usize) -> Stg {
    assert!(n > 0, "burst needs at least one branch");
    let mut b = Stg::builder(format!("burst_{n}"));
    let r = b.add_signal("r", SignalKind::Input);
    let d = b.add_signal("d", SignalKind::Output);
    let rp = b.add_transition(r, Rise);
    let rm = b.add_transition(r, Fall);
    let dp = b.add_transition(d, Rise);
    let dm = b.add_transition(d, Fall);
    for i in 0..n {
        let a = b.add_signal(format!("a{i}"), SignalKind::Output);
        let bb = b.add_signal(format!("b{i}"), SignalKind::Input);
        let ap = b.add_transition(a, Rise);
        let am = b.add_transition(a, Fall);
        let bp = b.add_transition(bb, Rise);
        let bm = b.add_transition(bb, Fall);
        b.arc(rp, ap);
        b.arc(ap, bp);
        b.arc(bp, dp);
        b.arc(rm, am);
        b.arc(am, bm);
        b.arc(bm, dm);
    }
    b.arc(dp, rm);
    let p0 = b.arc(dm, rp);
    b.mark_place(p0);
    b.build()
}

/// A sequencer: `n` four-phase handshakes (`r_i` in, `a_i` out) performed
/// strictly in order around a ring — long chains, no concurrency (the
/// `seq` archetype; exercises adjacency and QPS on deep paths).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn sequencer(n: usize) -> Stg {
    assert!(n > 0, "sequencer needs at least one stage");
    let mut b = Stg::builder(format!("seq_{n}"));
    let mut prev_last = None;
    let mut first = None;
    for i in 0..n {
        let r = b.add_signal(format!("r{i}"), SignalKind::Input);
        let a = b.add_signal(format!("a{i}"), SignalKind::Output);
        let rp = b.add_transition(r, Rise);
        let ap = b.add_transition(a, Rise);
        let rm = b.add_transition(r, Fall);
        let am = b.add_transition(a, Fall);
        b.arc(rp, ap);
        b.arc(ap, rm);
        b.arc(rm, am);
        if let Some(last) = prev_last {
            b.arc(last, rp);
        } else {
            first = Some(rp);
        }
        prev_last = Some(am);
    }
    let p0 = b.arc(prev_last.unwrap(), first.unwrap());
    b.mark_place(p0);
    b.build()
}

/// A VME-style bus controller with an `n`-stage internal data chain — a
/// scalable family with a **genuine CSC conflict** (the `vme_read_raw`
/// archetype): after the release phase `lds- ; ldtack-` the controller
/// returns to the binary code of the initial state while the underlying
/// marking differs, so synthesis must insert a state signal. The chain
/// signals `c0 … c{n-1}` rise between `ldtack+` and `d+` and fall between
/// `dsr-` and `d-`; they are all low in both conflicting states, so the
/// conflict survives at every `n` while the STG (and the CSC-insertion
/// search space) grows linearly.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn vme_chain(n: usize) -> Stg {
    assert!(n > 0, "vme_chain needs at least one chain stage");
    let mut b = Stg::builder(format!("vmechain_{n}"));
    let dsr = b.add_signal("dsr", SignalKind::Input);
    let ldtack = b.add_signal("ldtack", SignalKind::Input);
    let lds = b.add_signal("lds", SignalKind::Output);
    let d = b.add_signal("d", SignalKind::Output);
    let dtack = b.add_signal("dtack", SignalKind::Output);
    let cs: Vec<_> = (0..n)
        .map(|i| b.add_signal(format!("c{i}"), SignalKind::Output))
        .collect();
    let dsrp = b.add_transition(dsr, Rise);
    let dsrm = b.add_transition(dsr, Fall);
    let ldtackp = b.add_transition(ldtack, Rise);
    let ldtackm = b.add_transition(ldtack, Fall);
    let ldsp = b.add_transition(lds, Rise);
    let ldsm = b.add_transition(lds, Fall);
    let dp = b.add_transition(d, Rise);
    let dm = b.add_transition(d, Fall);
    let dtackp = b.add_transition(dtack, Rise);
    let dtackm = b.add_transition(dtack, Fall);
    // Request: dsr+ ; lds+ ; ldtack+ ; c0+ ; … ; c{n-1}+ ; d+ ; dtack+ ; dsr-.
    b.arc(dsrp, ldsp);
    b.arc(ldsp, ldtackp);
    let mut prev = ldtackp;
    for &c in &cs {
        let cp = b.add_transition(c, Rise);
        b.arc(prev, cp);
        prev = cp;
    }
    b.arc(prev, dp);
    b.arc(dp, dtackp);
    b.arc(dtackp, dsrm);
    // Release: dsr- ; c0- ; … ; c{n-1}- ; d- ; then dtack- ∥ (lds- ; ldtack-).
    let mut prev = dsrm;
    for &c in &cs {
        let cm = b.add_transition(c, Fall);
        b.arc(prev, cm);
        prev = cm;
    }
    b.arc(prev, dm);
    b.arc(dm, dtackm);
    b.arc(dm, ldsm);
    b.arc(ldsm, ldtackm);
    // lds+ rejoins the ldtack handshake: it waits for dsr+ AND ldtack-.
    let ploop = b.arc(ldtackm, ldsp);
    b.mark_place(ploop);
    let p0 = b.arc(dtackm, dsrp);
    b.mark_place(p0);
    b.build()
}

/// The concurrent sibling of [`vme_chain`]: the same VME-style CSC
/// conflict, but the `n` internal stages run as a **parallel burst**
/// (`ldtack+` forks `c0+ … c{n-1}+`, `d+` joins them; `dsr-` forks the
/// falling burst, `d-` joins). The conflict core stays the same size
/// while almost every place is concurrent with the inserted state signal,
/// so each candidate's structural context refines a highly concurrent
/// net.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn vme_burst(n: usize) -> Stg {
    assert!(n > 0, "vme_burst needs at least one branch");
    let mut b = Stg::builder(format!("vmeburst_{n}"));
    let dsr = b.add_signal("dsr", SignalKind::Input);
    let ldtack = b.add_signal("ldtack", SignalKind::Input);
    let lds = b.add_signal("lds", SignalKind::Output);
    let d = b.add_signal("d", SignalKind::Output);
    let dtack = b.add_signal("dtack", SignalKind::Output);
    let cs: Vec<_> = (0..n)
        .map(|i| b.add_signal(format!("c{i}"), SignalKind::Output))
        .collect();
    let dsrp = b.add_transition(dsr, Rise);
    let dsrm = b.add_transition(dsr, Fall);
    let ldtackp = b.add_transition(ldtack, Rise);
    let ldtackm = b.add_transition(ldtack, Fall);
    let ldsp = b.add_transition(lds, Rise);
    let ldsm = b.add_transition(lds, Fall);
    let dp = b.add_transition(d, Rise);
    let dm = b.add_transition(d, Fall);
    let dtackp = b.add_transition(dtack, Rise);
    let dtackm = b.add_transition(dtack, Fall);
    // Request: dsr+ ; lds+ ; ldtack+ ; (c0+ ∥ … ∥ c{n-1}+) ; d+ ; dtack+.
    b.arc(dsrp, ldsp);
    b.arc(ldsp, ldtackp);
    let mut falls = Vec::with_capacity(n);
    for &c in &cs {
        let cp = b.add_transition(c, Rise);
        b.arc(ldtackp, cp);
        b.arc(cp, dp);
        falls.push(b.add_transition(c, Fall));
    }
    b.arc(dp, dtackp);
    b.arc(dtackp, dsrm);
    // Release: dsr- ; (c0- ∥ … ∥ c{n-1}-) ; d- ; then dtack- ∥ (lds- ; ldtack-).
    for &cm in &falls {
        b.arc(dsrm, cm);
        b.arc(cm, dm);
    }
    b.arc(dm, dtackm);
    b.arc(dm, ldsm);
    b.arc(ldsm, ldtackm);
    let ploop = b.arc(ldtackm, ldsp);
    b.mark_place(ploop);
    let p0 = b.arc(dtackm, dsrp);
    b.mark_place(p0);
    b.build()
}

/// A free-choice selector: the environment picks one of `n` request lines;
/// each is served by its own acknowledge output (the `mmu`/`trimos`
/// choice-controller archetype).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn selector(n: usize) -> Stg {
    assert!(n >= 2, "selector needs at least two alternatives");
    let mut b = Stg::builder(format!("select_{n}"));
    let p0 = b.add_place("idle", true);
    for i in 0..n {
        let r = b.add_signal(format!("r{i}"), SignalKind::Input);
        let a = b.add_signal(format!("a{i}"), SignalKind::Output);
        let rp = b.add_transition(r, Rise);
        let ap = b.add_transition(a, Rise);
        let rm = b.add_transition(r, Fall);
        let am = b.add_transition(a, Fall);
        b.arc_pt(p0, rp);
        b.arc(rp, ap);
        b.arc(ap, rm);
        b.arc(rm, am);
        b.arc_tp(am, p0);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_petri::ReachabilityGraph;

    fn check_basics(stg: &Stg, expect_fc: bool, cap: usize) -> ReachabilityGraph {
        assert_eq!(stg.net().is_free_choice(), expect_fc, "{}", stg.name());
        let rg = ReachabilityGraph::build(stg.net(), cap).expect("safe net");
        assert!(rg.is_live(stg.net()), "{} must be live", stg.name());
        let enc = crate::encode::StateEncoding::compute(stg, &rg);
        assert!(enc.is_ok(), "{} must be consistent", stg.name());
        rg
    }

    #[test]
    fn clatch_state_count_is_exponential() {
        for n in 1..=6 {
            let stg = clatch(n);
            let rg = check_basics(&stg, true, 10_000);
            assert_eq!(rg.state_count(), 1 << (n + 1), "clatch({n})");
        }
    }

    #[test]
    fn muller_pipeline_grows() {
        let mut prev = 0;
        for n in 1..=6 {
            let stg = muller_pipeline(n);
            let rg = check_basics(&stg, true, 100_000);
            assert!(rg.state_count() > prev);
            prev = rg.state_count();
        }
        // marked graph
        assert!(muller_pipeline(4).net().is_marked_graph());
    }

    #[test]
    fn philosophers_non_fc_but_live() {
        let stg = philosophers(3);
        assert!(!stg.net().is_free_choice());
        let rg = ReachabilityGraph::build(stg.net(), 100_000).unwrap();
        assert!(rg.is_live(stg.net()));
        // SM-coverable despite being non-FC
        let cover = si_petri::sm_cover(stg.net()).expect("SM-coverable");
        assert!(!cover.is_empty());
    }

    #[test]
    fn burst_is_consistent_and_concurrent() {
        let stg = burst(3);
        let rg = check_basics(&stg, true, 100_000);
        // branches run concurrently: more states than a pure sequence
        assert!(rg.state_count() > 14);
        assert!(crate::encode::semimodularity_violations(&stg, &rg).is_empty());
    }

    #[test]
    fn sequencer_is_a_simple_cycle() {
        let stg = sequencer(3);
        let rg = check_basics(&stg, true, 1000);
        assert_eq!(rg.state_count(), 12); // 4 phases x 3 stages
    }

    #[test]
    fn vme_chain_and_burst_have_genuine_csc_conflicts() {
        for stg in [vme_chain(1), vme_chain(4), vme_burst(1), vme_burst(4)] {
            let rg = check_basics(&stg, true, 100_000);
            let enc = crate::encode::StateEncoding::compute(&stg, &rg).unwrap();
            let coding = crate::encode::CodingAnalysis::compute(&stg, &rg, &enc);
            assert!(
                !coding.has_csc(),
                "{} must carry the VME CSC conflict",
                stg.name()
            );
        }
        // n = 1 of both families degenerates to the same shape.
        assert_eq!(
            vme_chain(1).net().place_count(),
            vme_burst(1).net().place_count()
        );
    }

    #[test]
    fn vme_chain_grows_linearly() {
        let small = vme_chain(2);
        let large = vme_chain(10);
        assert_eq!(
            large.net().transition_count() - small.net().transition_count(),
            16
        );
        let rg = ReachabilityGraph::build(large.net(), 100_000).unwrap();
        assert!(rg.is_live(large.net()));
    }

    #[test]
    fn selector_has_choice() {
        let stg = selector(3);
        let rg = check_basics(&stg, true, 1000);
        assert_eq!(rg.state_count(), 1 + 3 * 3); // idle + 3 per branch...
        let enc = crate::encode::StateEncoding::compute(&stg, &rg).unwrap();
        let coding = crate::encode::CodingAnalysis::compute(&stg, &rg, &enc);
        assert!(coding.has_csc(), "selector must satisfy CSC");
        assert!(crate::encode::semimodularity_violations(&stg, &rg).is_empty());
    }
}
