//! Property suite of the protocol checker: on every generator family and
//! on random CFSM systems, every reported witness must replay through
//! [`ProtoSpace::replay`] to the state of the canonically-first
//! violation, and the text format must round-trip:
//! `parse_proto(write_proto(sys))` reproduces the canonical form and the
//! same report.

use proptest::prelude::*;
use si_petri::ReachOptions;
use si_proto::{
    check_deadlock_with, dining, fork_join, parse_proto, pipeline, ring, write_proto, ChannelKind,
    DeadlockReport, ProtoSpace, ProtoSystem,
};

/// Cap far above every system this suite builds: explorations must
/// finish, so every report is conclusive.
const CAP: usize = 500_000;

fn check(sys: &ProtoSystem) -> DeadlockReport {
    let Ok(report) = check_deadlock_with(sys, ReachOptions::with_cap(CAP));
    report
}

/// The pinned property: the check finishes, and its witness replays to
/// the state of the first violation, which exhibits that violation.
fn assert_witness_replays(sys: &ProtoSystem) {
    let report = check(sys);
    assert!(
        report.interrupted.is_none(),
        "{}: suite systems must fit the cap",
        sys.name()
    );
    assert!(report.is_conclusive());
    assert_eq!(
        report.trace_labels.is_some(),
        !report.is_ok(),
        "{}",
        sys.name()
    );
    if let Some(labels) = &report.trace_labels {
        let space = ProtoSpace::new(sys);
        let state = space.replay(labels).expect("witness must replay");
        assert_eq!(
            space.decode(&state),
            report.violations[0].state,
            "{}: witness target",
            sys.name()
        );
        assert!(space
            .violations_at(&state)
            .contains(&report.violations[0].violation));
    }
}

/// Round-trip through the text format reproduces the canonical form and
/// the same report.
fn assert_text_roundtrip(sys: &ProtoSystem) {
    let text = write_proto(sys);
    let again = parse_proto(&text).unwrap_or_else(|e| panic!("{}: reparse: {e}", sys.name()));
    assert_eq!(write_proto(&again), text, "{}: canonical form", sys.name());
    assert_eq!(
        check(&again).violations,
        check(sys).violations,
        "{}: report after round-trip",
        sys.name()
    );
}

#[test]
fn generator_families_witnesses_replay() {
    for sys in [
        ring(2),
        ring(5),
        ring(8),
        pipeline(1),
        pipeline(4),
        fork_join(1),
        fork_join(3),
        dining(2),
        dining(3),
        dining(5),
    ] {
        assert_witness_replays(&sys);
        assert_text_roundtrip(&sys);
    }
}

// ---------------------------------------------------------------------
// Random CFSM systems.

/// Raw material of one random channel: endpoint picks, kind, and the
/// local states its mandatory send/receive connect.
type ChanSpec = (u8, u8, u8, u8, u8, u8, u8);
/// Raw material of one extra transition: module pick, action pick,
/// channel pick, from, to.
type ExtraSpec = (u8, u8, u8, u8, u8);

fn arb_system() -> impl Strategy<Value = ProtoSystem> {
    (
        2..5usize,                            // modules
        proptest::collection::vec(1..4u8, 4), // states per module
        proptest::collection::vec(
            (
                any::<u8>(),
                any::<u8>(),
                0..3u8,
                any::<u8>(),
                any::<u8>(),
                any::<u8>(),
                any::<u8>(),
            ),
            1..4,
        ),
        proptest::collection::vec(
            (any::<u8>(), 0..3u8, any::<u8>(), any::<u8>(), any::<u8>()),
            0..8,
        ),
    )
        .prop_map(|(nmod, nstates, chans, extras)| build_system(nmod, &nstates, &chans, &extras))
}

/// Deterministically builds a *valid* system from raw picks: every
/// channel gets distinct endpoints plus its mandatory send/receive pair,
/// extra transitions are kept only when the module is the right endpoint.
fn build_system(
    nmod: usize,
    nstates: &[u8],
    chans: &[ChanSpec],
    extras: &[ExtraSpec],
) -> ProtoSystem {
    let states = |m: usize| nstates[m % nstates.len()].max(1) as usize;
    let name_of = |s: u8, m: usize| format!("s{}", s as usize % states(m));
    let mut b = ProtoSystem::builder("random");
    let mods: Vec<_> = (0..nmod).map(|i| b.module(format!("m{i}"))).collect();
    for (i, &m) in mods.iter().enumerate() {
        b.init(m, "s0");
        // A tau cycle over all states keeps every module connected (and
        // every state meaningful) regardless of the random transitions.
        for s in 0..states(i) {
            b.tau(m, &format!("s{s}"), &format!("s{}", (s + 1) % states(i)));
        }
    }
    let mut ends = Vec::new();
    for (ci, &(sp, rp, kind, sf, st, rf, rt)) in chans.iter().enumerate() {
        let sender = sp as usize % nmod;
        let receiver = (sender + 1 + rp as usize % (nmod - 1)) % nmod;
        let kind = match kind {
            0 => ChannelKind::Rendezvous,
            1 => ChannelKind::Buffered,
            _ => ChannelKind::Async,
        };
        let c = b.channel(format!("c{ci}"), kind);
        b.send(mods[sender], &name_of(sf, sender), &name_of(st, sender), c);
        b.recv(
            mods[receiver],
            &name_of(rf, receiver),
            &name_of(rt, receiver),
            c,
        );
        ends.push((sender, receiver, c));
    }
    for &(mp, action, cp, f, t) in extras {
        let m = mp as usize % nmod;
        let (sender, receiver, c) = ends[cp as usize % ends.len()];
        match action {
            0 => b.tau(mods[m], &name_of(f, m), &name_of(t, m)),
            1 if m == sender => b.send(mods[m], &name_of(f, m), &name_of(t, m), c),
            2 if m == receiver => b.recv(mods[m], &name_of(f, m), &name_of(t, m), c),
            _ => {} // wrong endpoint: dropping keeps point-to-point validity
        }
    }
    b.build().expect("random systems are valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random CFSM systems: witnesses replay.
    #[test]
    fn random_systems_witnesses_replay(sys in arb_system()) {
        assert_witness_replays(&sys);
    }

    /// Random systems survive the canonical-text round trip.
    #[test]
    fn random_systems_round_trip(sys in arb_system()) {
        assert_text_roundtrip(&sys);
    }
}
