//! Per-signal synthesis artifacts: content fingerprints and a wire form.
//!
//! The serving layer (`si-serve`) caches [`SignalClusters`] — the output of
//! the expensive [`derive_clusters`](crate::synthesis::derive_clusters)
//! search — per signal, addressed by [`signal_fingerprint`]. The
//! fingerprint covers the signal's full excitation/quiescence cover set
//! ([`SignalCovers`](crate::context::SignalCovers)) plus the options that
//! steer derivation, so an edit
//! that leaves a signal's covers untouched (e.g. a change in a concurrent
//! component) keys to the same artifact. The fingerprint is an *address*,
//! not a proof: `synthesize_signal` also reads broader context internals
//! (interleave relation, place covers, quiescent place sets), so consumers
//! must pass a cache hit through
//! [`revalidate_clusters`](crate::synthesis::revalidate_clusters) before
//! trusting it — soundness never rests on hash quality.
//!
//! The wire form addresses transitions by display name (`d+/2`) and cubes
//! in positional notation, so it round-trips between sessions that parsed
//! the same **canonical** `.g` text (see `si_stg::canonical_g`).

use crate::context::StructuralContext;
use crate::synthesis::{Architecture, SignalClusters, SynthesisOptions};
use si_boolean::hash::Fnv64;
use si_boolean::Cover;
use si_petri::TransId;
use si_stg::{SignalId, Stg};

fn hash_cover(h: &mut Fnv64, cover: &Cover) {
    h.write_usize(cover.cube_count());
    for cube in cover.cubes() {
        h.write_str(&cube.to_string());
    }
}

fn arch_tag(a: Architecture) -> &'static str {
    match a {
        Architecture::ComplexGate => "cg",
        Architecture::ExcitationFunction => "ef",
        Architecture::PerRegion => "pr",
    }
}

/// Content fingerprint of one signal's synthesis problem: the signal
/// alphabet (cube column meaning), the derivation-relevant options, and
/// the signal's complete cover set. Stable across sessions for the same
/// canonical specification.
pub fn signal_fingerprint(
    ctx: &StructuralContext<'_>,
    signal: SignalId,
    options: &SynthesisOptions,
) -> u64 {
    let stg = ctx.stg;
    let mut h = Fnv64::new();
    h.write_str("signal-fp-v1");
    for s in stg.signals() {
        h.write_str(stg.signal_name(s));
    }
    h.write_str(stg.signal_name(signal));
    h.write_str(arch_tag(options.architecture));
    let st = &options.stages;
    let bits = (st.expand as u64)
        | (st.merge as u64) << 1
        | (st.complete as u64) << 2
        | (st.collapse as u64) << 3
        | (st.backward as u64) << 4;
    h.write_u64(bits);
    h.write_str(options.minimizer.name());
    let sc = ctx.signal_covers(signal);
    for list in [&sc.rising, &sc.falling] {
        h.write_usize(list.len());
        for &t in list {
            h.write_str(&stg.transition_display(t));
            hash_cover(&mut h, &sc.er[&t]);
            hash_cover(&mut h, &sc.qr[&t]);
            hash_cover(&mut h, &sc.qr_restricted[&t]);
        }
    }
    for cover in [&sc.ger_rise, &sc.ger_fall, &sc.gqr_one, &sc.gqr_zero] {
        hash_cover(&mut h, cover);
    }
    h.finish()
}

fn write_side(out: &mut String, stg: &Stg, label: &str, side: &[(Vec<TransId>, Cover)]) {
    use std::fmt::Write;
    let _ = writeln!(out, "{} {}", label, side.len());
    for (own, cover) in side {
        let displays: Vec<String> = own.iter().map(|&t| stg.transition_display(t)).collect();
        let _ = writeln!(out, "own {}", displays.join(" "));
        let cubes: Vec<String> = cover.cubes().iter().map(|c| c.to_string()).collect();
        if cubes.is_empty() {
            let _ = writeln!(out, "cover");
        } else {
            let _ = writeln!(out, "cover {}", cubes.join(" "));
        }
    }
}

/// Serializes derived clusters to a stable text form (transition display
/// names + positional cubes).
pub fn clusters_to_wire(stg: &Stg, clusters: &SignalClusters) -> String {
    let mut out = format!("clusters-v1 signal={}\n", stg.signal_name(clusters.signal));
    write_side(&mut out, stg, "set", &clusters.set);
    write_side(&mut out, stg, "reset", &clusters.reset);
    out
}

fn read_side<'l>(
    stg: &Stg,
    lines: &mut std::str::Lines<'l>,
    label: &str,
) -> Option<Vec<(Vec<TransId>, Cover)>> {
    let w = stg.signal_count();
    let head = lines.next()?;
    let count: usize = head.strip_prefix(label)?.trim().parse().ok()?;
    let mut side = Vec::with_capacity(count);
    for _ in 0..count {
        let own_line = lines.next()?.strip_prefix("own ")?;
        let own: Option<Vec<TransId>> = own_line
            .split_whitespace()
            .map(|d| stg.transition_by_display(d))
            .collect();
        let cover_line = lines.next()?.strip_prefix("cover")?;
        let cubes: Option<Vec<si_boolean::Cube>> = cover_line
            .split_whitespace()
            .map(|c| c.parse().ok().filter(|c: &si_boolean::Cube| c.width() == w))
            .collect();
        side.push((own?, Cover::from_cubes(w, cubes?)));
    }
    Some(side)
}

/// Parses the [`clusters_to_wire`] form against a (canonically parsed)
/// STG. Returns `None` — a cache miss, never an error — when the text is
/// malformed or names transitions/widths the STG does not have.
pub fn clusters_from_wire(stg: &Stg, text: &str) -> Option<SignalClusters> {
    let mut lines = text.lines();
    let head = lines.next()?;
    let name = head.strip_prefix("clusters-v1 signal=")?;
    let signal = stg.signal_by_name(name)?;
    let set = read_side(stg, &mut lines, "set")?;
    let reset = read_side(stg, &mut lines, "reset")?;
    Some(SignalClusters { signal, set, reset })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::{derive_clusters, revalidate_clusters};
    use si_stg::benchmarks;

    #[test]
    fn wire_roundtrip_and_self_revalidation() {
        for stg in benchmarks::synthesizable_suite() {
            let ctx = StructuralContext::build(&stg).unwrap();
            for arch in [
                Architecture::ComplexGate,
                Architecture::ExcitationFunction,
                Architecture::PerRegion,
            ] {
                let options = SynthesisOptions {
                    architecture: arch,
                    ..Default::default()
                };
                for signal in stg.synthesized_signals() {
                    let clusters = derive_clusters(&ctx, signal, &options)
                        .unwrap_or_else(|e| panic!("{} {arch:?}: {e}", stg.name()));
                    let wire = clusters_to_wire(&stg, &clusters);
                    let back = clusters_from_wire(&stg, &wire)
                        .unwrap_or_else(|| panic!("{} {arch:?}:\n{wire}", stg.name()));
                    assert_eq!(back, clusters, "{} {arch:?}", stg.name());
                    // Freshly derived clusters must survive revalidation —
                    // otherwise the cache could never hit.
                    assert!(
                        revalidate_clusters(&ctx, &back, &options),
                        "{} {arch:?}: self-derived clusters failed revalidation",
                        stg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_signal_sensitive() {
        let stg = benchmarks::vme_read_csc();
        let ctx = StructuralContext::build(&stg).unwrap();
        let options = SynthesisOptions::default();
        let signals = stg.synthesized_signals();
        let fps: Vec<u64> = signals
            .iter()
            .map(|&s| signal_fingerprint(&ctx, s, &options))
            .collect();
        // Stable across recomputation (and, by construction, sessions).
        let ctx2 = StructuralContext::build(&stg).unwrap();
        for (&s, &fp) in signals.iter().zip(&fps) {
            assert_eq!(signal_fingerprint(&ctx2, s, &options), fp);
        }
        // Distinct per signal and sensitive to options.
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j]);
            }
        }
        let cg = SynthesisOptions {
            architecture: Architecture::ComplexGate,
            ..Default::default()
        };
        assert_ne!(signal_fingerprint(&ctx, signals[0], &cg), fps[0]);
    }

    #[test]
    fn malformed_wire_is_a_miss() {
        let stg = benchmarks::vme_read_csc();
        assert!(clusters_from_wire(&stg, "").is_none());
        assert!(clusters_from_wire(&stg, "clusters-v1 signal=nope\nset 0\nreset 0\n").is_none());
        assert!(clusters_from_wire(
            &stg,
            "clusters-v1 signal=d\nset 1\nown zz+\ncover\nreset 0\n"
        )
        .is_none());
    }
}
