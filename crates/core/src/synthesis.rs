//! The synthesis methodology (§VIII + Appendix).
//!
//! Two-step heuristic synthesis: derive initial set/reset excitation covers
//! satisfying the implementability conditions, then apply the minimization
//! stages of the Appendix while re-validating correctness and monotonicity
//! structurally after every transformation:
//!
//! | stage | transformation | paper |
//! |-------|----------------|-------|
//! | M0 | literal expansion toward QR and dc-set | App. C |
//! | M1 | transition-cluster merging | App. A/C |
//! | M2 | complete region covers (drop the latch) | App. B |
//! | M3 | collapsing of memory elements (gC / gated latch) | App. D |
//! | M4 | backward region expansions | App. E |

use crate::checks::{check_cluster, monotonicity_violation, off_set_cover, CoverRole};
use crate::circuit::{Circuit, ImplKind, SignalImplementation};
use crate::context::{CscVerdict, SignalCovers, StructuralContext, SynthesisError};
use si_boolean::{Cover, Cube, MinimizeResult, Minimizer};
use si_petri::TransId;
use si_stg::{SignalId, Stg};

/// Run a minimizer backend under its observability span, recording the
/// call count and literal before/after totals on the shared registry.
/// Every two-level minimization in the crate goes through here so the
/// profile attributes minimizer time per backend.
pub(crate) fn observed_minimize(
    backend: &dyn Minimizer,
    on: &Cover,
    dc: &Cover,
    off: &Cover,
) -> MinimizeResult {
    let _span = si_obs::span(match backend.name() {
        "espresso" => "minimize.espresso",
        "exact" => "minimize.exact",
        "bdd" => "minimize.bdd",
        _ => "minimize.auto",
    });
    let result = backend.minimize(on, dc, off);
    if si_obs::enabled() {
        si_obs::counter_inc("minimize.calls");
        si_obs::counter_add("minimize.literals_before", result.literals_before as u64);
        si_obs::counter_add("minimize.literals_after", result.literals_after as u64);
    }
    result
}

/// The implementation architecture (Fig. 3).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Architecture {
    /// One atomic complex gate per signal (Fig. 3(a)).
    ComplexGate,
    /// Atomic complex gate per excitation function + C-latch (Fig. 3(b)).
    ExcitationFunction,
    /// Atomic complex gate per excitation region, one-hot clusters
    /// (Fig. 3(c)).
    PerRegion,
}

impl Architecture {
    /// The stable CLI identifier (`--arch` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Architecture::ComplexGate => "complex",
            Architecture::ExcitationFunction => "excitation",
            Architecture::PerRegion => "per-region",
        }
    }
}

impl std::str::FromStr for Architecture {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "complex" => Ok(Architecture::ComplexGate),
            "excitation" => Ok(Architecture::ExcitationFunction),
            "per-region" => Ok(Architecture::PerRegion),
            other => Err(format!(
                "unknown architecture {other:?} (expected complex, excitation or per-region)"
            )),
        }
    }
}

/// Which minimization stages run (cumulative in the Fig. 13 sweep).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MinimizeStages {
    /// M0: literal expansion toward the quiescent regions and dc-set.
    pub expand: bool,
    /// M1: merging of transition clusters (per-region architecture).
    pub merge: bool,
    /// M2: complete-cover detection (combinational implementation).
    pub complete: bool,
    /// M3: collapsing set/reset into gC or gated latches.
    pub collapse: bool,
    /// M4: backward region expansion.
    pub backward: bool,
}

impl MinimizeStages {
    /// No minimization: raw initial covers.
    pub fn none() -> Self {
        MinimizeStages {
            expand: false,
            merge: false,
            complete: false,
            collapse: false,
            backward: false,
        }
    }

    /// Everything enabled.
    pub fn full() -> Self {
        MinimizeStages {
            expand: true,
            merge: true,
            complete: true,
            collapse: true,
            backward: true,
        }
    }

    /// The cumulative stage `n` of the Fig. 13 sweep (0 = M0 … 4 = M4).
    pub fn stage(n: usize) -> Self {
        MinimizeStages {
            expand: true,
            merge: n >= 1,
            complete: n >= 2,
            collapse: n >= 3,
            backward: n >= 4,
        }
    }
}

impl Default for MinimizeStages {
    fn default() -> Self {
        MinimizeStages::full()
    }
}

/// Options of a synthesis run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SynthesisOptions {
    /// Target architecture.
    pub architecture: Architecture,
    /// Minimization stages.
    pub stages: MinimizeStages,
    /// Two-level minimizer backend for the cover minimizations that are
    /// plain Boolean problems: the complex-gate architecture (Fig. 3(a))
    /// and the state-based baselines. The excitation-function ladder
    /// (M0–M4) keeps its structural expansion loop regardless — its moves
    /// are re-validated against monotonicity, which a generic backend
    /// cannot do.
    pub minimizer: si_boolean::MinimizerChoice,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            architecture: Architecture::ExcitationFunction,
            stages: MinimizeStages::full(),
            minimizer: si_boolean::MinimizerChoice::Espresso,
        }
    }
}

/// Result for one signal.
#[derive(Clone, Debug)]
pub struct SignalResult {
    /// The signal.
    pub signal: SignalId,
    /// Chosen realization.
    pub implementation: SignalImplementation,
    /// Set clusters (owned transitions + cover) before realization.
    pub set_clusters: Vec<(Vec<TransId>, Cover)>,
    /// Reset clusters before realization.
    pub reset_clusters: Vec<(Vec<TransId>, Cover)>,
}

/// A complete synthesis result.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// One result per synthesized signal.
    pub results: Vec<SignalResult>,
    /// The circuit (implementations only).
    pub circuit: Circuit,
    /// Total area in normalized literal units.
    pub literal_area: usize,
    /// Refinement rounds the context needed.
    pub refinement_rounds: usize,
    /// Total cubes over all place cover functions (Table VIII statistic).
    pub place_cover_cubes: usize,
    /// Size of the SM-cover used.
    pub sm_count: usize,
    /// The structural CSC verdict.
    pub csc: CscVerdict,
}

/// Runs the full structural synthesis flow on an STG.
///
/// # Errors
///
/// Propagates context precondition failures and rejects STGs whose CSC
/// property cannot be established structurally.
///
/// # Examples
///
/// Synthesizing the 2-input generalized C-latch of Fig. 7 yields one
/// implementation (the output `z`) realized as a collapsed latch:
///
/// ```
/// use si_core::{synthesize, SynthesisOptions};
///
/// let stg = si_stg::generators::clatch(2);
/// let syn = synthesize(&stg, &SynthesisOptions::default())?;
/// assert_eq!(syn.results.len(), 1);
/// assert!(syn.literal_area > 0);
/// # Ok::<(), si_core::SynthesisError>(())
/// ```
pub fn synthesize(stg: &Stg, options: &SynthesisOptions) -> Result<Synthesis, SynthesisError> {
    crate::Engine::new(stg).options(*options).synthesize()
}

/// Like [`synthesize`] but reusing an existing context (the expensive
/// structural analyses are shared across architecture/stage sweeps).
pub fn synthesize_with_context(
    ctx: &StructuralContext<'_>,
    options: &SynthesisOptions,
) -> Result<Synthesis, SynthesisError> {
    let csc = ctx.csc_verdict();
    if let CscVerdict::Unknown { places } = &csc {
        return Err(SynthesisError::CscViolationPossible {
            places: places.clone(),
        });
    }
    let results = synthesize_signals(ctx, &ctx.stg.synthesized_signals(), options)?;
    let circuit = Circuit {
        implementations: results.iter().map(|r| r.implementation.clone()).collect(),
    };
    let literal_area = circuit.literal_area();
    Ok(Synthesis {
        results,
        circuit,
        literal_area,
        refinement_rounds: ctx.refinement_rounds,
        place_cover_cubes: ctx.total_cubes(),
        sm_count: ctx.sm_cover.len(),
        csc,
    })
}

/// Synthesizes a batch of signals, in parallel across worker threads when
/// the `parallel` feature is on (the default). Signals are independent given
/// the shared immutable context, so the result — including which error is
/// reported when several signals fail — is identical to the sequential
/// loop: results come back in input order and the failure of the
/// earliest-listed failing signal wins.
///
/// Workers are panic-isolated: a panic while synthesizing one signal is
/// caught at the worker boundary and recorded as that signal's
/// [`SynthesisError::WorkerPanicked`] — it competes for the
/// earliest-listed-failure slot like any other per-signal error, and the
/// process stays alive.
pub fn synthesize_signals(
    ctx: &StructuralContext<'_>,
    signals: &[SignalId],
    options: &SynthesisOptions,
) -> Result<Vec<SignalResult>, SynthesisError> {
    let _span = si_obs::span("synth.signals");
    #[cfg(feature = "parallel")]
    {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(signals.len());
        if workers > 1 {
            let next = std::sync::atomic::AtomicUsize::new(0);
            let slots: Vec<std::sync::Mutex<Option<Result<SignalResult, SynthesisError>>>> =
                signals
                    .iter()
                    .map(|_| std::sync::Mutex::new(None))
                    .collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&signal) = signals.get(i) else { break };
                        let r = si_fault::run_isolated(|| {
                            // Injection site: a worker that panics on the
                            // i-th signal of the batch.
                            si_fault::fail_point!("synthesis::signal", i);
                            synthesize_signal(ctx, signal, options)
                        })
                        .unwrap_or_else(|detail| {
                            Err(SynthesisError::WorkerPanicked { signal, detail })
                        });
                        *si_fault::relock(&slots[i]) = Some(r);
                    });
                }
            });
            return slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .expect("worker filled every slot")
                })
                .collect();
        }
    }
    signals
        .iter()
        .map(|&signal| synthesize_signal(ctx, signal, options))
        .collect()
}

/// Synthesizes one signal under the chosen architecture.
pub fn synthesize_signal(
    ctx: &StructuralContext<'_>,
    signal: SignalId,
    options: &SynthesisOptions,
) -> Result<SignalResult, SynthesisError> {
    let sc = ctx.signal_covers(signal);
    let clusters = derive_clusters_from(ctx, &sc, options)?;
    Ok(realize_from(&sc, &clusters, options))
}

/// The expensive half of one signal's synthesis, as cacheable data: the
/// set/reset transition clusters with their covers after the search-heavy
/// minimization stages (initial covers, M0 expansion, M1 merging, M4
/// backward expansion). The cheap realization decision (M2/M3) is *not*
/// part of this — [`realize_clusters`] recomputes it every time, so the
/// serving layer can cache clusters per signal and still re-decide the
/// latch architecture against the current context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignalClusters {
    /// The signal these clusters implement.
    pub signal: SignalId,
    /// Set-network clusters (owned rising transitions + cover).
    pub set: Vec<(Vec<TransId>, Cover)>,
    /// Reset-network clusters (owned falling transitions + cover).
    pub reset: Vec<(Vec<TransId>, Cover)>,
}

/// Runs the expensive cluster derivation for one signal (everything of
/// [`synthesize_signal`] except the final realization decision).
///
/// # Errors
///
/// As [`synthesize_signal`].
pub fn derive_clusters(
    ctx: &StructuralContext<'_>,
    signal: SignalId,
    options: &SynthesisOptions,
) -> Result<SignalClusters, SynthesisError> {
    derive_clusters_from(ctx, &ctx.signal_covers(signal), options)
}

/// Realizes previously derived clusters: the cheap M2/M3 decision picking
/// combinational, C-latch, gC or gated-latch form. Deterministic given
/// (context, clusters, options); [`synthesize_signal`] is exactly
/// [`derive_clusters`] followed by this.
pub fn realize_clusters(
    ctx: &StructuralContext<'_>,
    clusters: &SignalClusters,
    options: &SynthesisOptions,
) -> SignalResult {
    realize_from(&ctx.signal_covers(clusters.signal), clusters, options)
}

/// Re-checks cached clusters against the **current** context: every
/// cluster must still pass [`check_cluster`] (ER inclusion, off-set
/// exclusion modulo the backward don't-cares, monotonicity) and the
/// cluster partition must still match the signal's transitions. This is
/// what makes cross-session reuse sound independent of how the cache is
/// keyed: a stale or hash-colliding artifact fails revalidation and the
/// caller falls back to [`derive_clusters`].
pub fn revalidate_clusters(
    ctx: &StructuralContext<'_>,
    clusters: &SignalClusters,
    options: &SynthesisOptions,
) -> bool {
    let sc = ctx.signal_covers(clusters.signal);
    let w = ctx.stg.signal_count();
    let widths_ok = |cs: &[(Vec<TransId>, Cover)]| cs.iter().all(|(_, c)| c.width() == w);
    if !widths_ok(&clusters.set) || !widths_ok(&clusters.reset) {
        return false;
    }
    // The clusters must partition exactly the signal's current transitions.
    let partitions = |cs: &[(Vec<TransId>, Cover)], all: &[TransId]| {
        let mut owned: Vec<TransId> = cs.iter().flat_map(|(own, _)| own.iter().copied()).collect();
        owned.sort_unstable();
        let mut expect = all.to_vec();
        expect.sort_unstable();
        owned == expect
    };
    if !partitions(&clusters.set, &sc.rising) || !partitions(&clusters.reset, &sc.falling) {
        return false;
    }
    match options.architecture {
        Architecture::ComplexGate => {
            let on_req = sc.ger_rise.or(&sc.gqr_one);
            let off = sc.ger_fall.or(&sc.gqr_zero);
            clusters.set.len() == 1
                && clusters.reset.len() == 1
                && !on_req.intersects(&off)
                && clusters.set[0].1.covers(&on_req)
                && !clusters.set[0].1.intersects(&off)
        }
        Architecture::ExcitationFunction | Architecture::PerRegion => {
            let per_region = options.architecture == Architecture::PerRegion;
            let union = |cs: &[(Vec<TransId>, Cover)]| {
                cs.iter().fold(Cover::empty(w), |acc, (_, c)| acc.or(c))
            };
            let set_union = union(&clusters.set);
            let reset_union = union(&clusters.reset);
            for (side, role, opposite) in [
                (&clusters.set, CoverRole::Set, &reset_union),
                (&clusters.reset, CoverRole::Reset, &set_union),
            ] {
                for (own, cover) in side {
                    let off = cluster_off(ctx, &sc, role, own, per_region);
                    let bdc = if options.stages.backward {
                        backward_dc(ctx, &sc, role, own, opposite)
                    } else {
                        Cover::empty(w)
                    };
                    if !check_cluster(ctx, &sc, own, cover, &off, &bdc).is_ok() {
                        return false;
                    }
                }
            }
            true
        }
    }
}

fn derive_clusters_from(
    ctx: &StructuralContext<'_>,
    sc: &SignalCovers,
    options: &SynthesisOptions,
) -> Result<SignalClusters, SynthesisError> {
    match options.architecture {
        Architecture::ComplexGate => complex_gate_clusters(ctx, sc, options),
        Architecture::ExcitationFunction => excitation_clusters(ctx, sc, options, false),
        Architecture::PerRegion => excitation_clusters(ctx, sc, options, true),
    }
}

fn realize_from(
    sc: &SignalCovers,
    clusters: &SignalClusters,
    options: &SynthesisOptions,
) -> SignalResult {
    match options.architecture {
        Architecture::ComplexGate => realize_complex_gate(sc, clusters),
        Architecture::ExcitationFunction | Architecture::PerRegion => {
            realize_excitation(sc, clusters, options)
        }
    }
}

/// Fig. 3(a), derivation half: the minimized next-state cover.
fn complex_gate_clusters(
    ctx: &StructuralContext<'_>,
    sc: &SignalCovers,
    options: &SynthesisOptions,
) -> Result<SignalClusters, SynthesisError> {
    let on_req = sc.ger_rise.or(&sc.gqr_one);
    let off = sc.ger_fall.or(&sc.gqr_zero);
    if on_req.intersects(&off) {
        return Err(SynthesisError::CoverCheckFailed {
            signal: sc.signal,
            detail: "on/off region approximations overlap".into(),
        });
    }
    let cover = if options.stages.expand {
        observed_minimize(
            options.minimizer.backend(),
            &on_req,
            &Cover::empty(on_req.width()),
            &off,
        )
        .cover
    } else {
        on_req.clone()
    };
    debug_assert!(cover.covers(&on_req));
    Ok(SignalClusters {
        signal: sc.signal,
        set: vec![(sc.rising.clone(), cover)],
        reset: vec![(sc.falling.clone(), Cover::empty(ctx.stg.signal_count()))],
    })
}

/// Fig. 3(a), realization half: one atomic complex gate.
fn realize_complex_gate(sc: &SignalCovers, clusters: &SignalClusters) -> SignalResult {
    let cover = clusters.set[0].1.clone();
    SignalResult {
        signal: sc.signal,
        implementation: SignalImplementation {
            signal: sc.signal,
            kind: ImplKind::Combinational {
                cover,
                inverted: false,
            },
        },
        set_clusters: clusters.set.clone(),
        reset_clusters: clusters.reset.clone(),
    }
}

/// Fig. 3(b)/(c), derivation half: initial set/reset clusters through the
/// search-heavy stages of the ladder (M0, M1, M4).
fn excitation_clusters(
    ctx: &StructuralContext<'_>,
    sc: &SignalCovers,
    options: &SynthesisOptions,
    per_region: bool,
) -> Result<SignalClusters, SynthesisError> {
    let stages = &options.stages;
    let w = ctx.stg.signal_count();

    // Initial clusters. In the per-region architecture, transitions whose
    // ER covers intersect cannot obey the one-hot discipline as separate
    // gates and are pre-merged into one cluster (the paper's Fig. 4(c)
    // merge of d+/1 and d+/2).
    let initial = |transitions: &[TransId]| -> Vec<(Vec<TransId>, Cover)> {
        if per_region {
            let mut clusters: Vec<(Vec<TransId>, Cover)> = Vec::new();
            for &t in transitions {
                let er = sc.er[&t].clone();
                match clusters.iter_mut().find(|(_, c)| c.intersects(&er)) {
                    Some((own, c)) => {
                        own.push(t);
                        *c = c.or(&er);
                    }
                    None => clusters.push((vec![t], er)),
                }
            }
            clusters
        } else {
            vec![(
                transitions.to_vec(),
                transitions
                    .iter()
                    .fold(Cover::empty(w), |acc, t| acc.or(&sc.er[t])),
            )]
        }
    };
    let mut set_clusters = initial(&sc.rising);
    let mut reset_clusters = initial(&sc.falling);

    // Validate the initial covers.
    for (clusters, role) in [
        (&set_clusters, CoverRole::Set),
        (&reset_clusters, CoverRole::Reset),
    ] {
        for (own, cover) in clusters.iter() {
            let off = cluster_off(ctx, sc, role, own, per_region);
            let r = check_cluster(ctx, sc, own, cover, &off, &Cover::empty(w));
            if !r.is_ok() {
                return Err(SynthesisError::CoverCheckFailed {
                    signal: sc.signal,
                    detail: format!("initial cover invalid: {r:?}"),
                });
            }
        }
    }

    // M0: expansion.
    if stages.expand {
        for (clusters, role) in [
            (&mut set_clusters, CoverRole::Set),
            (&mut reset_clusters, CoverRole::Reset),
        ] {
            for (own, cover) in clusters.iter_mut() {
                let off = cluster_off(ctx, sc, role, own, per_region);
                *cover = expand_cluster_cover(ctx, sc, own, cover, &off, &Cover::empty(w));
            }
        }
    }

    // M1: cluster merging (only meaningful per-region).
    if stages.merge && per_region {
        for (clusters, role) in [
            (&mut set_clusters, CoverRole::Set),
            (&mut reset_clusters, CoverRole::Reset),
        ] {
            merge_clusters(ctx, sc, role, clusters);
        }
    }

    // M4: backward expansion (needs the opposite union cover).
    if stages.backward {
        let union =
            |cs: &[(Vec<TransId>, Cover)]| cs.iter().fold(Cover::empty(w), |acc, (_, c)| acc.or(c));
        let reset_union = union(&reset_clusters);
        let set_union = union(&set_clusters);
        for (clusters, role, opposite) in [
            (&mut set_clusters, CoverRole::Set, &reset_union),
            (&mut reset_clusters, CoverRole::Reset, &set_union),
        ] {
            for (own, cover) in clusters.iter_mut() {
                let bdc = backward_dc(ctx, sc, role, own, opposite);
                if bdc.is_empty() {
                    continue;
                }
                let off = cluster_off(ctx, sc, role, own, per_region);
                *cover = expand_cluster_cover(ctx, sc, own, cover, &off, &bdc);
            }
        }
    }

    Ok(SignalClusters {
        signal: sc.signal,
        set: set_clusters,
        reset: reset_clusters,
    })
}

/// Fig. 3(b)/(c), realization half: the M2/M3 decision over derived
/// clusters — complete covers → combinational, single-cube pairs →
/// gC/gated latch, otherwise the C-latch.
fn realize_excitation(
    sc: &SignalCovers,
    clusters: &SignalClusters,
    options: &SynthesisOptions,
) -> SignalResult {
    let stages = &options.stages;
    let w = sc.gqr_one.width();
    let set_clusters = &clusters.set;
    let reset_clusters = &clusters.reset;

    // M2: complete covers → combinational implementation.
    let set_union = set_clusters
        .iter()
        .fold(Cover::empty(w), |acc, (_, c)| acc.or(c));
    let reset_union = reset_clusters
        .iter()
        .fold(Cover::empty(w), |acc, (_, c)| acc.or(c));
    let set_complete = stages.complete && set_union.covers(&sc.gqr_one);
    let reset_complete = stages.complete && reset_union.covers(&sc.gqr_zero);
    let kind = if set_complete
        && (!reset_complete || set_union.literal_count() <= reset_union.literal_count() + 1)
    {
        // Appendix B: when both functions are complete, take the smaller
        // one (the reset variant pays one inverter).
        ImplKind::Combinational {
            cover: set_union.clone(),
            inverted: false,
        }
    } else if reset_complete {
        ImplKind::Combinational {
            cover: reset_union.clone(),
            inverted: true,
        }
    } else if stages.collapse && set_union.cube_count() == 1 && reset_union.cube_count() == 1 {
        // M3: collapse into a gated latch (distance 1, same support) or gC.
        let s = &set_union.cubes()[0];
        let r = &reset_union.cubes()[0];
        if s.care() == r.care() && s.distance(r) == 1 {
            let var = {
                let mut diff = s.val().clone();
                diff.xor_with(r.val());
                diff.first_one().expect("distance 1")
            };
            let mut control = s.clone();
            control.set(var, None);
            ImplKind::GatedLatch {
                data: Cover::from_cube(Cube::literal(w, var, s.val().get(var))),
                control: Cover::from_cube(control),
            }
        } else {
            ImplKind::GcLatch {
                set: set_union.clone(),
                reset: reset_union.clone(),
            }
        }
    } else {
        ImplKind::CLatch {
            set: set_clusters.iter().map(|(_, c)| c.clone()).collect(),
            reset: reset_clusters.iter().map(|(_, c)| c.clone()).collect(),
        }
    };

    SignalResult {
        signal: sc.signal,
        implementation: SignalImplementation {
            signal: sc.signal,
            kind,
        },
        set_clusters: set_clusters.clone(),
        reset_clusters: reset_clusters.clone(),
    }
}

/// The off-set of a cluster: the opposite generalized regions plus — in the
/// per-region architecture — the one-hot exclusions of eq. (3)/(4): the ERs
/// of the other own-direction transitions and the quiescent codes outside
/// the cluster's restricted QRs.
fn cluster_off(
    ctx: &StructuralContext<'_>,
    sc: &SignalCovers,
    role: CoverRole,
    own: &[TransId],
    per_region: bool,
) -> Cover {
    let mut off = off_set_cover(sc, role);
    if per_region {
        let own_dir = role.own_transitions(sc);
        for &u in own_dir {
            if !own.contains(&u) {
                off = off.or(&sc.er[&u]);
            }
        }
        // Quiescent codes of the own direction that lie outside the
        // cluster's restricted QRs (shared QR markings must stay uncovered).
        let mut own_qr = Cover::empty(off.width());
        for &u in own_dir {
            own_qr = own_qr.or(&sc.qr[&u]);
        }
        for &t in own {
            own_qr = own_qr.sharp(&ctx.qr_restricted_for(t, own));
        }
        off = off.or(&own_qr);
    }
    off
}

/// Greedy literal expansion plus irredundancy under the structural checks.
fn expand_cluster_cover(
    ctx: &StructuralContext<'_>,
    sc: &SignalCovers,
    own: &[TransId],
    cover0: &Cover,
    off: &Cover,
    backward_dc: &Cover,
) -> Cover {
    let w = cover0.width();
    let effective_off = if backward_dc.is_empty() {
        off.clone()
    } else {
        off.sharp(backward_dc)
    };
    let monotonic = |cover: &Cover| -> bool {
        own.iter()
            .all(|&t| monotonicity_violation(ctx, sc, t, cover).is_none())
    };

    let mut cover = cover0.clone();
    loop {
        let mut improved = false;
        'outer: for i in 0..cover.cube_count() {
            let cube = cover.cubes()[i].clone();
            for var in cube.care().iter_ones().collect::<Vec<_>>() {
                let mut cand = cube.clone();
                cand.set(var, None);
                if effective_off.intersects_cube(&cand) {
                    continue;
                }
                let mut cubes = cover.cubes().to_vec();
                cubes[i] = cand;
                let cand_cover = Cover::from_cubes(w, cubes);
                if monotonic(&cand_cover) {
                    cover = cand_cover;
                    improved = true;
                    break 'outer;
                }
            }
        }
        if !improved {
            break;
        }
    }

    cover.remove_single_cube_contained();

    // Irredundancy: drop cubes whose removal keeps the ERs covered and the
    // cover monotonic.
    let mut i = 0;
    while cover.cube_count() > 1 && i < cover.cube_count() {
        let mut cubes = cover.cubes().to_vec();
        cubes.remove(i);
        let cand = Cover::from_cubes(w, cubes);
        let ok = own.iter().all(|&t| cand.covers(&sc.er[&t])) && monotonic(&cand);
        if ok {
            cover = cand;
        } else {
            i += 1;
        }
    }
    cover
}

/// Greedy pairwise merging of same-direction clusters while the result
/// passes the checks and shrinks the literal count (Appendix A/C).
fn merge_clusters(
    ctx: &StructuralContext<'_>,
    sc: &SignalCovers,
    role: CoverRole,
    clusters: &mut Vec<(Vec<TransId>, Cover)>,
) {
    let w = ctx.stg.signal_count();
    loop {
        let mut best: Option<(usize, usize, Cover, usize)> = None;
        for i in 0..clusters.len() {
            for j in i + 1..clusters.len() {
                let mut own: Vec<TransId> = clusters[i].0.clone();
                own.extend_from_slice(&clusters[j].0);
                own.sort_unstable();
                let off = cluster_off(ctx, sc, role, &own, true);
                let seed = clusters[i].1.or(&clusters[j].1);
                let merged = expand_cluster_cover(ctx, sc, &own, &seed, &off, &Cover::empty(w));
                if !check_cluster(ctx, sc, &own, &merged, &off, &Cover::empty(w)).is_ok() {
                    continue;
                }
                let cost_now = cluster_area(&clusters[i].1) + cluster_area(&clusters[j].1);
                let cost_merged = cluster_area(&merged);
                if cost_merged < cost_now
                    && best.as_ref().is_none_or(|&(_, _, _, b)| cost_merged < b)
                {
                    best = Some((i, j, merged, cost_merged));
                }
            }
        }
        match best {
            Some((i, j, merged, _)) => {
                let (own_j, _) = clusters.remove(j);
                let (own_i, _) = clusters.remove(i);
                let mut own = own_i;
                own.extend(own_j);
                own.sort_unstable();
                clusters.push((own, merged));
            }
            None => break,
        }
    }
}

fn cluster_area(c: &Cover) -> usize {
    c.literal_count()
        + if c.cube_count() > 1 {
            c.cube_count()
        } else {
            0
        }
}

/// The observability don't-care set of backward expansion (Appendix E):
/// codes of backward-quiescent-place markings still covered by the opposite
/// (predecessor cluster) cover.
fn backward_dc(
    ctx: &StructuralContext<'_>,
    sc: &SignalCovers,
    role: CoverRole,
    own: &[TransId],
    opposite_cover: &Cover,
) -> Cover {
    let w = ctx.stg.signal_count();
    let opposite_ger = match role {
        CoverRole::Set => &sc.ger_fall,
        CoverRole::Reset => &sc.ger_rise,
    };
    let mut dc = Cover::empty(w);
    for &t in own {
        for &u in ctx.analysis.prev_of(t) {
            if let Some(il) = ctx.cubes.pairs.get(&(u, t)) {
                for pi in il.places.iter_ones() {
                    let f = ctx.place_cover[pi].sharp(opposite_ger);
                    dc = dc.or(&f);
                }
            }
        }
    }
    dc.and(opposite_cover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::benchmarks;

    #[test]
    fn toggle_output_becomes_a_buffer() {
        // y's next-state function is just x.
        let stg = si_stg::parse_g(
            "\
.model toggle
.inputs x
.outputs y
.graph
x+ y+
y+ x-
x- y-
y- x+
.marking { <y-,x+> }
.end
",
        )
        .unwrap();
        let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        assert_eq!(syn.results.len(), 1);
        match &syn.results[0].implementation.kind {
            ImplKind::Combinational { cover, inverted } => {
                assert!(!inverted);
                assert_eq!(cover.cube_count(), 1);
                assert_eq!(cover.literal_count(), 1);
            }
            other => panic!("expected combinational buffer, got {other:?}"),
        }
    }

    #[test]
    fn clatch_output_is_c_element() {
        // Fig. 7 with 2 inputs: z = C(x0, x1): set = x0·x1, reset = x0'·x1'.
        let stg = si_stg::generators::clatch(2);
        let opts = SynthesisOptions {
            architecture: Architecture::ExcitationFunction,
            stages: MinimizeStages::stage(0),
            ..Default::default()
        };
        let syn = synthesize(&stg, &opts).unwrap();
        let r = &syn.results[0];
        let (set, reset) = match &r.implementation.kind {
            ImplKind::CLatch { set, reset } => (set[0].clone(), reset[0].clone()),
            other => panic!("expected C-latch, got {other:?}"),
        };
        assert_eq!(set.cube_count(), 1);
        assert_eq!(reset.cube_count(), 1);
        // set = x0 x1 (z literal expanded away), reset = x0' x1'
        assert_eq!(set.literal_count(), 2);
        assert_eq!(reset.literal_count(), 2);
    }

    #[test]
    fn clatch_collapses_to_gc() {
        let stg = si_stg::generators::clatch(2);
        let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        match &syn.results[0].implementation.kind {
            ImplKind::GcLatch { .. } | ImplKind::GatedLatch { .. } => {}
            other => panic!("expected collapsed latch, got {other:?}"),
        }
    }

    #[test]
    fn whole_suite_synthesizes_everywhere() {
        for stg in benchmarks::synthesizable_suite() {
            for arch in [
                Architecture::ComplexGate,
                Architecture::ExcitationFunction,
                Architecture::PerRegion,
            ] {
                let opts = SynthesisOptions {
                    architecture: arch,
                    stages: MinimizeStages::full(),
                    ..Default::default()
                };
                let syn = synthesize(&stg, &opts);
                assert!(
                    syn.is_ok(),
                    "{} under {arch:?}: {:?}",
                    stg.name(),
                    syn.err()
                );
            }
        }
    }

    #[test]
    fn minimization_never_increases_area() {
        for stg in benchmarks::synthesizable_suite() {
            let mut prev = usize::MAX;
            for n in 0..=4 {
                let opts = SynthesisOptions {
                    architecture: Architecture::PerRegion,
                    stages: MinimizeStages::stage(n),
                    ..Default::default()
                };
                let syn = synthesize(&stg, &opts).unwrap();
                assert!(
                    syn.literal_area <= prev,
                    "{}: stage {n} grew area {} -> {}",
                    stg.name(),
                    prev,
                    syn.literal_area
                );
                prev = syn.literal_area;
            }
        }
    }

    #[test]
    fn vme_raw_rejected() {
        let stg = benchmarks::vme_read_raw();
        match synthesize(&stg, &SynthesisOptions::default()) {
            Err(SynthesisError::CscViolationPossible { .. }) => {}
            other => panic!("expected CSC rejection, got {other:?}"),
        }
    }
}
