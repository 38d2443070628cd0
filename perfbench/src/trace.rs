//! The traced run: the same job list replayed in this process through the
//! public entry points the CLI and the server call, in the CLI's order,
//! with a span around every call.
//!
//! Each cached artifact is requested on its own before its consumer
//! (`analyze` before `synthesize`, `reachability` and `encoding` before
//! `verify`), so a span holds only its own layer's work. Spans are kept in
//! memory and written out when the run ends.

use crate::jobs::{Class, Job, Op};
use crate::oracle::{self, Answer};
use sisyn::prelude::*;
use sisyn::serve::json::{self, Value};
use sisyn::serve::{ArtifactStore, Service};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: usize,
    /// Index of the enclosing span (the job's root span).
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The span recorder plus the per-layer counts of the run.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Summed counts, keyed by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    job: usize,
    root: Option<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            job: 0,
            root: None,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.root,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_us = self.now_us();
    }

    /// Times `f` as a span of the current job.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    pub fn add(&mut self, metric: &'static str, value: f64) {
        *self.counts.entry(metric).or_default() += value;
    }

    /// Replays `job` under a root span named after its operation.
    pub fn job(
        &mut self,
        job: &Job,
        replay: impl FnOnce(&mut Tracer) -> Result<Answer, String>,
    ) -> Result<Answer, String> {
        self.job += 1;
        let root = self.open(job.op.name());
        self.root = Some(root);
        let answer = replay(self);
        self.root = None;
        self.close(root);
        answer
    }

    /// Summed duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        // A fold from +0.0: an empty f64 sum is -0.0, which would print as
        // `-0` for a layer the workload never enters.
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.ms())
    }

    /// The spans, one JSON object per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"job\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.job, s.name, s.start_us, s.end_us
            );
        }
        out
    }
}

fn obj(fields: &[(&str, Value)]) -> Value {
    Value::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn num(x: f64) -> Value {
    Value::Num(x)
}

/// The CLI's synthesis options (its flag defaults).
fn cli_options() -> SynthesisOptions {
    SynthesisOptions {
        architecture: Architecture::ExcitationFunction,
        stages: MinimizeStages::full(),
        minimizer: MinimizerChoice::Espresso,
    }
}

/// Replays one CLI job the way `sisyn` runs it, with the CLI's default
/// caps, and checks the outcome against the known answer.
pub fn replay_cli(t: &mut Tracer, job: &Job) -> Result<Answer, String> {
    if job.op == Op::Deadlock {
        let sys = t
            .time("proto.parse", || parse_proto(&job.text))
            .map_err(|e| e.to_string())?;
        let reach = ReachOptions::with_cap(sisyn::proto::DEFAULT_CAP);
        let report = t
            .time("proto.check", || check_deadlock_with(&sys, reach))
            .map_err(|e| e.to_string())?;
        t.add("proto.states", report.states_explored as f64);
        t.add("proto.violations", report.violations.len() as f64);
        let v = obj(&[
            ("states_explored", num(report.states_explored as f64)),
            ("inconclusive", Value::Bool(!report.is_conclusive())),
            ("ok", Value::Bool(report.is_ok() && report.is_conclusive())),
            ("deadlocks", num(report.deadlocks() as f64)),
        ]);
        return oracle::check_report(job.op, job.spec, &v);
    }
    let stg = t
        .time("stg.parse", || parse_g(&job.text))
        .map_err(|e| e.to_string())?;
    let cap = match job.op {
        Op::Check | Op::CheckSymbolic => 100_000,
        Op::Resolve => 1_000_000,
        _ => 4_000_000,
    };
    let backend = if job.op == Op::CheckSymbolic {
        Backend::Symbolic
    } else {
        Backend::Explicit
    };
    let engine = Engine::new(&stg)
        .reach(ReachOptions::with_cap(cap))
        .options(cli_options())
        .backend(backend);
    match job.op {
        Op::Check | Op::CheckSymbolic => {
            let count_span = if backend == Backend::Symbolic {
                "petri.symbolic"
            } else {
                "petri.count"
            };
            let count = t
                .time(count_span, || engine.spec_state_count())
                .map_err(|e| e.to_string())?;
            t.time("petri.live_safe", || check_live_safe_fc(stg.net()));
            t.time("stg.consistency", || StgAnalysis::analyze(&stg))
                .map_err(|e| e.to_string())?;
            let analysis = analyze(t, &engine)?;
            let mut csc = match analysis.csc {
                CscVerdict::UscHolds => "usc-holds",
                CscVerdict::CscHolds => "csc-holds",
                CscVerdict::Unknown { .. } => "unknown",
            };
            let mut peak = 0.0f64;
            if backend == Backend::Symbolic {
                if let Ok(sym) = engine.symbolic_reach() {
                    t.add("petri.symbolic_iterations", sym.iterations() as f64);
                    peak = peak.max(sym.peak_nodes() as f64);
                }
                if csc == "unknown" {
                    let exact = t.time("petri.symbolic", || {
                        engine
                            .symbolic()
                            .map(|s| (s.has_csc(), s.iterations(), s.peak_nodes()))
                    });
                    if let Ok((verdict, iterations, peak_nodes)) = exact {
                        t.add("petri.symbolic_iterations", iterations as f64);
                        peak = peak.max(peak_nodes as f64);
                        match verdict {
                            Some(true) => csc = "csc-holds",
                            Some(false) => csc = "csc-violation",
                            None => {}
                        }
                    }
                }
                t.add("petri.symbolic_peak_nodes", peak);
            }
            let ok = matches!(csc, "usc-holds" | "csc-holds");
            let v = obj(&[
                ("spec_states", num(count as f64)),
                ("csc", Value::Str(csc.to_string())),
                ("ok", Value::Bool(ok)),
            ]);
            oracle::check_report(job.op, job.spec, &v)
        }
        Op::Synth | Op::Verify => {
            analyze(t, &engine)?;
            let syn = t
                .time("core.synth", || engine.synthesize())
                .map_err(|e| e.to_string())?;
            t.add("core.signals", syn.results.len() as f64);
            if job.op == Op::Synth {
                let mapped = t.time("core.techmap", || map_circuit(&syn.circuit));
                t.add("core.mapped_area", mapped.area as f64);
                t.time("core.netlist", || to_verilog(&stg, &syn.circuit));
                let v = obj(&[
                    ("ok", Value::Bool(true)),
                    ("signals", num(syn.results.len() as f64)),
                    ("literal_area", num(syn.literal_area as f64)),
                ]);
                return oracle::check_report(job.op, job.spec, &v);
            }
            let states = t
                .time("petri.reach", || {
                    engine.reachability().map(|rg| rg.state_count())
                })
                .map_err(|e| e.to_string())?;
            t.add("petri.reach_states", states as f64);
            t.time("stg.encode", || engine.encoding().map(|_| ()))
                .map_err(|e| e.to_string())?;
            let functional = t
                .time("verify.check", || engine.verify(&syn.circuit))
                .map_err(|e| e.to_string())?;
            t.add("verify.states_checked", functional.states_checked as f64);
            let conformance = t
                .time("verify.conform", || engine.check_conformance(&syn.circuit))
                .map_err(|e| e.to_string())?;
            t.add("verify.product_states", conformance.states_explored as f64);
            let (walks, steps) = (4, 4000);
            let sim = t.time("verify.walks", || {
                random_walks(&stg, &syn.circuit, walks, steps, 7)
            });
            if sim.is_clean() {
                t.add("verify.walk_steps", (walks * steps) as f64);
            }
            let ok = functional.is_ok() && conformance.is_ok() && sim.is_clean();
            let conclusive = functional.is_conclusive() && conformance.is_conclusive();
            let v = obj(&[
                ("ok", Value::Bool(ok && conclusive)),
                ("inconclusive", Value::Bool(!conclusive)),
                ("spec_states", num(states as f64)),
                ("literal_area", num(syn.literal_area as f64)),
            ]);
            oracle::check_report(job.op, job.spec, &v)
        }
        Op::Resolve => {
            analyze(t, &engine)?;
            let options = CscOptions::default()
                .budget(100_000)
                .strategy(Strategy::Greedy)
                .reach(ReachOptions::with_cap(1_000_000));
            let outcome = t.time("csc.resolve", || engine.resolve_csc_outcome(&options));
            let stats = &outcome.stats;
            t.add("csc.cores", stats.cores as f64);
            t.add("csc.candidates_generated", stats.generated as f64);
            t.add("csc.candidates_evaluated", stats.evaluated as f64);
            t.add("csc.oracle_calls", stats.oracle_calls as f64);
            let resolution = outcome.resolution.ok_or("no resolution")?;
            if stats.oracle_calls > 0 {
                t.add("csc.resolutions", 1.0);
            }
            let v = obj(&[
                ("ok", Value::Bool(true)),
                ("signals_before", num(stg.signal_count() as f64)),
                ("signals_after", num(resolution.stg.signal_count() as f64)),
            ]);
            oracle::check_report(job.op, job.spec, &v)
        }
        Op::Deadlock => unreachable!("handled above"),
    }
}

/// The structural context, requested on its own before any consumer.
fn analyze(t: &mut Tracer, engine: &Engine<'_>) -> Result<Analysis, String> {
    let analysis = t
        .time("core.context", || engine.analyze())
        .map_err(|e| e.to_string())?;
    t.add("core.refinement_rounds", analysis.refinement_rounds as f64);
    t.add("core.place_cover_cubes", analysis.place_cover_cubes as f64);
    t.add("core.sm_count", analysis.sm_count as f64);
    Ok(analysis)
}

/// Replays one serve pass on a fresh in-memory store with the server's
/// default size. Before each request, the parse and canonicalization the
/// service performs are timed on their own (`stg.*` spans); a
/// `serve.hit_execute` or `serve.cold_execute` span then times
/// `Service::execute`, which repeats that work inside it.
pub fn replay_serve_pass(t: &mut Tracer, pass: &[Job]) -> Vec<Result<Answer, String>> {
    let service = Service::new(Arc::new(ArtifactStore::in_memory(64 << 20)));
    pass.iter()
        .map(|job| {
            t.job(job, |t| {
                let stg = t
                    .time("stg.parse", || parse_g(&job.text))
                    .map_err(|e| e.to_string())?;
                let canon = t.time("stg.canonical", || sisyn::stg::canonical_g(&stg));
                t.time("stg.parse", || parse_g(&canon))
                    .map_err(|e| e.to_string())?;
                let line = job.op.request(&job.text);
                let span = if job.class.is_hit() {
                    "serve.hit_execute"
                } else {
                    "serve.cold_execute"
                };
                let response = t.time(span, || service.execute(&line));
                if response.cache_hit != job.class.is_hit() {
                    return Err(format!(
                        "{:?} request: cache_hit {}",
                        job.class, response.cache_hit
                    ));
                }
                if job.class == Class::Edit && response.covers_reused == 0 {
                    return Err("an edit reused no cover".to_string());
                }
                let body = json::parse(&response.body).map_err(|e| e.to_string())?;
                oracle::check_report(job.op, job.spec, &body)
            })
        })
        .collect()
}
