//! Request execution over the artifact store.
//!
//! One [`Service`] holds the shared [`ArtifactStore`] and turns a request
//! line into a response body. Every spec is first *canonicalized*
//! ([`si_stg::canonical_g`]) and reparsed, so identifiers, cube columns
//! and implicit place names are identical across sessions and textual
//! permutations of the same STG — the content hash of the canonical text
//! is the spec's identity. The ops run through the [`crate::report`]
//! builders the CLI uses; this module adds only what is serve-specific:
//! canonicalization, the job key, the artifact store and the envelope.
//!
//! Artifacts are keyed content-addressed:
//!
//! | key              | payload                                        |
//! |------------------|------------------------------------------------|
//! | `resp:<job>`     | the cached core response body of a job         |
//! | `manifest:<job>` | the sub-artifact keys the response was built on |
//! | `reach:<spec>`   | the spec's [`ReachSummary`] wire form          |
//! | `cover:<fp>`     | one signal's derived clusters (wire form)      |
//!
//! `<job>` hashes (op, canonical spec, the options that determine the
//! *outcome*); resource knobs — `cap` and `timeout_ms` — are deliberately
//! excluded, and only conclusive responses are cached, so a budget-starved
//! run never poisons the cache for a better-funded rerun.
//! `<fp>` is [`si_core::signal_fingerprint`]: a per-signal digest of the
//! structural covers, so a one-signal edit re-derives only the covers it
//! dirtied. Reuse stays sound independently of the digest because every
//! cached cluster set is re-checked against the current context by
//! [`si_core::revalidate_clusters`] before it is realized.

use std::sync::Arc;

use si_boolean::hash::{fnv1a_64, Fnv64};
use si_core::{
    clusters_from_wire, clusters_to_wire, derive_clusters, realize_clusters, revalidate_clusters,
    signal_fingerprint, to_verilog, Circuit, CscVerdict, Engine, MinimizeStages, Synthesis,
    SynthesisError, SynthesisOptions,
};
use si_petri::ReachSummary;
use si_stg::{canonical_g, parse_g, write_g, Stg};

use crate::json::{parse, Object, Value};
use crate::queue::QueueStats;
use crate::report::{self, JobOptions, Op, Report};
use crate::store::{ArtifactStore, StoreStats};

/// A parsed request: the operation, the spec, and the options the CLI
/// exposes as flags, with the same defaults and validation.
#[derive(Clone, Debug)]
pub struct Request {
    /// `check` | `synth` | `verify` | `resolve` | `stats` | `metrics`.
    pub op: String,
    /// The `.g` spec text (empty for `stats` and `metrics`).
    pub spec: String,
    /// The job options.
    pub options: JobOptions,
}

/// The outcome of executing one request: the core response body (a JSON
/// object keyed like the CLI's `--json` reports) plus the volatile
/// execution facts the server splices into the final line.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request's op (`?` when the request had none).
    pub op: String,
    /// Core JSON object (always starts with `{`).
    pub body: String,
    /// Whether the body came straight from the response cache.
    pub cache_hit: bool,
    /// Reachability graphs built while executing (0 on a cache hit).
    pub reach_builds: usize,
    /// Per-signal cover artifacts revalidated and reused.
    pub covers_reused: usize,
    /// Per-signal cover artifacts derived fresh (and stored).
    pub covers_derived: usize,
}

impl Response {
    /// A freshly computed response with no artifact counters.
    pub(crate) fn new(op: &str, body: String) -> Self {
        Response {
            op: op.to_string(),
            body,
            cache_hit: false,
            reach_builds: 0,
            covers_reused: 0,
            covers_derived: 0,
        }
    }

    /// A structured error response in the reports' error vocabulary.
    pub(crate) fn error(op: &str, kind: &'static str, detail: impl Into<String>) -> Self {
        Response::new(op, report::Error::new(kind, detail, 0).body(op))
    }
}

fn stage_bits(stages: MinimizeStages) -> u64 {
    stages.expand as u64
        | (stages.merge as u64) << 1
        | (stages.complete as u64) << 2
        | (stages.collapse as u64) << 3
        | (stages.backward as u64) << 4
}

impl Request {
    /// Parses one request line. `Err` carries (op-or-`?`, detail).
    pub fn parse(line: &str) -> Result<Request, (String, String)> {
        let v = parse(line).map_err(|e| ("?".to_string(), e.to_string()))?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| ("?".to_string(), "missing \"op\"".to_string()))?
            .to_string();
        let spec = v
            .get("spec")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let options = JobOptions::from_request(&v).map_err(|e| (op.clone(), e))?;
        Ok(Request { op, spec, options })
    }

    /// The request line (`sisyn submit` sends it): the op, the spec when
    /// there is one, and every option.
    pub(crate) fn to_line(&self) -> String {
        let mut object = Object::new().field("op", &self.op);
        if !self.spec.is_empty() {
            object = object.field("spec", &self.spec);
        }
        self.options.write_request(object).finish()
    }

    /// The job key: a digest of the canonical spec and every option that
    /// determines the *outcome* of this op. Resource knobs (cap, timeout)
    /// are excluded — they decide whether a run finishes, not what a
    /// finished run reports, and only conclusive runs are cached.
    fn job_key(&self, canonical_spec: &str) -> u64 {
        let o = &self.options;
        let mut h = Fnv64::new();
        h.write_str("job-v1");
        h.write_str(&self.op);
        h.write_str(canonical_spec);
        h.write_str(o.arch.name());
        h.write_u64(stage_bits(o.stages));
        h.write_str(o.minimizer.name());
        match self.op.as_str() {
            "check" | "verify" => {
                h.write_str(o.backend.as_str());
            }
            "resolve" => {
                h.write_usize(o.budget);
                h.write_str(o.strategy.name());
            }
            _ => {}
        }
        h.finish()
    }
}

/// The request executor: parses, canonicalizes, consults the store,
/// runs the engine, and writes new artifacts back.
#[derive(Debug)]
pub struct Service {
    store: Arc<ArtifactStore>,
}

/// The artifacts one job reused and derived: per-signal cover counts
/// and the keys its response was built on.
#[derive(Debug, Default)]
struct Artifacts {
    covers_reused: usize,
    covers_derived: usize,
    manifest: Vec<String>,
}

/// One executed op: its body, whether the body may be cached, and what
/// the job built and reused.
struct Run {
    body: String,
    conclusive: bool,
    reach_builds: usize,
    artifacts: Artifacts,
}

impl Run {
    fn new(body: Object, report: &dyn Report, engine: &Engine<'_>, artifacts: Artifacts) -> Run {
        Run {
            body: body.finish(),
            conclusive: report.is_conclusive(),
            reach_builds: engine.reach_build_count(),
            artifacts,
        }
    }
}

impl Service {
    /// A service over `store`.
    pub fn new(store: Arc<ArtifactStore>) -> Self {
        Service { store }
    }

    /// The shared artifact store.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// Executes one request line.
    pub fn execute(&self, line: &str) -> Response {
        self.execute_parsed(Request::parse(line))
    }

    /// Executes a parsed request line; a parse failure (op-or-`?`,
    /// detail) is answered as a bad request.
    pub(crate) fn execute_parsed(&self, request: Result<Request, (String, String)>) -> Response {
        let _span = si_obs::span("serve.execute");
        let t0 = std::time::Instant::now();
        let resp = match request {
            Ok(req) => self.execute_request(&req),
            Err((op, detail)) => Response::error(&op, "bad-request", detail),
        };
        if si_obs::enabled() {
            // Per-op latency, cache hits included, so the histogram shows
            // what clients actually experienced.
            let op = match resp.op.as_str() {
                op @ ("check" | "synth" | "verify" | "resolve" | "stats") => op,
                _ => "other",
            };
            let us = t0.elapsed().as_micros() as u64;
            si_obs::histogram_record(&format!("serve.op.{op}_us"), us);
            if resp.cache_hit {
                si_obs::counter_inc("serve.cache_hits");
            }
        }
        resp
    }

    fn execute_request(&self, req: &Request) -> Response {
        if req.op == "stats" {
            let body = Object::new()
                .field("command", "stats")
                .field("ok", true)
                .finish();
            return Response::new("stats", body);
        }
        let op = match req.op.parse() {
            Ok(op) if op != Op::Deadlock => op,
            _ => {
                return Response::error(
                    &req.op,
                    "bad-request",
                    "unknown op (expected check, synth, verify, resolve, stats or metrics)",
                )
            }
        };
        let parsed = match parse_g(&req.spec) {
            Ok(stg) => stg,
            Err(e) => return Response::error(&req.op, "parse-error", e.to_string()),
        };
        // Work on the canonical reparse: node ids, cube columns and
        // implicit place names are then identical for every textual
        // permutation of the same STG, so per-signal fingerprints and
        // cluster wire forms transfer across sessions.
        let canon = canonical_g(&parsed);
        let stg = parse_g(&canon).expect("canonical form reparses");
        let spec_hash = fnv1a_64(canon.as_bytes());
        let job = req.job_key(&canon);
        let resp_key = format!("resp:{job:016x}");
        if let Some(body) = self.store.get(&resp_key) {
            return Response {
                cache_hit: true,
                ..Response::new(&req.op, body)
            };
        }
        let options = &req.options;
        let run = match op {
            Op::Check => self.run_check(&stg, spec_hash, options),
            Op::Synth => self.run_synth(&stg, options),
            Op::Verify => self.run_verify(&stg, spec_hash, options),
            _ => self.run_resolve(&stg, options),
        };
        if run.conclusive {
            self.store.put(&resp_key, &run.body);
            let manifest = run.artifacts.manifest.join("\n");
            let manifest = format!("manifest-v1\n{manifest}\n");
            self.store.put(&format!("manifest:{job:016x}"), &manifest);
        }
        Response {
            reach_builds: run.reach_builds,
            covers_reused: run.artifacts.covers_reused,
            covers_derived: run.artifacts.covers_derived,
            ..Response::new(&req.op, run.body)
        }
    }

    /// Imports the spec's cached reachability summary into `engine`,
    /// adding its key to `manifest` when it participates.
    fn import_summary<'a>(
        &self,
        engine: Engine<'a>,
        spec_hash: u64,
        manifest: &mut Vec<String>,
    ) -> Engine<'a> {
        let key = format!("reach:{spec_hash:016x}");
        match self
            .store
            .get(&key)
            .and_then(|wire| ReachSummary::from_wire(&wire).ok())
        {
            Some(summary) => {
                manifest.push(key);
                engine.reach_summary(summary)
            }
            None => engine,
        }
    }

    /// Records whichever graph the engine built as the spec's summary.
    fn export_summary(&self, engine: &Engine<'_>, spec_hash: u64, manifest: &mut Vec<String>) {
        if let Some(summary) = engine.export_reach_summary() {
            let key = format!("reach:{spec_hash:016x}");
            self.store.put(&key, &summary.to_wire());
            if !manifest.contains(&key) {
                manifest.push(key);
            }
        }
    }

    fn run_check(&self, stg: &Stg, spec_hash: u64, options: &JobOptions) -> Run {
        let mut artifacts = Artifacts::default();
        let engine = options.engine(stg, Op::Check);
        let engine = self.import_summary(engine, spec_hash, &mut artifacts.manifest);
        let report = report::Check::build(&engine);
        self.export_summary(&engine, spec_hash, &mut artifacts.manifest);
        Run::new(report.json(), &report, &engine, artifacts)
    }

    /// The per-signal cached synthesis path: for every synthesized
    /// signal, try `cover:<fingerprint>` → parse → revalidate against
    /// the *current* context → realize; fall back to a fresh derivation
    /// (stored for next time). The assembled [`Synthesis`] is
    /// result-identical to [`si_core::synthesize_with_context`]. A failed
    /// synthesis reports no covers.
    fn synthesize_cached(
        &self,
        engine: &Engine<'_>,
        stg: &Stg,
        options: &SynthesisOptions,
    ) -> (Result<Synthesis, SynthesisError>, Artifacts) {
        let mut artifacts = Artifacts::default();
        let synthesis = self.synthesize_covers(engine, stg, options, &mut artifacts);
        if synthesis.is_err() {
            artifacts = Artifacts::default();
        }
        (synthesis, artifacts)
    }

    fn synthesize_covers(
        &self,
        engine: &Engine<'_>,
        stg: &Stg,
        options: &SynthesisOptions,
        artifacts: &mut Artifacts,
    ) -> Result<Synthesis, SynthesisError> {
        let ctx = engine.context()?;
        let csc = ctx.csc_verdict();
        if let CscVerdict::Unknown { places } = &csc {
            return Err(SynthesisError::CscViolationPossible {
                places: places.clone(),
            });
        }
        let mut results = Vec::new();
        for signal in stg.synthesized_signals() {
            let fp = signal_fingerprint(ctx, signal, options);
            let key = format!("cover:{fp:016x}");
            let cached = self
                .store
                .get(&key)
                .and_then(|wire| clusters_from_wire(stg, &wire))
                .filter(|c| c.signal == signal)
                .filter(|c| revalidate_clusters(ctx, c, options));
            let clusters = match cached {
                Some(clusters) => {
                    artifacts.covers_reused += 1;
                    clusters
                }
                None => {
                    let clusters = derive_clusters(ctx, signal, options)?;
                    self.store.put(&key, &clusters_to_wire(stg, &clusters));
                    artifacts.covers_derived += 1;
                    clusters
                }
            };
            artifacts
                .manifest
                .push(format!("{key} signal={}", stg.signal_name(signal)));
            results.push(realize_clusters(ctx, &clusters, options));
        }
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

    fn run_synth(&self, stg: &Stg, options: &JobOptions) -> Run {
        let engine = options.engine(stg, Op::Synth);
        let (synthesis, artifacts) = self.synthesize_cached(&engine, stg, &options.synthesis());
        let report = report::Synth::build(stg, options, synthesis);
        let verilog = report.synthesis().map(|syn| to_verilog(stg, &syn.circuit));
        let body = report.json().field_opt("verilog", verilog);
        Run::new(body, &report, &engine, artifacts)
    }

    fn run_verify(&self, stg: &Stg, spec_hash: u64, options: &JobOptions) -> Run {
        let mut manifest = Vec::new();
        let engine = options.engine(stg, Op::Verify);
        let engine = self.import_summary(engine, spec_hash, &mut manifest);
        let (synthesis, mut artifacts) = self.synthesize_cached(&engine, stg, &options.synthesis());
        let report = report::Verify::build(&engine, options, synthesis);
        // Only a run whose every check finished records its artifacts.
        if report.completed() {
            manifest.append(&mut artifacts.manifest);
            self.export_summary(&engine, spec_hash, &mut manifest);
            artifacts.manifest = manifest;
        } else {
            artifacts.manifest.clear();
        }
        Run::new(report.json(), &report, &engine, artifacts)
    }

    fn run_resolve(&self, stg: &Stg, options: &JobOptions) -> Run {
        let engine = options.engine(stg, Op::Resolve);
        let report = report::Resolve::build(&engine, options);
        let body = report
            .json()
            .field("resolved", report.resolved().map(write_g));
        Run::new(body, &report, &engine, Artifacts::default())
    }
}

/// Splices the volatile execution facts and the current counters into a
/// core response body: the wire line every client sees. The core object
/// is cached verbatim; this wrapper is recomputed per send, so `cache_hit`
/// and the counters stay truthful on hits.
pub fn envelope(resp: &Response, job_ms: f64, store: &StoreStats, queue: &QueueStats) -> String {
    debug_assert!(resp.body.starts_with('{'));
    format!(
        "{{\"cache_hit\": {}, \"job_ms\": {job_ms:.3}, \"reach_builds\": {}, \
         \"covers_reused\": {}, \"covers_derived\": {}, \
         \"store\": {{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}, \
         \"evictions\": {}, \"disk_writes\": {}, \"mem_bytes\": {}, \
         \"mem_entries\": {}}}, \
         \"queue\": {{\"submitted\": {}, \"executed\": {}, \"panicked\": {}, \
         \"depth\": {}, \"busy_ms\": {}}}, {}",
        resp.cache_hit,
        resp.reach_builds,
        resp.covers_reused,
        resp.covers_derived,
        store.hits,
        store.disk_hits,
        store.misses,
        store.evictions,
        store.disk_writes,
        store.mem_bytes,
        store.mem_entries,
        queue.submitted,
        queue.executed,
        queue.panicked,
        queue.depth,
        queue.busy_ms,
        &resp.body[1..],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::escape;
    use crate::store::ArtifactStore;

    fn service() -> Service {
        Service::new(Arc::new(ArtifactStore::in_memory(8 << 20)))
    }

    fn spec() -> String {
        write_g(&si_stg::generators::clatch(2))
    }

    fn req(op: &str, spec: &str) -> String {
        format!("{{\"op\": {}, \"spec\": {}}}", escape(op), escape(spec))
    }

    #[test]
    fn bad_requests_are_structured_errors() {
        let s = service();
        for line in ["not json", "{}", "{\"op\": \"launder\"}"] {
            let r = s.execute(line);
            assert!(r.body.contains("\"ok\": false"), "{line}: {}", r.body);
            assert!(r.body.contains("bad-request"), "{line}: {}", r.body);
        }
        let r = s.execute(&req(
            "synth",
            ".model broken\n.inputs a\n.graph\na+\n.end\n",
        ));
        assert!(r.body.contains("parse-error"), "{}", r.body);
    }

    #[test]
    fn synth_caches_and_second_request_hits() {
        let s = service();
        let line = req("synth", &spec());
        let first = s.execute(&line);
        assert!(!first.cache_hit);
        assert_eq!(first.covers_derived, 1);
        assert!(first.body.contains("\"verilog\""));
        let second = s.execute(&line);
        assert!(second.cache_hit);
        assert_eq!(second.body, first.body);
        assert_eq!(second.covers_derived, 0);
    }

    #[test]
    fn permuted_spec_hits_the_same_response() {
        // Same STG, declarations in a different order: canonicalization
        // makes it the same job.
        let base = spec();
        let s = service();
        assert!(!s.execute(&req("synth", &base)).cache_hit);
        let permuted = base.replace(".inputs x0 x1", ".inputs x1 x0");
        assert_ne!(permuted, base);
        assert!(s.execute(&req("synth", &permuted)).cache_hit);
    }

    #[test]
    fn check_exports_then_imports_the_reach_summary() {
        let s = service();
        let line = req("check", &spec());
        let first = s.execute(&line);
        assert!(first.body.contains("\"spec_states\": 8"), "{}", first.body);
        assert_eq!(first.reach_builds, 1);
        // Different op options → different job key, but the reach
        // summary artifact is shared: no second graph build.
        let line2 = format!(
            "{{\"op\": \"check\", \"spec\": {}, \"arch\": \"complex\"}}",
            escape(&spec())
        );
        let second = s.execute(&line2);
        assert!(!second.cache_hit);
        assert_eq!(second.reach_builds, 0, "{}", second.body);
        assert!(
            second.body.contains("\"spec_states\": 8"),
            "{}",
            second.body
        );
    }

    #[test]
    fn verify_runs_end_to_end() {
        let s = service();
        let r = s.execute(&req("verify", &spec()));
        assert!(r.body.contains("\"command\": \"verify\""), "{}", r.body);
        assert!(r.body.contains("\"ok\": true"), "{}", r.body);
        assert!(s.execute(&req("verify", &spec())).cache_hit);
    }

    #[test]
    fn envelope_splices_cleanly() {
        let resp = Response::new(
            "stats",
            "{\"command\": \"stats\", \"ok\": true}".to_string(),
        );
        let line = envelope(&resp, 1.5, &StoreStats::default(), &QueueStats::default());
        let v = crate::json::parse(&line).expect("envelope is valid json");
        assert_eq!(v.get("cache_hit").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("command").and_then(Value::as_str), Some("stats"));
        assert!(v.get("store").is_some() && v.get("queue").is_some());
    }
}
