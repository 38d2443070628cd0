//! The repository's benchmark: three seeded workloads run against the
//! release `sisyn` binary the way users run it, every verdict checked
//! against a known answer, end-to-end metrics from an untraced run and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --sisyn PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `perfbench/run.sh` builds both binaries and passes `--sisyn`. The last
//! line of stdout is the result object; the lines before it are a table
//! of the same metrics with their sample counts.

mod cli;
mod jobs;
mod oracle;
mod serve;
mod stats;
mod trace;

use jobs::{Class, Job, Op, SpecId, Workload};
use oracle::Answer;
use stats::quantile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. A set-up takes a few
/// milliseconds for the CLI workloads and about 30 for `serve_session`, so
/// a hundred cost at most a few seconds. They are spread over the run (see
/// [`run_untraced`]): process start-up time on a shared VM moves by half
/// within seconds, and a hundred set-ups in a row sample only one such
/// moment.
const SETUPS: usize = 100;

/// Passes every untraced run makes at least, however fast they go:
/// three passes hold at least 100 pipeline jobs in every workload, and
/// the CLI's repeat samples start with the second.
const MIN_PASSES: usize = 3;

/// Results of the untraced jobs of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// Seconds spent in timed jobs.
    pub elapsed_s: f64,
    /// Latencies of jobs that ran a pipeline (every CLI job; server
    /// requests that missed the response cache).
    pub pipeline_ms: Vec<f64>,
    /// Latencies of repeated jobs: server cache hits, and CLI jobs of
    /// every pass after the first.
    pub hit_ms: Vec<f64>,
    /// Summed latency of every job.
    pub latency_sum_ms: f64,
    pub peak_rss_kb: u64,
    /// Literal area per distinct synthesized spec of the deck.
    pub literal_area: BTreeMap<SpecId, u64>,
}

impl Tally {
    /// Counts one job and folds in its checked answer.
    pub fn record(&mut self, job: &Job, verdict: Result<Answer, String>) {
        self.attempted += 1;
        // Which component an edit reverses is drawn from the seed, so
        // edits stay out of the literal area, which must not depend on it.
        let verdict = verdict.and_then(|answer| match answer.literal_area {
            Some(_) if job.class == Class::Edit => Ok(()),
            Some(area) => match self.literal_area.insert(job.spec, area) {
                Some(before) if before != area => Err(format!(
                    "literal area {area}, earlier {before} for the same spec"
                )),
                _ => Ok(()),
            },
            None => Ok(()),
        });
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(format!(
                    "{} {:?}({}) {:?}: {e}",
                    job.op.name(),
                    job.spec.family,
                    job.spec.n,
                    job.class
                ));
            }
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

struct Args {
    sisyn: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut sisyn, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--sisyn" => sisyn = Some(PathBuf::from(value)),
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |name: &str| format!("missing --{name}");
    Ok(Args {
        sisyn: sisyn.ok_or_else(|| need("sisyn"))?,
        workload: workload.ok_or_else(|| need("workload"))?,
        seed: seed.ok_or_else(|| need("seed"))?,
        seconds: seconds.ok_or_else(|| need("seconds"))?,
        trace: trace.ok_or_else(|| need("trace"))?,
    })
}

/// A prepared run: the first pass of the job list, the generator of the
/// passes after it, and for `serve_session` a server that accepts
/// connections.
struct Prepared {
    rng: jobs::Rng,
    first: Vec<Job>,
    session: Option<serve::Session>,
}

/// One set-up: generate the seeded inputs of the first pass, make one
/// untimed warm-up invocation, and for `serve_session` start the server
/// until it accepts (the warm-up is then a `stats` request on it).
fn set_up(args: &Args, dir: &Path) -> Result<Prepared, String> {
    let mut rng = jobs::Rng::new(args.seed);
    let first = args.workload.pass(&mut rng);
    if args.workload == Workload::ServeSession {
        let mut session = serve::Session::start(&args.sisyn, dir)?;
        session.request("{\"op\": \"stats\"}")?;
        return Ok(Prepared {
            rng,
            first,
            session: Some(session),
        });
    }
    let spec = SpecId::new(jobs::Family::Clatch, 2);
    let warm_up = Job {
        op: Op::Check,
        spec,
        class: Class::Cold,
        text: spec.text(),
    };
    cli::run_job(&args.sisyn, &warm_up).1?;
    Ok(Prepared {
        rng,
        first,
        session: None,
    })
}

/// Runs one set-up and adds its time in seconds to `times`.
fn timed_set_up(args: &Args, dir: &Path, times: &mut Vec<f64>) -> Result<Prepared, String> {
    let started = Instant::now();
    let prepared = set_up(args, dir)?;
    times.push(started.elapsed().as_secs_f64());
    Ok(prepared)
}

/// The untraced jobs of a run: whole passes until `seconds` of timed jobs
/// have elapsed, and at least `min_passes`. Every pass has the same
/// composition, so the pass count changes sample counts, not what a
/// metric measures. Later passes are drawn, and each `serve_session` pass
/// gets a fresh server, outside the timed spans.
///
/// The run's first set-up prepares the first pass. After each pass, more
/// set-ups are timed and discarded, as many as keep their count in step
/// with the share of `seconds` timed so far, so the run ends with
/// [`SETUPS`] of them.
struct Untraced {
    tally: Tally,
    /// Seconds per set-up.
    setup_s: Vec<f64>,
    passes: Vec<Vec<Job>>,
    /// Per pass, the server's replies (`serve_session` only).
    sessions: Vec<Vec<(Job, serve::Exchange)>>,
}

fn run_untraced(
    args: &Args,
    dir: &Path,
    seconds: f64,
    min_passes: usize,
) -> Result<Untraced, String> {
    let mut setup_s = Vec::new();
    let Prepared {
        mut rng,
        first,
        mut session,
    } = timed_set_up(args, dir, &mut setup_s)?;
    let mut run = Untraced {
        tally: Tally::default(),
        setup_s,
        passes: Vec::new(),
        sessions: Vec::new(),
    };
    let mut pass = first;
    loop {
        match session.take() {
            Some(s) => run.sessions.push(serve::run_pass(s, &pass, &mut run.tally)),
            None => cli::run_pass(&args.sisyn, &pass, !run.passes.is_empty(), &mut run.tally),
        }
        run.passes.push(pass);
        let due = (SETUPS as f64 * run.tally.elapsed_s / seconds).ceil() as usize;
        while run.setup_s.len() < due.min(SETUPS) {
            // Dropping the set-up stops its server.
            timed_set_up(args, dir, &mut run.setup_s)?;
        }
        if run.passes.len() >= min_passes && run.tally.elapsed_s >= seconds {
            return Ok(run);
        }
        pass = args.workload.pass(&mut rng);
        if args.workload == Workload::ServeSession {
            session = Some(serve::Session::start(&args.sisyn, dir)?);
        }
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(tally: &Tally, setup_s: &[f64]) -> Vec<Metric> {
    let jobs = tally.attempted;
    let (pipe, hit) = (&tally.pipeline_ms, &tally.hit_ms);
    let area: u64 = tally.literal_area.values().sum();
    vec![
        metric("setup_s", quantile(setup_s, 0.5), "s", setup_s.len()),
        metric("jobs_per_s", jobs as f64 / tally.elapsed_s, "jobs/s", jobs),
        metric("job_p50_ms", quantile(pipe, 0.5), "ms", pipe.len()),
        metric("job_p90_ms", quantile(pipe, 0.9), "ms", pipe.len()),
        metric("hit_p50_ms", quantile(hit, 0.5), "ms", hit.len()),
        metric("hit_p90_ms", quantile(hit, 0.9), "ms", hit.len()),
        metric("peak_rss_mb", tally.peak_rss_kb as f64 / 1024.0, "MB", jobs),
        metric(
            "literal_area",
            area as f64,
            "literals",
            tally.literal_area.len(),
        ),
    ]
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("stg.parse_ms", "ms"),
    ("stg.canonical_ms", "ms"),
    ("stg.encode_ms", "ms"),
    ("stg.consistency_ms", "ms"),
    ("petri.reach_ms", "ms"),
    ("petri.reach_states", "states"),
    ("petri.reach_states_per_s", "states/s"),
    ("petri.count_ms", "ms"),
    ("petri.live_safe_ms", "ms"),
    ("petri.symbolic_ms", "ms"),
    ("petri.symbolic_iterations", "count"),
    ("petri.symbolic_peak_nodes", "nodes"),
    ("core.context_ms", "ms"),
    ("core.refinement_rounds", "count"),
    ("core.place_cover_cubes", "cubes"),
    ("core.sm_count", "count"),
    ("core.synth_ms", "ms"),
    ("core.signals", "count"),
    ("core.techmap_ms", "ms"),
    ("core.mapped_area", "pairs"),
    ("core.netlist_ms", "ms"),
    ("csc.resolve_ms", "ms"),
    ("csc.cores", "count"),
    ("csc.candidates_generated", "count"),
    ("csc.candidates_evaluated", "count"),
    ("csc.oracle_calls", "count"),
    ("csc.oracle_accept_ratio", "ratio"),
    ("verify.check_ms", "ms"),
    ("verify.states_checked", "states"),
    ("verify.conform_ms", "ms"),
    ("verify.product_states", "states"),
    ("verify.product_states_per_s", "states/s"),
    ("verify.walks_ms", "ms"),
    ("verify.walk_steps", "steps"),
    ("proto.parse_ms", "ms"),
    ("proto.check_ms", "ms"),
    ("proto.states", "states"),
    ("proto.states_per_s", "states/s"),
    ("proto.violations", "count"),
    ("serve.hit_execute_ms", "ms"),
    ("serve.cold_execute_ms", "ms"),
    ("serve.server_job_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.cover_reuse_ratio", "ratio"),
    ("serve.reach_builds", "count"),
    ("serve.store_mem_bytes", "bytes"),
    ("serve.store_entries", "count"),
    ("serve.store_evictions", "count"),
    ("sisyn.unattributed_ms", "ms"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run: the in-process replay `t` of
/// `jobs` jobs, the untraced tally of the same job list, and for
/// `serve_session` the real server's envelopes.
fn per_layer(
    t: &trace::Tracer,
    jobs: usize,
    untraced: &Tally,
    sessions: &[Vec<(Job, serve::Exchange)>],
) -> Vec<Metric> {
    let exchanges: Vec<&(Job, serve::Exchange)> = sessions.iter().flatten().collect();
    let per_job = |x: f64| x / jobs as f64;
    let ms = |name: &str| per_job(t.total_ms(name));
    let count = |name: &str| t.counts.get(name).copied().unwrap_or(0.0);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, span) in [
        ("stg.parse_ms", "stg.parse"),
        ("stg.canonical_ms", "stg.canonical"),
        ("stg.encode_ms", "stg.encode"),
        ("stg.consistency_ms", "stg.consistency"),
        ("petri.reach_ms", "petri.reach"),
        ("petri.count_ms", "petri.count"),
        ("petri.live_safe_ms", "petri.live_safe"),
        ("petri.symbolic_ms", "petri.symbolic"),
        ("core.context_ms", "core.context"),
        ("core.synth_ms", "core.synth"),
        ("core.techmap_ms", "core.techmap"),
        ("core.netlist_ms", "core.netlist"),
        ("csc.resolve_ms", "csc.resolve"),
        ("verify.check_ms", "verify.check"),
        ("verify.conform_ms", "verify.conform"),
        ("verify.walks_ms", "verify.walks"),
        ("proto.parse_ms", "proto.parse"),
        ("proto.check_ms", "proto.check"),
    ] {
        values.insert(name, ms(span));
    }
    for name in [
        "petri.reach_states",
        "petri.symbolic_iterations",
        "petri.symbolic_peak_nodes",
        "core.refinement_rounds",
        "core.place_cover_cubes",
        "core.sm_count",
        "core.signals",
        "core.mapped_area",
        "csc.cores",
        "csc.candidates_generated",
        "csc.candidates_evaluated",
        "csc.oracle_calls",
        "verify.states_checked",
        "verify.product_states",
        "verify.walk_steps",
        "proto.states",
        "proto.violations",
    ] {
        values.insert(name, per_job(count(name)));
    }
    let per_s = |states: &str, span: &str| ratio(count(states), t.total_ms(span) / 1e3);
    values.insert(
        "petri.reach_states_per_s",
        per_s("petri.reach_states", "petri.reach"),
    );
    values.insert(
        "verify.product_states_per_s",
        per_s("verify.product_states", "verify.conform"),
    );
    values.insert("proto.states_per_s", per_s("proto.states", "proto.check"));
    values.insert(
        "csc.oracle_accept_ratio",
        ratio(count("csc.resolutions"), count("csc.oracle_calls")),
    );

    // Serve: the in-process executions, per request of their class, and
    // the real server's envelopes.
    let hits = exchanges.iter().filter(|(j, _)| j.class.is_hit()).count() as f64;
    let requests = exchanges.len() as f64;
    values.insert(
        "serve.hit_execute_ms",
        ratio(t.total_ms("serve.hit_execute"), hits),
    );
    values.insert(
        "serve.cold_execute_ms",
        ratio(t.total_ms("serve.cold_execute"), requests - hits),
    );
    let sum =
        |f: &dyn Fn(&serve::Exchange) -> f64| exchanges.iter().map(|(_, e)| f(e)).sum::<f64>();
    values.insert(
        "serve.server_job_ms",
        ratio(sum(&|e| e.envelope.job_ms), requests),
    );
    values.insert(
        "serve.transport_ms",
        ratio(sum(&|e| e.round_trip_ms - e.envelope.job_ms), requests),
    );
    values.insert(
        "serve.hit_ratio",
        ratio(
            sum(&|e| f64::from(u8::from(e.envelope.cache_hit))),
            requests,
        ),
    );
    let edits: Vec<&serve::Exchange> = exchanges
        .iter()
        .filter(|(j, _)| j.class == Class::Edit)
        .map(|(_, e)| e)
        .collect();
    let reused: f64 = edits.iter().map(|e| e.envelope.covers_reused).sum();
    let derived: f64 = edits.iter().map(|e| e.envelope.covers_derived).sum();
    values.insert("serve.cover_reuse_ratio", ratio(reused, reused + derived));
    values.insert(
        "serve.reach_builds",
        ratio(sum(&|e| e.envelope.reach_builds), requests),
    );
    // Store figures at the end of each session, averaged over sessions.
    let ends: Vec<&serve::Envelope> = sessions
        .iter()
        .filter_map(|s| s.last().map(|(_, e)| &e.envelope))
        .collect();
    let mean_end =
        |f: fn(&serve::Envelope) -> f64| ratio(ends.iter().map(|e| f(e)).sum(), ends.len() as f64);
    values.insert("serve.store_mem_bytes", mean_end(|e| e.store_mem_bytes));
    values.insert("serve.store_entries", mean_end(|e| e.store_entries));
    values.insert("serve.store_evictions", mean_end(|e| e.store_evictions));
    let untraced_mean = ratio(untraced.latency_sum_ms, untraced.attempted as f64);
    // What the replay timed per job: every layer span, except that in
    // serve_session `Service::execute` already contains the parse and
    // canonicalization its side spans time again.
    let attributed: f64 = t
        .spans
        .iter()
        .filter(|s| s.parent.is_some())
        .filter(|s| exchanges.is_empty() || s.name.starts_with("serve."))
        .map(trace::Span::ms)
        .sum();
    values.insert("sisyn.unattributed_ms", untraced_mean - per_job(attributed));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, values.get(name).copied().unwrap_or(0.0), unit, jobs))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if !args.sisyn.is_file() {
        return Err(format!("no sisyn binary at {}", args.sisyn.display()));
    }
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // A traced run replays its untraced job list in process, so it gives
    // each half of its time and needs no repeat samples.
    let (seconds, min_passes) = if args.trace {
        (args.seconds / 2.0, 1)
    } else {
        (args.seconds, MIN_PASSES)
    };
    let untraced = run_untraced(args, &dir, seconds, min_passes)?;
    let tally = &untraced.tally;
    let passes = untraced.passes.len();
    let (metrics, attempted, failed, errors) = if args.trace {
        let mut tracer = trace::Tracer::new();
        let mut replay = Tally::default();
        for pass in &untraced.passes {
            if args.workload == Workload::ServeSession {
                let answers = trace::replay_serve_pass(&mut tracer, pass);
                for (job, answer) in pass.iter().zip(answers) {
                    replay.record(job, answer);
                }
            } else {
                for job in pass {
                    let answer = tracer.job(job, |t| trace::replay_cli(t, job));
                    replay.record(job, answer);
                }
            }
        }
        let spans = dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&spans, tracer.render())
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        let metrics = per_layer(&tracer, replay.attempted, tally, &untraced.sessions);
        let mut errors = tally.errors.clone();
        errors.extend(replay.errors.iter().cloned());
        (
            metrics,
            tally.attempted + replay.attempted,
            tally.failed + replay.failed,
            errors,
        )
    } else {
        (
            end_to_end(tally, &untraced.setup_s),
            tally.attempted,
            tally.failed,
            tally.errors.clone(),
        )
    };
    for e in &errors {
        eprintln!("perfbench: failed: {e}");
    }
    println!(
        "# {} seed {} ({} passes, {} jobs, {} failed)",
        args.workload.name(),
        args.seed,
        passes,
        attempted,
        failed
    );
    for m in &metrics {
        println!(
            "# {:<28} {:>16.4} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}
