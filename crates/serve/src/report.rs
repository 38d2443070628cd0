//! One typed report per operation, shared by the `sisyn` CLI and the
//! serve layer.
//!
//! [`JobOptions`] is the option vocabulary of every surface — the CLI
//! flags, `sisyn submit`'s flags and the serve request keys — with one
//! validation rule ([`JobOptions::set`]) and the per-op default caps
//! ([`Op::default_cap`]). Each operation has one builder that makes the
//! operation's engine calls and returns its report: [`Check`], [`Synth`],
//! [`Verify`], [`Resolve`] and [`Deadlock`]. A [`Report`] renders itself
//! twice: as the JSON object written by [`Object`] (the CLI's `--json`
//! output and the serve response body are the same object) and as the
//! CLI's human text. `Error` is the one structured error object.
//!
//! The synth and verify builders take a finished synthesis, so each
//! surface keeps its own way of deriving covers: the CLI spreads signals
//! over the worker pool (`Engine::synthesize`), serve reuses per-signal
//! covers from its store.

use std::fmt::Write as _;
use std::str::FromStr;
use std::time::Duration;

use si_boolean::MinimizerChoice;
use si_core::{
    map_circuit, Analysis, Architecture, Backend, CscVerdict, Engine, MinimizeStages, Synthesis,
    SynthesisError, SynthesisOptions,
};
use si_csc::{CscOptions, EngineResolve, ResolveOutcome, Strategy};
use si_petri::{check_live_safe_fc, CancelToken, ReachError, ReachOptions, StructuralCheck};
use si_proto::{check_deadlock_with, DeadlockReport, ProtoSystem};
use si_stg::{ConsistencyError, Stg};
use si_verify::{ConformanceReport, EngineVerify, VerificationReport};

use crate::json::{Millis, Object, Value};

/// Exit code of a failed run: violations found or a hard error.
const EXIT_FAILED: u8 = 1;
/// Exit code of an inconclusive run: the budget (state cap, deadline or
/// cancellation) ran out before a definitive verdict.
pub(crate) const EXIT_INCONCLUSIVE: u8 = 3;

/// An operation with a report.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Consistency, liveness/safeness and state coding of an STG.
    Check,
    /// Structural synthesis.
    Synth,
    /// Synthesis, then speed-independence verification.
    Verify,
    /// CSC resolution by state-signal insertion.
    Resolve,
    /// Deadlock checking of a CFSM protocol.
    Deadlock,
}

impl Op {
    /// The command name: the reports' `"command"`.
    pub fn name(self) -> &'static str {
        match self {
            Op::Check => "check",
            Op::Synth => "synth",
            Op::Verify => "verify",
            Op::Resolve => "resolve",
            Op::Deadlock => "deadlock",
        }
    }

    /// The state cap of the op's reachability-based oracles when no cap
    /// is given: `check` counts cheaply, one cached `verify` graph serves
    /// the functional and conformance oracles, and `resolve` bounds each
    /// candidate's acceptance oracle.
    pub fn default_cap(self) -> usize {
        match self {
            Op::Check => 100_000,
            Op::Synth | Op::Verify => Engine::DEFAULT_CAP,
            Op::Resolve => 1_000_000,
            Op::Deadlock => si_proto::DEFAULT_CAP,
        }
    }
}

impl FromStr for Op {
    type Err = String;

    fn from_str(s: &str) -> Result<Op, String> {
        [Op::Check, Op::Synth, Op::Verify, Op::Resolve, Op::Deadlock]
            .into_iter()
            .find(|op| op.name() == s)
            .ok_or_else(|| format!("unknown op {s:?}"))
    }
}

/// Parses a duration: `500ms`, `2s`, `1m` or a plain number of
/// milliseconds.
pub fn parse_duration(s: &str) -> Option<Duration> {
    let digits = s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let (num, unit) = s.split_at(digits);
    let n: u64 = num.parse().ok()?;
    match unit {
        "" | "ms" => Some(Duration::from_millis(n)),
        "s" => Some(Duration::from_secs(n)),
        "m" => Some(Duration::from_secs(n.checked_mul(60)?)),
        _ => None,
    }
}

/// The options of one job, with the same defaults on every surface.
#[derive(Clone, Debug)]
pub struct JobOptions {
    /// `--arch`: the implementation architecture.
    pub arch: Architecture,
    /// `--stages`: the minimization stages.
    pub stages: MinimizeStages,
    /// `--minimizer`: the two-level minimizer backend.
    pub minimizer: MinimizerChoice,
    /// `--cap`: one cap for every oracle; `None` keeps the per-op default.
    pub cap: Option<usize>,
    /// `--budget`: resolve's candidate-search budget.
    pub budget: usize,
    /// `--strategy`: resolve's candidate-selection strategy.
    pub strategy: Strategy,
    /// `--backend`: who answers check's and verify's state-space queries.
    pub backend: Backend,
    /// `--timeout`: wall-clock budget of the state-space oracles.
    pub timeout: Option<Duration>,
    /// Cancels every traversal of the job (the CLI's Ctrl-C); not a
    /// user-facing option.
    pub cancel: Option<CancelToken>,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            arch: Architecture::ExcitationFunction,
            stages: MinimizeStages::full(),
            minimizer: MinimizerChoice::Espresso,
            cap: None,
            budget: 100_000,
            strategy: Strategy::Greedy,
            backend: Backend::Explicit,
            timeout: None,
            cancel: None,
        }
    }
}

/// The option flags as usage text, for the CLI's and `sisyn submit`'s
/// usage lines.
pub const OPTION_USAGE: &str = "[--arch complex|excitation|per-region] \
    [--stages 0..4|full|none] [--minimizer espresso|exact|bdd|auto] [--cap N] \
    [--budget N] [--strategy greedy|beam] [--backend explicit|symbolic|auto] \
    [--timeout DUR]";

/// The option names: the CLI flags without their `--`, and the request
/// keys — except that a request spells `timeout` as `timeout_ms`.
const OPTION_NAMES: [&str; 8] = [
    "arch",
    "stages",
    "minimizer",
    "cap",
    "budget",
    "strategy",
    "backend",
    "timeout",
];

impl JobOptions {
    /// Sets option `name` from its text — the one validation rule of
    /// every surface. Numbers are non-negative integers (`cap`
    /// positive); `stages` is `0`..`4`, `full` or `none`; `timeout` is a
    /// duration ([`parse_duration`]).
    ///
    /// # Errors
    ///
    /// A message naming the option and the value it rejected.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let bad = |expected: &str| format!("bad {name} {value:?} (expected {expected})");
        let positive = || match value.parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(bad("a positive integer")),
        };
        match name {
            "arch" => self.arch = value.parse()?,
            "stages" => {
                self.stages = match value {
                    "full" => MinimizeStages::full(),
                    "none" => MinimizeStages::none(),
                    n => match n.parse() {
                        Ok(n) if n <= 4 => MinimizeStages::stage(n),
                        _ => return Err(bad("0..4, full or none")),
                    },
                }
            }
            "minimizer" => self.minimizer = value.parse()?,
            "cap" => self.cap = Some(positive()?),
            "budget" => self.budget = value.parse().map_err(|_| bad("an integer"))?,
            "strategy" => self.strategy = value.parse()?,
            "backend" => {
                self.backend = Backend::parse(value).ok_or_else(|| bad("explicit|symbolic|auto"))?
            }
            "timeout" => {
                let d = parse_duration(value).ok_or_else(|| bad("e.g. 500ms, 2s, 1m"))?;
                self.timeout = Some(d);
            }
            _ => return Err(format!("unknown option {name:?}")),
        }
        Ok(())
    }

    /// Applies `flag` if it is an option flag (`--cap`, …), taking its
    /// value from `rest`: `None` when it is not one, `Some(Err)` when
    /// its value is missing or rejected.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        rest: &mut std::slice::Iter<'_, String>,
    ) -> Option<Result<(), String>> {
        let name = flag
            .strip_prefix("--")
            .filter(|n| OPTION_NAMES.contains(n))?;
        Some(match rest.next() {
            Some(value) => self.set(name, value),
            None => Err(format!("{flag} needs a value")),
        })
    }

    /// The options of a request object. A string value is read like the
    /// flag's text and an integral number like its digits, so the
    /// request keys obey the flags' rule; other values are rejected.
    ///
    /// # Errors
    ///
    /// The message of the first rejected key.
    pub(crate) fn from_request(request: &Value) -> Result<JobOptions, String> {
        let mut options = JobOptions::default();
        for name in OPTION_NAMES {
            let key = if name == "timeout" {
                "timeout_ms"
            } else {
                name
            };
            let text = match request.get(key) {
                None => continue,
                Some(Value::Str(s)) => s.clone(),
                Some(Value::Num(n)) if n.fract() == 0.0 => format!("{n}"),
                Some(_) => return Err(format!("bad {key:?} (expected a string or an integer)")),
            };
            options.set(name, &text)?;
        }
        Ok(options)
    }

    /// Appends every option under its request key; `cap` and
    /// `timeout_ms` only when set.
    pub(crate) fn write_request(&self, object: Object) -> Object {
        let stages = match (0..4).find(|&n| MinimizeStages::stage(n) == self.stages) {
            Some(n) => n.to_string(),
            None if self.stages == MinimizeStages::none() => "none".to_string(),
            None => "full".to_string(),
        };
        // Wire numbers are doubles: clamp to the largest integer a double
        // holds exactly (about 285 000 years).
        let timeout_ms = self.timeout.map(|d| d.as_millis().min(1 << 53) as u64);
        object
            .field("arch", self.arch.name())
            .field("stages", stages)
            .field("minimizer", self.minimizer.name())
            .field_opt("cap", self.cap)
            .field("budget", self.budget)
            .field("strategy", self.strategy.name())
            .field("backend", self.backend.as_str())
            .field_opt("timeout_ms", timeout_ms)
    }

    /// The reachability options of `op`'s oracles: its default cap unless
    /// `cap` is set, under the timeout and the cancel token.
    pub fn reach(&self, op: Op) -> ReachOptions {
        let mut reach = ReachOptions::with_cap(self.cap.unwrap_or(op.default_cap()));
        if let Some(d) = self.timeout {
            reach = reach.timeout(d);
        }
        if let Some(token) = &self.cancel {
            reach = reach.cancel(token.clone());
        }
        reach
    }

    /// The synthesis options.
    pub fn synthesis(&self) -> SynthesisOptions {
        SynthesisOptions {
            architecture: self.arch,
            stages: self.stages,
            minimizer: self.minimizer,
        }
    }

    /// The session `op` runs on `stg`.
    pub fn engine<'a>(&self, stg: &'a Stg, op: Op) -> Engine<'a> {
        Engine::new(stg)
            .reach(self.reach(op))
            .options(self.synthesis())
            .backend(self.backend)
    }
}

/// The structured error object: a stable machine-readable kind (listed
/// in ARCHITECTURE.md), a human-readable detail, how far the exploration
/// got before stopping (0 when no state space was involved) and, for
/// reachability errors, its wall time.
#[derive(Debug)]
pub(crate) struct Error {
    kind: &'static str,
    detail: String,
    states_explored: usize,
    elapsed_ms: Option<u64>,
}

impl Error {
    /// An error object without a wall time.
    pub(crate) fn new(
        kind: &'static str,
        detail: impl Into<String>,
        states_explored: usize,
    ) -> Self {
        Error {
            kind,
            detail: detail.into(),
            states_explored,
            elapsed_ms: None,
        }
    }

    fn reach(e: &ReachError) -> Self {
        let (kind, states, elapsed_ms) = match e {
            ReachError::StateCapExceeded { cap } => {
                (si_petri::InterruptReason::CapExceeded.as_str(), *cap, 0)
            }
            ReachError::Interrupted {
                reason,
                states_explored,
                elapsed_ms,
            } => (reason.as_str(), *states_explored, *elapsed_ms),
            ReachError::NotSafe { .. } => ("not-safe", 0, 0),
        };
        Error {
            elapsed_ms: Some(elapsed_ms),
            ..Error::new(kind, e.to_string(), states)
        }
    }

    fn synthesis(e: &SynthesisError) -> Self {
        let kind = match e {
            SynthesisError::WorkerPanicked { .. } => "worker-panicked",
            _ => "synthesis-failed",
        };
        Error::new(kind, e.to_string(), 0)
    }

    fn json(&self) -> Object {
        Object::new()
            .field("kind", self.kind)
            .field("detail", &self.detail)
            .field("states_explored", self.states_explored)
            .field_opt("elapsed_ms", self.elapsed_ms)
    }

    /// The body of a request that failed before its op could run:
    /// `{"command", "ok": false, "error"}`.
    pub(crate) fn body(&self, command: &str) -> String {
        Object::new()
            .field("command", command)
            .field("ok", false)
            .field("error", self.json())
            .finish()
    }
}

/// What every op's report provides.
pub trait Report {
    /// The JSON report: the CLI's `--json` output and the serve body.
    fn json(&self) -> Object;

    /// The human report: on stdout, or on stderr when `--json` owns it.
    fn summary(&self) -> String {
        String::new()
    }

    /// Diagnostics, always on stderr.
    fn notes(&self) -> String {
        String::new()
    }

    /// The CLI exit code: 0 success, 1 failure, 3 inconclusive.
    fn exit_code(&self) -> u8;

    /// Whether the verdict is final, so serve may cache it; by default
    /// whether the run was not inconclusive.
    fn is_conclusive(&self) -> bool {
        self.exit_code() != EXIT_INCONCLUSIVE
    }
}

/// The opening fields of every op report.
fn head(op: Op, ok: bool, inconclusive: Option<bool>, model: &str) -> Object {
    Object::new()
        .field("command", op.name())
        .field("ok", ok)
        .field_opt("inconclusive", inconclusive)
        .field("model", model)
}

/// A verdict for humans: violations found, none in the whole space, or
/// none in the part explored before the budget ran out.
fn verdict(ok: bool, conclusive: bool) -> &'static str {
    match (ok, conclusive) {
        (false, _) => "FAILED",
        (true, true) => "OK",
        (true, false) => "OK so far (partial)",
    }
}

/// The report of `check`: reachable markings, liveness/safeness,
/// consistency and the state-coding verdict.
#[derive(Debug)]
pub struct Check<'a> {
    stg: &'a Stg,
    backend: Backend,
    states: Result<u128, ReachError>,
    live_safe: StructuralCheck,
    consistency: Result<(), ConsistencyError>,
    analysis: Result<Analysis, SynthesisError>,
    /// `usc-holds`, `csc-holds`, `csc-violation` (exact) or `unknown`.
    csc: &'static str,
}

impl<'a> Check<'a> {
    /// Runs `check` on the session's STG.
    pub fn build(engine: &Engine<'a>) -> Self {
        let stg = engine.stg();
        let backend = engine.backend_choice();
        let live_safe = check_live_safe_fc(stg.net());
        // The session's context build runs the consistency analysis
        // first, so its error is the consistency verdict.
        let consistency = match engine.context() {
            Err(SynthesisError::Inconsistent(e)) => Err(e),
            _ => Ok(()),
        };
        let analysis = engine.analyze();
        // The structural CSC verdict is conservative; a non-default
        // backend settles an unknown one exactly from the reachable set.
        let csc = match analysis.as_ref().map(|a| &a.csc) {
            Ok(CscVerdict::UscHolds) => "usc-holds",
            Ok(CscVerdict::CscHolds) => "csc-holds",
            Ok(CscVerdict::Unknown { .. }) if backend != Backend::Explicit => {
                match engine.symbolic().ok().and_then(|s| s.has_csc()) {
                    Some(true) => "csc-holds",
                    Some(false) => "csc-violation",
                    None => "unknown",
                }
            }
            _ => "unknown",
        };
        // Counted after the verdict, so a symbolic count reads the
        // analysis the verdict built instead of running its fixpoint again.
        let states = engine.spec_state_count();
        Check {
            stg,
            backend,
            states,
            live_safe,
            consistency,
            analysis,
            csc,
        }
    }

    fn ok(&self) -> bool {
        matches!(self.live_safe, StructuralCheck::Ok)
            && self.consistency.is_ok()
            && matches!(self.csc, "usc-holds" | "csc-holds")
    }
}

impl Report for Check<'_> {
    fn json(&self) -> Object {
        let net = self.stg.net();
        let analysis = self.analysis.as_ref().ok();
        head(Op::Check, self.ok(), None, self.stg.name())
            .field("signals", self.stg.signal_count())
            .field("transitions", net.transition_count())
            .field("places", net.place_count())
            .field("free_choice", net.is_free_choice())
            .field("spec_states", self.states.as_ref().ok())
            .field("backend", self.backend.as_str())
            .field("live_safe", matches!(self.live_safe, StructuralCheck::Ok))
            .field("consistent", self.consistency.is_ok())
            .field("conflicts", analysis.map(|a| a.conflicts))
            .field("refinement_rounds", analysis.map(|a| a.refinement_rounds))
            .field("sm_count", analysis.map(|a| a.sm_count))
            .field("place_cover_cubes", analysis.map(|a| a.place_cover_cubes))
            .field("csc", self.csc)
            .field(
                "analysis_error",
                self.analysis.as_ref().err().map(|e| e.to_string()),
            )
    }

    fn summary(&self) -> String {
        let (stg, net) = (self.stg, self.stg.net());
        let mut out = format!(
            "model {}: {} signals, {} transitions, {} places, free-choice: {}\n",
            stg.name(),
            stg.signal_count(),
            net.transition_count(),
            net.place_count(),
            net.is_free_choice()
        );
        // The count is informational: the structural flow never needs
        // the state graph.
        let _ = match &self.states {
            Ok(n) if self.backend == Backend::Explicit => writeln!(out, "reachable markings: {n}"),
            Ok(n) => writeln!(
                out,
                "reachable markings: {n} ({} backend)",
                self.backend.as_str()
            ),
            Err(ReachError::StateCapExceeded { cap }) => writeln!(
                out,
                "reachable markings: > {cap} (state cap exceeded — the structural flow does not \
                 need the state graph; pass a larger `--cap N` for exact counts, or \
                 `--backend symbolic` to count without enumerating)"
            ),
            Err(ReachError::Interrupted {
                reason,
                states_explored,
                ..
            }) => writeln!(
                out,
                "reachable markings: >= {states_explored} (count interrupted: {reason} — the \
                 structural flow does not need the state graph)"
            ),
            Err(e) => return out + &format!("reachability: FAILED ({e})\n"),
        };
        match &self.live_safe {
            StructuralCheck::Ok => out.push_str("liveness/safeness: OK (Commoner)\n"),
            other => return out + &format!("liveness/safeness: FAILED {other:?}\n"),
        }
        match &self.consistency {
            Ok(()) => out.push_str("consistency: OK\n"),
            Err(e) => return out + &format!("consistency: FAILED ({e})\n"),
        }
        let a = match &self.analysis {
            Ok(a) => a,
            Err(e) => return out + &format!("structural analysis failed: {e}\n"),
        };
        let _ = writeln!(
            out,
            "coding conflicts: {} (after {} refinement round(s))",
            a.conflicts, a.refinement_rounds
        );
        let _ = match (&a.csc, self.csc) {
            (CscVerdict::UscHolds, _) => writeln!(out, "state coding: USC holds"),
            (CscVerdict::CscHolds, _) => writeln!(out, "state coding: CSC holds"),
            (CscVerdict::Unknown { places }, "csc-holds") => writeln!(
                out,
                "state coding: CSC holds (symbolic exact check; {} structural witness place(s) \
                 were false alarms)",
                places.len()
            ),
            (CscVerdict::Unknown { .. }, "csc-violation") => writeln!(
                out,
                "state coding: CSC violation (symbolic exact check) — try `sisyn resolve`"
            ),
            (CscVerdict::Unknown { places }, _) => writeln!(
                out,
                "state coding: possible CSC violation ({} witness place(s)) — try `sisyn resolve`",
                places.len()
            ),
        };
        out
    }

    /// A hard reachability error fails the check too.
    fn exit_code(&self) -> u8 {
        let hard_error = matches!(&self.states, Err(e) if !e.is_inconclusive());
        if self.ok() && !hard_error {
            0
        } else {
            EXIT_FAILED
        }
    }

    /// A budget-starved count, or an unknown CSC the chosen backend
    /// could not settle, is not final.
    fn is_conclusive(&self) -> bool {
        let count = !matches!(&self.states, Err(e) if e.is_inconclusive());
        let unsettled =
            self.backend != Backend::Explicit && self.csc == "unknown" && self.analysis.is_ok();
        count && !unsettled
    }
}

/// The report of `synth`.
#[derive(Debug)]
pub struct Synth<'a> {
    stg: &'a Stg,
    options: JobOptions,
    /// The synthesis and its mapped area in transistor pairs.
    outcome: Result<(Synthesis, usize), SynthesisError>,
}

impl<'a> Synth<'a> {
    /// The report of `synthesis`, a run of `options` on `stg`.
    pub fn build(
        stg: &'a Stg,
        options: &JobOptions,
        synthesis: Result<Synthesis, SynthesisError>,
    ) -> Self {
        let outcome = synthesis.map(|syn| {
            let mapped = map_circuit(&syn.circuit).area;
            (syn, mapped)
        });
        Synth {
            stg,
            options: options.clone(),
            outcome,
        }
    }

    /// The synthesis, if it succeeded.
    pub fn synthesis(&self) -> Option<&Synthesis> {
        self.outcome.as_ref().ok().map(|(syn, _)| syn)
    }
}

impl Report for Synth<'_> {
    fn json(&self) -> Object {
        let head = head(Op::Synth, self.outcome.is_ok(), None, self.stg.name());
        match &self.outcome {
            Ok((syn, mapped)) => head
                .field("architecture", self.options.arch.name())
                .field("minimizer", self.options.minimizer.name())
                .field("signals", syn.results.len())
                .field("literal_area", syn.literal_area)
                .field("mapped_area", *mapped)
                .field("place_cover_cubes", syn.place_cover_cubes)
                .field("sm_count", syn.sm_count)
                .field("refinement_rounds", syn.refinement_rounds),
            Err(e) => head.field("error", Error::synthesis(e).json()),
        }
    }

    fn notes(&self) -> String {
        match &self.outcome {
            Ok((syn, mapped)) => format!(
                "synthesized {} signal(s): {} literal units, {mapped} transistor pairs\n",
                syn.results.len(),
                syn.literal_area,
            ),
            Err(e) => format!("synthesis failed: {e}\n"),
        }
    }

    fn exit_code(&self) -> u8 {
        if self.outcome.is_ok() {
            0
        } else {
            EXIT_FAILED
        }
    }

    /// Structural failures are verdicts about the spec; a worker panic
    /// is not.
    fn is_conclusive(&self) -> bool {
        !matches!(self.outcome, Err(SynthesisError::WorkerPanicked { .. }))
    }
}

/// Why `verify` stopped before every check ran.
#[derive(Debug)]
enum VerifyFailure {
    Synthesis(SynthesisError),
    Functional(ReachError),
    Conformance(ReachError),
}

/// The results of `verify` when every check ran.
#[derive(Debug)]
struct VerifyChecks {
    literal_area: usize,
    functional: VerificationReport,
    conformance: ConformanceReport,
    walks_clean: bool,
    spec_states: Option<u128>,
    /// Iterations and peak BDD nodes of the symbolic backend.
    symbolic: Option<(usize, usize)>,
}

impl VerifyChecks {
    fn failed(&self) -> bool {
        !self.functional.is_ok() || !self.conformance.is_ok() || !self.walks_clean
    }

    fn inconclusive(&self) -> bool {
        !self.functional.is_conclusive() || !self.conformance.is_conclusive()
    }

    /// A counterexample as transition names, from whichever check failed.
    fn trace(&self, stg: &Stg) -> Option<Vec<String>> {
        let trace = self.functional.trace.as_ref();
        let trace = trace.or(self.conformance.trace.as_ref())?;
        let names = trace
            .iter()
            .map(|&t| stg.net().transition_name(t).to_string());
        Some(names.collect())
    }
}

/// The report of `verify`.
#[derive(Debug)]
pub struct Verify<'a> {
    stg: &'a Stg,
    options: JobOptions,
    outcome: Result<VerifyChecks, VerifyFailure>,
}

impl<'a> Verify<'a> {
    /// Verifies `synthesis`, a run of `options` on the session's STG: the
    /// functional and conformance oracles, then random walks, all on the
    /// session's one graph and encoding.
    pub fn build(
        engine: &Engine<'a>,
        options: &JobOptions,
        synthesis: Result<Synthesis, SynthesisError>,
    ) -> Self {
        let stg = engine.stg();
        let outcome = synthesis.map_err(VerifyFailure::Synthesis).and_then(|syn| {
            let circuit = &syn.circuit;
            let functional = engine.verify(circuit).map_err(VerifyFailure::Functional)?;
            let conformance = engine
                .check_conformance(circuit)
                .map_err(VerifyFailure::Conformance)?;
            // The walks start from the code the conformance probe read.
            let walks = engine.random_walks(circuit, 4, 4000, 7);
            let walks_clean = walks.map_err(VerifyFailure::Conformance)?.is_clean();
            let spec_states = engine.spec_state_count().ok();
            let symbolic = match options.backend {
                Backend::Symbolic => engine.symbolic_reach().ok(),
                _ => None,
            };
            Ok(VerifyChecks {
                literal_area: syn.literal_area,
                functional,
                conformance,
                walks_clean,
                spec_states,
                symbolic: symbolic.map(|s| (s.iterations(), s.peak_nodes())),
            })
        });
        Verify {
            stg,
            options: options.clone(),
            outcome,
        }
    }

    /// Whether every check ran (a budget may still have cut one short).
    pub(crate) fn completed(&self) -> bool {
        self.outcome.is_ok()
    }
}

impl Report for Verify<'_> {
    fn json(&self) -> Object {
        let model = self.stg.name();
        let checks = match &self.outcome {
            Ok(checks) => checks,
            Err(VerifyFailure::Synthesis(e)) => {
                return head(Op::Verify, false, None, model)
                    .field("error", Error::synthesis(e).json())
            }
            Err(VerifyFailure::Functional(e) | VerifyFailure::Conformance(e)) => {
                return head(Op::Verify, false, Some(e.is_inconclusive()), model)
                    .field("error", Error::reach(e).json())
            }
        };
        let ok = !checks.failed() && !checks.inconclusive();
        let symbolic = checks.symbolic.map(|(iterations, peak_nodes)| {
            Object::new()
                .field("iterations", iterations)
                .field("peak_nodes", peak_nodes)
        });
        head(Op::Verify, ok, Some(checks.inconclusive()), model)
            .field("backend", self.options.backend.as_str())
            .field("spec_states", checks.spec_states)
            .field("symbolic", symbolic)
            .field("functional_ok", checks.functional.is_ok())
            .field("violations", checks.functional.violations.len())
            .field("states_checked", checks.functional.states_checked)
            .field("conformance_ok", checks.conformance.is_ok())
            .field("conformance_failures", checks.conformance.failures.len())
            .field("states_explored", checks.conformance.states_explored)
            .field("trace", checks.trace(self.stg))
            .field("random_walks_ok", checks.walks_clean)
            .field("literal_area", checks.literal_area)
            .field("minimizer", self.options.minimizer.name())
    }

    fn summary(&self) -> String {
        let Ok(checks) = &self.outcome else {
            return String::new();
        };
        let (functional, conformance) = (&checks.functional, &checks.conformance);
        format!(
            "functional+monotonic: {} ({} states) | conformance: {} ({} states) | random walks: {}\n",
            verdict(functional.is_ok(), functional.is_conclusive()),
            functional.states_checked,
            verdict(conformance.is_ok(), conformance.is_conclusive()),
            conformance.states_explored,
            if checks.walks_clean { "OK" } else { "FAILED" },
        )
    }

    fn notes(&self) -> String {
        let checks = match &self.outcome {
            Ok(checks) => checks,
            Err(VerifyFailure::Synthesis(e)) => return format!("synthesis failed: {e}\n"),
            Err(VerifyFailure::Functional(e)) if e.is_inconclusive() => {
                return format!(
                    "verification inconclusive: {e} — state-based verification needs the full \
                     reachability graph; pass a larger `--cap N` / `--timeout DUR` to raise the \
                     budget\n"
                )
            }
            Err(VerifyFailure::Functional(e)) => return format!("verification failed: {e}\n"),
            Err(VerifyFailure::Conformance(e)) => {
                return format!("conformance check failed: {e}\n")
            }
        };
        // Partial verdicts name what ran out and how far the check got:
        // "no violation in the N states explored" is about a prefix.
        let mut out = String::new();
        if let Some(i) = checks.functional.interrupted {
            let _ = writeln!(
                out,
                "functional verification inconclusive ({}): no violation in the {} states \
                 explored — raise `--timeout DUR` for a definitive verdict",
                i.reason, i.states_explored
            );
        }
        if let Some(i) = checks.conformance.interrupted {
            let _ = writeln!(
                out,
                "conformance inconclusive ({}): no failure in the {} product states explored — \
                 pass a larger `--cap N` / `--timeout DUR` to raise the budget",
                i.reason, i.states_explored
            );
        }
        if let Some(names) = checks.trace(self.stg) {
            let _ = writeln!(
                out,
                "counterexample ({} firings from the initial state): {}",
                names.len(),
                names.join(" ")
            );
        }
        if let Some((iterations, peak_nodes)) = checks.symbolic {
            let states = checks
                .spec_states
                .map_or("?".to_string(), |n| n.to_string());
            let _ = writeln!(
                out,
                "symbolic backend: {states} spec state(s) in {iterations} iteration(s), peak \
                 {peak_nodes} BDD node(s)"
            );
        }
        out
    }

    fn exit_code(&self) -> u8 {
        match &self.outcome {
            Ok(checks) if checks.failed() => EXIT_FAILED,
            Ok(checks) if checks.inconclusive() => EXIT_INCONCLUSIVE,
            Ok(_) => 0,
            Err(VerifyFailure::Functional(e) | VerifyFailure::Conformance(e))
                if e.is_inconclusive() =>
            {
                EXIT_INCONCLUSIVE
            }
            Err(_) => EXIT_FAILED,
        }
    }

    fn is_conclusive(&self) -> bool {
        match &self.outcome {
            Ok(checks) => !checks.inconclusive(),
            Err(VerifyFailure::Synthesis(e)) => !matches!(e, SynthesisError::WorkerPanicked { .. }),
            Err(VerifyFailure::Functional(e) | VerifyFailure::Conformance(e)) => {
                !e.is_inconclusive()
            }
        }
    }
}

/// The report of `resolve`.
#[derive(Debug)]
pub struct Resolve<'a> {
    stg: &'a Stg,
    outcome: ResolveOutcome,
}

impl<'a> Resolve<'a> {
    /// Searches for a CSC-resolving insertion in the session's STG:
    /// `cap`/`timeout` govern each candidate's acceptance
    /// oracle, `budget` bounds the candidate search.
    pub fn build(engine: &Engine<'a>, options: &JobOptions) -> Self {
        let csc = CscOptions::default()
            .budget(options.budget)
            .strategy(options.strategy)
            .reach(options.reach(Op::Resolve));
        Resolve {
            stg: engine.stg(),
            outcome: engine.resolve_csc_outcome(&csc),
        }
    }

    /// The resolved STG, if the search found an insertion.
    pub fn resolved(&self) -> Option<&Stg> {
        self.outcome.resolution.as_ref().map(|r| &r.stg)
    }

    /// The accepted plan over the input's node names (`null` for the
    /// no-conflict sentinel).
    fn plan_json(&self) -> Option<Object> {
        let plan = &self.outcome.resolution.as_ref()?.plan;
        if plan.rise_split == plan.fall_split {
            return None;
        }
        let net = self.stg.net();
        let waits: Vec<Object> = plan
            .rise_waits
            .iter()
            .map(|&(t, marked)| {
                let after = self.stg.transition_display(t);
                Object::new().field("after", after).field("marked", marked)
            })
            .collect();
        let plan = Object::new()
            .field("rise_split", net.place_name(plan.rise_split))
            .field("fall_split", net.place_name(plan.fall_split))
            .field("rise_waits", waits);
        Some(plan)
    }

    fn stats_json(&self) -> Object {
        let s = &self.outcome.stats;
        let interrupted = s.interrupted.map(|i| {
            Object::new()
                .field("reason", i.reason.as_str())
                .field("candidates_evaluated", i.states_explored)
        });
        Object::new()
            .field("strategy", s.strategy.name())
            .field("cores", s.cores)
            .field("candidates_generated", s.generated)
            .field("candidates_evaluated", s.evaluated)
            .field("candidates_rejected", s.rejected)
            .field("candidates_panicked", s.panicked)
            .field("oracle_calls", s.oracle_calls)
            .field("oracle_rejected", s.oracle_rejected)
            .field("interrupted", interrupted)
            .field("wall_ms", Millis(s.wall_ms))
    }
}

impl Report for Resolve<'_> {
    fn json(&self) -> Object {
        let (model, stats) = (self.stg.name(), &self.outcome.stats);
        let Some(resolution) = &self.outcome.resolution else {
            let error = match stats.interrupted {
                Some(i) => Error::new(
                    i.reason.as_str(),
                    "candidate search interrupted before a resolution was found",
                    stats.evaluated,
                ),
                None => Error::new(
                    "no-resolution",
                    "no single-signal insertion found within budget",
                    stats.evaluated,
                ),
            };
            return head(Op::Resolve, false, Some(stats.interrupted.is_some()), model)
                .field("error", error.json())
                .field("stats", self.stats_json());
        };
        head(Op::Resolve, true, None, model)
            .field("signals_before", self.stg.signal_count())
            .field("signals_after", resolution.stg.signal_count())
            .field("plan", self.plan_json())
            .field("cost", resolution.cost)
            .field("stats", self.stats_json())
    }

    fn notes(&self) -> String {
        let s = &self.outcome.stats;
        let mut out = format!(
            "search[{}]: {} core(s), {} candidate(s) generated, {} evaluated, {} rejected, {} \
             oracle call(s), {:.1} ms\n",
            s.strategy.name(),
            s.cores,
            s.generated,
            s.evaluated,
            s.rejected,
            s.oracle_calls,
            s.wall_ms,
        );
        let _ = match (self.resolved(), s.interrupted) {
            (Some(resolved), _) => writeln!(
                out,
                "resolved: {} -> {} signals",
                self.stg.signal_count(),
                resolved.signal_count()
            ),
            (None, Some(i)) => writeln!(
                out,
                "search interrupted ({}): no resolution among the {} candidate(s) evaluated \
                 before the budget ran out — raise `--timeout DUR` (or don't Ctrl-C) for a \
                 definitive answer",
                i.reason, i.states_explored
            ),
            (None, None) => writeln!(out, "no single-signal insertion found within budget"),
        };
        out
    }

    fn exit_code(&self) -> u8 {
        match (self.resolved(), self.outcome.stats.interrupted) {
            (Some(_), _) => 0,
            (None, Some(_)) => EXIT_INCONCLUSIVE,
            (None, None) => EXIT_FAILED,
        }
    }
}

/// The report of `deadlock`.
#[derive(Debug)]
pub struct Deadlock<'a> {
    sys: &'a ProtoSystem,
    report: DeadlockReport,
}

impl<'a> Deadlock<'a> {
    /// Checks `sys` for deadlocks, dangling sends and overflows on the
    /// explicit explorer.
    pub fn build(sys: &'a ProtoSystem, options: &JobOptions) -> Self {
        let Ok(report) = check_deadlock_with(sys, options.reach(Op::Deadlock));
        Deadlock { sys, report }
    }
}

impl Report for Deadlock<'_> {
    fn json(&self) -> Object {
        let (sys, model, r) = (self.sys, self.sys.name(), &self.report);
        // A clean-but-interrupted run carries the same structured error
        // object as the other inconclusive reports.
        let error = r.interrupted.filter(|_| r.is_ok()).map(|i| {
            let detail = format!("deadlock check interrupted: {i}");
            Error::new(i.reason.as_str(), detail, i.states_explored).json()
        });
        let state = r.violations.first().map(|v| v.state.render(sys));
        head(
            Op::Deadlock,
            r.is_ok() && r.is_conclusive(),
            Some(!r.is_conclusive()),
            model,
        )
        .field("modules", sys.modules().len())
        .field("channels", sys.channels().len())
        .field("states_explored", r.states_explored)
        .field("violations", r.violations.len())
        .field("deadlocks", r.deadlocks())
        .field("dangling_sends", r.dangling_sends())
        .field("overflows", r.overflows())
        .field("state", state)
        .field("trace", &r.trace)
        .field("error", error)
    }

    /// One summary line, then the counterexample as an action sequence.
    fn summary(&self) -> String {
        let (sys, r) = (self.sys, &self.report);
        let mut out = format!(
            "model {}: {} modules, {} channels\ndeadlock check: {} ({} deadlock(s), {} dangling \
             send(s), {} overflow(s) in {} states)\n",
            sys.name(),
            sys.modules().len(),
            sys.channels().len(),
            verdict(r.is_ok(), r.is_conclusive()),
            r.deadlocks(),
            r.dangling_sends(),
            r.overflows(),
            r.states_explored,
        );
        if let Some(first) = r.violations.first() {
            let _ = writeln!(
                out,
                "first violation ({}): {}\n  at state: {}",
                first.violation.kind(),
                first.violation.render(sys),
                first.state.render(sys),
            );
        }
        if let Some(trace) = &r.trace {
            let _ = writeln!(
                out,
                "counterexample ({} action(s) from the initial state):",
                trace.len()
            );
            for step in trace {
                let _ = writeln!(out, "  {step}");
            }
        }
        if let Some(i) = r.interrupted.filter(|_| r.is_ok()) {
            let _ = writeln!(
                out,
                "inconclusive ({}): no violation in the {} states explored — raise `--cap N` / \
                 `--timeout DUR` for a definitive verdict",
                i.reason, i.states_explored
            );
        }
        out
    }

    fn exit_code(&self) -> u8 {
        match (self.report.is_ok(), self.report.is_conclusive()) {
            (true, false) => EXIT_INCONCLUSIVE,
            (true, true) => 0,
            (false, _) => EXIT_FAILED,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_obey_one_rule() {
        let mut o = JobOptions::default();
        o.set("stages", "2").unwrap();
        assert_eq!(o.stages, MinimizeStages::stage(2));
        o.set("stages", "none").unwrap();
        assert_eq!(o.stages, MinimizeStages::none());
        for (name, value) in [
            ("stages", "9"),
            ("stages", "2.5"),
            ("cap", "0"),
            ("budget", "2.7"),
            ("timeout", "soon"),
            ("arch", "gates"),
        ] {
            assert!(o.set(name, value).is_err(), "{name} {value}");
        }
        o.set("timeout", "2s").unwrap();
        assert_eq!(o.timeout, Some(Duration::from_secs(2)));
    }

    #[test]
    fn request_options_round_trip() {
        let mut o = JobOptions::default();
        let line = o.write_request(Object::new()).finish();
        assert!(!line.contains("cap") && !line.contains("timeout"), "{line}");
        for (name, value) in [
            ("arch", "complex"),
            ("stages", "3"),
            ("minimizer", "exact"),
            ("cap", "500"),
            ("budget", "7"),
            ("strategy", "beam"),
            ("backend", "symbolic"),
            ("timeout", "1500ms"),
        ] {
            o.set(name, value).unwrap();
        }
        let line = o.write_request(Object::new()).finish();
        let back = JobOptions::from_request(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(back.write_request(Object::new()).finish(), line);
        assert!(line.contains("\"timeout_ms\": 1500"), "{line}");
        for bad in [
            r#"{"stages": 2.5}"#,
            r#"{"budget": 2.7}"#,
            r#"{"cap": true}"#,
        ] {
            let v = crate::json::parse(bad).unwrap();
            assert!(JobOptions::from_request(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn check_takes_consistency_from_the_context_build() {
        // `a` rises twice in a row: inconsistent.
        let twice = si_stg::parse_g(
            ".model twice\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a+/2\n\
             a+/2 b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
        )
        .expect("parses");
        let expected = si_stg::StgAnalysis::analyze(&twice).map(drop);
        assert!(expected.is_err());
        assert_eq!(Check::build(&Engine::new(&twice)).consistency, expected);
        // A conflicted but consistent spec passes.
        let raw = si_stg::benchmarks::vme_read_raw();
        assert_eq!(Check::build(&Engine::new(&raw)).consistency, Ok(()));
    }
}
