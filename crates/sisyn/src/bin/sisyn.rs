//! `sisyn` — command-line front end for the structural synthesis library.
//!
//! ```text
//! sisyn check   SPEC.g               consistency / CSC / liveness report
//! sisyn synth   SPEC.g [options]     synthesize and print (or emit) the circuit
//! sisyn verify  SPEC.g [options]     synthesize then verify speed independence
//! sisyn resolve SPEC.g [-o OUT.g]    CSC resolution by state-signal insertion
//! sisyn dot     SPEC.g               Graphviz rendering of the STG
//! sisyn deadlock SPEC.proto          deadlock / dangling-send / overflow
//!                                    check of a CFSM channel protocol
//!                                    (see `sisyn::proto`); honours --cap,
//!                                    --shards, --timeout, --json and
//!                                    --backend explicit, with a replayable
//!                                    action-sequence counterexample on
//!                                    failure
//! sisyn serve   --socket PATH        persistent synthesis server: jobs over a
//!                                    Unix/TCP socket with a content-addressed
//!                                    artifact store (see `sisyn::serve`)
//! sisyn submit  --socket PATH OP SPEC.g   send one job to a running server
//!                                    (takes the options below, parsed by
//!                                    the same code; see `sisyn::serve`)
//!
//! options:
//!   -o FILE            write the main artifact (Verilog / .g / dot) to FILE
//!   --arch ARCH        complex | excitation | per-region   (default excitation)
//!   --stages N         minimization stage 0..4, "full" or "none"
//!                      (default full)
//!   --minimizer M      two-level minimizer backend for the complex-gate
//!                      architecture and the state-based oracles:
//!                      espresso | exact | bdd | auto        (default espresso;
//!                      `auto` picks per signal by cover size and is never
//!                      worse in literals than espresso)
//!   --json             machine-readable JSON report on stdout for
//!                      check / synth / verify / resolve / deadlock — the
//!                      same object `sisyn serve` answers (exit codes
//!                      unchanged; the human report moves to stderr and
//!                      the artifact is only written when -o is given)
//!   --waveform N       also print an N-step simulated waveform
//!   --cap N            state cap for every reachability-based oracle;
//!                      exceeding it fails fast with a StateCapExceeded
//!                      report that names this flag (pass a larger
//!                      `--cap N` to raise the cap) instead of hanging.
//!                      Per-command defaults when omitted: check 100000
//!                      (cheap count), verify 4000000 (one cached graph
//!                      serves the functional and conformance oracles),
//!                      resolve 1000000. NOTE for resolve: --cap and
//!                      --budget bound different things — --cap bounds
//!                      the state space of the behavioural *acceptance
//!                      oracle* run on each surviving candidate, while
//!                      --budget bounds the *candidate search* itself
//!                      (how many insertion plans may be structurally
//!                      evaluated). Raising --cap admits bigger
//!                      candidates; raising --budget searches longer.
//!   --shards N|auto    run the verdict searches with N parallel shard
//!                      workers (see si-petri's generic sharded explorer;
//!                      N is rounded up to a power of two, max 64); `auto`
//!                      picks the hardware-thread count rounded down.
//!                      Applies to the speed-independence violation
//!                      search, the spec×circuit conformance product and
//!                      `deadlock`; the reachability graph is always
//!                      built sequentially. Default 1 (sequential). When
//!                      `verify` finds a violation it prints (and emits
//!                      in --json as "trace") a firing-sequence
//!                      counterexample leading to it.
//!   --budget N         resolve only: insertion-candidate search budget
//!                      (default 100000) — how many state-signal
//!                      insertions may be structurally evaluated,
//!                      distinct from the --cap that bounds each
//!                      candidate's acceptance oracle (see --cap)
//!   --strategy S       resolve only: candidate-selection strategy,
//!                      greedy | beam (default greedy). greedy accepts
//!                      the first oracle-approved candidate in
//!                      conflict-core proximity order; beam scores the
//!                      whole nearest candidate tier, ranks survivors by
//!                      the cost model (literal delta + concurrency
//!                      penalty) and oracles the best ones
//!   --backend B        check / verify only: which reachability backend
//!                      answers the state-space queries both can answer
//!                      (reachable-marking counts, exact CSC refinement of
//!                      an unknown structural verdict):
//!                      explicit | symbolic | auto   (default explicit).
//!                      `explicit` enumerates the interned state graph —
//!                      the oracle; `symbolic` computes the reachable set
//!                      as a BDD by image iteration, so counts and coding
//!                      verdicts keep working past the explicit --cap on
//!                      highly concurrent nets (the cap does not apply to
//!                      it; --timeout and Ctrl-C do); `auto` tries the
//!                      explicit explorer and falls back to symbolic when
//!                      the explicit run ends inconclusively. The
//!                      functional / conformance oracles of `verify`
//!                      always run on the explicit graph; with --json the
//!                      report carries "backend", "spec_states" and (for
//!                      symbolic) iteration statistics.
//!   --timeout DUR      wall-clock budget for the run's state-space
//!                      oracles (reachability, violation search,
//!                      conformance product, resolve's candidate search).
//!                      DUR is `500ms`, `2s`, `1m` or a plain number of
//!                      milliseconds. Past the deadline every traversal
//!                      winds down gracefully and the run reports a
//!                      *partial* verdict ("no violation in the N states
//!                      explored") with exit code 3 — inconclusive, not
//!                      failed. Ctrl-C (SIGINT) triggers the same graceful
//!                      wind-down via a cooperative cancellation token.
//! ```
//!
//! Exit codes: `0` success, `1` failure (violations found or a hard
//! error), `2` usage, `3` inconclusive (the budget — cap, deadline or
//! Ctrl-C — ran out before a definitive verdict; partial results are
//! still reported).
//!
//! Every command drives one [`Engine`] session, so oracles that need the
//! same artifact (the reachability graph, the structural context) compute
//! it once. The options, the pipelines and the reports come from
//! `sisyn::serve::report`, which `sisyn serve` answers with too: this
//! file only parses the command line, writes artifacts and prints.

use sisyn::prelude::*;
use sisyn::serve::json::Raw;
use sisyn::serve::report::{self, JobOptions, Op, Report};
use std::process::ExitCode;
use std::time::Duration;

/// The process-wide cancellation token cancelled by SIGINT (Ctrl-C):
/// every oracle's budget carries a clone, so interrupting a long run
/// winds explorations down gracefully into partial verdicts instead of
/// killing the process mid-traversal.
static INTERRUPT: std::sync::OnceLock<CancelToken> = std::sync::OnceLock::new();

fn interrupt_token() -> &'static CancelToken {
    INTERRUPT.get_or_init(CancelToken::new)
}

/// Installs the SIGINT handler (Unix only; elsewhere Ctrl-C keeps its
/// default process-killing behaviour). The handler only flips the
/// token's atomic flag — async-signal-safe by construction (no
/// allocation, no locks; `main` initializes the token before installing).
#[cfg(unix)]
fn install_interrupt_handler() {
    extern "C" fn on_sigint(_sig: i32) {
        if let Some(token) = INTERRUPT.get() {
            token.cancel();
        }
    }
    const SIGINT: i32 = 2;
    extern "C" {
        // The C library's `signal(2)`: the environment has no `libc`
        // crate, so declare the one symbol needed directly.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    interrupt_token(); // initialize before the handler can observe it
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_interrupt_handler() {}

/// How `--profile` renders the collected profile at process exit.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum ProfileFormat {
    /// Human-readable span tree + metrics on stderr (the default).
    Tree,
    /// The profile JSON object: a `"profile"` field of the final
    /// `--json` report when one is emitted, printed alone on stdout
    /// otherwise.
    Json,
}

struct Args {
    command: String,
    input: String,
    output: Option<String>,
    json: bool,
    waveform: Option<usize>,
    /// `--profile[=tree|json]`: turn the observability layer on and
    /// render the profile when the command finishes.
    profile: Option<ProfileFormat>,
    /// `--progress DUR`: periodic exploration heartbeats on stderr.
    progress: Option<Duration>,
    /// The job options (`--arch` … `--timeout`), shared with serve.
    options: JobOptions,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sisyn <check|synth|verify|resolve|deadlock|dot|serve|submit> SPEC.g|SPEC.proto \
         [-o FILE] [--json] [--waveform N] {} [--profile[=tree|json]] [--progress DUR]",
        report::OPTION_USAGE
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, ExitCode> {
    let mut it = argv.iter();
    let command = it.next().ok_or_else(usage)?.clone();
    let mut input = None;
    let mut output = None;
    let mut json = false;
    let mut waveform = None;
    let mut profile = None;
    let mut progress = None;
    let mut options = JobOptions {
        cancel: Some(interrupt_token().clone()),
        ..JobOptions::default()
    };
    while let Some(a) = it.next() {
        match options.parse_flag(a, &mut it) {
            Some(Ok(())) => continue,
            Some(Err(e)) => {
                eprintln!("{e}");
                return Err(usage());
            }
            None => {}
        }
        match a.as_str() {
            "--profile" | "--profile=tree" => profile = Some(ProfileFormat::Tree),
            "--profile=json" => profile = Some(ProfileFormat::Json),
            "--progress" => {
                let v = it.next().ok_or_else(usage)?;
                progress = Some(report::parse_duration(v).ok_or_else(|| {
                    eprintln!("bad --progress {v:?} (expected e.g. 500ms, 2s, 1m)");
                    usage()
                })?);
            }
            "-o" => output = Some(it.next().ok_or_else(usage)?.clone()),
            "--json" => json = true,
            "--waveform" => {
                let v = it.next().ok_or_else(usage)?;
                waveform = Some(v.parse().map_err(|_| usage())?);
            }
            _ if input.is_none() => input = Some(a.clone()),
            other => {
                eprintln!("unexpected argument {other:?}");
                return Err(usage());
            }
        }
    }
    Ok(Args {
        command,
        input: input.ok_or_else(usage)?,
        output,
        json,
        waveform,
        profile,
        progress,
        options,
    })
}

/// Writes `content` to `-o FILE`, or to stdout when no file was given and
/// plain-text mode is on (`--json` owns stdout otherwise).
fn emit(args: &Args, content: &str) -> std::io::Result<()> {
    match &args.output {
        Some(path) => std::fs::write(path, content),
        None if !args.json => {
            print!("{content}");
            Ok(())
        }
        None => Ok(()),
    }
}

/// Prints a command's report: its human summary on stdout (stderr when
/// `--json` owns stdout), its notes on stderr, then under `--json` the
/// report object — with the collected profile as a `"profile"` field
/// under `--profile=json`. The op's span `op_span` closes before the
/// report object is rendered, so the profile holds the op's own calls
/// and time as well as those of every phase below it.
fn finish(args: &Args, report: &dyn Report, op_span: si_obs::SpanGuard) -> ExitCode {
    let summary = report.summary();
    if args.json {
        eprint!("{summary}");
    } else {
        print!("{summary}");
    }
    eprint!("{}", report.notes());
    drop(op_span);
    if args.json {
        let mut json = report.json();
        if args.profile == Some(ProfileFormat::Json) {
            json = json.field("profile", Raw(&si_obs::render_json()));
        }
        println!("{}", json.finish());
    }
    ExitCode::from(report.exit_code())
}

fn main() -> ExitCode {
    install_interrupt_handler();
    // The serve/submit subcommands own their flag vocabulary (socket
    // endpoints, store sizing) — dispatch before the generic parser.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => {
            return ExitCode::from(sisyn::serve::cli::serve_main(&argv[1..], interrupt_token()))
        }
        Some("submit") => return ExitCode::from(sisyn::serve::cli::submit_main(&argv[1..])),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(code) => return code,
    };
    if args.profile.is_some() {
        si_obs::set_enabled(true);
    }
    if let Some(interval) = args.progress {
        si_obs::arm_progress(interval);
    }
    let code = run(&args);
    // The tree profile goes to stderr after the command wound down (its
    // top-level span has closed by now); the JSON profile was already
    // added to the final `--json` report by `finish`, or prints alone on
    // stdout when no report owned stdout.
    match args.profile {
        Some(ProfileFormat::Tree) => si_obs::log_lines(&si_obs::render_tree()),
        Some(ProfileFormat::Json) if !args.json => println!("{}", si_obs::render_json()),
        _ => {}
    }
    code
}

/// The per-subcommand span names of the CLI layer — the profile tree's
/// roots, so every child phase sums under one wall-clock total.
fn cli_span(command: &str) -> &'static str {
    match command {
        "check" => "cli.check",
        "synth" => "cli.synth",
        "verify" => "cli.verify",
        "resolve" => "cli.resolve",
        "deadlock" => "cli.deadlock",
        _ => "cli.other",
    }
}

fn run(args: &Args) -> ExitCode {
    let span = si_obs::span(cli_span(&args.command));
    let text = match sisyn::serve::cli::read_input(&args.input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.input);
            return ExitCode::FAILURE;
        }
    };
    let options = &args.options;
    // Protocol deadlock checking parses `.proto` CFSM systems, not `.g`
    // STGs — dispatch before the STG parser. It runs on the explicit
    // explorer only (the symbolic backend encodes Petri-net markings).
    if args.command == "deadlock" {
        if options.backend != Backend::Explicit {
            eprintln!(
                "--backend {}: deadlock checking runs on the explicit explorer only",
                options.backend.as_str()
            );
            return usage();
        }
        return match parse_proto(&text) {
            Ok(sys) => finish(args, &report::Deadlock::build(&sys, options), span),
            Err(e) => {
                eprintln!("parse error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let stg = match parse_g(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // `--json` is defined for the commands that emit a report; rejecting
    // it elsewhere beats silently swallowing the artifact (`dot --json`
    // would otherwise print nothing and exit 0).
    if args.json && args.command == "dot" {
        eprintln!("--json is only supported for check, synth, verify, resolve and deadlock");
        return usage();
    }
    // `--backend` selects who answers the state-space queries of check and
    // verify; the other commands have no such query, so a stray flag is a
    // mistake worth naming rather than ignoring.
    if options.backend != Backend::Explicit && !matches!(args.command.as_str(), "check" | "verify")
    {
        eprintln!("--backend is only supported for check and verify");
        return usage();
    }

    match args.command.as_str() {
        "check" => finish(
            args,
            &report::Check::build(&options.engine(&stg, Op::Check)),
            span,
        ),
        "synth" => {
            let engine = options.engine(&stg, Op::Synth);
            let report = report::Synth::build(&stg, options, engine.synthesize());
            // The netlist and the waveform are built inside the op's span
            // and printed after its report.
            let netlist = report.synthesis().map(|syn| {
                let walk = args.waveform.map(|n| record_walk(&stg, &syn.circuit, n, 1));
                (to_verilog(&stg, &syn.circuit), walk)
            });
            let code = finish(args, &report, span);
            if let Some((verilog, walk)) = netlist {
                let _ = emit(args, &verilog);
                if let Some((outcome, trace)) = walk {
                    eprintln!("simulation: {outcome:?}");
                    eprint!("{}", sisyn::stg::render_waveform(&stg, &trace));
                }
            }
            code
        }
        "verify" => {
            // One session: the graph and encoding built for the
            // functional oracle also seed the conformance probe and the
            // random walks, so the state space is explored once.
            let engine = options.engine(&stg, Op::Verify);
            finish(
                args,
                &report::Verify::build(&engine, options, engine.synthesize()),
                span,
            )
        }
        "resolve" => {
            let report = report::Resolve::build(&options.engine(&stg, Op::Resolve), options);
            let resolved = report.resolved().map(write_g);
            let code = finish(args, &report, span);
            if let Some(resolved) = resolved {
                let _ = emit(args, &resolved);
            }
            code
        }
        "dot" => {
            let _ = emit(args, &stg_to_dot(&stg));
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
