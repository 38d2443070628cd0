//! Golden reports: the `sisyn` CLI's output and the serve `Service`'s
//! response bodies, pinned byte for byte against checked-in files, and
//! the two surfaces pinned against each other.
//!
//! For every spec (the `.g` files under `examples/specs/` plus a few
//! small generator specs) the test runs the `sisyn` binary for `check`
//! (human text and `--json`), `synth --json`, `verify --json` and
//! `resolve --json`, and executes the same `check`/`synth`/`verify`/
//! `resolve` requests on an in-process `Service`. `deadlock --json` runs
//! on every `examples/protocols/*.proto`. For a few specs the stderr of
//! `synth --waveform 200` pins a recorded random walk: its outcome and
//! the waveform of the transitions it fired. Each CLI `--json` object must
//! equal the serve body of the same request without its artifact key
//! (`"verilog"`, `"resolved"`). Specs are fed in canonical form, the
//! form serve works on, so both surfaces number nodes alike (resolve's
//! candidate order follows the numbering).
//!
//! Only `stats.wall_ms` and `elapsed_ms` are masked. Resolve's candidate
//! counters grow in scoring batches of `max(8 * threads, 32)`, so the
//! resolve sections are compared only on machines with at most four
//! hardware threads, where the batch is 32. After an intended output
//! change, regenerate the files with
//! `SISYN_BLESS=1 cargo test -p sisyn --test report_golden`.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

use sisyn::prelude::*;
use sisyn::serve::json::escape;
use sisyn::serve::{ArtifactStore, Service};
use sisyn::stg::canonical_g;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn golden_dir() -> PathBuf {
    root().join("tests/golden/reports")
}

/// The `.g` specs under test, in canonical form: the checked-in
/// examples, then small generator specs (conflicted VME chains and a
/// VME burst give resolve real candidate searches at the benchmark's
/// sizes).
fn specs() -> Vec<(String, String)> {
    let mut specs = Vec::new();
    for name in ["pipeline_pair", "pipeline_pair_edit", "vme_read_raw"] {
        let path = root().join(format!("examples/specs/{name}.g"));
        let text = std::fs::read_to_string(&path).expect("example spec");
        let stg = parse_g(&text).expect("example spec parses");
        specs.push((name.to_string(), stg));
    }
    use sisyn::stg::generators::{
        burst, clatch, muller_pipeline, philosophers, selector, sequencer, vme_burst, vme_chain,
    };
    specs.push(("clatch3".to_string(), clatch(3)));
    specs.push(("muller3".to_string(), muller_pipeline(3)));
    specs.push(("vme_chain1".to_string(), vme_chain(1)));
    specs.push(("vme_chain4".to_string(), vme_chain(4)));
    specs.push(("vme_burst2".to_string(), vme_burst(2)));
    // Long quiescent regions: their covers go through many expansion and
    // monotonicity checks, and the serve synth body carries the Verilog.
    specs.push(("sequencer8".to_string(), sequencer(8)));
    specs.push(("selector8".to_string(), selector(8)));
    specs.push(("burst4".to_string(), burst(4)));
    specs.push(("philosophers4".to_string(), philosophers(4)));
    specs
        .into_iter()
        .map(|(name, stg)| (name, canonical_g(&stg)))
        .collect()
}

/// Whether resolve's candidate counters match the recorded ones here.
fn resolve_counters_pinned() -> bool {
    std::thread::available_parallelism().map_or(1, |n| n.get()) <= 4
}

fn protocols() -> Vec<(String, String)> {
    let dir = root().join("examples/protocols");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/protocols")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "proto"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("protocol"))
        })
        .collect()
}

/// Runs `sisyn ARGS -` with `input` on stdin: (exit code, stdout).
fn cli(args: &[&str], input: &str) -> (i32, String) {
    let (code, stdout, _) = cli_with_stderr(args, input);
    (code, stdout)
}

/// [`cli`] that also returns the stderr.
fn cli_with_stderr(args: &[&str], input: &str) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sisyn"))
        .args(args)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sisyn");
    // A usage error exits before reading its input: ignore the broken pipe.
    let _ = child.stdin.take().unwrap().write_all(input.as_bytes());
    let out = child.wait_with_output().expect("sisyn output");
    let code = out.status.code().expect("exit code");
    let text = |bytes| String::from_utf8(bytes).expect("utf-8 output");
    (code, text(out.stdout), text(out.stderr))
}

/// Replaces the number after every `"KEY": ` with `#`.
fn mask_number(text: &str, key: &str) -> String {
    let pat = format!("\"{key}\": ");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(&pat) {
        let (head, tail) = rest.split_at(at + pat.len());
        out.push_str(head);
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        out.push('#');
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Masks the two timing fields of the reports.
fn mask(text: &str) -> String {
    mask_number(&mask_number(text, "wall_ms"), "elapsed_ms")
}

/// Drops the trailing artifact key a serve body carries after the
/// fields it shares with the CLI report.
fn without_artifact(body: &str) -> String {
    for key in ["\"verilog\": ", "\"resolved\": "] {
        if let Some(at) = body.rfind(&format!(", {key}")) {
            return format!("{}}}", &body[..at]);
        }
    }
    body.to_string()
}

/// One golden file: named sections in a fixed order.
struct Golden {
    sections: Vec<(String, String)>,
}

impl Golden {
    fn new() -> Self {
        Golden {
            sections: Vec::new(),
        }
    }

    fn add(&mut self, title: String, content: &str) {
        self.sections.push((title, mask(content.trim_end())));
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for (title, content) in &self.sections {
            out.push_str(&format!("=== {title}\n{content}\n"));
        }
        out
    }

    /// Compares against (or, under `SISYN_BLESS`, rewrites) the file.
    fn check(&self, name: &str) {
        let path = golden_dir().join(format!("{name}.txt"));
        let got = self.render();
        if std::env::var_os("SISYN_BLESS").is_some() {
            std::fs::create_dir_all(golden_dir()).expect("golden dir");
            std::fs::write(&path, &got).expect("write golden");
            return;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (bless with SISYN_BLESS=1)", path.display()));
        let split = |text: &str| -> Vec<String> {
            text.split("=== ")
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        };
        let (got, want) = (split(&got), split(&want));
        for (g, w) in got.iter().zip(&want) {
            let title = g.lines().next().unwrap_or_default();
            if title.contains("resolve") && !resolve_counters_pinned() {
                continue;
            }
            assert_eq!(g, w, "{}: section differs", path.display());
        }
        assert_eq!(got.len(), want.len(), "{}: section count", path.display());
    }
}

/// Option variants run on top of the defaults: (spec, op, the CLI flags,
/// the same options as request keys). They reach the capped, symbolic,
/// no-resolution and non-default synthesis paths.
const VARIANTS: &[(&str, &str, &[&str], &str)] = &[
    ("clatch3", "check", &["--cap", "5"], r#""cap": 5"#),
    ("clatch3", "verify", &["--cap", "5"], r#""cap": 5"#),
    (
        "clatch3",
        "verify",
        &["--backend", "symbolic"],
        r#""backend": "symbolic""#,
    ),
    (
        "vme_read_raw",
        "check",
        &["--backend", "symbolic"],
        r#""backend": "symbolic""#,
    ),
    (
        "vme_read_raw",
        "resolve",
        &["--budget", "1"],
        r#""budget": 1"#,
    ),
    (
        "vme_read_raw",
        "resolve",
        &["--strategy", "beam"],
        r#""strategy": "beam""#,
    ),
    // Beam ranks the survivors of its nearest productive tier by the
    // cost model, which reads each candidate's structural context.
    (
        "vme_chain4",
        "resolve",
        &["--strategy", "beam"],
        r#""strategy": "beam""#,
    ),
    (
        "muller3",
        "synth",
        &["--arch", "complex", "--stages", "2", "--minimizer", "exact"],
        r#""arch": "complex", "stages": 2, "minimizer": "exact""#,
    ),
    // Stage M1 (cluster merging) runs only in the per-region architecture.
    (
        "burst4",
        "synth",
        &["--arch", "per-region"],
        r#""arch": "per-region""#,
    ),
];

/// The specs whose `synth --waveform 200` stderr is pinned: the
/// `simulation: …` line and the waveform of the recorded walk.
const WAVEFORM_SPECS: &[&str] = &[
    "clatch3",
    "muller3",
    "burst4",
    "philosophers4",
    "pipeline_pair",
];

/// Runs `op` with `flags` on the CLI and with `fields` on a fresh
/// `Service`, records both, and checks that they agree.
fn run_pair(golden: &mut Golden, name: &str, text: &str, op: &str, flags: &[&str], fields: &str) {
    let mut args = vec![op];
    args.extend_from_slice(flags);
    if op == "check" {
        let (code, out) = cli(&args, text);
        golden.add(format!("cli {} (exit {code})", args.join(" ")), &out);
    }
    args.push("--json");
    let (code, out) = cli(&args, text);
    golden.add(format!("cli {} (exit {code})", args.join(" ")), &out);
    let service = Service::new(Arc::new(ArtifactStore::in_memory(16 << 20)));
    let mut request = format!("{{\"op\": {}, \"spec\": {}", escape(op), escape(text));
    if !fields.is_empty() {
        request.push_str(&format!(", {fields}"));
    }
    request.push('}');
    let body = service.execute(&request).body;
    golden.add(format!("serve {op} {{{fields}}}"), &body);
    assert_eq!(
        mask(out.trim_end()),
        mask(&without_artifact(&body)),
        "{name}: cli {} vs serve {op} {{{fields}}}",
        args.join(" ")
    );
}

#[test]
fn cli_and_serve_reports_match_the_goldens() {
    for (name, text) in specs() {
        let mut golden = Golden::new();
        for op in ["check", "synth", "verify", "resolve"] {
            run_pair(&mut golden, &name, &text, op, &[], "");
        }
        for &(_, op, flags, fields) in VARIANTS.iter().filter(|v| v.0 == name) {
            run_pair(&mut golden, &name, &text, op, flags, fields);
        }
        if WAVEFORM_SPECS.contains(&name.as_str()) {
            let args = ["synth", "--waveform", "200"];
            let (code, _, stderr) = cli_with_stderr(&args, &text);
            golden.add(
                format!("cli {} stderr (exit {code})", args.join(" ")),
                &stderr,
            );
        }
        golden.check(&format!("{name}.g"));
    }
}

#[test]
fn deadlock_reports_match_the_goldens() {
    for (name, text) in protocols() {
        let mut golden = Golden::new();
        let (code, out) = cli(&["deadlock", "--json"], &text);
        golden.add(format!("cli deadlock --json (exit {code})"), &out);
        golden.check(&format!("{name}.proto"));
    }
}

#[test]
fn unrepresentable_timeout_means_no_deadline() {
    let (_, text) = &specs()[0];
    let (code, out) = cli(&["check", "--timeout", "18446744073709551615s"], text);
    assert_eq!(code, 0, "{out}");
    let (code, out) = cli(
        &["verify", "--timeout", "300000000000000000m", "--json"],
        text,
    );
    assert_eq!(code, 0, "{out}");
}

/// A symbolic `check` whose structural CSC verdict is unknown settles the
/// verdict and counts the states from one symbolic analysis, and the
/// analysis spans its coding fixpoints as `symbolic.coding`.
#[test]
fn symbolic_check_builds_one_analysis() {
    use sisyn::serve::json::{parse, Value};
    let text = canonical_g(&sisyn::stg::generators::vme_burst(2));
    let args = ["check", "--backend", "symbolic", "--json", "--profile=json"];
    let (code, out) = cli(&args, &text);
    assert_eq!(code, 1, "{out}");
    let report = parse(&out).expect("JSON report");
    assert_eq!(
        report.get("csc").and_then(Value::as_str),
        Some("csc-violation")
    );
    let profile = report.get("profile").expect("profile");
    let counter = |name| {
        let counters = profile.get("counters");
        counters.and_then(|c| c.get(name)).and_then(Value::as_usize)
    };
    assert_eq!(counter("engine.symbolic_builds"), Some(1), "{out}");
    assert_eq!(counter("symbolic.iterations"), Some(14), "{out}");
    // The BDD figures count the coding layer's work too: they are the
    // in-process analysis' own.
    let analysis = sisyn::stg::SymbolicAnalysis::build(&parse_g(&text).unwrap()).unwrap();
    assert_eq!(analysis.peak_nodes(), 4430);
    let peak = profile
        .get("gauges")
        .and_then(|g| g.get("symbolic.peak_nodes"))
        .and_then(Value::as_usize);
    assert_eq!(peak, Some(analysis.peak_nodes()), "{out}");
    let (hits, misses) = analysis.reach().bdd().cache_stats();
    assert_eq!(counter("bdd.cache_hits"), Some(hits as usize), "{out}");
    assert_eq!(counter("bdd.cache_misses"), Some(misses as usize), "{out}");
    // The span path cli.check > symbolic.analysis > symbolic.coding.
    let mut spans = profile.get("spans");
    for name in ["cli.check", "symbolic.analysis", "symbolic.coding"] {
        let Some(Value::Arr(nodes)) = spans else {
            panic!("no spans above {name}: {out}");
        };
        let node = nodes
            .iter()
            .find(|n| n.get("name").and_then(Value::as_str) == Some(name));
        spans = node
            .unwrap_or_else(|| panic!("no {name} span: {out}"))
            .get("children");
    }
}

// One validation rule for the numeric options on every surface: stages
// are 0..4, full or none, and numbers are integers.

#[test]
fn cli_rejects_bad_numeric_options() {
    let (_, text) = &specs()[0];
    for bad in [["--stages", "9"], ["--stages", "2.5"], ["--budget", "2.7"]] {
        let (code, _) = cli(&["synth", bad[0], bad[1]], text);
        assert_eq!(code, 2, "{bad:?}");
    }
    let (code, _) = cli(&["synth", "--stages", "none"], text);
    assert_eq!(code, 0);
}

#[test]
fn submit_rejects_bad_numeric_options() {
    // Rejected while parsing, before any connection is attempted.
    for bad in [
        ["--stages", "9"],
        ["--budget", "2.7"],
        ["--timeout-ms", "5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sisyn"))
            .args([
                "submit",
                "--socket",
                "/nonexistent/sisyn.sock",
                "synth",
                "spec.g",
            ])
            .args(bad)
            .stderr(Stdio::null())
            .status()
            .expect("run sisyn submit");
        assert_eq!(out.code(), Some(2), "{bad:?}");
    }
}

#[test]
fn serve_rejects_bad_numeric_options() {
    let service = Service::new(Arc::new(ArtifactStore::in_memory(1 << 20)));
    let (_, text) = &specs()[0];
    for bad in [r#""stages": 9"#, r#""stages": 2.5"#, r#""budget": 2.7"#] {
        let request = format!("{{\"op\": \"synth\", \"spec\": {}, {bad}}}", escape(text));
        let body = service.execute(&request).body;
        assert!(body.contains("\"kind\": \"bad-request\""), "{bad}: {body}");
    }
}
