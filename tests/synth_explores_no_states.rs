//! The paper's thesis as a checked invariant: structural synthesis
//! derives every implementation from the net's structure and never
//! enumerates a state. Every STG of the synthesizable benchmark suite is
//! piped to `sisyn synth - --json --profile=json`, and the profile must
//! record a structural context build and no state exploration.

use std::io::Write;
use std::process::{Command, Stdio};

use sisyn::serve::json::{self, Value};

/// Runs `sisyn synth - --json --profile=json` on `spec`: the report.
fn synth_profile(spec: &str) -> Value {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sisyn"))
        .args(["synth", "-", "--json", "--profile=json"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sisyn");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(spec.as_bytes())
        .expect("write spec");
    let out = child.wait_with_output().expect("sisyn output");
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    json::parse(&text).unwrap_or_else(|e| panic!("report is JSON ({e:?}): {text}"))
}

#[test]
fn structural_synthesis_explores_zero_states() {
    for stg in sisyn::stg::benchmarks::synthesizable_suite() {
        let report = synth_profile(&sisyn::stg::write_g(&stg));
        let ok = report.get("ok").and_then(Value::as_bool);
        assert_eq!(ok, Some(true), "{}: synthesis failed", stg.name());
        let counters = report
            .get("profile")
            .and_then(|p| p.get("counters"))
            .unwrap_or_else(|| panic!("{}: no profile counters", stg.name()));
        let count = |name: &str| counters.get(name).and_then(Value::as_usize).unwrap_or(0);
        for name in ["explore.states", "reach.builds", "engine.reach_builds"] {
            assert_eq!(count(name), 0, "{}: {name}", stg.name());
        }
        assert!(
            count("engine.context_builds") >= 1,
            "{}: synthesis built no structural context",
            stg.name()
        );
    }
}
