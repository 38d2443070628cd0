//! Known answers: what every job must report, derived from the families'
//! closed forms and from the specs' declarations, without running the
//! program under test.

use crate::jobs::{Family, Op, SpecId};
use sisyn::serve::json::{self, Value};

/// Reachable states of a spec (markings of an STG, global states of a
/// protocol) where the family has a closed form.
pub fn states(spec: SpecId) -> Option<u128> {
    let n = spec.n as u32;
    Some(match spec.family {
        Family::Clatch | Family::Muller => 1 << (n + 1),
        Family::Burst => 2 * 3u128.pow(n) + 2,
        Family::Philosophers => (1 << n) * lucas(n),
        Family::Sequencer => 4 * u128::from(n),
        Family::Selector => 3 * u128::from(n) + 1,
        Family::Dining => 3u128.pow(n) - 1,
        Family::ForkJoin => 2 * 3u128.pow(n) - 1,
        Family::Pipeline => 1 << (2 * n + 3),
        Family::Ring => binomial(2 * n, n.div_ceil(2)),
        Family::Pair => 4u128.pow(n),
        Family::VmeChain | Family::VmeBurst | Family::Suite => return None,
    })
}

/// The Lucas numbers: L(0) = 2, L(1) = 1, L(n) = L(n-1) + L(n-2).
fn lucas(n: u32) -> u128 {
    let (mut a, mut b) = (2u128, 1u128);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

fn binomial(n: u32, k: u32) -> u128 {
    (0..k).fold(1u128, |acc, i| acc * u128::from(n - i) / u128::from(i + 1))
}

/// Signals a circuit for the spec implements: its non-input signals.
pub fn synthesized_signals(spec: SpecId) -> usize {
    let n = spec.n;
    match spec.family {
        Family::Clatch => 1,
        Family::Burst => n + 1,
        Family::Muller
        | Family::Philosophers
        | Family::Sequencer
        | Family::Selector
        | Family::Pair => n,
        Family::VmeChain | Family::VmeBurst => 3 + n,
        Family::Suite => {
            let stg = spec.stg();
            stg.signals()
                .filter(|&s| stg.signal_kind(s) != sisyn::stg::SignalKind::Input)
                .count()
        }
        Family::Ring | Family::Dining | Family::ForkJoin | Family::Pipeline => 0,
    }
}

/// Whether the spec has complete state coding. The VME families carry a
/// genuine conflict by construction; every other STG here satisfies it.
pub fn csc_holds(spec: SpecId) -> bool {
    !matches!(spec.family, Family::VmeChain | Family::VmeBurst)
}

/// Whether the protocol deadlocks: dining philosophers do, the ring,
/// pipeline and fork/join topologies do not.
pub fn deadlocks(spec: SpecId) -> bool {
    spec.family == Family::Dining
}

/// What a correct job reported that the benchmark aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Answer {
    /// Literal area of the synthesized circuit (synth and verify jobs).
    pub literal_area: Option<u64>,
}

/// The CLI exit code of a correct job.
fn expected_exit(op: Op, spec: SpecId) -> i32 {
    let fails = match op {
        Op::Check | Op::CheckSymbolic => !csc_holds(spec),
        Op::Deadlock => deadlocks(spec),
        Op::Synth | Op::Verify | Op::Resolve => false,
    };
    i32::from(fails)
}

/// Checks one CLI job: its exit code and its report.
pub fn check_cli(op: Op, spec: SpecId, exit: Option<i32>, stdout: &str) -> Result<Answer, String> {
    let want = expected_exit(op, spec);
    if exit != Some(want) {
        return Err(format!("exit code {exit:?}, expected {want}"));
    }
    match op {
        // `check` has no `--json`: read its report lines.
        Op::Check | Op::CheckSymbolic => check_text(op, spec, stdout),
        _ => {
            let last = stdout.lines().last().unwrap_or_default();
            check_report(op, spec, &json::parse(last).map_err(|e| e.to_string())?)
        }
    }
}

fn check_text(op: Op, spec: SpecId, stdout: &str) -> Result<Answer, String> {
    let line = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .ok_or_else(|| format!("no {prefix:?} line"))
    };
    let count = line("reachable markings: ")?;
    let n: u128 = count
        .split_whitespace()
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("unparsable state count {count:?}"))?;
    expect_states(spec, n as f64)?;
    let coding = line("state coding: ")?;
    let ok = if csc_holds(spec) {
        coding.starts_with("USC holds") || coding.starts_with("CSC holds")
    } else if op == Op::CheckSymbolic {
        coding.starts_with("CSC violation")
    } else {
        coding.starts_with("possible CSC violation")
    };
    if !ok {
        return Err(format!("state coding {coding:?}"));
    }
    Ok(Answer::default())
}

fn expect_states(spec: SpecId, got: f64) -> Result<(), String> {
    match states(spec) {
        Some(want) if got != want as f64 => Err(format!("{got} states, expected {want}")),
        _ => Ok(()),
    }
}

fn expect(v: &Value, key: &str, want: bool) -> Result<(), String> {
    match v.get(key).and_then(Value::as_bool) {
        Some(b) if b == want => Ok(()),
        got => Err(format!("{key:?} is {got:?}, expected {want}")),
    }
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("no number {key:?}"))
}

/// Checks a JSON report: a CLI `--json` report or a server response,
/// which share their keys.
pub fn check_report(op: Op, spec: SpecId, v: &Value) -> Result<Answer, String> {
    let mut answer = Answer::default();
    match op {
        Op::Check | Op::CheckSymbolic => {
            expect_states(spec, number(v, "spec_states")?)?;
            let csc = v.get("csc").and_then(Value::as_str).unwrap_or_default();
            let holds = matches!(csc, "usc-holds" | "csc-holds");
            let violation = matches!(csc, "unknown" | "csc-violation");
            if !(if csc_holds(spec) { holds } else { violation }) {
                return Err(format!("csc {csc:?}"));
            }
            expect(v, "ok", csc_holds(spec))?;
        }
        Op::Synth | Op::Verify => {
            expect(v, "ok", true)?;
            if op == Op::Synth {
                let signals = number(v, "signals")?;
                if signals != synthesized_signals(spec) as f64 {
                    return Err(format!("{signals} signals synthesized"));
                }
            } else {
                expect(v, "inconclusive", false)?;
                expect_states(spec, number(v, "spec_states")?)?;
            }
            answer.literal_area = Some(number(v, "literal_area")? as u64);
        }
        Op::Resolve => {
            expect(v, "ok", true)?;
            let added = number(v, "signals_after")? - number(v, "signals_before")?;
            let want = if csc_holds(spec) { 0.0 } else { 1.0 };
            if added != want {
                return Err(format!("resolve added {added} signals, expected {want}"));
            }
        }
        Op::Deadlock => {
            expect_states(spec, number(v, "states_explored")?)?;
            expect(v, "inconclusive", false)?;
            expect(v, "ok", !deadlocks(spec))?;
            let found = number(v, "deadlocks")?;
            if (found >= 1.0) != deadlocks(spec) {
                return Err(format!("{found} deadlocks"));
            }
        }
    }
    Ok(answer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisyn::prelude::*;

    fn explicit_states(spec: SpecId) -> u128 {
        if spec.is_proto() {
            let sys = parse_proto(&spec.text()).unwrap();
            check_deadlock(&sys).unwrap().states_explored as u128
        } else {
            let stg = parse_g(&spec.text()).unwrap();
            Engine::new(&stg).spec_state_count().unwrap()
        }
    }

    /// The closed forms against explicit enumeration, at sizes the
    /// explicit engine enumerates in milliseconds.
    #[test]
    fn state_formulas_match_enumeration() {
        use Family::*;
        for (family, sizes) in [
            (Clatch, 1..=6),
            (Muller, 1..=6),
            (Burst, 1..=5),
            (Philosophers, 2..=6),
            (Sequencer, 1..=6),
            (Selector, 2..=6),
            (Dining, 2..=6),
            (ForkJoin, 1..=5),
            (Pipeline, 1..=4),
            (Ring, 2..=8),
            (Pair, 1..=4),
        ] {
            for n in sizes {
                let spec = SpecId::new(family, n);
                assert_eq!(Some(explicit_states(spec)), states(spec), "{spec:?}");
            }
        }
    }

    #[test]
    fn verdict_formulas_match_the_program() {
        for n in 2..=5 {
            let dining = parse_proto(&SpecId::new(Family::Dining, n).text()).unwrap();
            assert!(check_deadlock(&dining).unwrap().deadlocks() >= 1);
            for family in [Family::VmeChain, Family::VmeBurst] {
                let spec = SpecId::new(family, n);
                let stg = spec.stg();
                let sym = Engine::new(&stg).symbolic().unwrap().has_csc();
                assert_eq!(sym, Some(false), "{spec:?}");
                let outcome = Engine::new(&stg).resolve_csc_outcome(&CscOptions::default());
                let fixed = outcome.resolution.expect("resolvable").stg;
                assert_eq!(fixed.signal_count(), stg.signal_count() + 1);
            }
        }
        for spec in [
            SpecId::new(Family::Clatch, 4),
            SpecId::new(Family::Burst, 3),
            SpecId::new(Family::Pair, 3),
        ] {
            let stg = spec.stg();
            assert!(csc_holds(spec));
            let engine = Engine::new(&stg);
            let syn = engine.synthesize().unwrap();
            assert_eq!(syn.results.len(), synthesized_signals(spec));
            assert!(engine.verify(&syn.circuit).unwrap().is_ok());
        }
    }

    #[test]
    fn text_reports_are_parsed_strictly() {
        let spec = SpecId::new(Family::Clatch, 2);
        let good = "reachable markings: 8\nstate coding: CSC holds\n";
        assert!(check_cli(Op::Check, spec, Some(0), good).is_ok());
        let capped = "reachable markings: > 100000 (state cap exceeded)\nstate coding: CSC holds\n";
        assert!(check_cli(Op::Check, spec, Some(0), capped).is_err());
        assert!(check_cli(Op::Check, spec, Some(3), good).is_err());
        let wrong = "reachable markings: 9\nstate coding: CSC holds\n";
        assert!(check_cli(Op::Check, spec, Some(0), wrong).is_err());
    }
}
