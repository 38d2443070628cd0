//! One-shot deadlock checking: explore the product space, collect a
//! canonical violation list, and extract a replayable action-sequence
//! witness for the first violation.
//!
//! [`check_deadlock`] / [`check_deadlock_with`] are the `Engine`-style
//! free functions behind `sisyn deadlock`. The returned
//! [`DeadlockReport`] lists violations by decoded state content, sorted,
//! so its order reads off the states themselves rather than the order
//! the explorer met them in.

use crate::model::ProtoSystem;
use crate::space::{GlobalState, ProtoSpace, ProtoViolation};
use si_petri::space::{explore, ExploreOptions};
use si_petri::{Interrupt, ReachOptions};
use std::convert::Infallible;

/// Default state cap of the one-shot checkers (matches reachability).
pub const DEFAULT_CAP: usize = 4_000_000;

/// One violation of the report, tagged with the decoded state it was
/// observed at.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ReportedViolation {
    /// The decoded product state (canonical content, not an interner id).
    pub state: GlobalState,
    /// The violation.
    pub violation: ProtoViolation,
}

/// Result of a deadlock check.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// All violations, sorted canonically by `(state, violation)`.
    pub violations: Vec<ReportedViolation>,
    /// States explored.
    pub states_explored: usize,
    /// Witness for the canonically-first violation: the action-label
    /// sequence (indexes into the product space's action table) from the
    /// initial state to [`Self::violations`]`[0].state`. Replayable via
    /// [`ProtoSpace::replay`].
    pub trace_labels: Option<Vec<u32>>,
    /// [`Self::trace_labels`] rendered as action names.
    pub trace: Option<Vec<String>>,
    /// `Some` when the exploration was cut short by its budget: the
    /// report is *partial* — recorded violations are real, but a clean
    /// report is inconclusive.
    pub interrupted: Option<Interrupt>,
}

impl DeadlockReport {
    /// No violations found (possibly inconclusively — see
    /// [`Self::is_conclusive`]).
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether the verdict is definitive: any violation is (it was
    /// reached), and a clean report is iff the exploration finished.
    pub fn is_conclusive(&self) -> bool {
        !self.violations.is_empty() || self.interrupted.is_none()
    }

    fn count(&self, kind: &str) -> usize {
        self.violations
            .iter()
            .filter(|v| v.violation.kind() == kind)
            .count()
    }

    /// Number of [`ProtoViolation::Deadlock`] violations.
    pub fn deadlocks(&self) -> usize {
        self.count("deadlock")
    }

    /// Number of [`ProtoViolation::DanglingSend`] violations.
    pub fn dangling_sends(&self) -> usize {
        self.count("dangling-send")
    }

    /// Number of [`ProtoViolation::Overflow`] violations.
    pub fn overflows(&self) -> usize {
        self.count("overflow")
    }
}

/// Checks `sys` for deadlocks, dangling sends and channel overflows with
/// the default cap.
///
/// # Errors
///
/// None: see [`check_deadlock_with`].
pub fn check_deadlock(sys: &ProtoSystem) -> Result<DeadlockReport, Infallible> {
    check_deadlock_with(sys, ReachOptions::with_cap(DEFAULT_CAP))
}

/// Checks `sys` under explicit resource options (the budget).
///
/// The exploration is exhaustive (no early exit on first violation); the
/// report orders the violations by decoded state content.
///
/// # Errors
///
/// None: the product space has no fatal violations, and budget
/// exhaustion returns a partial report tagged
/// [`DeadlockReport::interrupted`].
pub fn check_deadlock_with(
    sys: &ProtoSystem,
    reach: ReachOptions,
) -> Result<DeadlockReport, Infallible> {
    let space = ProtoSpace::new(sys);
    let opts = ExploreOptions::from(reach).witness();
    // `ProtoSpace::for_each_successor` never returns `Err`.
    let expl = explore(&space, opts)
        .unwrap_or_else(|v| unreachable!("proto space has no fatal violations: {v:?}"));

    // Re-key violations by decoded state content and sort.
    let mut tagged: Vec<(ReportedViolation, u32)> = expl
        .violations
        .iter()
        .map(|&(gid, v)| {
            (
                ReportedViolation {
                    state: space.decode(expl.key(gid)),
                    violation: v,
                },
                gid,
            )
        })
        .collect();
    tagged.sort_by(|a, b| a.0.cmp(&b.0));
    tagged.dedup_by(|a, b| a.0 == b.0);

    let (trace_labels, trace) = match tagged.first() {
        Some(&(_, gid)) => {
            let labels = expl.witness(gid);
            let names = labels
                .iter()
                .map(|&l| space.action_name(l).to_string())
                .collect();
            (Some(labels), Some(names))
        }
        None => (None, None),
    };
    Ok(DeadlockReport {
        violations: tagged.into_iter().map(|(v, _)| v).collect(),
        states_explored: expl.states,
        trace_labels,
        trace,
        interrupted: expl.interrupt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{dining, pipeline};
    use si_petri::Budget;

    #[test]
    fn dining_three_deadlocks_with_replayable_witness() {
        let sys = dining(3);
        let report = check_deadlock(&sys).unwrap();
        assert!(!report.is_ok());
        assert!(report.is_conclusive());
        assert!(report.deadlocks() >= 1);
        let labels = report.trace_labels.as_ref().unwrap();
        // Reaching the deadlock takes at least one grab per philosopher.
        assert!(labels.len() >= 3);
        let space = ProtoSpace::new(&sys);
        let state = space.replay(labels).expect("witness replays");
        assert_eq!(space.decode(&state), report.violations[0].state);
        assert!(space
            .violations_at(&state)
            .contains(&report.violations[0].violation));
    }

    #[test]
    fn pipeline_four_is_clean_and_conclusive() {
        let report = check_deadlock(&pipeline(4)).unwrap();
        assert!(report.is_ok());
        assert!(report.is_conclusive());
        assert!(report.trace.is_none());
        assert!(report.states_explored > 4);
    }

    #[test]
    fn zero_deadline_is_inconclusive() {
        let sys = dining(6);
        let reach = ReachOptions::with_cap(DEFAULT_CAP)
            .budget(Budget::with_cap(DEFAULT_CAP).timeout(std::time::Duration::ZERO));
        let report = check_deadlock_with(&sys, reach).unwrap();
        assert!(report.interrupted.is_some());
        assert!(!report.is_conclusive() || !report.is_ok());
    }
}
