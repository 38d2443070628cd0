//! State encoding and behavioural oracles (§II-D, §II-E).
//!
//! Everything in this module works on the explicit reachability graph. It is
//! the *ground truth* against which the structural methods of the paper are
//! validated: binary codes of markings, behavioural consistency, USC/CSC
//! analysis, output semimodularity and the next-state function.

use crate::signal::{Direction, SignalId};
use crate::stg::Stg;
use si_boolean::Bits;
use si_petri::{ReachabilityGraph, StateId, TransId};
use std::collections::VecDeque;

/// Binary codes assigned to every reachable marking.
#[derive(Clone, Debug)]
pub struct StateEncoding {
    codes: Vec<Bits>,
}

/// Why an STG failed behavioural consistency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodingError {
    /// Two constraints force opposite values of a signal at one marking —
    /// autoconcurrency or a switchover violation.
    Inconsistent {
        /// The state at which the contradiction appeared.
        state: StateId,
        /// The signal whose value is contradictory.
        signal: SignalId,
    },
    /// A signal's value is unconstrained (it has no transitions reachable
    /// from the initial marking).
    Undetermined {
        /// The signal that never switches.
        signal: SignalId,
    },
}

impl std::fmt::Display for EncodingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodingError::Inconsistent { state, signal } => write!(
                f,
                "inconsistent encoding: signal #{} has contradictory values at state #{}",
                signal.0, state.0
            ),
            EncodingError::Undetermined { signal } => {
                write!(
                    f,
                    "signal #{} never switches; its value is undetermined",
                    signal.0
                )
            }
        }
    }
}

impl std::error::Error for EncodingError {}

impl StateEncoding {
    /// Computes the (unique) consistent binary encoding of the reachability
    /// graph in one breadth-first pass from the initial state, or reports
    /// why none exists.
    ///
    /// Codes are first taken relative to the initial state's: a tree edge
    /// labelled `a±` gives its target the source's code with `a` toggled,
    /// and the first `a±` edge fixes `a`'s initial value (`a` reads the
    /// opposite of the edge's target value at its source). Every edge is
    /// checked against both, so a failed check is exactly a violation of
    /// behavioural consistency (autoconcurrency or switchover error).
    ///
    /// # Errors
    ///
    /// See [`EncodingError`].
    pub fn compute(stg: &Stg, rg: &ReachabilityGraph) -> Result<Self, EncodingError> {
        let nsig = stg.signal_count();
        let mut initial: Vec<Option<bool>> = vec![None; nsig];
        let mut codes = vec![Bits::zeros(nsig); rg.state_count()];
        let mut seen = vec![false; rg.state_count()];
        // The graph numbers its initial marking 0.
        seen[0] = true;
        let mut queue = VecDeque::from([StateId(0)]);
        let (mut from, mut diff) = (Bits::zeros(nsig), Bits::zeros(nsig));
        while let Some(s) = queue.pop_front() {
            from.copy_from(&codes[s.index()]);
            for &(t, d) in rg.successors(s) {
                let a = stg.signal_of(t).index();
                let target = stg.direction_of(t).target_value();
                // `a` reads `!target` at the source; its first edge fixes
                // its initial value to make it so.
                let toggled = from.get(a);
                if *initial[a].get_or_insert(!target ^ toggled) ^ toggled == target {
                    return Err(EncodingError::Inconsistent {
                        state: s,
                        signal: SignalId(a as u16),
                    });
                }
                let code = &mut codes[d.index()];
                if !std::mem::replace(&mut seen[d.index()], true) {
                    code.copy_from(&from);
                    code.toggle(a);
                    queue.push_back(d);
                    continue;
                }
                // The target's code is the source's with `a` toggled.
                diff.copy_from(code);
                diff.xor_with(&from);
                diff.toggle(a);
                if let Some(b) = diff.first_one() {
                    return Err(EncodingError::Inconsistent {
                        state: d,
                        signal: SignalId(b as u16),
                    });
                }
            }
        }
        if let Some(a) = initial.iter().position(Option::is_none) {
            return Err(EncodingError::Undetermined {
                signal: SignalId(a as u16),
            });
        }
        let init = Bits::from_ones(nsig, (0..nsig).filter(|&a| initial[a] == Some(true)));
        for code in &mut codes {
            code.xor_with(&init);
        }
        Ok(StateEncoding { codes })
    }

    /// The binary code of a state.
    pub fn code(&self, s: StateId) -> &Bits {
        &self.codes[s.index()]
    }

    /// The value of a signal at a state.
    pub fn value(&self, s: StateId, sig: SignalId) -> bool {
        self.codes[s.index()].get(sig.index())
    }

    /// All codes, indexed by state.
    pub fn codes(&self) -> &[Bits] {
        &self.codes
    }

    /// The set of distinct reachable codes.
    pub fn distinct_codes(&self) -> std::collections::BTreeSet<Bits> {
        self.codes.iter().cloned().collect()
    }
}

/// Result of the USC/CSC ground-truth analysis (§II-D).
#[derive(Clone, Debug, Default)]
pub struct CodingAnalysis {
    /// Pairs of distinct states sharing a binary code.
    pub usc_conflicts: Vec<(StateId, StateId)>,
    /// USC conflict pairs whose enabled synthesized signals differ — real
    /// CSC violations.
    pub csc_conflicts: Vec<(StateId, StateId)>,
}

impl CodingAnalysis {
    /// Analyzes unique/complete state coding over the whole RG.
    pub fn compute(stg: &Stg, rg: &ReachabilityGraph, enc: &StateEncoding) -> Self {
        use std::collections::HashMap;
        let mut by_code: HashMap<&Bits, Vec<StateId>> = HashMap::new();
        for s in rg.states() {
            by_code.entry(enc.code(s)).or_default().push(s);
        }
        let enabled_outputs = |s: StateId| -> Vec<SignalId> {
            let mut sigs: Vec<SignalId> = rg
                .successors(s)
                .iter()
                .map(|&(t, _)| stg.signal_of(t))
                .filter(|&sig| stg.signal_kind(sig).is_synthesized())
                .collect();
            sigs.sort_unstable();
            sigs.dedup();
            sigs
        };
        let mut usc = Vec::new();
        let mut csc = Vec::new();
        for group in by_code.values() {
            for i in 0..group.len() {
                for j in i + 1..group.len() {
                    usc.push((group[i], group[j]));
                    if enabled_outputs(group[i]) != enabled_outputs(group[j]) {
                        csc.push((group[i], group[j]));
                    }
                }
            }
        }
        usc.sort_unstable();
        csc.sort_unstable();
        CodingAnalysis {
            usc_conflicts: usc,
            csc_conflicts: csc,
        }
    }

    /// Does the STG satisfy unique state coding?
    pub fn has_usc(&self) -> bool {
        self.usc_conflicts.is_empty()
    }

    /// Does the STG satisfy complete state coding?
    pub fn has_csc(&self) -> bool {
        self.csc_conflicts.is_empty()
    }
}

/// Checks output semimodularity (§II-B): no enabled synthesized-signal
/// transition may be disabled by firing a transition of another signal.
/// Returns the offending `(state, output transition, disabling transition)`
/// triples.
pub fn semimodularity_violations(
    stg: &Stg,
    rg: &ReachabilityGraph,
) -> Vec<(StateId, TransId, TransId)> {
    let mut bad = Vec::new();
    for s in rg.states() {
        let enabled: Vec<TransId> = rg.successors(s).iter().map(|&(t, _)| t).collect();
        for &t in &enabled {
            if !stg.signal_kind(stg.signal_of(t)).is_synthesized() {
                continue;
            }
            for &(u, d) in rg.successors(s) {
                if u == t || stg.signal_of(u) == stg.signal_of(t) {
                    continue;
                }
                if !stg.net().is_enabled(rg.marking(d), t) {
                    bad.push((s, t, u));
                }
            }
        }
    }
    bad
}

/// The next-state function of one signal over the reachable codes
/// (§II-E): `on`, `off` and the implicit `dc` (unreachable codes).
#[derive(Clone, Debug)]
pub struct NextStateSets {
    /// Codes where the implied next value is 1 (GER(a+) ∪ GQR(1)).
    pub on_codes: Vec<Bits>,
    /// Codes where the implied next value is 0.
    pub off_codes: Vec<Bits>,
}

impl NextStateSets {
    /// Computes the exact on/off code sets of a signal from the RG.
    ///
    /// Requires CSC to be meaningful (a shared code with contradictory
    /// implied values makes the function undefined — such a code is put in
    /// **both** sets so callers can detect the clash).
    pub fn compute(stg: &Stg, rg: &ReachabilityGraph, enc: &StateEncoding, sig: SignalId) -> Self {
        use std::collections::BTreeSet;
        let mut on = BTreeSet::new();
        let mut off = BTreeSet::new();
        for s in rg.states() {
            let enabled_dir: Option<Direction> = rg
                .successors(s)
                .iter()
                .find(|&&(t, _)| stg.signal_of(t) == sig)
                .map(|&(t, _)| stg.direction_of(t));
            let next = match enabled_dir {
                Some(d) => d.target_value(),
                None => enc.value(s, sig),
            };
            if next {
                on.insert(enc.code(s).clone());
            } else {
                off.insert(enc.code(s).clone());
            }
        }
        NextStateSets {
            on_codes: on.into_iter().collect(),
            off_codes: off.into_iter().collect(),
        }
    }

    /// `true` when a code appears in both sets (CSC clash for this signal).
    pub fn is_contradictory(&self) -> bool {
        let on: std::collections::BTreeSet<_> = self.on_codes.iter().collect();
        self.off_codes.iter().any(|c| on.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Direction::{Fall, Rise};
    use crate::signal::SignalKind;
    use crate::stg::StgBuilder;

    /// x+ -> y+ -> x- -> y- -> (loop), marked on the last arc.
    fn toggle() -> Stg {
        toggle_builder().build()
    }

    /// The builder of [`toggle`], for tests that extend the net.
    fn toggle_builder() -> StgBuilder {
        let mut b = Stg::builder("toggle");
        let x = b.add_signal("x", SignalKind::Input);
        let y = b.add_signal("y", SignalKind::Output);
        let xp = b.add_transition(x, Rise);
        let yp = b.add_transition(y, Rise);
        let xm = b.add_transition(x, Fall);
        let ym = b.add_transition(y, Fall);
        b.arc(xp, yp);
        b.arc(yp, xm);
        b.arc(xm, ym);
        let p = b.arc(ym, xp);
        b.mark_place(p);
        b
    }

    fn rg_of(stg: &Stg) -> ReachabilityGraph {
        ReachabilityGraph::build(stg.net(), 10_000).unwrap()
    }

    #[test]
    fn encodes_toggle() {
        let stg = toggle();
        let rg = rg_of(&stg);
        let enc = StateEncoding::compute(&stg, &rg).unwrap();
        // 4 states, codes 00 -> 10 -> 11 -> 01 around the cycle.
        assert_eq!(rg.state_count(), 4);
        let codes = enc.distinct_codes();
        assert_eq!(codes.len(), 4);
        // initial state: both signals 0
        let s0 = rg.state_of(&stg.net().initial_marking()).unwrap();
        assert!(!enc.value(s0, SignalId(0)));
        assert!(!enc.value(s0, SignalId(1)));
    }

    #[test]
    fn toggle_has_usc_and_csc() {
        let stg = toggle();
        let rg = rg_of(&stg);
        let enc = StateEncoding::compute(&stg, &rg).unwrap();
        let coding = CodingAnalysis::compute(&stg, &rg, &enc);
        assert!(coding.has_usc());
        assert!(coding.has_csc());
    }

    #[test]
    fn next_state_sets_of_toggle() {
        let stg = toggle();
        let rg = rg_of(&stg);
        let enc = StateEncoding::compute(&stg, &rg).unwrap();
        let y = stg.signal_by_name("y").unwrap();
        let ns = NextStateSets::compute(&stg, &rg, &enc, y);
        assert!(!ns.is_contradictory());
        // on: state 10 (y+ enabled) and state 11 (y stays 1) => codes {10, 11}
        assert_eq!(ns.on_codes.len(), 2);
        assert_eq!(ns.off_codes.len(), 2);
    }

    #[test]
    fn autoconcurrent_stg_rejected() {
        // Two concurrent x+ transitions: fork enables both.
        let mut b = Stg::builder("auto");
        let x = b.add_signal("x", SignalKind::Input);
        let y = b.add_signal("y", SignalKind::Output);
        let x1 = b.add_transition(x, Rise);
        let x2 = b.add_transition(x, Rise);
        let yp = b.add_transition(y, Rise);
        // yp forks into both x+ transitions; they join into y- … keep it
        // small: x1, x2 both feed y-; y- feeds yp again.
        let ym = b.add_transition(y, Fall);
        let p = b.arc(ym, yp);
        b.mark_place(p);
        b.arc(yp, x1);
        b.arc(yp, x2);
        b.arc(x1, ym);
        b.arc(x2, ym);
        let stg = b.build();
        let rg = rg_of(&stg);
        let err = StateEncoding::compute(&stg, &rg).unwrap_err();
        assert!(matches!(err, EncodingError::Inconsistent { .. }));
    }

    #[test]
    fn dead_signal_is_undetermined() {
        // The toggle plus a signal z whose two transitions wait on each
        // other with no token between them: z never switches, so neither
        // the explicit pass nor the symbolic analysis can fix its value.
        let mut b = toggle_builder();
        let z = b.add_signal("z", SignalKind::Output);
        let zp = b.add_transition(z, Rise);
        let zm = b.add_transition(z, Fall);
        b.arc(zp, zm);
        b.arc(zm, zp);
        let stg = b.build();
        let rg = rg_of(&stg);
        assert_eq!(
            StateEncoding::compute(&stg, &rg).unwrap_err(),
            EncodingError::Undetermined { signal: z }
        );
        let sym = crate::SymbolicAnalysis::build(&stg).unwrap();
        assert_eq!(
            sym.consistency(),
            crate::SymbolicConsistency::Undetermined { signal: z }
        );
    }

    #[test]
    fn switchover_violation_rejected() {
        // x+ followed by x+ again (no alternation).
        let mut b = Stg::builder("bad");
        let x = b.add_signal("x", SignalKind::Input);
        let x1 = b.add_transition(x, Rise);
        let x2 = b.add_transition(x, Rise);
        b.arc(x1, x2);
        let p = b.arc(x2, x1);
        b.mark_place(p);
        let stg = b.build();
        let rg = rg_of(&stg);
        assert!(StateEncoding::compute(&stg, &rg).is_err());
    }

    #[test]
    fn semimodularity_detects_output_disabling() {
        // Choice place feeding an output transition y+ and an input x+:
        // firing x+ disables y+ — a semimodularity violation.
        let mut b = Stg::builder("nonsemi");
        let x = b.add_signal("x", SignalKind::Input);
        let y = b.add_signal("y", SignalKind::Output);
        let xp = b.add_transition(x, Rise);
        let yp = b.add_transition(y, Rise);
        let xm = b.add_transition(x, Fall);
        let ym = b.add_transition(y, Fall);
        let choice = b.add_place("choice", true);
        b.arc_pt(choice, xp);
        b.arc_pt(choice, yp);
        let back_x = b.arc(xp, xm);
        let back_y = b.arc(yp, ym);
        let _ = back_x;
        let _ = back_y;
        b.arc_tp(xm, choice);
        b.arc_tp(ym, choice);
        let stg = b.build();
        let rg = rg_of(&stg);
        let bad = semimodularity_violations(&stg, &rg);
        assert!(!bad.is_empty());
        // the disabled transition is the output y+
        assert!(bad.iter().any(
            |&(_, t, u)| stg.transition_display(t) == "y+" && stg.transition_display(u) == "x+"
        ));
    }

    #[test]
    fn semimodular_toggle_is_clean() {
        let stg = toggle();
        let rg = rg_of(&stg);
        assert!(semimodularity_violations(&stg, &rg).is_empty());
    }
}
