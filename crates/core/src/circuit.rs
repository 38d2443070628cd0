//! Implementation architectures and the circuit model (§III-A, Fig. 3).
//!
//! A synthesized signal is realized by one of:
//!
//! * an **atomic complex gate** computing its whole next-state function
//!   (Fig. 3(a), or the "complete cover" case of the Appendix);
//! * a **C-latch** fed by set and reset networks — one atomic gate per
//!   network (Fig. 3(b)) or one gate per excitation-region cluster ORed
//!   together (Fig. 3(c));
//! * a **collapsed latch** (Appendix D): a gC cell absorbing single-cube
//!   set/reset networks, or a gated latch when the two cubes have the same
//!   support at distance one.
//!
//! Area is reported in normalized literal units (the SIS convention used by
//! the paper's tables): one unit per gate input literal, plus the OR fan-in
//! of multi-cube networks and a fixed cost per storage element.

use si_boolean::{Bits, Cover};
use si_stg::SignalId;

/// Cost of a C-latch storage element in literal units.
pub const CLATCH_COST: usize = 4;
/// Cost of the gC cell wrapper beyond its input literals.
pub const GC_COST: usize = 2;
/// Cost of the gated-latch wrapper beyond its input literals.
pub const GATED_LATCH_COST: usize = 3;

/// How one signal is implemented.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImplKind {
    /// One atomic complex gate; `inverted` when the gate computes the
    /// complement (complete reset cover).
    Combinational {
        /// Sum-of-products computed by the gate.
        cover: Cover,
        /// Output inverter present.
        inverted: bool,
    },
    /// C-latch with set and reset networks, each a list of cluster gates.
    CLatch {
        /// Cluster gates ORed into the set input.
        set: Vec<Cover>,
        /// Cluster gates ORed into the reset input.
        reset: Vec<Cover>,
    },
    /// Single-cube set/reset collapsed into a gC cell.
    GcLatch {
        /// The set cube (as a one-cube cover).
        set: Cover,
        /// The reset cube.
        reset: Cover,
    },
    /// Distance-1, same-support collapse: a transparent latch
    /// `z' = control ? data : z`.
    GatedLatch {
        /// Data function.
        data: Cover,
        /// Latch-enable function.
        control: Cover,
    },
}

/// One synthesized signal with its chosen realization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignalImplementation {
    /// The implemented signal.
    pub signal: SignalId,
    /// The realization.
    pub kind: ImplKind,
}

fn network_area(covers: &[Cover]) -> usize {
    let mut area = 0;
    for c in covers {
        area += c.literal_count();
        if c.cube_count() > 1 {
            area += c.cube_count(); // OR gate fan-in
        }
    }
    if covers.len() > 1 {
        area += covers.len(); // second-level OR of cluster gates
    }
    area
}

impl SignalImplementation {
    /// Area of the realization in normalized literal units.
    pub fn literal_area(&self) -> usize {
        match &self.kind {
            ImplKind::Combinational { cover, inverted } => {
                network_area(std::slice::from_ref(cover)) + usize::from(*inverted)
            }
            ImplKind::CLatch { set, reset } => {
                network_area(set) + network_area(reset) + CLATCH_COST
            }
            ImplKind::GcLatch { set, reset } => {
                set.literal_count() + reset.literal_count() + GC_COST
            }
            ImplKind::GatedLatch { data, control } => {
                network_area(std::slice::from_ref(data))
                    + network_area(std::slice::from_ref(control))
                    + GATED_LATCH_COST
            }
        }
    }

    /// Evaluates the next value of the signal given the current binary code
    /// of all signals and the current value of this signal — the semantics
    /// used by verification and hazard simulation.
    pub fn next_value(&self, code: &Bits, current: bool) -> bool {
        self.next_value_words(code.as_words(), current)
    }

    /// [`Self::next_value`] on the raw words of the code (low bit of word 0
    /// is signal 0), for callers that keep the code in a reused word
    /// buffer: the gates are evaluated through their own covers
    /// ([`Cover::contains_words`]).
    pub fn next_value_words(&self, code: &[u64], current: bool) -> bool {
        let latch = |s: bool, r: bool| match (s, r) {
            (true, false) => true,
            (false, true) => false,
            _ => current,
        };
        match &self.kind {
            ImplKind::Combinational { cover, inverted } => cover.contains_words(code) != *inverted,
            ImplKind::CLatch { set, reset } => latch(
                set.iter().any(|c| c.contains_words(code)),
                reset.iter().any(|c| c.contains_words(code)),
            ),
            ImplKind::GcLatch { set, reset } => {
                latch(set.contains_words(code), reset.contains_words(code))
            }
            ImplKind::GatedLatch { data, control } => {
                if control.contains_words(code) {
                    data.contains_words(code)
                } else {
                    current
                }
            }
        }
    }

    /// The set/reset excitation covers, when the realization has them.
    pub fn excitation_covers(&self) -> Option<(Cover, Cover)> {
        match &self.kind {
            ImplKind::CLatch { set, reset } => {
                let join = |cs: &[Cover]| Cover::union(cs.first().map_or(0, Cover::width), cs);
                Some((join(set), join(reset)))
            }
            ImplKind::GcLatch { set, reset } => Some((set.clone(), reset.clone())),
            _ => None,
        }
    }
}

/// A synthesized circuit: one implementation per synthesized signal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Circuit {
    /// Implementations in signal order.
    pub implementations: Vec<SignalImplementation>,
}

impl Circuit {
    /// Total area in normalized literal units.
    pub fn literal_area(&self) -> usize {
        self.implementations
            .iter()
            .map(SignalImplementation::literal_area)
            .sum()
    }

    /// Looks up the implementation of a signal.
    pub fn implementation(&self, signal: SignalId) -> Option<&SignalImplementation> {
        self.implementations.iter().find(|i| i.signal == signal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(w: usize, cs: &[&str]) -> Cover {
        Cover::from_cubes(w, cs.iter().map(|s| s.parse().unwrap()))
    }

    #[test]
    fn combinational_semantics_and_area() {
        let imp = SignalImplementation {
            signal: SignalId(1),
            kind: ImplKind::Combinational {
                cover: cover(2, &["1-"]),
                inverted: false,
            },
        };
        assert!(imp.next_value(&Bits::from_ones(2, [0]), false));
        assert!(!imp.next_value(&Bits::from_ones(2, [1]), true));
        assert_eq!(imp.literal_area(), 1);

        let inv = SignalImplementation {
            signal: SignalId(1),
            kind: ImplKind::Combinational {
                cover: cover(2, &["1-"]),
                inverted: true,
            },
        };
        assert!(!inv.next_value(&Bits::from_ones(2, [0]), false));
        assert_eq!(inv.literal_area(), 2);
    }

    #[test]
    fn clatch_semantics() {
        let imp = SignalImplementation {
            signal: SignalId(1),
            kind: ImplKind::CLatch {
                set: vec![cover(2, &["10"])],
                reset: vec![cover(2, &["01"])],
            },
        };
        // set on, reset off -> 1
        assert!(imp.next_value(&Bits::from_ones(2, [0]), false));
        // reset on -> 0
        assert!(!imp.next_value(&Bits::from_ones(2, [1]), true));
        // neither -> hold
        assert!(imp.next_value(&Bits::from_ones(2, [0, 1]), true));
        assert!(!imp.next_value(&Bits::zeros(2), false));
        // area: 2 literals + 2 literals + latch
        assert_eq!(imp.literal_area(), 4 + CLATCH_COST);
    }

    #[test]
    fn gc_latch_and_gated_latch() {
        let gc = SignalImplementation {
            signal: SignalId(0),
            kind: ImplKind::GcLatch {
                set: cover(2, &["11"]),
                reset: cover(2, &["00"]),
            },
        };
        assert!(gc.next_value(&Bits::from_ones(2, [0, 1]), false));
        assert!(!gc.next_value(&Bits::zeros(2), true));
        assert_eq!(gc.literal_area(), 4 + GC_COST);

        let gl = SignalImplementation {
            signal: SignalId(0),
            kind: ImplKind::GatedLatch {
                data: cover(2, &["-1"]),
                control: cover(2, &["1-"]),
            },
        };
        // control on: follow data
        assert!(gl.next_value(&Bits::from_ones(2, [0, 1]), false));
        assert!(!gl.next_value(&Bits::from_ones(2, [0]), true));
        // control off: hold
        assert!(gl.next_value(&Bits::from_ones(2, [1]), true));
    }

    #[test]
    fn multi_cluster_area_counts_or_levels() {
        let imp = SignalImplementation {
            signal: SignalId(0),
            kind: ImplKind::CLatch {
                set: vec![cover(3, &["11-"]), cover(3, &["1-1"])],
                reset: vec![cover(3, &["000"])],
            },
        };
        // set: 2+2 literals + cluster OR (2); reset: 3; latch 4
        assert_eq!(imp.literal_area(), 4 + 2 + 3 + CLATCH_COST);
        let (s, r) = imp.excitation_covers().unwrap();
        assert_eq!(s.cube_count(), 2);
        assert_eq!(r.cube_count(), 1);
    }

    #[test]
    fn circuit_totals() {
        let c = Circuit {
            implementations: vec![
                SignalImplementation {
                    signal: SignalId(0),
                    kind: ImplKind::Combinational {
                        cover: cover(2, &["11"]),
                        inverted: false,
                    },
                },
                SignalImplementation {
                    signal: SignalId(1),
                    kind: ImplKind::GcLatch {
                        set: cover(2, &["10"]),
                        reset: cover(2, &["01"]),
                    },
                },
            ],
        };
        assert_eq!(c.literal_area(), 2 + 4 + GC_COST);
        assert!(c.implementation(SignalId(1)).is_some());
        assert!(c.implementation(SignalId(9)).is_none());
    }
}
