//! CSC resolution surface of the core crate.
//!
//! The actual resolution subsystem lives in the dedicated `si-csc` crate
//! (conflict-core extraction and parallel candidate search); this module
//! keeps the core-side surface thin:
//!
//! * the STG surgery ([`InsertionPlan`], [`apply_insertion`]) is re-exported
//!   from `si_stg::edit`, where it moved so both `si-core` and `si-csc` can
//!   share it;
//! * [`no_conflict_resolution`] implements the no-op fast path every
//!   resolver spells the same way: an STG that already satisfies CSC is
//!   returned unchanged with the sentinel plan.
//!
//! The search itself is provided by `si-csc` as methods of the `Engine`
//! session (`EngineResolve::resolve_csc{,_outcome}`, re-exported from the
//! `sisyn` prelude): resolution reads the session's structural context
//! *and* drives whole `Engine` sessions per candidate, so it sits above
//! this crate in the dependency order — the same pattern as
//! speed-independence verification (`si-verify`'s `EngineVerify`).

use crate::context::{CscVerdict, StructuralContext};
use si_petri::PlaceId;
use si_stg::Stg;

pub use si_stg::edit::{apply_insertion, apply_insertion_mapped, InsertionMap, InsertionPlan};

/// The sentinel plan returned when the input already satisfies CSC:
/// `rise_split == fall_split == PlaceId(0)`, no waits — impossible for a
/// real insertion, whose split places always differ.
pub fn sentinel_plan() -> InsertionPlan {
    InsertionPlan {
        rise_split: PlaceId(0),
        fall_split: PlaceId(0),
        rise_waits: Vec::new(),
    }
}

/// The no-conflict fast path of CSC resolution: when `ctx` (a context of
/// `stg`) proves CSC structurally, the STG is returned unchanged together
/// with the [`sentinel_plan`]. Returns `None` when state-signal insertion
/// is actually required.
pub fn no_conflict_resolution(
    stg: &Stg,
    ctx: &StructuralContext<'_>,
) -> Option<(Stg, InsertionPlan)> {
    if matches!(ctx.csc_verdict(), CscVerdict::Unknown { .. }) {
        None
    } else {
        Some((stg.clone(), sentinel_plan()))
    }
}
