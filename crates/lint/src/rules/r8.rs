//! R8 `wire-taint-allocation` — the workspace-wide, cross-function
//! allocation check. Integers read from
//! decode buffers (`get_u32_le` and friends, parsed lengths) are
//! *wire-tainted* until bounds-checked — by `need()`, or by an explicit
//! comparison in an `if`/`while` condition. A wire-tainted value may not
//! size an allocation (`Vec::with_capacity`, `.reserve`, `vec![_; n]`)
//! or index a slice. Taint crosses function boundaries through one level
//! of summary propagation, so a `need()` stripped two call levels above
//! the allocation still fires (`fixtures/r8_cross.rs`).
//!
//! Scope: sinks in the peer-facing crates (`dist`, `serve`, `obs`) —
//! the tiers whose decode paths read attacker-controllable bytes.

use crate::flow::{SinkHit, SinkKind, WIRE};
use crate::util::crate_of;
use crate::{Finding, R8};

/// Translates a flow sink hit into an R8 finding, when it is one.
pub(crate) fn from_hit(rel: &str, hit: &SinkHit) -> Option<Finding> {
    if hit.label & WIRE == 0 || !matches!(crate_of(rel), "dist" | "serve" | "obs") {
        return None;
    }
    let msg = match hit.kind {
        SinkKind::Alloc => {
            "allocation sized by an unvalidated wire integer — a peer can claim a huge \
             count and OOM this process; bounds-check with `need()` (or an explicit \
             compare) before allocating"
        }
        SinkKind::SliceIndex => {
            "slice index from an unvalidated wire integer — bounds-check with `need()` \
             (or an explicit compare) before indexing"
        }
        SinkKind::Escape => return None,
    };
    let mut f = Finding::deny(rel, hit.line, R8, msg.into());
    f.trace = hit.trace.clone();
    Some(f)
}
