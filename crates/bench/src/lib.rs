//! # bench — experiment harness regenerating every paper artefact
//!
//! One module per experiment under [`experiments`], each opening with the
//! paper artefact it regenerates. Each experiment exposes
//! `run(scale) -> String` returning the rendered report table(s); the
//! `harness` binary dispatches on experiment id.

pub mod common;
pub mod experiments;
pub mod schema;

/// How big the experiment should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale runs for CI and smoke checks.
    Quick,
    /// The paper-sized configuration (minutes).
    Full,
}

impl Scale {
    /// Parse from a CLI flag.
    pub fn from_flag(full: bool) -> Self {
        if full {
            Scale::Full
        } else {
            Scale::Quick
        }
    }
}
