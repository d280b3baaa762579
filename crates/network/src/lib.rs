//! # network — correlation-network analytics
//!
//! The "network construction" output of the paper's title: each
//! thresholded matrix `C_k` *is* a graph (nodes = series, edges = retained
//! correlations). This crate turns matrices into [`graph::CsrGraph`]s and
//! provides the analyses the motivating literature runs on them:
//!
//! * [`components`] — connected components via union-find;
//! * [`degree`] — hub ranking by degree;
//! * [`clustering`] — local clustering coefficients and their average;
//! * [`temporal`] — dynamics across the window sequence: edge stability,
//!   "blinking links" (the El Niño signature of Gozolchiani et al. \[3\]),
//!   and per-window summary series.

pub mod clustering;
pub mod components;
pub mod degree;
pub mod export;
pub mod graph;
pub mod temporal;

pub use graph::CsrGraph;
