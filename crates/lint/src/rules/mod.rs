//! The rule modules. `token` carries the first-generation token-level
//! rules (R1, R3–R6); `r7`/`r8` translate `lint::flow` sink hits;
//! `r9` is the atomics check. This module
//! also owns the three-pass flow orchestration shared by R7 and R8.

pub(crate) mod r7;
pub(crate) mod r8;
pub(crate) mod r9;
pub(crate) mod token;

use crate::flow::{FlowCtx, FnSummary};
use crate::lexer::Lexed;
use crate::syntax::{self, FileSyntax, ItemGraph};
use crate::util::{crate_of, in_ranges, test_ranges};
use crate::Finding;
use std::collections::BTreeMap;

/// One summary pass over every function in the workspace, using `prev`
/// as the callee-summary table.
fn summarize(
    rs: &[(String, Lexed)],
    graph: &ItemGraph,
    prev: &BTreeMap<(usize, usize), FnSummary>,
) -> BTreeMap<(usize, usize), FnSummary> {
    let mut out = BTreeMap::new();
    for (fi, (_, lexed)) in rs.iter().enumerate() {
        let ctx = FlowCtx::new(&lexed.tokens, fi, graph, prev);
        for (ii, f) in graph.files[fi].fns.iter().enumerate() {
            out.insert((fi, ii), ctx.analyze(f, false).summary);
        }
    }
    out
}

/// Runs the dataflow rules (R7, R8) over the workspace: parse every
/// file into the item graph, compute base summaries, recompute them
/// once using the base table (one level of interprocedural
/// propagation), then report sinks against the second-pass table.
pub(crate) fn run_flow_rules(rs: &[(String, Lexed)], out: &mut Vec<Finding>) {
    let parsed: Vec<FileSyntax> = rs.iter().map(|(_, l)| syntax::parse(l)).collect();
    let crates: Vec<String> = rs
        .iter()
        .map(|(rel, _)| crate_of(rel).to_string())
        .collect();
    let graph = ItemGraph::build(parsed, crates);
    let base = BTreeMap::new();
    let s1 = summarize(rs, &graph, &base);
    let s2 = summarize(rs, &graph, &s1);
    for (fi, (rel, lexed)) in rs.iter().enumerate() {
        let skip = test_ranges(&lexed.tokens);
        let ctx = FlowCtx::new(&lexed.tokens, fi, &graph, &s2);
        for f in &graph.files[fi].fns {
            if f.line > 0 && in_ranges(&skip, f.line) {
                continue;
            }
            for hit in ctx.analyze(f, true).hits {
                if in_ranges(&skip, hit.line) {
                    continue;
                }
                if let Some(fd) = r7::from_hit(rel, &hit) {
                    out.push(fd);
                }
                if let Some(fd) = r8::from_hit(rel, &hit) {
                    out.push(fd);
                }
            }
        }
    }
}
