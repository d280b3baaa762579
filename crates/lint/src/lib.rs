//! # lint — `dangoron-lint`, the workspace invariant checker
//!
//! Seven PRs of convention hold this system together: bit-identical
//! edges require every float reduction to run through `crates/kernel`'s
//! fixed 4-lane order, the hardened wire protocol requires every
//! decode-path allocation to be validated against bytes present first,
//! and the elastic coordinator requires structured errors instead of
//! panics. This crate encodes those contracts as a blocking
//! static-analysis pass so they survive refactors mechanically instead
//! of by reviewer memory.
//!
//! Architecture mirrors `crates/kernel`: hand-rolled and dependency-free
//! (the container has no registry access). A small total lexer
//! ([`lexer`]) feeds two engines: the original token-level rules
//! (R1, R3–R6) and an *item-graph dataflow engine* — a panic-free
//! lightweight parser ([`syntax`]) recovers every function's signature,
//! body span and call sites, and a per-function taint lattice ([`flow`])
//! tracks wire-read integers and hash-iteration-derived values through
//! assignments, projections and one level of interprocedural summary
//! propagation. The cross-crate rules R7 (`nondeterministic-iteration-
//! escapes`) and R8 (`wire-taint-allocation`) run on that engine and
//! attach a source-to-sink trace to each finding; R9 is a token check
//! for atomic orderings.
//!
//! Rules report findings as `file:line: rule-id: message` (plus trace
//! steps), a versioned JSON mode (`dangoron-lint-v2`) serves CI
//! artifacts and `harness validate --require-lint-clean`, and inline
//! waivers (`// lint:allow(rule-id) -- reason`, reason mandatory)
//! record every accepted exception next to the code it excuses. The
//! rule catalog lives in `docs/lint-rules.md`.

pub mod flow;
pub mod lexer;
mod rules;
pub mod syntax;
mod util;

pub use flow::TraceStep;
use lexer::{lex, Comment, Lexed};
use std::path::{Path, PathBuf};
use util::test_ranges;

/// Rule R1: float reductions outside `crates/kernel`.
pub const R1: &str = "float-reduction-outside-kernel";
/// Rule R3: panic paths in supervised `crates/dist`/`crates/serve` code.
pub const R3: &str = "panic-in-supervised-path";
/// Rule R4: `unsafe` without a `SAFETY:` comment.
pub const R4: &str = "unsafe-without-safety-comment";
/// Rule R5: SIMD backend ops missing from the scalar backend.
pub const R5: &str = "backend-parity";
/// Rule R6: blocking locks in the hot-path crates.
pub const R6: &str = "lock-in-hot-path";
/// Rule R7: hash-iteration-derived values escaping a function.
pub const R7: &str = "nondeterministic-iteration-escapes";
/// Rule R8: allocations/indexing sized by unvalidated wire integers.
pub const R8: &str = "wire-taint-allocation";
/// Rule R9: atomic-ordering discipline (SeqCst comments, mixed
/// orderings, Relaxed loads in control decisions).
pub const R9: &str = "atomic-ordering-discipline";
/// Meta rule: malformed or unknown waivers.
pub const RW: &str = "waiver-syntax";
/// Meta rule (warning): a waiver that excuses nothing.
pub const UNUSED: &str = "unused-waiver";

/// The rule catalog: `(id, one-line description)`.
pub const RULES: &[(&str, &str)] = &[
    (
        R1,
        "f64 sum/fold/`+=` accumulation outside crates/kernel breaks the canonical reduction order",
    ),
    (
        R3,
        "unwrap/expect/panic!/unreachable! in crates/dist, crates/serve, or crates/obs supervised code (use structured errors)",
    ),
    (
        R4,
        "unsafe block/fn without a `// SAFETY:` comment stating its invariant",
    ),
    (
        R5,
        "SIMD backend kernel op with no same-named scalar-backend reference",
    ),
    (
        R6,
        "Mutex/RwLock in crates/exec, crates/kernel, or crates/obs (hot/update paths must stay lock-free)",
    ),
    (
        R7,
        "HashMap/HashSet-iteration-derived value escapes a function unsorted (hash order is nondeterministic)",
    ),
    (
        R8,
        "allocation or slice index sized by a wire-read integer with no need()/compare validation, cross-function",
    ),
    (
        R9,
        "atomic-ordering discipline: uncommented SeqCst, mixed orderings on one field, Relaxed loads gating control flow",
    ),
];

/// One reported finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path ('/'-separated).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of the [`RULES`] ids, [`RW`] or [`UNUSED`]).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
    /// Warnings only fail the run under `--deny-warnings`.
    pub warning: bool,
    /// Source-to-sink chain for dataflow findings (R7/R8); empty for
    /// token-level rules. Lines refer to `file`.
    pub trace: Vec<TraceStep>,
}

impl Finding {
    fn deny(file: &str, line: u32, rule: &str, message: String) -> Self {
        Self {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message,
            warning: false,
            trace: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------

struct Waiver {
    ids: Vec<String>,
    line: u32,
    target: u32,
    used: bool,
}

/// Parses `// lint:allow(rule-id[, rule-id]) -- reason` comments; the
/// reason is mandatory and rule ids must exist. Returns the valid
/// waivers plus findings for malformed ones.
fn parse_waivers(
    rel: &str,
    comments: &[Comment],
    token_lines: &[u32],
    out: &mut Vec<Finding>,
) -> Vec<Waiver> {
    let known: Vec<&str> = RULES.iter().map(|&(id, _)| id).collect();
    let mut waivers = Vec::new();
    for c in comments {
        // Doc comments never carry waivers — they may legitimately quote
        // the waiver syntax when documenting it.
        if c.doc {
            continue;
        }
        let Some(at) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            out.push(Finding::deny(
                rel,
                c.line,
                RW,
                "malformed waiver: missing `)` — expected `lint:allow(rule-id) -- reason`".into(),
            ));
            continue;
        };
        let ids: Vec<String> = rest[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let mut bad = ids.is_empty();
        for id in &ids {
            if !known.contains(&id.as_str()) {
                out.push(Finding::deny(
                    rel,
                    c.line,
                    RW,
                    format!("waiver names unknown rule `{id}` (see docs/lint-rules.md)"),
                ));
                bad = true;
            }
        }
        let after = rest[close + 1..].trim();
        let reason = after.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            out.push(Finding::deny(
                rel,
                c.line,
                RW,
                "waiver without a reason — `lint:allow(rule-id) -- reason` (the reason is \
                 mandatory)"
                    .into(),
            ));
            bad = true;
        }
        if bad {
            continue;
        }
        // Trailing comment waives its own line; a standalone comment
        // waives the next code line.
        let target = if token_lines.binary_search(&c.line).is_ok() {
            c.line
        } else {
            *token_lines
                .iter()
                .find(|&&l| l > c.line)
                .unwrap_or(&(c.line + 1))
        };
        waivers.push(Waiver {
            ids,
            line: c.line,
            target,
            used: false,
        });
    }
    waivers
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Lints a set of `(workspace-relative path, source)` pairs and returns
/// every finding (deny and warning), sorted by file, line, rule.
pub fn check_sources(files: &[(String, String)]) -> Vec<Finding> {
    let lexed: Vec<(String, Lexed)> = files
        .iter()
        .map(|(rel, src)| (rel.replace('\\', "/"), lex(src)))
        .collect();
    let mut findings = Vec::new();
    for (rel, l) in &lexed {
        let skip = test_ranges(&l.tokens);
        rules::token::rule_r1(rel, &l.tokens, &skip, &mut findings);
        rules::token::rule_r3(rel, &l.tokens, &skip, &mut findings);
        rules::token::rule_r4(rel, l, &skip, &mut findings);
        rules::token::rule_r6(rel, &l.tokens, &skip, &mut findings);
        rules::r9::rule_r9(rel, l, &skip, &mut findings);
    }
    rules::token::rule_r5(&lexed, &mut findings);
    rules::run_flow_rules(&lexed, &mut findings);

    // The flow engine can reach one sink through several paths (e.g. a
    // statement and the tail expression); a site reports once per rule.
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);

    // Waivers, per file.
    for (rel, l) in &lexed {
        let mut token_lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        token_lines.dedup();
        let mut waivers = parse_waivers(rel, &l.comments, &token_lines, &mut findings);
        findings.retain(|f| {
            if f.file != *rel {
                return true;
            }
            for w in waivers.iter_mut() {
                if w.target == f.line && w.ids.contains(&f.rule) {
                    w.used = true;
                    return false;
                }
            }
            true
        });
        for w in &waivers {
            if !w.used {
                findings.push(Finding {
                    file: rel.clone(),
                    line: w.line,
                    rule: UNUSED.to_string(),
                    message: format!(
                        "waiver for {} excuses nothing — delete it (or it hides a future \
                         regression)",
                        w.ids.join(", ")
                    ),
                    warning: true,
                    trace: Vec::new(),
                });
            }
        }
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    findings
}

/// Walks a workspace root collecting lintable sources: every `.rs` file
/// outside shim crates, test/bench/fixture trees, and build output.
pub fn walk_workspace(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("")
                .to_string();
            if path.is_dir() {
                if matches!(
                    name.as_str(),
                    "target" | ".git" | "tests" | "benches" | "fixtures" | "shims" | ".claude"
                ) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let src = std::fs::read_to_string(&path)?;
                files.push((rel, src));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Serializes findings as the versioned `dangoron-lint-v2` report: a
/// stable machine-readable schema CI uploads as an artifact and
/// `harness validate --require-lint-clean` consumes. Hand-rolled — no
/// serde in this tree.
pub fn to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let denies = findings.iter().filter(|f| !f.warning).count();
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"dangoron-lint-v2\",\n");
    out.push_str(&format!("  \"deny\": {denies},\n"));
    out.push_str(&format!("  \"warnings\": {},\n", findings.len() - denies));
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let mut trace = String::from("[");
        for (k, s) in f.trace.iter().enumerate() {
            trace.push_str(&format!(
                "{}{{\"line\":{},\"note\":\"{}\"}}",
                if k > 0 { "," } else { "" },
                s.line,
                esc(&s.note)
            ));
        }
        trace.push(']');
        out.push_str(&format!(
            "    {{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"trace\":{}}}{}\n",
            esc(&f.file),
            f.line,
            esc(&f.rule),
            if f.warning { "warning" } else { "deny" },
            esc(&f.message),
            trace,
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::test_ranges;

    fn check_one(rel: &str, src: &str) -> Vec<Finding> {
        check_sources(&[(rel.to_string(), src.to_string())])
    }

    #[test]
    fn test_ranges_cover_cfg_test_mods() {
        let l = lex("fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap(); }\n}\n");
        let r = test_ranges(&l.tokens);
        assert_eq!(r, vec![(2, 5)]);
    }

    #[test]
    fn r3_skips_test_modules() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { None::<u8>.unwrap(); }\n}\n";
        let f = check_one("crates/dist/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn r3_covers_the_serving_tier_but_not_engine_crates() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        let f = check_one("crates/serve/src/server.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, R3);
        assert!(check_one("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn waiver_suppresses_and_requires_reason() {
        let src = "// lint:allow(panic-in-supervised-path) -- provably Some: set 2 lines up\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        assert!(check_one("crates/dist/src/x.rs", src).is_empty());
        let bad = "// lint:allow(panic-in-supervised-path)\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        let f = check_one("crates/dist/src/x.rs", bad);
        assert!(f.iter().any(|f| f.rule == RW), "{f:?}");
        assert!(f.iter().any(|f| f.rule == R3), "{f:?}");
    }

    #[test]
    fn unused_waiver_warns() {
        let src = "// lint:allow(lock-in-hot-path) -- stale\nfn f() {}\n";
        let f = check_one("crates/exec/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, UNUSED);
        assert!(f[0].warning);
    }

    #[test]
    fn json_escapes() {
        let f = vec![Finding::deny(
            "a\"b.rs",
            3,
            R1,
            "msg \\ with \"quotes\"".into(),
        )];
        let j = to_json(&f);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("msg \\\\ with \\\"quotes\\\""));
        assert!(j.contains("\"schema\": \"dangoron-lint-v2\""));
        assert!(j.contains("\"deny\": 1"));
        assert!(j.contains("\"trace\":[]"));
    }

    #[test]
    fn traces_serialize_into_the_report() {
        let mut f = Finding::deny("crates/dist/src/x.rs", 9, R8, "boom".into());
        f.trace = vec![
            TraceStep {
                line: 3,
                note: "wire read `get_u32_le`".into(),
            },
            TraceStep {
                line: 9,
                note: "sized allocation `with_capacity`".into(),
            },
        ];
        let j = to_json(&[f]);
        assert!(
            j.contains("{\"line\":3,\"note\":\"wire read `get_u32_le`\"}"),
            "{j}"
        );
        assert!(j.contains("{\"line\":9,"), "{j}");
    }
}
