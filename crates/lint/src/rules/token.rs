//! The token-level rules carried over from the first-generation linter:
//! R1 (float reductions), R3 (panic paths), R4 (SAFETY comments),
//! R5 (backend parity), R6 (locks in hot paths).

use crate::lexer::{Lexed, TokKind, Token};
use crate::util::{crate_of, in_ranges, is_id, is_p, match_delim};
use crate::{Finding, R1, R3, R4, R5, R6};

/// R1 — float reductions outside the kernel: `.sum::<f64>()`, `.sum()`
/// with float evidence in the statement, `.fold(float, |…| … + …)`, and
/// `acc += …` loops over `let mut acc = <float>` accumulators. Integer
/// reductions and order-insensitive folds (`fold(0.0, f64::max)`) pass.
pub(crate) fn rule_r1(rel: &str, toks: &[Token], skip: &[(u32, u32)], out: &mut Vec<Finding>) {
    if crate_of(rel) == "kernel" {
        return;
    }
    let stmt_start = |i: usize| {
        let mut j = i;
        while j > 0 {
            let t = &toks[j - 1];
            if is_p(t, ";") || is_p(t, "{") || is_p(t, "}") {
                break;
            }
            j -= 1;
        }
        j
    };
    let window_has_float = |a: usize, b: usize| {
        toks[a..b.min(toks.len())]
            .iter()
            .any(|t| t.kind == TokKind::Float || is_id(t, "f64") || is_id(t, "f32"))
    };

    // Float accumulators (`let mut s = 0.0;` and friends).
    let mut accs: Vec<(&str, usize)> = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        if is_id(&toks[i], "let")
            && is_id(&toks[i + 1], "mut")
            && toks[i + 2].kind == TokKind::Ident
        {
            let mut j = i + 3;
            let mut has_float = false;
            let mut int_cast = false;
            while j < toks.len() && !is_p(&toks[j], ";") {
                if toks[j].kind == TokKind::Float
                    || is_id(&toks[j], "f64")
                    || is_id(&toks[j], "f32")
                {
                    has_float = true;
                }
                // `let mut i = (…2.0…) as usize;` is an integer binding —
                // integer accumulation is whitelisted.
                if is_id(&toks[j], "as")
                    && j + 1 < toks.len()
                    && matches!(
                        toks[j + 1].text.as_str(),
                        "usize"
                            | "isize"
                            | "u8"
                            | "u16"
                            | "u32"
                            | "u64"
                            | "u128"
                            | "i8"
                            | "i16"
                            | "i32"
                            | "i64"
                            | "i128"
                    )
                {
                    int_cast = true;
                }
                j += 1;
            }
            if has_float && !int_cast {
                accs.push((toks[i + 2].text.as_str(), i + 2));
            }
            i = j;
            continue;
        }
        i += 1;
    }
    // Loop body token ranges (for `+=` detection).
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if is_id(t, "for") || is_id(t, "while") || is_id(t, "loop") {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < toks.len() {
                if is_p(&toks[j], "(") {
                    depth += 1;
                } else if is_p(&toks[j], ")") {
                    depth -= 1;
                } else if is_p(&toks[j], "{") && depth == 0 {
                    loops.push((j, match_delim(toks, j)));
                    break;
                } else if is_p(&toks[j], ";") && depth == 0 {
                    break;
                }
                j += 1;
            }
        }
    }

    for i in 0..toks.len() {
        let line = toks[i].line;
        if in_ranges(skip, line) {
            continue;
        }
        // `.sum::<f64>()` / `.sum()` with float evidence.
        if is_p(&toks[i], ".") && i + 1 < toks.len() && is_id(&toks[i + 1], "sum") {
            let turbo_float = i + 4 < toks.len()
                && is_p(&toks[i + 2], "::")
                && is_p(&toks[i + 3], "<")
                && is_id(&toks[i + 4], "f64");
            let bare = i + 2 < toks.len() && is_p(&toks[i + 2], "(");
            if turbo_float || (bare && window_has_float(stmt_start(i), i)) {
                out.push(Finding::deny(
                    rel,
                    toks[i + 1].line,
                    R1,
                    "f64 `.sum()` outside crates/kernel — route through kernel::sum / \
                     kernel::sum_squares / kernel::dot to keep the canonical reduction order"
                        .into(),
                ));
            }
        }
        // `.fold(<float init>, |…| … + …)`.
        if is_p(&toks[i], ".")
            && i + 2 < toks.len()
            && is_id(&toks[i + 1], "fold")
            && is_p(&toks[i + 2], "(")
        {
            let close = match_delim(toks, i + 2);
            if close < toks.len() {
                let mut depth = 0i32;
                let mut comma = None;
                for (j, t) in toks.iter().enumerate().take(close).skip(i + 3) {
                    match t.text.as_str() {
                        "(" | "[" | "{" if t.kind == TokKind::Punct => depth += 1,
                        ")" | "]" | "}" if t.kind == TokKind::Punct => depth -= 1,
                        "," if depth == 0 && t.kind == TokKind::Punct => {
                            comma = Some(j);
                            break;
                        }
                        _ => {}
                    }
                }
                if let Some(comma) = comma {
                    let init_float = toks[i + 3..comma]
                        .iter()
                        .any(|t| t.kind == TokKind::Float || is_id(t, "f64") || is_id(t, "f32"));
                    let body_accumulates = toks[comma + 1..close]
                        .iter()
                        .any(|t| is_p(t, "+") || is_p(t, "+=") || is_id(t, "mul_add"));
                    if init_float && body_accumulates {
                        out.push(Finding::deny(
                            rel,
                            toks[i + 1].line,
                            R1,
                            "float `.fold(…, +)` accumulation outside crates/kernel — use a \
                             kernel reduction (order-insensitive folds like f64::max are fine)"
                                .into(),
                        ));
                    }
                }
            }
        }
        // `acc += …` inside a loop, where acc is a float accumulator.
        if toks[i].kind == TokKind::Ident && i + 1 < toks.len() && is_p(&toks[i + 1], "+=") {
            let in_loop = loops.iter().any(|&(a, b)| a < i && i < b);
            let is_acc = accs
                .iter()
                .any(|&(name, decl)| name == toks[i].text && decl < i);
            if in_loop && is_acc {
                out.push(Finding::deny(
                    rel,
                    line,
                    R1,
                    format!(
                        "manual f64 `{} += …` accumulation loop outside crates/kernel — use a \
                         kernel reduction to keep results bit-identical across backends",
                        toks[i].text
                    ),
                ));
            }
        }
    }
}

/// R3 — panic paths in the supervised tiers: `unwrap`/`expect` calls and
/// `panic!`/`unreachable!`/`todo!`/`unimplemented!` in `crates/dist`,
/// `crates/serve`, or `crates/obs` non-test code. These crates host
/// long-lived processes whose peers (workers, clients, scrapers) must
/// only ever see structured errors — a panic on a daemon thread with a
/// lock held poisons every tenant, and a panic on the scrape thread
/// kills telemetry exactly when it is needed most.
pub(crate) fn rule_r3(rel: &str, toks: &[Token], skip: &[(u32, u32)], out: &mut Vec<Finding>) {
    if !matches!(crate_of(rel), "dist" | "serve" | "obs") {
        return;
    }
    for i in 0..toks.len() {
        let line = toks[i].line;
        if in_ranges(skip, line) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let is_method =
            i > 0 && is_p(&toks[i - 1], ".") && i + 1 < toks.len() && is_p(&toks[i + 1], "(");
        if is_method && (name == "unwrap" || name == "expect") {
            out.push(Finding::deny(
                rel,
                line,
                R3,
                format!(
                    "`.{name}()` in supervised code — return a structured error (or \
                     restructure with let-else) so peer faults stay recoverable"
                ),
            ));
        }
        let is_macro = i + 1 < toks.len() && is_p(&toks[i + 1], "!");
        if is_macro && matches!(name, "panic" | "unreachable" | "todo" | "unimplemented") {
            out.push(Finding::deny(
                rel,
                line,
                R3,
                format!("`{name}!` in supervised code — return a structured error instead"),
            ));
        }
    }
}

/// R4 — every `unsafe` token needs a `SAFETY` comment in the contiguous
/// comment/attribute run directly above it (or trailing on its line).
/// Doc comments with a `# Safety` section count.
pub(crate) fn rule_r4(rel: &str, lexed: &Lexed, skip: &[(u32, u32)], out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    // Lines covered by comments (with their SAFETY flag) and attributes.
    let mut covered: std::collections::HashMap<u32, bool> = std::collections::HashMap::new();
    for c in &lexed.comments {
        // A waiver naming this rule contains the substring "safety" —
        // it records an exception, it is not a safety argument.
        let has = !c.text.contains("lint:allow(") && c.text.to_uppercase().contains("SAFETY");
        let span = c.text.matches('\n').count() as u32;
        for l in c.line..=c.line + span {
            let e = covered.entry(l).or_insert(false);
            *e = *e || has;
        }
    }
    let mut i = 0;
    while i + 1 < toks.len() {
        if is_p(&toks[i], "#") && is_p(&toks[i + 1], "[") {
            let close = match_delim(toks, i + 1);
            let end_line = if close < toks.len() {
                toks[close].line
            } else {
                toks[i].line
            };
            for l in toks[i].line..=end_line {
                covered.entry(l).or_insert(false);
            }
            i = close.min(toks.len() - 1) + 1;
            continue;
        }
        i += 1;
    }
    for t in toks {
        if !is_id(t, "unsafe") || in_ranges(skip, t.line) {
            continue;
        }
        // Trailing comment on the same line?
        let mut ok = covered.get(&t.line).copied() == Some(true);
        // Walk the contiguous covered run upward.
        let mut l = t.line;
        while !ok && l > 1 {
            l -= 1;
            match covered.get(&l) {
                Some(true) => ok = true,
                Some(false) => {}
                None => break,
            }
        }
        if !ok {
            out.push(Finding::deny(
                rel,
                t.line,
                R4,
                "`unsafe` without a `// SAFETY:` comment — state the alignment/length/\
                 feature-detection invariant the block relies on"
                    .into(),
            ));
        }
    }
}

/// Named function sites: each entry is `(name, line)` for a
/// `pub [(crate)] [unsafe] fn NAME`.
type FnSites = Vec<(String, u32)>;

/// Function names matching `pub [(crate)] [unsafe] fn NAME`, split into
/// (safe, unsafe) sets.
fn pub_fns(toks: &[Token]) -> (FnSites, FnSites) {
    let mut safe = Vec::new();
    let mut unsafe_ = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !is_id(&toks[i], "pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && is_p(&toks[j], "(") {
            let c = match_delim(toks, j);
            if c >= toks.len() {
                break;
            }
            j = c + 1;
        }
        let is_unsafe = j < toks.len() && is_id(&toks[j], "unsafe");
        if is_unsafe {
            j += 1;
        }
        if j + 1 < toks.len() && is_id(&toks[j], "fn") && toks[j + 1].kind == TokKind::Ident {
            let entry = (toks[j + 1].text.clone(), toks[j + 1].line);
            if is_unsafe {
                unsafe_.push(entry);
            } else {
                safe.push(entry);
            }
        }
        i = j + 1;
    }
    (safe, unsafe_)
}

/// R5 — backend parity: every public unsafe op in the SIMD backend module
/// (`kernel/src/avx2.rs`) must have a same-named public fn in the
/// canonical scalar backend (`kernel/src/scalar.rs`).
/// Private helpers (`lanes_of`, `select`, …) are exempt by visibility.
pub(crate) fn rule_r5(files: &[(String, Lexed)], out: &mut Vec<Finding>) {
    let scalar: Vec<String> = files
        .iter()
        .filter(|(rel, _)| rel.ends_with("kernel/src/scalar.rs"))
        .flat_map(|(_, lexed)| {
            let (safe, unsafe_) = pub_fns(&lexed.tokens);
            safe.into_iter().chain(unsafe_).map(|(n, _)| n)
        })
        .collect();
    if scalar.is_empty() {
        return; // no scalar backend in scope — nothing to compare against
    }
    for (rel, lexed) in files {
        if !rel.ends_with("kernel/src/avx2.rs") {
            continue;
        }
        let (safe, unsafe_) = pub_fns(&lexed.tokens);
        for (name, line) in safe.into_iter().chain(unsafe_) {
            if !scalar.contains(&name) {
                out.push(Finding::deny(
                    rel,
                    line,
                    R5,
                    format!(
                        "backend op `{name}` has no same-named fn in the scalar backend — \
                         every SIMD kernel needs its canonical scalar reference"
                    ),
                ));
            }
        }
    }
}

/// R6 — no blocking locks in the hot-path crates (`exec`, `kernel`) or
/// the telemetry crate (`obs`): the executor's determinism design is
/// lock-free by construction, and metric updates sit on the engine's
/// hot path — a scrape that could block a worker would let observation
/// perturb the timed run.
pub(crate) fn rule_r6(rel: &str, toks: &[Token], skip: &[(u32, u32)], out: &mut Vec<Finding>) {
    if !matches!(crate_of(rel), "exec" | "kernel" | "obs") {
        return;
    }
    for t in toks {
        if t.kind == TokKind::Ident
            && (t.text == "Mutex" || t.text == "RwLock")
            && !in_ranges(skip, t.line)
        {
            out.push(Finding::deny(
                rel,
                t.line,
                R6,
                format!(
                    "`{}` in a hot-path crate — exec/kernel stay lock-free (atomics and \
                     channel hand-off only)",
                    t.text
                ),
            ));
        }
    }
}
