//! Validation of `dangoron-lint-v2` reports (`dangoron-lint --json`).
//!
//! The workspace has no JSON-parsing dependency (see `crates/shims`), so
//! this is a structural validator, not a full JSON parser: it checks
//! bracket balance outside strings, the schema tag, and the presence +
//! rough type of every required key — enough to catch emitter regressions
//! (a dropped comma, a renamed key) without pretending to be serde.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    String,
    Number,
    Array,
}

impl ValueKind {
    fn matches(&self, first: char) -> bool {
        match self {
            ValueKind::String => first == '"',
            ValueKind::Number => first.is_ascii_digit() || first == '-',
            ValueKind::Array => first == '[',
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ValueKind::String => "string",
            ValueKind::Number => "number",
            ValueKind::Array => "array",
        }
    }
}

/// Keys every finding in a `dangoron-lint-v2` report must carry.
const LINT_FINDING_KEYS: [(&str, ValueKind); 6] = [
    ("file", ValueKind::String),
    ("line", ValueKind::Number),
    ("rule", ValueKind::String),
    ("severity", ValueKind::String),
    ("message", ValueKind::String),
    ("trace", ValueKind::Array),
];

/// Validates a `dangoron-lint-v2` report (written by `dangoron-lint
/// --json`; see `docs/lint-rules.md` for the schema).
///
/// The structural check always runs: schema tag, the `deny`/`warnings`
/// counters, the stable per-finding keys, and that the counters agree
/// with the findings' `severity` values — a renamed or dropped key is a
/// schema regression CI must catch even on a clean tree. With
/// `require_clean`, the gate additionally demands zero deny findings
/// and zero warnings: the `--require-lint-clean` CI contract.
pub fn validate_lint_report(json: &str, require_clean: bool) -> Result<(), String> {
    check_balance(json)?;
    let schema =
        string_value(json, "schema").ok_or_else(|| "missing \"schema\" tag".to_string())?;
    if schema != "dangoron-lint-v2" {
        return Err(format!("unknown schema {schema:?}"));
    }
    check_key(json, "deny", ValueKind::Number)?;
    check_key(json, "warnings", ValueKind::Number)?;
    check_key(json, "findings", ValueKind::Array)?;
    let deny = num_value(json, "deny").ok_or_else(|| "unreadable \"deny\" count".to_string())?;
    let warnings =
        num_value(json, "warnings").ok_or_else(|| "unreadable \"warnings\" count".to_string())?;
    let arr = array_body(after_key(json, "findings").expect("checked above"))
        .ok_or_else(|| "\"findings\" must be an array".to_string())?;
    let (mut denies_seen, mut warnings_seen) = (0.0, 0.0);
    let mut rest = arr;
    while let Some(at) = rest.find('{') {
        let obj =
            object_body(&rest[at..]).ok_or_else(|| "unterminated finding object".to_string())?;
        for (key, kind) in LINT_FINDING_KEYS {
            check_key(obj, key, kind)
                .map_err(|e| format!("finding #{}: {e}", denies_seen + warnings_seen))?;
        }
        match string_value(obj, "severity") {
            Some("deny") => denies_seen += 1.0,
            Some("warning") => warnings_seen += 1.0,
            other => return Err(format!("finding has unknown severity {other:?}")),
        }
        rest = &rest[at + obj.len()..];
    }
    if denies_seen != deny || warnings_seen != warnings {
        return Err(format!(
            "counters disagree with findings: deny {deny} vs {denies_seen} seen, \
             warnings {warnings} vs {warnings_seen} seen"
        ));
    }
    if require_clean && (deny != 0.0 || warnings != 0.0) {
        return Err(format!(
            "tree is not lint-clean: {deny} deny finding(s), {warnings} warning(s)"
        ));
    }
    Ok(())
}

/// The text of the array starting at the first non-space character of
/// `rest` (which must be `[`), up to and including its matching `]` —
/// the array twin of [`object_body`].
fn array_body(rest: &str) -> Option<&str> {
    let rest = rest.trim_start();
    if !rest.starts_with('[') {
        return None;
    }
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for (at, c) in rest.char_indices() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..=at]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Everything after `"key":`, or `None` when the key never appears.
fn after_key<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":");
    json.find(&marker).map(|at| &json[at + marker.len()..])
}

/// The string value of `"key": "…"`.
fn string_value<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(json, key)?.trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next()
}

/// The numeric value of the first `"key": <number>` occurrence.
fn num_value(json: &str, key: &str) -> Option<f64> {
    let rest = after_key(json, key)?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The text of the object starting at the first non-space character of
/// `rest` (which must be `{`), up to and including its matching `}`.
fn object_body(rest: &str) -> Option<&str> {
    let rest = rest.trim_start();
    if !rest.starts_with('{') {
        return None;
    }
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for (at, c) in rest.char_indices() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..=at]);
                }
            }
            _ => {}
        }
    }
    None
}

fn check_key(json: &str, key: &str, kind: ValueKind) -> Result<(), String> {
    let rest = after_key(json, key).ok_or_else(|| format!("missing key \"{key}\""))?;
    let first = rest
        .trim_start()
        .chars()
        .next()
        .ok_or_else(|| format!("key \"{key}\" has no value"))?;
    if !kind.matches(first) {
        return Err(format!(
            "key \"{key}\" should be a {}, found {first:?}",
            kind.name()
        ));
    }
    Ok(())
}

/// Brace/bracket balance outside string literals.
fn check_balance(json: &str) -> Result<(), String> {
    let (mut depth_obj, mut depth_arr) = (0i64, 0i64);
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        if depth_obj < 0 || depth_arr < 0 {
            return Err("unbalanced brackets".to_string());
        }
    }
    if depth_obj != 0 || depth_arr != 0 || in_string {
        return Err("unterminated object, array or string".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN_LINT_REPORT: &str = r#"{
  "schema": "dangoron-lint-v2",
  "deny": 0,
  "warnings": 0,
  "findings": [
  ]
}"#;

    const DIRTY_LINT_REPORT: &str = r#"{
  "schema": "dangoron-lint-v2",
  "deny": 1,
  "warnings": 1,
  "findings": [
    {"file":"crates/dist/src/proto.rs","line":42,"rule":"wire-taint-allocation","severity":"deny","message":"allocation sized by wire integer","trace":[{"line":17,"note":"wire read"}]},
    {"file":"crates/dist/src/worker.rs","line":9,"rule":"unused-waiver","severity":"warning","message":"waiver excuses nothing","trace":[]}
  ]
}"#;

    #[test]
    fn lint_report_clean_passes_the_gate() {
        validate_lint_report(CLEAN_LINT_REPORT, true).unwrap();
    }

    #[test]
    fn lint_report_findings_fail_only_the_clean_gate() {
        // Structurally valid — the artifact check accepts it…
        validate_lint_report(DIRTY_LINT_REPORT, false).unwrap();
        // …but the CI gate does not.
        let err = validate_lint_report(DIRTY_LINT_REPORT, true).unwrap_err();
        assert!(err.contains("not lint-clean"), "{err}");
    }

    #[test]
    fn lint_report_schema_regressions_are_caught() {
        let wrong_tag = CLEAN_LINT_REPORT.replace("dangoron-lint-v2", "dangoron-lint-v1");
        assert!(validate_lint_report(&wrong_tag, false).is_err());
        let renamed_key = DIRTY_LINT_REPORT.replace("\"rule\":", "\"rule_id\":");
        let err = validate_lint_report(&renamed_key, false).unwrap_err();
        assert!(err.contains("rule"), "{err}");
        let dropped_trace = DIRTY_LINT_REPORT.replace(",\"trace\":[]", "");
        assert!(validate_lint_report(&dropped_trace, false).is_err());
        let no_counters = CLEAN_LINT_REPORT.replace("\"deny\": 0,", "");
        assert!(validate_lint_report(&no_counters, false).is_err());
    }

    #[test]
    fn lint_report_counters_must_agree_with_findings() {
        let lied = DIRTY_LINT_REPORT.replace("\"deny\": 1", "\"deny\": 0");
        let err = validate_lint_report(&lied, false).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn the_real_emitter_satisfies_the_lint_schema() {
        // `dangoron-lint --json` writes exactly this shape; keep the
        // validator honest against a hand-mirrored specimen of its
        // escaping (quotes, backslashes) rather than only happy paths.
        let report = "{\n  \"schema\": \"dangoron-lint-v2\",\n  \"deny\": 1,\n  \"warnings\": 0,\n  \"findings\": [\n    {\"file\":\"a \\\"b\\\".rs\",\"line\":1,\"rule\":\"r\",\"severity\":\"deny\",\"message\":\"uses \\\\ and {braces}\",\"trace\":[{\"line\":1,\"note\":\"n\"}]}\n  ]\n}";
        validate_lint_report(report, false).unwrap();
        let err = validate_lint_report(report, true).unwrap_err();
        assert!(err.contains("1 deny"), "{err}");
    }
}
