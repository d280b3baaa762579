//! Validation of `dangoron-bench-v1` perf records.
//!
//! The workspace has no JSON-parsing dependency (see `crates/shims`), so
//! the perf JSON is emitted by hand in [`crate::perf`]; this module is the
//! matching consumer-side check the CI smoke job runs against the records
//! it produces. It is a structural validator, not a full JSON parser: it
//! checks bracket balance outside strings, the schema tag, and the
//! presence + rough type of every required key — enough to catch emitter
//! regressions (a dropped comma, a renamed key, a missing section) without
//! pretending to be serde.

/// Keys every `dangoron-bench-v1` record must carry at the top level.
const TOP_LEVEL_KEYS: [(&str, ValueKind); 7] = [
    ("workload", ValueKind::String),
    ("n_series", ValueKind::Number),
    ("n_cols", ValueKind::Number),
    ("n_windows", ValueKind::Number),
    ("hardware_threads", ValueKind::Number),
    ("hardware", ValueKind::Object),
    ("samples", ValueKind::Array),
];

/// Keys the `hardware` context section must carry (required since the
/// distributed-tier records; see `docs/bench-schema.md`).
const HARDWARE_KEYS: [(&str, ValueKind); 2] = [
    ("n_physical_cores", ValueKind::Number),
    ("flags", ValueKind::Array),
];

/// Keys the `shards` section must carry when present (written by the
/// distributed E13 run and by `harness merge`).
const SHARDS_KEYS: [(&str, ValueKind); 7] = [
    ("n_shards", ValueKind::Number),
    ("evaluated", ValueKind::Number),
    ("total_cells", ValueKind::Number),
    ("merged_edges", ValueKind::Number),
    ("prepare_ms_max", ValueKind::Number),
    ("query_ms_max", ValueKind::Number),
    ("replans", ValueKind::Number),
];

/// Keys the `shards` section *may* carry — introduced after PR 4, so
/// older records legitimately lack them, but when present they must have
/// the right shape. `transport`/`assign_bytes`/`load_bytes` arrived with
/// the TCP transport + `Load` frame;
/// `late_joins`/`steals`/`heartbeats` with the elastic tier (PR 6);
/// `hardware_mismatch` is written by `harness merge` when per-shard
/// records disagree on their `hardware` sections.
const SHARDS_OPTIONAL_KEYS: [(&str, ValueKind); 11] = [
    ("workers", ValueKind::Number),
    ("mode", ValueKind::String),
    ("transport", ValueKind::String),
    ("assignments", ValueKind::Number),
    ("assign_bytes", ValueKind::Number),
    ("load_bytes", ValueKind::Number),
    ("late_joins", ValueKind::Number),
    ("steals", ValueKind::Number),
    ("heartbeats", ValueKind::Number),
    ("bit_identical", ValueKind::Bool),
    ("hardware_mismatch", ValueKind::Bool),
];

/// Keys the per-shard `shard` section must carry when present (records
/// written by one worker's shard, the inputs of `harness merge`).
const SHARD_KEYS: [(&str, ValueKind); 10] = [
    ("index", ValueKind::Number),
    ("n_shards", ValueKind::Number),
    ("pair_start", ValueKind::Number),
    ("pair_end", ValueKind::Number),
    ("evaluated", ValueKind::Number),
    ("total_cells", ValueKind::Number),
    ("edges", ValueKind::Number),
    ("attempt", ValueKind::Number),
    ("prepare_ms", ValueKind::Number),
    ("query_ms", ValueKind::Number),
];

/// Keys every entry of `samples` must carry.
const SAMPLE_KEYS: [(&str, ValueKind); 5] = [
    ("threads", ValueKind::Number),
    ("prepare_ms", ValueKind::Object),
    ("query_ms", ValueKind::Object),
    ("skip_fraction", ValueKind::Number),
    ("total_edges", ValueKind::Number),
];

/// Keys the `kernels` section must carry when present.
const KERNEL_KEYS: [(&str, ValueKind); 5] = [
    ("backend", ValueKind::String),
    ("len", ValueKind::Number),
    ("dot_speedup", ValueKind::Number),
    ("moments_speedup", ValueKind::Number),
    ("prefix_build_speedup", ValueKind::Number),
];

/// Keys the `streaming_pivots` section must carry when present.
const STREAMING_KEYS: [(&str, ValueKind); 8] = [
    ("threads", ValueKind::Number),
    ("open_ms", ValueKind::Object),
    ("drain_ms", ValueKind::Object),
    ("windows", ValueKind::Number),
    ("skip_fraction", ValueKind::Number),
    ("pruned_by_triangle", ValueKind::Number),
    ("pairs_skipped_entirely", ValueKind::Number),
    ("total_edges", ValueKind::Number),
];

/// Keys the `obs` section must carry when present (written by every
/// `harness bench` run since the telemetry PR: a scrape of the process-
/// wide stage registry after the timed runs, proving the exposition
/// renders, parses strictly, and saw the engine's stage observations).
const OBS_KEYS: [(&str, ValueKind); 8] = [
    ("families", ValueKind::Number),
    ("series", ValueKind::Number),
    ("scrape_ms", ValueKind::Number),
    ("exposition_bytes", ValueKind::Number),
    ("exposition_valid", ValueKind::Bool),
    ("walk_observations", ValueKind::Number),
    ("exec_chunks", ValueKind::Number),
    ("steal_attempts", ValueKind::Number),
];

/// Keys the `serve` section must carry when present (written by `harness
/// bench --serve`: the serving tier's shared-prepare amortisation panel).
const SERVE_KEYS: [(&str, ValueKind); 8] = [
    ("queries", ValueKind::Number),
    ("open_ms", ValueKind::Number),
    ("resident_ms", ValueKind::Number),
    ("one_shot_ms", ValueKind::Number),
    ("shared_prepare_speedup", ValueKind::Number),
    ("memory_bytes", ValueKind::Number),
    ("total_edges", ValueKind::Number),
    ("bit_identical", ValueKind::Bool),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    String,
    Number,
    Array,
    Object,
    Bool,
}

impl ValueKind {
    fn matches(&self, first: char) -> bool {
        match self {
            ValueKind::String => first == '"',
            ValueKind::Number => first.is_ascii_digit() || first == '-',
            ValueKind::Array => first == '[',
            ValueKind::Object => first == '{',
            ValueKind::Bool => first == 't' || first == 'f',
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ValueKind::String => "string",
            ValueKind::Number => "number",
            ValueKind::Array => "array",
            ValueKind::Object => "object",
            ValueKind::Bool => "bool",
        }
    }
}

/// Which optional sections a validation run additionally demands.
///
/// Records written before a section's introducing PR legitimately lack
/// it; CI requires every section its own emitter produces, so a dropped
/// section is an emitter regression, not a schema downgrade.
#[derive(Debug, Clone, Copy, Default)]
pub struct Requires {
    /// Demand the `streaming_pivots` section.
    pub streaming: bool,
    /// Demand the `kernels` section.
    pub kernels: bool,
    /// Demand the `shards` section (distributed tier / merged records).
    pub shards: bool,
    /// Demand the `serve` section (resident-session amortisation panel).
    pub serve: bool,
    /// Demand the `obs` section (telemetry scrape self-check).
    pub obs: bool,
}

/// Validates a perf record against the `dangoron-bench-v1` schema.
///
/// `requires` names the optional sections this run demands
/// ([`Requires`]); present sections are always checked, including the
/// per-shard `shard` section `harness merge` consumes.
pub fn validate(json: &str, requires: Requires) -> Result<(), String> {
    check_balance(json)?;
    let schema =
        string_value(json, "schema").ok_or_else(|| "missing \"schema\" tag".to_string())?;
    if schema != "dangoron-bench-v1" {
        return Err(format!("unknown schema {schema:?}"));
    }
    for (key, kind) in TOP_LEVEL_KEYS {
        check_key(json, key, kind)?;
    }
    check_section(json, "hardware", &HARDWARE_KEYS, true)?;
    // At least one sample object, carrying every per-sample key.
    let samples = after_key(json, "samples").expect("checked above");
    if !samples.trim_start().starts_with("[")
        || samples.trim_start()[1..].trim_start().starts_with(']')
    {
        return Err("\"samples\" must be a non-empty array".to_string());
    }
    for (key, kind) in SAMPLE_KEYS {
        check_key(samples, key, kind)?;
    }
    check_section(
        json,
        "streaming_pivots",
        &STREAMING_KEYS,
        requires.streaming,
    )?;
    check_section(json, "kernels", &KERNEL_KEYS, requires.kernels)?;
    check_section(json, "shards", &SHARDS_KEYS, requires.shards)?;
    if let Some(body) = after_key(json, "shards").and_then(object_body) {
        for (key, kind) in SHARDS_OPTIONAL_KEYS {
            check_optional_key(body, key, kind)?;
        }
    }
    check_section(json, "serve", &SERVE_KEYS, requires.serve)?;
    check_section(json, "obs", &OBS_KEYS, requires.obs)?;
    check_section(json, "shard", &SHARD_KEYS, false)?;
    Ok(())
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

/// Checks one named object section: every listed key must appear inside
/// the section's **own** object — later `samples` entries share key names
/// (`skip_fraction`, `total_edges`, `threads`) and must not satisfy them
/// by accident.
fn check_section(
    json: &str,
    name: &str,
    keys: &[(&str, ValueKind)],
    required: bool,
) -> Result<(), String> {
    match after_key(json, name) {
        Some(section) => {
            let body =
                object_body(section).ok_or_else(|| format!("\"{name}\" must be an object"))?;
            for &(key, kind) in keys {
                check_key(body, key, kind)?;
            }
            Ok(())
        }
        None if required => Err(format!("missing required \"{name}\" section")),
        None => Ok(()),
    }
}

/// Everything after `"key":`, or `None` when the key never appears.
pub(crate) fn after_key<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":");
    json.find(&marker).map(|at| &json[at + marker.len()..])
}

/// The string value of `"key": "…"`.
pub(crate) fn string_value<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(json, key)?.trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next()
}

/// The numeric value of the first `"key": <number>` occurrence — the
/// extraction primitive `harness merge` reads per-shard records with
/// (scoped to a section by passing that section's [`object_body`]).
pub(crate) fn num_value(json: &str, key: &str) -> Option<f64> {
    let rest = after_key(json, key)?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The text of the object starting at the first non-space character of
/// `rest` (which must be `{`), up to and including its matching `}`.
pub(crate) fn object_body(rest: &str) -> Option<&str> {
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

/// [`check_key`] for a key that may legitimately be absent (introduced
/// after the section itself): only the type is enforced, and only when
/// the key appears.
fn check_optional_key(body: &str, key: &str, kind: ValueKind) -> Result<(), String> {
    if after_key(body, key).is_some() {
        check_key(body, key, kind)?;
    }
    Ok(())
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

    const REQ_NONE: Requires = Requires {
        streaming: false,
        kernels: false,
        shards: false,
        serve: false,
        obs: false,
    };
    const REQ_STREAMING: Requires = Requires {
        streaming: true,
        ..REQ_NONE
    };
    const REQ_KERNELS: Requires = Requires {
        kernels: true,
        ..REQ_NONE
    };
    const REQ_SHARDS: Requires = Requires {
        shards: true,
        ..REQ_NONE
    };
    const REQ_SERVE: Requires = Requires {
        serve: true,
        ..REQ_NONE
    };
    const REQ_OBS: Requires = Requires {
        obs: true,
        ..REQ_NONE
    };

    fn minimal(streaming: bool, kernels: bool) -> String {
        minimal_with(streaming, kernels, false)
    }

    fn minimal_with(streaming: bool, kernels: bool, shards: bool) -> String {
        let streaming_section = if streaming {
            "\"streaming_pivots\": {\"threads\": 1, \
             \"open_ms\": {\"median\": 1.0, \"min\": 1.0, \"max\": 1.0}, \
             \"drain_ms\": {\"median\": 2.0, \"min\": 2.0, \"max\": 2.0}, \
             \"windows\": 3, \"skip_fraction\": 0.25, \"pruned_by_triangle\": 7, \
             \"pairs_skipped_entirely\": 2, \"total_edges\": 9},"
        } else {
            ""
        };
        let kernels_section = if kernels {
            "\"kernels\": {\"backend\": \"avx2+fma\", \"len\": 16384, \
             \"dot_speedup\": 9.1, \"moments_speedup\": 2.0, \
             \"prefix_build_speedup\": 13.0},"
        } else {
            ""
        };
        let shards_section = if shards {
            "\"shards\": {\"n_shards\": 4, \"workers\": 4, \"mode\": \"processes\", \
             \"evaluated\": 100, \"total_cells\": 400, \"merged_edges\": 9, \
             \"prepare_ms_max\": 2.5, \"query_ms_max\": 1.5, \"replans\": 1},"
        } else {
            ""
        };
        format!(
            "{{\"schema\": \"dangoron-bench-v1\", \"workload\": \"w\", \
             \"n_series\": 4, \"n_cols\": 100, \"n_windows\": 3, \
             \"hardware_threads\": 1, \
             \"hardware\": {{\"n_physical_cores\": 1, \"flags\": [\"avx2\", \"fma\"]}}, \
             {streaming_section} {kernels_section} {shards_section} \
             \"samples\": [{{\"threads\": 1, \
             \"prepare_ms\": {{\"median\": 1.0, \"min\": 1.0, \"max\": 1.0}}, \
             \"query_ms\": {{\"median\": 1.0, \"min\": 1.0, \"max\": 1.0}}, \
             \"skip_fraction\": 0.5, \"total_edges\": 4}}]}}"
        )
    }

    #[test]
    fn accepts_valid_records() {
        validate(&minimal(false, false), REQ_NONE).unwrap();
        validate(&minimal(true, false), REQ_NONE).unwrap();
        validate(&minimal(true, false), REQ_STREAMING).unwrap();
        validate(&minimal(false, true), REQ_KERNELS).unwrap();
        validate(&minimal_with(true, true, true), REQ_STREAMING).unwrap();
        validate(&minimal_with(false, false, true), REQ_SHARDS).unwrap();
    }

    #[test]
    fn rejects_missing_streaming_when_required() {
        let err = validate(&minimal(false, true), REQ_STREAMING).unwrap_err();
        assert!(err.contains("streaming_pivots"), "{err}");
    }

    #[test]
    fn rejects_missing_kernels_when_required() {
        let err = validate(&minimal(true, false), REQ_KERNELS).unwrap_err();
        assert!(err.contains("kernels"), "{err}");
        // Damaged kernels section is caught even when not required.
        let bad = minimal(false, true).replace("\"dot_speedup\": 9.1,", "");
        assert!(validate(&bad, REQ_NONE).is_err());
        // Wrong type in the section.
        let bad = minimal(false, true).replace("\"len\": 16384", "\"len\": \"big\"");
        assert!(validate(&bad, REQ_NONE).is_err());
    }

    #[test]
    fn optional_shards_keys_are_type_checked_when_present() {
        // Records without the v2 keys stay valid (pre-TCP records)...
        validate(&minimal_with(false, false, true), REQ_SHARDS).unwrap();
        // ...a well-typed v2 section is valid...
        let v2 = minimal_with(false, false, true).replace(
            "\"replans\": 1}",
            "\"replans\": 1, \"transport\": \"tcp\", \"assignments\": 4, \
             \"assign_bytes\": 512, \"load_bytes\": 4096, \
             \"late_joins\": 1, \"steals\": 2, \
             \"heartbeats\": 12, \"bit_identical\": true, \
             \"hardware_mismatch\": false}",
        );
        validate(&v2, REQ_SHARDS).unwrap();
        // ...and a mis-typed one is rejected.
        let bad = v2.replace("\"transport\": \"tcp\"", "\"transport\": 6");
        assert!(validate(&bad, REQ_NONE).is_err());
        let bad = v2.replace("\"steals\": 2", "\"steals\": \"two\"");
        assert!(validate(&bad, REQ_NONE).is_err());
        let bad = v2.replace("\"hardware_mismatch\": false", "\"hardware_mismatch\": 0");
        assert!(validate(&bad, REQ_NONE).is_err());
        let bad = v2.replace("\"load_bytes\": 4096", "\"load_bytes\": \"many\"");
        assert!(validate(&bad, REQ_NONE).is_err());
    }

    /// Splices a well-formed `serve` section into a record.
    fn add_serve(record: &str) -> String {
        record.replace(
            "\"samples\":",
            "\"serve\": {\"queries\": 8, \"open_ms\": 120.5, \"resident_ms\": 31.2, \
             \"one_shot_ms\": 1042.0, \"shared_prepare_speedup\": 6.87, \
             \"memory_bytes\": 262144, \"total_edges\": 420, \
             \"bit_identical\": true}, \"samples\":",
        )
    }

    fn add_obs(record: &str) -> String {
        record.replace(
            "\"samples\":",
            "\"obs\": {\"families\": 7, \"series\": 7, \"scrape_ms\": 0.3, \
             \"exposition_bytes\": 4096, \"exposition_valid\": true, \
             \"walk_observations\": 12, \"exec_chunks\": 96, \
             \"steal_attempts\": 104}, \"samples\":",
        )
    }

    #[test]
    fn obs_section_is_required_and_checked_when_demanded() {
        let err = validate(&minimal(false, false), REQ_OBS).unwrap_err();
        assert!(err.contains("obs"), "{err}");
        let ok = add_obs(&minimal(false, false));
        validate(&ok, REQ_OBS).unwrap();
        validate(&ok, REQ_NONE).unwrap();
        // A damaged obs section is caught even when not required.
        let bad = ok.replace("\"exposition_valid\": true, ", "");
        assert!(validate(&bad, REQ_NONE).is_err());
        let bad = ok.replace("\"exposition_valid\": true", "\"exposition_valid\": 1");
        assert!(validate(&bad, REQ_NONE).is_err());
    }

    #[test]
    fn serve_section_is_required_and_checked_when_demanded() {
        let err = validate(&minimal(false, false), REQ_SERVE).unwrap_err();
        assert!(err.contains("serve"), "{err}");
        let ok = add_serve(&minimal(false, false));
        validate(&ok, REQ_SERVE).unwrap();
        validate(&ok, REQ_NONE).unwrap();
        // A damaged serve section is caught even when not required.
        let bad = ok.replace("\"shared_prepare_speedup\": 6.87, ", "");
        assert!(validate(&bad, REQ_NONE).is_err());
        let bad = ok.replace("\"bit_identical\": true", "\"bit_identical\": \"yes\"");
        assert!(validate(&bad, REQ_NONE).is_err());
        let bad = ok.replace("\"queries\": 8", "\"queries\": \"eight\"");
        assert!(validate(&bad, REQ_NONE).is_err());
        // The section keys cannot be satisfied by same-named sample keys.
        let bad = ok.replace("\"total_edges\": 420, ", "");
        assert!(validate(&bad, REQ_SERVE).is_err());
    }

    #[test]
    fn rejects_missing_or_damaged_shards_section() {
        let err = validate(&minimal(false, false), REQ_SHARDS).unwrap_err();
        assert!(err.contains("shards"), "{err}");
        // Damaged shards section is caught even when not required.
        let bad = minimal_with(false, false, true).replace(", \"replans\": 1}", "}");
        assert!(validate(&bad, REQ_NONE).is_err());
        let bad = minimal_with(false, false, true)
            .replace("\"query_ms_max\": 1.5", "\"query_ms_max\": \"slow\"");
        assert!(validate(&bad, REQ_NONE).is_err());
    }

    #[test]
    fn hardware_section_is_required_and_checked() {
        let bad = minimal(false, false).replace(
            "\"hardware\": {\"n_physical_cores\": 1, \"flags\": [\"avx2\", \"fma\"]}, ",
            "",
        );
        let err = validate(&bad, REQ_NONE).unwrap_err();
        assert!(err.contains("hardware"), "{err}");
        let bad = minimal(false, false).replace("\"flags\": [\"avx2\", \"fma\"]", "\"flags\": 3");
        assert!(validate(&bad, REQ_NONE).is_err());
    }

    #[test]
    fn per_shard_records_validate_and_extract() {
        let record = minimal(false, false).replace(
            "\"samples\":",
            "\"shard\": {\"index\": 2, \"n_shards\": 4, \"pair_start\": 10, \
             \"pair_end\": 20, \"evaluated\": 25, \"total_cells\": 30, \
             \"edges\": 3, \"attempt\": 0, \"prepare_ms\": 1.25, \
             \"query_ms\": 0.5}, \"samples\":",
        );
        validate(&record, REQ_NONE).unwrap();
        let body = object_body(after_key(&record, "shard").unwrap()).unwrap();
        assert_eq!(num_value(body, "pair_end"), Some(20.0));
        assert_eq!(num_value(body, "prepare_ms"), Some(1.25));
        assert_eq!(num_value(body, "nope"), None);
        // A damaged shard section fails even though it is optional.
        let bad = record.replace("\"pair_end\": 20, ", "");
        assert!(validate(&bad, REQ_NONE).is_err());
    }

    #[test]
    fn rejects_structural_damage() {
        // Bad schema tag.
        let bad = minimal(false, false).replace("dangoron-bench-v1", "v0");
        assert!(validate(&bad, REQ_NONE).is_err());
        // Dropped key.
        let bad = minimal(false, false).replace("\"n_windows\": 3,", "");
        assert!(validate(&bad, REQ_NONE).is_err());
        // Wrong type.
        let bad = minimal(false, false).replace("\"n_series\": 4", "\"n_series\": \"four\"");
        assert!(validate(&bad, REQ_NONE).is_err());
        // Unbalanced braces.
        let full = minimal(false, false);
        assert!(validate(&full[..full.len() - 1], REQ_NONE).is_err());
        // Empty samples.
        let bad = "{\"schema\": \"dangoron-bench-v1\", \"workload\": \"w\", \
                   \"n_series\": 1, \"n_cols\": 1, \"n_windows\": 1, \
                   \"hardware_threads\": 1, \
                   \"hardware\": {\"n_physical_cores\": 1, \"flags\": []}, \
                   \"samples\": []}";
        assert!(validate(bad, REQ_NONE).is_err());
        // Damaged streaming section is caught even when not required.
        let bad = minimal(true, false).replace("\"pruned_by_triangle\": 7,", "");
        assert!(validate(&bad, REQ_NONE).is_err());
    }

    #[test]
    fn streaming_keys_cannot_be_satisfied_by_samples() {
        // `skip_fraction` and `total_edges` also appear in every samples
        // entry; dropping them from the streaming section must still fail
        // (the check is confined to the section's own object).
        let bad = minimal(true, false)
            .replace("\"skip_fraction\": 0.25, ", "")
            .replace(
                "\"pairs_skipped_entirely\": 2, \"total_edges\": 9",
                "\"pairs_skipped_entirely\": 2",
            );
        let err = validate(&bad, REQ_STREAMING).unwrap_err();
        assert!(
            err.contains("skip_fraction") || err.contains("total_edges"),
            "{err}"
        );
    }

    #[test]
    fn real_emitter_output_validates() {
        // The actual perf emitter and this validator must stay in sync.
        use crate::perf::{
            HardwareInfo, KernelsPerf, PerfRecord, ShardsPerf, StreamingPerf, ThreadSample,
        };
        use eval::timing::TimingSummary;
        use std::time::Duration;
        let t = TimingSummary {
            reps: 1,
            median: Duration::from_millis(5),
            min: Duration::from_millis(4),
            max: Duration::from_millis(6),
        };
        let mut r = PerfRecord {
            workload: "unit \"test\"".to_string(),
            n_series: 4,
            n_cols: 128,
            n_windows: 5,
            hardware_threads: 2,
            hardware: HardwareInfo {
                n_physical_cores: 2,
                flags: vec!["avx2".into(), "fma".into()],
            },
            samples: vec![ThreadSample {
                threads: 1,
                prepare: t,
                query: t,
                skip_fraction: 0.5,
                total_edges: 10,
            }],
            streaming: None,
            kernels: None,
            shards: None,
            serve: None,
            obs: None,
        };
        validate(&r.to_json(), REQ_NONE).unwrap();
        assert!(validate(&r.to_json(), REQ_STREAMING).is_err());
        assert!(validate(&r.to_json(), REQ_KERNELS).is_err());
        assert!(validate(&r.to_json(), REQ_SHARDS).is_err());
        assert!(validate(&r.to_json(), REQ_SERVE).is_err());
        assert!(validate(&r.to_json(), REQ_OBS).is_err());
        r.streaming = Some(StreamingPerf {
            threads: 2,
            open: t,
            drain: t,
            windows: 5,
            skip_fraction: 0.25,
            pruned_by_triangle: 3,
            pairs_skipped_entirely: 1,
            total_edges: 10,
        });
        r.kernels = Some(KernelsPerf {
            backend: "avx2+fma".to_string(),
            len: 16384,
            dot_speedup: 9.2,
            moments_speedup: 2.0,
            prefix_build_speedup: 13.1,
        });
        r.shards = Some(ShardsPerf {
            n_shards: 4,
            workers: 4,
            mode: "processes".to_string(),
            transport: "tcp".to_string(),
            assignments: 5,
            assign_bytes: 640,
            load_bytes: 4096,
            replans: 1,
            late_joins: 1,
            steals: 2,
            heartbeats: 12,
            evaluated: 100,
            total_cells: 400,
            merged_edges: 10,
            prepare_ms_max: 5.0,
            query_ms_max: 2.5,
            coord_ms: 9.0,
            single_process_ms: 8.0,
            bit_identical: true,
        });
        r.serve = Some(crate::perf::ServePerf {
            queries: 8,
            open_ms: 120.0,
            resident_ms: 30.0,
            one_shot_ms: 1000.0,
            shared_prepare_speedup: 6.6,
            memory_bytes: 262_144,
            total_edges: 420,
            bit_identical: true,
        });
        r.obs = Some(crate::perf::ObsPerf {
            families: 7,
            series: 7,
            scrape_ms: 0.25,
            exposition_bytes: 4096,
            exposition_valid: true,
            walk_observations: 12,
            exec_chunks: 96,
            steal_attempts: 104,
        });
        validate(
            &r.to_json(),
            Requires {
                streaming: true,
                kernels: true,
                shards: true,
                serve: true,
                obs: true,
            },
        )
        .unwrap();
    }

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
