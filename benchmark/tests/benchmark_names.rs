//! Name drift and smoke coverage: `BENCHMARK.json` at the repository root,
//! the catalog in `src/catalog.rs` and what a `--smoke` run emits must
//! name the same workloads and metrics, and every workload must finish
//! correct at smoke size.

use dangoron_benchmark::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use dangoron_benchmark::json::{self, Value};
use dangoron_benchmark::report;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let doc = benchmark_json();
    let workloads: Vec<(&str, &str)> = list(&doc, "workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let expected: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, expected);

    let e2e: Vec<(&str, &str, &str, f64)> = list(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound,
            )
        })
        .collect();
    let expected: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound))
        .collect();
    assert_eq!(e2e, expected);

    let layers: Vec<(&str, &str, &str)> = list(&doc, "per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let expected: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .collect();
    assert_eq!(layers, expected);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn names_are_well_formed_and_layers_point_at_real_metrics() {
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
                && catalog::valid_name(name),
            "bad name {name:?}"
        );
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in PER_LAYER {
        assert!(!m.moves.is_empty(), "{} moves no end-to-end metric", m.name);
        for moved in m.moves {
            assert!(
                END_TO_END.iter().any(|e| e.name == *moved),
                "{}: {moved}",
                m.name
            );
        }
        assert!(
            catalog::workload(m.heavy_on).is_some(),
            "{}: {}",
            m.name,
            m.heavy_on
        );
    }
}

/// Runs every workload at smoke size and returns the parsed record.
fn smoke(trace: &str) -> Value {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-trace{trace}.json"));
    let run = Command::new(env!("CARGO_BIN_EXE_dangoron-benchmark"))
        .args(["--smoke", "--trace", trace, "--out"])
        .arg(&out)
        .output()
        .expect("run dangoron-benchmark");
    assert!(
        run.status.success(),
        "smoke run (trace {trace}) failed: {}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("record written");
    assert_eq!(report::validate(&text), Ok(()));
    json::parse(&text).expect("record is JSON")
}

fn check_smoke_record(record: &Value, catalogued: &[&str]) {
    let workloads = list(record, "workloads");
    let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
    let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, expected);
    for w in workloads {
        let name = field(w, "name");
        assert_eq!(
            w.get("correct"),
            Some(&Value::Bool(true)),
            "{name} incorrect"
        );
        assert_eq!(
            w.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{name} failed ops"
        );
        assert!(matches!(field(w, "mode"), "processes" | "in-process"));
        let emitted: Vec<&str> = list(w, "metrics")
            .iter()
            .map(|m| field(m, "name"))
            .collect();
        for want in catalogued {
            assert!(emitted.contains(want), "{name} did not emit {want}");
        }
        // Anything else is an ungated percentile of a gated latency.
        for got in &emitted {
            let base = got.rsplit_once('.').map_or(*got, |(b, _)| b);
            assert!(
                catalog::unit_of(got).is_some()
                    || catalog::unit_of(&format!("{base}.p10")).is_some(),
                "{name} emitted uncatalogued {got}"
            );
        }
    }
}

#[test]
fn smoke_runs_are_correct_and_emit_the_catalogued_names() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    check_smoke_record(&smoke("0"), &e2e);

    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let traced = smoke("1");
    check_smoke_record(&traced, &layers);
    // The traced rebuild matched Dangoron::run bit for bit on both engine
    // configurations (PaperJump, and Exhaustive with pivots).
    for w in list(&traced, "workloads").iter().take(2) {
        let rebuild = list(w, "checks")
            .iter()
            .find(|c| field(c, "name").starts_with("traced rebuild"))
            .expect("rebuild check");
        assert_eq!(
            rebuild.get("ok"),
            Some(&Value::Bool(true)),
            "{}",
            field(w, "name")
        );
    }
}
