//! Per-workload results, the `dangoron-benchmark-v1` record, the stderr
//! table, the one-line summary on stdout, and the record validator.

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::json::{self, Value};
use crate::stats;
use crate::trace::Tracer;
use crate::Options;
use std::fmt::Write as _;

/// The record's schema tag.
pub const SCHEMA: &str = "dangoron-benchmark-v1";

/// One reported number.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value summarises (0 for a layer the workload skips).
    pub samples: usize,
}

/// One correctness check, run outside every timed region.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence.
    pub detail: String,
}

/// The result of one workload.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// `"in-process"`, or `"processes"` when real daemons ran.
    pub mode: &'static str,
    /// Operations attempted (timed requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Metrics, catalogued and diagnostic.
    pub metrics: Vec<Measured>,
    /// The traced run's spans.
    pub spans: Option<Tracer>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, mode: &'static str) -> Self {
        Self {
            workload,
            mode,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: Vec::new(),
            spans: None,
        }
    }

    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            eprintln!(
                "benchmark: {}: check failed: {name} ({detail})",
                self.workload
            );
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Records a catalogued metric.
    ///
    /// # Panics
    /// Panics when `name` is not in the catalog — a bug in this crate.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let unit = catalog::unit_of(name).unwrap_or_else(|| panic!("uncatalogued metric {name}"));
        self.push(name, unit, value, samples);
    }

    /// Records a latency series in milliseconds: the gated 10th percentile
    /// as `<name>.p10` and, ungated, the median as `<name>.p50` and the
    /// highest tail with ten samples beyond it.
    ///
    /// The gate reads the 10th percentile because this benchmark runs on
    /// shared machines: host contention slows whole stretches of a run, and
    /// over ten runs the spread of the median reached 57% where that of the
    /// 10th percentile stayed under 27% (`BENCHMARK.md`).
    pub fn latency(&mut self, name: &str, values: &[f64]) {
        let n = values.len();
        let p10 = stats::quantile(values, 0.1).unwrap_or(0.0);
        self.metric(&format!("{name}.p10"), p10, n);
        self.push(&format!("{name}.p50"), "ms", stats::median(values), n);
        if let Some((label, v)) = stats::tail(values) {
            self.push(&format!("{name}.{label}"), "ms", v, n);
        }
    }

    fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Measured {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// The metric named `name`.
    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Completes the metric set for the run kind: a traced run reports
    /// every per-layer metric (0 for a layer this workload does not
    /// exercise); an untraced run must have produced every end-to-end one.
    pub fn complete(&mut self, trace: bool) {
        if trace {
            for m in PER_LAYER {
                if self.get(m.name).is_none() {
                    self.push(m.name, m.unit, 0.0, 0);
                }
            }
        } else if self.correct() {
            let missing: Vec<&str> = END_TO_END
                .iter()
                .map(|m| m.name)
                .filter(|n| self.get(n).is_none())
                .collect();
            if !missing.is_empty() {
                self.check(
                    "every end-to-end metric was measured",
                    false,
                    missing.join(", "),
                );
            }
        }
    }
}

/// The `dangoron-benchmark-v1` JSON record of a run with `opts`.
pub fn record_json(opts: &Options, reports: &[Report]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": {},", json::string(SCHEMA));
    let _ = writeln!(
        s,
        "  \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"hardware_threads\": {},",
        opts.seed,
        json::number(opts.seconds),
        opts.trace,
        opts.smoke,
        exec::available_threads(),
    );
    let _ = writeln!(s, "  \"workloads\": [");
    for (k, r) in reports.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(
            s,
            "      \"name\": {}, \"mode\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {},",
            json::string(r.workload),
            json::string(r.mode),
            r.correct(),
            r.attempted,
            r.failed,
        );
        let checks: Vec<String> = r
            .checks
            .iter()
            .map(|c| {
                format!(
                    "        {{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    json::string(&c.name),
                    c.ok,
                    json::string(&c.detail)
                )
            })
            .collect();
        let _ = writeln!(s, "      \"checks\": [\n{}\n      ],", checks.join(",\n"));
        let metrics: Vec<String> = r
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "        {{\"name\": {}, \"unit\": {}, \"value\": {}, \"samples\": {}}}",
                    json::string(&m.name),
                    json::string(m.unit),
                    json::number(m.value),
                    m.samples
                )
            })
            .collect();
        let _ = writeln!(s, "      \"metrics\": [\n{}\n      ]", metrics.join(",\n"));
        let comma = if k + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// The one-line summary printed last on stdout:
/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
/// It carries the end-to-end metrics of an untraced run or the per-layer
/// metrics of a traced one; with several workloads each name is prefixed
/// by `<workload>.`.
pub fn summary_line(trace: bool, reports: &[Report]) -> String {
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut entries = Vec::new();
    for r in reports {
        for m in r
            .metrics
            .iter()
            .filter(|m| names.contains(&m.name.as_str()))
        {
            let key = if reports.len() == 1 {
                m.name.clone()
            } else {
                format!("{}.{}", r.workload, m.name)
            };
            entries.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&key),
                json::number(m.value),
                json::string(m.unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().all(Report::correct),
        reports.iter().map(|r| r.attempted).sum::<u64>(),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        entries.join(", ")
    )
}

/// The human-readable table written to stderr.
pub fn table(reports: &[Report]) -> String {
    let mut s = String::new();
    for r in reports {
        let _ = writeln!(
            s,
            "== {} ({}): {} ops, {} failed, {}",
            r.workload,
            r.mode,
            r.attempted,
            r.failed,
            if r.correct() { "correct" } else { "INCORRECT" }
        );
        for c in &r.checks {
            let mark = if c.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(s, "   {mark} {} ({})", c.name, c.detail);
        }
        for m in &r.metrics {
            let _ = writeln!(
                s,
                "   {:<32} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    s
}

/// Validates a `dangoron-benchmark-v1` record: the schema tag, a name,
/// unit, value and sample count on every metric, and only finite numbers.
/// Returns every problem found.
pub fn validate(text: &str) -> Result<(), Vec<String>> {
    let doc = json::parse(text).map_err(|e| vec![format!("not JSON: {e}")])?;
    let mut problems = Vec::new();
    non_finite(&doc, "$", &mut problems);
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        problems.push(format!("schema tag is not {SCHEMA}"));
    }
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    if workloads.is_empty() {
        problems.push("no workloads".into());
    }
    for (k, w) in workloads.iter().enumerate() {
        let wname = w.get("name").and_then(Value::as_str).unwrap_or("");
        if !catalog::valid_name(wname) {
            problems.push(format!("workloads[{k}]: bad name {wname:?}"));
        }
        let metrics = w.get("metrics").and_then(Value::as_array);
        if metrics.is_none() {
            problems.push(format!("{wname}: no metrics array"));
        }
        for (j, m) in metrics.unwrap_or(&[]).iter().enumerate() {
            let at = format!("{wname}.metrics[{j}]");
            match m.get("name").and_then(Value::as_str) {
                Some(n) if catalog::valid_name(n) => {}
                other => problems.push(format!("{at}: bad name {other:?}")),
            }
            if m.get("unit")
                .and_then(Value::as_str)
                .is_none_or(str::is_empty)
            {
                problems.push(format!("{at}: no unit"));
            }
            if m.get("value").and_then(Value::as_f64).is_none() {
                problems.push(format!("{at}: value is not a number"));
            }
            match m.get("samples").and_then(Value::as_f64) {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => {}
                _ => problems.push(format!("{at}: samples is not a count")),
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

fn non_finite(v: &Value, at: &str, out: &mut Vec<String>) {
    match v {
        Value::Num(x) if !x.is_finite() => out.push(format!("{at}: non-finite number")),
        Value::Arr(items) => {
            for (k, item) in items.iter().enumerate() {
                non_finite(item, &format!("{at}[{k}]"), out);
            }
        }
        Value::Obj(members) => {
            for (key, item) in members {
                non_finite(item, &format!("{at}.{key}"), out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("climate-wide", "in-process");
        r.op(true);
        r.metric("query_ms.p10", 1.25, 10);
        r.latency("ingest_ms", &[1.5; 100]);
        r.check("hash", true, "ok".into());
        r
    }

    fn info() -> Options {
        Options {
            seed: 7,
            seconds: 1.0,
            trace: false,
            smoke: true,
        }
    }

    #[test]
    fn record_round_trips_through_the_validator() {
        let text = record_json(&info(), &[sample()]);
        assert_eq!(validate(&text), Ok(()));
    }

    #[test]
    fn validator_rejects_malformed_records() {
        let good = record_json(&info(), &[sample()]);
        let cases = [
            good.replace(SCHEMA, "dangoron-bench-v1"),
            good.replace("\"unit\": \"ms\"", "\"unit\": \"\""),
            good.replace("\"value\": 1.25", "\"value\": null"),
            good.replace("\"value\": 1.25", "\"value\": 1e999"),
            good.replace("\"samples\": 10", "\"samples\": -1"),
            good.replace("\"name\": \"query_ms.p10\"", "\"name\": \"query ms\""),
            good.replace("\"samples\": 10", "\"count\": 10"),
            "{\"schema\": \"dangoron-benchmark-v1\", \"workloads\": []}".to_string(),
            "not json".to_string(),
        ];
        for bad in cases {
            assert!(validate(&bad).is_err(), "accepted:\n{bad}");
        }
    }

    #[test]
    fn non_finite_values_are_written_as_null() {
        let mut r = sample();
        r.metric("recall", f64::NAN, 1);
        assert!(validate(&record_json(&info(), &[r])).is_err());
    }

    #[test]
    fn summary_line_carries_only_the_run_kinds_metrics() {
        let line = summary_line(false, &[sample()]);
        let v = json::parse(&line).unwrap();
        let metrics = v.get("metrics").unwrap();
        assert!(metrics.get("ingest_ms.p10").is_some());
        assert!(metrics.get("ingest_ms.p50").is_none());
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn traced_reports_list_every_layer_metric() {
        let mut r = sample();
        r.complete(true);
        assert!(PER_LAYER.iter().all(|m| r.get(m.name).is_some()));
        let mut r = sample();
        r.complete(false);
        assert!(!r.correct(), "missing end-to-end metrics must fail the run");
    }
}
