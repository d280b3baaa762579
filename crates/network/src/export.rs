//! Exports of correlation networks for downstream tooling.
//!
//! Four plain-text formats cover most graph consumers: Graphviz DOT (for
//! rendering), a weighted edge list (for igraph/networkx/Gephi-style
//! ingestion), CSV (spreadsheets, dataframes), and JSON (the
//! machine-readable interchange the distributed coordinator dumps merged
//! graphs in). JSON numbers are emitted with full round-trip precision —
//! an exported network re-imported elsewhere carries the exact `f64`
//! correlation values the engines produced.

use sketch::ThresholdedMatrix;
use std::fmt::Write as _;

/// Graphviz DOT for one window's network. Node labels are optional (series
/// indices are used otherwise); edge weight is carried in the `weight` and
/// `label` attributes.
pub fn to_dot(m: &ThresholdedMatrix, labels: Option<&[String]>) -> String {
    let mut out = String::from("graph correlation_network {\n");
    out.push_str("  layout=neato;\n  node [shape=circle];\n");
    for v in 0..m.n_series() {
        match labels.and_then(|l| l.get(v)) {
            Some(name) => out.push_str(&format!("  n{v} [label=\"{name}\"];\n")),
            None => out.push_str(&format!("  n{v};\n")),
        }
    }
    for e in m.edges() {
        out.push_str(&format!(
            "  n{} -- n{} [weight={:.4}, label=\"{:.2}\"];\n",
            e.i,
            e.j,
            e.value.abs(),
            e.value
        ));
    }
    out.push_str("}\n");
    out
}

/// Tab-separated weighted edge list: `i\tj\tweight`, one edge per line.
pub fn to_edge_list(m: &ThresholdedMatrix) -> String {
    let mut out = String::new();
    for e in m.edges() {
        out.push_str(&format!("{}\t{}\t{:.6}\n", e.i, e.j, e.value));
    }
    out
}

/// CSV edge list of a whole window sequence: header `window,i,j,value`.
/// This is the coordinator's merged-graph dump format for dataframe
/// consumers.
pub fn to_temporal_csv(matrices: &[ThresholdedMatrix]) -> String {
    let mut out = String::from("window,i,j,value\n");
    for (w, m) in matrices.iter().enumerate() {
        for e in m.edges() {
            let _ = writeln!(out, "{w},{},{},{}", e.i, e.j, fmt_f64(e.value));
        }
    }
    out
}

/// JSON object for one window's network:
/// `{"n_series": …, "threshold": …, "edges": [{"i": …, "j": …, "value": …}, …]}`.
/// Node labels, when given, are emitted as a parallel `"labels"` array.
pub fn to_json(m: &ThresholdedMatrix, labels: Option<&[String]>) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"n_series\": {}, \"threshold\": {}",
        m.n_series(),
        fmt_f64(m.threshold())
    );
    if let Some(l) = labels {
        out.push_str(", \"labels\": [");
        for (k, name) in l.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", json_string(name));
        }
        out.push(']');
    }
    out.push_str(", \"edges\": [");
    for (k, e) in m.edges().iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"i\": {}, \"j\": {}, \"value\": {}}}",
            e.i,
            e.j,
            fmt_f64(e.value)
        );
    }
    out.push_str("]}");
    out
}

/// JSON array of a whole window sequence:
/// `[{"window": 0, "n_series": …, "edges": […]}, …]` — one
/// [`to_json`]-shaped object per window plus its index.
pub fn to_temporal_json(matrices: &[ThresholdedMatrix]) -> String {
    let mut out = String::from("[");
    for (w, m) in matrices.iter().enumerate() {
        if w > 0 {
            out.push_str(",\n ");
        }
        let body = to_json(m, None);
        let _ = write!(out, "{{\"window\": {}, {}", w, &body[1..]);
    }
    out.push(']');
    out
}

/// Shortest decimal that round-trips the exact `f64` (Rust's `{}` float
/// formatting guarantee); non-finite values degrade to `null`-safe `0`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers, but keep the export
        // unambiguous for float-typed readers.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

fn json_string(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ThresholdedMatrix {
        let mut m = ThresholdedMatrix::new(3, 0.5);
        m.push(0, 1, 0.9);
        m.push(1, 2, 0.75);
        m.finalize();
        m
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let dot = to_dot(&sample(), None);
        assert!(dot.starts_with("graph"));
        assert!(dot.contains("n0;"));
        assert!(dot.contains("n0 -- n1"));
        assert!(dot.contains("weight=0.9000"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn dot_uses_labels_when_given() {
        let labels = vec!["WX01".to_string(), "WX02".to_string(), "WX03".to_string()];
        let dot = to_dot(&sample(), Some(&labels));
        assert!(dot.contains("label=\"WX02\""));
    }

    #[test]
    fn edge_list_format() {
        let el = to_edge_list(&sample());
        let lines: Vec<&str> = el.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "0\t1\t0.900000");
    }

    #[test]
    fn csv_exports_have_headers_and_full_precision() {
        let mut m = ThresholdedMatrix::new(3, 0.5);
        m.push(0, 1, 0.8765432109876543);
        m.finalize();
        let t = to_temporal_csv(&[m.clone(), ThresholdedMatrix::new(3, 0.5), m]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "window,i,j,value");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0,0,1,"));
        assert!(lines[2].starts_with("2,0,1,"));
        let v: f64 = lines[1].split(',').nth(3).unwrap().parse().unwrap();
        assert_eq!(v.to_bits(), 0.8765432109876543f64.to_bits());
    }

    #[test]
    fn json_export_is_machine_readable_and_round_trips_values() {
        let m = sample();
        let json = to_json(&m, Some(&["a\"x".to_string(), "b".into(), "c".into()]));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"n_series\": 3"));
        assert!(json.contains("\"labels\": [\"a\\\"x\", \"b\", \"c\"]"));
        assert!(json.contains("{\"i\": 0, \"j\": 1, \"value\": 0.9}"));
        // Balanced braces/brackets outside of (escaped) strings.
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let t = to_temporal_json(&[m.clone(), ThresholdedMatrix::new(3, 0.5)]);
        assert!(t.starts_with('[') && t.ends_with(']'));
        assert!(t.contains("\"window\": 0"));
        assert!(t.contains("\"window\": 1, \"n_series\": 3"));
        assert!(t.contains("\"edges\": []"));
    }

    #[test]
    fn integer_valued_floats_stay_float_typed() {
        let mut m = ThresholdedMatrix::new(2, 0.5);
        m.push(0, 1, 1.0);
        m.finalize();
        assert!(to_temporal_csv(&[m.clone()]).contains("0,0,1,1.0"));
        assert!(to_json(&m, None).contains("\"value\": 1.0"));
    }
}
