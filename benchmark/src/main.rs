//! `dangoron-benchmark` — runs the named workloads and prints their metrics.
//!
//! ```text
//! dangoron-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!                    [--spans FILE] [--out FILE] [--smoke]
//! dangoron-benchmark validate --benchmark FILE
//! ```
//!
//! Without `--workload` every workload runs. Metrics go to stderr as a
//! table and, with `--out`, to a `dangoron-benchmark-v1` JSON record; the
//! last line of stdout is a one-line JSON summary. `--trace 1` reports the
//! per-layer metrics instead of the end-to-end ones, and `--spans` writes
//! that run's spans as JSON lines. The exit code is 1 when any correctness
//! check fails and 2 on a usage error.

use dangoron_benchmark::report;
use dangoron_benchmark::{catalog, run_workload, Options};
use std::process::ExitCode;

const USAGE: &str = "usage: dangoron-benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--spans FILE] [--out FILE] [--smoke]\n       \
                     dangoron-benchmark validate --benchmark FILE";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("dangoron-benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("validate") {
        return validate(&args[1..]);
    }
    let mut opts = Options {
        seed: 2020,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut workloads: Vec<&str> = Vec::new();
    let (mut out, mut spans) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        const VALUE_FLAGS: [&str; 6] = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--spans",
            "--out",
        ];
        if !VALUE_FLAGS.contains(&flag.as_str()) {
            return usage_error(&format!("unknown flag {flag}"));
        }
        let Some(value) = it.next() else {
            return usage_error(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match catalog::workload(value) {
                Some(w) => workloads.push(w.name),
                None => return usage_error(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(v) => opts.seed = v,
                Err(e) => return usage_error(&format!("bad --seed: {e}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => opts.seconds = v,
                _ => return usage_error(&format!("bad --seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return usage_error("--trace takes 0 or 1"),
            },
            "--spans" => spans = Some(value.clone()),
            "--out" => out = Some(value.clone()),
            _ => unreachable!("{flag} is in VALUE_FLAGS but not handled"),
        }
    }
    if workloads.is_empty() {
        workloads = catalog::WORKLOADS.iter().map(|w| w.name).collect();
    }

    let reports: Vec<_> = workloads
        .iter()
        .map(|w| {
            eprintln!(
                "benchmark: running {w} (seed {}, {} s)",
                opts.seed, opts.seconds
            );
            run_workload(w, &opts)
        })
        .collect();
    eprint!("{}", report::table(&reports));

    let mut ok = reports.iter().all(|r| r.correct());
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, report::record_json(&opts, &reports)) {
            eprintln!("dangoron-benchmark: cannot write {path}: {e}");
            ok = false;
        }
    }
    if let Some(path) = spans {
        let text: String = reports
            .iter()
            .filter_map(|r| r.spans.as_ref().map(|t| t.to_jsonl(r.workload)))
            .collect();
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("dangoron-benchmark: cannot write {path}: {e}");
            ok = false;
        }
    }
    println!("{}", report::summary_line(opts.trace, &reports));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn validate(args: &[String]) -> ExitCode {
    let [flag, path] = args else {
        return usage_error("validate takes --benchmark FILE");
    };
    if flag != "--benchmark" {
        return usage_error("validate takes --benchmark FILE");
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dangoron-benchmark: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report::validate(&text) {
        Ok(()) => {
            println!("{path}: valid {}", report::SCHEMA);
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in problems {
                eprintln!("{path}: {p}");
            }
            ExitCode::FAILURE
        }
    }
}
