//! The serving tier's determinism contract, under concurrency.
//!
//! A resident session answers ad-hoc queries from its shared sketch
//! state while appends keep arriving. The contract: every query answer
//! is **bit-identical** to a fresh one-shot [`dangoron::Dangoron`] run
//! over exactly the column prefix the answer reports
//! (`QueryReply::covered_cols`) — regardless of how appends and
//! concurrent queries interleave, which engine mode is resident, or
//! which of many `(window, step, threshold)` combinations is asked.
//!
//! The interleaving schedule is seeded ([`dist::chaos::Rng`]): append
//! chunk sizes are drawn per seed while N query threads race the
//! appender over their own links, so a failure reproduces by seed.

use dangoron::config::{HorizontalConfig, PivotStrategy};
use dangoron::{BoundMode, Dangoron, DangoronConfig};
use dist::chaos::Rng;
use serve::{Registry, ServeClient};
use sketch::{SlidingQuery, ThresholdedMatrix};
use std::sync::Arc;
use std::time::Duration;
use tsdata::{generators, TimeSeriesMatrix};

const N_SERIES: usize = 8;
const TOTAL_COLS: usize = 600;
const INITIAL_COLS: usize = 100;
const SESSION: (usize, usize, f64) = (80, 20, 0.7);

/// The ad-hoc combos the query threads ask, none requiring the session's
/// own geometry.
const COMBOS: [(usize, usize, f64); 3] = [(80, 20, 0.7), (60, 20, 0.9), (100, 40, 0.5)];

fn exhaustive_with_pivots() -> DangoronConfig {
    DangoronConfig {
        basic_window: 20,
        bound: BoundMode::Exhaustive,
        horizontal: Some(HorizontalConfig {
            n_pivots: 2,
            strategy: PivotStrategy::Evenly,
        }),
        ..Default::default()
    }
}

fn jump_mode() -> DangoronConfig {
    DangoronConfig {
        basic_window: 20,
        bound: BoundMode::PaperJump { slack: 0.0 },
        ..Default::default()
    }
}

/// Asserts a wire answer is bit-identical to a fresh one-shot run over
/// the covered prefix.
fn verify_against_fresh(
    full: &TimeSeriesMatrix,
    config: &DangoronConfig,
    covered: usize,
    window: usize,
    step: usize,
    threshold: f64,
    wire_edges: &[(u32, sketch::output::Edge)],
) {
    let prefix = full.slice_columns(0, covered).expect("covered prefix");
    let fresh = Dangoron::new(config.clone())
        .expect("engine config")
        .execute(
            &prefix,
            SlidingQuery {
                start: 0,
                end: covered,
                window,
                step,
                threshold,
            },
        )
        .expect("fresh one-shot run");
    let fresh_edges = ThresholdedMatrix::flatten_windows(&fresh.matrices);
    assert_eq!(
        wire_edges.len(),
        fresh_edges.len(),
        "edge count diverged at covered={covered} ({window},{step},{threshold})"
    );
    for (a, b) in wire_edges.iter().zip(&fresh_edges) {
        assert_eq!((a.0, a.1.i, a.1.j), (b.0, b.1.i, b.1.j));
        assert_eq!(
            a.1.value.to_bits(),
            b.1.value.to_bits(),
            "edge value not bit-identical at covered={covered} w{} ({},{})",
            a.0,
            a.1.i,
            a.1.j
        );
    }
}

/// One seeded interleaving: an appender drives the session from
/// `INITIAL_COLS` to `TOTAL_COLS` in seeded chunks while three query
/// threads (their own links) race it; every answer must verify against a
/// fresh run over its reported prefix.
fn run_interleaving(seed: u64, config: DangoronConfig) {
    let full = Arc::new(
        generators::clustered_matrix(N_SERIES, TOTAL_COLS, 2, 0.5, seed).expect("dataset"),
    );
    let addr = serve::spawn_local(Arc::new(Registry::new(None)), None)
        .expect("in-process daemon")
        .to_string();
    let name = format!("prop-{seed}");
    let (window, step, threshold) = SESSION;

    let mut appender = ServeClient::connect(&addr, Duration::from_secs(10)).expect("connect");
    let opened = appender
        .open(
            &name,
            &full.slice_columns(0, INITIAL_COLS).expect("initial"),
            window,
            step,
            threshold,
            &config,
        )
        .expect("open");
    assert_eq!(opened.covered_cols, INITIAL_COLS);

    let workers: Vec<_> = COMBOS
        .iter()
        .enumerate()
        .map(|(k, &(w, s, beta))| {
            let full = Arc::clone(&full);
            let config = config.clone();
            let addr = addr.clone();
            let name = name.clone();
            std::thread::spawn(move || {
                let mut client =
                    ServeClient::connect(&addr, Duration::from_secs(10)).expect("connect");
                for round in 0..4 {
                    let reply = client.query(&name, w, s, beta).expect("query");
                    assert!(
                        reply.covered_cols >= INITIAL_COLS && reply.covered_cols <= TOTAL_COLS,
                        "thread {k} round {round}: covered {} outside the stream",
                        reply.covered_cols
                    );
                    verify_against_fresh(
                        &full,
                        &config,
                        reply.covered_cols,
                        w,
                        s,
                        beta,
                        &reply.edges,
                    );
                }
            })
        })
        .collect();

    // The seeded append schedule, racing the query threads above.
    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut at = INITIAL_COLS;
    while at < TOTAL_COLS {
        let chunk = (rng.range_u64(1, 60) as usize).min(TOTAL_COLS - at);
        let ack = appender
            .append(&name, &full.slice_columns(at, at + chunk).expect("chunk"))
            .expect("append");
        at += chunk;
        // The sketches absorb whole basic windows; a ragged tail stays
        // raw until the next append completes it.
        let absorbed = at / 20 * 20;
        assert_eq!(
            ack.covered_cols, absorbed,
            "backpressure ack tracks the absorbed prefix"
        );
    }
    for h in workers {
        h.join().expect("query thread");
    }

    // Quiescent sweep: with the full stream resident, every combo must
    // verify at covered == TOTAL_COLS (guaranteed full-prefix coverage
    // even if every racing query above landed early).
    let mut client = ServeClient::connect(&addr, Duration::from_secs(10)).expect("connect");
    for &(w, s, beta) in &COMBOS {
        let reply = client.query(&name, w, s, beta).expect("query");
        assert_eq!(reply.covered_cols, TOTAL_COLS);
        verify_against_fresh(&full, &config, TOTAL_COLS, w, s, beta, &reply.edges);
    }
}

#[test]
fn concurrent_shared_queries_are_bit_identical_to_one_shot_runs() {
    run_interleaving(11, exhaustive_with_pivots());
}

#[test]
fn concurrent_shared_queries_verify_in_jump_mode() {
    run_interleaving(42, jump_mode());
}

#[test]
fn session_geometry_queries_share_the_pivot_table() {
    // A session opened with pivots keeps no pivot table (no resident
    // walk reads one); this seed pins its queries at the session's own
    // (window, step) under the same contract.
    let full = generators::clustered_matrix(N_SERIES, 400, 2, 0.5, 77).expect("dataset");
    let addr = serve::spawn_local(Arc::new(Registry::new(None)), None)
        .expect("daemon")
        .to_string();
    let config = exhaustive_with_pivots();
    let mut client = ServeClient::connect(&addr, Duration::from_secs(10)).expect("connect");
    client
        .open(
            "pivots",
            &full.slice_columns(0, 400).expect("all"),
            80,
            20,
            0.7,
            &config,
        )
        .expect("open");
    let reply = client.query("pivots", 80, 20, 0.7).expect("query");
    assert_eq!(reply.covered_cols, 400);
    verify_against_fresh(&full, &config, 400, 80, 20, 0.7, &reply.edges);
}
