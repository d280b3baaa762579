//! Real-time network monitoring — the "updates" half of the paper's first
//! challenge ("efficiency of network construction and updates … to achieve
//! interactivity").
//!
//! Three modes, all over the same dataset (24 stations, 40 days of hourly
//! samples, 5-day windows sliding one day):
//!
//! * **Standalone** (default): a resident [`serve::session::Session`] is
//!   opened over one week of history; new data arrives day by day. A
//!   subscribed delta sink prints each window as it closes, and the final
//!   "batch" answer comes from [`Session::query`] — the shared sketches,
//!   not a re-prepared engine — verified bitwise against a one-shot run.
//! * **`--serve ADDR`**: the same monitoring loop as a *client* of a
//!   running `dangoron-serve` daemon: open the `monitor` session, stream
//!   the days, query, and verify the served answer bitwise against a
//!   local one-shot run.
//! * **`--serve ADDR --subscribe`**: a second, concurrent client of the
//!   same daemon: subscribe to `monitor`'s window deltas, back-fill what
//!   the subscription missed with a query, and verify the reassembled
//!   stream bitwise. CI runs the driver and the subscriber side by side.
//!
//! ```sh
//! cargo run --release --example streaming_monitor
//! cargo run --release --example streaming_monitor -- --serve 127.0.0.1:7445
//! cargo run --release --example streaming_monitor -- --serve 127.0.0.1:7445 --subscribe
//! ```

use dangoron::{Dangoron, DangoronConfig};
use network::export::to_edge_list;
use serve::session::Session;
use serve::ServeClient;
use sketch::output::Edge;
use sketch::{SlidingQuery, ThresholdedMatrix};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tsdata::climate::{generate, ClimateConfig};
use tsdata::TimeSeriesMatrix;

const N_STATIONS: usize = 24;
const TOTAL_HOURS: usize = 24 * 40;
const HISTORY_HOURS: usize = 24 * 7;
const WINDOW: usize = 24 * 5; // 5-day windows
const STEP: usize = 24; //       sliding one day
const BETA: f64 = 0.9;
const SESSION: &str = "monitor";

fn config() -> DangoronConfig {
    DangoronConfig {
        basic_window: 24,
        // Exact evaluation: jump mode may re-evaluate at drain boundaries,
        // so only the exhaustive bound makes the *delta stream* (not just
        // the query path) bit-identical to a one-shot run.
        bound: dangoron::BoundMode::Exhaustive,
        ..Default::default()
    }
}

/// The full "future" dataset; every mode regenerates it deterministically.
fn dataset() -> TimeSeriesMatrix {
    generate(&ClimateConfig {
        n_stations: N_STATIONS,
        hours: TOTAL_HOURS,
        seed: 7,
        ..Default::default()
    })
    .expect("climate generation")
    .data
}

/// The one-shot ground truth the session answers are compared against —
/// same engine config as the session, so the comparison is bit-exact.
fn one_shot(data: &TimeSeriesMatrix, cfg: DangoronConfig) -> Vec<ThresholdedMatrix> {
    Dangoron::new(cfg)
        .expect("engine")
        .execute(
            data,
            SlidingQuery {
                start: 0,
                end: TOTAL_HOURS,
                window: WINDOW,
                step: STEP,
                threshold: BETA,
            },
        )
        .expect("one-shot run")
        .matrices
}

fn verify_bitwise(served: &[ThresholdedMatrix], fresh: &[ThresholdedMatrix], who: &str) {
    assert!(
        dist::merge::windows_bit_identical(served, fresh),
        "{who}: shared-sketch answer diverged from the one-shot run"
    );
    println!(
        "{who}: {} windows, bit-identical to the one-shot run",
        fresh.len()
    );
}

/// The original monitoring loop, now through the session layer: the
/// resident session owns the sketches, a subscription prints the deltas,
/// and the final batch answer is a shared-sketch query.
fn run_standalone() {
    let data = dataset();
    let initial = data.slice_columns(0, HISTORY_HOURS).expect("slice");
    // Horizontal (triangle) pruning: the pivot table is grown
    // incrementally with the sketches, so it costs O(N) per day.
    let cfg = DangoronConfig {
        horizontal: Some(Default::default()),
        ..config()
    };
    let mut session = Session::open(initial, WINDOW, STEP, BETA, cfg.clone()).expect("session");
    println!(
        "opened session over {HISTORY_HOURS}h of history \
         (backlog windows emit with the first append)"
    );

    // The monitor is a delta subscriber of its own session.
    session.subscribe(
        1,
        0,
        Box::new(|_, cw| {
            println!(
                "window {:>3} complete — {:>3} edges, density {:.3}",
                cw.index,
                cw.matrix.n_edges(),
                cw.matrix.density()
            );
            true
        }),
    );

    // Stream the remaining days one at a time.
    let mut t = HISTORY_HOURS;
    while t < TOTAL_HOURS {
        let next = (t + 24).min(TOTAL_HOURS);
        let chunk = data.slice_columns(t, next).expect("chunk");
        let out = session.append(&chunk).expect("append");
        if out.windows_closed > 0 {
            println!(
                "day {:>3}: {} windows closed, {} resident bytes",
                next / 24,
                out.windows_closed,
                out.memory_bytes
            );
        }
        t = next;
    }

    let s = session.engine().stats();
    println!(
        "\nsession end: {} windows emitted over {}h of data \
         ({}h of raw history retained; {} cells triangle-pruned)",
        session.engine().emitted_windows(),
        session.engine().ingested_cols(),
        session.engine().history_len(),
        s.pruned_by_triangle,
    );

    // The equivalent batch answer, straight from the shared sketches —
    // no second prepare, no regenerated dataset.
    let (covered, result) = session.query(WINDOW, STEP, BETA).expect("shared query");
    println!("shared-sketch query over the {covered}-column prefix:");
    verify_bitwise(&result.matrices, &one_shot(&data, cfg), "standalone");

    let final_matrix = result.matrices.last().expect("windows exist");
    println!("\nfinal window edge list (first lines):");
    for line in to_edge_list(final_matrix).lines().take(6) {
        println!("  {line}");
    }
}

/// The monitoring loop as a daemon client: open, stream, query, verify.
fn run_driver(addr: &str) {
    let data = dataset();
    let mut client = ServeClient::connect(addr, Duration::from_secs(30)).expect("connect");
    let ack = client
        .open(
            SESSION,
            &data.slice_columns(0, HISTORY_HOURS).expect("slice"),
            WINDOW,
            STEP,
            BETA,
            &config(),
        )
        .expect("open");
    println!(
        "driver: opened \"{SESSION}\" covering {} columns",
        ack.covered_cols
    );

    let mut t = HISTORY_HOURS;
    while t < TOTAL_HOURS {
        let next = (t + 24).min(TOTAL_HOURS);
        let ack = client
            .append(SESSION, &data.slice_columns(t, next).expect("chunk"))
            .expect("append");
        if ack.windows_closed > 0 {
            println!(
                "driver: day {:>3} — covered {:>4} cols, {} windows closed, {} resident bytes",
                next / 24,
                ack.covered_cols,
                ack.windows_closed,
                ack.memory_bytes
            );
        }
        t = next;
    }

    let reply = client.query(SESSION, WINDOW, STEP, BETA).expect("query");
    assert_eq!(
        reply.covered_cols, TOTAL_HOURS,
        "daemon covers the full stream"
    );
    let served = reply.matrices(N_STATIONS, BETA, config().edge_rule);
    verify_bitwise(&served, &one_shot(&data, config()), "driver");
}

/// A concurrent subscriber of the driver's session: deltas forward,
/// query back-fill for whatever the subscription attached too late for.
fn run_subscriber(addr: &str) {
    let data = dataset();
    let mut client = ServeClient::connect(addr, Duration::from_secs(30)).expect("connect");
    // A stuck daemon must fail the run, not hang it.
    client
        .reader()
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");

    // The driver may not have opened the session yet; retry until it has.
    let deadline = Instant::now() + Duration::from_secs(30);
    let (sub_id, next) = loop {
        match client.subscribe(SESSION) {
            Ok(got) => break got,
            Err(e) if Instant::now() < deadline && e.to_string().contains("serve error") => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("subscribe: {e}"),
        }
    };
    let n_windows = (TOTAL_HOURS - WINDOW) / STEP + 1;
    println!("subscriber: attached (sub {sub_id}), deltas resume at window {next}/{n_windows}");

    let matrix_of = |edges: Vec<Edge>| {
        ThresholdedMatrix::from_sorted_edges(N_STATIONS, BETA, config().edge_rule, edges)
    };
    let mut collected: BTreeMap<usize, ThresholdedMatrix> = BTreeMap::new();
    let mut got_last = next >= n_windows;
    while !got_last {
        let d = client.next_delta().expect("delta");
        got_last = d.window + 1 == n_windows;
        collected.insert(d.window, matrix_of(d.edges));
    }
    println!("subscriber: {} windows arrived as deltas", collected.len());

    // Back-fill the windows emitted before the subscription attached.
    let reply = client.query(SESSION, WINDOW, STEP, BETA).expect("backfill");
    for (w, m) in reply
        .matrices(N_STATIONS, BETA, config().edge_rule)
        .into_iter()
        .enumerate()
        .take(next)
    {
        collected.insert(w, m);
    }

    let fresh = one_shot(&data, config());
    assert_eq!(collected.len(), fresh.len(), "every window exactly once");
    let reassembled: Vec<ThresholdedMatrix> = collected.into_values().collect();
    verify_bitwise(&reassembled, &fresh, "subscriber");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let serve_addr = args
        .iter()
        .position(|a| a == "--serve")
        .map(|k| args.get(k + 1).cloned().expect("--serve needs an ADDR"));
    match serve_addr {
        None => run_standalone(),
        Some(addr) if args.iter().any(|a| a == "--subscribe") => run_subscriber(&addr),
        Some(addr) => run_driver(&addr),
    }
}
