//! The traced run's span recorder. Spans are kept in memory and written
//! out once the run ends, so recording costs one clock read per boundary.
//!
//! Span file format (`--spans FILE`): one JSON object per line,
//! `{"id", "parent", "name", "start_ns", "end_ns", "workload", "rep"}`.
//! `parent` is `null` for a root span; `start_ns`/`end_ns` count from the
//! recorder's creation; `rep` is the repetition or request id the span
//! belongs to.

use crate::json;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index into the recorder's span list.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Layer boundary name, e.g. `sketch.pair.build`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Repetition or request id.
    pub rep: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans on one thread, plus finished intervals handed in
/// from others.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Tags the spans opened from now on with `rep`.
    pub fn set_rep(&mut self, rep: u64) {
        self.rep = rep;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: start,
            end_ns: start,
            rep: self.rep,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds a finished root interval measured elsewhere (another thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, rep: u64) {
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent: None,
            name,
            start_ns,
            end_ns,
            rep,
        });
    }

    /// Every recorded span, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The median duration in milliseconds of the spans named `name`, and
    /// how many there are.
    pub fn median_ms(&self, name: &str) -> (f64, usize) {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        (crate::stats::median(&d), d.len())
    }

    /// Self time of every span in nanoseconds: its duration minus the
    /// durations of its direct children (which never overlap, being
    /// recorded on one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// The spans as JSON lines, tagged with `workload`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"workload\": {}, \"rep\": {}}}",
                s.id,
                json::string(s.name),
                s.start_ns,
                s.end_ns,
                json::string(workload),
                s.rep,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        t.set_rep(3);
        let root = t.enter("root");
        t.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let mid = t.enter("b");
        t.time("c", || ());
        t.exit(mid);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[3].parent, Some(mid));
        let own = t.self_ns();
        let dur = |k: usize| s[k].end_ns - s[k].start_ns;
        assert_eq!(own[root], dur(0) - dur(1) - dur(2));
        assert_eq!(own[mid], dur(2) - dur(3));
        assert!(t
            .to_jsonl("w")
            .lines()
            .all(|l| crate::json::parse(l).is_ok()));
        assert_eq!(t.median_ms("a").1, 1);
        assert!(s.iter().all(|sp| sp.rep == 3));
    }
}
