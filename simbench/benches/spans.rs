//! In-memory spans for the traced run, written out once at the end.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! the simulator crates: `setup`, `run` and `check` around the traced
//! run, and one `replay.<layer>` span per layer replay, each with the op
//! count it covered. Nothing inside the simulator is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Open spans, innermost last: the parent of whatever is recorded next.
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span under the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, count: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            count,
        });
    }

    /// Open a span now; spans recorded until the matching `close` are its
    /// children.
    pub fn open(&mut self, name: &str) {
        let now = Instant::now();
        self.record(name, now, now, 0);
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span now, with the op count it covered.
    pub fn close(&mut self, count: u64) {
        let idx = self.open.pop().expect("close without open");
        let end = self.ns(Instant::now());
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.count = count;
    }

    pub fn duration_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        s.end_ns - s.start_ns
    }

    /// Duration minus the part covered by direct children.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        self.duration_ns(idx).saturating_sub(children)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"count\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                s.count,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}
