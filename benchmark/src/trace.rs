//! Spans recorded in memory by the benchmark around its calls into each
//! layer, written out as a Chrome trace (Perfetto opens it) when the run
//! ends. A disabled tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the enclosing span; 0 for a root span.
    pub parent: usize,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals: how often a span ran, its inclusive time and its self
/// time (inclusive minus the time its child spans cover).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it nests under the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().map_or(0, |&i| i + 1),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, sorted by name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// The spans as Chrome-trace JSON ("X" complete events, microsecond
    /// timestamps); each event carries its span id and parent id.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        out.push_str(&format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"args\": {{\"name\": {}}}}}",
            json::quote(process)
        ));
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                ",\n{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                json::quote(s.name),
                json::number(s.start_ns as f64 / 1e3),
                json::number((s.end_ns - s.start_ns) as f64 / 1e3),
                i + 1,
                s.parent
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.begin("op");
        t.span("layer", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let totals = t.totals();
        let op = &totals["op"];
        let layer = &totals["layer"];
        assert_eq!((op.count, layer.count), (1, 1));
        assert_eq!(op.total_ns, op.self_ns + layer.total_ns);
        assert!(layer.self_ns >= 2_000_000);
        assert_eq!(t.spans()[1].parent, 1);
        let doc = json::parse(&t.chrome_json("test")).expect("valid JSON");
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.span("op", || ());
        assert!(t.spans().is_empty());
    }
}
