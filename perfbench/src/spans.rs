//! Spans the benchmark records around its own calls into each layer.
//! They stay in memory and are written once, as JSON lines, when the
//! run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: its name, the span that caused it, start and end in
/// ns since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `codec.encode`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span; returns its duration in ns.
    pub fn close(&mut self, i: usize) -> u64 {
        let end = self.now_ns();
        let s = &mut self.spans[i];
        s.end_ns = end;
        end - s.start_ns
    }

    /// All spans, one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut sp = Spans::default();
        let root = sp.open("replay", None);
        let c = sp.open("codec.encode", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child = sp.close(c);
        let total = sp.close(root);
        assert!(child >= 2_000_000 && total >= child);
        let text = sp.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains(r#""name":"codec.encode","parent":0"#));
    }
}
