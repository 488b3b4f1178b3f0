//! In-memory spans recorded around calls into the workspace's layers.
//!
//! Spans are recorded from the benchmark's own code, never from inside the
//! program: each names a layer, carries its start and end, the span that
//! caused it, the operation it belongs to and an optional work count.
//! A disabled tracer records nothing and costs one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (ignored by a disabled tracer).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let at = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            count: 0,
        });
        self.stack.push(at);
        Open(Some(at))
    }

    /// Closes `open`, recording `count` units of work done inside it. Inner
    /// spans a panic left open are dropped from the stack (their end stays
    /// 0, so they count as empty).
    pub fn exit(&mut self, open: Open, count: u64) {
        let Some(at) = open.0 else { return };
        let end = self.epoch.elapsed().as_nanos() as u64;
        while self.stack.pop().is_some_and(|top| top != at) {}
        let span = &mut self.spans[at];
        span.end_ns = end;
        span.count = count;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line, after a header line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// Self time and work of one layer within one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerOp {
    pub self_ns: u64,
    pub count: u64,
}

/// Per layer name, per operation id: summed self time (a span's duration
/// minus the part its child spans cover) and summed work counts.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u64, LayerOp>> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut layers: BTreeMap<&'static str, BTreeMap<u64, LayerOp>> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let entry = layers.entry(s.name).or_default().entry(s.op).or_default();
        entry.self_ns += s.duration_ns().saturating_sub(children);
        entry.count += s.count;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("iteration", 1, None, 0, 100),
            span("a", 1, Some(0), 10, 40),
            span("b", 1, Some(1), 20, 30),
            span("a", 1, Some(0), 50, 60),
            span("a", 2, None, 0, 5),
        ];
        let layers = self_times(&spans);
        assert_eq!(layers["iteration"][&1].self_ns, 60);
        assert_eq!(
            layers["a"][&1],
            LayerOp {
                self_ns: 30,
                count: 2
            }
        );
        assert_eq!(layers["a"][&2].self_ns, 5);
        assert_eq!(layers["b"][&1].self_ns, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let open = t.enter("x");
        t.exit(open, 3);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner, 2);
        t.exit(outer, 0);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].count, 2);
    }
}
