//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.call`), a start, an end, the span that
//! caused it, and the id of the op (cycle, run or fleet) it belongs
//! to. Spans are kept in memory and written out once, at the end of
//! the traced pass. Self time — a span's duration minus the part its
//! children cover — is what the per-layer table sums.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. When off, `enter`/`exit` only test a flag, so the
/// untraced pass runs the same code at no measurable cost.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Close every span still open (an op that panicked mid-call).
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over every span: call count and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// The spans as JSON Lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Aggregate of every span with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub calls: u64,
    pub self_ns: u64,
}

impl SelfTime {
    pub fn ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}
