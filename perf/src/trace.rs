//! Benchmark-side spans around the calls into each layer.
//!
//! Spans live in memory and are written out when the run ends. With the
//! trace off, `span` only calls its closure, so timed and traced passes
//! share one code path. Spans inside the library crates are a later change;
//! here a span is exactly one call the benchmark makes.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    op: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// One thread's span log.
pub struct Trace {
    epoch: Option<Instant>,
    thread: u32,
    op: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn off() -> Self {
        Trace {
            epoch: None,
            thread: 0,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording trace; threads of one run share `epoch`.
    pub fn on(epoch: Instant, thread: u32) -> Self {
        Trace {
            epoch: Some(epoch),
            thread,
            ..Trace::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    /// A span with no parent starts a new operation id.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.op += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent,
            op: self.op,
            name,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: None,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = Some(epoch.elapsed().as_nanos() as u64);
        out
    }
}

/// Per-name totals over every thread's spans.
pub struct Summary {
    pub spans: usize,
    pub unclosed: usize,
    pub negative_self: usize,
    /// name → (count, total ns, self ns).
    pub by_name: BTreeMap<&'static str, (u64, u64, i128)>,
}

/// A span's self time is its duration minus its children's.
pub fn summarize(traces: &[Trace]) -> Summary {
    let mut s = Summary {
        spans: 0,
        unclosed: 0,
        negative_self: 0,
        by_name: BTreeMap::new(),
    };
    for t in traces {
        let mut child_ns = vec![0u64; t.spans.len()];
        for sp in &t.spans {
            if let (Some(p), Some(end)) = (sp.parent, sp.end_ns) {
                child_ns[p] += end - sp.start_ns;
            }
        }
        for (i, sp) in t.spans.iter().enumerate() {
            s.spans += 1;
            let Some(end) = sp.end_ns else {
                s.unclosed += 1;
                continue;
            };
            let total = end - sp.start_ns;
            let own = i128::from(total) - i128::from(child_ns[i]);
            if own < 0 {
                s.negative_self += 1;
            }
            let e = s.by_name.entry(sp.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
    }
    s
}

/// One JSON object per span: thread, id, parent, op, name, start, end.
pub fn write_jsonl(path: &Path, traces: &[Trace]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in traces {
        for (id, sp) in t.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let end = sp.end_ns.map_or("null".to_string(), |e| e.to_string());
            writeln!(
                w,
                "{{\"thread\":{},\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{end}}}",
                t.thread, sp.op, sp.name, sp.start_ns
            )?;
        }
    }
    w.flush()
}
