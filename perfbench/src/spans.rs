//! The traced run's span recorder. Spans are taken only in the
//! benchmark's own code, around the calls it makes into each layer; they
//! stay in memory and are written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span: `[start_ns, end_ns)` since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one, or 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has been entered and not yet exited.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

/// One thread's span log. A disabled log records nothing and reads no
/// clock, so the untimed and timed passes run the same code.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, thread: u64, enabled: bool) -> SpanLog {
        SpanLog { origin, enabled, thread, next: 0, spans: Vec::new() }
    }

    pub fn enter(&mut self, name: &'static str, parent: u64) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        Some(Open { id, parent, name, start: Instant::now() })
    }

    pub fn exit(&mut self, open: Option<Open>) {
        let Some(o) = open else { return };
        let end = Instant::now();
        self.spans.push(Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            thread: self.thread,
            start_ns: o.start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
    }
}

/// Self time per span name, in ns: each span's duration minus the part
/// of it that its child spans cover, summed over the spans of that name.
pub fn self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    // A thread's spans never overlap their siblings, so the covered part
    // of a span is the sum of its children's durations.
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        *out.entry(s.name).or_default() +=
            dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Write `spans` as a Chrome `trace_event` JSON array.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}{}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}
