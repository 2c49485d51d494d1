//! In-memory spans for the traced run.
//!
//! Every span comes from this benchmark's own code around one call into a
//! layer of the program (a request, a drain, a barrier wait, a recovery
//! step). Each thread records into its own [`Recorder`]; the run merges
//! them and writes one JSON-lines file when it ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Nanoseconds from the run's common time base `epoch` to `t`.
pub fn at(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root span.
    pub parent: u64,
    /// Request id shared by every span of one request or one recovery.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts recorded at the span's boundaries (stats deltas,
    /// `remaining_lines()`, `bucket_count()`).
    pub attrs: Vec<(&'static str, i64)>,
}

/// One thread's span buffer. Request spans beyond `request_cap` are counted
/// but not kept, so a long window cannot grow the buffer without bound;
/// every other span is kept.
pub struct Recorder {
    thread: u64,
    next: u64,
    request_cap: usize,
    requests_kept: usize,
    pub dropped: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(thread: u64, request_cap: usize) -> Recorder {
        Recorder {
            thread,
            next: 0,
            request_cap,
            requests_kept: 0,
            dropped: 0,
            spans: Vec::with_capacity(request_cap.min(1 << 16) + 64),
        }
    }

    /// A fresh span id, unique across recorders of one run.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.thread << 40 | self.next
    }

    /// Keeps a request span if the buffer still has room for one.
    pub fn request(&mut self, span: Span) {
        if self.requests_kept < self.request_cap {
            self.requests_kept += 1;
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }
}

/// Writes `header` and every span, ordered by start time, as JSON lines.
pub fn write(path: &std::path::Path, header: &str, recorders: &[Recorder]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut all: Vec<&Span> = recorders.iter().flat_map(|r| r.spans.iter()).collect();
    all.sort_by_key(|s| (s.start_ns, s.id));
    let dropped: u64 = recorders.iter().map(|r| r.dropped).sum();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"header\":{header},\"spans\":{},\"request_spans_dropped\":{dropped}}}",
        all.len()
    )?;
    let mut line = String::new();
    for s in all {
        line.clear();
        let _ = write!(
            line,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        );
        for (k, v) in &s.attrs {
            let _ = write!(line, ",\"{k}\":{v}");
        }
        line.push('}');
        writeln!(out, "{line}")?;
    }
    out.flush()
}
