//! In-memory span recording for the traced replay.
//!
//! A span is opened around each call into a layer's public function; its
//! parent is the innermost span open at the time. The replay runs on one
//! thread (the rayon shim pinned to width 1), so children nest inside their
//! parent without overlapping one another. Spans stay in memory until the
//! run ends, then are written out as NDJSON.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer call name, e.g. `darshan.parse_text`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Replayed request the span belongs to.
    pub request: u64,
}

impl SpanRecord {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Inner {
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    request: u64,
}

/// Records spans from one thread.
pub struct Recorder {
    epoch: Instant,
    owner: std::thread::ThreadId,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A recorder owned by the calling thread.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            owner: std::thread::current().id(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                request: 0,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag subsequent spans with request `request`.
    pub fn set_request(&self, request: u64) {
        self.lock().request = request;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        assert_eq!(
            std::thread::current().id(),
            self.owner,
            "spans must be recorded on the replay thread"
        );
        self.inner.lock().expect("span recorder poisoned")
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut inner = self.lock();
            let index = inner.spans.len();
            let record = SpanRecord {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: inner.open.last().copied(),
                request: inner.request,
            };
            inner.spans.push(record);
            inner.open.push(index);
            index
        };
        // Read the clock outside the lock so bookkeeping is not charged
        // to the span.
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut inner = self.lock();
        assert_eq!(inner.open.pop(), Some(index), "spans closed out of order");
        let record = &mut inner.spans[index];
        record.start_ns = start;
        record.end_ns = end;
        out
    }

    /// The finished spans, in opening order.
    pub fn into_spans(self) -> Vec<SpanRecord> {
        let inner = self.inner.into_inner().expect("span recorder poisoned");
        assert!(inner.open.is_empty(), "spans still open");
        inner.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children's intervals (overlaps counted once).
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Write spans as NDJSON, one object per span.
pub fn write_ndjson(spans: &[SpanRecord], out: &mut impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_intervals() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps its sibling: counted once
            span(60, 70, Some(0)),
            span(95, 120, Some(0)), // clipped to the parent's end
            span(12, 18, Some(1)),  // grandchild: not the root's child
            span(200, 210, None),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (40 + 10 + 5));
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[2], 30);
        assert_eq!(own[5], 6);
        assert_eq!(own[6], 10);
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let rec = Recorder::new();
        rec.set_request(7);
        rec.span("outer", || {
            rec.span("inner", || std::hint::black_box(1 + 1));
            rec.span("inner", || ());
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let own = self_times(&spans);
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
    }
}
