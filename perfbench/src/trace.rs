//! In-memory spans recorded around calls into the library.
//!
//! A span is `(name, op, id, parent, thread, start, end)`: `op` is the
//! identifier every span of one timed operation shares, and `parent` the
//! span that caused it (0 for a root). Spans are buffered per thread
//! ([`LocalTrace`]) and handed to the shared [`Tracer`] once, when the
//! thread's work ends, so a span costs two clock reads and a push. A
//! `LocalTrace` without a tracer records nothing. Self times are computed
//! from the written-out spans by `perfbench/stats.py`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
const ROOT: u64 = 0;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub id: u64,
    pub parent: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The shared span store of one traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Every span recorded so far, in no particular order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("no thread panicked while holding the span store")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A span that has started and not yet ended (inert when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    name: &'static str,
    op: u64,
    parent: u64,
    start_ns: u64,
}

/// One thread's span buffer; [`flush`](Self::flush) hands it to the tracer.
pub struct LocalTrace<'a> {
    tracer: Option<&'a Tracer>,
    thread: u32,
    buf: Vec<Span>,
}

impl<'a> LocalTrace<'a> {
    /// A buffer whose spans are labelled with `thread`; records nothing
    /// when `tracer` is `None`.
    pub fn new(tracer: Option<&'a Tracer>, thread: u32) -> Self {
        LocalTrace {
            tracer,
            thread,
            buf: Vec::new(),
        }
    }

    /// Starts a root span of operation `op`.
    pub fn root(&mut self, name: &'static str, op: u64) -> Open {
        self.start(name, op, ROOT)
    }

    /// Starts a child of `parent` in the same operation.
    pub fn child(&mut self, name: &'static str, parent: &Open) -> Open {
        self.start(name, parent.op, parent.id)
    }

    fn start(&mut self, name: &'static str, op: u64, parent: u64) -> Open {
        let Some(tracer) = self.tracer else {
            return Open {
                id: ROOT,
                name,
                op,
                parent,
                start_ns: 0,
            };
        };
        // Relaxed: the id is a unique label, it publishes no other data.
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            name,
            op,
            parent,
            start_ns: tracer.now_ns(),
        }
    }

    pub fn close(&mut self, span: Open) {
        if let Some(tracer) = self.tracer {
            let end_ns = tracer.now_ns();
            self.push(span, span.start_ns, end_ns);
        }
    }

    /// Records a child of `parent` lasting `seconds` from `start_ns` — for
    /// stage durations a library reports as numbers rather than
    /// intervals. Returns where it ends, so stages can be laid end to end.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &Open,
        start_ns: u64,
        seconds: f64,
    ) -> u64 {
        let end_ns = start_ns + (seconds.max(0.0) * 1e9) as u64;
        let span = self.child(name, parent);
        if self.tracer.is_some() {
            self.push(span, start_ns, end_ns);
        }
        end_ns
    }

    fn push(&mut self, span: Open, start_ns: u64, end_ns: u64) {
        self.buf.push(Span {
            name: span.name,
            op: span.op,
            id: span.id,
            parent: span.parent,
            thread: self.thread,
            start_ns,
            end_ns,
        });
    }

    pub fn flush(self) {
        if let Some(tracer) = self.tracer {
            tracer
                .spans
                .lock()
                .expect("no thread panicked while holding the span store")
                .extend(self.buf);
        }
    }
}

impl Open {
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}
