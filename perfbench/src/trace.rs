//! Spans recorded by the benchmark around its calls into the program.
//!
//! Spans live in memory for the whole run and are written out once, at
//! the end, as one JSON object per line.

use crate::gen::Op;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run; a request span's id is its request id.
    pub id: u64,
    /// The span that caused this one (0 for a root span).
    pub parent: u64,
    /// What was called.
    pub name: &'static str,
    /// Which phase of the run it belongs to.
    pub phase: &'static str,
    /// Start on the run's clock.
    pub start: Duration,
    /// End on the run's clock.
    pub end: Duration,
}

impl Span {
    /// A root span for one client request.
    pub fn request(op: &Op, phase: &'static str, start: Duration, end: Duration) -> Span {
        let name = match op {
            Op::Update { .. } => "update",
            Op::Query { .. } => "query",
        };
        Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            name,
            phase,
            start,
            end,
        }
    }

    /// Duration in µs.
    pub fn us(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64() * 1e6
    }
}

/// The run's span store. Disabled, it records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    root: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`, with one root span for
    /// the whole run that the benchmark's own child spans hang from.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            root: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a child span of the run named `name`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        phase: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.epoch.elapsed();
        let out = f();
        if self.on {
            self.spans.push(Span {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                parent: self.root,
                name,
                phase,
                start,
                end: self.epoch.elapsed(),
            });
        }
        out
    }

    /// Adds spans recorded elsewhere (load threads).
    pub fn extend(&mut self, spans: Vec<Span>) {
        if self.on {
            self.spans.extend(spans);
        }
    }

    /// Every span kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the run span and every kept span to `path`, one JSON
    /// object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        let ns = |d: Duration| d.as_nanos();
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":0,\"name\":\"run\",\"phase\":\"run\",\"start_ns\":0,\"end_ns\":{}}}",
            self.root,
            ns(self.epoch.elapsed())
        );
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.name,
                s.phase,
                ns(s.start),
                ns(s.end)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
