//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each workspace crate (nothing inside the program is instrumented). Each
//! span carries a name, start and end, the span that caused it and a run
//! id; a disabled tracer just calls through. Spans stay in memory and are
//! written out once, at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer call, `crate.function`.
    pub name: &'static str,
    /// Run id: the benchmark round or replay the span belongs to.
    pub run: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations (ns).
    pub total_ns: u64,
    /// Summed self time (ns): duration minus what child spans cover.
    pub self_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The recorder. Shared by reference across threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`, else passes calls through.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span whose parent is the innermost span open on
    /// this thread.
    pub fn span<R>(&self, name: &'static str, run: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.span_under(name, run, self.current(), f)
    }

    /// Runs `f` inside a span with an explicit parent (for spans opened on
    /// worker threads on behalf of a span on another thread).
    pub fn span_under<R>(
        &self,
        name: &'static str,
        run: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|s| s.borrow_mut().push(id));
        let start = self.now();
        let out = f();
        let end = self.now();
        OPEN.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .push(Span {
                id,
                parent,
                name,
                run,
                start,
                end,
            });
        out
    }

    /// The innermost span open on this thread.
    #[must_use]
    pub fn current(&self) -> Option<u64> {
        OPEN.with(|s| s.borrow().last().copied())
    }

    /// Every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span list poisoned by a panic")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Per-name totals with self time.
    #[must_use]
    pub fn summarize(&self) -> BTreeMap<&'static str, Summary> {
        summarize(&self.spans())
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.run,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-name totals with self time: each span's duration minus the part of
/// its interval its children cover (children on other threads overlap, so
/// the union is taken, not the sum).
#[must_use]
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Summary> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, Summary> = BTreeMap::new();
    for s in spans {
        let dur = s.end - s.start;
        let kids = children.remove(&s.id).unwrap_or_default();
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += dur;
        entry.self_ns += dur - covered(kids, s.start, s.end);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            run: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "root", 0, 100),
            // Two overlapping children on different threads cover 10..60.
            span(2, Some(1), "child", 10, 50),
            span(3, Some(1), "child", 30, 60),
            span(4, Some(2), "leaf", 20, 30),
        ];
        let s = summarize(&spans);
        assert_eq!(s["root"].self_ns, 50);
        assert_eq!(s["child"].total_ns, 70);
        assert_eq!(s["child"].self_ns, 30 + 30);
        assert_eq!(s["leaf"].self_ns, 10);
    }

    #[test]
    fn nesting_follows_the_thread_and_disabled_records_nothing() {
        let t = Tracer::new(true);
        t.span("outer", 7, || t.span("inner", 7, || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.run, 7);
        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, || 5), 5);
        assert!(off.spans().is_empty());
    }
}
