//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (the layer call), start and end (nanoseconds since
//! the tracer was created), the span that caused it, and the request id
//! of the operation it belongs to. Spans are buffered in memory and
//! written out once, when the run ends; while the tracer is disabled a
//! span costs one atomic load and reads no clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Open a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, req: u64) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        SpanGuard {
            open: Some(Open {
                tracer: self,
                id,
                parent,
                req,
                name,
                start: Instant::now(),
            }),
        }
    }

    /// All spans closed so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    req: u64,
    name: &'static str,
    start: Instant,
}

pub struct SpanGuard<'a> {
    open: Option<Open<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else { return };
        let end = Instant::now();
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == o.id) {
                s.remove(pos);
            }
        });
        let span = Span {
            id: o.id,
            parent: o.parent,
            req: o.req,
            name: o.name,
            start_ns: o.tracer.nanos(o.start),
            end_ns: o.tracer.nanos(end),
        };
        // a poisoned buffer only loses trace data; never panic in drop
        if let Ok(mut spans) = o.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Write spans as JSON lines, one object per span.
pub fn write_jsonl(w: impl Write, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(w);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Per-name totals of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerTime {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// A span's self time is its duration minus the part of its interval
/// covered by its children (overlapping children counted once). Rows are
/// sorted by self time, largest first.
pub fn self_times(spans: &[Span]) -> Vec<LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let row = rows.entry(s.name).or_insert(LayerTime {
            name: s.name,
            count: 0,
            total_ms: 0.0,
            self_ms: 0.0,
        });
        row.count += 1;
        row.total_ms += s.duration_ns() as f64 / 1e6;
        row.self_ms += s.duration_ns().saturating_sub(covered) as f64 / 1e6;
    }
    let mut rows: Vec<LayerTime> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms).then(a.name.cmp(b.name)));
    rows
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// The self-time table as text lines.
pub fn render_table(rows: &[LayerTime]) -> Vec<String> {
    let all_self: f64 = rows.iter().map(|r| r.self_ms).sum();
    let mut out = vec![format!(
        "{:<28} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "self %"
    )];
    for r in rows {
        out.push(format!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            r.name,
            r.count,
            r.total_ms,
            r.self_ms,
            if all_self > 0.0 {
                100.0 * r.self_ms / all_self
            } else {
                0.0
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("a", 1));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer", 7);
            let _inner = t.span("inner", 7);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(inner.req, 7);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "op", 0, 100),
            // two overlapping children cover [10, 50): 40 ns
            span(2, Some(1), "child", 10, 40),
            span(3, Some(1), "child", 30, 50),
            // a child running past its parent is clipped to [90, 100)
            span(4, Some(1), "late", 90, 120),
        ];
        let rows = self_times(&spans);
        let op = rows.iter().find(|r| r.name == "op").unwrap();
        assert_eq!(op.count, 1);
        assert!((op.self_ms - 50.0 / 1e6).abs() < 1e-12);
        let child = rows.iter().find(|r| r.name == "child").unwrap();
        assert_eq!(child.count, 2);
        assert!((child.self_ms - 50.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = Vec::new();
        write_jsonl(
            &mut out,
            &[span(1, None, "a", 0, 5), span(2, Some(1), "b", 1, 2)],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":2,\"parent\":1,\"req\":1,\"name\":\"b\",\"start_ns\":1,\"end_ns\":2}"
        );
    }
}
