//! In-memory spans recorded around calls into the program's layers.
//!
//! Each span has a name, a start, an end and the span that caused it.
//! Spans are kept in memory while the traced run executes and written out
//! once it ends. A span's *self time* is its duration minus the part of its
//! interval that its child spans cover; children may run on other threads,
//! so the covered part is the union of their intervals.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use obs::JsonValue;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within its tracer, in opening order.
    pub id: usize,
    /// The span this one ran inside of (`None` for a root).
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `lossmap.attribute`.
    pub name: &'static str,
    /// Thread the span ran on.
    pub thread: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread-safe span recorder.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            // simlint: allow(D002, reason = "benchmark host-time measurement; never feeds simulation state")
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so that it can open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        // The id only has to be unique; it publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            thread: format!("{:?}", std::thread::current().id()),
            start_ns: start,
            end_ns: end,
        };
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(span);
        out
    }

    /// Every finished span, in id order.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("no span recorder panics while holding the lock");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span (same order as `spans`), in nanoseconds.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            children.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in children {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Summed duration, in seconds, of every span named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// Per-name `(count, total_s, self_s)` rows in first-seen order.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(row) => row,
            None => {
                rows.push((s.name, 0, 0.0, 0.0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        row.2 += s.duration_ns() as f64 / 1e9;
        row.3 += self_ns as f64 / 1e9;
    }
    rows
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let num = |n: u64| JsonValue::Num(n as f64);
    spans
        .iter()
        .zip(self_times_ns(spans))
        .map(|(s, self_ns)| {
            let line = JsonValue::Obj(vec![
                ("id".to_string(), num(s.id as u64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(JsonValue::Null, |p| num(p as u64)),
                ),
                ("name".to_string(), JsonValue::Str(s.name.to_string())),
                ("thread".to_string(), JsonValue::Str(s.thread.clone())),
                ("start_ns".to_string(), num(s.start_ns)),
                ("end_ns".to_string(), num(s.end_ns)),
                ("self_ns".to_string(), num(self_ns)),
            ]);
            line.to_string_compact() + "\n"
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            thread: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two children on different threads overlap in [20, 30).
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(1), 12, 14),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 18, 30, 2]);
    }

    #[test]
    fn spans_nest_and_record_their_parent() {
        let tracer = Tracer::default();
        tracer.span("outer", None, |id| {
            tracer.span("inner", Some(id), |_| ());
        });
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
