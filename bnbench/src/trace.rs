//! In-memory span recording for the traced run.
//!
//! Spans are recorded in the benchmark's own code, around its calls
//! into each module's public functions. A span has a name, a start and
//! an end, an optional parent and the id of the operation it belongs
//! to. Spans stay in memory until the run ends, when they are written
//! out as JSON lines and folded into per-name self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `inference.propagate`.
    pub name: &'static str,
    /// The operation (query, request, edit) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus the part children cover).
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean self time per span, microseconds.
    pub fn self_us_each(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.count.max(1) as f64
    }

    /// Mean duration per span, microseconds.
    pub fn total_us_each(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

/// A growable span log sharing one time origin.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder with the given time origin; recorders that
    /// will be merged must share it.
    pub fn new(epoch: Instant, capacity: usize) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// An empty recorder sharing this one's epoch, for another thread;
    /// fold it back with [`Recorder::merge`].
    pub fn fork(&self) -> Recorder {
        Recorder::new(self.epoch, self.spans.capacity())
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        self.spans[id].end_ns = end_ns;
    }

    /// Records an interval timed elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let value = f();
        self.end(id);
        value
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's spans (same epoch), re-basing their
    /// parent indices; returns the index offset applied.
    pub fn merge(&mut self, other: Recorder) -> usize {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        offset
    }

    /// Per-name count, duration and self time. Self time is a span's
    /// duration minus the union of its children's intervals clipped to
    /// it.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total - covered.min(total);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 4);
        let at = |ns| epoch + std::time::Duration::from_nanos(ns);
        let root = rec.record("op", 0, None, at(0), at(100));
        rec.record("a", 0, Some(root), at(10), at(40));
        rec.record("b", 0, Some(root), at(30), at(60)); // overlaps a
        rec.record("c", 0, Some(root), at(90), at(120)); // runs past root
        let totals = rec.totals();
        assert_eq!(totals["op"].total_ns, 100);
        assert_eq!(totals["op"].self_ns, 100 - 50 - 10);
        assert_eq!(totals["a"].self_ns, 30);
    }

    #[test]
    fn merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 2);
        a.record("x", 0, None, epoch, epoch);
        let mut b = Recorder::new(epoch, 2);
        let p = b.record("y", 1, None, epoch, epoch);
        b.record("z", 1, Some(p), epoch, epoch);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
