//! Spans recorded by the benchmark itself, around its calls into the
//! program's layers: kept in memory while measuring, written out as a
//! Chrome/Perfetto trace when the run ends.

use crate::json::Json;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one operation: its front-door span, its
    /// engine-direct replay, and the ladder under it.
    pub op: u64,
    /// Display row in the trace viewer.
    pub lane: u32,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        lane: u32,
    ) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            lane,
        });
        self.spans.len() - 1
    }

    /// Closes a span now and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Records a span whose two instants were taken by the caller.
    pub fn record(&mut self, name: &'static str, op: u64, lane: u32, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op,
            lane,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the document Perfetto and `chrome://tracing` load: one
    /// complete (`"X"`) event per span, microsecond timestamps. Events
    /// are rendered one at a time — a run records a hundred thousand
    /// spans, and a tree of them all would be the run's peak memory.
    pub fn write_chrome(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (id, (s, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let event = Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(i64::from(s.lane))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::count(id as u64)),
                        ("op", Json::count(s.op)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::count(p as u64)),
                        ),
                        ("self_us", Json::Num(self_ns as f64 / 1e3)),
                    ]),
                ),
            ]);
            if id > 0 {
                out.write_all(b",")?;
            }
            out.write_all(event.render().as_bytes())?;
        }
        out.write_all(b"]}\n")
    }

    /// [`Recorder::write_chrome`] into a new file at `path`.
    pub fn write_chrome_file(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        self.write_chrome(&mut out)?;
        // Dropping a BufWriter would swallow a failed last write.
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (children clipped to the parent,
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if clipped.0 < clipped.1 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.end_ns - s.start_ns - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_what_children_cover() {
        let spans = [
            span(0, 100, None),      // 0: root
            span(10, 30, Some(0)),   // 1: child, 20 inside
            span(25, 50, Some(0)),   // 2: overlaps 1 by 5 → adds 20
            span(90, 140, Some(0)),  // 3: clipped to 90..100 → adds 10
            span(12, 20, Some(1)),   // 4: grandchild, counts against 1 only
            span(200, 260, None),    // 5: childless
            span(300, 300, Some(5)), // 6: empty, outside its parent
        ];
        assert_eq!(self_times(&spans), [50, 12, 25, 50, 8, 60, 0]);
    }

    #[test]
    fn recorder_nests_and_exports_one_event_per_span() {
        let mut rec = Recorder::default();
        let root = rec.begin("ladder", None, 7, 3);
        let kid = rec.begin("core.decode", Some(root), 7, 3);
        assert!(rec.end(kid) >= 0.0);
        assert!(rec.end(root) >= 0.0);
        let (t0, t1) = (Instant::now(), Instant::now());
        rec.record("client.get", 8, 100, t0, t1);
        assert_eq!(rec.len(), 3);
        let mut text = Vec::new();
        rec.write_chrome(&mut text).unwrap();
        let doc = crate::json::parse::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents")
        };
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[1].get("args").unwrap().get("parent"),
            Some(&Json::Int(0))
        );
        assert_eq!(
            events[2].get("args").unwrap().get("op"),
            Some(&Json::Int(8))
        );
    }
}
