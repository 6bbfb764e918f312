//! The benchmark's own tracing: spans recorded around the calls into
//! each layer, kept in memory, written out as JSON lines when the run
//! ends, and reduced to per-layer self times.
//!
//! A span is `{id, name, start_ns, end_ns, parent, request_id}`; spans
//! of one request share `request_id`. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans
//! cover (children are clipped to the parent and overlapping children
//! are counted once).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use yask_server::Json;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one; `None` for a request's root.
    pub parent: Option<u64>,
    pub request_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from the client thread and the server's handler
/// threads. Ids are 1-based positions in the record.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records one finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u64>,
        request_id: u64,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        id
    }

    /// Opens a span that starts now; [`Recorder::close`] ends it.
    pub fn open(&self, name: &'static str, parent: Option<u64>, request_id: u64) -> u64 {
        let now = self.now_ns();
        self.record(name, now, now, parent, request_id)
    }

    /// Ends an open span now.
    pub fn close(&self, id: u64) {
        let now = self.now_ns();
        self.spans.lock().expect("span recorder poisoned")[id as usize - 1].end_ns = now;
    }

    /// Records a span measured in a *replay* of the request — the same
    /// operation called directly on an inner layer, outside the request
    /// it belongs to — as a child of `parent`, starting `offset_ns` into
    /// the parent, so the self-time rule applies to replayed depths too.
    /// Successive replayed children of one parent are laid end to end.
    pub fn graft(&self, name: &'static str, offset_ns: u64, dur_ns: u64, parent: &Span) -> u64 {
        let start = parent.start_ns + offset_ns;
        self.record(
            name,
            start,
            start + dur_ns,
            Some(parent.id),
            parent.request_id,
        )
    }

    pub fn get(&self, id: u64) -> Span {
        self.spans.lock().expect("span recorder poisoned")[id as usize - 1].clone()
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// Self time of every span, in input order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // Child intervals per parent position, clipped to the parent. A span
    // whose parent is not in the set (an orphan) is a root: it keeps its
    // own self time and is charged to nobody.
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        let Some(&p) = s.parent.and_then(|id| index.get(&id)) else {
            continue;
        };
        let (lo, hi) = (
            s.start_ns.max(spans[p].start_ns),
            s.end_ns.min(spans[p].end_ns),
        );
        if lo < hi {
            children.entry(p).or_default().push((lo, hi));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(kids) = children.get_mut(&i) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self times grouped by span name, in microseconds.
pub fn self_us_by_name(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name.to_string())
            .or_default()
            .push(ns as f64 / 1e3);
    }
    out
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
            s.id,
            Json::str(s.name.to_string()),
            s.start_ns,
            s.end_ns,
            parent,
            s.request_id
        )?;
    }
    out.flush()
}

#[cfg(test)]
pub fn read_jsonl(path: &Path) -> io::Result<Vec<Span>> {
    let bad = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
    let mut spans = Vec::new();
    use std::io::BufRead;
    for (n, line) in io::BufReader::new(std::fs::File::open(path)?)
        .lines()
        .enumerate()
    {
        let line = line?;
        let j = Json::parse(&line).map_err(|e| bad(format!("line {}: {e}", n + 1)))?;
        let num = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| bad(format!("line {}: no {key}", n + 1)))
        };
        spans.push(Span {
            id: num("id")?,
            name: Cow::Owned(
                j.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad(format!("line {}: no name", n + 1)))?
                    .to_owned(),
            ),
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
            parent: j.get("parent").and_then(Json::as_f64).map(|v| v as u64),
            request_id: num("request_id")?,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: Cow::Borrowed(name),
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = vec![
            span(1, "http", 0, 100, None),
            // Two overlapping children cover [10, 50) once, not twice.
            span(2, "handle", 10, 40, Some(1)),
            span(3, "handle", 30, 50, Some(1)),
            // A gap [50, 70), then a child that overruns its parent and
            // is clipped to [70, 100).
            span(4, "late", 70, 130, Some(1)),
            // A grandchild only reduces its own parent.
            span(5, "exec", 12, 20, Some(2)),
            // A child entirely outside the parent covers nothing.
            span(6, "stray", 200, 300, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(
            own[0],
            100 - 40 - 30,
            "http: [10,50) and [70,100) are covered"
        );
        assert_eq!(own[1], 30 - 8, "handle minus its exec child");
        assert_eq!(own[2], 20);
        assert_eq!(
            own[3], 60,
            "a span keeps its full duration even where it overruns"
        );
        assert_eq!(own[4], 8);
        assert_eq!(own[5], 100);
    }

    #[test]
    fn an_orphan_is_a_root_and_is_charged_to_nobody() {
        let spans = vec![
            span(1, "http", 0, 50, None),
            span(2, "handle", 5, 25, Some(99)),
            span(3, "exec", 10, 20, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 10]);
        let by_name = self_us_by_name(&spans);
        assert_eq!(by_name["http"], vec![0.05]);
        assert_eq!(by_name["handle"], vec![0.01]);
    }

    #[test]
    fn grafted_replay_spans_are_laid_end_to_end_inside_their_parent() {
        let rec = Recorder::new();
        let http = rec.record("http", 1_000, 9_000, None, 7);
        let handle = rec.record("handle", 3_000, 8_000, Some(http), 7);
        let parent = rec.get(handle);
        let refine = rec.graft("core.keywords", 0, 3_000, &parent);
        let topk = rec.graft("exec.topk", 3_000, 1_500, &parent);
        let got = rec.get(topk);
        assert_eq!(
            (got.start_ns, got.end_ns, got.parent, got.request_id),
            (6_000, 7_500, Some(handle), 7)
        );
        assert_eq!(rec.get(refine).start_ns, 3_000);
        assert_eq!(self_times(&rec.snapshot()), vec![3_000, 500, 3_000, 1_500]);
    }

    #[test]
    fn trace_files_round_trip() {
        let spans = vec![
            span(1, "http", 0, 100, None),
            span(2, "server.handle", 10, 40, Some(1)),
            Span {
                request_id: 2,
                ..span(3, "quote\"d", 5, 6, Some(2))
            },
        ];
        let dir = std::env::temp_dir().join(format!("yaskbench-span-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-test.jsonl");
        write_jsonl(&path, &spans).unwrap();
        let back = read_jsonl(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, spans);
    }
}
