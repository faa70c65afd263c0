//! Spans recorded by the benchmark around its calls into each layer's
//! public API: kept in memory, reduced to self times, and written out
//! once at the end as Chrome `trace_event` JSON.

use psa_sim::Json;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. Times are microseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// What the span was about (a job label, a stream), kept out of the
    /// name so spans of one kind aggregate.
    pub detail: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// Chrome-trace process and thread lanes.
    pub pid: u32,
    pub tid: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A thread-safe span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &str, parent: Option<usize>, tid: u32) -> usize {
        self.begin_detail(name, String::new(), parent, tid)
    }

    pub fn begin_detail(
        &self,
        name: &str,
        detail: String,
        parent: Option<usize>,
        tid: u32,
    ) -> usize {
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("span recorder lock");
        spans.push(Span {
            name: name.into(),
            detail,
            start_us,
            end_us: start_us,
            parent,
            pid: 1,
            tid,
        });
        spans.len() - 1
    }

    /// Close span `id`; returns its duration in microseconds.
    pub fn end(&self, id: usize) -> f64 {
        let end_us = self.now_us();
        let mut spans = self.spans.lock().expect("span recorder lock");
        spans[id].end_us = end_us;
        spans[id].dur_us()
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&self, name: &str, parent: Option<usize>, tid: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent, tid);
        let out = f();
        self.end(id);
        out
    }

    /// Append spans recorded by another process under lane `pid`,
    /// rebasing their parents and start times (`offset_us` is where the
    /// other recording's origin falls on this one's clock).
    pub fn absorb(&self, spans: &[Span], pid: u32, offset_us: f64) {
        let mut own = self.spans.lock().expect("span recorder lock");
        let base = own.len();
        own.extend(spans.iter().map(|s| Span {
            start_us: s.start_us + offset_us,
            end_us: s.end_us + offset_us,
            parent: s.parent.map(|p| p + base),
            pid,
            ..s.clone()
        }));
    }

    pub fn elapsed_us(&self) -> f64 {
        self.now_us()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder lock").clone()
    }
}

/// Each span's duration minus the part of its interval that its child
/// spans cover (overlapping children count once; parts of a child
/// outside its parent count for nothing).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_us));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

/// The spans as a Chrome `trace_event` document of complete (`X`)
/// events, each carrying its parent and self time.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let events = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (s, self_us))| {
            Json::obj([
                ("name", Json::str(&s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.dur_us())),
                ("pid", Json::uint(u64::from(s.pid))),
                ("tid", Json::uint(u64::from(s.tid))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::uint(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                        ),
                        ("self_us", Json::Num(*self_us)),
                        ("detail", Json::str(&s.detail)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

/// Spans as compact JSON for the child-to-driver hand-off.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::str(&s.name),
                    Json::str(&s.detail),
                    Json::Num(s.start_us),
                    Json::Num(s.end_us),
                    s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                    Json::uint(u64::from(s.tid)),
                ])
            })
            .collect(),
    )
}

/// Inverse of [`to_json`]; `None` on a malformed hand-off.
pub fn from_json(doc: &Json) -> Option<Vec<Span>> {
    doc.as_arr()?
        .iter()
        .map(|s| {
            let f = s.as_arr()?;
            Some(Span {
                name: f.first()?.as_str()?.to_string(),
                detail: f.get(1)?.as_str()?.to_string(),
                start_us: f.get(2)?.as_f64()?,
                end_us: f.get(3)?.as_f64()?,
                parent: f.get(4)?.as_f64().map(|p| p as usize),
                pid: 1,
                tid: f.get(5)?.as_f64()? as u32,
            })
        })
        .collect()
}

/// Per-name totals: (name, count, total ms, self ms), in first-seen order.
pub fn table(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let row = match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(row) => row,
            None => {
                rows.push((s.name.clone(), 0, 0.0, 0.0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        row.2 += s.dur_us() / 1e3;
        row.3 += self_us / 1e3;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            detail: format!("{name} detail"),
            start_us,
            end_us,
            parent,
            pid: 1,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let spans = [
            span("job", 0.0, 100.0, None),
            span("build", 10.0, 30.0, Some(0)),
            // Overlaps the previous child: 25..30 counts once.
            span("warm", 25.0, 60.0, Some(0)),
            // Runs past the parent's end: only 90..100 is covered.
            span("late", 90.0, 120.0, Some(0)),
            span("inner", 40.0, 50.0, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100.0 - 50.0 - 10.0);
        assert_eq!(selfs[1], 20.0);
        assert_eq!(
            selfs[2],
            35.0 - 10.0,
            "a grandchild only reduces its parent"
        );
        assert_eq!(selfs[3], 30.0);
        assert_eq!(selfs[4], 10.0);
    }

    #[test]
    fn recorder_nests_absorbs_and_round_trips() {
        let t = Tracer::new();
        let root = t.begin("root", None, 0);
        t.time("child", Some(root), 0, || ());
        t.end(root);
        let child_spans = vec![span("a", 0.0, 5.0, None), span("b", 1.0, 2.0, Some(0))];
        let back = from_json(&to_json(&child_spans)).expect("round trip");
        assert_eq!(back, child_spans);
        t.absorb(&back, 2, 1000.0);
        let all = t.spans();
        assert_eq!(all.len(), 4);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[3].parent, Some(2), "absorbed parents are rebased");
        assert_eq!((all[3].pid, all[3].start_us), (2, 1001.0));
        let doc = chrome_trace(&all);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        for ev in events {
            for field in ["name", "ph", "ts"] {
                assert!(ev.get(field).is_some(), "{field}");
            }
        }
        let rows = table(&all);
        assert_eq!(rows.iter().map(|r| r.1).sum::<usize>(), 4);
    }
}
