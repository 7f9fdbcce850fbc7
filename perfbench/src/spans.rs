//! In-memory spans for the traced pass, written out when it ends.
//!
//! A span is a name, a start, an end and the span that caused it. The
//! benchmark records one around each call it makes (workload -> cell ->
//! setup / run / verify / oracle / replay.*), keeps them in memory, and
//! writes them as a Chrome trace (`ph: "X"`) loadable in Perfetto.

use std::collections::BTreeMap;
use std::time::Instant;
use suv::trace::Json;

struct Span {
    name: String,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// The span log of one traced pass.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log; span times are reported relative to now.
    pub fn new() -> Self {
        Spans { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
    ) -> usize {
        self.spans.push(Span { name: name.into(), parent, start, end });
        self.spans.len() - 1
    }

    /// Open a span that ends at the matching [`Spans::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, (now, now))
    }

    /// Close a span opened with [`Spans::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Time `f` as a span under `parent`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, (start, Instant::now()));
        out
    }

    /// Self time per span kind (the name up to its first space), in ms: a
    /// span's duration minus the part of it its children cover. Children
    /// of one span run one after another, so they never overlap.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += ms(s.start, s.end);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ms) {
            let kind = s.name.split(' ').next().unwrap_or_default().to_string();
            *out.entry(kind).or_insert(0.0) += ms(s.start, s.end) - c;
        }
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the log as Chrome trace JSON, creating parent directories.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or(Json::Null, |p| Json::U64(p as u64));
                Json::obj([
                    ("name", Json::from(s.name.as_str())),
                    ("ph", Json::from("X")),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(1)),
                    ("ts", Json::F64(us(s.start))),
                    ("dur", Json::F64(us(s.end) - us(s.start))),
                    ("args", Json::obj([("id", Json::U64(id as u64)), ("parent", parent)])),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::obj([("traceEvents", Json::Arr(events))]).render())
    }
}

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}
