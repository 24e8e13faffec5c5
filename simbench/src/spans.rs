//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each simulator layer; nothing inside the simulator is
//! instrumented. They are kept in memory and written out once, when the
//! benchmark ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// Simulation sequence number: every span of one simulation shares it.
    pub run: u32,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span over `[start, end]`; returns its index for use as a
    /// parent.
    pub fn record(
        &mut self,
        name: &'static str,
        run: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            run,
            parent,
            start: start - self.epoch,
            end: end - self.epoch,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is set later with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, run: u32, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, run, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Each span's duration minus the time its children cover. Children
    /// of one span never overlap: the benchmark is single-threaded.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut out: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end - s.start);
            }
        }
        out
    }

    /// Write one JSON object per span (NDJSON), times in nanoseconds
    /// since the recorder was created.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (i, (s, self_t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.run,
                s.start.as_nanos(),
                s.end.as_nanos(),
                self_t.as_nanos()
            );
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(text.as_bytes())?;
        f.flush()
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, Duration)> {
        let mut out: Vec<(&'static str, Duration)> = Vec::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += t,
                None => out.push((s.name, t)),
            }
        }
        out
    }
}
