//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into the
//! program, kept in memory, and written once at exit as Chrome-trace JSON.
//! A layer's self time is its span's duration minus what its child spans
//! cover. A disabled recorder reads no clock and stores nothing, so the
//! untraced pass runs the same code.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub job: u64,
    /// Numbers read from the program's public reports, attached to the span
    /// they describe.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans. Every recorder of a run shares one `epoch`, so the
/// written trace has a single timeline.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    tid: u64,
    job: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, tid: u64) -> Self {
        Recorder {
            enabled,
            epoch,
            tid,
            job: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Recorder::new(false, Instant::now(), 0)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to job `job`, at the top level: a
    /// job that failed half-way leaves its spans unclosed.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
        self.open.clear();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its handle.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job: self.job,
            args: Vec::new(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    pub fn annotate(&mut self, idx: usize, key: &'static str, value: f64) {
        if self.enabled {
            self.spans[idx].args.push((key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// For every span, the time its direct children cover.
    fn child_cover_ns(&self) -> Vec<u64> {
        let mut cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                cover[p] += s.dur_ns();
            }
        }
        cover
    }

    /// Durations, in microseconds, of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// For every span named `name`, the share of its duration that its
    /// direct children cover.
    pub fn cover_shares(&self, name: &str) -> Vec<f64> {
        let cover = self.child_cover_ns();
        self.spans
            .iter()
            .zip(&cover)
            .filter(|(s, _)| s.name == name && s.dur_ns() > 0)
            .map(|(s, &c)| c as f64 / s.dur_ns() as f64)
            .collect()
    }

    /// Total self time per span name, nanoseconds.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let cover = self.child_cover_ns();
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&cover) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Chrome-trace "complete" events for the first `limit` spans.
    fn chrome_events(&self, limit: usize, out: &mut Vec<Value>) {
        for (idx, s) in self.spans.iter().enumerate().take(limit) {
            let mut args = vec![
                ("id".to_string(), json!(idx as u64)),
                ("job".to_string(), json!(s.job)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), json!(p as u64)));
            }
            for &(k, v) in &s.args {
                args.push((k.to_string(), json!(v)));
            }
            out.push(json!({
                "name": s.name,
                "ph": "X",
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.dur_ns() as f64 / 1e3,
                "pid": 1u64,
                "tid": self.tid,
                "args": Value::Object(args),
            }));
        }
    }
}

/// The Chrome-trace document of a run: at most `limit` spans per recorder,
/// so a long replay loop cannot write an unloadable file (statistics are
/// always taken over every span in memory).
pub fn chrome_trace(recorders: &[&Recorder], limit: usize) -> Value {
    let mut events = Vec::new();
    for r in recorders {
        r.chrome_events(limit, &mut events);
    }
    json!({ "traceEvents": Value::Array(events), "displayTimeUnit": "ns" })
}
